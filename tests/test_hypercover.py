"""Coskeleton data, hypercover verdicts, span refinement constructions."""

import pytest

import toposdescent as td



def test_cosk_data_cech_canonical_iso(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    data = td.cosk_data(fam)
    # level one of the canonical family is exactly the pairwise products
    for l in fam.sset.s1:
        sp = td.span_of_1simplex(fam, l)
        assert td.fintopos.pairing([sp.left, sp.right], data.pair_limit[(sp.i, sp.j)]).is_iso()
    assert data.pair_limit[("1", "2")].size() == 2


def test_cosk_data_without_2simplices(fixture_cover):
    # the boundary-triple data only depends on levels 0 and 1
    fam = td.cech_simplicial_family(fixture_cover).base
    data = td.cosk_data(fam)
    assert data.t2
    for key, lim in data.triple_limit.items():
        assert not lim.is_initial()
    for w in fam.sset.s2:
        key = (fam.sset.d(2, 2, w), fam.sset.d(2, 1, w), fam.sset.d(2, 0, w))
        assert key in data.triple_limit


def test_triangle_limit_matches_bruteforce(fixture_cover):
    # oracle: compatible leg triples enumerated directly
    fam = td.cech_simplicial_family(fixture_cover).base
    data = td.cosk_data(fam)
    l, t, r = ("1", "2"), ("1", "2"), ("2", "2")
    sl = td.span_of_1simplex(fam, l)
    st = td.span_of_1simplex(fam, t)
    sr = td.span_of_1simplex(fam, r)
    brute = [
        (a, b, c)
        for a in sl.vertex.fibers["pt"]
        for b in st.vertex.fibers["pt"]
        for c in sr.vertex.fibers["pt"]
        if sl.left.apply("pt", a) == st.left.apply("pt", b)
        and sl.right.apply("pt", a) == sr.left.apply("pt", c)
        and st.right.apply("pt", b) == sr.right.apply("pt", c)
    ]
    assert set(data.triple_limit[(l, t, r)].fibers["pt"]) == set(brute)


def test_cech_family_is_hypercover_of_its_cover(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    assert td.is_hypercover(fam, fixture_cover)


def test_is_hypercover_level0_mismatch(fixture_cover, two_singleton_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    with pytest.raises(ValueError):
        td.is_hypercover(fam, two_singleton_cover)


def test_coverage_report_computed_once_per_family(fixture_cover, two_singleton_cover, monkeypatch):
    calls = []
    real = td.hypercover.cosk_data
    monkeypatch.setattr(td.hypercover, "cosk_data", lambda f: calls.append(f) or real(f))
    fam = td.connected_refinement(fixture_cover).base
    assert td.is_hypercover(fam, fixture_cover)
    assert td.is_hypercover(fam, fixture_cover)
    assert len(calls) == 1
    # level 0 is still checked against the given cover on every call
    with pytest.raises(ValueError, match="level-0"):
        td.is_hypercover(fam, two_singleton_cover)
    # a kept negative verdict still makes h_to_u refuse, call after call
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in sorted(td.family_components(two_singleton_cover).items())
    ]
    starved = td.one_span_refinement(two_singleton_cover, td.SpanClassSp(tuple(ident)))
    h = td.enumerate_h_descent_data(starved, carriers={"1": ("*",), "2": ("*",)})[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="not a hypercover"):
            td.h_to_u(h, two_singleton_cover)
    assert len(calls) == 2


def test_connected_refinement_is_hypercover(cover_suite):
    for name, cover in cover_suite:
        ref = td.connected_refinement(cover)
        assert td.validate_selfdual(ref) == [], name
        assert td.condition_g(ref), name
        assert td.is_hypercover(ref.base, cover), name


def test_connected_refinement_connectivity_flag(pt, fixture_cover):
    with pytest.raises(ValueError):
        td.connected_refinement(fixture_cover, require_connected=True)
    singles = td.family_from_parts(
        pt,
        {"1": td.constant_presheaf(("a",), pt), "2": td.constant_presheaf(("b",), pt)},
    )
    ref = td.connected_refinement(singles, require_connected=True)
    assert td.is_hypercover(ref.base, singles)


def test_connected_refinement_singleton_vertices(fixture_cover):
    # over a point, the connected generators are the singletons
    ref = td.connected_refinement(fixture_cover)
    for l in ref.base.sset.s1:
        comp = ref.base.component(1, l)
        if l not in set(ref.base.sset.degen[(0, 0)].values()):
            assert comp.size() == 1


def test_connected_refinement_chain_generators(chain_cover):
    # representables of both points appear as span vertices
    ref = td.connected_refinement(chain_cover)
    sizes = set()
    for l in ref.base.sset.s1:
        comp = ref.base.component(1, l)
        sizes.add(tuple(len(comp.fibers[p]) for p in ("a", "b")))
    assert sizes == {(1, 0), (1, 1)}


def test_zero_span_refinement_small(pt, two_singleton_cover):
    comps = td.family_components(two_singleton_cover)
    cls = td.SpanClass((comps["1"], comps["2"]))
    ref = td.zero_span_refinement(two_singleton_cover, cls)
    assert td.validate_selfdual(ref) == []
    assert td.condition_g(ref)
    assert td.is_hypercover(ref.base, two_singleton_cover)
    # two singleton vertices, one span per ordered pair and vertex
    assert len(ref.base.sset.s1) == 8


def test_zero_span_refinement_fixture(fixture_cover):
    comps = td.family_components(fixture_cover)
    cls = td.SpanClass((comps["1"], comps["2"]))
    ref = td.zero_span_refinement(fixture_cover, cls)
    # spans over (1,2): vertex U_1 gives 1*2, vertex U_2 gives 1*4
    count_12 = sum(
        1 for l in ref.base.sset.s1 if ref.base.sset.endpoints(l) == ("1", "2")
    )
    assert count_12 == 6
    assert td.condition_g(ref)
    assert td.is_hypercover(ref.base, fixture_cover)


def test_zero_span_degeneracies_are_identity_spans(two_singleton_cover):
    comps = td.family_components(two_singleton_cover)
    ref = td.zero_span_refinement(
        two_singleton_cover, td.SpanClass((comps["1"], comps["2"]))
    )
    fam = ref.base
    for i in fam.sset.s0:
        l = fam.sset.deg(0, 0, i)
        sp = td.span_of_1simplex(fam, l)
        # both legs strip the coproduct tag: a section-retraction pair
        s0 = fam.component_degen(0, 0, i)
        assert sp.left.after(s0).comp == td.PresheafMap.identity(fam.component(0, i)).comp


def test_zero_span_requires_components_in_class(fixture_cover, pt):
    with pytest.raises(ValueError):
        td.zero_span_refinement(
            fixture_cover, td.SpanClass((td.terminal_presheaf(pt),))
        )


def test_one_span_closure_errors(fixture_cover):
    comps = td.family_components(fixture_cover)
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in sorted(comps.items())
    ]
    reps = td.representable_spans(fixture_cover)
    cross = [s for s in reps if (s.i, s.j) == ("1", "2")]
    # dual spans missing
    with pytest.raises(td.ClosureError):
        td.one_span_refinement(fixture_cover, td.SpanClassSp(tuple(ident + cross[:1])))
    # identity spans missing
    with pytest.raises(td.ClosureError):
        td.one_span_refinement(fixture_cover, td.SpanClassSp(tuple(reps)))


def test_one_span_identity_class_is_minimal(two_singleton_cover):
    comps = td.family_components(two_singleton_cover)
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in sorted(comps.items())
    ]
    ref = td.one_span_refinement(two_singleton_cover, td.SpanClassSp(tuple(ident)))
    assert len(ref.base.sset.s1) == 2
    assert td.validate_selfdual(ref) == []
    assert td.condition_g(ref)
    # without cross spans the pairwise product over (1,2) is uncovered
    assert not td.is_hypercover(ref.base, two_singleton_cover)
    report = td.hypercover_report(ref.base)
    assert report["level1"][("1", "2")]


def test_one_span_on_full_class_matches_zero_span(two_singleton_cover):
    comps = td.family_components(two_singleton_cover)
    cls = td.SpanClass((comps["1"], comps["2"]))
    spans = []
    for i in sorted(comps):
        for j in sorted(comps):
            for v in cls.members:
                for u in td.hom_enumerate(v, comps[i]):
                    for w in td.hom_enumerate(v, comps[j]):
                        spans.append(td.ClassSpan(i, j, v, u, w))
    one = td.one_span_refinement(two_singleton_cover, td.SpanClassSp(tuple(spans)))
    zero = td.zero_span_refinement(two_singleton_cover, cls)
    assert set(one.base.sset.s1) == set(zero.base.sset.s1)
    assert set(one.base.sset.s2) == set(zero.base.sset.s2)


def test_check_epi_criteria(fixture_cover, two_singleton_cover, singleton_cover, pt):
    comps = td.family_components(two_singleton_cover)
    assert td.check_epi_criteria(two_singleton_cover, td.SpanClass((comps["1"], comps["2"])))

    # over a point, every element of a product or a triangle limit is the
    # image of a constant map from any non-empty vertex, so the terminal
    # alone meets the criteria, and so does any class that contains it
    comps_f = td.family_components(fixture_cover)
    terminal = td.terminal_presheaf(pt)
    assert td.check_epi_criteria(fixture_cover, td.SpanClass((terminal,)))
    with_terminal = td.SpanClass((terminal, comps_f["1"], comps_f["2"]))
    assert td.check_epi_criteria(fixture_cover, with_terminal)
    # class with the components covers everything over a point
    assert td.check_epi_criteria(fixture_cover, td.SpanClass((comps_f["1"], comps_f["2"])))

    single = td.family_components(singleton_cover)
    assert td.check_epi_criteria(singleton_cover, td.SpanClass((single["1"],)))


def test_check_epi_criteria_off_a_point(chain_cover):
    # the representable of the lower point has no element over the upper
    # one, so its spans miss the product there
    chain = chain_cover.total.base
    lower = td.SpanClass((td.representable(chain, "a"),))
    assert not td.check_epi_criteria(chain_cover, lower)


def test_check_epi_criteria_rejects_other_classes(fixture_cover):
    comps = td.family_components(fixture_cover)
    with pytest.raises(TypeError, match="list"):
        td.check_epi_criteria(fixture_cover, [comps["1"]])


def test_check_epi_criteria_starved_one_span(two_singleton_cover):
    comps = td.family_components(two_singleton_cover)
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in sorted(comps.items())
    ]
    csp = td.SpanClassSp(tuple(ident))
    assert not td.check_epi_criteria(two_singleton_cover, csp)


def test_epi_criteria_implies_hypercover(cover_suite):
    for name, cover in cover_suite:
        comps = td.family_components(cover)
        if cover.total.size() > 4:
            continue
        cls = td.SpanClass(tuple(comps[i] for i in sorted(comps)))
        if td.check_epi_criteria(cover, cls):
            ref = td.zero_span_refinement(cover, cls)
            assert td.is_hypercover(ref.base, cover), name


def test_representables_cover_chain_products(chain_cover):
    # representable classes always satisfy the joint-surjectivity criteria
    comps = td.family_components(chain_cover)
    poset = chain_cover.total.base
    members = tuple(comps[i] for i in sorted(comps)) + tuple(
        td.representable(poset, p) for p in poset.points
    )
    assert td.check_epi_criteria(chain_cover, td.SpanClass(members))


def _cech_missing_triangle(pt):
    """The Čech family of a two-element cover over a point with the
    non-degenerate H2 element ``(a, b, a)`` removed."""
    cover = td.family_from_parts(pt, {"1": td.constant_presheaf(("a", "b"), pt)})
    fam = td.cech_simplicial_family(cover).base
    h2 = td.constant_presheaf([e for e in fam.h2.fibers["pt"] if e != ("a", "b", "a")], pt)

    def restrict(m, dom, cod):
        return td.PresheafMap(dom, cod, {p: {e: m.apply(p, e) for e in dom.fibers[p]} for p in dom.base.points})

    face = dict(fam.face)
    for i in (0, 1, 2):
        face[(2, i)] = restrict(fam.face[(2, i)], h2, fam.h1)
    degen = dict(fam.degen)
    for i in (0, 1):
        degen[(1, i)] = restrict(fam.degen[(1, i)], fam.h1, h2)
    zeta = (fam.zeta[0], fam.zeta[1], restrict(fam.zeta[2], h2, fam.zeta[2].cod))
    return cover, td.SimplicialFamily(fam.h0, fam.h1, h2, face, degen, fam.sset, zeta)


def test_level2_miss_is_reported(pt):
    cover, fam = _cech_missing_triangle(pt)
    assert td.validate_family(fam) == []
    assert not td.is_hypercover(fam, cover)
    report = td.hypercover_report(fam)
    assert all(not missed for missed in report["level1"].values())
    key = (("1", "1"),) * 3
    assert report["level2"][key] == [("pt", (("a", "b"), ("a", "a"), ("b", "a")))]


def test_level2_face_image_outside_limit_raises(pt):
    _, fam = _cech_missing_triangle(pt)
    face = dict(fam.face)
    face[(2, 0)], face[(2, 2)] = fam.face[(2, 2)], fam.face[(2, 0)]
    swapped = td.SimplicialFamily(fam.h0, fam.h1, fam.h2, face, fam.degen, fam.sset, fam.zeta)
    with pytest.raises(ValueError):
        td.hypercover_report(swapped)
