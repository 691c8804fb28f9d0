"""Simplicial families: validation, spans, the canonical family, counit."""

import pytest

import toposdescent as td



def test_cech_family_validates(cover_suite):
    for name, cover in cover_suite:
        fam = td.cech_simplicial_family(cover)
        assert td.validate_selfdual(fam) == [], name


def test_cech_family_level_sizes(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover)
    # level 1 is the square of the total: 3 * 3 elements over four pairs
    assert fam.base.h1.size() == 9
    sizes = {
        l: fam.base.component(1, l).size() for l in fam.base.sset.s1
    }
    assert sizes == {
        ("1", "1"): 1,
        ("1", "2"): 2,
        ("2", "1"): 2,
        ("2", "2"): 4,
    }


def test_cech_family_singleton(singleton_cover):
    fam = td.cech_simplicial_family(singleton_cover)
    assert fam.base.h0.size() == fam.base.h1.size() == fam.base.h2.size() == 1


def test_cech_tau_swaps_factors(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover)
    assert fam.tau1.apply("pt", ("a", "b")) == ("b", "a")
    assert fam.base.zeta[1].apply("pt", ("b", "a")) == ("2", "1")


def test_validate_family_catches_broken_zeta(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    bad_zeta1 = td.PresheafMap(
        fam.h1,
        fam.zeta[1].cod,
        {
            "pt": {
                e: (("2", "2") if e == ("a", "b") else fam.zeta[1].apply("pt", e))
                for e in fam.h1.fibers["pt"]
            }
        },
    )
    bad = td.SimplicialFamily(
        fam.h0, fam.h1, fam.h2, fam.face, fam.degen, fam.sset, (fam.zeta[0], bad_zeta1, fam.zeta[2])
    )
    msgs = td.validate_family(bad)
    assert any("zeta" in m for m in msgs)


def test_validate_family_catches_empty_component(pt):
    # extend the index by an endo-edge (and its degenerate fillers) with no
    # elements above it; everything stays total, the components are empty
    cover = td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)})
    fam = td.cech_simplicial_family(cover).base
    lx, wx0, wx1 = "lx", "wx0", "wx1"
    i1 = fam.sset.deg(0, 0, "1")
    bigger = td.TruncSSet(
        fam.sset.s0,
        fam.sset.s1 + (lx,),
        fam.sset.s2 + (wx0, wx1),
        {
            (1, 0): {**fam.sset.face[(1, 0)], lx: "1"},
            (1, 1): {**fam.sset.face[(1, 1)], lx: "1"},
            (2, 0): {**fam.sset.face[(2, 0)], wx0: lx, wx1: i1},
            (2, 1): {**fam.sset.face[(2, 1)], wx0: lx, wx1: lx},
            (2, 2): {**fam.sset.face[(2, 2)], wx0: i1, wx1: lx},
        },
        {
            (0, 0): fam.sset.degen[(0, 0)],
            (1, 0): {**fam.sset.degen[(1, 0)], lx: wx0},
            (1, 1): {**fam.sset.degen[(1, 1)], lx: wx1},
        },
    )
    stretched = td.SimplicialFamily(
        fam.h0,
        fam.h1,
        fam.h2,
        fam.face,
        fam.degen,
        bigger,
        (
            fam.zeta[0],
            td.PresheafMap(
                fam.h1,
                td.constant_presheaf(bigger.s1, pt),
                {"pt": {e: fam.zeta[1].apply("pt", e) for e in fam.h1.fibers["pt"]}},
            ),
            td.PresheafMap(
                fam.h2,
                td.constant_presheaf(bigger.s2, pt),
                {"pt": {e: fam.zeta[2].apply("pt", e) for e in fam.h2.fibers["pt"]}},
            ),
        ),
    )
    msgs = td.validate_family(stretched)
    assert any("empty" in m for m in msgs)


def test_span_extraction_cech(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    sp = td.span_of_1simplex(fam, ("1", "2"))
    assert sp.vertex.size() == 2
    assert sp.left.apply("pt", ("a", "b")) == "a"
    assert sp.right.apply("pt", ("a", "b")) == "b"

    # the two-storey span of a 2-simplex: its apex and the legs to the
    # three feet through the short edges, which agree with the long edge
    w = ("1", "2", "2")
    assert fam.component(2, w).size() == 4
    l, t, r = (fam.sset.d(2, i, w) for i in (2, 1, 0))
    d2, d1, d0 = (fam.component_face(2, i, w) for i in (2, 1, 0))
    p2 = fam.component_face(1, 1, l).after(d2)
    p1 = fam.component_face(1, 0, l).after(d2)
    p0 = fam.component_face(1, 0, r).after(d0)
    assert p2.apply("pt", ("a", "b", "c")) == "a"
    assert p1.apply("pt", ("a", "b", "c")) == "b"
    assert p0.apply("pt", ("a", "b", "c")) == "c"
    assert fam.component_face(1, 1, r).after(d0).comp == p1.comp
    assert fam.component_face(1, 1, t).after(d1).comp == p2.comp
    assert fam.component_face(1, 0, t).after(d1).comp == p0.comp


def test_span_legs_must_start_at_the_vertex(fixture_cover):
    comps = td.family_components(fixture_cover)
    u, v = comps["1"], comps["2"]
    with pytest.raises(ValueError, match="start at the vertex"):
        td.ClassSpan("1", "2", v, td.PresheafMap.identity(u), td.PresheafMap.identity(v))


def test_span_indices_are_the_endpoints(fixture_cover):
    for sf in (td.cech_simplicial_family(fixture_cover), td.connected_refinement(fixture_cover)):
        fam = sf.base
        for l in fam.sset.s1:
            sp = td.span_of_1simplex(fam, l)
            assert (sp.i, sp.j) == fam.sset.endpoints(l)


def test_degenerate_span_has_section_retraction(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    i = "2"
    sp = td.span_of_1simplex(fam, fam.sset.deg(0, 0, i))
    s0 = fam.component_degen(0, 0, i)
    left = sp.left.after(s0)
    right = sp.right.after(s0)
    ident = td.PresheafMap.identity(fam.component(0, i))
    assert left.comp == ident.comp and right.comp == ident.comp


def test_span_duality_isomorphism(fixture_cover):
    # the component duality carries the span of l^op to the dual span of l
    sf = td.cech_simplicial_family(fixture_cover)
    fam = sf.base
    for l in fam.sset.s1:
        lop = sf.tau_s.op1(l)
        t = sf.component_tau(1, lop)  # (H_1)_{l^op} -> (H_1)_l
        sp, spop = td.span_of_1simplex(fam, l), td.span_of_1simplex(fam, lop)
        assert sp.right.after(t).comp == spop.left.comp
        assert sp.left.after(t).comp == spop.right.comp
        assert t.is_iso()


def test_counit_on_cech_family_is_identity(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    m = td.counit(fam)
    assert td.validate_simplicial_family_morphism(m) == []
    for n in (0, 1, 2):
        assert m.level_map(n).comp == td.PresheafMap.identity(fam.level(n)).comp
    assert m.alpha.h1 == {l: l for l in fam.sset.s1}


def test_counit_of_refinement(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    m = td.counit(ref.base)
    assert td.validate_simplicial_family_morphism(m) == []
    # degenerate simplices land on diagonal pairs
    for i in ref.base.sset.s0:
        assert m.alpha.h1[ref.base.sset.deg(0, 0, i)] == (i, i)
    # span vertices embed by their leg pair
    for l in ref.base.sset.s1:
        comp = ref.base.component(1, l)
        d1 = ref.base.component_face(1, 1, l)
        d0 = ref.base.component_face(1, 0, l)
        for p, e in comp.elements():
            assert m.h1.apply(p, e) == (d1.apply(p, e), d0.apply(p, e))
    tgt = td.cech_simplicial_family(fixture_cover)
    assert td.morphism_commutes_with_dualities(m, ref, tgt) == []


def test_validate_selfdual_catches_mismatches(fixture_cover):
    sf = td.cech_simplicial_family(fixture_cover)
    fam = sf.base
    not_over_duality = td.PresheafMap(
        fam.h1,
        fam.h1,
        {"pt": {e: e for e in fam.h1.fibers["pt"]}},
    )
    broken = td.SelfDualFamily(fam, sf.tau_s, not_over_duality, sf.tau2)
    msgs = td.validate_selfdual(broken)
    assert msgs and any("tau_1" in m for m in msgs)


def test_condition_g_fails_on_cech_fixture(fixture_cover):
    # the cross simplex has its witness (middle face over the singleton
    # square, equal projections), but the loop at the two-element component
    # forces a middle face on its square, where the projections differ; the
    # filling condition holds for span refinements, not canonical families
    sf = td.cech_simplicial_family(fixture_cover)
    fam = sf.base
    mid = fam.sset.d(2, 1, ("1", "2", "1"))
    assert mid == ("1", "1")
    d1 = fam.component_face(1, 1, mid)
    d0 = fam.component_face(1, 0, mid)
    assert d1.comp == d0.comp
    assert not td.condition_g(sf)


def test_condition_g_holds_on_singleton_cech(singleton_cover):
    assert td.condition_g(td.cech_simplicial_family(singleton_cover))


def test_condition_g_fails_on_bigger_cech(pt):
    # two components of size two: the middle face of any filler over the
    # cross pair has distinct projections
    cover = td.family_from_parts(
        pt,
        {
            "1": td.constant_presheaf(("a", "d"), pt),
            "2": td.constant_presheaf(("b", "c"), pt),
        },
    )
    sf = td.cech_simplicial_family(cover)
    assert not td.condition_g(sf)


def test_condition_g_requires_nondegenerate_fillers(two_singleton_cover):
    ref = td.connected_refinement(two_singleton_cover)
    assert td.condition_g(ref)


def test_span_morphism_pairs_fixture(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    pairs = td.span_morphism_pairs(ref.base)
    spans = {l: td.span_of_1simplex(ref.base, l) for l in ref.base.sset.s1}
    # the two cross spans picking b and c have no connecting morphism
    cross = [
        l
        for l in ref.base.sset.s1
        if ref.base.sset.endpoints(l) == ("1", "2") and spans[l].vertex.size() == 1
    ]
    assert len(cross) == 2
    for l, t in pairs:
        assert not (set((l, t)) == set(cross))


def test_counit_rejects_invalid_family(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    bad_zeta1 = td.PresheafMap(
        fam.h1,
        fam.zeta[1].cod,
        {
            "pt": {
                e: (("2", "2") if e == ("a", "b") else fam.zeta[1].apply("pt", e))
                for e in fam.h1.fibers["pt"]
            }
        },
    )
    bad = td.SimplicialFamily(
        fam.h0, fam.h1, fam.h2, fam.face, fam.degen, fam.sset, (fam.zeta[0], bad_zeta1, fam.zeta[2])
    )
    with pytest.raises(ValueError):
        td.counit(bad)
