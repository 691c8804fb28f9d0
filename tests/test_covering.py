"""Gluing, trivializations, action spans, covering projections, pipelines."""

import pytest

import toposdescent as td
from conftest import swap_datum


def trivial_datum(cover):
    data = td.enumerate_u_descent_data(
        cover, carriers={i: ("*",) for i in cover.index}
    )
    assert len(data) == 1
    return data[0]


def identity_datum(cover, size=2):
    carriers = {i: tuple(range(size)) for i in cover.index}
    for u in td.enumerate_u_descent_data(cover, carriers=carriers):
        if all(
            all(m[r] == r for r in carriers[i])
            for (i, j), tables in u.sigma.items()
            for t in tables.values()
            for m in t.values()
        ):
            return u
    raise AssertionError("identity datum not found")


def test_glue_swap_fixture(fixture_cover):
    u = swap_datum(fixture_cover)
    lc = td.glue(fixture_cover, u)
    # union-find over the six labelled points with the stated identifications
    assert lc.space.size() == 2
    assert td.validate_trivialization(lc) == []


def test_glue_trivial_carriers(fixture_cover):
    lc = td.glue(fixture_cover, trivial_datum(fixture_cover))
    assert lc.space.size() == 1


def test_glue_identity_on_connected_cover(two_singleton_cover):
    # identity descent datum: the glued object is the constant presheaf on
    # the common carrier
    u = identity_datum(two_singleton_cover)
    lc = td.glue(two_singleton_cover, u)
    assert lc.space.size() == 2
    extracted = td.extract_descent(lc)
    assert extracted.sigma == u.sigma


def test_glue_extract_round_trips(fixture_cover):
    for u in td.enumerate_u_descent_data(fixture_cover, 2):
        lc = td.glue(fixture_cover, u)
        back = td.extract_descent(lc)
        assert back.carrier == u.carrier and back.sigma == u.sigma
        lc2 = td.glue(fixture_cover, back)
        assert lc2.space == lc.space
        assert all(lc2.theta[i].comp == lc.theta[i].comp for i in lc.theta)


def test_validate_trivialization_catches_breakage(fixture_cover):
    u = swap_datum(fixture_cover)
    lc = td.glue(fixture_cover, u)
    # break the second projection of one trivialization
    comps = td.family_components(fixture_cover)
    piece, _, _ = td.product(td.constant_presheaf(u.carrier["2"], lc.space.base), comps["2"])
    target, _, _ = td.product(lc.space, comps["2"])
    skew = {
        (r, x): (lc.theta["2"].apply("pt", (r, x))[0], "b")
        for (r, x) in piece.fibers["pt"]
    }
    broken = td.LocallyConstant(
        space=lc.space,
        cover=lc.cover,
        carrier=lc.carrier,
        theta={**lc.theta, "2": td.PresheafMap(piece, target, {"pt": skew})},
    )
    msgs = td.validate_trivialization(broken)
    assert any("over the component" in m or "isomorphism" in m for m in msgs)


def test_trivialization_wrong_carrier_size(fixture_cover):
    u = swap_datum(fixture_cover)
    lc = td.glue(fixture_cover, u)
    shrunk = td.LocallyConstant(
        space=lc.space, cover=lc.cover, carrier={"1": (0,), "2": (0, 1)}, theta=lc.theta
    )
    msgs = td.validate_trivialization(shrunk)
    assert msgs


def test_action_span_witnesses(fixture_cover):
    u = swap_datum(fixture_cover)
    comps = td.family_components(fixture_cover)
    ident = td.ClassSpan(
        "1", "1", comps["1"], td.PresheafMap.identity(comps["1"]), td.PresheafMap.identity(comps["1"])
    )
    w = td.action_span_test(ident, u)
    assert w == {0: 0, 1: 1}
    # every span over the one-point base carries the constant swap
    cross = td.ClassSpan(
        "1",
        "2",
        comps["1"],
        td.PresheafMap.identity(comps["1"]),
        td.PresheafMap(comps["1"], comps["2"], {"pt": {"a": "c"}}),
    )
    assert td.action_span_test(cross, u) == {0: 1, 1: 0}


def test_action_span_none_on_nonconstant_values(fixture_cover):
    # raw table sending the two vertex elements to different bijections
    u = swap_datum(fixture_cover)
    raw = td.UDescentDatum(
        cover=u.cover,
        carrier=dict(u.carrier),
        sigma={
            pair: {p: dict(t) for p, t in tables.items()}
            for pair, tables in u.sigma.items()
        },
    )
    raw.sigma[("2", "2")]["pt"][("b", "c")] = {0: 1, 1: 0}
    comps = td.family_components(fixture_cover)
    span = td.ClassSpan(
        "2",
        "2",
        comps["2"],
        td.PresheafMap.identity(comps["2"]),
        td.PresheafMap(comps["2"], comps["2"], {"pt": {"b": "c", "c": "c"}}),
    )
    assert td.action_span_test(span, raw) is None
    with pytest.raises(td.EmptyComponentError):
        td.action_span_test(
            td.ClassSpan(
                "1",
                "1",
                td.initial_presheaf(fixture_cover.total.base),
                td.PresheafMap(td.initial_presheaf(fixture_cover.total.base), comps["1"], {"pt": {}}),
                td.PresheafMap(td.initial_presheaf(fixture_cover.total.base), comps["1"], {"pt": {}}),
            ),
            u,
        )


def test_covering_projection_always_true_on_fixture(fixture_cover):
    for u in td.enumerate_u_descent_data(fixture_cover, 2):
        assert td.is_covering_projection(fixture_cover, u)


def test_covering_projection_on_poset_base(chain_cover):
    for u in td.enumerate_u_descent_data(chain_cover, 2):
        assert td.is_covering_projection(chain_cover, u)


def test_sieve_check(fixture_cover):
    u = swap_datum(fixture_cover)
    spans = td.all_action_spans(fixture_cover, u)
    assert td.sieve_check(spans)
    assert td.sieve_check([])
    # drop a representable sub-span of a surviving member
    pruned = [
        s
        for s in spans
        if not (s.span.i == "2" and s.span.j == "2" and s.span.vertex.fibers["pt"] == ("*",))
    ]
    assert len(pruned) < len(spans)
    assert not td.sieve_check(pruned)


def test_action_span_key_is_its_span_key(fixture_cover):
    spans = td.all_action_spans(fixture_cover, swap_datum(fixture_cover))
    assert spans
    for s in spans:
        assert s.data_key() == s.span.data_key()


def test_main1_forward_swap(fixture_cover):
    u = swap_datum(fixture_cover)
    fam, sdatum = td.main1_forward(fixture_cover, u)
    assert td.validate_selfdual(fam) == []
    assert td.condition_g(fam)
    assert td.is_hypercover(fam.base, fixture_cover)
    assert td.is_consistent(sdatum, fam)
    cross = [
        l for l in fam.base.sset.s1 if fam.base.sset.endpoints(l) == ("1", "2")
    ]
    for l in cross:
        assert sdatum.s[l] == {0: 1, 1: 0}
    back = td.h_to_u(td.induced_h_from_s(sdatum, fam), fixture_cover)
    assert back.sigma == u.sigma


def test_main1_round_trips_all_data(fixture_cover):
    for u in td.enumerate_u_descent_data(fixture_cover, 2):
        fam, sdatum = td.main1_forward(fixture_cover, u)
        back = td.h_to_u(td.induced_h_from_s(sdatum, fam), fixture_cover)
        assert back.sigma == u.sigma and back.carrier == u.carrier
        # the reconstructed datum glues to a covering projection again
        assert td.is_covering_projection(fixture_cover, back)


def test_main1_trivial_datum(fixture_cover):
    u = trivial_datum(fixture_cover)
    fam, sdatum = td.main1_forward(fixture_cover, u)
    assert all(m == {"*": "*"} for m in sdatum.s.values())


def test_main2_equivalence_fixture(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    rep = td.main2_equivalence(fixture_cover, ref, 2)
    assert rep.ok
    assert rep.object_count_data == rep.object_count_actions
    assert rep.hom_counts_data == rep.hom_counts_actions
    # empty and singleton carriers appear on both sides
    assert rep.object_count_data >= 2


def test_main2_requires_condition_g(fixture_cover):
    cech = td.cech_simplicial_family(fixture_cover)
    with pytest.raises(ValueError):
        td.main2_equivalence(fixture_cover, cech, 1)


def test_glue_on_poset_base(chain_cover):
    for u in td.enumerate_u_descent_data(chain_cover, 2):
        lc = td.glue(chain_cover, u)
        assert td.validate_trivialization(lc) == []
        back = td.extract_descent(lc)
        assert back.sigma == u.sigma


def test_glue_extract_on_chain_base_two_components():
    from conftest import chain2, named_representable

    poset = chain2()
    cover = td.family_from_parts(
        poset,
        {
            "1": named_representable(poset, "b", "u"),
            "2": td.constant_presheaf(("z", "w"), poset),
        },
    )
    for u in td.enumerate_u_descent_data(cover, 2):
        lc = td.glue(cover, u)
        assert td.validate_trivialization(lc) == []
        back = td.extract_descent(lc)
        assert back.sigma == u.sigma
        assert td.is_covering_projection(cover, u)
        fam, sdatum = td.main1_forward(cover, u)
        round2 = td.h_to_u(td.induced_h_from_s(sdatum, fam), cover)
        assert round2.sigma == u.sigma


def test_main2_on_chain_base():
    from conftest import chain2, named_representable

    poset = chain2()
    cover = td.family_from_parts(
        poset,
        {
            "1": named_representable(poset, "b", "u"),
            "2": td.constant_presheaf(("z", "w"), poset),
        },
    )
    ref = td.connected_refinement(cover)
    rep = td.main2_equivalence(cover, ref, 2)
    assert rep.ok and rep.object_count_data == rep.object_count_actions
