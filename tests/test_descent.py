"""Descent data at the three levels and the correspondences between them."""

import pytest

import toposdescent as td
from conftest import generated_covers, swap_datum


def _swap():
    return {0: 1, 1: 0}


def _ident2():
    return {0: 0, 1: 1}


def test_validate_s_descent_identity_datum(full_nerve):
    nerve, _ = full_nerve
    carrier = {"1": (0, 1), "2": (0, 1)}
    d = td.SDescentDatum(carrier, {l: _ident2() for l in nerve.s1})
    assert td.validate_s_descent(nerve, d) == []


def test_validate_s_descent_swap_and_cocycle(full_nerve):
    nerve, _ = full_nerve
    carrier = {"1": (0, 1), "2": (0, 1)}
    good = td.SDescentDatum(
        carrier,
        {("1", "1"): _ident2(), ("2", "2"): _ident2(), ("1", "2"): _swap(), ("2", "1"): _swap()},
    )
    assert td.validate_s_descent(nerve, good) == []
    bad = td.SDescentDatum(
        carrier,
        {("1", "1"): _ident2(), ("2", "2"): _ident2(), ("1", "2"): _swap(), ("2", "1"): _ident2()},
    )
    msgs = td.validate_s_descent(nerve, bad)
    assert any("cocycle" in m and "('1', '2', '1')" in m for m in msgs)


def test_s_to_action_round_trip(full_nerve):
    nerve, _ = full_nerve
    carrier = {"1": (0, 1), "2": (0, 1)}
    d = td.SDescentDatum(
        carrier,
        {("1", "1"): _ident2(), ("2", "2"): _ident2(), ("1", "2"): _swap(), ("2", "1"): _swap()},
    )
    a = td.s_to_action(nerve, d)
    back = td.action_to_s(nerve, a)
    assert back.carrier == d.carrier and back.s == d.s

    triv = td.SDescentDatum({"1": ("*",), "2": ("*",)}, {l: {"*": "*"} for l in nerve.s1})
    a2 = td.s_to_action(nerve, triv)
    assert all(v == {"*": "*"} for v in a2.gen_action.values())


def test_descent_data_count_equals_action_count(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    carriers = {"1": (0, 1), "2": (0, 1)}
    data = td.enumerate_s_descent_data(nerve, carriers=carriers)
    acts = td.enumerate_actions(pres, 0, carriers=carriers)
    assert len(data) == len(acts) == 2


def test_h_descent_validation_and_induction(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    nerve = ref.base.sset
    carrier = {"1": (0, 1), "2": (0, 1)}
    sdata = [
        d
        for d in td.enumerate_s_descent_data(nerve, carriers=carrier)
        if all(d.s[l] == _swap() for l in nerve.s1 if nerve.endpoints(l) == ("1", "2"))
    ]
    assert sdata
    h = td.induced_h_from_s(sdata[0], ref)
    assert td.validate_h_descent(h) == []
    # constant on every component element
    for l in nerve.s1:
        comp = ref.base.component(1, l)
        vals = {tuple(sorted(h.value(l, p, e).items())) for p, e in comp.elements()}
        assert len(vals) == 1


def test_h_descent_trivial_carriers(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    carrier = {"1": ("*",), "2": ("*",)}
    data = td.enumerate_h_descent_data(ref, carriers=carrier)
    assert len(data) == 1
    assert td.validate_h_descent(data[0]) == []


def test_h_descent_cocycle_violation_detected(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    nerve = ref.base.sset
    carrier = {"1": (0, 1), "2": (0, 1)}
    d = td.enumerate_s_descent_data(nerve, carriers=carrier)[0]
    h = td.induced_h_from_s(d, ref)
    # corrupt one cross value
    cross = [l for l in nerve.s1 if nerve.endpoints(l) == ("1", "2")][0]
    comp = ref.base.component(1, cross)
    p, e = next(iter(comp.elements()))
    h.sigma_hat[cross][p][e] = (
        _swap() if h.sigma_hat[cross][p][e] == _ident2() else _ident2()
    )
    msgs = td.validate_h_descent(h)
    assert any("cocycle" in m for m in msgs)


def test_transfer_bijection_on_fixture(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    hdata = td.enumerate_h_descent_data(ref, 2)
    udata = td.enumerate_u_descent_data(fixture_cover, 2)
    assert len(hdata) == len(udata) == 6
    for u in udata:
        h = td.u_to_h(u, ref)
        back = td.h_to_u(h, fixture_cover)
        assert back.sigma == u.sigma and back.carrier == u.carrier
    for h in hdata:
        u = td.h_to_u(h, fixture_cover)
        back = td.u_to_h(u, ref)
        assert back.sigma_hat == h.sigma_hat and back.carrier == h.carrier


def test_h_to_u_requires_hypercover(fixture_cover, two_singleton_cover):
    comps = td.family_components(two_singleton_cover)
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in sorted(comps.items())
    ]
    starved = td.one_span_refinement(two_singleton_cover, td.SpanClassSp(tuple(ident)))
    carrier = {"1": ("*",), "2": ("*",)}
    h = td.enumerate_h_descent_data(starved, carriers=carrier)[0]
    with pytest.raises(ValueError):
        td.h_to_u(h, two_singleton_cover)


def test_h_to_u_incompatible_family(fixture_cover):
    # two spans with the same leg image but different values cannot factor
    ref = td.connected_refinement(fixture_cover)
    nerve = ref.base.sset
    carrier = {"1": (0, 1), "2": (0, 1)}
    d = td.enumerate_s_descent_data(nerve, carriers=carrier)[0]
    h = td.induced_h_from_s(d, ref)
    diag = [
        l
        for l in nerve.s1
        if nerve.endpoints(l) == ("2", "2")
        and l not in set(nerve.degen[(0, 0)].values())
    ]
    # the identity span at 2 and the diagonal representable spans share leg
    # images; flipping one of the representable values breaks factorization
    target = None
    for l in diag:
        comp = ref.base.component(1, l)
        d1 = ref.base.component_face(1, 1, l)
        d0 = ref.base.component_face(1, 0, l)
        for p, e in comp.elements():
            if d1.apply(p, e) == d0.apply(p, e):
                target = (l, p, e)
    assert target is not None
    l, p, e = target
    h.sigma_hat[l][p][e] = _swap()
    with pytest.raises((td.IncompatibleFamilyError, ValueError)):
        td.h_to_u(h, fixture_cover)


def test_u_descent_validation_examples(fixture_cover):
    u = swap_datum(fixture_cover)
    assert td.validate_u_descent(u) == []
    broken = td.UDescentDatum(
        cover=u.cover,
        carrier=dict(u.carrier),
        sigma={
            pair: {p: dict(t) for p, t in tables.items()} for pair, tables in u.sigma.items()
        },
    )
    broken.sigma[("2", "2")]["pt"][("b", "c")] = _swap()
    msgs = td.validate_u_descent(broken)
    assert any("cocycle" in m for m in msgs)


def test_is_consistent(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    nerve = ref.base.sset
    carrier = {"1": (0, 1), "2": (0, 1)}
    data = td.enumerate_s_descent_data(nerve, carriers=carrier)
    # every valid s-datum on this refinement respects the span relations
    consistent = [d for d in data if td.is_consistent(d, ref)]
    assert consistent
    # constant datum is always consistent
    const = [d for d in data if len({tuple(sorted(d.s[l].items())) for l in nerve.s1}) == 1]
    for d in const:
        assert td.is_consistent(d, ref)


def test_refinement_validity_forces_consistency(two_singleton_cover):
    # on span refinements the 2-simplices are closed under the triangles
    # (l', t, degenerate) built from span morphisms, so every valid index
    # datum is automatically consistent
    comps = td.family_components(two_singleton_cover)
    cls = td.SpanClass((comps["1"], comps["2"]))
    ref = td.zero_span_refinement(two_singleton_cover, cls)
    assert td.span_morphism_pairs(ref.base)
    for d in td.enumerate_s_descent_data(ref.base.sset, 2):
        assert td.is_consistent(d, ref)


def test_inconsistent_on_sub_span_pair():
    # two parallel spans linked by a morphism but with no tying triangle:
    # a valid datum may still differ on them
    from conftest import parallel_spans_family

    fam = parallel_spans_family()
    assert td.validate_selfdual(fam) == []
    pairs = td.span_morphism_pairs(fam.base)
    assert ("l", "t") in pairs and ("t", "l") in pairs
    d = td.SDescentDatum(
        carrier={"1": (0, 1)},
        s={"i1": _ident2(), "l": _swap(), "t": _ident2()},
    )
    assert td.validate_s_descent(fam.base.sset, d) == []
    assert not td.is_consistent(d, fam)
    # both spans also receive a morphism from the identity span, so the
    # only consistent datum on these carriers is the trivial one
    same = td.SDescentDatum(
        carrier={"1": (0, 1)},
        s={"i1": _ident2(), "l": _ident2(), "t": _ident2()},
    )
    assert td.is_consistent(same, fam)


def test_consistent_to_g_action_round_trip(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    pres = td.g_fundamental_presentation(ref)
    nerve = ref.base.sset
    data = [
        d
        for d in td.enumerate_s_descent_data(nerve, 2)
        if td.is_consistent(d, ref)
    ]
    acts = td.enumerate_actions(pres, 2)
    assert len(data) == len(acts)
    for d in data:
        a = td.consistent_to_g_action(d, ref, pres)
        back = td.action_to_consistent(a, ref, pres)
        assert back.carrier == d.carrier and back.s == d.s


def test_descent_action_bijection_carriers_up_to_three(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    data = td.enumerate_s_descent_data(nerve, 3)
    acts = td.enumerate_actions(pres, 3)
    assert len(data) == len(acts)
    for d in data:
        a = td.s_to_action(nerve, d)
        back = td.action_to_s(nerve, a, pres)
        assert back.carrier == d.carrier and back.s == d.s


def test_transfer_on_chain_base():
    # two components over the chain: restriction orbits make the values
    # propagate between the points
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
    assert td.is_hypercover(ref.base, cover)
    hdata = td.enumerate_h_descent_data(ref, 2)
    udata = td.enumerate_u_descent_data(cover, 2)
    assert len(hdata) == len(udata) > 1
    for u in udata:
        h = td.u_to_h(u, ref)
        back = td.h_to_u(h, cover)
        assert back.sigma == u.sigma
    for h in hdata:
        back = td.u_to_h(td.h_to_u(h, cover), ref)
        assert back.sigma_hat == h.sigma_hat


def test_enumerated_data_pass_their_validators():
    # the cover and index enumerators read their data off the family and
    # action searches; the validators check them independently
    for name, cover in generated_covers():
        for u in td.enumerate_u_descent_data(cover, 2):
            assert td.validate_u_descent(u) == [], name
        nerve, _ = td.cech_nerve(cover)
        for d in td.enumerate_s_descent_data(nerve, 2):
            assert td.validate_s_descent(nerve, d) == [], name


def test_span_morphism_pairs_computed_once_per_family(fixture_cover):
    fam = td.connected_refinement(fixture_cover).base
    assert td.span_morphism_pairs(fam) is td.span_morphism_pairs(fam)
