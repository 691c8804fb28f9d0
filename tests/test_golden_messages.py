"""Violation messages of the simplicial validators, pinned as exact ordered
lists on deliberately broken inputs: a bad degeneracy, a family stretched
over a bigger index, broken dualities on the index and on the levels, zeta
maps that miss a face, simplicial maps that break a square, and faults at
one point of a two-point base.  The validators read simplices by position
and check a family fiber by fiber; these lists fix what they report,
naming labels, in which order."""

import dataclasses

import pytest

import toposdescent as td
from toposdescent.serialize import (
    SerializationError,
    action_from_json,
    action_to_json,
    hdescent_from_json,
    hdescent_to_json,
    sdescent_from_json,
    sdescent_to_json,
    udescent_from_json,
    udescent_to_json,
)
from conftest import free_dual_edge_sset, free_endo_sset, generated_covers, point


def bad_degeneracy():
    s = free_endo_sset()
    return td.TruncSSet(s.s0, s.s1, s.s2, s.face, {**s.degen, (0, 0): {"x": "e"}})


def bad_face():
    s = free_endo_sset()
    return td.TruncSSet(s.s0, s.s1, s.s2, {**s.face, (2, 1): {**s.face[(2, 1)], "w_e0": "ix"}}, s.degen)


def cech(name):
    return td.cech_simplicial_family(dict(generated_covers())[name])


def stretched_family():
    """The Čech family of one element over a point, over an index with an
    extra endo-edge and its two degenerate triangles, none with elements
    above."""
    pt = point()
    cover = td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)})
    fam = td.cech_simplicial_family(cover).base
    s = fam.sset
    i1 = s.deg(0, 0, "1")
    bigger = td.TruncSSet(
        s.s0,
        s.s1 + ("lx",),
        s.s2 + ("wx0", "wx1"),
        {
            (1, 0): {**s.face[(1, 0)], "lx": "1"},
            (1, 1): {**s.face[(1, 1)], "lx": "1"},
            (2, 0): {**s.face[(2, 0)], "wx0": "lx", "wx1": i1},
            (2, 1): {**s.face[(2, 1)], "wx0": "lx", "wx1": "lx"},
            (2, 2): {**s.face[(2, 2)], "wx0": i1, "wx1": "lx"},
        },
        {
            (0, 0): s.degen[(0, 0)],
            (1, 0): {**s.degen[(1, 0)], "lx": "wx0"},
            (1, 1): {**s.degen[(1, 1)], "lx": "wx1"},
        },
    )
    zeta = tuple(
        td.PresheafMap(fam.level(n), td.constant_presheaf(bigger.level(n), pt), fam.zeta[n].comp)
        for n in (0, 1, 2)
    )
    return td.SimplicialFamily(fam.h0, fam.h1, fam.h2, fam.face, fam.degen, bigger, zeta)


def with_zeta(f, n, moves):
    """``f`` with zeta_n sending the elements in ``moves`` elsewhere."""
    z = f.zeta[n]
    comp = {p: {e: moves.get(e, v) for e, v in c.items()} for p, c in z.comp.items()}
    zeta = list(f.zeta)
    zeta[n] = td.PresheafMap(z.dom, z.cod, comp)
    return td.SimplicialFamily(f.h0, f.h1, f.h2, f.face, f.degen, f.sset, tuple(zeta))


def zeta_off_a_face():
    """The fixture's Čech family with one element of H1 moved to another
    1-simplex; the faces of that element no longer lie over its index."""
    f = cech("point-1x2").base
    return with_zeta(f, 1, {("a", "b"): ("2", "2")})


def zeta_off_a_triangle():
    """The fixture's Čech family with two elements of H2 over the wrong
    2-simplices: each misses some of its faces."""
    f = cech("point-1x2").base
    return with_zeta(f, 2, {("a", "b", "c"): ("1", "1", "2"), ("c", "c", "a"): ("2", "1", "1")})


def broken_index_duality(sf, tau1=None, tau2=None):
    tau = td.StrictDuality({**sf.tau_s.tau1, **(tau1 or {})}, {**sf.tau_s.tau2, **(tau2 or {})})
    return td.SelfDualFamily(sf.base, tau, sf.tau1, sf.tau2)


def broken_level_duality(sf, n, moves):
    tau = (sf.tau1, sf.tau2)[n - 1]
    comp = {p: {e: moves.get(e, v) for e, v in c.items()} for p, c in tau.comp.items()}
    bad = td.PresheafMap(tau.dom, tau.cod, comp)
    taus = (bad, sf.tau2) if n == 1 else (sf.tau1, bad)
    return td.SelfDualFamily(sf.base, sf.tau_s, *taus)


def dual_edge(tau1=None, tau2=None):
    sset, tau = free_dual_edge_sset()
    return sset, td.StrictDuality({**tau.tau1, **(tau1 or {})}, {**tau.tau2, **(tau2 or {})})


def contravariant_broken():
    sset, tau = free_dual_edge_sset()
    return td.ContravariantMap(
        sset, sset, {i: i for i in sset.s0}, dict(tau.tau1), {**tau.tau2, "w1": "se0", "se0": "w1"}
    )


def refinement_duality_broken():
    """The fixture's connected refinement with the index duality of two
    2-simplices exchanged."""
    sf = td.connected_refinement(dict(generated_covers())["point-1x2"])
    s2 = sf.base.sset.s2
    a, b = s2[3], s2[-4]
    return broken_index_duality(sf, tau2={a: sf.tau_s.tau2[b], b: sf.tau_s.tau2[a]})


def with_dicts_reversed(f):
    """``f`` with every level map and zeta map given by dicts that list
    their elements backwards; nothing else changes."""

    def back(m):
        return td.PresheafMap(m.dom, m.cod, {p: dict(reversed(c.items())) for p, c in m.comp.items()})

    return td.SimplicialFamily(
        f.h0,
        f.h1,
        f.h2,
        {k: back(m) for k, m in f.face.items()},
        {k: back(m) for k, m in f.degen.items()},
        f.sset,
        tuple(back(z) for z in f.zeta),
    )


def with_base(f):
    sf = cech("point-1x2")
    return td.SelfDualFamily(f, sf.tau_s, sf.tau1, sf.tau2)


def nerve_map(h0, h1, h2):
    """Level maps from the nerve of one element over a point into the nerve
    of the fixture."""
    small, _ = td.cech_nerve(dict(generated_covers())["point-1x1"])
    big, _ = td.cech_nerve(dict(generated_covers())["point-1x2"])
    return td.SimplicialMap(small, big, h0, h1, h2)


def antichain_cech():
    """The Čech family of a cover of the two-point antichain whose
    components have the elements ``x, y`` and ``z`` at each point."""
    base = td.FinPoset.from_pairs(("a", "b"))
    cover = td.family_from_parts(
        base,
        {"1": td.constant_presheaf(("x", "y"), base), "2": td.constant_presheaf(("z",), base)},
    )
    return td.cech_simplicial_family(cover)


def moved_at_b(m, moves):
    """``m`` with the elements in ``moves`` sent elsewhere at the point
    ``b`` only."""
    comp = {p: {e: moves.get(e, v) if p == "b" else v for e, v in c.items()} for p, c in m.comp.items()}
    return td.PresheafMap(m.dom, m.cod, comp)


def antichain_face_moved():
    sf = antichain_cech()
    f = sf.base
    face = {**f.face, (2, 1): moved_at_b(f.face[(2, 1)], {("x", "y", "x"): ("y", "x")})}
    return td.SimplicialFamily(f.h0, f.h1, f.h2, face, f.degen, f.sset, f.zeta)


def antichain_tau1_fixes_a_pair():
    sf = antichain_cech()
    tau1 = moved_at_b(sf.tau1, {("x", "y"): ("x", "y"), ("y", "x"): ("y", "x")})
    return td.SelfDualFamily(sf.base, sf.tau_s, tau1, sf.tau2)


CASES = {
    "validate/bad-degeneracy": lambda: td.validate(bad_degeneracy()),
    "validate/bad-face": lambda: td.validate(bad_face()),
    "family/stretched": lambda: td.validate_family(stretched_family()),
    "family/zeta-off-a-face": lambda: td.validate_family(zeta_off_a_face()),
    "family/zeta-off-a-triangle": lambda: td.validate_family(zeta_off_a_triangle()),
    "family/zeta-off-a-triangle-reversed": lambda: td.validate_family(
        with_dicts_reversed(zeta_off_a_triangle())
    ),
    "family/zeta0-moved": lambda: td.validate_family(with_zeta(cech("point-1x2").base, 0, {"b": "1"})),
    "duality/not-involutive": lambda: td.validate_duality(*dual_edge(tau1={"e": "e", "f": "f"})),
    "duality/tau2-fixes": lambda: td.validate_duality(*dual_edge(tau2={"se0": "se0", "sf1": "sf1"})),
    "duality/tau1-not-total": lambda: td.validate_duality(
        free_dual_edge_sset()[0], td.StrictDuality({"e": "f"}, free_dual_edge_sset()[1].tau2)
    ),
    "duality/tau2-outside": lambda: td.validate_duality(*dual_edge(tau2={"w2": "nowhere"})),
    "contravariant/broken": lambda: td.validate_contravariant_map(contravariant_broken()),
    "selfdual/index-tau1": lambda: td.validate_selfdual(
        broken_index_duality(cech("point-1x2"), tau1={("1", "2"): ("1", "2")})
    ),
    "selfdual/index-tau2": lambda: td.validate_selfdual(refinement_duality_broken()),
    "selfdual/level-tau1": lambda: td.validate_selfdual(
        broken_level_duality(cech("point-1x2"), 1, {("a", "b"): ("a", "b")})
    ),
    "selfdual/level-tau2": lambda: td.validate_selfdual(
        broken_level_duality(cech("point-1x2"), 2, {("a", "b", "c"): ("a", "b", "c")})
    ),
    "selfdual/zeta-off-a-triangle": lambda: td.validate_selfdual(with_base(zeta_off_a_triangle())),
    "map/vertex-moved": lambda: td.validate_simplicial_map(
        nerve_map({"1": "2"}, {("1", "1"): ("1", "1")}, {("1", "1", "1"): ("1", "1", "1")})
    ),
    "map/degeneracy-image": lambda: td.validate_simplicial_map(
        nerve_map({"1": "1"}, {("1", "1"): ("1", "1")}, {("1", "1", "1"): ("1", "2", "1")})
    ),
    "family/antichain-face-at-b": lambda: td.validate_family(antichain_face_moved()),
    "selfdual/antichain-tau1-at-b": lambda: td.validate_selfdual(antichain_tau1_fixes_a_pair()),
}



# Recorded from the validators as they were before they read positions.
EXPECTED = {'contravariant/broken': ["contravariance fails for d_1 at 'se0'",
                          "contravariance fails for d_2 at 'se0'",
                          "contravariance fails for d_0 at 'w1'",
                          "contravariance fails for d_1 at 'w1'",
                          "contravariance fails for s_1 at 'e'",
                          "contravariance fails for s_0 at 'i1'",
                          "contravariance fails for s_1 at 'i1'"],
 'duality/not-involutive': ["duality contravariance fails for d_0 at 'e'",
                            "duality contravariance fails for d_1 at 'e'",
                            "duality contravariance fails for d_0 at 'f'",
                            "duality contravariance fails for d_1 at 'f'",
                            "duality contravariance fails for d_1 at 'se0'",
                            "duality contravariance fails for d_2 at 'se0'",
                            "duality contravariance fails for d_0 at 'se1'",
                            "duality contravariance fails for d_1 at 'se1'",
                            "duality contravariance fails for d_1 at 'sf0'",
                            "duality contravariance fails for d_2 at 'sf0'",
                            "duality contravariance fails for d_0 at 'sf1'",
                            "duality contravariance fails for d_1 at 'sf1'",
                            "duality contravariance fails for s_0 at 'e'",
                            "duality contravariance fails for s_1 at 'e'",
                            "duality contravariance fails for s_0 at 'f'",
                            "duality contravariance fails for s_1 at 'f'"],
 'duality/tau1-not-total': ['tau_1 is not total'],
 'duality/tau2-fixes': ["duality contravariance fails for d_0 at 'se0'",
                        "duality contravariance fails for d_1 at 'se0'",
                        "duality contravariance fails for d_2 at 'se0'",
                        "duality contravariance fails for d_0 at 'sf1'",
                        "duality contravariance fails for d_1 at 'sf1'",
                        "duality contravariance fails for d_2 at 'sf1'",
                        "duality contravariance fails for s_1 at 'e'",
                        "duality contravariance fails for s_0 at 'f'"],
 'duality/tau2-outside': ["tau_2 sends 'w2' outside its codomain"],
 'family/stretched': ["component over 'lx' on level 1 is empty (non-emptiness assumption)",
                      "component over 'wx0' on level 2 is empty (non-emptiness assumption)",
                      "component over 'wx1' on level 2 is empty (non-emptiness assumption)"],
 'family/zeta-off-a-face': ["zeta does not commute with face d_1 on level 1 at ('a', 'b')",
                            "zeta does not commute with face d_0 on level 2 at ('a', 'a', 'b')",
                            "zeta does not commute with face d_1 on level 2 at ('a', 'a', 'b')",
                            "zeta does not commute with face d_2 on level 2 at ('a', 'b', 'a')",
                            "zeta does not commute with degeneracy s_0 on level 1 at ('a', 'b')",
                            "zeta does not commute with degeneracy s_1 on level 1 at ('a', 'b')"],
 'family/zeta-off-a-triangle': ["zeta does not commute with face d_0 on level 2 at ('a', 'b', 'c')",
                                "zeta does not commute with face d_2 on level 2 at ('a', 'b', 'c')",
                                "zeta does not commute with degeneracy s_0 on level 1 at ('c', "
                                "'a')"],
 'family/zeta-off-a-triangle-reversed': ["zeta does not commute with face d_0 on level 2 at ('a', 'b', "
                                          "'c')",
                                          "zeta does not commute with face d_2 on level 2 at ('a', 'b', "
                                          "'c')",
                                          "zeta does not commute with degeneracy s_0 on level 1 at ('c', "
                                          "'a')"],
 'family/zeta0-moved': ["zeta does not commute with face d_0 on level 1 at ('a', 'b')",
                        "zeta does not commute with face d_1 on level 1 at ('b', 'a')",
                        "zeta does not commute with degeneracy s_0 on level 0 at 'b'"],
 'selfdual/index-tau1': ["index duality: tau_1 is not involutive at ('2', '1')",
                         "index duality: duality contravariance fails for d_0 at ('1', '2')",
                         "index duality: duality contravariance fails for d_1 at ('1', '2')",
                         "index duality: duality contravariance fails for d_1 at ('1', '1', '2')",
                         "index duality: duality contravariance fails for d_2 at ('1', '1', '2')",
                         "index duality: duality contravariance fails for d_0 at ('1', '2', '1')",
                         "index duality: duality contravariance fails for d_0 at ('1', '2', '2')",
                         "index duality: duality contravariance fails for d_1 at ('1', '2', '2')",
                         "index duality: duality contravariance fails for d_2 at ('2', '1', '2')",
                         "index duality: duality contravariance fails for s_0 at ('1', '2')",
                         "index duality: duality contravariance fails for s_1 at ('1', '2')"],
 'selfdual/index-tau2': ["index duality: tau_2 is not involutive at ('sp2', ('sp', '1', '1', 0, 0, "
                         "0), ('sp', '1', '1', 0, 0, 0), ('sp', '1', '1', 2, 0, 0), 0, 0, 0, 0)",
                         "index duality: tau_2 is not involutive at ('sp2', ('sp', '1', '1', 2, 0, "
                         "0), ('sp', '1', '1', 0, 0, 0), ('sp', '1', '1', 0, 0, 0), 0, 0, 0, 0)",
                         "index duality: tau_2 is not involutive at ('sp2', ('sp', '2', '2', 1, 1, "
                         "1), ('sp', '2', '2', 2, 1, 1), ('sp', '2', '2', 2, 1, 1), 2, 1, 0, 0)",
                         "index duality: tau_2 is not involutive at ('sp2', ('sp', '2', '2', 2, 1, "
                         "1), ('sp', '2', '2', 2, 1, 1), ('sp', '2', '2', 1, 1, 1), 2, 0, 0, 1)",
                         "index duality: duality contravariance fails for d_0 at ('sp2', ('sp', "
                         "'1', '1', 0, 0, 0), ('sp', '1', '1', 0, 0, 0), ('sp', '1', '1', 2, 0, "
                         '0), 0, 0, 0, 0)',
                         "index duality: duality contravariance fails for d_1 at ('sp2', ('sp', "
                         "'1', '1', 0, 0, 0), ('sp', '1', '1', 0, 0, 0), ('sp', '1', '1', 2, 0, "
                         '0), 0, 0, 0, 0)',
                         "index duality: duality contravariance fails for d_2 at ('sp2', ('sp', "
                         "'1', '1', 0, 0, 0), ('sp', '1', '1', 0, 0, 0), ('sp', '1', '1', 2, 0, "
                         '0), 0, 0, 0, 0)',
                         "index duality: duality contravariance fails for d_0 at ('sp2', ('sp', "
                         "'2', '2', 2, 1, 1), ('sp', '2', '2', 2, 1, 1), ('sp', '2', '2', 1, 1, "
                         '1), 2, 0, 0, 1)',
                         "index duality: duality contravariance fails for d_1 at ('sp2', ('sp', "
                         "'2', '2', 2, 1, 1), ('sp', '2', '2', 2, 1, 1), ('sp', '2', '2', 1, 1, "
                         '1), 2, 0, 0, 1)',
                         "index duality: duality contravariance fails for d_2 at ('sp2', ('sp', "
                         "'2', '2', 2, 1, 1), ('sp', '2', '2', 2, 1, 1), ('sp', '2', '2', 1, 1, "
                         '1), 2, 0, 0, 1)',
                         "index duality: duality contravariance fails for s_0 at ('sp', '2', '2', "
                         '2, 1, 1)'],
 'selfdual/level-tau1': ["tau_1 does not lie over the index duality at ('a', 'b')",
                         'tau_1 involutive fails',
                         'tau_1 is not an isomorphism'],
 'selfdual/level-tau2': ["tau_2 does not lie over the index duality at ('a', 'b', 'c')",
                         'tau_2 involutive fails',
                         'tau_2 is not an isomorphism'],
 'selfdual/zeta-off-a-triangle': ["zeta does not commute with face d_0 on level 2 at ('a', 'b', "
                                  "'c')",
                                  "zeta does not commute with face d_2 on level 2 at ('a', 'b', "
                                  "'c')",
                                  "zeta does not commute with degeneracy s_0 on level 1 at ('c', "
                                  "'a')"],
 'validate/bad-degeneracy': ["s0 s0 = s1 s0 fails at 'x': 'w_e0' != 'w_e1'",
                             "d2 s0 = s0 d1 fails at 'e': 'ix' != 'e'",
                             "d0 s1 = s0 d0 fails at 'e': 'ix' != 'e'",
                             "d2 s0 = s0 d1 fails at 'ix': 'ix' != 'e'",
                             "d0 s1 = s0 d0 fails at 'ix': 'ix' != 'e'"],
 'validate/bad-face': ["d1 s0 = id on S1 fails at 'e': 'ix' != 'e'"]}


# Recorded from the validators as they were before they checked a family
# fiber by fiber and a simplicial map by position.
EXPECTED_BEFORE_FIBERS = {
    "map/vertex-moved": [
        "h does not commute with d_0 at ('1', '1')",
        "h does not commute with d_1 at ('1', '1')",
        "h does not commute with s_0 at '1'",
    ],
    "map/degeneracy-image": [
        "h does not commute with d_0 at ('1', '1', '1')",
        "h does not commute with d_2 at ('1', '1', '1')",
        "h does not commute with s_0 at ('1', '1')",
        "h does not commute with s_1 at ('1', '1')",
    ],
    "family/antichain-face-at-b": ["d1 d2 = d1 d1 on H2 fails"],
    "selfdual/antichain-tau1-at-b": [
        "d0 tau1 = d1 fails",
        "d1 tau1 = d0 fails",
        "d0 tau2 = tau1 d2 fails",
        "d1 tau2 = tau1 d1 fails",
        "d2 tau2 = tau1 d0 fails",
        "tau2 s0 = s1 tau1 fails",
        "tau2 s1 = s0 tau1 fails",
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_violation_messages_are_pinned(case):
    assert CASES[case]() == {**EXPECTED, **EXPECTED_BEFORE_FIBERS}[case]


def off_limit_face():
    """The fixture's Čech family with the long edge of one triangle moved
    inside its component: the faces of that element no longer form a
    point of the limit over its boundary."""
    f = cech("point-1x2").base
    d1 = f.face[(2, 1)]
    comp = {"pt": {**d1.comp["pt"], ("a", "b", "c"): ("a", "b")}}
    face = {**f.face, (2, 1): td.PresheafMap(d1.dom, d1.cod, comp)}
    return td.SimplicialFamily(f.h0, f.h1, f.h2, face, f.degen, f.sset, f.zeta)


@pytest.mark.parametrize("reverse", [False, True])
def test_coverage_names_the_first_element_outside_its_limit(reverse):
    f = off_limit_face()
    if reverse:
        f = with_dicts_reversed(f)
    cover = dict(generated_covers())["point-1x2"]
    with pytest.raises(ValueError) as exc:
        td.is_hypercover(f, cover)
    assert str(exc.value) == (
        "faces of ('a', 'b', 'c') at 'pt' lie outside the limit over "
        "(('1', '2'), ('1', '2'), ('2', '2'))"
    )


# The descent validators and the action validator, on data broken one
# fault at a time: a missing carrier, a missing value, a value that is no
# bijection, a value that is not natural (over a chain cover, where a
# point restricts to another), a broken identity law and a broken cocycle.
# Index data and actions have no points, so they have no naturality case.

SWAP = {0: 1, 1: 0}


def _two_by_two(data):
    """The first of ``data`` whose carriers all have two elements."""
    return next(d for d in data if all(len(r) == 2 for r in d.carrier.values()))


def u_datum(name, edit=None, drop_carrier=None):
    """A cover datum over the named generated cover with carriers of two
    elements, its tables copied, then ``edit(sigma)`` applied and the
    carrier at ``drop_carrier`` removed."""
    cover = dict(generated_covers())[name]
    u = _two_by_two(td.enumerate_u_descent_data(cover, 2))
    sigma = {pair: {p: dict(t) for p, t in tables.items()} for pair, tables in u.sigma.items()}
    if edit:
        edit(sigma)
    carrier = {i: r for i, r in u.carrier.items() if i != drop_carrier}
    return td.UDescentDatum(cover=cover, carrier=carrier, sigma=sigma)


def h_datum(name, edit=None, drop_carrier=None):
    """As ``u_datum``, for the family datum over the Čech family of the
    named cover, whose tables have the same keys."""
    sf = cech(name)
    d = _two_by_two(td.enumerate_h_descent_data(sf, 2))
    sigma = {l: {p: dict(t) for p, t in tables.items()} for l, tables in d.sigma_hat.items()}
    if edit:
        edit(sigma)
    carrier = {i: r for i, r in d.carrier.items() if i != drop_carrier}
    return td.HDescentDatum(family=sf, carrier=carrier, sigma_hat=sigma)


def s_datum(edit=None, drop_carrier=None):
    """An index datum over the nerve of the fixture with carriers of two
    elements, edited as ``u_datum`` is; returned with the nerve."""
    sset, _ = td.cech_nerve(dict(generated_covers())["point-1x2"])
    d = _two_by_two(td.enumerate_s_descent_data(sset, 2))
    s = {l: dict(m) for l, m in d.s.items()}
    if edit:
        edit(s)
    carrier = {i: r for i, r in d.carrier.items() if i != drop_carrier}
    return sset, td.SDescentDatum(carrier=carrier, s=s)


def action(edit=None, drop_carrier=None):
    """The action of that index datum on the fundamental presentation of
    the nerve, edited on its generator maps."""
    sset, d = s_datum()
    s = {l: dict(m) for l, m in d.s.items()}
    if edit:
        edit(s)
    carrier = {i: r for i, r in d.carrier.items() if i != drop_carrier}
    return td.fundamental_presentation(sset), td.GroupoidAction(carrier=carrier, gen_action=s)


def at(key, p, e, value=None):
    """An edit setting ``table[key][p][e]`` to ``value``, or deleting it."""

    def edit(table):
        if value is None:
            del table[key][p][e]
        else:
            table[key][p][e] = value

    return edit


def put(key, value):
    """An edit setting ``table[key]`` to ``value``, or deleting it."""

    def edit(table):
        if value is None:
            del table[key]
        else:
            table[key] = value

    return edit


def both(*edits):
    def edit(table):
        for e in edits:
            e(table)

    return edit


DESCENT_CASES = {
    "u/missing-carrier": lambda: td.validate_u_descent(u_datum("point-1x2", drop_carrier="2")),
    "u/missing-value": lambda: td.validate_u_descent(u_datum("point-1x2", at(("1", "2"), "pt", ("a", "c")))),
    "u/not-a-bijection": lambda: td.validate_u_descent(
        u_datum("point-1x2", at(("2", "1"), "pt", ("b", "a"), {0: 0, 1: 0}))
    ),
    "u/not-natural": lambda: td.validate_u_descent(u_datum("chain-constants", at(("1", "2"), "b", ("x", "z"), SWAP))),
    "u/not-natural-twice": lambda: td.validate_u_descent(
        u_datum("chain-constants", both(at(("1", "2"), "b", ("y", "z"), SWAP), at(("1", "1"), "b", ("x", "y"), SWAP)))
    ),
    "u/first-faulty-pair-only": lambda: td.validate_u_descent(
        u_datum("point-1x2", both(at(("2", "1"), "pt", ("c", "a")), at(("2", "2"), "pt", ("b", "c"), {0: 1, 1: 1})))
    ),
    "u/identity-law": lambda: td.validate_u_descent(u_datum("point-1x2", at(("2", "2"), "pt", ("b", "b"), SWAP))),
    "u/cocycle": lambda: td.validate_u_descent(u_datum("point-1x2", at(("1", "2"), "pt", ("a", "b"), SWAP))),
    "h/missing-carrier": lambda: td.validate_h_descent(h_datum("point-1x2", drop_carrier="2")),
    "h/missing-value": lambda: td.validate_h_descent(h_datum("point-1x2", at(("1", "2"), "pt", ("a", "c")))),
    "h/not-a-bijection": lambda: td.validate_h_descent(
        h_datum("point-1x2", at(("2", "1"), "pt", ("b", "a"), {0: 0, 1: 0}))
    ),
    "h/not-natural": lambda: td.validate_h_descent(h_datum("chain-constants", at(("1", "2"), "b", ("x", "z"), SWAP))),
    "h/not-natural-twice": lambda: td.validate_h_descent(
        h_datum("chain-constants", both(at(("1", "2"), "b", ("y", "z"), SWAP), at(("1", "1"), "b", ("x", "y"), SWAP)))
    ),
    "h/first-faulty-pair-only": lambda: td.validate_h_descent(
        h_datum("point-1x2", both(at(("2", "1"), "pt", ("c", "a")), at(("2", "2"), "pt", ("b", "c"), {0: 1, 1: 1})))
    ),
    "h/identity-law": lambda: td.validate_h_descent(h_datum("point-1x2", at(("2", "2"), "pt", ("b", "b"), SWAP))),
    "h/cocycle": lambda: td.validate_h_descent(h_datum("point-1x2", at(("1", "2"), "pt", ("a", "b"), SWAP))),
    "s/missing-carrier": lambda: td.validate_s_descent(*s_datum(drop_carrier="2")),
    "s/missing-value": lambda: td.validate_s_descent(*s_datum(put(("1", "2"), None))),
    "s/not-a-bijection": lambda: td.validate_s_descent(*s_datum(put(("2", "1"), {0: 0, 1: 0}))),
    "s/identity-law": lambda: td.validate_s_descent(*s_datum(put(("2", "2"), SWAP))),
    "s/cocycle": lambda: td.validate_s_descent(*s_datum(put(("1", "2"), SWAP))),
    "action/missing-carrier": lambda: td.validate_action(*action(drop_carrier="2")),
    "action/missing-value": lambda: td.validate_action(*action(put(("1", "2"), None))),
    "action/not-a-bijection": lambda: td.validate_action(*action(put(("2", "1"), {0: 0, 1: 0}))),
    "action/identity-law": lambda: td.validate_action(*action(put(("2", "2"), SWAP))),
    "action/cocycle": lambda: td.validate_action(*action(put(("1", "2"), SWAP))),
}


# Recorded from the validators as they were when the cover side still built
# the Čech nerve of the cover; the two ``not-natural-twice`` cases were
# recorded again once naturality was checked on every pair.
EXPECTED_DESCENT = {'action/cocycle': ['relation 2 fails on 0', 'relation 5 fails on 0'],
 'action/identity-law': ["identity generator at '2' does not act as the identity",
                         'relation 3 fails on 0',
                         'relation 5 fails on 0',
                         'relation 6 fails on 0',
                         'relation 7 fails on 0',
                         'relation 9 fails on 0'],
 'action/missing-carrier': ["carrier missing at '2'"],
 'action/missing-value': ["no action for generator ('1', '2')"],
 'action/not-a-bijection': ["action of ('2', '1') is not a bijection onto the target carrier"],
 'h/cocycle': ["cocycle fails at 2-simplex ('1', '2', '1') on ('a', 'b', 'a')",
               "cocycle fails at 2-simplex ('1', '2', '2') on ('a', 'b', 'c')",
               "cocycle fails at 2-simplex ('1', '2', '2') on ('a', 'c', 'b')",
               "cocycle fails at 2-simplex ('2', '1', '2') on ('b', 'a', 'b')",
               "cocycle fails at 2-simplex ('2', '1', '2') on ('c', 'a', 'b')"],
 'h/first-faulty-pair-only': ["missing value at ('2', '1'), point 'pt', element ('c', 'a')"],
 'h/identity-law': ["identity law fails at vertex '2' on 'b'",
                    "cocycle fails at 2-simplex ('1', '2', '2') on ('a', 'b', 'b')",
                    "cocycle fails at 2-simplex ('2', '1', '2') on ('b', 'a', 'b')",
                    "cocycle fails at 2-simplex ('2', '2', '1') on ('b', 'b', 'a')",
                    "cocycle fails at 2-simplex ('2', '2', '2') on ('b', 'b', 'b')",
                    "cocycle fails at 2-simplex ('2', '2', '2') on ('b', 'b', 'c')",
                    "cocycle fails at 2-simplex ('2', '2', '2') on ('b', 'c', 'b')",
                    "cocycle fails at 2-simplex ('2', '2', '2') on ('c', 'b', 'b')"],
 'h/missing-carrier': ["carrier missing at '2'"],
 'h/missing-value': ["missing value at ('1', '2'), point 'pt', element ('a', 'c')"],
 'h/not-a-bijection': ["value at ('2', '1'), ('b', 'a') is not a carrier bijection"],
 'h/not-natural': ["value at ('1', '2') is not natural at ('x', 'z')"],
 'h/not-natural-twice': ["value at ('1', '1') is not natural at ('x', 'y')",
                         "value at ('1', '2') is not natural at ('y', 'z')"],
 's/cocycle': ["cocycle fails at 2-simplex ('1', '2', '1')",
               "cocycle fails at 2-simplex ('2', '1', '2')"],
 's/identity-law': ["identity law fails at vertex '2'",
                    "cocycle fails at 2-simplex ('1', '2', '2')",
                    "cocycle fails at 2-simplex ('2', '1', '2')",
                    "cocycle fails at 2-simplex ('2', '2', '1')",
                    "cocycle fails at 2-simplex ('2', '2', '2')"],
 's/missing-carrier': ["carrier missing at '2'"],
 's/missing-value': ["no bijection for 1-simplex ('1', '2')"],
 's/not-a-bijection': ["value at ('2', '1') is not a bijection of the carriers"],
 'u/cocycle': ["cocycle fails over ('1','2','1') on ('a','b','a')",
               "cocycle fails over ('1','2','2') on ('a','b','c')",
               "cocycle fails over ('1','2','2') on ('a','c','b')",
               "cocycle fails over ('2','1','2') on ('b','a','b')",
               "cocycle fails over ('2','1','2') on ('c','a','b')"],
 'u/first-faulty-pair-only': ["missing value over ('2','1') at 'pt' on ('c','a')"],
 'u/identity-law': ["identity law fails over '2' on 'b'",
                    "cocycle fails over ('1','2','2') on ('a','b','b')",
                    "cocycle fails over ('2','1','2') on ('b','a','b')",
                    "cocycle fails over ('2','2','1') on ('b','b','a')",
                    "cocycle fails over ('2','2','2') on ('b','b','b')",
                    "cocycle fails over ('2','2','2') on ('b','b','c')",
                    "cocycle fails over ('2','2','2') on ('b','c','b')",
                    "cocycle fails over ('2','2','2') on ('c','b','b')"],
 'u/missing-carrier': ["carrier missing at '2'"],
 'u/missing-value': ["missing value over ('1','2') at 'pt' on ('a','c')"],
 'u/not-a-bijection': ["value over ('2','1') on ('b','a') is not a carrier bijection"],
 'u/not-natural': ["value over ('1','2') is not natural on ('x','z')"],
 'u/not-natural-twice': ["value over ('1','1') is not natural on ('x','y')",
                         "value over ('1','2') is not natural on ('y','z')"]}


@pytest.mark.parametrize("case", sorted(DESCENT_CASES))
def test_descent_violation_messages_are_pinned(case):
    assert DESCENT_CASES[case]() == EXPECTED_DESCENT[case]


# A carrier that lists an element twice: each validator reports it once per
# carrier, among the missing carriers and before it reads any map, and each
# decoder of carriers refuses it.  The kernel refuses a fiber or a component
# given at a point outside the base.


def repeated(d, *names):
    """``d`` with the carriers at ``names`` listing their first element
    twice."""
    carrier = {i: (tuple(r) + tuple(r)[:1] if i in names else r) for i, r in d.carrier.items()}
    return dataclasses.replace(d, carrier=carrier)


def decoded(to_json, from_json, d, *args):
    """The error of decoding ``d``, written out, with its carrier at ``'2'``
    listing its first element twice."""
    doc = to_json(d)
    doc["carriers"]["2"] = doc["carriers"]["2"][:1] + doc["carriers"]["2"]
    with pytest.raises(SerializationError) as exc:
        from_json(doc, *args)
    return [str(exc.value)]


def raised(build):
    with pytest.raises(ValueError) as exc:
        build()
    return [str(exc.value)]


def stray_fiber():
    base = td.FinPoset.from_pairs(("a",))
    return td.Presheaf(base, {"a": ("x",), "pt": ("x", "y")}, {})


def stray_component():
    base = td.FinPoset.from_pairs(("a",))
    x = td.constant_presheaf(("x",), base)
    return td.PresheafMap(x, x, {"a": {"x": "x"}, "pt": {}})


REPEAT_CASES = {
    "u/repeated-carrier": lambda: td.validate_u_descent(repeated(u_datum("point-1x2"), "2")),
    "u/repeated-carriers": lambda: td.validate_u_descent(repeated(u_datum("point-1x2"), "1", "2")),
    "u/missing-and-repeated": lambda: td.validate_u_descent(
        repeated(u_datum("point-1x2", drop_carrier="1"), "2")
    ),
    "h/repeated-carrier": lambda: td.validate_h_descent(repeated(h_datum("point-1x2"), "2")),
    "h/repeated-carriers": lambda: td.validate_h_descent(repeated(h_datum("point-1x2"), "1", "2")),
    "s/repeated-carrier": lambda: td.validate_s_descent(s_datum()[0], repeated(s_datum()[1], "2")),
    "action/repeated-carrier": lambda: td.validate_action(action()[0], repeated(action()[1], "2")),
    "decode/u": lambda: decoded(
        udescent_to_json, udescent_from_json, u_datum("point-1x2"), dict(generated_covers())["point-1x2"]
    ),
    "decode/h": lambda: decoded(hdescent_to_json, hdescent_from_json, h_datum("point-1x2"), cech("point-1x2")),
    "decode/s": lambda: decoded(sdescent_to_json, sdescent_from_json, s_datum()[1]),
    "decode/action": lambda: decoded(action_to_json, action_from_json, action()[1]),
    "kernel/stray-fiber": lambda: raised(stray_fiber),
    "kernel/stray-component": lambda: raised(stray_component),
}


EXPECTED_REPEAT = {
    "action/repeated-carrier": ["carrier at '2' lists an element twice"],
    "decode/action": ["bad action: carrier at '2' lists an element twice"],
    "decode/h": ["bad descent datum: carrier at '2' lists an element twice"],
    "decode/s": ["bad descent datum: carrier at '2' lists an element twice"],
    "decode/u": ["bad descent datum: carrier at '2' lists an element twice"],
    "h/repeated-carrier": ["carrier at '2' lists an element twice"],
    "h/repeated-carriers": [
        "carrier at '1' lists an element twice",
        "carrier at '2' lists an element twice",
    ],
    "kernel/stray-component": ["component at unknown point 'pt'"],
    "kernel/stray-fiber": ["fiber at unknown point 'pt'"],
    "s/repeated-carrier": ["carrier at '2' lists an element twice"],
    "u/missing-and-repeated": ["carrier missing at '1'", "carrier at '2' lists an element twice"],
    "u/repeated-carrier": ["carrier at '2' lists an element twice"],
    "u/repeated-carriers": [
        "carrier at '1' lists an element twice",
        "carrier at '2' lists an element twice",
    ],
}


@pytest.mark.parametrize("case", sorted(REPEAT_CASES))
def test_repeated_carriers_and_stray_points_are_pinned(case):
    assert REPEAT_CASES[case]() == EXPECTED_REPEAT[case]


# The refusals of the checked entries: each feeds one invalid input to an
# entry that validates it, and pins the type and the whole message of what
# it raises, so a change to how the entries refuse cannot change a byte.


def refused(build):
    """The type name and the message of the exception ``build`` raises."""
    with pytest.raises(Exception) as exc:
        build()
    return [type(exc.value).__name__, str(exc.value)]


def missing_value_u():
    return u_datum("point-1x2", at(("1", "2"), "pt", ("a", "c")))


def missing_value_s():
    return s_datum(put(("1", "2"), None))[1]


def without_theta_1():
    """The glued trivializations of a datum of the fixture, the one at
    ``'1'`` dropped."""
    cover = dict(generated_covers())["point-1x2"]
    lc = td.glue(cover, u_datum("point-1x2"))
    theta = {i: th for i, th in lc.theta.items() if i != "1"}
    return td.LocallyConstant(lc.space, cover, lc.carrier, theta)


def fixture_refinement():
    """The fixture's connected refinement, one of its consistent data with
    carriers of two elements, and one of its actions with carriers of two
    elements, the action of the first non-degenerate generator dropped."""
    ref = td.connected_refinement(dict(generated_covers())["point-1x2"])
    sset = ref.base.sset
    d = _two_by_two(d for d in td.enumerate_s_descent_data(sset, 2) if td.is_consistent(d, ref))
    a = _two_by_two(td.enumerate_actions(td.g_fundamental_presentation(ref), 2))
    gen = sset.s1[1]
    broken = td.GroupoidAction(a.carrier, {g: m for g, m in a.gen_action.items() if g != gen})
    return ref, d, broken


def three_objects():
    """The fundamental presentation of the nerve of ``point-3x1``, whose
    objects ``'1'``, ``'2'``, ``'3'`` outnumber the fixture's."""
    return td.fundamental_presentation(td.cech_nerve(dict(generated_covers())["point-3x1"])[0])


REFUSAL_CASES = {
    "glue": lambda: td.glue(dict(generated_covers())["point-1x2"], missing_value_u()),
    "extract_descent": lambda: td.extract_descent(without_theta_1()),
    "is_covering_projection": lambda: td.is_covering_projection(
        dict(generated_covers())["point-1x2"], missing_value_u()
    ),
    "s_to_action": lambda: td.s_to_action(*s_datum(put(("1", "2"), None))),
    "action_to_s": lambda: td.action_to_s(s_datum()[0], action(put(("1", "2"), None))[1]),
    "induced_h_from_s": lambda: td.induced_h_from_s(missing_value_s(), cech("point-1x2")),
    "u_to_h": lambda: td.u_to_h(missing_value_u(), cech("point-1x2")),
    "h_to_u": lambda: td.h_to_u(
        h_datum("point-1x2", at(("1", "2"), "pt", ("a", "c"))), dict(generated_covers())["point-1x2"]
    ),
    "is_consistent": lambda: td.is_consistent(missing_value_s(), cech("point-1x2")),
    "consistent_to_g_action": lambda: td.consistent_to_g_action(
        fixture_refinement()[1], fixture_refinement()[0], three_objects()
    ),
    "action_to_consistent": lambda: td.action_to_consistent(fixture_refinement()[2], fixture_refinement()[0]),
    "counit": lambda: td.counit(zeta_off_a_face()),
    "assemble": lambda: td.assemble(
        td.HypercoverIndex({"C": dict(generated_covers())["point-1x2"]}, {"C": cech("point-1x2")}, {})
    ),
}


# Recorded from the entries as they were when each joined its own faults.
EXPECTED_REFUSAL = {
    "action_to_consistent": [
        "ValueError",
        "invalid action: no action for generator ('sp', '1', '1', 2, 0, 0)",
    ],
    "action_to_s": ["ValueError", "invalid action: no action for generator ('1', '2')"],
    "assemble": ["ValueError", "invalid hypercover index: node 'C' fails the filling condition"],
    "consistent_to_g_action": ["ValueError", "datum does not define an action: carrier missing at '3'"],
    "counit": [
        "ValueError",
        "counit of an invalid family: zeta does not commute with face d_1 on level 1 at ('a', 'b'); "
        "zeta does not commute with face d_0 on level 2 at ('a', 'a', 'b'); "
        "zeta does not commute with face d_1 on level 2 at ('a', 'a', 'b'); "
        "zeta does not commute with face d_2 on level 2 at ('a', 'b', 'a'); "
        "zeta does not commute with degeneracy s_0 on level 1 at ('a', 'b'); "
        "zeta does not commute with degeneracy s_1 on level 1 at ('a', 'b')",
    ],
    "extract_descent": ["ValueError", "invalid trivialization: no trivialization at '1'"],
    "glue": ["ValueError", "invalid descent datum: missing value over ('1','2') at 'pt' on ('a','c')"],
    "h_to_u": [
        "ValueError",
        "invalid descent datum: missing value at ('1', '2'), point 'pt', element ('a', 'c')",
    ],
    "induced_h_from_s": ["ValueError", "invalid descent datum: no bijection for 1-simplex ('1', '2')"],
    "is_consistent": ["ValueError", "invalid descent datum: no bijection for 1-simplex ('1', '2')"],
    "is_covering_projection": [
        "ValueError",
        "invalid descent datum: missing value over ('1','2') at 'pt' on ('a','c')",
    ],
    "s_to_action": ["ValueError", "invalid descent datum: no bijection for 1-simplex ('1', '2')"],
    "u_to_h": ["ValueError", "invalid descent datum: missing value over ('1','2') at 'pt' on ('a','c')"],
}


@pytest.mark.parametrize("case", sorted(REFUSAL_CASES))
def test_refusals_of_the_checked_entries_are_pinned(case):
    assert refused(REFUSAL_CASES[case]) == EXPECTED_REFUSAL[case]


# Entries off the cover: an entry of a cover datum over a pair the cover
# does not have ends the check; one at a point or an element the cover does
# not have is a fault of its pair, like a missing value, so the first
# faulty pair ends the check and no law is checked.  A family datum is
# checked alike, by 1-simplex and component.  Trivializations with a
# missing or repeating carrier are refused with the carrier's fault.


def stray_point(table):
    table[("1", "2")]["q"] = {}


def glued_with_carrier(carrier):
    """The glued trivializations of a datum of the fixture, with ``carrier``
    in place of the datum's carriers."""
    lc = td.glue(dict(generated_covers())["point-1x2"], u_datum("point-1x2"))
    return dataclasses.replace(lc, carrier=carrier)


STRAY_CASES = {
    "u/stray-element": lambda: td.validate_u_descent(
        u_datum("point-1x2", at(("1", "1"), "pt", ("a", "z"), {0: 0, 1: 1}))
    ),
    "u/stray-element-label": lambda: td.validate_u_descent(
        u_datum("point-1x2", at(("2", "1"), "pt", "ba", {0: 0, 1: 1}))
    ),
    "u/stray-point": lambda: td.validate_u_descent(u_datum("point-1x2", stray_point)),
    "u/stray-pair": lambda: td.validate_u_descent(u_datum("point-1x2", put(("1", "3"), {"pt": {}}))),
    "u/stray-pair-ends-the-check": lambda: td.validate_u_descent(
        u_datum("point-1x2", both(at(("1", "2"), "pt", ("a", "c")), put("#9", {}), stray_point))
    ),
    "u/value-and-stray-at-one-pair": lambda: td.validate_u_descent(
        u_datum("point-1x2", both(at(("1", "2"), "pt", ("a", "c")), at(("1", "2"), "pt", ("c", "a"), SWAP)))
    ),
    "u/first-faulty-pair-ends-the-check": lambda: td.validate_u_descent(
        u_datum("point-1x2", both(stray_point, at(("2", "2"), "pt", ("c", "a"), SWAP)))
    ),
    "u/stray-under-chain": lambda: td.validate_u_descent(
        u_datum("chain-constants", at(("1", "2"), "b", ("z", "x"), SWAP))
    ),
    "h/stray-element": lambda: td.validate_h_descent(
        h_datum("point-1x2", at(("1", "1"), "pt", ("a", "z"), {0: 0, 1: 1}))
    ),
    "h/stray-point": lambda: td.validate_h_descent(h_datum("point-1x2", stray_point)),
    "h/stray-simplex": lambda: td.validate_h_descent(h_datum("point-1x2", put(("1", "3"), {"pt": {}}))),
    "h/stray-simplex-ends-the-check": lambda: td.validate_h_descent(
        h_datum("point-1x2", both(at(("1", "2"), "pt", ("a", "c")), put("#9", {}), stray_point))
    ),
    "h/value-and-stray-at-one-simplex": lambda: td.validate_h_descent(
        h_datum("point-1x2", both(at(("1", "2"), "pt", ("a", "c")), at(("1", "2"), "pt", ("c", "a"), SWAP)))
    ),
    "h/stray-under-chain": lambda: td.validate_h_descent(
        h_datum("chain-constants", at(("1", "2"), "b", ("z", "x"), SWAP))
    ),
    "trivialization/missing-carrier": lambda: td.validate_trivialization(glued_with_carrier({"1": (0, 1)})),
    "trivialization/repeated-carrier": lambda: td.validate_trivialization(
        glued_with_carrier({"1": (0, 1), "2": (0, 0, 1)})
    ),
    "extract/missing-carrier": lambda: refused(lambda: td.extract_descent(glued_with_carrier({"1": (0, 1)}))),
}


EXPECTED_STRAY = {
    "extract/missing-carrier": ["ValueError", "invalid trivialization: carrier missing at '2'"],
    "h/stray-element": ["entry at ('1', '1'), point 'pt', element ('a', 'z') off the family"],
    "h/stray-point": ["entry at ('1', '2'), point 'q' off the family"],
    "h/stray-simplex": ["entry at ('1', '3') off the family"],
    "h/stray-simplex-ends-the-check": ["entry at '#9' off the family"],
    "h/stray-under-chain": ["entry at ('1', '2'), point 'b', element ('z', 'x') off the family"],
    "h/value-and-stray-at-one-simplex": [
        "missing value at ('1', '2'), point 'pt', element ('a', 'c')",
        "entry at ('1', '2'), point 'pt', element ('c', 'a') off the family",
    ],
    "trivialization/missing-carrier": ["carrier missing at '2'"],
    "trivialization/repeated-carrier": ["carrier at '2' lists an element twice"],
    "u/first-faulty-pair-ends-the-check": ["entry over ('1','2') at 'q' off the cover"],
    "u/stray-element": ["entry over ('1','1') at 'pt' on ('a', 'z') off the cover"],
    "u/stray-element-label": ["entry over ('2','1') at 'pt' on 'ba' off the cover"],
    "u/stray-pair": ["entry over ('1', '3') off the cover"],
    "u/stray-pair-ends-the-check": ["entry over '#9' off the cover"],
    "u/stray-point": ["entry over ('1','2') at 'q' off the cover"],
    "u/stray-under-chain": ["entry over ('1','2') at 'b' on ('z', 'x') off the cover"],
    "u/value-and-stray-at-one-pair": [
        "missing value over ('1','2') at 'pt' on ('a','c')",
        "entry over ('1','2') at 'pt' on ('c', 'a') off the cover",
    ],
}


@pytest.mark.parametrize("case", sorted(STRAY_CASES))
def test_entries_off_the_cover_and_bad_trivialization_carriers_are_pinned(case):
    assert STRAY_CASES[case]() == EXPECTED_STRAY[case]


def test_a_family_datum_with_a_stray_entry_is_refused():
    # the round trip through the cover would drop the entry
    h = h_datum("point-1x2", at(("1", "1"), "pt", ("a", "z"), {0: 0, 1: 1}))
    with pytest.raises(ValueError, match="element \\('a', 'z'\\) off the family"):
        td.h_to_u(h, dict(generated_covers())["point-1x2"])


# Each datum of the fixture at bound 2, pulled back over the Čech family with
# two elements of H2 moved off their 2-simplices: the elements are reported,
# and their cocycle laws are not read.
EXPECTED_OFF_A_TRIANGLE = [
    "faces of ('a', 'b', 'c') at 'pt' lie off those of 2-simplex ('1', '1', '2')",
    "faces of ('c', 'c', 'a') at 'pt' lie off those of 2-simplex ('2', '1', '1')",
]


def test_elements_off_their_triangles_are_reported_not_raised():
    cover = dict(generated_covers())["point-1x2"]
    sf = with_base(zeta_off_a_triangle())
    data = td.enumerate_u_descent_data(cover, 2)
    assert len(data) == 6
    for u in data:
        assert td.validate_h_descent(td.u_to_h(u, sf)) == EXPECTED_OFF_A_TRIANGLE
