"""The searches trust what they build; the public validators are their
oracles.

``enumerate_actions`` and ``enumerate_h_descent_data`` (and so
``enumerate_s_descent_data`` and ``enumerate_u_descent_data``) do not
validate their solutions again, ``main2_equivalence`` reads data and
actions into each other unchecked, and ``main1_forward`` reads its
witness datum off without checking it.  The transfers check their inputs and not their
outputs: ``u_to_h`` does not validate the datum it pulls back, ``h_to_u``
the datum it solves, nor ``extract_descent`` the datum it reads off, and
``validate_trivialization`` does not read that datum off.  Each test runs
the public validators and the checked conversions on every such output, on
the connected refinements of the 12 generated covers and of the perfbench
corpus covers relabelled for seed 1, which changes the order of every label
(at seed 0 they are the generated covers).
"""

import importlib
from pathlib import Path

import pytest

import toposdescent as td
from toposdescent import groupoid
from toposdescent.descent import _as_action, _as_datum, _equal_on_span_morphisms
from toposdescent.serialize import udescent_from_json
from conftest import generated_covers, swap_datum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = [n for n, _ in generated_covers()]
BOUND = 2
# Descent data at bound 3 as well, where a bijection need not be its own
# inverse.  The two largest covers stay at bound 2: there the validation
# alone takes seconds (point-2x3 has 1,314 data at bound 3).
DATA_BOUND = {name: 2 if name in ("point-2x3", "diamond-mixed") else 3 for name in NAMES}


@pytest.fixture(scope="module")
def corpus(request):
    """The perfbench corpus at seeds 0 and 1, read without changing it."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    request.addfinalizer(mp.undo)
    return {seed: workloads.Corpus(seed) for seed in (0, 1)}


def check_searches(cover, ref, data_bound):
    """Validate every output of the enumerators and of the round trips of
    ``main2_equivalence`` on one cover and its connected refinement."""
    sset = ref.base.sset
    pres = td.fundamental_presentation(sset)
    gpres = td.g_fundamental_presentation(ref)
    for p in (pres, gpres, td.fundamental_presentation(td.cech_nerve(cover)[0])):
        for a in groupoid.enumerate_actions(p, BOUND):
            assert td.validate_action(p, a) == []
    for d in td.enumerate_s_descent_data(sset, data_bound):
        assert td.validate_s_descent(sset, d) == []
        assert td.action_to_s(sset, td.s_to_action(sset, d), pres) == d
    hdata = td.enumerate_h_descent_data(ref, data_bound)
    for h in hdata:
        assert td.validate_h_descent(h) == []
    udata = td.enumerate_u_descent_data(cover, data_bound)
    for u in udata:
        assert td.validate_u_descent(u) == []
    assert len(udata) == len(hdata)

    # the round trips of main2_equivalence, through the checked conversions
    sdata = td.enumerate_s_descent_data(sset, BOUND)
    consistent = [d for d in sdata if td.is_consistent(d, ref)]
    assert consistent == [d for d in sdata if _equal_on_span_morphisms(d, ref)]
    actions = groupoid.enumerate_actions(gpres, BOUND)
    for d in consistent:
        a = td.consistent_to_g_action(d, ref, gpres)
        assert a == _as_action(sset, d)
        assert td.action_to_consistent(a, ref, gpres) == d
    for a in actions:
        d = td.action_to_consistent(a, ref, gpres)
        assert d == _as_datum(sset, a)
        assert td.consistent_to_g_action(d, ref, gpres) == a
    rep = td.main2_equivalence(cover, ref, BOUND)
    assert rep.ok
    assert (rep.object_count_data, rep.object_count_actions) == (len(consistent), len(actions))
    return len(sdata) + len(hdata) + len(udata) + len(actions)


@pytest.mark.parametrize("k", range(len(NAMES)), ids=NAMES)
def test_search_outputs_of_generated_covers(k, generated_refinements):
    name, cover, ref = generated_refinements[k]
    assert check_searches(cover, ref, DATA_BOUND[name]) > 0


def test_committed_corpus_covers_are_the_generated_covers(corpus):
    """At seed 0 the corpus covers are the generated covers, which the test
    above checks."""
    for name, cover in generated_covers():
        assert corpus[0].cover(name)[0] == cover


@pytest.mark.parametrize("name", NAMES)
def test_search_outputs_of_relabelled_corpus_covers(name, corpus):
    cover, _ = corpus[1].cover(name)
    assert check_searches(cover, td.connected_refinement(cover), DATA_BOUND[name]) > 0


def check_main1(cover, data):
    """Run ``main1_forward`` on each covering projection among ``data`` and
    check the witness datum it reads off: it satisfies the descent laws,
    agrees on the 1-simplices linked by a span morphism, and keeps the
    datum's carriers."""
    n = 0
    for u in data:
        if not td.is_covering_projection(cover, u):
            continue
        fam, datum = td.main1_forward(cover, u)
        sset = fam.base.sset
        assert td.validate_s_descent(sset, datum) == []
        assert _equal_on_span_morphisms(datum, fam)
        assert td.is_consistent(datum, fam)
        assert td.s_to_action(sset, datum).carrier == u.carrier
        n += 1
    return n


def test_main1_witness_data_of_the_corpus(corpus):
    """``main1_forward`` on the committed fixture data with carriers of at
    most two elements: the witness datum passes the public checks."""
    c = corpus[0]
    cover, _ = c.cover("point-1x2")
    data = [
        udescent_from_json(d, cover)
        for d in c.json("data/point-1x2-bound3.json")["data"]
    ]
    small = [u for u in data if all(len(x) <= 2 for x in u.carrier.values())]
    assert check_main1(cover, small) == len(small) > 0


@pytest.mark.parametrize("name", NAMES)
def test_main1_witness_data_of_generated_covers(name):
    cover = dict(generated_covers())[name]
    assert check_main1(cover, td.enumerate_u_descent_data(cover, DATA_BOUND[name])) > 0


@pytest.mark.parametrize("name", NAMES)
def test_main1_witness_data_of_relabelled_corpus_covers(name, corpus):
    cover, _ = corpus[1].cover(name)
    assert check_main1(cover, td.enumerate_u_descent_data(cover, DATA_BOUND[name])) > 0


def old_validate_trivialization(lc):
    """``validate_trivialization`` as it was: the checks of the
    trivializations, then the descent laws of the datum they induce."""
    out = td.validate_trivialization(lc)
    if out:
        return out
    try:
        bad = td.validate_u_descent(td.extract_descent(lc))
        if bad:
            raise ValueError("extracted datum is invalid: " + "; ".join(bad))
    except ValueError as exc:
        out.append(str(exc))
    return out


def check_transfers(cover, ref, data_bound):
    """Validate every output of ``u_to_h``, ``h_to_u`` and
    ``extract_descent`` on the enumerated data of one cover and its
    connected refinement, and compare the two trivialization checks."""
    udata = td.enumerate_u_descent_data(cover, data_bound)
    for u in udata:
        h = td.u_to_h(u, ref)
        assert td.validate_h_descent(h) == []
        back = td.h_to_u(h, cover)
        assert td.validate_u_descent(back) == []
        assert (back.carrier, back.sigma) == (u.carrier, u.sigma)
        lc = td.glue(cover, u)
        assert old_validate_trivialization(lc) == td.validate_trivialization(lc) == []
        read = td.extract_descent(lc)
        assert td.validate_u_descent(read) == []
        assert (read.carrier, read.sigma) == (u.carrier, u.sigma)
    hdata = td.enumerate_h_descent_data(ref, data_bound)
    for h in hdata:
        assert td.validate_u_descent(td.h_to_u(h, cover)) == []
    return len(udata) + len(hdata)


@pytest.mark.parametrize("k", range(len(NAMES)), ids=NAMES)
def test_transfer_outputs_of_generated_covers(k, generated_refinements):
    name, cover, ref = generated_refinements[k]
    assert check_transfers(cover, ref, DATA_BOUND[name]) > 0


@pytest.mark.parametrize("name", NAMES)
def test_transfer_outputs_of_relabelled_corpus_covers(name, corpus):
    cover, _ = corpus[1].cover(name)
    assert check_transfers(cover, td.connected_refinement(cover), DATA_BOUND[name]) > 0


def breakages(cover):
    """Glued trivializations of the swap datum, each broken in one way."""
    u = swap_datum(cover)
    lc = td.glue(cover, u)
    comps = td.family_components(cover)
    piece, _, _ = td.product(td.constant_presheaf(u.carrier["2"], lc.space.base), comps["2"])
    target, _, _ = td.product(lc.space, comps["2"])
    th = lc.theta["2"]
    skew = {(r, x): (th.apply("pt", (r, x))[0], "b") for (r, x) in piece.fibers["pt"]}
    flat = {(r, x): th.apply("pt", (0, x)) for (r, x) in piece.fibers["pt"]}
    swapped = {(r, x): th.apply("pt", (1 - r, x)) for (r, x) in piece.fibers["pt"]}

    def with_theta(comp):
        return {**lc.theta, "2": td.PresheafMap(piece, target, {"pt": comp})}

    theta_1 = {k: v for k, v in lc.theta.items() if k != "1"}
    return {
        "skewed projection": td.LocallyConstant(lc.space, cover, lc.carrier, with_theta(skew)),
        "not injective": td.LocallyConstant(lc.space, cover, lc.carrier, with_theta(flat)),
        "carrier permuted": td.LocallyConstant(lc.space, cover, lc.carrier, with_theta(swapped)),
        "shrunk carrier": td.LocallyConstant(lc.space, cover, {"1": (0,), "2": (0, 1)}, lc.theta),
        "missing trivialization": td.LocallyConstant(lc.space, cover, lc.carrier, theta_1),
        "glued": lc,
    }


@pytest.mark.parametrize(
    "which",
    ["skewed projection", "not injective", "carrier permuted", "shrunk carrier", "missing trivialization", "glued"],
)
def test_trivialization_check_matches_the_two_step_check(fixture_cover, which):
    """The breakages of ``test_covering.py`` and a few more: the one-step
    check finds what the old check found, and a trivialization it passes
    gives a valid datum."""
    lc = breakages(fixture_cover)[which]
    msgs = td.validate_trivialization(lc)
    assert msgs == old_validate_trivialization(lc)
    assert bool(msgs) == (which not in ("glued", "carrier permuted"))
    if not msgs:
        assert td.validate_u_descent(td.extract_descent(lc)) == []


def test_u_to_h_refuses_a_family_over_another_cover():
    """A family whose level 0 is not the datum's cover is refused up front,
    with ``is_hypercover``'s message, and not with a bare ``KeyError``."""
    covers = dict(generated_covers())
    ref = td.connected_refinement(covers["chain-rep"])
    data = td.enumerate_u_descent_data(covers["point-1x1"], 2)
    assert data
    for u in data:
        with pytest.raises(ValueError, match="^level-0 mismatch with the cover$"):
            td.u_to_h(u, ref)


def degeneracy_moved():
    """The Čech family of the running example with s0 sending ``b`` to the
    element ``(b, c)`` over the same 1-simplex: a hypercover of the example
    that breaks the degeneracy laws."""
    sf = td.cech_simplicial_family(dict(generated_covers())["point-1x2"])
    f = sf.base
    s0 = f.degen[(0, 0)]
    comp = {p: {**c, "b": ("b", "c")} for p, c in s0.comp.items()}
    degen = {**f.degen, (0, 0): td.PresheafMap(s0.dom, s0.cod, comp)}
    bad = td.SimplicialFamily(f.h0, f.h1, f.h2, f.face, degen, f.sset, f.zeta)
    return td.SelfDualFamily(bad, sf.tau_s, sf.tau1, sf.tau2)


def test_transfers_trust_the_laws_of_the_family():
    """The transfers check their inputs, and the family's laws are the
    caller's: over a hypercover that breaks them, ``u_to_h`` returns what
    it pulls back, which breaks the identity law wherever the datum's value
    on ``(b, c)`` is not the identity, and ``h_to_u`` then refuses it as its
    input.  Data the family's enumerator builds still solve to cover data."""
    cover = dict(generated_covers())["point-1x2"]
    sf = degeneracy_moved()
    assert td.is_hypercover(sf.base, cover)
    assert td.validate_selfdual(sf) == [
        "d0 s0 = id on H0 fails",
        "d2 s0 = s0 d1 on H1 fails",
        "d0 s1 = s0 d0 on H1 fails",
        "s0 s0 = s1 s0 on H0 fails",
    ]
    broken = 0
    for u in td.enumerate_u_descent_data(cover, BOUND):
        h = td.u_to_h(u, sf)
        if dict(u.value("2", "2", "pt", "b", "c")) == {x: x for x in u.carrier["2"]}:
            assert td.validate_h_descent(h) == []
            assert td.h_to_u(h, cover).sigma == u.sigma
        else:
            broken += 1
            assert td.validate_h_descent(h) == ["identity law fails at vertex '2' on 'b'"]
            with pytest.raises(ValueError, match="^invalid descent datum: identity law fails"):
                td.h_to_u(h, cover)
    assert broken == 2
    for h in td.enumerate_h_descent_data(sf, BOUND):
        assert td.validate_u_descent(td.h_to_u(h, cover)) == []


def test_u_to_h_pulls_back_along_a_family_that_is_no_hypercover():
    """Over the Čech family with two elements of H2 moved off their
    2-simplices, ``u_to_h`` pulls every datum back without reading level 2,
    and ``h_to_u`` refuses the result, since the family is no hypercover."""
    from test_golden_messages import with_base, zeta_off_a_triangle

    cover = dict(generated_covers())["point-1x2"]
    sf = with_base(zeta_off_a_triangle())
    data = td.enumerate_u_descent_data(cover, BOUND)
    assert data
    for u in data:
        h = td.u_to_h(u, sf)
        assert h.carrier == u.carrier
        with pytest.raises(ValueError, match="^faces of .* lie outside the limit"):
            td.h_to_u(h, cover)
