"""The searches trust what they build; the public validators are their
oracles.

``enumerate_actions`` and ``enumerate_h_descent_data`` (and so
``enumerate_s_descent_data`` and ``enumerate_u_descent_data``) do not
validate their solutions again, ``main2_equivalence`` reads data and
actions into each other unchecked, and ``main1_forward`` validates its
witness datum once.  Each test runs the public validators and the checked
conversions on every such output, on the connected refinements of the 12
generated covers and of the perfbench corpus covers relabelled for seed 1,
which changes the order of every label (at seed 0 they are the generated
covers).
"""

import importlib
from pathlib import Path

import pytest

import toposdescent as td
from toposdescent import groupoid
from toposdescent.descent import _as_action, _as_datum, _equal_on_span_morphisms
from toposdescent.serialize import udescent_from_json
from conftest import generated_covers

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
    assert small
    for u in small:
        fam, datum = td.main1_forward(cover, u)
        assert td.validate_s_descent(fam.base.sset, datum) == []
        assert td.is_consistent(datum, fam)
        assert td.s_to_action(fam.base.sset, datum).carrier == u.carrier
