"""The equivariant-map search against a generate-and-test oracle.

``_structure_maps_commute`` finds the families of carrier maps that commute
with two structures by propagating each choice along the generators.  The
oracle lists every family of carrier maps in ``itertools.product`` order and
keeps those that commute; the search must give the same list, with each dict
in the same insertion order.  ``_hom_counts``, which ``main2_equivalence``
uses, counts the families as a product over orbits without listing them; its
counts must be the lengths of the oracle's lists."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.covering import _hom_counts, _structure_maps_commute
from toposdescent.errors import InvariantError
from conftest import generated_covers


def generate_and_test(objects, gens, ends, carr1, carr2, act1, act2):
    """Every family of carrier maps, kept if it commutes with the generators."""
    per_obj = [
        [dict(zip(carr1[i], vals)) for vals in itertools.product(carr2[i], repeat=len(carr1[i]))]
        for i in objects
    ]
    out = []
    for combo in itertools.product(*per_obj):
        m = dict(zip(objects, combo))
        if all(
            m[ends(g)[1]][act1[g][x]] == act2[g][m[ends(g)[0]][x]]
            for g in gens
            for x in carr1[ends(g)[0]]
        ):
            out.append(m)
    return out


def _ordered(maps):
    return [[(i, list(m[i].items())) for i in m] for m in maps]


def _check(*args):
    found = _structure_maps_commute(*args)
    expected = generate_and_test(*args)
    assert _ordered(found) == _ordered(expected)
    return len(found)


def _check_action_pairs(pres, bound):
    actions = td.enumerate_actions(pres, bound)

    def ends(g):
        return (pres.src[g], pres.tgt[g])

    total = 0
    for a1, a2 in itertools.product(actions, repeat=2):
        total += _check(
            pres.objects, pres.generators, ends, a1.carrier, a2.carrier, a1.gen_action, a2.gen_action
        )
    return total


@pytest.mark.parametrize("name, cover", generated_covers(), ids=[n for n, _ in generated_covers()])
def test_equivariant_maps_match_the_oracle(name, cover):
    refined = td.g_fundamental_presentation(td.connected_refinement(cover))
    nerve = td.fundamental_presentation(td.cech_nerve(cover)[0])
    assert _check_action_pairs(refined, 2) > 0
    assert _check_action_pairs(nerve, 2) > 0


def test_main2_inputs_match_the_oracle(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    sset = ref.base.sset
    data = [d for d in td.enumerate_s_descent_data(sset, 2) if td.is_consistent(d, ref)]
    assert len(data) > 1
    for d1, d2 in itertools.product(data, repeat=2):
        _check(sset.s0, sset.s1, sset.endpoints, d1.carrier, d2.carrier, d1.s, d2.s)


@st.composite
def structure_pairs(draw):
    """Two structures on at most 3 objects with at most 4 generators:
    carriers of at most 3 elements in a drawn order, empty ones included,
    and random bijections as generator maps."""
    objects = tuple(range(draw(st.integers(1, 3))))
    # objects in one class get carriers of equal sizes, so that generators
    # can run between them
    cls = [draw(st.integers(0, i)) for i in objects]
    carriers = []
    for tag in ("x", "y"):
        sizes = [draw(st.integers(0, 3)) for _ in objects]
        carriers.append(
            {i: draw(st.permutations([f"{tag}{n}" for n in range(sizes[cls[i]])])) for i in objects}
        )
    carr1, carr2 = carriers
    fitting = [
        (i, j)
        for i in objects
        for j in objects
        if len(carr1[i]) == len(carr1[j]) and len(carr2[i]) == len(carr2[j])
    ]
    edges = [draw(st.sampled_from(fitting)) for _ in range(draw(st.integers(0, 4)))]
    gens = tuple(f"g{n}" for n in range(len(edges)))
    ends = dict(zip(gens, edges))
    act1, act2 = {}, {}
    for g, (i, j) in ends.items():
        act1[g] = dict(zip(carr1[i], draw(st.permutations(carr1[j]))))
        act2[g] = dict(zip(carr2[i], draw(st.permutations(carr2[j]))))
    return objects, gens, ends.__getitem__, carr1, carr2, act1, act2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(structure_pairs())
def test_equivariant_maps_match_the_oracle_on_random_structures(args):
    _check(*args)


def test_non_injective_generator_map_is_an_invariant_error():
    objects, gens = ("a",), ("g",)
    carr = {"a": (0, 1)}

    def ends(g):
        return ("a", "a")

    act1 = {"g": {0: 1, 1: 0}}
    with pytest.raises(InvariantError):
        _structure_maps_commute(objects, gens, ends, carr, carr, act1, {"g": {0: 0, 1: 0}})


def _check_count(objects, gens, ends, carr1, carr2, act1, act2):
    counts = _hom_counts(objects, gens, ends, [(carr1, act1), (carr2, act2)])
    assert counts[0, 1] == len(generate_and_test(objects, gens, ends, carr1, carr2, act1, act2))
    return counts[0, 1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(structure_pairs())
def test_orbit_counts_match_the_oracle_on_random_structures(args):
    _check_count(*args)


def test_main2_input_counts_match_the_oracle(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    sset = ref.base.sset
    data = [d for d in td.enumerate_s_descent_data(sset, 2) if td.is_consistent(d, ref)]
    counts = [
        _check_count(sset.s0, sset.s1, sset.endpoints, d1.carrier, d2.carrier, d1.s, d2.s)
        for d1, d2 in itertools.product(data, repeat=2)
    ]
    assert max(counts) > 1


def test_bound_three_hom_table_is_the_listed_one(fixture_cover):
    # at bound 3 data have up to three orbits, so the hom counts are real
    # products (up to 27); at bound 2 they are nearly all 0 or 1
    ref = td.connected_refinement(fixture_cover)
    sset = ref.base.sset
    rep = td.main2_equivalence(fixture_cover, ref, 3)
    data = [d for d in td.enumerate_s_descent_data(sset, 3) if td.is_consistent(d, ref)]
    listed = {
        (n1, n2): len(_structure_maps_commute(sset.s0, sset.s1, sset.endpoints, d1.carrier, d2.carrier, d1.s, d2.s))
        for n1, d1 in enumerate(data)
        for n2, d2 in enumerate(data)
    }
    assert rep.ok
    assert list(rep.hom_counts_data.items()) == list(listed.items())
    assert rep.hom_counts_actions == listed
    assert max(listed.values()) == 27


@pytest.mark.parametrize("carr1", [{"a": (0, 1)}, {"a": ()}], ids=["orbits", "empty-source"])
def test_non_injective_target_map_is_an_invariant_error_when_counting(carr1):
    objects, gens = ("a",), ("g",)

    def ends(g):
        return ("a", "a")

    act1 = {"g": dict(zip(carr1["a"], reversed(carr1["a"])))}
    bad = {"g": {0: 0, 1: 0}}
    with pytest.raises(InvariantError, match="not injective"):
        _hom_counts(objects, gens, ends, [(carr1, act1), ({"a": (0, 1)}, bad)])
    with pytest.raises(InvariantError, match="not injective"):
        _structure_maps_commute(objects, gens, ends, carr1, {"a": (0, 1)}, act1, bad)
