"""Carrier choices of the bijection-slot search against product-and-filter.

``solve_carrier_slots`` picks one carrier size per connected component of
its ``sized`` graph.  The oracle lists every tuple of sizes, one per object
in ``itertools.product`` order, and keeps those that agree along ``sized``;
both must give the same carriers in the same order."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.groupoid import solve_carrier_slots
from conftest import generated_covers


def product_and_filter(objects, sized, size_bound):
    sizes = itertools.product(range(size_bound + 1), repeat=len(objects))
    carriers = [{i: tuple(range(n)) for i, n in zip(objects, ns)} for ns in sizes]
    return [c for c in carriers if all(len(c[i]) == len(c[j]) for i, j in sized)]


def carrier_choices(objects, sized, size_bound):
    # with no slots every carrier choice has exactly one (empty) solution
    return [c for c, _ in solve_carrier_slots(objects, sized, [], set(), [], size_bound=size_bound)]


def _check(objects, sized, size_bound):
    found = carrier_choices(objects, sized, size_bound)
    expected = product_and_filter(objects, sized, size_bound)
    assert [list(c.items()) for c in found] == [list(c.items()) for c in expected]
    return len(found)


@pytest.mark.parametrize("k", range(len(generated_covers())), ids=[n for n, _ in generated_covers()])
def test_carriers_match_the_oracle_on_generated_covers(k, generated_refinements):
    _, cover, ref = generated_refinements[k]
    for sset in (ref.base.sset, td.cech_nerve(cover)[0]):
        assert _check(sset.s0, [sset.endpoints(l) for l in sset.s1], 2) > 0


@st.composite
def object_graphs(draw):
    """Up to five objects with mixed labels in a drawn order, and edges
    between them, self-loops included."""
    objects = tuple(draw(st.permutations([3, "a", 1, "b", 2]))[: draw(st.integers(0, 5))])
    pairs = st.tuples(st.sampled_from(objects), st.sampled_from(objects))
    sized = draw(st.lists(pairs, max_size=6)) if objects else []
    return objects, sized, draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(object_graphs())
def test_carriers_match_the_oracle_on_random_graphs(graph):
    _check(*graph)


def test_one_size_per_component():
    # a connected index of 12 objects keeps 3 of the 3**12 size tuples
    objects = tuple(range(12))
    carriers = carrier_choices(objects, list(zip(objects, objects[1:])), 2)
    assert [sorted({len(c[i]) for i in objects}) for c in carriers] == [[0], [1], [2]]
