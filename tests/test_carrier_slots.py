"""The bijection-slot search against generate-and-test oracles.

``solve_carrier_slots`` picks one carrier size per connected component of
its ``sized`` graph.  The oracle lists every tuple of sizes, one per object
in ``itertools.product`` order, and keeps those that agree along ``sized``;
both must give the same carriers in the same order.

``solve_bijection_slots`` looks the value of a forced slot up instead of
trying its whole domain.  The oracle tries every value of every slot and
checks each constraint once its last slot is assigned; both must give the
same solutions in the same order, each slot holding a dict of its domain
with the same items in the same order."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent import groupoid
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


def test_carrier_arguments_are_checked_on_entry():
    with pytest.raises(ValueError, match="neither size_bound nor carriers"):
        solve_carrier_slots(("1",), [], [], set(), [])
    pres = td.fundamental_presentation(td.cech_nerve(td.family_from_parts(
        td.FinPoset.point(), {"1": td.constant_presheaf(("a",), td.FinPoset.point())}
    ))[0])
    with pytest.raises(ValueError, match="neither size_bound nor carriers"):
        groupoid.enumerate_actions(pres, None)


@pytest.mark.parametrize(
    "entry",
    [
        lambda cover, ref: solve_carrier_slots(("1",), [], [], set(), [], size_bound=-1),
        lambda cover, ref: groupoid.enumerate_actions(td.g_fundamental_presentation(ref), -1),
        lambda cover, ref: td.classifying_category(td.g_fundamental_presentation(ref), -1),
        lambda cover, ref: td.enumerate_s_descent_data(ref.base.sset, -1),
        lambda cover, ref: td.enumerate_h_descent_data(ref, -1),
        lambda cover, ref: td.enumerate_u_descent_data(cover, -1),
        lambda cover, ref: td.main2_equivalence(cover, ref, -1),
    ],
    ids=["solve_carrier_slots", "enumerate_actions", "classifying_category", "enumerate_s_descent_data",
         "enumerate_h_descent_data", "enumerate_u_descent_data", "main2_equivalence"],
)
def test_negative_bound_is_refused(fixture_cover, entry):
    # a negative bound used to admit no carrier at all, and so gave empty
    # enumerations and a vacuous main2 verdict
    with pytest.raises(ValueError, match="the size bound -1 is negative"):
        entry(fixture_cover, td.connected_refinement(fixture_cover))


def test_fixed_carriers_must_cover_every_object(fixture_cover):
    sset = td.cech_nerve(fixture_cover)[0]
    with pytest.raises(ValueError, match="miss the object '1'"):
        td.enumerate_s_descent_data(sset, carriers={"2": (0, 1)})
    with pytest.raises(ValueError, match="miss the object '2'"):
        td.enumerate_u_descent_data(fixture_cover, carriers={"1": (0,)})
    with pytest.raises(ValueError, match="at '1' lists an element twice"):
        td.enumerate_s_descent_data(sset, carriers={"1": ("a", "a"), "2": ("b", "c")})
    data = td.enumerate_s_descent_data(sset, carriers={"1": ("a", "b"), "2": ("c", "d")})
    assert data and all(not td.validate_s_descent(sset, d) for d in data)


def generate_and_test(domains, comp_constraints, eq_pairs=()):
    """Every value of every slot is tried, depth-first; each constraint is
    checked as soon as its last slot is assigned."""
    by_last = {}
    for a, b, c in comp_constraints:
        by_last.setdefault(max(a, b, c), []).append((a, b, c))
    eq_by_last = {}
    for a, b in eq_pairs:
        eq_by_last.setdefault(max(a, b), []).append((a, b))
    out = []
    assigned = [None] * len(domains)

    def extend(k):
        if k == len(domains):
            out.append(tuple(assigned))
            return
        for choice in domains[k]:
            assigned[k] = choice
            if all(assigned[a] == assigned[b] for a, b in eq_by_last.get(k, ())) and all(
                {x: assigned[b][y] for x, y in assigned[a].items()} == assigned[c]
                for a, b, c in by_last.get(k, ())
            ):
                extend(k + 1)
        assigned[k] = None

    extend(0)
    return out


def as_items(solutions):
    return [[list(m.items()) for m in combo] for combo in solutions]


def assert_matches_oracle(domains, comp_constraints, eq_pairs=()):
    found = groupoid.solve_bijection_slots(domains, comp_constraints, eq_pairs)
    expected = generate_and_test(domains, comp_constraints, eq_pairs)
    assert as_items(found) == as_items(expected)
    for combo in found:
        assert all(any(m is v for v in domain) for m, domain in zip(combo, domains))
    return found


@pytest.mark.parametrize("k", range(len(generated_covers())), ids=[n for n, _ in generated_covers()])
def test_forced_slots_match_the_oracle_on_generated_covers(k, generated_refinements, monkeypatch):
    """Every slot system that the enumerators build on the index and on the
    Čech nerve of the cover goes through both searches."""
    _, cover, ref = generated_refinements[k]
    real = groupoid.solve_bijection_slots
    systems = []

    def both(domains, comp_constraints, eq_pairs=()):
        systems.append(len(domains))
        expected = generate_and_test(domains, comp_constraints, eq_pairs)
        found = real(domains, comp_constraints, eq_pairs)
        assert as_items(found) == as_items(expected)
        return found

    monkeypatch.setattr(groupoid, "solve_bijection_slots", both)
    sset = ref.base.sset
    groupoid.enumerate_actions(td.fundamental_presentation(sset), 2)
    groupoid.enumerate_actions(td.g_fundamental_presentation(ref), 2)
    td.enumerate_h_descent_data(ref, 2)
    td.enumerate_u_descent_data(cover, 3)
    groupoid.enumerate_actions(td.fundamental_presentation(td.cech_nerve(cover)[0]), 3)
    assert sum(systems) > 0


CARRIERS = ((), (0,), ("x",), (0, 1), ("y", "x"), (2, 0, 1))


@st.composite
def slot_systems(draw):
    """Typed slot systems: objects with carriers of up to three elements
    (empty ones included), slots between objects of equal carrier size,
    each domain in a drawn order, pinned endo-slots, and constraints and
    equality pairs among typed slots, with repeated slots and self-pairs."""
    carriers = draw(st.lists(st.sampled_from(CARRIERS), min_size=1, max_size=3))
    objects = range(len(carriers))
    ends = draw(
        st.lists(
            st.sampled_from(
                [(i, j) for i in objects for j in objects if len(carriers[i]) == len(carriers[j])]
            ),
            min_size=1,
            max_size=5,
        )
    )
    slots = range(len(ends))
    pinned = draw(st.sets(st.sampled_from([k for k in slots if ends[k][0] == ends[k][1]] or [None])))
    domains = []
    for k, (i, j) in enumerate(ends):
        if k in pinned:
            domains.append([{x: x for x in carriers[i]}])
        else:
            domain = [dict(zip(carriers[i], perm)) for perm in itertools.permutations(carriers[j])]
            domains.append(draw(st.permutations(domain)))
    triples = [
        (a, b, c)
        for a in slots
        for b in slots
        for c in slots
        if ends[a][1] == ends[b][0] and ends[c] == (ends[a][0], ends[b][1])
    ]
    pairs = [(a, b) for a in slots for b in slots if ends[a] == ends[b]]
    comps = draw(st.lists(st.sampled_from(triples), max_size=4)) if triples else []
    eqs = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return domains, comps, eqs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slot_systems())
def test_forced_slots_match_the_oracle_on_random_systems(system):
    assert_matches_oracle(*system)


def test_each_kind_of_forced_slot():
    """One endo-slot system per forcing rule, with three-element carriers:
    a slot closing an equality pair, and a slot in each place of a
    composition constraint; repeated slots are not forced."""
    carrier = (0, 1, 2)
    perms = [dict(zip(carrier, p)) for p in itertools.permutations(carrier)]
    identity = [{x: x for x in carrier}]
    cases = [
        ([perms, perms], [], [(0, 1)], 6),
        ([perms, perms, perms], [(0, 1, 2)], [], 36),
        ([perms, perms, perms], [(2, 0, 1)], [], 36),
        ([perms, perms, perms], [(0, 2, 1)], [], 36),
        ([perms, perms, identity], [(0, 1, 2)], [], 6),
        ([perms, perms], [(0, 0, 1), (1, 1, 1)], [], 4),
        ([perms, perms], [(1, 1, 0)], [(1, 1)], 6),
    ]
    for domains, comps, eqs, count in cases:
        assert len(assert_matches_oracle(domains, comps, eqs)) == count
