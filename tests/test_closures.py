"""The three closures behind the base site, gluing and the refinement
diagram: the transitive closure of ``FinPoset.from_pairs``, the quotient of
``quotient_by_pairs`` closed under restriction, and the cycle check of
``HypercoverIndex``.

Each is checked against the fixpoint loop it replaced, kept here as the
oracle, on generated inputs: the same relation, the same quotient and
projection, the same cycle verdict, and the same error on bad input.  The
one change on purpose is the antisymmetry error, which now names the least
faulty pair in label order under every hash seed.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from conftest import chain2, diamond, vee

PACKAGE = Path(td.__file__).resolve().parent
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def oracle_closure(points, pairs):
    """The relation the old ``from_pairs`` built: every pair of pairs is
    scanned until a pass adds nothing.  Raises as it did, except that the
    antisymmetric pair it names came from a set."""
    pointset = set(points)
    rel = {(p, p) for p in points}
    for p, q in pairs:
        if p not in pointset or q not in pointset:
            raise ValueError(f"leq pair ({p!r}, {q!r}) mentions unknown point")
        rel.add((p, q))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), tuple(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def oracle_quotient(x, pairs):
    """The old ``quotient_by_pairs``: every class is regrouped by point and
    its restrictions joined until a pass merges nothing."""
    find, union = td.fintopos.union_find(x.elements())
    for p, a, b in pairs:
        if a not in x.fiber_set(p) or b not in x.fiber_set(p):
            raise ValueError(f"pair references unknown elements at {p!r}")
        union((p, a), (p, b))
    strict = x.base.strict_pairs()
    changed = True
    while changed:
        changed = False
        groups = {}
        for el in x.elements():
            groups.setdefault(find(el), []).append(el)
        for members in groups.values():
            byp = {}
            for p, e in members:
                byp.setdefault(p, []).append(e)
            for q, es in byp.items():
                rep = es[0]
                for e in es[1:]:
                    for p, qq in strict:
                        if qq == q:
                            if union((p, x.restrict(p, q, rep)), (p, x.restrict(p, q, e))):
                                changed = True
    rep_of = {el: find(el) for el in x.elements()}
    fibers = {
        p: td.fintopos.sorted_labels({rep_of[(p, e)][1] for e in x.fibers[p]})
        for p in x.base.points
    }
    rest = {}
    for p, q in strict:
        rest[(p, q)] = {rep_of[(q, e)][1]: rep_of[(p, x.restrict(p, q, e))][1] for e in x.fibers[q]}
    quot = td.Presheaf(x.base, fibers, rest)
    proj = td.PresheafMap(
        x, quot, {p: {e: rep_of[(p, e)][1] for e in x.fibers[p]} for p in x.base.points}
    )
    return quot, proj


def oracle_has_cycle(nodes, edges):
    """The old check: a recursive visit that rescans every edge per node."""
    order = {}

    def visit(n, stack):
        if n in stack:
            return True
        if n in order:
            return False
        found = any(visit(b, stack | {n}) for a, b in edges if a == n)
        order[n] = True
        return found

    return any(visit(n, frozenset()) for n in nodes)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return (type(exc), str(exc))


# -- FinPoset.from_pairs ------------------------------------------------------

POINTS = ("a", "b", "c", "d", 1, (0, "e"))


@st.composite
def points_and_pairs(draw):
    """Some of ``POINTS`` in a drawn order and up to 8 pairs of them; in
    half the cases each pair is turned to agree with a drawn total order,
    so the relation is antisymmetric and its chains are long.  Now and then
    one pair names the unknown point ``'z'``."""
    points = draw(st.permutations(POINTS))[: draw(st.integers(1, len(POINTS)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=8))
    if draw(st.booleans()):
        rank = {p: k for k, p in enumerate(draw(st.permutations(points)))}
        pairs = [(p, q) if rank[p] <= rank[q] else (q, p) for p, q in pairs]
    if pairs and draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(pairs) - 1))
        pairs[k] = draw(st.sampled_from([("z", pairs[k][1]), (pairs[k][0], "z")]))
    return points, pairs


@SETTINGS
@given(points_and_pairs())
def test_poset_relation_matches_the_fixpoint_loop(case):
    points, pairs = case
    old = outcome(oracle_closure, points, pairs)
    new = outcome(td.FinPoset.from_pairs, points, pairs)
    if old[0] != "ok":
        assert new == old  # an unknown point, named as before
        return
    rel = old[1]
    ordered = td.fintopos.sorted_labels(points)
    faults = [(p, q) for i, p in enumerate(ordered) for q in ordered[i + 1:] if (q, p) in rel and (p, q) in rel]
    if faults:
        p, q = faults[0]
        assert new == (ValueError, f"relation is not antisymmetric: {p!r} ~ {q!r}")
    else:
        assert new[0] == "ok" and new[1].relation == frozenset(rel)
        assert new[1].points == ordered


def test_a_repeated_point_is_not_named_as_an_antisymmetry_fault():
    poset = td.FinPoset.from_pairs(["b", "a", "b"], [("a", "b")])
    assert poset.relation == frozenset({("a", "a"), ("b", "b"), ("a", "b")})


def test_antisymmetry_error_names_the_least_pair_under_every_hash_seed(tmp_path):
    cover = tmp_path / "cycle.json"
    poset = {"points": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"], ["c", "a"]]}
    cover.write_text(json.dumps({"poset": poset, "total": {}, "index": [], "zeta": {}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    errors = set()
    for seed in range(4):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(
            [sys.executable, "-m", "toposdescent.cli", "nerve", str(cover)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        errors.add(proc.stderr)
    assert errors == {f"error: {cover}: bad poset: relation is not antisymmetric: 'a' ~ 'b'\n"}


# -- quotient_by_pairs --------------------------------------------------------


@st.composite
def presheaf_with_pairs(draw):
    """A presheaf of fibers of at most 3 elements over the chain, vee or
    diamond, natural by construction (each element restricts to a drawn
    compatible family below it), and up to 5 pairs of elements at a point;
    now and then a pair names an element outside its fiber."""
    poset = draw(st.sampled_from((chain2(), vee(), diamond())))
    fibers, rest = {}, {}
    for r in reversed(poset.top_down()):
        lower = [p for p in poset.points if p != r and poset.leq(p, r)]
        families = [
            dict(zip(lower, xs))
            for xs in itertools.product(*(fibers[p] for p in lower))
            if all(
                rest[(p, q)][xs[lower.index(q)]] == xs[lower.index(p)]
                for p in lower
                for q in lower
                if p != q and poset.leq(p, q)
            )
        ]
        fibers[r] = tuple(f"{r}{k}" for k in range(draw(st.integers(0, 3 if families else 0))))
        for p in lower:
            rest[(p, r)] = {}
        for e in fibers[r]:
            for p, v in draw(st.sampled_from(families)).items():
                rest[(p, r)][e] = v
    x = td.Presheaf(poset, fibers, rest)
    inhabited = [p for p in poset.points if fibers[p]]
    pairs = []
    for _ in range(draw(st.integers(0, 5 if inhabited else 0))):
        p = draw(st.sampled_from(inhabited))
        a, b = draw(st.sampled_from(fibers[p])), draw(st.sampled_from(fibers[p]))
        if draw(st.integers(0, 19)) == 0:
            b = "stray"
        pairs.append((p, a, b))
    return x, pairs


@SETTINGS
@given(presheaf_with_pairs())
def test_quotient_matches_the_fixpoint_loop(case):
    x, pairs = case
    old = outcome(oracle_quotient, x, pairs)
    new = outcome(td.quotient_by_pairs, x, pairs)
    if old[0] != "ok":
        assert new == old
        return
    (quot, proj), (oquot, oproj) = new[1], old[1]
    assert quot == oquot and quot.key() == oquot.key()
    assert proj.comp == oproj.comp
    assert [list(proj.comp[p]) for p in proj.comp] == [list(oproj.comp[p]) for p in oproj.comp]


def test_quotient_saturates_every_point_below():
    # identifying the two elements at the top identifies their restrictions
    # at each of the three points below it
    d = diamond()
    x = td.Presheaf(
        d,
        {"a": ("a0", "a1"), "b": ("b0", "b1"), "c": ("c0", "c1"), "d": ("d0", "d1")},
        {
            ("a", "b"): {"b0": "a0", "b1": "a1"},
            ("a", "c"): {"c0": "a0", "c1": "a1"},
            ("a", "d"): {"d0": "a0", "d1": "a1"},
            ("b", "d"): {"d0": "b0", "d1": "b1"},
            ("c", "d"): {"d0": "c0", "d1": "c1"},
        },
    )
    quot, proj = td.quotient_by_pairs(x, [("d", "d1", "d0")])
    assert quot.fibers == {"a": ("a0",), "b": ("b0",), "c": ("c0",), "d": ("d0",)}
    assert proj.comp["a"] == {"a0": "a0", "a1": "a0"}


# -- HypercoverIndex ----------------------------------------------------------


def index(nodes, edges):
    return td.HypercoverIndex({}, {n: None for n in nodes}, {e: None for e in edges})


@pytest.mark.parametrize(
    "edges",
    [
        [("A", "B"), ("B", "A")],
        [("A", "A")],
        [("A", "B"), ("B", "C"), ("C", "A")],
    ],
    ids=["2-cycle", "self-loop", "3-cycle"],
)
def test_cyclic_refinement_diagram_is_rejected(edges):
    with pytest.raises(ValueError, match="^refinement diagram has a cycle$"):
        index("ABC", edges)


def test_acyclic_diamond_is_accepted():
    pi = index("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    assert set(pi.refinements) == {("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")}


def test_unknown_node_is_reported_before_a_cycle():
    with pytest.raises(ValueError, match=r"^refinement \('A', 'Z'\) mentions unknown node$"):
        index("AB", [("A", "B"), ("B", "A"), ("A", "Z")])


NODES = (0, 1, 2, 3, "x")


@SETTINGS
@given(
    st.integers(1, len(NODES)),
    st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=8, unique=True),
)
def test_cycle_verdict_matches_the_recursive_visit(n, edges):
    nodes = NODES[:n]
    if any(a not in nodes or b not in nodes for a, b in edges):
        a, b = next((a, b) for a, b in edges if a not in nodes or b not in nodes)
        expected = (ValueError, f"refinement ({a!r}, {b!r}) mentions unknown node")
    elif oracle_has_cycle(nodes, edges):
        expected = (ValueError, "refinement diagram has a cycle")
    else:
        expected = None
    got = outcome(index, nodes, edges)
    assert (None if got[0] == "ok" else got) == expected
