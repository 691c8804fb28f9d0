"""Shared fixtures: small posets, covers, simplicial sets, descent data."""

import itertools

import pytest
from hypothesis import reject, strategies as st

import toposdescent as td


def point():
    return td.FinPoset.point()


def chain2():
    return td.FinPoset.from_pairs(("a", "b"), [("a", "b")])


def vee():
    return td.FinPoset.from_pairs(("a", "b", "c"), [("a", "c"), ("b", "c")])


def diamond():
    return td.FinPoset.from_pairs(
        ("a", "b", "c", "d"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def named_representable(poset, a, tag):
    """Representable with elements labelled distinctly per component."""
    rep = td.representable(poset, a)
    fibers = {p: tuple(f"{tag}{e}" for e in rep.fibers[p]) for p in poset.points}
    rest = {
        pq: {f"{tag}{e}": f"{tag}{v}" for e, v in m.items()}
        for pq, m in rep.restrictions.items()
    }
    return td.Presheaf(poset, fibers, rest)


@pytest.fixture
def pt():
    return point()


@pytest.fixture
def fixture_cover(pt):
    """The running example: two components of sizes 1 and 2 over a point."""
    return td.family_from_parts(
        pt,
        {
            "1": td.constant_presheaf(("a",), pt),
            "2": td.constant_presheaf(("b", "c"), pt),
        },
    )


@pytest.fixture
def two_singleton_cover(pt):
    return td.family_from_parts(
        pt,
        {
            "1": td.constant_presheaf(("a",), pt),
            "2": td.constant_presheaf(("b",), pt),
        },
    )


@pytest.fixture
def singleton_cover(pt):
    return td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)})


@pytest.fixture
def chain_cover():
    """Cover of the two-point chain by the terminal representable."""
    poset = chain2()
    return td.family_from_parts(poset, {"1": named_representable(poset, "b", "u")})


def generated_covers():
    """A deterministic suite of (name, cover) pairs on bases of up to four
    points, with up to three components and fibers of size up to three."""
    out = []
    pt = point()
    out.append(
        (
            "point-1x1",
            td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)}),
        )
    )
    out.append(
        (
            "point-1x2",
            td.family_from_parts(
                pt,
                {
                    "1": td.constant_presheaf(("a",), pt),
                    "2": td.constant_presheaf(("b", "c"), pt),
                },
            ),
        )
    )
    out.append(
        (
            "point-3x1",
            td.family_from_parts(
                pt,
                {
                    "1": td.constant_presheaf(("a",), pt),
                    "2": td.constant_presheaf(("b",), pt),
                    "3": td.constant_presheaf(("c",), pt),
                },
            ),
        )
    )
    out.append(
        (
            "point-2x3",
            td.family_from_parts(
                pt,
                {
                    "1": td.constant_presheaf(("a", "b", "c"), pt),
                    "2": td.constant_presheaf(("d", "e"), pt),
                },
            ),
        )
    )
    c2 = chain2()
    out.append(
        ("chain-rep", td.family_from_parts(c2, {"1": named_representable(c2, "b", "u")}))
    )
    out.append(
        (
            "chain-two-reps",
            td.family_from_parts(
                c2,
                {
                    "1": named_representable(c2, "b", "u"),
                    "2": named_representable(c2, "b", "v"),
                },
            ),
        )
    )
    out.append(
        (
            "chain-rep-and-lower",
            td.family_from_parts(
                c2,
                {
                    "1": named_representable(c2, "b", "u"),
                    "2": named_representable(c2, "a", "v"),
                },
            ),
        )
    )
    out.append(
        (
            "chain-constants",
            td.family_from_parts(
                c2,
                {
                    "1": td.constant_presheaf(("x", "y"), c2),
                    "2": td.constant_presheaf(("z",), c2),
                },
            ),
        )
    )
    v = vee()
    out.append(
        (
            "vee-two-reps",
            td.family_from_parts(
                v,
                {
                    "1": named_representable(v, "c", "u"),
                    "2": named_representable(v, "c", "v"),
                },
            ),
        )
    )
    out.append(
        (
            "vee-branches",
            td.family_from_parts(
                v,
                {
                    "1": named_representable(v, "c", "u"),
                    "2": named_representable(v, "a", "v"),
                    "3": named_representable(v, "b", "w"),
                },
            ),
        )
    )
    d = diamond()
    out.append(
        ("diamond-rep", td.family_from_parts(d, {"1": named_representable(d, "d", "u")}))
    )
    out.append(
        (
            "diamond-mixed",
            td.family_from_parts(
                d,
                {
                    "1": named_representable(d, "d", "u"),
                    "2": td.constant_presheaf(("k", "m"), d),
                },
            ),
        )
    )
    return out


@st.composite
def small_covers(draw):
    """Covers of at most 4 elements over posets of at most 4 points built
    with ``FinPoset.from_pairs``, with up to three components whose fibers
    hold at most 2 elements, every point covered.

    Points are placed bottom-up; each element at a point restricts to a
    drawn compatible family of elements below it, so the restrictions are
    natural by construction."""
    names = "abcd"[: draw(st.integers(1, 4))]
    below = [(p, q) for n, p in enumerate(names) for q in names[n + 1 :]]
    poset = td.FinPoset.from_pairs(names, draw(st.lists(st.sampled_from(below), unique=True)) if below else ())
    tags = "uvw"[: draw(st.integers(1, 3))]
    budget, covered, parts = 4, set(), {}
    for tag in tags:
        fibers, rest = {}, {}
        for r in names:
            lower = [p for p in names if p != r and poset.leq(p, r)]
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
            least = 1 if tag == tags[-1] and r not in covered else 0
            most = min(2, budget) if families else 0
            if least > most:
                reject()
            fibers[r] = tuple(f"{tag}{r}{k}" for k in range(draw(st.integers(least, most))))
            budget -= len(fibers[r])
            if fibers[r]:
                covered.add(r)
            for p in lower:
                rest[(p, r)] = {}
            for e in fibers[r]:
                for p, x in draw(st.sampled_from(families)).items():
                    rest[(p, r)][e] = x
        if any(fibers.values()):
            parts[tag] = td.Presheaf(poset, fibers, rest)
    return td.family_from_parts(poset, parts)


@pytest.fixture(scope="session")
def generated_refinements():
    """(name, cover, connected refinement) for every generated cover, built
    once per session."""
    return [(name, cover, td.connected_refinement(cover)) for name, cover in generated_covers()]


def inverse_and_endo_pairs(sset, tau):
    """Word pairs on an index, as (label, w1, w2): each 1-simplex followed
    by its dual against the identity at its source (equal under the filling
    condition), and each endo-1-simplex against the empty word."""
    inverse, endo = [], []
    for l in sset.s1:
        i, j = sset.endpoints(l)
        inverse.append((l, td.Word(i, ((l, 1), (tau.op1(l), 1))), td.Word(i, ((sset.deg(0, 0, i), 1),))))
        if i == j:
            endo.append((l, td.Word(i, ((l, 1),)), td.Word(i, ())))
    return inverse, endo


@pytest.fixture
def cover_suite():
    return generated_covers()


def full_nerve_cover():
    pt = point()
    return td.family_from_parts(
        pt,
        {
            "1": td.constant_presheaf(("a",), pt),
            "2": td.constant_presheaf(("b",), pt),
        },
    )


@pytest.fixture
def full_nerve():
    """Nerve on two indices where every tuple appears."""
    return td.cech_nerve(full_nerve_cover())


def free_endo_sset():
    """Minimal truncated simplicial set with one non-degenerate endo-edge;
    its fundamental groupoid is free on that edge."""
    ix, e = "ix", "e"
    w_ix, w_e0, w_e1 = "w_ix", "w_e0", "w_e1"
    face = {
        (1, 0): {e: "x", ix: "x"},
        (1, 1): {e: "x", ix: "x"},
        (2, 0): {w_ix: ix, w_e0: e, w_e1: ix},
        (2, 1): {w_ix: ix, w_e0: e, w_e1: e},
        (2, 2): {w_ix: ix, w_e0: ix, w_e1: e},
    }
    degen = {
        (0, 0): {"x": ix},
        (1, 0): {e: w_e0, ix: w_ix},
        (1, 1): {e: w_e1, ix: w_ix},
    }
    return td.TruncSSet(("x",), (e, ix), (w_ix, w_e0, w_e1), face, degen)


def free_dual_edge_sset():
    """Two objects, a non-degenerate edge and its reverse, only degenerate
    triangles; self-dual but without the groupoid filling condition."""
    i1, i2, e, f = "i1", "i2", "e", "f"
    w1, w2 = "w1", "w2"
    se0, se1, sf0, sf1 = "se0", "se1", "sf0", "sf1"
    face = {
        (1, 0): {e: "2", f: "1", i1: "1", i2: "2"},
        (1, 1): {e: "1", f: "2", i1: "1", i2: "2"},
        (2, 0): {w1: i1, w2: i2, se0: e, se1: i2, sf0: f, sf1: i1},
        (2, 1): {w1: i1, w2: i2, se0: e, se1: e, sf0: f, sf1: f},
        (2, 2): {w1: i1, w2: i2, se0: i1, se1: e, sf0: i2, sf1: f},
    }
    degen = {
        (0, 0): {"1": i1, "2": i2},
        (1, 0): {e: se0, f: sf0, i1: w1, i2: w2},
        (1, 1): {e: se1, f: sf1, i1: w1, i2: w2},
    }
    sset = td.TruncSSet(("1", "2"), (e, f, i1, i2), (w1, w2, se0, se1, sf0, sf1), face, degen)
    tau = td.StrictDuality(
        tau1={e: f, f: e, i1: i1, i2: i2},
        tau2={w1: w1, w2: w2, se0: sf1, sf1: se0, se1: sf0, sf0: se1},
    )
    return sset, tau


def parallel_spans_family():
    """A self-dual family with two parallel endo-spans linked by a span
    morphism but no triangle tying them: valid index data need not be
    consistent here (unlike on span refinements, where the closure of the
    2-simplices forces consistency)."""
    pt = point()
    s0, l, t, i1 = ("1",), "l", "t", "i1"
    wi, l0, l1, t0, t1 = "wi", "l0", "l1", "t0", "t1"
    face = {
        (1, 0): {l: "1", t: "1", i1: "1"},
        (1, 1): {l: "1", t: "1", i1: "1"},
        (2, 0): {wi: i1, l0: l, l1: i1, t0: t, t1: i1},
        (2, 1): {wi: i1, l0: l, l1: l, t0: t, t1: t},
        (2, 2): {wi: i1, l0: i1, l1: l, t0: i1, t1: t},
    }
    degen = {
        (0, 0): {"1": i1},
        (1, 0): {l: l0, t: t0, i1: wi},
        (1, 1): {l: l1, t: t1, i1: wi},
    }
    sset = td.TruncSSet(s0, (l, t, i1), (wi, l0, l1, t0, t1), face, degen)
    h0 = td.constant_presheaf(("a",), pt)
    h1 = td.constant_presheaf(((i1, "a"), (l, "e"), (t, "f")), pt)
    h2 = td.constant_presheaf(
        ((wi, "a"), (l0, "e"), (l1, "e"), (t0, "f"), (t1, "f")), pt
    )

    def pmap(dom, cod, m):
        return td.PresheafMap(dom, cod, {"pt": m})

    hface = {
        (1, 0): pmap(h1, h0, {e: "a" for e in h1.fibers["pt"]}),
        (1, 1): pmap(h1, h0, {e: "a" for e in h1.fibers["pt"]}),
        (2, 0): pmap(h2, h1, {(wi, "a"): (i1, "a"), (l0, "e"): (l, "e"), (l1, "e"): (i1, "a"), (t0, "f"): (t, "f"), (t1, "f"): (i1, "a")}),
        (2, 1): pmap(h2, h1, {(wi, "a"): (i1, "a"), (l0, "e"): (l, "e"), (l1, "e"): (l, "e"), (t0, "f"): (t, "f"), (t1, "f"): (t, "f")}),
        (2, 2): pmap(h2, h1, {(wi, "a"): (i1, "a"), (l0, "e"): (i1, "a"), (l1, "e"): (l, "e"), (t0, "f"): (i1, "a"), (t1, "f"): (t, "f")}),
    }
    hdegen = {
        (0, 0): pmap(h0, h1, {"a": (i1, "a")}),
        (1, 0): pmap(h1, h2, {(i1, "a"): (wi, "a"), (l, "e"): (l0, "e"), (t, "f"): (t0, "f")}),
        (1, 1): pmap(h1, h2, {(i1, "a"): (wi, "a"), (l, "e"): (l1, "e"), (t, "f"): (t1, "f")}),
    }
    zeta = (
        pmap(h0, td.constant_presheaf(s0, pt), {"a": "1"}),
        pmap(h1, td.constant_presheaf(sset.s1, pt), {e: e[0] for e in h1.fibers["pt"]}),
        pmap(h2, td.constant_presheaf(sset.s2, pt), {e: e[0] for e in h2.fibers["pt"]}),
    )
    fam = td.SimplicialFamily(h0, h1, h2, hface, hdegen, sset, zeta)
    tau_s = td.StrictDuality(
        tau1={l: l, t: t, i1: i1},
        tau2={wi: wi, l0: l1, l1: l0, t0: t1, t1: t0},
    )
    tau1 = td.PresheafMap.identity(h1)
    tau2 = pmap(
        h2,
        h2,
        {(wi, "a"): (wi, "a"), (l0, "e"): (l1, "e"), (l1, "e"): (l0, "e"), (t0, "f"): (t1, "f"), (t1, "f"): (t0, "f")},
    )
    return td.SelfDualFamily(fam, tau_s, tau1, tau2)


def swap_datum(cover):
    """The constant-swap cover descent datum on the running example."""
    for u in td.enumerate_u_descent_data(cover, 2):
        if (
            u.carrier == {"1": (0, 1), "2": (0, 1)}
            and u.value("1", "2", "pt", "a", "b") == {0: 1, 1: 0}
            and u.value("1", "2", "pt", "a", "c") == {0: 1, 1: 0}
        ):
            return u
    raise AssertionError("swap datum not found")
