"""The trusted constructors against the validating ones.

``Presheaf._trusted``, ``PresheafMap._trusted`` and ``TruncSSet._trusted``
neither sort nor check; the library uses them only where its output is
correct by construction (components, component maps, the coproducts of a
refinement, products, triangle limits, composites, the constant presheaves
of simplex levels, the level maps and the index of a refinement).  Each
test rebuilds such outputs through the public ``Presheaf(...)``,
``PresheafMap(...)`` and ``TruncSSet(...)``, which must accept them and
give the same fibers or levels in the same order, the same maps and the
same key.  The positional view of every index is checked against
``level.index``.  The public entry points must still reject bad input.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.cli import main
from toposdescent.fintopos import _constant, sorted_labels
from toposdescent.hypercover import _triangle_limit
from toposdescent.serialize import (
    SerializationError,
    presheaf_from_json,
    selfdual_family_to_json,
)
from conftest import chain2, generated_covers, point
from test_label_memo import label_pool, scrambled_presheaf


def assert_presheaf_rebuilds(x):
    y = td.Presheaf(x.base, dict(x.fibers), {pq: dict(m) for pq, m in x.restrictions.items()})
    assert list(y.fibers.items()) == list(x.fibers.items())
    assert all(type(f) is tuple for f in x.fibers.values())
    assert list(y.restrictions) == list(x.restrictions)
    assert y.restrictions == x.restrictions
    assert y.key() == x.key()


def assert_map_rebuilds(m):
    n = td.PresheafMap(m.dom, m.cod, {p: dict(c) for p, c in m.comp.items()})
    assert list(n.comp) == list(m.comp)
    assert n.comp == m.comp
    assert n.key() == m.key()


def assert_positions_match(s):
    """The positional view of ``s`` against ``level.index`` and the label
    maps.  ``level.index`` is quadratic, so on a level of more than 200
    simplices it is asked about every k-th one, for about 200 of them."""
    levels = (s.s0, s.s1, s.s2)
    ix = s._positions_view()
    for n, level in enumerate(levels):
        assert len(ix.pos[n]) == len(level)
        assert [ix.pos[n][x] for x in level] == list(range(len(level)))
        for x in level[:: max(1, len(level) // 200)]:
            assert ix.pos[n][x] == level.index(x)
    for (n, i), m in s.face.items():
        assert [levels[n - 1][k] for k in ix.face[(n, i)]] == [m[x] for x in levels[n]]
    for (n, i), m in s.degen.items():
        assert [levels[n + 1][k] for k in ix.degen[(n, i)]] == [m[x] for x in levels[n]]


def assert_sset_rebuilds(s):
    """``s`` against its rebuild through the public ``TruncSSet(...)``:
    the same levels in the same order, each in ``label_key`` order, the
    same face and degeneracy maps and the same positional view."""
    t = td.TruncSSet(
        s.s0,
        s.s1,
        s.s2,
        {k: dict(m) for k, m in s.face.items()},
        {k: dict(m) for k, m in s.degen.items()},
    )
    for n in (0, 1, 2):
        assert type(s.level(n)) is tuple
        assert t.level(n) == s.level(n)
        assert sorted_labels(s.level(n)) == s.level(n)
    assert t.face == s.face
    assert t.degen == s.degen
    assert_positions_match(s)
    assert t._positions_view() == s._positions_view()


def check_family(sf):
    """Every level, level map, component and component map of a self-dual
    family, and its coskeleton limits."""
    f = sf.base
    for n in (0, 1, 2):
        assert_presheaf_rebuilds(f.level(n))
        assert_map_rebuilds(f.zeta[n])
        assert_presheaf_rebuilds(f.zeta[n].cod)
        for w in f.sset.level(n):
            assert_presheaf_rebuilds(f.component(n, w))
    for m in (*f.face.values(), *f.degen.values(), sf.tau1, sf.tau2):
        assert_map_rebuilds(m)
    for (n, i) in f.face:
        for w in f.sset.level(n):
            assert_map_rebuilds(f.component_face(n, i, w))
    for (n, i) in f.degen:
        for w in f.sset.level(n):
            assert_map_rebuilds(f.component_degen(n, i, w))
    for n in (1, 2):
        for w in f.sset.level(n):
            assert_map_rebuilds(sf.component_tau(n, w))
    assert_map_rebuilds(f.face[(1, 0)].after(f.degen[(0, 0)]))
    assert_map_rebuilds(f.face[(2, 1)].after(f.degen[(1, 1)]))
    data = td.cosk_data(f)
    for lim in (*data.pair_limit.values(), *data.triple_limit.values()):
        assert_presheaf_rebuilds(lim)


def check_cover(cover):
    for comp in td.family_components(cover).values():
        assert_presheaf_rebuilds(comp)
        for part in td.connected_components(comp):
            assert_presheaf_rebuilds(part)
    for part in td.connected_components(cover.total):
        assert_presheaf_rebuilds(part)


@pytest.mark.parametrize("name,cover", generated_covers(), ids=[n for n, _ in generated_covers()])
def test_trusted_outputs_of_generated_covers(name, cover, generated_refinements):
    check_cover(cover)
    ref = dict((n, r) for n, _, r in generated_refinements)[name]
    check_family(ref)
    cech = td.cech_simplicial_family(cover)
    check_family(cech)
    u = cover.total
    for factors in ([u], [u, u], [u, u, u]):
        prod, projs = td.product_list(factors)
        assert_presheaf_rebuilds(prod)
        for m in projs:
            assert_map_rebuilds(m)


@pytest.mark.parametrize("name", ["point-3x1", "chain-two-reps"])
def test_trusted_outputs_of_zero_span_refinements(name):
    cover = dict(generated_covers())[name]
    comps = td.family_components(cover)
    ref = td.zero_span_refinement(cover, td.SpanClass(tuple(comps[i] for i in sorted(comps))))
    check_family(ref)


def test_trusted_index_of_generated_refinements(generated_refinements):
    for _, cover, ref in generated_refinements:
        assert_sset_rebuilds(ref.base.sset)
        # the same class listed backwards: other class indices, same order
        members = td.SpanClassSp(tuple(reversed(list(_connected_class(cover)))))
        assert_sset_rebuilds(td.one_span_refinement(cover, members).base.sset)


def _connected_class(cover):
    comps = td.family_components(cover)
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in comps.items()
    ]
    return ident + td.representable_spans(cover)


@pytest.mark.parametrize("name", ["point-3x1", "chain-two-reps", "point-1x2"])
def test_trusted_index_of_zero_span_refinements(name):
    cover = dict(generated_covers())[name]
    comps = td.family_components(cover)
    ref = td.zero_span_refinement(cover, td.SpanClass(tuple(comps[i] for i in sorted(comps))))
    assert_sset_rebuilds(ref.base.sset)


def test_positions_of_cech_nerves():
    for _, cover in generated_covers():
        nerve, _ = td.cech_nerve(cover)
        assert_sset_rebuilds(nerve)
        assert_positions_match(td.cech_simplicial_family(cover).base.sset)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scrambled_presheaf(), label_pool(), st.data())
def test_trusted_outputs_of_random_presheaves(x, labels, data):
    for part in td.connected_components(x):
        assert_presheaf_rebuilds(part)
    prod, projs = td.product_list([x, x])
    assert_presheaf_rebuilds(prod)
    for m in projs:
        assert_map_rebuilds(m)
    # tags in a drawn order, possibly repeated (then the elements of the
    # summands must differ for the coproduct to exist)
    tags = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4))
    summands = [x] * len(tags)
    if len(set(tags)) == len(tags):
        assert_presheaf_rebuilds(td.coproduct(summands, tags))
    elif x.size():
        with pytest.raises(ValueError):
            td.coproduct(summands, tags)
    assert_presheaf_rebuilds(td.constant_presheaf(set(labels), x.base))
    span = td.ClassSpan("i", "j", prod, projs[0], projs[1])
    assert_presheaf_rebuilds(_triangle_limit(x.base, span, span, span))
    assert_map_rebuilds(projs[0].after(td.PresheafMap.identity(prod)))


def test_coproduct_with_repeated_tags_matches_validated_form():
    pt = point()
    x = td.constant_presheaf(("b", "a"), pt)
    y = td.constant_presheaf(("c",), pt)
    co = td.coproduct([y, x], ["t", "t"])
    assert co.fibers["pt"] == (("t", "a"), ("t", "b"), ("t", "c"))
    assert_presheaf_rebuilds(co)
    mixed = td.coproduct([y, x], [("t",), 1])
    assert mixed.fibers["pt"] == ((1, "a"), (1, "b"), (("t",), "c"))


def chain3():
    return td.FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])


def test_public_constructors_reject_repeats_in_any_order():
    pt = point()
    for fiber in (("b", "a", "b"), ("a", "b", "a"), (("t", 1), "x", ("t", 1))):
        with pytest.raises(ValueError, match="lists an element twice"):
            td.Presheaf(pt, {"pt": fiber}, {})
        with pytest.raises(ValueError, match="lists an element twice"):
            td.constant_presheaf(fiber, pt)
        with pytest.raises(ValueError, match="lists an element twice"):
            td.constant_presheaf(fiber, chain2())
        with pytest.raises(SerializationError):
            presheaf_from_json({"fibers": {"pt": list(fiber)}, "restrictions": {}}, pt)
    # over a poset with no points there are no fibers to repeat in
    empty = td.FinPoset.from_pairs(())
    assert td.constant_presheaf(("a", "a"), empty).fibers == {}


def test_public_constructors_reject_non_natural_input():
    c3 = chain3()
    fibers = {"a": ("x", "y"), "b": ("x", "y"), "c": ("x",)}
    good = {("a", "b"): {"x": "x", "y": "y"}, ("b", "c"): {"x": "y"}, ("a", "c"): {"x": "y"}}
    x = td.Presheaf(c3, fibers, good)

    def doc(rest):
        return {
            "fibers": {p: list(f) for p, f in fibers.items()},
            "restrictions": {f"{q}>{p}": m for (p, q), m in rest.items()},
        }

    assert presheaf_from_json(doc(good), c3) == x
    for bad in (
        {**good, ("a", "c"): {"x": "x"}},  # restrictions do not compose
        {**good, ("b", "c"): {"x": "z"}},  # outside the fiber
        {**good, ("a", "b"): {"x": "x"}},  # not total
        {k: v for k, v in good.items() if k != ("a", "c")},  # missing
    ):
        with pytest.raises(ValueError):
            td.Presheaf(c3, fibers, bad)
        with pytest.raises(SerializationError):
            presheaf_from_json(doc(bad), c3)
    swap = {"a": {"x": "y", "y": "x"}, "b": {"x": "x", "y": "y"}, "c": {"x": "x"}}
    with pytest.raises(ValueError, match="naturality"):
        td.PresheafMap(x, x, swap)
    with pytest.raises(ValueError):
        td.PresheafMap(x, x, {**swap, "a": {"x": "z", "y": "y"}})


def misplaced_face(cover):
    """The Čech family of ``cover`` with its face d0 sending one element of
    H1 into H0 over the wrong vertex. Over a point every map is natural, so
    each map and the family itself still construct."""
    sf = td.cech_simplicial_family(cover)
    f = sf.base
    d0, z0 = f.face[(1, 0)], f.zeta[0]
    (p,) = f.h0.base.points
    e = f.h1.fibers[p][0]
    right = z0.apply(p, d0.apply(p, e))
    wrong = next(x for x in f.h0.fibers[p] if z0.apply(p, x) != right)
    comp = {p: {**d0.comp[p], e: wrong}}
    face = {**f.face, (1, 0): td.PresheafMap(f.h1, f.h0, comp)}
    base = td.SimplicialFamily(f.h0, f.h1, f.h2, face, f.degen, f.sset, f.zeta)
    return td.SelfDualFamily(base, sf.tau_s, sf.tau1, sf.tau2), f.zeta[1].apply(p, e)


def test_component_maps_reject_a_face_off_the_index(fixture_cover, tmp_path, capsys):
    broken, l = misplaced_face(fixture_cover)
    assert "zeta does not commute with face d_0 on level 1" in " ".join(
        td.validate_selfdual(broken)
    )
    with pytest.raises(ValueError, match="outside the codomain"):
        td.span_of_1simplex(broken.base, l)
    with pytest.raises(ValueError, match="outside the codomain"):
        td.cosk_data(broken.base)
    with pytest.raises(ValueError, match="outside the codomain"):
        td.is_hypercover(broken.base, fixture_cover)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(selfdual_family_to_json(td.cech_simplicial_family(fixture_cover))))
    assert main(["groupoid", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(selfdual_family_to_json(broken)))
    for flags in (["--g"], []):
        assert main(["groupoid", str(bad), *flags]) == 2
        err = capsys.readouterr().err
        assert "not a self-dual simplicial family" in err


def test_constant_of_a_level_equals_public_constant():
    for _, cover in generated_covers():
        nerve, _ = td.cech_nerve(cover)
        for n in (0, 1, 2):
            level = nerve.level(n)
            assert _constant(level, cover.total.base) == td.constant_presheaf(level, cover.total.base)


def old_emptiness(f):
    """The component-based non-emptiness check, kept as the oracle."""
    return [
        f"component over {w!r} on level {n} is empty (non-emptiness assumption)"
        for n in (0, 1, 2)
        for w in f.sset.level(n)
        if f.component(n, w).is_initial()
    ]


def stretched(f, i):
    """``f`` over a bigger index: an endo-edge at vertex ``i`` with its two
    degenerate triangles, and a new vertex with its degenerate simplices,
    none of them with elements above."""
    s = f.sset
    z, iz, wz = ("new", 0), ("new", 1), ("new", 2)
    lx, wx0, wx1 = ("endo", 0), ("endo", 1), ("endo", 2)
    ii = s.deg(0, 0, i)
    face = {k: dict(m) for k, m in s.face.items()}
    degen = {k: dict(m) for k, m in s.degen.items()}
    face[(1, 0)].update({lx: i, iz: z})
    face[(1, 1)].update({lx: i, iz: z})
    face[(2, 0)].update({wx0: lx, wx1: ii, wz: iz})
    face[(2, 1)].update({wx0: lx, wx1: lx, wz: iz})
    face[(2, 2)].update({wx0: ii, wx1: lx, wz: iz})
    degen[(0, 0)][z] = iz
    degen[(1, 0)].update({lx: wx0, iz: wz})
    degen[(1, 1)].update({lx: wx1, iz: wz})
    bigger = td.TruncSSet(s.s0 + (z,), s.s1 + (lx, iz), s.s2 + (wx0, wx1, wz), face, degen)
    base = f.h0.base
    zeta = tuple(
        td.PresheafMap(f.level(n), td.constant_presheaf(bigger.level(n), base), f.zeta[n].comp)
        for n in (0, 1, 2)
    )
    return td.SimplicialFamily(f.h0, f.h1, f.h2, f.face, f.degen, bigger, zeta)


def test_emptiness_messages_match_the_component_oracle(generated_refinements):
    families = [r.base for _, _, r in generated_refinements[:6]]
    families += [td.cech_simplicial_family(c).base for _, c in generated_covers()[:6]]
    for f in families:
        assert old_emptiness(f) == []
        for i in f.sset.s0:
            g = stretched(f, i)
            msgs = td.validate_family(g)
            oracle = old_emptiness(g)
            assert len(oracle) == 6
            head = [m for m in msgs if not m.endswith("(non-emptiness assumption)")]
            assert msgs == head + oracle


def nudged(m):
    """``m`` with the image of the first element moved to the next element
    of its codomain fiber (any function is natural over a point)."""
    comp = {p: dict(c) for p, c in m.comp.items()}
    for p, c in comp.items():
        fiber = m.cod.fibers[p]
        if c and len(fiber) > 1:
            e = next(iter(c))
            c[e] = fiber[(fiber.index(c[e]) + 1) % len(fiber)]
            return td.PresheafMap(m.dom, m.cod, comp)
    return None


def broken_variants(sf):
    """Self-dual families and morphisms each with one level map nudged."""
    f = sf.base
    for kind in ("face", "degen"):
        for k, m in getattr(f, kind).items():
            bad = nudged(m)
            if bad is not None:
                maps = {**getattr(f, kind), k: bad}
                g = td.SimplicialFamily(
                    f.h0, f.h1, f.h2,
                    maps if kind == "face" else f.face,
                    maps if kind == "degen" else f.degen,
                    f.sset, f.zeta,
                )
                yield td.SelfDualFamily(g, sf.tau_s, sf.tau1, sf.tau2), None
    for n in (1, 2):
        bad = nudged((sf.tau1, sf.tau2)[n - 1])
        if bad is not None:
            taus = (bad, sf.tau2) if n == 1 else (sf.tau1, bad)
            yield td.SelfDualFamily(f, sf.tau_s, *taus), None
        # conjugate by a swap inside one component: still an involution
        # over the index duality, but the faces no longer exchange
        tau = (sf.tau1, sf.tau2)[n - 1]
        t, zeta, fib = tau.comp["pt"], f.zeta[n].comp["pt"], tau.dom.fibers["pt"]
        pairs = [(x, y) for k, x in enumerate(fib) for y in fib[k + 1 :] if zeta[x] == zeta[y]]
        if pairs:
            x, y = pairs[0]

            def swap(e):
                return {x: y, y: x}.get(e, e)

            conj = td.PresheafMap(tau.dom, tau.cod, {"pt": {e: swap(t[swap(e)]) for e in t}})
            taus = (conj, sf.tau2) if n == 1 else (sf.tau1, conj)
            yield td.SelfDualFamily(f, sf.tau_s, *taus), None
    mor = td.counit(f)
    for n in (0, 1, 2):
        bad = nudged(mor.level_map(n))
        if bad is not None:
            levels = [mor.h0, mor.h1, mor.h2]
            levels[n] = bad
            yield sf, td.SimplicialFamilyMorphism(mor.source, mor.target, *levels, mor.alpha)


def verdicts(sf, mor):
    out = td.validate_selfdual(sf)
    if mor is not None:
        target = td.cech_simplicial_family(sf.base.level0_family())
        out += td.validate_simplicial_family_morphism(mor)
        out += td.morphism_commutes_with_dualities(mor, sf, target)
    return out


# Per cover: the number of variants, how many of them have messages, and
# the SHA-256 of the JSON of their ordered verdict lists.  Recorded from the
# validators as they were when they compared composites element by element,
# before they checked a family fiber by fiber.
NUDGED_VERDICTS = {
    "point-1x1": (8, 8, "db0acc8c362345481c0b3f9ce2a2efc031cbca99e510502f0a8f56ca60394e1f"),
    "point-1x2": (30, 28, "178d4235fbe7b380e9bc6943981729011ee64f35170cbd0bbc8b1c0e8db0f3c9"),
    "point-3x1": (26, 26, "802270367307188c940ed63844522ba42c977f1604b2fa8d10d22c0a0c2310aa"),
    "point-2x3": (30, 28, "b713452650364e1e6b1ec34ec93aaa4612067f76917228316e423541ac052173"),
}


@pytest.mark.parametrize("name", sorted(NUDGED_VERDICTS))
def test_verdicts_on_nudged_maps_are_pinned(name):
    cover = dict(generated_covers())[name]
    families = [td.cech_simplicial_family(cover), td.connected_refinement(cover)]
    got = [verdicts(variant, mor) for sf in families for variant, mor in broken_variants(sf)]
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert (len(got), sum(map(bool, got)), digest) == NUDGED_VERDICTS[name]
