"""Presheaf kernel: products, quotients, components, homs, families."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from conftest import chain2, point


def test_poset_closure_and_antisymmetry():
    p = td.FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert p.leq("a", "a")
    with pytest.raises(ValueError):
        td.FinPoset.from_pairs(("a", "b"), [("a", "b"), ("b", "a")])


def test_constant_presheaf_shapes():
    pt = point()
    one = td.constant_presheaf(("0", "1"), pt)
    assert one.fibers["pt"] == ("0", "1")

    empty = td.constant_presheaf((), chain2())
    assert empty.is_initial()

    c = chain2()
    t = td.constant_presheaf(("*",), c)
    assert t.fibers["a"] == ("*",) and t.fibers["b"] == ("*",)
    assert t.restrict("a", "b", "*") == "*"


def test_presheaf_functoriality_enforced():
    c = td.FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    fibers = {"a": ("x", "y"), "b": ("x", "y"), "c": ("x",)}
    rest = {
        ("a", "b"): {"x": "x", "y": "y"},
        ("b", "c"): {"x": "x"},
        ("a", "c"): {"x": "y"},  # disagrees with the composite a<b<c
    }
    with pytest.raises(ValueError):
        td.Presheaf(c, fibers, rest)


def test_product_enumerates_pairs(pt):
    x = td.constant_presheaf(("a",), pt)
    y = td.constant_presheaf(("b", "c"), pt)
    prod, p1, p0 = td.product(x, y)
    assert prod.fibers["pt"] == (("a", "b"), ("a", "c"))
    assert p1.apply("pt", ("a", "b")) == "a" and p0.apply("pt", ("a", "b")) == "b"


def test_product_with_terminal_is_canonical_bijection(pt):
    x = td.constant_presheaf(("a", "b"), pt)
    prod, p1, _ = td.product(x, td.terminal_presheaf(pt))
    assert p1.is_iso()


def test_product_of_representables_on_chain():
    c = chain2()
    ya, yb = td.representable(c, "a"), td.representable(c, "b")
    prod, _, _ = td.product(ya, yb)
    # Hom computation: the a-fiber is a single pair, the b-fiber is empty.
    assert prod.fibers["a"] == (("*", "*"),)
    assert prod.fibers["b"] == ()


def test_product_universal_property_exhaustive(pt):
    # Oracle: every cone from every test object factors uniquely.
    x = td.constant_presheaf(("a", "b"), pt)
    y = td.constant_presheaf(("c",), pt)
    prod, p1, p0 = td.product(x, y)
    for z in (td.constant_presheaf(("u",), pt), td.constant_presheaf(("u", "v"), pt)):
        for f in td.hom_enumerate(z, x):
            for g in td.hom_enumerate(z, y):
                mediating = [
                    h
                    for h in td.hom_enumerate(z, prod)
                    if p1.after(h).comp == f.comp and p0.after(h).comp == g.comp
                ]
                assert len(mediating) == 1


def test_epi_family_examples(pt):
    x = td.constant_presheaf(("a",), pt)
    y = td.constant_presheaf(("b",), pt)
    xy = td.constant_presheaf(("a", "b"), pt)
    inc_a = td.PresheafMap(x, xy, {"pt": {"a": "a"}})
    inc_b = td.PresheafMap(y, xy, {"pt": {"b": "b"}})
    assert td.is_epi_family([inc_a, inc_b])
    assert not td.is_epi_family([inc_a])

    empty = td.initial_presheaf(pt)
    to_a = td.PresheafMap(empty, x, {"pt": {}})
    assert not td.is_epi_family([to_a])


def test_epi_misses_fiber_on_chain():
    c = chain2()
    ya = td.representable(c, "a")
    bang = td.PresheafMap(
        ya, td.terminal_presheaf(c), {"a": {"*": "*"}, "b": {}}
    )
    assert not td.is_epi_family([bang])


def test_epi_family_monotone(pt):
    xy = td.constant_presheaf(("a", "b"), pt)
    x = td.constant_presheaf(("a",), pt)
    inc = td.PresheafMap(x, xy, {"pt": {"a": "a"}})
    ident = td.PresheafMap.identity(xy)
    assert td.is_epi_family([inc, ident])
    # adding maps never turns a covering family into a non-covering one
    for maps in ([ident], [ident, inc]):
        assert td.is_epi_family(maps)


def test_presheaf_key_on_mixed_label_poset():
    from toposdescent.serialize import presheaf_to_json

    poset = td.FinPoset.from_pairs([1, "x", "y"], [(1, "y"), ("x", "y")])
    x = td.terminal_presheaf(poset)
    assert [pq for pq, _ in x.key()[1]] == [(1, "y"), ("x", "y")]
    assert sorted(presheaf_to_json(x)["restrictions"]) == ["y>#1", "y>x"]


def test_connected_components_examples(pt):
    two = td.constant_presheaf(("a", "b"), pt)
    comps = td.connected_components(two)
    assert len(comps) == 2
    assert sum(c.size() for c in comps) == two.size()

    yb = td.representable(chain2(), "b")
    assert td.is_connected(yb)

    assert td.connected_components(td.initial_presheaf(pt)) == []


def test_component_sizes_sum_pointwise():
    c = chain2()
    x = td.Presheaf(
        c,
        {"a": ("u", "v", "w"), "b": ("s", "t")},
        {("a", "b"): {"s": "u", "t": "v"}},
    )
    comps = td.connected_components(x)
    for p in c.points:
        assert sum(len(k.fibers[p]) for k in comps) == len(x.fibers[p])


def test_quotient_examples(pt):
    two = td.constant_presheaf(("a", "b"), pt)
    q, proj = td.quotient_by_pairs(two, [("pt", "a", "b")])
    assert q.size() == 1
    assert proj.is_surjective()

    same, proj2 = td.quotient_by_pairs(two, [])
    assert same == two
    assert proj2.comp == td.PresheafMap.identity(two).comp


def test_quotient_saturates_under_naturality():
    c = chain2()
    # two elements at b with distinct restrictions at a
    x = td.Presheaf(
        c,
        {"a": ("u", "v"), "b": ("s", "t")},
        {("a", "b"): {"s": "u", "t": "v"}},
    )
    q, _ = td.quotient_by_pairs(x, [("b", "s", "t")])
    # Oracle: identifying s ~ t at b must identify u ~ v at a.
    assert len(q.fibers["b"]) == 1 and len(q.fibers["a"]) == 1


def test_quotient_idempotent(pt):
    x = td.constant_presheaf(("a", "b", "c"), pt)
    pairs = [("pt", "a", "b")]
    q1, proj = td.quotient_by_pairs(x, pairs)
    image_pairs = [("pt", proj.apply("pt", "a"), proj.apply("pt", "b"))]
    q2, proj2 = td.quotient_by_pairs(q1, image_pairs)
    assert proj2.is_iso()


def test_hom_enumerate_examples(pt):
    a = td.constant_presheaf(("a",), pt)
    bc = td.constant_presheaf(("b", "c"), pt)
    assert len(td.hom_enumerate(a, bc)) == 2
    assert len(td.hom_enumerate(bc, td.terminal_presheaf(pt))) == 1


def test_hom_enumerate_yoneda():
    c = chain2()
    ya = td.representable(c, "a")
    x = td.Presheaf(
        c,
        {"a": ("u", "v", "w"), "b": ("s",)},
        {("a", "b"): {"s": "u"}},
    )
    # Oracle: maps out of a representable are the elements of the fiber.
    assert len(td.hom_enumerate(ya, x)) == len(x.fibers["a"])


def test_hom_enumerate_matches_bruteforce():
    # Independent oracle: filter all componentwise functions by naturality.
    c = chain2()
    x = td.Presheaf(c, {"a": ("u", "v"), "b": ("s",)}, {("a", "b"): {"s": "u"}})
    y = td.Presheaf(c, {"a": ("p", "q"), "b": ("r", "z")}, {("a", "b"): {"r": "p", "z": "p"}})
    brute = 0
    for fa in itertools.product(y.fibers["a"], repeat=len(x.fibers["a"])):
        for fb in itertools.product(y.fibers["b"], repeat=len(x.fibers["b"])):
            comp_a = dict(zip(x.fibers["a"], fa))
            comp_b = dict(zip(x.fibers["b"], fb))
            if all(
                y.restrict("a", "b", comp_b[e]) == comp_a[x.restrict("a", "b", e)]
                for e in x.fibers["b"]
            ):
                brute += 1
    assert brute == len(td.hom_enumerate(x, y))


def test_family_components_and_errors(pt):
    total = td.constant_presheaf(("a", "b", "c"), pt)
    zeta = td.PresheafMap(
        total,
        td.constant_presheaf(("1", "2"), pt),
        {"pt": {"a": "1", "b": "1", "c": "2"}},
    )
    fam = td.Family(total, ("1", "2"), zeta)
    comps = td.family_components(fam)
    assert comps["1"].fibers["pt"] == ("a", "b")
    assert comps["2"].fibers["pt"] == ("c",)

    single = td.family_from_parts(pt, {"1": total})
    assert td.family_components(single)["1"] == total

    bad_zeta = td.PresheafMap(
        total,
        td.constant_presheaf(("1", "2"), pt),
        {"pt": {"a": "1", "b": "1", "c": "1"}},
    )
    starved = td.Family(total, ("1", "2"), bad_zeta)
    with pytest.raises(td.EmptyComponentError):
        td.family_components(starved)


def test_family_reconstructs_from_components(pt):
    fam = td.family_from_parts(
        pt,
        {
            "1": td.constant_presheaf(("a",), pt),
            "2": td.constant_presheaf(("b", "c"), pt),
        },
    )
    comps = td.family_components(fam)
    rebuilt = td.family_from_parts(pt, comps)
    assert rebuilt.total == fam.total
    assert rebuilt.struct_map.comp == fam.struct_map.comp


def test_family_morphism_square(pt):
    big = td.family_from_parts(
        pt,
        {
            "1": td.constant_presheaf(("a",), pt),
            "2": td.constant_presheaf(("b",), pt),
        },
    )
    small = td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)})
    inc = td.PresheafMap(small.total, big.total, {"pt": {"a": "a"}})
    td.FamilyMorphism(small, big, inc, {"1": "1"})
    with pytest.raises(ValueError):
        td.FamilyMorphism(small, big, inc, {"1": "2"})


@st.composite
def small_presheaf_on_chain(draw):
    c = chain2()
    na = draw(st.integers(min_value=0, max_value=3))
    nb = draw(st.integers(min_value=0, max_value=3))
    fib_a = tuple(f"a{k}" for k in range(na))
    fib_b = tuple(f"b{k}" for k in range(nb))
    if nb and not na:
        na, fib_a = 1, ("a0",)
    rest = {}
    if nb:
        rest[("a", "b")] = {
            e: fib_a[draw(st.integers(min_value=0, max_value=na - 1))] for e in fib_b
        }
    else:
        rest[("a", "b")] = {}
    return td.Presheaf(c, {"a": fib_a, "b": fib_b}, rest)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_presheaf_on_chain(), small_presheaf_on_chain())
def test_product_projection_counts(x, y):
    prod, p1, p0 = td.product(x, y)
    for p in x.base.points:
        assert len(prod.fibers[p]) == len(x.fibers[p]) * len(y.fibers[p])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_presheaf_on_chain())
def test_components_partition(x):
    comps = td.connected_components(x)
    seen = set()
    for c in comps:
        for el in c.elements():
            assert el not in seen
            seen.add(el)
    assert seen == set(x.elements())


def test_isomorphism_search(pt):
    x = td.constant_presheaf(("a", "b"), pt)
    y = td.constant_presheaf(("u", "v"), pt)
    iso = td.find_isomorphism(x, y)
    assert iso is not None and iso.is_iso()
    assert td.is_isomorphic(x, y)
    assert not td.is_isomorphic(x, td.constant_presheaf(("u",), pt))

    c = chain2()
    assert td.is_isomorphic(td.representable(c, "b"), td.terminal_presheaf(c))
    assert not td.is_isomorphic(td.representable(c, "a"), td.terminal_presheaf(c))
