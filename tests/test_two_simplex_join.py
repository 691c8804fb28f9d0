"""The indexed 2-simplex join against hom enumeration into the limits.

``hypercover._two_simplices`` lists, per triangle boundary, the commuting
two-storey spans with apex a class vertex.  Read componentwise, each one is
a map from its vertex into the boundary-triangle limit, so for every vertex
they must be exactly ``hom_enumerate(v, lim)``.  ``old_check_epi_criteria``
is ``check_epi_criteria`` as it was before the join, with level two
enumerating those maps; it is the oracle for the verdicts.
"""

import itertools

import pytest

import toposdescent as td
from toposdescent.fintopos import _hit_sets, _missed, label_key, pairing, product
from toposdescent.hypercover import (
    _all_spans,
    _by_pair,
    _composable_triples,
    _hom_lists,
    _triangle_limit,
    _two_simplices,
)
from conftest import generated_covers

COVERS = dict(generated_covers())


def identity_span(i, u):
    return td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))


def zero_class(cover):
    comps = td.family_components(cover)
    return td.SpanClass(tuple(comps[i] for i in sorted(comps, key=label_key)))


def connected_class(cover):
    comps = td.family_components(cover)
    ident = [identity_span(i, comps[i]) for i in sorted(comps, key=label_key)]
    return td.SpanClassSp(tuple(ident + td.representable_spans(cover)))


def spans_and_vertices(cover, cls):
    if isinstance(cls, td.SpanClass):
        return _all_spans(cover, cls, _hom_lists(cls.members)), cls.members
    return list(cls.members), cls.vertices()


def old_check_epi_criteria(cover, cls):
    comps = td.family_components(cover)
    base = cover.total.base
    index = sorted(comps, key=label_key)
    supp = {i: set(comps[i].support()) for i in index}
    spans, verts = spans_and_vertices(cover, cls)
    by_pair = _by_pair(spans, lambda s: (s.i, s.j))

    def covered(lim, maps):
        return not _missed(base.points, lim.fibers, _hit_sets((m.comp for m in maps), base.points))

    for i, j in itertools.product(index, repeat=2):
        if not (supp[i] & supp[j]):
            continue
        prod, _, _ = product(comps[i], comps[j])
        pairings = [pairing([s.left, s.right], prod) for s in by_pair.get((i, j), ())]
        if not covered(prod, pairings):
            return False
    for sl, st, sr in _composable_triples(by_pair, index):
        lim = _triangle_limit(base, sl, st, sr)
        if lim.is_initial():
            continue
        if not covered(lim, [m for v in verts for m in td.hom_enumerate(v, lim)]):
            return False
    return True


def limit_map_key(v, mx, my, mz):
    """``PresheafMap.key`` of the map ``v -> lim`` with components
    ``(mx, my, mz)``."""
    return tuple(
        (p, tuple((x, (mx.comp[p][x], my.comp[p][x], mz.comp[p][x])) for x in v.fibers[p]))
        for p in v.base.points
    )


def two_discrete_points():
    """One component over two incomparable points, with two elements at
    ``a`` and one at ``b``: level one of the criteria holds for its
    component class and level two does not."""
    base = td.FinPoset.from_pairs(("a", "b"), ())
    u = td.Presheaf(base, {"a": ("a0", "a1"), "b": ("b0",)}, {})
    return td.family_from_parts(base, {"u": u})


CASES = (
    [("zero", name) for name in ("point-1x2", "point-3x1")]
    + [("connected", name) for name in COVERS]
)


@pytest.mark.parametrize("kind,name", CASES)
def test_join_lists_the_maps_into_each_triangle_limit(kind, name):
    cover = COVERS[name]
    cls = (zero_class if kind == "zero" else connected_class)(cover)
    spans, verts = spans_and_vertices(cover, cls)
    base = cover.total.base
    index = sorted(td.family_components(cover), key=label_key)
    by_place = _by_pair(range(len(spans)), lambda n: (spans[n].i, spans[n].j))
    triples = list(_composable_triples(by_place, index))
    joined = list(_two_simplices(by_place, index, spans.__getitem__, verts, _hom_lists(verts)))
    assert [ends for ends, _ in joined] == triples
    for (l, t, r), maps in joined:
        lim = _triangle_limit(base, spans[l], spans[t], spans[r])
        assert [m[0] for m in maps] == sorted(m[0] for m in maps)
        for ci, v in enumerate(verts):
            got = [limit_map_key(v, mx, my, mz) for c, (_, mx), (_, my), (_, mz) in maps if c == ci]
            want = [m.key() for m in td.hom_enumerate(v, lim)]
            assert len(got) == len(want), (name, l, t, r, ci)
            assert set(got) == set(want), (name, l, t, r, ci)


@pytest.mark.parametrize("kind,name", CASES)
def test_epi_criteria_verdict_matches_the_enumerating_oracle(kind, name):
    cover = COVERS[name]
    cls = (zero_class if kind == "zero" else connected_class)(cover)
    assert old_check_epi_criteria(cover, cls) is True
    assert td.check_epi_criteria(cover, cls) is True


def test_epi_criteria_verdicts_on_small_classes_match_the_oracle(two_singleton_cover, chain_cover):
    two = two_singleton_cover
    comps = td.family_components(two)
    ident = tuple(identity_span(i, comps[i]) for i in sorted(comps))
    full = tuple(
        td.ClassSpan(i, j, v, u, w)
        for i in sorted(comps)
        for j in sorted(comps)
        for v in (comps["1"], comps["2"])
        for u in td.hom_enumerate(v, comps[i])
        for w in td.hom_enumerate(v, comps[j])
    )
    chain = chain_cover.total.base
    discrete = two_discrete_points()
    cases = [
        (two, td.SpanClassSp(ident), False),
        (two, td.SpanClassSp(full), True),
        (chain_cover, td.SpanClass((td.representable(chain, "a"),)), False),
        (chain_cover, connected_class(chain_cover), True),
        (discrete, zero_class(discrete), False),
        (discrete, connected_class(discrete), True),
    ]
    for cover, cls, verdict in cases:
        assert old_check_epi_criteria(cover, cls) is verdict
        assert td.check_epi_criteria(cover, cls) is verdict


def test_level_two_alone_can_fail():
    # the discrete case passes level one, so only level two rejects it
    cover = two_discrete_points()
    comps = td.family_components(cover)
    cls = zero_class(cover)
    spans = _all_spans(cover, cls, _hom_lists(cls.members))
    prod, _, _ = product(comps["u"], comps["u"])
    pairings = [pairing([s.left, s.right], prod) for s in spans]
    assert not _missed(prod.base.points, prod.fibers, _hit_sets((m.comp for m in pairings), prod.base.points))
    assert not td.check_epi_criteria(cover, zero_class(cover))
