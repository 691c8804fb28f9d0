"""The hash join of boundary-triangle limits against the triple loop it
replaced.

``hypercover._triangle_join`` lists the compatible leg triples of three
spans by looking up each element's partners through its legs.
``nested_fibers`` is the triple loop over the three vertex fibers that
``_triangle_limit`` ran before; it is the oracle.  The join must give the
same fibers, in the same order, for every boundary triple, and
``hypercover_report`` and ``check_epi_criteria`` must come out the same
when the oracle stands in for the join.
"""

import pytest
from hypothesis import given

import toposdescent as td
from toposdescent import hypercover
from toposdescent.fintopos import label_key
from toposdescent.hypercover import (
    _all_spans,
    _by_pair,
    _composable_triples,
    _hom_lists,
    _triangle_join,
    _triangle_limit,
)
from conftest import generated_covers, small_covers
from test_random_covers import GATE

COVERS = dict(generated_covers())


def nested_fibers(points, sl, st, sr):
    """The fibers of the limit over ``(sl, st, sr)``, by a loop over every
    triple of vertex elements."""
    fibers = {}
    for p in points:
        out = []
        for a in sl.vertex.fibers[p]:
            for b in st.vertex.fibers[p]:
                if st.left.apply(p, b) != sl.left.apply(p, a):
                    continue
                for c in sr.vertex.fibers[p]:
                    if sr.left.apply(p, c) == sl.right.apply(p, a) and sr.right.apply(
                        p, c
                    ) == st.right.apply(p, b):
                        out.append((a, b, c))
        fibers[p] = tuple(out)
    return fibers


def nested_join(points, span):
    return lambda l, t, r: nested_fibers(points, span(l), span(t), span(r))


def fresh_report(f):
    f._derived.pop("hypercover_report", None)
    return hypercover.hypercover_report(f)


def check_family(f, monkeypatch):
    """Join against loop on every boundary triple of the family, and the
    coverage report computed both ways."""
    points = f.h0.base.points
    spans = {l: td.span_of_1simplex(f, l) for l in f.sset.s1}
    join = _triangle_join(points, spans.__getitem__)
    for l, t, r in _composable_triples(_by_pair(f.sset.s1, f.sset.endpoints), f.sset.s0):
        assert join(l, t, r) == nested_fibers(points, spans[l], spans[t], spans[r]), (l, t, r)
    want = fresh_report(f)
    with monkeypatch.context() as m:
        m.setattr(hypercover, "_triangle_join", nested_join)
        got = fresh_report(f)
    f._derived["hypercover_report"] = want
    for level in ("level1", "level2"):
        assert list(got[level].items()) == list(want[level].items())
    return want


def check_class(cover, cls, monkeypatch):
    """Join against loop on every boundary triple of the class's spans,
    and the epi-criteria verdict both ways."""
    if isinstance(cls, td.SpanClass):
        spans = _all_spans(cover, cls, _hom_lists(cls.members))
    else:
        spans = list(cls.members)
    points = cover.total.base.points
    by_place = _by_pair(range(len(spans)), lambda n: (spans[n].i, spans[n].j))
    join = _triangle_join(points, spans.__getitem__)
    for l, t, r in _composable_triples(by_place, cover.index):
        assert join(l, t, r) == nested_fibers(points, spans[l], spans[t], spans[r])
    verdict = td.check_epi_criteria(cover, cls)
    with monkeypatch.context() as m:
        m.setattr(hypercover, "_triangle_join", nested_join)
        assert td.check_epi_criteria(cover, cls) is verdict
    return verdict


def connected_class(cover):
    comps = td.family_components(cover)
    ident = [
        td.ClassSpan(i, i, comps[i], td.PresheafMap.identity(comps[i]), td.PresheafMap.identity(comps[i]))
        for i in sorted(comps, key=label_key)
    ]
    return td.SpanClassSp(tuple(ident + td.representable_spans(cover)))


def zero_class(cover):
    comps = td.family_components(cover)
    return td.SpanClass(tuple(comps[i] for i in sorted(comps, key=label_key)))


@pytest.mark.parametrize("name", sorted(COVERS))
def test_join_matches_the_loop_on_connected_refinements(name, generated_refinements, monkeypatch):
    (ref,) = [ref for n, _, ref in generated_refinements if n == name]
    cover = COVERS[name]
    report = check_family(ref.base, monkeypatch)
    assert not any(missed for level in report.values() for missed in level.values())
    assert check_class(cover, connected_class(cover), monkeypatch) is True


def test_join_matches_the_loop_on_the_zero_span_fixture(monkeypatch):
    cover = COVERS["point-1x2"]
    cls = zero_class(cover)
    assert check_class(cover, cls, monkeypatch) is True
    check_family(td.zero_span_refinement(cover, cls).base, monkeypatch)


@GATE
@given(small_covers())
def test_join_matches_the_loop_on_small_covers(cover):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_family(td.connected_refinement(cover).base, monkeypatch)
        assert check_class(cover, connected_class(cover), monkeypatch) is True
        if cover.total.size() <= 2:
            check_class(cover, zero_class(cover), monkeypatch)


def test_triangle_limit_is_a_presheaf_on_the_joined_fibers(fixture_cover):
    fam = td.cech_simplicial_family(fixture_cover).base
    spans = {l: td.span_of_1simplex(fam, l) for l in fam.sset.s1}
    base = fam.h0.base
    data = td.cosk_data(fam)
    for l, t, r in _composable_triples(_by_pair(fam.sset.s1, fam.sset.endpoints), fam.sset.s0):
        lim = _triangle_limit(base, spans[l], spans[t], spans[r])
        assert lim.fibers == nested_fibers(base.points, spans[l], spans[t], spans[r])
        assert td.Presheaf(base, lim.fibers, lim.restrictions).key() == lim.key()
        if lim.is_initial():
            assert (l, t, r) not in data.triple_limit
        else:
            assert data.triple_limit[(l, t, r)].key() == lim.key()
    assert data.t2 == tuple(data.triple_limit)
