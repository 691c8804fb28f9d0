"""The cover side of descent reads the overlapping pairs and triples of a
cover straight off its components, without building the Čech nerve.

``simplicial._overlaps`` gives the nerve's 1- and 2-simplices, and
``simplicial._pair_elements`` walks the elements of the pairwise products
in the order of the loop over the nerve that gluing, reading back,
covering projections, action spans and the cover validator each used to
repeat; that loop is kept here as the oracle.  None of those entries builds
a ``TruncSSet``.
"""

import pytest
from hypothesis import given

import toposdescent as td
from conftest import generated_covers, small_covers
from test_random_covers import GATE
from toposdescent.simplicial import _overlaps, _pair_elements

COVERS = generated_covers()


def nerve_loop(cover):
    """The elements of the pairwise products as the cover side listed them
    when it built the nerve: 1-simplices in order, then points, then the
    two fibers."""
    comps = td.family_components(cover)
    nerve, _ = td.cech_nerve(cover)
    out = []
    for i, j in nerve.s1:
        for p in cover.total.base.points:
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    out.append((i, j, p, x, y))
    return out


def check_against_the_nerve(cover):
    comps = td.family_components(cover)
    nerve, _ = td.cech_nerve(cover)
    pairs, triples = _overlaps(cover.index, comps)
    assert (pairs, triples) == (nerve.s1, nerve.s2)
    assert list(_pair_elements(cover.total.base.points, comps, pairs)) == nerve_loop(cover)


@pytest.mark.parametrize("name,cover", COVERS, ids=[name for name, _ in COVERS])
def test_overlaps_and_walk_match_the_nerve(name, cover):
    check_against_the_nerve(cover)


@GATE
@given(small_covers())
def test_overlaps_and_walk_match_the_nerve_on_random_covers(cover):
    check_against_the_nerve(cover)


def test_overlaps_skip_disjoint_components():
    """Over the two-point antichain, components supported at different
    points do not overlap, and a triple overlaps only where all three do."""
    base = td.FinPoset.from_pairs(("a", "b"))
    parts = {
        "1": td.Presheaf(base, {"a": ("x",), "b": ()}, {}),
        "2": td.Presheaf(base, {"a": (), "b": ("y",)}, {}),
        "3": td.constant_presheaf(("z",), base),
    }
    cover = td.family_from_parts(base, parts)
    pairs, triples = _overlaps(cover.index, td.family_components(cover))
    assert ("1", "2") not in pairs and ("1", "3") in pairs and ("2", "3") in pairs
    assert ("1", "2", "3") not in triples and ("1", "3", "3") in triples
    check_against_the_nerve(cover)


@pytest.mark.parametrize("name", ["point-1x2", "chain-constants", "diamond-mixed"])
def test_the_cover_side_builds_no_simplicial_set(name, monkeypatch):
    cover = dict(COVERS)[name]
    data = td.enumerate_u_descent_data(cover, 2)

    def refuse(self):
        raise AssertionError("a TruncSSet was built")

    monkeypatch.setattr(td.TruncSSet, "__post_init__", refuse)
    for u in data:
        assert td.validate_u_descent(u) == []
        lc = td.glue(cover, u)
        assert td.extract_descent(lc).sigma == u.sigma
        td.is_covering_projection(cover, u)
        td.all_action_spans(cover, u)
