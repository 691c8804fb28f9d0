"""The epi criteria decide the hypercover property of their own refinement.

``check_epi_criteria`` reads a span class alone, and ``is_hypercover``
reads the refinement built from it.  Wherever that refinement can be built,
the two verdicts must be equal: on every generated cover and on
``two_discrete_points``, for the class of identity spans and the connected
class (``one_span_refinement``), and for the component class
(``zero_span_refinement``) on the covers of at most two elements and on
``two_discrete_points``.  Both verdicts occur: the identity class passes
on three of these thirteen covers and fails on the other ten, and the
component class of ``two_discrete_points`` fails.

A refinement is built from one table of maps out of the class vertices,
so no hom set from a vertex into a target is enumerated twice in one build or
one check.
"""

from collections import Counter

import pytest

import toposdescent as td
from toposdescent import hypercover
from toposdescent.fintopos import label_key
from conftest import generated_covers
from test_two_simplex_join import connected_class, identity_span, two_discrete_points, zero_class

COVERS = dict(generated_covers())
COVERS["two-discrete-points"] = two_discrete_points()


def identity_class(cover):
    comps = td.family_components(cover)
    return td.SpanClassSp(tuple(identity_span(i, comps[i]) for i in sorted(comps, key=label_key)))


def verdicts(kind, cover):
    """``(check_epi_criteria, is_hypercover)`` for the class of ``kind`` and
    the refinement built from it."""
    if kind == "component":
        cls = zero_class(cover)
        ref = td.zero_span_refinement(cover, cls)
    else:
        cls = (identity_class if kind == "identity" else connected_class)(cover)
        ref = td.one_span_refinement(cover, cls)
    return td.check_epi_criteria(cover, cls), td.is_hypercover(ref.base, cover)


CASES = [
    (kind, name)
    for name, cover in COVERS.items()
    for kind in ("identity", "connected", "component")
    if kind != "component" or cover.total.size() <= 2 or name == "two-discrete-points"
]


@pytest.mark.parametrize("kind,name", CASES)
def test_epi_criteria_equal_the_hypercover_verdict(kind, name):
    epi, hyper = verdicts(kind, COVERS[name])
    assert epi == hyper


def test_both_verdicts_occur():
    identity = Counter(verdicts("identity", cover)[0] for cover in COVERS.values())
    assert identity == {True: 3, False: 10}
    assert verdicts("component", COVERS["two-discrete-points"]) == (False, False)


def count_homs(monkeypatch):
    """Counts the ``hom_enumerate`` calls of the hypercover module by
    ``(vertex, target)``, named by their keys."""
    calls = Counter()
    real = hypercover.hom_enumerate

    def counted(x, y):
        calls[(x.key(), y.key())] += 1
        return real(x, y)

    monkeypatch.setattr(hypercover, "hom_enumerate", counted)
    return calls


@pytest.mark.parametrize("name", ["point-1x2", "point-3x1", "chain-two-reps"])
def test_a_zero_span_build_enumerates_each_hom_set_once(name, monkeypatch):
    cover = COVERS[name]
    cls = zero_class(cover)
    calls = count_homs(monkeypatch)
    td.zero_span_refinement(cover, cls)
    assert calls and set(calls.values()) == {1}
    calls.clear()
    assert td.check_epi_criteria(cover, cls)
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("name", ["point-1x2", "chain-two-reps", "diamond-mixed"])
def test_a_connected_build_enumerates_each_hom_set_once(name, monkeypatch):
    cover = COVERS[name]
    cls = connected_class(cover)
    calls = count_homs(monkeypatch)
    td.one_span_refinement(cover, cls)
    assert calls and set(calls.values()) == {1}
    calls.clear()
    assert td.check_epi_criteria(cover, cls)
    assert calls and set(calls.values()) == {1}
