"""The benchmark's tracing hooks find the library functions they count, so a
rename in the library fails here instead of breaking the benchmark."""

import importlib
import types
from pathlib import Path

import toposdescent as td
from toposdescent import groupoid
from conftest import free_endo_sset
from test_word_problem import bfs_then_separate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_counted_hooks_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    assert tracing.COUNTED
    for name, code in tracing.COUNTED.items():
        assert isinstance(code, types.CodeType), name


def test_search_hooks_see_every_enumerator(monkeypatch, fixture_cover):
    tracing = _tracing(monkeypatch)
    p = tracing.Pass(traced=True)
    with tracing.inner_spans(p):
        pres = td.fundamental_presentation(td.cech_nerve(fixture_cover)[0])
        actions = groupoid.enumerate_actions(pres, 1)
        data = td.enumerate_u_descent_data(fixture_cover, 1)
    assert p.tally["groupoid.actions"] == len(actions)
    assert p.tally["groupoid.search.solutions"] == len(actions) + len(data)


def test_word_equal_expansions_are_counted(monkeypatch):
    # one count per word the search expands: a search that no longer calls
    # the counted function reads 0 here instead of in the benchmark
    tracing = _tracing(monkeypatch)
    pres = td.fundamental_presentation(free_endo_sset())
    w1, w2 = pres.word("e", "e"), pres.word("e")
    verdict, counts, _ = tracing.counted(lambda: td.word_equal(pres, w1, w2, 10, separate=False))
    log = {}
    assert verdict is bfs_then_separate(pres, w1, w2, 10, separate=False, log=log)
    assert counts["groupoid.word_equal.expanded"] == len(log["expanded"]) > 0
