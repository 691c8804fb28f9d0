"""The benchmark's tracing hooks find the library functions they count, so a
rename in the library fails here instead of breaking the benchmark."""

import importlib
import types
from pathlib import Path

import toposdescent as td
from toposdescent import groupoid

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
