"""Spans, tallies and call counts for one pass of a workload.

A ``Pass`` is handed to every job.  Its ``span`` records a named interval
around a call into a layer; when tracing is off it returns a shared no-op
context, so the untimed bookkeeping stays out of ``pass_s``.  Tallies
(verdicts, output sizes, data counts) are always kept: they are part of
each job's answer, not of the trace.

``counted`` runs a pass under ``cProfile`` and keeps only the call counts
of named code objects, so that line shifts and same-named nested
functions (``extend``, ``__post_init__``) never mix their counts.
"""

import contextlib
import cProfile
import time

import toposdescent as td
from toposdescent import covering, descent, fintopos, groupoid, hypercover, progroupoid

_NULL = contextlib.nullcontext()


def _inner_code(fn, name):
    for const in fn.__code__.co_consts:
        if getattr(const, "co_name", None) == name:
            return const
    raise LookupError(f"{fn.__qualname__} has no nested function {name!r}")


# Counted per-layer metrics: metric name -> code object whose calls count.
COUNTED = {
    "fintopos.label_key.calls": fintopos.label_key.__code__,
    "fintopos.strict_pairs.calls": fintopos.FinPoset.strict_pairs.__code__,
    "fintopos.Presheaf.init.calls": fintopos.Presheaf.__post_init__.__code__,
    "fintopos.PresheafMap.init.calls": fintopos.PresheafMap.__post_init__.__code__,
    "fintopos.hom_enumerate.calls": fintopos.hom_enumerate.__code__,
    "hypercover.is_hypercover.calls": hypercover.is_hypercover.__code__,
    "groupoid.word_equal.expanded": groupoid._neighbors.__code__,
    "groupoid.search.nodes": _inner_code(groupoid.solve_bijection_slots, "extend"),
    "covering.structure_maps.calls": covering._structure_maps_commute.__code__,
    "progroupoid.arrow_lifts.calls": progroupoid._arrow_lifts.__code__,
}


class Pass:
    """Bookkeeping of one pass: spans (when traced) and tallies."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.tally = {}
        self.job = None
        self._stack = []

    def count(self, name, n=1):
        self.tally[name] = self.tally.get(name, 0) + n

    def span(self, name):
        return self._span(name) if self.traced else _NULL

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {"name": name, "job": self.job, "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per (job, span name), the sum of span durations minus the
        durations of their child spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for k, rec in enumerate(self.spans):
            key = (rec["job"], rec["name"])
            out[key] = out.get(key, 0.0) + rec["end"] - rec["start"] - child[k]
        return out


@contextlib.contextmanager
def inner_spans(p):
    """Wrap the two search entry points that other layers call, so the
    traced pass sees their time and output sizes wherever they are called
    from.  The bindings are restored on exit."""
    orig_actions = groupoid.enumerate_actions
    orig_slots = groupoid.solve_bijection_slots

    def enumerate_actions(*args, **kw):
        with p.span("groupoid.enumerate_actions"):
            out = orig_actions(*args, **kw)
        p.count("groupoid.actions", len(out))
        return out

    def solve_bijection_slots(*args, **kw):
        out = orig_slots(*args, **kw)
        p.count("groupoid.search.solutions", len(out))
        return out

    patched = []
    for mod in (td, groupoid, descent, covering, progroupoid):
        for name, orig, new in (
            ("enumerate_actions", orig_actions, enumerate_actions),
            ("solve_bijection_slots", orig_slots, solve_bijection_slots),
        ):
            if getattr(mod, name, None) is orig:
                setattr(mod, name, new)
                patched.append((mod, name, orig))
    try:
        yield
    finally:
        for mod, name, orig in patched:
            setattr(mod, name, orig)


def counted(fn):
    """Run ``fn()`` under cProfile; return (result, counts, label_key share
    of profiled self time)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    stats = prof.getstats()
    by_code = {}
    total = 0.0
    for entry in stats:
        total += entry.inlinetime
        by_code[entry.code] = entry
    counts = {name: (by_code[code].callcount if code in by_code else 0) for name, code in COUNTED.items()}
    lk = by_code.get(COUNTED["fintopos.label_key.calls"])
    share = (lk.inlinetime / total) if lk is not None and total else 0.0
    return result, counts, share
