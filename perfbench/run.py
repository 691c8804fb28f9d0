"""Benchmark runner for toposdescent.

    python3 perfbench/run.py --workload refine|reload|descent|words \
        --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the library from ``src/``.
Single process, single thread.  ``PYTHONHASHSEED`` is pinned (to 0 unless
already set to a number) by re-executing the interpreter before anything
is imported.

The corpus is read, digest-checked and relabelled for the seed once.
Each iteration then sets the workload up afresh and runs one pass over its
fixed job list; iterations repeat until the next one would overrun
``--seconds`` (at least one runs).  Every job's answer is checked against
``corpus/expected.json``.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` the same untraced passes are
followed by one traced pass (spans around every call into a layer) and
one counted pass (call counts under cProfile), and the last line reports
the per-layer metrics.  The traced run also writes
``perfbench/out/trace-<workload>-seed<N>.json``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PER_LAYER = {
    "fintopos.label_key.calls": "count",
    "fintopos.label_key.share": "ratio",
    "fintopos.strict_pairs.calls": "count",
    "fintopos.Presheaf.init.calls": "count",
    "fintopos.PresheafMap.init.calls": "count",
    "fintopos.hom_enumerate.calls": "count",
    "simplicial.nerve.s": "s",
    "hypercover.build.s": "s",
    "hypercover.coverage.s": "s",
    "hypercover.epi_criteria.s": "s",
    "hypercover.is_hypercover.calls": "count",
    "hypercover.s1": "count",
    "hypercover.s2": "count",
    "hypercover.h2_elems": "count",
    "family.validate_selfdual.s": "s",
    "family.condition_g.s": "s",
    "serialize.encode.s": "s",
    "serialize.encode.bytes": "bytes",
    "serialize.decode.s": "s",
    "serialize.decode.bytes": "bytes",
    "groupoid.presentation.s": "s",
    "groupoid.word_equal.s": "s",
    "groupoid.word_equal.calls": "count",
    "groupoid.word_equal.expanded": "count",
    "groupoid.verdict.equal": "count",
    "groupoid.verdict.distinct": "count",
    "groupoid.verdict.unknown": "count",
    "groupoid.enumerate_actions.s": "s",
    "groupoid.actions": "count",
    "groupoid.search.nodes": "count",
    "groupoid.search.solutions": "count",
    "groupoid.search.yield": "ratio",
    "descent.enumerate.s": "s",
    "descent.data": "count",
    "descent.transfer.s": "s",
    "descent.validate.s": "s",
    "covering.main2.s": "s",
    "covering.structure_maps.calls": "count",
    "covering.main1.s": "s",
    "covering.glue.s": "s",
    "progroupoid.inclusion.s": "s",
    "progroupoid.assemble.s": "s",
    "progroupoid.arrow_lifts.calls": "count",
    "progroupoid.failures": "count",
    "progroupoid.undetermined": "count",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}


def pin_hash_seed():
    """Re-execute with PYTHONHASHSEED=0 unless it is already a number."""
    if not os.environ.get("PYTHONHASHSEED", "").isdigit():
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def calibrate():
    """A fixed pure-Python loop; its time tells a slow host from a slow
    program.  Reported only, never used to normalise."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t


def check(answer, expected, seed):
    if expected is None:
        return False
    answer = json.loads(json.dumps(answer))
    return answer == expected if seed == 0 else answer["counts"] == expected["counts"]


def run_pass(jobs, p, expected, seed):
    """One pass over the job list.  Returns (pass seconds, per-job rows)."""
    rows = []
    start = time.perf_counter()
    for job_id, fn in jobs:
        p.job = job_id
        t = time.perf_counter()
        try:
            with p.span("job"):
                answer = fn(p)
            seconds = time.perf_counter() - t
            ok = check(answer, expected.get(job_id), seed)
        except Exception:
            seconds = time.perf_counter() - t
            traceback.print_exc(file=sys.stderr)
            answer, ok = None, False
        if not ok:
            print(f"job {job_id}: answer does not match", file=sys.stderr)
        rows.append({"job": job_id, "seconds": seconds, "ok": ok, "answer": answer})
    p.job = None
    return time.perf_counter() - start, rows


class Runner:
    def __init__(self, workload, seed, expected):
        from tracing import Pass
        from workloads import WORKLOADS

        self.Pass = Pass
        prepare, self.setup, self.jobs = WORKLOADS[workload]
        t = time.perf_counter()
        self.corpus = prepare(seed)
        self.prepare_s = time.perf_counter() - t
        self.seed = seed
        self.expected = expected
        self.setups, self.calibs = [], []
        self.attempted = self.failed = 0

    def one(self, traced=False, wrap=None):
        """Set up afresh and run one pass; returns (pass, seconds, rows)."""
        # Free the previous pass's objects first, so each pass starts from
        # the same heap.
        gc.collect()
        t = time.perf_counter()
        inputs = self.setup(self.corpus)
        self.setups.append(time.perf_counter() - t)
        jobs = self.jobs(inputs)
        p = self.Pass(traced)
        self.calibs.append(calibrate())
        if wrap is None:
            seconds, rows = run_pass(jobs, p, self.expected, self.seed)
        else:
            seconds, rows = wrap(lambda: run_pass(jobs, p, self.expected, self.seed), p)
        self.calibs.append(calibrate())
        self.attempted += len(rows)
        self.failed += sum(not r["ok"] for r in rows)
        return p, seconds, rows


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("refine", "reload", "descent", "words"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toposdescent" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: F401  (imports the library; timed as set-up)

    import_s = time.perf_counter() - t0

    expected = json.loads((HERE / "corpus" / "expected.json").read_text())["jobs"][args.workload]
    runner = Runner(args.workload, args.seed, expected)

    passes, max_jobs = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        _, seconds, rows = runner.one()
        if not passes:
            # Later passes only add allocator fragmentation to the peak.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(seconds)
        max_jobs.append(max(r["seconds"] for r in rows))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t) > args.seconds:
            break
    pass_s = statistics.median(passes)
    setup_s = import_s + statistics.median(runner.setups)

    if args.trace:
        metrics = traced_run(args, runner, pass_s)
    else:
        metrics = {
            "pass_s": metric(pass_s, "s"),
            "max_job_s": metric(statistics.median(max_jobs), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
        }

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced passes")
    print(f"pass_s samples: {' '.join(f'{x:.4f}' for x in passes)}")
    print(f"failed_share {runner.failed / runner.attempted:.4f} ratio ({runner.failed}/{runner.attempted} jobs)")
    print(f"prepare_s {runner.prepare_s:.4f} s (corpus read, digest check and relabel; not in setup_s)")
    print(f"host.calib_s {statistics.median(runner.calibs):.6f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def traced_run(args, runner, pass_s):
    from tracing import counted, inner_spans

    def traced(fn, p):
        with inner_spans(p):
            return fn()

    p, traced_s, rows = runner.one(traced=True, wrap=traced)
    profile = {}

    def profiled(fn, _p):
        out, profile["counts"], profile["share"] = counted(fn)
        return out

    _, _, counted_rows = runner.one(wrap=profiled)

    self_times = p.self_times()
    values = {name: 0 for name in PER_LAYER}
    for (_, name), seconds in self_times.items():
        if f"{name}.s" in values:
            values[f"{name}.s"] += seconds
    values.update((k, v) for k, v in p.tally.items() if k in values)
    values.update(profile["counts"])
    values["fintopos.label_key.share"] = profile["share"]
    nodes = values["groupoid.search.nodes"]
    values["groupoid.search.yield"] = values["groupoid.search.solutions"] / nodes if nodes else 0.0
    values["trace.overhead_s"] = traced_s - pass_s
    values["host.calib_s"] = statistics.median(runner.calibs)

    jobs = [
        {
            "job": r["job"],
            "seconds": r["seconds"],
            "ok": r["ok"],
            "layers": {name: t for (job, name), t in self_times.items() if job == r["job"] and name != "job"},
            "counts": r["answer"]["counts"] if r["answer"] else None,
        }
        for r in rows
    ]
    baseline = baseline_rows(args.workload, jobs, profile["share"])
    for line in baseline:
        print(line)
    OUT.mkdir(exist_ok=True)
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "python": sys.version.split()[0],
        "untraced_pass_s": pass_s,
        "traced_pass_s": traced_s,
        "per_layer": {n: metric(values[n], u) for n, u in PER_LAYER.items()},
        "counts": {n: values[n] for n, u in PER_LAYER.items() if u in ("count", "bytes")},
        "digests": {r["job"]: r["answer"] and r["answer"]["digest"] for r in counted_rows},
        "jobs": jobs,
        "baseline": baseline,
        "spans": p.spans,
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace, indent=1) + "\n")
    return trace["per_layer"]


def baseline_rows(workload, job_rows, share):
    """Rows matching the ROADMAP re-anchor baseline, plus the refine
    scaling sweep (cover size, 2-simplices, |H2|, build time per job)."""
    if workload != "refine":
        return []
    out = []
    for r in job_rows:
        c, t = r["counts"], r["layers"]
        if not c or not r["job"].startswith(("connected/", "zero/")):
            continue
        out.append(
            f"row {r['job']}: elements {c['elements']} s1 {c['s1']} s2 {c['s2']} h2 {c['h2']} "
            f"build {t.get('hypercover.build', 0):.3f}s "
            f"validate_selfdual {t.get('family.validate_selfdual', 0):.3f}s "
            f"is_hypercover {t.get('hypercover.coverage', 0):.3f}s"
        )
    out.append(f"row label_key share of profiled self time: {share:.3f}")
    return out


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
