"""Alternating benchmark pairs of two trees, summarised into a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload descent \
        --seed 0 --pairs 10 --seconds 25 --out BENCH_<n>.json

Runs ``perfbench/run.py`` from the root of each tree, one process at a
time.  Odd pairs run the change first and even pairs the parent first, so
a drift of the host's speed falls on both sides alike.  Each run keeps the
runner's last stdout line, its exit code and its wall time, and the
``host.calib_s`` line the runner prints before it, the median time of a
fixed calibration loop, as ``calib_s``.

The BENCH file is read if it exists and written back.  Untraced runs
(``--trace 0``) are appended to ``pairs["<workload>/seed<seed>"]`` and that
key's ``summary`` is recomputed from all its runs: for each end-to-end
metric, the parent's and the change's quartiles (median in the middle),
the change's median over the parent's less one, the number of pairs the
change is lower in, the parent's median less the change's over the
parent's interquartile range, and the per-pair values.  When the runs
carry ``calib_s``, ``host.calib_s`` gives each side's quartiles of it, so a
swing of the host's speed between batches shows in the summary; runs
without it summarise as before.  Traced runs
(``--trace 1``) are appended to ``traced["runs"]`` with their per-layer
metrics and the job times of their traced pass (each job's wall time and
the self times of the layers it calls).  Other keys (``about``,
``claim``) are kept as they are.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("pass_s", "max_job_s", "peak_rss_mb", "setup_s")
SIDES = ("change", "parent")


def command(workload, seed, seconds, trace):
    return [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]


def read_stdout(stdout):
    """A runner's stdout: ``line``, its last line as JSON (``None`` if that
    line is not JSON), and ``calib_s`` if a ``host.calib_s <x> s`` line
    comes before it."""
    lines = stdout.strip().splitlines()
    try:
        out = {"line": json.loads(lines[-1]) if lines else None}
    except json.JSONDecodeError:
        out = {"line": None}
    for text in lines[:-1]:
        words = text.split()
        if len(words) == 3 and words[0] == "host.calib_s" and words[2] == "s":
            try:
                out["calib_s"] = float(words[1])
            except ValueError:
                pass
    return out


def run_once(tree, argv, trace_file=None):
    """One runner process in ``tree``: its exit code, wall time and
    ``read_stdout`` fields, and with a ``trace_file`` (relative to ``tree``)
    the traced pass's job times."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    run = {"rc": proc.returncode, "wall_s": round(wall, 1), **read_stdout(proc.stdout)}
    if trace_file is not None and proc.returncode == 0:
        jobs = json.loads((Path(tree) / trace_file).read_text())["jobs"]
        run["jobs"] = {
            j["job"]: {"seconds": round(j["seconds"], 4), "layers": {k: round(v, 4) for k, v in j["layers"].items()}}
            for j in jobs
        }
    return run


def run_pairs(trees, argv, pairs, first_pair=1, log=print, trace_file=None):
    """``pairs`` alternating pairs over ``trees`` (side -> directory)."""
    runs = []
    for pair in range(first_pair, first_pair + pairs):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            run = {"pair": pair, "side": side, **run_once(trees[side], argv, trace_file)}
            runs.append(run)
            log(f"pair {pair} {side}: rc {run['rc']} in {run['wall_s']} s")
    return runs


def _value(run, metric):
    return run["line"]["metrics"][metric]["value"]


def _quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(median, 4), round(q3, 4)]


def summarise(runs):
    """The summary of one key's untraced runs (see the module docstring).
    A pair counts only if both of its runs gave a result line."""
    by_pair = {}
    for run in runs:
        if run["line"] is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    full = [by_pair[p] for p in sorted(by_pair) if len(by_pair[p]) == 2]
    out = {
        "pairs": len(full),
        "all_correct": all(
            r["rc"] == 0 and r["line"] is not None and r["line"]["correct"] and not r["line"]["failed"]
            for r in runs
        ),
    }
    if len(full) < 2:
        return out
    for metric in METRICS:
        parent = [_value(p["parent"], metric) for p in full]
        change = [_value(p["change"], metric) for p in full]
        pq, cq = _quartiles(parent), _quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        iqr = pq[2] - pq[0]
        out[metric] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_over_parent_median": round(c_med / p_med - 1, 4),
            "change_lower_pairs": sum(c < p for c, p in zip(change, parent)),
            "gap_over_parent_iqr": round((p_med - c_med) / iqr, 2) if iqr else None,
            "per_pair_parent": [round(x, 4) for x in parent],
            "per_pair_change": [round(x, 4) for x in change],
        }
    calib = {side: [p[side]["calib_s"] for p in full if "calib_s" in p[side]] for side in SIDES}
    if all(len(xs) >= 2 for xs in calib.values()):
        out["host.calib_s"] = {f"{side}_q1_median_q3": _quartiles(calib[side]) for side in ("parent", "change")}
    return out


def traced_entries(runs):
    return [
        {
            "pair": r["pair"],
            "side": r["side"],
            "correct": r["line"] is not None and r["line"]["correct"],
            "failed": None if r["line"] is None else r["line"]["failed"],
            "metrics": {} if r["line"] is None else {k: v["value"] for k, v in r["line"]["metrics"].items()},
            "jobs": r.get("jobs", {}),
        }
        for r in runs
    ]


def merge(doc, key, runs, trace, argv):
    """Add ``runs`` to the BENCH document ``doc`` under ``key``."""
    if trace:
        traced = doc.setdefault("traced", {"command": " ".join(argv), "runs": []})
        traced["runs"].extend(traced_entries(runs))
        return doc
    doc.setdefault("pairs", {}).setdefault(key, []).extend(runs)
    doc.setdefault("summary", {})[key] = summarise(doc["pairs"][key])
    return doc


def _commit(tree):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=("refine", "reload", "descent", "words"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    key = f"{args.workload}/seed{args.seed}"
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    done = doc.get("traced", {}).get("runs", []) if args.trace else doc.get("pairs", {}).get(key, [])
    first = max((r["pair"] for r in done), default=0) + 1
    argv_run = command(args.workload, args.seed, args.seconds, args.trace)
    trees = {"change": args.change.resolve(), "parent": args.parent.resolve()}
    trace_file = f"perfbench/out/trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    runs = run_pairs(trees, argv_run, args.pairs, first, lambda s: print(s, file=sys.stderr), trace_file)

    doc.setdefault("parent_commit", _commit(trees["parent"]))
    doc.setdefault("untraced_command", " ".join(command("<w>", "<s>", args.seconds, 0)))
    doc.setdefault("host", f"{os.cpu_count()}-core host, Python {platform.python_version()}")
    merge(doc, key, runs, args.trace, argv_run)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if not args.trace:
        print(json.dumps(doc["summary"][key]))


if __name__ == "__main__":
    main()
