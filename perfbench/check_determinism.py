"""Check that the benchmark's counts and digests are deterministic.

    python3 perfbench/check_determinism.py [WORKLOAD ...]

For each workload (all four by default) this makes three traced runs at
seed 0: two with PYTHONHASHSEED=0 and one with PYTHONHASHSEED=1.  Every
run must be correct, and the per-layer counts (call counts, tallies, output
sizes and byte counts) and the per-job answer digests written to the trace
file must be identical across the three.  Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("refine", "reload", "descent", "words")


def traced(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run with PYTHONHASHSEED={hash_seed} failed")
    trace = json.loads((HERE / "out" / f"trace-{workload}-seed0.json").read_text())
    return {"counts": trace["counts"], "digests": trace["digests"]}


def main(argv):
    bad = 0
    for workload in argv or WORKLOADS:
        runs = [traced(workload, 0), traced(workload, 0), traced(workload, 1)]
        for what in ("counts", "digests"):
            ref = runs[0][what]
            for label, run in (("repeat", runs[1]), ("PYTHONHASHSEED=1", runs[2])):
                diff = sorted(k for k in ref.keys() | run[what].keys() if ref.get(k) != run[what].get(k))
                if diff:
                    bad += 1
                    print(f"{workload}: {what} differ on {label}: {', '.join(diff)}")
        print(f"{workload}: {len(runs[0]['counts'])} counts, {len(runs[0]['digests'])} digests checked")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
