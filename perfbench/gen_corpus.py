"""Regenerate the benchmark corpus and its expected answers.

    PYTHONHASHSEED=0 python3 perfbench/gen_corpus.py

Writes ``perfbench/corpus/`` from the fixtures in ``tests/conftest.py``:
the 12 covers of ``generated_covers``, the zero-span class files, the
fixture's cover descent data at bound 3, the progroupoid index files, the
strict one-span chain of acceptance criterion 10, the free endo-loop
simplicial set, and the ``refine`` output families that ``reload``
decodes.  Then it runs every job of every workload at seed 0 and records
its answer in ``corpus/expected.json``, next to the SHA-256 of every
corpus file.  Finally it reruns at seeds 1 and 2 and fails unless the
label-free counts agree, so the counts checked at other seeds are known to
be label-free.
"""

import gzip
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import toposdescent as td  # noqa: E402
from conftest import free_endo_sset, generated_covers, point  # noqa: E402
from toposdescent.serialize import (  # noqa: E402
    enc_label,
    family_to_json,
    presheaf_map_to_json,
    presheaf_to_json,
    selfdual_family_to_json,
    sset_to_json,
    udescent_to_json,
)

import relabel  # noqa: E402
import workloads  # noqa: E402
from tracing import Pass  # noqa: E402


def write(rel, data):
    path = CORPUS / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, (dict, list)):
        data = json.dumps(data, indent=2, sort_keys=True) + "\n"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())


def one_class_json(spans):
    return {
        "spans": [
            {
                "i": enc_label(s.i),
                "j": enc_label(s.j),
                "vertex": presheaf_to_json(s.vertex),
                "left": presheaf_map_to_json(s.left),
                "right": presheaf_map_to_json(s.right),
            }
            for s in spans
        ]
    }


def strict_chain():
    """The nested one-span chain of acceptance criterion 10."""
    pt = point()
    cover = td.family_from_parts(
        pt, {"1": td.constant_presheaf(("a",), pt), "2": td.constant_presheaf(("b",), pt)}
    )
    comps = td.family_components(cover)
    ident = [
        td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
        for i, u in sorted(comps.items())
    ]
    reps = td.representable_spans(cover)
    extra = []
    for ii in sorted(comps):
        for jj in sorted(comps):
            for v in (comps["1"], comps["2"]):
                for u in td.hom_enumerate(v, comps[ii]):
                    for w in td.hom_enumerate(v, comps[jj]):
                        extra.append(td.ClassSpan(ii, jj, v, u, w))
    return cover, ident + reps, ident + reps + extra


def check_disjoint(name, cover_json, *others):
    """Element labels must never coincide with another atom at a label
    position, or relabelling would rename more than the elements."""
    elements = relabel.element_labels(cover_json)
    atoms = set(cover_json["poset"]["points"]) | set(cover_json["index"])
    for labels in others:
        for label in labels:
            atoms.update(relabel.ATOM.findall(label))
    clash = elements & atoms
    if clash:
        raise SystemExit(f"{name}: element labels {sorted(clash)} clash with other labels")


def write_inputs():
    covers = dict(generated_covers())
    assert tuple(covers) == workloads.COVERS
    for name, cover in covers.items():
        write(f"covers/{name}.json", family_to_json(cover))
    for name in workloads.ZERO_SPAN:
        comps = td.family_components(covers[name])
        write(f"zero/{name}.json", {"members": [presheaf_to_json(comps[i]) for i in sorted(comps)]})
    for name in workloads.RELOAD_FAMILIES:
        fam = selfdual_family_to_json(td.connected_refinement(covers[name]))
        check_disjoint(name, family_to_json(covers[name]), fam["sset"]["S1"], fam["sset"]["S2"])
        text = json.dumps(fam, sort_keys=True, separators=(",", ":"))
        write(f"families/{name}.json.gz", gzip.compress(text.encode(), mtime=0))
    fx = covers[workloads.FIXTURE]
    data = td.enumerate_u_descent_data(fx, 3)
    write(f"data/{workloads.FIXTURE}-bound3.json", {"cover": workloads.FIXTURE, "bound": 3, "data": [udescent_to_json(u) for u in data]})
    for a, b in workloads.CHAINS:
        nodes = [{"name": n, "cover": family_to_json(covers[c]), "class": "connected"} for n, c in (("A", a), ("B", b))]
        write(f"index/{a}--{b}.json", {"nodes": nodes, "edges": [["A", "B"]]})
    cover, small, big = strict_chain()
    write("strict/cover.json", family_to_json(cover))
    write("strict/small.json", one_class_json(small))
    write("strict/big.json", one_class_json(big))
    write("sset/free-endo.json", sset_to_json(free_endo_sset()))


def answers(workload, seed):
    prepare, setup, jobs = workloads.WORKLOADS[workload]
    out = {}
    for job_id, fn in jobs(setup(prepare(seed))):
        out[job_id] = json.loads(json.dumps(fn(Pass(False))))
    return out


def main():
    write_inputs()
    manifest = {
        str(path.relative_to(CORPUS)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(CORPUS.rglob("*"))
        if path.is_file() and path.name != "expected.json"
    }
    write("expected.json", {"corpus": manifest, "jobs": {}})
    jobs = {}
    for workload in workloads.WORKLOADS:
        jobs[workload] = answers(workload, 0)
        for seed in (1, 2):
            other = answers(workload, seed)
            for job_id, ans in jobs[workload].items():
                if other[job_id]["counts"] != ans["counts"]:
                    raise SystemExit(f"{workload} {job_id}: counts differ at seed {seed}")
        print(f"{workload}: {len(jobs[workload])} jobs", flush=True)
    write("expected.json", {"corpus": manifest, "jobs": jobs})


if __name__ == "__main__":
    main()
