"""Invariants that must hold however the package is run: no ``assert``
statements in the library (``python -O`` strips them), CLI reports that
are byte-identical across hash seeds and optimisation levels, and pinned
enumeration orders and demo outputs."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toposdescent as td
from toposdescent.serialize import (
    action_to_json,
    enc_label,
    family_to_json,
    hdescent_to_json,
    sdescent_to_json,
    udescent_to_json,
)
from conftest import generated_covers, inverse_and_endo_pairs

PACKAGE = Path(td.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of the CLI reports for the running fixture cover.  Label keys and
# encodings are memoised per sort and per document; these digests pin that
# the memos leave every report byte unchanged.
REFINE_SHA256 = "8a9cc4ac1d4aa6442ab7121368e5fc2e41f599bd014b31babb3eb8a9054c35f6"
NERVE_SHA256 = "565bc55b6be7f465ec6f4fdf151af7dfc09d3a1bbd26ae2a8630b844105bd2ab"

# SHA-256 of the cover, family, index and action enumerations at bound 2
# over every generated cover, in enumeration order: data are numbered by
# their position, so a change of order changes reports and hom tables.
ENUMERATION_SHA256 = "1adaea6d563ab7388f58bfc4992f1833b8e790bcdd6562d0bc31358bfb0a8d58"

# SHA-256 of the second pipeline's inputs and reports over the generated
# covers: the index data of each connected refinement at bound 2, and, on
# all covers but the two slowest, the cover data at bound 3 and the
# ``main2_equivalence`` report at bound 2 (object counts, both hom tables,
# round trips and verdict).
MAIN2_SHA256 = "d6a3cfd901b6f52f531a79740af3004cd3d010158b92ed593cdbee9ae35968a5"
MAIN2_SLOW_COVERS = ("point-2x3", "diamond-mixed")

# SHA-256 of the hypercover coverage reports (the missed elements of every
# pairwise product and boundary-triangle limit) of the connected, Čech and
# identity-spans-only families over every generated cover.
COVERAGE_SHA256 = "f4030f6b750d14f08027431de55f096a104791bb6966cf9cc099d7c87baff5e2"

# SHA-256 of the ``repr`` of the hom tables (every equivariant map, in
# order, each dict in insertion order) and of both verdicts of
# ``classifying_category`` at bound 2, on the fixture's connected refinement
# and on the singleton cover's Čech nerve.
CLASSIFYING_SHA256 = "64d147915d476536fd2a9746229ee4be628f8962617935daed08643e9314cc23"

# SHA-256 of the bounded word-problem verdicts on the g-presentation of each
# generated cover's connected refinement: every inverse pair at budget 10
# and every endo pair at budget 6, in 1-simplex order.
WORDS_SHA256 = "19f6fe6fc6523b1b434dfadbf0ef2c4c0f6af220a89b35f2ae68a05f4b7add1f"

# SHA-256 of each demo's stdout under PYTHONHASHSEED=0.
DEMO_SHA256 = {
    "01_presheaves_and_nerves.py": "f7ce2ebf0863f975e9456bf666c61d951e51efed52635cea78a54c2b7216661b",
    "02_span_refinements.py": "67a304bd559c3264641d8039470be8197ca988b0392996372ad2c0b4238421c8",
    "03_fundamental_groupoids.py": "b18f1bab2f999362359f4e63bbe60d4477101c9ee578224d13d00e1247afa59d",
    "04_descent_data.py": "aae1ce559f97ec0fc535fde99e59faedebbed242d908a04c2aa3d15654f419e2",
    "05_gluing_covering_projections.py": "c8e939130f92d33f85af3371a84e4c0de1fd01a056c4ad6457d0989b8bb23434",
    "06_progroupoid.py": "0fa2dc262eb61907121b1152ef439acce2346a7f4486f9fa969016714d133555",
}


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _run(args, hashseed, optimize=False):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    cmd = [sys.executable] + (["-O"] if optimize else []) + args
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _run_cli(argv, hashseed, optimize=False):
    return _run(["-m", "toposdescent.cli"] + argv, hashseed, optimize)


@pytest.mark.parametrize(
    "command, expected",
    [(["refine", "--class", "connected"], REFINE_SHA256), (["nerve"], NERVE_SHA256)],
    ids=["refine", "nerve"],
)
def test_cli_reports_identical_across_processes(tmp_path, fixture_cover, command, expected):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(family_to_json(fixture_cover)))
    argv = command[:1] + [str(cover)] + command[1:]
    runs = [
        _run_cli(argv, hashseed=0),
        _run_cli(argv, hashseed=1),
        _run_cli(argv, hashseed=0, optimize=True),
    ]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert hashlib.sha256(runs[0]).hexdigest() == expected


def test_enumeration_order_pinned():
    doc = []
    for name, cover in generated_covers():
        ref = td.connected_refinement(cover)
        nerve, _ = td.cech_nerve(cover)
        pres = td.g_fundamental_presentation(ref)
        doc.append(
            {
                "cover": name,
                "u": [udescent_to_json(d) for d in td.enumerate_u_descent_data(cover, 2)],
                "h": [hdescent_to_json(d) for d in td.enumerate_h_descent_data(ref, 2)],
                "s": [sdescent_to_json(d) for d in td.enumerate_s_descent_data(nerve, 2)],
                "actions": [action_to_json(a) for a in td.enumerate_actions(pres, 2)],
            }
        )
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_SHA256


def test_main2_inputs_and_reports_pinned():
    doc = []
    for name, cover in generated_covers():
        ref = td.connected_refinement(cover)
        entry = {
            "cover": name,
            "s": [sdescent_to_json(d) for d in td.enumerate_s_descent_data(ref.base.sset, 2)],
        }
        if name not in MAIN2_SLOW_COVERS:
            entry["u"] = [udescent_to_json(d) for d in td.enumerate_u_descent_data(cover, 3)]
            rep = td.main2_equivalence(cover, ref, 2)
            entry["main2"] = {
                "objects": [rep.object_count_data, rep.object_count_actions],
                "hom_data": [[n1, n2, c] for (n1, n2), c in rep.hom_counts_data.items()],
                "hom_actions": [[n1, n2, c] for (n1, n2), c in rep.hom_counts_actions.items()],
                "round_trips_identity": rep.round_trips_identity,
                "ok": rep.ok,
            }
        doc.append(entry)
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MAIN2_SHA256


def test_coverage_reports_pinned():
    doc = {}
    for name, cover in generated_covers():
        ident = [
            td.ClassSpan(i, i, u, td.PresheafMap.identity(u), td.PresheafMap.identity(u))
            for i, u in td.family_components(cover).items()
        ]
        families = {
            "connected": td.connected_refinement(cover).base,
            "cech": td.cech_simplicial_family(cover).base,
            "starved": td.one_span_refinement(cover, td.SpanClassSp(tuple(ident))).base,
        }
        for kind, fam in families.items():
            doc[f"{name}/{kind}"] = {
                level: {
                    enc_label(key): [[enc_label(p), enc_label(e)] for p, e in missed]
                    for key, missed in table.items()
                }
                for level, table in td.hypercover_report(fam).items()
            }
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == COVERAGE_SHA256


def test_classifying_category_pinned(fixture_cover, singleton_cover):
    presentations = [
        td.g_fundamental_presentation(td.connected_refinement(fixture_cover)),
        td.fundamental_presentation(td.cech_nerve(singleton_cover)[0]),
    ]
    cats = [td.classifying_category(pres, 2) for pres in presentations]
    text = repr([(cat.homs, cat.identities_ok, cat.composition_ok) for cat in cats])
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFYING_SHA256


def test_word_verdicts_pinned(generated_refinements):
    doc = []
    for name, _, ref in generated_refinements:
        pres = td.g_fundamental_presentation(ref)
        inverse, endo = inverse_and_endo_pairs(ref.base.sset, ref.tau_s)
        for kind, pairs, budget in (("inverse", inverse, 10), ("endo", endo, 6)):
            for l, w1, w2 in pairs:
                doc.append([name, kind, enc_label(l), td.word_equal(pres, w1, w2, budget).value])
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WORDS_SHA256


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_pinned(demo):
    out = _run([str(DEMOS / demo)], hashseed=0)
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[demo]
