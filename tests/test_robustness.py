"""Invariants that must hold however the package is run: no ``assert``
statements in the library (``python -O`` strips them), and CLI reports
that are byte-identical across hash seeds and optimisation levels."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toposdescent as td
from toposdescent.serialize import family_to_json

PACKAGE = Path(td.__file__).resolve().parent

# SHA-256 of the CLI reports for the running fixture cover.  Label keys and
# encodings are memoised per sort and per document; these digests pin that
# the memos leave every report byte unchanged.
REFINE_SHA256 = "8a9cc4ac1d4aa6442ab7121368e5fc2e41f599bd014b31babb3eb8a9054c35f6"
NERVE_SHA256 = "565bc55b6be7f465ec6f4fdf151af7dfc09d3a1bbd26ae2a8630b844105bd2ab"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _run_cli(argv, hashseed, optimize=False):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    cmd = [sys.executable] + (["-O"] if optimize else []) + ["-m", "toposdescent.cli"] + argv
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


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
