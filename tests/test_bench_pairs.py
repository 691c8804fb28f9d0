"""The alternating-pairs harness (``tools/bench_pairs.py``) on canned runs.

No runner process is started: the summary is checked on runner lines and
stdout made up here, on the recorded pairs of ``BENCH_21.json``, whose
summary an earlier harness wrote, and on those of ``BENCH_23.json``, whose
runs carry no ``calib_s``.  The recorded commits are checked on temporary
git repositories.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def line(pass_s, rss=40.0, correct=True, failed=0):
    values = {"pass_s": pass_s, "max_job_s": pass_s / 4, "peak_rss_mb": rss, "setup_s": 0.1}
    metrics = {k: {"unit": "s", "value": v} for k, v in values.items()}
    return {"attempted": 10, "correct": correct, "failed": failed, "metrics": metrics}


def canned(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        for side, v in (("change", c), ("parent", p)):
            runs.append({"pair": pair, "side": side, "rc": 0, "wall_s": 1.0, "line": line(v)})
    return runs


def test_summary_of_canned_lines():
    parent = [1.0, 0.9, 1.1, 1.2, 0.8]
    change = [0.7, 0.8, 1.2, 0.75, 0.6]
    s = bench_pairs.summarise(canned(parent, change))
    assert s["pairs"] == 5 and s["all_correct"]
    p = s["pass_s"]
    assert p["parent_q1_median_q3"] == [0.9, 1.0, 1.1]
    assert p["change_q1_median_q3"] == [0.7, 0.75, 0.8]
    assert p["change_over_parent_median"] == -0.25
    assert p["change_lower_pairs"] == 4
    assert p["gap_over_parent_iqr"] == 1.25
    assert p["per_pair_parent"] == parent and p["per_pair_change"] == change
    assert s["peak_rss_mb"]["change_lower_pairs"] == 0


def test_incomplete_pairs_and_failures():
    runs = canned([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    runs[-1]["line"] = None
    runs[-1]["rc"] = 1
    s = bench_pairs.summarise(runs)
    assert s["pairs"] == 2 and not s["all_correct"]
    runs = canned([1.0, 1.0], [0.5, 0.5])
    runs[0]["line"] = line(0.5, failed=1)
    assert not bench_pairs.summarise(runs)["all_correct"]


def test_recorded_summaries_are_reproduced():
    doc = json.loads((ROOT / "BENCH_21.json").read_text())
    for key, runs in doc["pairs"].items():
        got, want = bench_pairs.summarise(runs), doc["summary"][key]
        assert got["pairs"] == want["pairs"] and got["all_correct"] == want["all_correct"]
        for metric in bench_pairs.METRICS:
            assert {f: got[metric][f] for f in want[metric]} == want[metric]


def test_runs_without_calibration_summarise_as_recorded():
    for name in ("BENCH_21.json", "BENCH_23.json"):
        doc = json.loads((ROOT / name).read_text())
        for key, runs in doc["pairs"].items():
            assert not any("calib_s" in r for r in runs)
            got = bench_pairs.summarise(runs)
            assert "host.calib_s" not in got
            if name == "BENCH_23.json":
                assert got == doc["summary"][key]


RESULT = json.dumps(line(1.25))


@pytest.mark.parametrize(
    "stdout, has_result, calib",
    [
        (f"workload refine seed 0: 3 passes\nhost.calib_s 0.081234 s\npass_s 1.25 s\n{RESULT}\n", True, 0.081234),
        (f"pass_s 1.25 s\n{RESULT}\n", True, None),
        (f"host.calib_s slow s\nhost.calib_s 0.1\n{RESULT}", True, None),
        # the calibration line counts only before the result line
        (f"{RESULT}\nhost.calib_s 0.081234 s\n", False, None),
    ],
)
def test_calibration_is_read_off_the_stdout(stdout, has_result, calib):
    got = bench_pairs.read_stdout(stdout)
    assert got.get("calib_s") == calib
    assert got["line"] == (json.loads(RESULT) if has_result else None)


def test_empty_or_broken_stdout_has_no_line():
    assert bench_pairs.read_stdout("") == {"line": None}
    assert bench_pairs.read_stdout("host.calib_s 0.09 s\n{oops") == {"line": None, "calib_s": 0.09}


def test_summary_gives_quartiles_of_the_calibration():
    runs = canned([1.0, 0.9, 1.1, 1.2, 0.8], [0.7, 0.8, 1.2, 0.75, 0.6])
    plain = bench_pairs.summarise(runs)
    calib = {"parent": [0.10, 0.12, 0.08, 0.11, 0.09], "change": [0.14, 0.10, 0.12, 0.16, 0.13]}
    for run in runs:
        run["calib_s"] = calib[run["side"]][run["pair"] - 1]
    s = bench_pairs.summarise(runs)
    assert s["host.calib_s"] == {
        "parent_q1_median_q3": [0.09, 0.1, 0.11],
        "change_q1_median_q3": [0.12, 0.13, 0.14],
    }
    assert {k: v for k, v in s.items() if k != "host.calib_s"} == plain


def test_pairs_alternate_and_append(monkeypatch):
    calls = []

    def fake_run(tree, argv, trace_file):
        calls.append(tree)
        return {"rc": 0, "wall_s": 0.0, "line": line(1.0 if tree == "P" else 0.5), "jobs": {"j": {"seconds": 0.1, "layers": {}}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    runs = bench_pairs.run_pairs({"parent": "P", "change": "C"}, [], 3, log=lambda s: None)
    assert calls == ["C", "P", "P", "C", "C", "P"]
    assert [r["pair"] for r in runs] == [1, 1, 2, 2, 3, 3]
    doc = bench_pairs.merge({}, "descent/seed0", runs, 0, [])
    more = bench_pairs.run_pairs({"parent": "P", "change": "C"}, [], 1, first_pair=4, log=lambda s: None)
    bench_pairs.merge(doc, "descent/seed0", more, 0, [])
    assert doc["summary"]["descent/seed0"]["pairs"] == 4
    assert doc["summary"]["descent/seed0"]["pass_s"]["change_lower_pairs"] == 4
    traced = bench_pairs.merge(doc, "descent/seed0", more, 1, ["run"])["traced"]
    assert traced["command"] == "run"
    assert [(r["side"], r["metrics"]["pass_s"]) for r in traced["runs"]] == [("parent", 1.0), ("change", 0.5)]
    assert traced["runs"][0]["jobs"] == {"j": {"seconds": 0.1, "layers": {}}}


def test_command_line_needs_its_trees():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "descent", "--out", "BENCH_0.json"])


def git(cwd, *args):
    cmd = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args]
    return subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A git work tree with one commit, holding a plain directory ``sub``."""
    top = tmp_path / "repo"
    (top / "sub").mkdir(parents=True)
    (top / "sub" / "f.txt").write_text("x\n")
    git(top, "init", "-q")
    git(top, "add", "-A")
    git(top, "commit", "-q", "-m", "one")
    return top


def test_commit_of_the_top_of_a_work_tree(repo, capsys):
    assert bench_pairs.commit_of(repo) == git(repo, "rev-parse", "HEAD")
    assert capsys.readouterr().err == ""


def test_no_commit_for_a_directory_inside_another_repository(repo, capsys):
    assert bench_pairs.commit_of(repo / "sub") is None
    assert str(repo / "sub") in capsys.readouterr().err


def test_no_commit_for_an_archived_tree(repo, tmp_path, capsys):
    archive = tmp_path / "archive.tar"
    git(repo, "archive", "-o", str(archive), "HEAD")
    tree = tmp_path / "archived"
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    assert (tree / "sub" / "f.txt").exists() and not (tree / ".git").exists()
    assert bench_pairs.commit_of(tree) is None
    assert str(tree) in capsys.readouterr().err


def test_no_commit_before_the_first(tmp_path, capsys):
    git(tmp_path, "init", "-q")
    assert bench_pairs.commit_of(tmp_path) is None
    assert str(tmp_path) in capsys.readouterr().err


def test_both_commits_are_recorded(repo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda trees, argv, pairs, first, log, trace: canned([1.0], [0.5]))
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", str(repo / "sub"), "--change", str(repo), "--workload", "words", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["parent_commit"] is None
    assert doc["change_commit"] == git(repo, "rev-parse", "HEAD")
    assert doc["summary"]["words/seed0"] == {"pairs": 1, "all_correct": True}
    assert str(repo / "sub") in capsys.readouterr().err
