"""Command-line interface: exit codes, reports, determinism."""

import json

import pytest

import toposdescent as td
from toposdescent.cli import main
from toposdescent.serialize import family_to_json, udescent_to_json
from conftest import swap_datum


@pytest.fixture
def files(tmp_path, fixture_cover):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(family_to_json(fixture_cover)))
    u = swap_datum(fixture_cover)
    datum = tmp_path / "swap.json"
    datum.write_text(json.dumps(udescent_to_json(u)))
    bad = udescent_to_json(u)
    bad["sigma"]["(2,2)"]["pt"]["(b,c)"] = {"#0": "#1", "#1": "#0"}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    return tmp_path, str(cover), str(datum), str(bad_path)


def test_nerve_counts_and_dot(files, capsys):
    tmp, cover, _, _ = files
    dot = tmp / "nerve.dot"
    assert main(["nerve", cover, "--dot", str(dot)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"N0": 2, "N1": 4, "N2": 8}
    assert report["valid"] and report["selfdual_groupoid_condition"]
    text = dot.read_text()
    assert "digraph" in text and "->" in text


def test_nerve_singleton_counts(tmp_path, singleton_cover, capsys):
    cover = tmp_path / "c.json"
    cover.write_text(json.dumps(family_to_json(singleton_cover)))
    assert main(["nerve", str(cover)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"N0": 1, "N1": 1, "N2": 1}


def test_nerve_malformed_input(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    assert main(["nerve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_refine_connected_verdicts(files, capsys):
    tmp, cover, _, _ = files
    out = tmp / "refined.json"
    assert main(["refine", cover, "--class", "connected", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["condition_g"] and report["hypercover"]
    assert report["selfdual_violations"] == []


def test_refine_starved_class_lists_uncovered(tmp_path, two_singleton_cover, capsys):
    cover = tmp_path / "c.json"
    cover.write_text(json.dumps(family_to_json(two_singleton_cover)))
    comps = td.family_components(two_singleton_cover)
    spans = {"spans": []}
    for i, u in sorted(comps.items()):
        spans["spans"].append(
            {
                "i": i,
                "j": i,
                "vertex": {"fibers": {"pt": list(u.fibers["pt"])}, "restrictions": {}},
                "left": {"pt": {e: e for e in u.fibers["pt"]}},
                "right": {"pt": {e: e for e in u.fibers["pt"]}},
            }
        )
    cls = tmp_path / "cls.json"
    cls.write_text(json.dumps(spans))
    assert main(["refine", str(cover), "--class", f"one:{cls}"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["hypercover"]
    assert report["uncovered"]["level1"]


def test_refine_rejects_disconnected_for_zero_without_components(files, capsys):
    tmp, cover, _, _ = files
    cls = tmp / "cls.json"
    cls.write_text(json.dumps({"members": [{"fibers": {"pt": ["z"]}, "restrictions": {}}]}))
    assert main(["refine", cover, "--class", f"zero:{cls}"]) == 2


def test_groupoid_full_nerve(tmp_path, two_singleton_cover, capsys):
    nerve, tau = td.cech_nerve(two_singleton_cover)
    from toposdescent.serialize import sset_to_json

    path = tmp_path / "sset.json"
    path.write_text(json.dumps(sset_to_json(nerve, tau)))
    assert main(["groupoid", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["objects"]) == 2
    assert report["generator_count"] == 4
    assert report["relation_count"] == 10  # 8 triangles + 2 identity designations


def test_groupoid_refined_flag(files, capsys):
    tmp, cover, _, _ = files
    out = tmp / "refined.json"
    assert main(["refine", cover, "--class", "connected", "--out", str(out)]) == 0
    fam = tmp / "family.json"
    fam.write_text(json.dumps(json.loads(out.read_text())["family"]))
    assert main(["groupoid", str(fam), "--g", "--dot", str(tmp / "g.dot")]) == 0
    refined = json.loads(capsys.readouterr().out)
    assert main(["groupoid", str(fam)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert refined["relation_count"] > plain["relation_count"]


def test_groupoid_bare_sset_rejects_g(tmp_path, two_singleton_cover, capsys):
    from toposdescent.serialize import sset_to_json

    nerve, tau = td.cech_nerve(two_singleton_cover)
    path = tmp_path / "sset.json"
    path.write_text(json.dumps(sset_to_json(nerve, tau)))
    assert main(["groupoid", str(path), "--g"]) == 2


def test_descend_check_exit_codes(files, capsys):
    _, cover, datum, bad = files
    assert main(["descend", cover, datum, "--check"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []
    assert main(["descend", cover, bad, "--check"]) == 1
    assert json.loads(capsys.readouterr().out)["violations"]


@pytest.mark.parametrize("case", ["nerve-fibers", "descend-sigma", "refine-left"])
def test_array_for_object_is_an_input_error(files, case, capsys):
    tmp, cover, _, _ = files
    bad = tmp / "bad.json"
    if case == "nerve-fibers":
        doc = json.loads((tmp / "cover.json").read_text())
        doc["total"]["fibers"] = []
        argv = ["nerve", str(bad)]
    elif case == "descend-sigma":
        doc = json.loads((tmp / "swap.json").read_text())
        doc["sigma"] = []
        argv = ["descend", cover, str(bad), "--check"]
    else:
        vertex = {"fibers": {"pt": ["a"]}, "restrictions": {}}
        doc = {"spans": [{"i": "1", "j": "1", "vertex": vertex, "left": [], "right": {"pt": {"a": "a"}}}]}
        argv = ["refine", cover, "--class", f"one:{bad}"]
    bad.write_text(json.dumps(doc))
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_descend_glue(files, capsys):
    _, cover, datum, _ = files
    assert main(["descend", cover, datum, "--glue"]) == 0
    assert json.loads(capsys.readouterr().out)["X_size"] == 2


def test_descend_covproj_main1_main2(files, capsys):
    _, cover, datum, _ = files
    assert main(["descend", cover, datum, "--covproj"]) == 0
    assert json.loads(capsys.readouterr().out)["covering_projection"]
    assert main(["descend", cover, datum, "--main1"]) == 0
    assert json.loads(capsys.readouterr().out)["round_trip_residual"] == []
    assert main(["descend", cover, datum, "--main2"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_descend_all_modes_on_mixed_labels(tmp_path, capsys):
    pt = td.FinPoset.point()
    cover = td.family_from_parts(
        pt, {1: td.constant_presheaf(("a",), pt), "x": td.constant_presheaf(("b", "c"), pt)}
    )
    cover_path, datum_path = tmp_path / "cover.json", tmp_path / "datum.json"
    cover_path.write_text(json.dumps(family_to_json(cover)))
    datum_path.write_text(json.dumps(udescent_to_json(td.enumerate_u_descent_data(cover, 2)[-1])))
    assert json.loads(cover_path.read_text())["index"] == ["#1", "x"]
    for mode in ("--check", "--glue", "--covproj", "--main1", "--main2"):
        assert main(["descend", str(cover_path), str(datum_path), mode]) == 0, mode
        json.loads(capsys.readouterr().out)


def test_progroupoid_chain(tmp_path, capsys):
    pt = td.FinPoset.point()
    cov_a = td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)})
    cov_b = td.family_from_parts(
        pt, {"1": td.constant_presheaf(("a",), pt), "2": td.constant_presheaf(("b",), pt)}
    )
    idx = tmp_path / "index.json"
    idx.write_text(
        json.dumps(
            {
                "nodes": [
                    {"name": "A", "cover": family_to_json(cov_a)},
                    {"name": "B", "cover": family_to_json(cov_b)},
                ],
                "edges": [["A", "B"]],
            }
        )
    )
    assert main(["progroupoid", str(idx)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["transitions"]["A->B"]["strict"]

    single = tmp_path / "single.json"
    single.write_text(
        json.dumps({"nodes": [{"name": "A", "cover": family_to_json(cov_a)}], "edges": []})
    )
    assert main(["progroupoid", str(single)]) == 0

    assert main(["progroupoid", str(tmp_path / "missing.json")]) == 2


def test_progroupoid_on_mixed_node_names(tmp_path, capsys):
    pt = td.FinPoset.point()
    parts = {"1": td.constant_presheaf(("a",), pt), "2": td.constant_presheaf(("b",), pt)}
    covers = [
        td.family_from_parts(pt, {"1": parts["1"]}),
        td.family_from_parts(pt, parts),
        td.family_from_parts(pt, dict(parts, **{"3": td.constant_presheaf(("c",), pt)})),
    ]
    idx = tmp_path / "index.json"
    idx.write_text(
        json.dumps(
            {
                "nodes": [
                    {"name": name, "cover": family_to_json(cov)}
                    for name, cov in zip([1, "B", "C"], covers)
                ],
                "edges": [[1, "B"], ["B", "C"]],
            }
        )
    )
    assert main(["progroupoid", str(idx)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert set(report["transitions"]) == {"1->B", "B->C"}


def test_reports_are_deterministic(files, tmp_path):
    _, cover, datum, _ = files
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["refine", cover, "--class", "connected", "--out", str(out1)]) == 0
    assert main(["refine", cover, "--class", "connected", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_budgets_must_be_positive(files):
    _, cover, _, _ = files
    assert main(["--word-budget", "0", "nerve", cover]) == 2


def test_refine_require_connected_flag(files):
    _, cover, _, _ = files
    # the fixture's second component is disconnected over the point
    assert main(["refine", cover, "--class", "connected", "--require-connected"]) == 2
    assert main(["refine", cover, "--class", "connected"]) == 0


def test_groupoid_empty_sset(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps(
            {
                "S0": [],
                "S1": [],
                "S2": [],
                "d": {"1": [{}, {}], "2": [{}, {}, {}]},
                "s": {"0": [{}], "1": [{}, {}]},
            }
        )
    )
    assert main(["groupoid", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["objects"] == [] and report["generator_count"] == 0
