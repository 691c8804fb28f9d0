"""Command-line interface: exit codes, reports, determinism."""

import json
from pathlib import Path

import pytest

import toposdescent as td
from toposdescent.cli import main
from toposdescent.serialize import family_from_json, family_to_json, udescent_to_json
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


@pytest.mark.parametrize("edges", [[["A", "B"], ["B", "A"]], [["A", "A"]]], ids=["2-cycle", "self-loop"])
def test_progroupoid_on_a_cyclic_index_is_an_input_error(tmp_path, edges, capsys):
    pt = td.FinPoset.point()
    cover = family_to_json(td.family_from_parts(pt, {"1": td.constant_presheaf(("a",), pt)}))
    idx = tmp_path / "index.json"
    idx.write_text(
        json.dumps({"nodes": [{"name": n, "cover": cover} for n in "AB"], "edges": edges})
    )
    assert main(["progroupoid", str(idx)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {idx}: refinement diagram has a cycle\n"


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


def test_groupoid_g_on_family_failing_the_filling_condition(tmp_path, fixture_cover, capsys):
    from toposdescent.serialize import selfdual_family_to_json

    fam = td.cech_simplicial_family(fixture_cover)
    assert td.validate_selfdual(fam) == [] and not td.condition_g(fam)
    path = tmp_path / "cech.json"
    path.write_text(json.dumps(selfdual_family_to_json(fam)))
    assert main(["groupoid", str(path), "--g"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "filling condition" in err
    assert main(["groupoid", str(path)]) == 0


def _point_sset_json(s0):
    return {
        "S0": s0,
        "S1": ["l"],
        "S2": ["w"],
        "d": {"1": [{"l": "x"}, {"l": "x"}], "2": [{"w": "l"}] * 3},
        "s": {"0": [{"x": "l"}], "1": [{"l": "w"}, {"l": "w"}]},
    }


@pytest.mark.parametrize(
    "s0, message",
    [
        (["x", "x"], "level 0 lists a simplex twice"),
        (["x", "(" * 3000 + "a" + ")" * 3000], "nests tuples deeper"),
        (["x", "#01"], "malformed integer label"),
    ],
)
def test_groupoid_rejects_bad_sset(tmp_path, capsys, s0, message):
    path = tmp_path / "sset.json"
    path.write_text(json.dumps(_point_sset_json(["x"])))
    assert main(["groupoid", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(_point_sset_json(s0)))
    assert main(["groupoid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad simplicial set: ") and message in err


@pytest.fixture
def argv_of(files, two_singleton_cover):
    """A valid command line for each subcommand, without ``--out``."""
    from toposdescent.serialize import sset_to_json

    tmp, cover, datum, _ = files
    sset = tmp / "sset.json"
    sset.write_text(json.dumps(sset_to_json(*td.cech_nerve(two_singleton_cover))))
    index = tmp / "index.json"
    index.write_text(
        json.dumps({"nodes": [{"name": "A", "cover": family_to_json(two_singleton_cover)}], "edges": []})
    )
    return {
        "nerve": ["nerve", cover],
        "refine": ["refine", cover, "--class", "connected"],
        "groupoid": ["groupoid", str(sset)],
        "descend": ["descend", cover, datum, "--check"],
        "progroupoid": ["progroupoid", str(index)],
    }


def one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {start}") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["nerve", "refine", "groupoid", "descend", "progroupoid"])
def test_out_into_a_missing_directory_is_an_input_error(argv_of, tmp_path, command, capsys):
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    assert main(argv_of[command] + ["--out", str(target)]) == 2
    one_error_line(capsys, f"cannot write {target}: ")
    assert main(argv_of[command] + ["--out", str(tmp_path)]) == 2
    one_error_line(capsys, f"cannot write {tmp_path}: ")
    assert main(argv_of[command] + ["--out", str(tmp_path / "report.json")]) == 0
    assert json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize("command", ["nerve", "groupoid"])
def test_dot_into_a_missing_directory_is_an_input_error(argv_of, tmp_path, command, capsys):
    target = tmp_path / "no" / "such" / "dir" / "graph.dot"
    assert main(argv_of[command] + ["--dot", str(target)]) == 2
    one_error_line(capsys, f"cannot write {target}: ")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, place",
    [
        ("nerve", 1),
        ("refine", 1),
        ("refine", "zero"),
        ("refine", "one"),
        ("groupoid", 1),
        ("descend", 1),
        ("descend", 2),
        ("progroupoid", 1),
    ],
)
def test_input_that_is_not_utf8_is_an_input_error(argv_of, tmp_path, command, place, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"x": 1}')
    argv = list(argv_of[command])
    if isinstance(place, int):
        argv[place] = str(bad)
    else:
        argv[argv.index("connected")] = f"{place}:{bad}"
    assert main(argv) == 2
    one_error_line(capsys, f"{bad}: not UTF-8: ")


def test_input_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["nerve", str(deep)]) == 2
    one_error_line(capsys, f"{deep}: JSON nests too deeply to read")


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


@pytest.mark.parametrize("mode", ["--check", "--glue", "--covproj", "--main1", "--main2"])
def test_descend_on_a_repeated_carrier_is_an_input_error(tmp_path, mode, capsys):
    # datum 5 of the point-1x2 corpus data, its carrier at "2" listing #0 twice
    datum = json.loads((CORPUS / "data" / "point-1x2-bound3.json").read_text())["data"][5]
    datum["carriers"]["2"] = ["#0", "#0", "#1"]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    cover = str(CORPUS / "covers" / "point-1x2.json")
    assert main(["descend", cover, str(path), mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: bad descent datum: carrier at '2' lists an element twice\n"


@pytest.mark.parametrize(
    "argv",
    [["nerve"], ["refine", "--class", "connected"], ["descend", "DATUM", "--check"]],
    ids=["nerve", "refine", "descend"],
)
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["poset"].update(points=["a"]), "bad presheaf: fiber at unknown point 'pt'"),
        (lambda doc: doc["zeta"].update(q={}), "bad family: component at unknown point 'q'"),
    ],
    ids=["fiber", "zeta"],
)
def test_a_cover_keyed_by_a_point_outside_its_base_is_an_input_error(files, argv, edit, message, capsys):
    tmp, cover, datum, _ = files
    doc = json.loads((tmp / "cover.json").read_text())
    edit(doc)
    bad = tmp / "stray.json"
    bad.write_text(json.dumps(doc))
    argv = [argv[0], str(bad)] + [datum if a == "DATUM" else a for a in argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("mode", ["--check", "--glue", "--covproj", "--main1"])
def test_descend_on_a_stray_sigma_entry_reports_the_violation(tmp_path, mode, capsys):
    # datum 5 of the point-1x2 corpus data with an entry at (a,z), which is
    # no element of the pairwise product over (1,1)
    datum = json.loads((CORPUS / "data" / "point-1x2-bound3.json").read_text())["data"][5]
    datum["sigma"]["(1,1)"]["pt"]["(a,z)"] = {"#0": "#0", "#1": "#1"}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    cover = str(CORPUS / "covers" / "point-1x2.json")
    assert main(["descend", cover, str(path), mode]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "violations": ["entry over ('1','1') at 'pt' on ('a', 'z') off the cover"]
    }


@pytest.mark.parametrize("name", ["chain-rep-and-lower", "vee-branches"])
def test_descend_main1_reads_an_omitted_empty_table_as_empty(tmp_path, name, capsys):
    # the first datum at bound 1 without its table of (1,2) at b, where the
    # product is empty: the same datum as with the table written
    cover_path = CORPUS / "covers" / f"{name}.json"
    cover = family_from_json(json.loads(cover_path.read_text()))
    datum = udescent_to_json(td.enumerate_u_descent_data(cover, 1)[0])
    assert datum["sigma"]["(1,2)"]["b"] == {}
    del datum["sigma"]["(1,2)"]["b"]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    assert main(["descend", str(cover_path), str(path), "--check"]) == 0
    assert json.loads(capsys.readouterr().out) == {"violations": []}
    assert main(["descend", str(cover_path), str(path), "--main1"]) == 0
    assert json.loads(capsys.readouterr().out)["round_trip_residual"] == []
