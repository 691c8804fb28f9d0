"""Fuzz ``descend`` with one edit at a time to committed descent data.

    python3 tools/fuzz_descend.py

Each example takes one datum of a cover and makes one edit to it: a
carrier element replaced or added, an entry dropped, an empty point table
dropped, a sigma value changed, a stray key added, or a value swapped for
one of another type.  The data are those of
``perfbench/corpus/data/point-1x2-bound3.json`` on the one-point cover
``point-1x2``, and the 4 data at bound 2 of ``chain-rep-and-lower``, a
cover of the two-point chain, enumerated and written by
``udescent_to_json`` here; some of its pairwise products are empty at a
point.  The edited datum goes through ``cli.main`` on its cover with
``--check``, ``--glue``, ``--covproj`` and ``--main1``, and each run must
keep the CLI's contract:

- the exit code is 0, 1 or 2;
- exit 2 prints exactly one ``error:`` line;
- no other exception escapes;
- when ``--check`` exits 0, the decoded carriers have no repeats, and
  ``--main1`` exits 0 too: a datum the check accepts is a covering
  projection whose witness datum gives the datum back.

The search is derandomized, so a run is reproducible.  Runs ``EXAMPLES``
edited data; exits 1 and prints the failing example on a violation.
``tests/test_fuzz_descend.py`` runs the same property on a few examples.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from toposdescent.cli import main as cli_main  # noqa: E402
from toposdescent.descent import enumerate_u_descent_data  # noqa: E402
from toposdescent.serialize import family_from_json, udescent_from_json, udescent_to_json  # noqa: E402

CORPUS = ROOT / "perfbench" / "corpus"
COVERS = ("point-1x2", "chain-rep-and-lower")
MODES = ("--check", "--glue", "--covproj", "--main1")
LABELS = ("#0", "#1", "#2", "#9", "x", "")
STRAY_KEYS = ("3", "(1,3)", "(3,1)", "q", "(a,z)", "#9", "extra")
OTHER_TYPES = (None, 0, 1.5, True, "x", [], {}, ["#0"], {"#0": "#0"})
KINDS = ("carrier", "drop", "empty", "sigma", "stray", "type")
EXAMPLES = 2000


def cover_path(name):
    return CORPUS / "covers" / f"{name}.json"


@lru_cache(maxsize=None)
def cover(name):
    return family_from_json(json.loads(cover_path(name).read_text()))


@lru_cache(maxsize=None)
def corpus_data(name):
    """The data of the named cover, as documents."""
    if name == "point-1x2":
        return tuple(json.loads((CORPUS / "data" / "point-1x2-bound3.json").read_text())["data"])
    return tuple(udescent_to_json(u) for u in enumerate_u_descent_data(cover(name), 2))


def _nodes(doc, path=()):
    """Every path into ``doc``, its root first, in document order."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _nodes(v, path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def edited_data(draw):
    """``(name, index, kind, path, doc)``: datum ``index`` of the cover
    ``name`` with one edit of ``kind`` at ``path``; an ``empty`` edit of a
    datum without an empty point table leaves it as it is."""
    name = draw(st.sampled_from(COVERS))
    data = corpus_data(name)
    index = draw(st.integers(0, len(data) - 1))
    doc = copy.deepcopy(data[index])
    kind = draw(st.sampled_from(KINDS))
    paths = list(_nodes(doc))
    if kind == "carrier":
        i = draw(st.sampled_from(sorted(doc["carriers"])))
        car = doc["carriers"][i]
        k = draw(st.integers(0, len(car)))
        path = ("carriers", i, k)
        label = draw(st.sampled_from(tuple(car) + LABELS))
        if k == len(car):
            car.append(label)
        else:
            car[k] = label
    elif kind == "drop":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "empty":
        empty = [p for p in paths if len(p) == 3 and p[0] == "sigma" and _at(doc, p) == {}]
        path = draw(st.sampled_from(empty)) if empty else ()
        if path:
            del _at(doc, path[:-1])[path[-1]]
    elif kind == "sigma":
        leaves = [p for p in paths if len(p) == 5 and p[0] == "sigma"]
        path = draw(st.sampled_from(leaves)) if leaves else ("carriers",)
        parent = _at(doc, path[:-1])
        parent[path[-1]] = draw(st.sampled_from(LABELS))
    elif kind == "stray":
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), dict)]))
        node = _at(doc, path)
        value = draw(st.sampled_from([{}, "#0", copy.deepcopy(next(iter(node.values()), {}))]))
        path += (draw(st.sampled_from(STRAY_KEYS)),)
        node[path[-1]] = value
    else:
        path = draw(st.sampled_from(paths))
        old = _at(doc, path)
        new = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
        if path:
            _at(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    return name, index, kind, path, doc


def run_descend(name, datum_path, mode):
    """``cli.main`` on the named cover and the datum file: exit code, stdout
    and stderr.  An exception that ``cli.main`` lets out propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["descend", str(cover_path(name)), str(datum_path), mode])
    return code, out.getvalue(), err.getvalue()


def check(case):
    """Raise ``AssertionError`` unless every mode keeps the contract on the
    edited datum of ``case``."""
    name, _, _, _, doc = case
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "datum.json"
        path.write_text(json.dumps(doc))
        for mode in MODES:
            code, _, err = run_descend(name, path, mode)
            codes[mode] = code
            assert code in (0, 1, 2), f"{mode}: exit code {code!r}"
            if code == 2:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), f"{mode}: stderr {err!r}"
            if mode == "--check" and code == 0:
                u = udescent_from_json(doc, cover(name))
                for i, car in u.carrier.items():
                    assert len(set(car)) == len(car), f"--check accepted a repeated carrier at {i!r}"
    if codes["--check"] == 0:
        assert codes["--main1"] == 0, f"--check exits 0 but --main1 exits {codes['--main1']!r}"


def main():
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edited_data())
    def fuzz(case):
        name, index, kind, path, _ = case
        try:
            check(case)
        except Exception as exc:
            raise AssertionError(f"{name} datum {index}, {kind} edit at {path!r}: {type(exc).__name__}: {exc}")

    try:
        fuzz()
    except AssertionError as exc:
        print(f"contract broken: {exc}", file=sys.stderr)
        return 1
    print(f"{EXAMPLES} edited data: every descend mode kept the contract")
    return 0


if __name__ == "__main__":
    sys.exit(main())
