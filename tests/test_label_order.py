"""Labels already in order are checked, not sorted again.

``sorted_labels`` returns its input as it is when native ``<`` finds every
label no greater than the next, and falls back to the keyed sort when a
pair is out of order or the comparison raises.  On every input, in order
or shuffled, it must agree with the recursive ``label_key`` order, with
equal labels (``1`` and ``True``) left in the order given, and repeated
labels must still raise the errors of the validating constructors.  The
document readers take the same path, so a document whose fibers, levels or
index were written out of order decodes to the same value as the one in
order, and a bad document raises the same error either way.
"""

import gzip
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.fintopos import sorted_labels
from toposdescent.serialize import (
    MAX_LABEL_DEPTH,
    SerializationError,
    family_from_json,
    selfdual_family_from_json,
)
from test_label_memo import atoms, label_pool, ref_label_key

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def nest(x, depth):
    for _ in range(depth):
        x = (x,)
    return x


@st.composite
def edge_labels(draw):
    """Labels from ``label_pool`` plus the cases where native ``<`` could
    part from ``label_key``: repeats, ``1`` beside ``True``, tuples sharing a
    head that differ first in an int, a string or a tuple, that head itself
    as a proper prefix, and labels nested up to ``MAX_LABEL_DEPTH``."""
    xs = list(draw(label_pool()))
    head = tuple(draw(st.lists(atoms, max_size=3)))
    tails = draw(st.lists(st.one_of(atoms, st.tuples(atoms)), min_size=2, max_size=4))
    xs += [head + (tail,) for tail in tails]
    xs.append(head)
    xs += draw(st.sampled_from([[1, True], [True, 1], [(1, "a"), (True, "a")], [(0,), (False,)]]))
    depth = draw(st.integers(1, MAX_LABEL_DEPTH))
    leaves = draw(st.lists(atoms, min_size=1, max_size=3))
    xs += [nest(leaf, depth) for leaf in leaves]
    xs.append(nest(leaves[0], depth - 1))
    xs += draw(st.lists(st.sampled_from(xs), max_size=5))
    return xs


def same_labels(a, b):
    """Equal, and with the same atoms: ``1`` and ``True`` are told apart."""
    return list(map(repr, a)) == list(map(repr, b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_labels(), st.randoms(use_true_random=False))
def test_sorted_labels_matches_recursive_order_in_order_and_shuffled(xs, rnd):
    ordered = sorted(xs, key=ref_label_key)
    shuffled = rnd.sample(xs, len(xs))
    for ys in (ordered, shuffled, ordered[::-1]):
        assert same_labels(sorted_labels(ys), sorted(ys, key=ref_label_key))
    assert same_labels(sorted_labels(iter(ordered)), ordered)
    assert type(sorted_labels(ordered)) is tuple


def test_labels_in_order_come_back_unsorted(monkeypatch):
    """In-order labels of one kind never reach the keyed sort."""
    monkeypatch.setattr(td.fintopos, "label_key", None)
    for xs in ((), (5,), (-2, 0, 0, 7), ("a", "ab", "b"), ((), ("a",), ("a", 1), ("b",)), (1, True, 2)):
        assert sorted_labels(xs) is xs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edge_labels(), st.data())
def test_in_order_repeats_still_raise(xs, data):
    ordered = sorted(set(xs), key=ref_label_key)
    k = data.draw(st.integers(0, len(ordered) - 1))
    twice = ordered[: k + 1] + ordered[k:]
    pt = td.FinPoset.point()
    with pytest.raises(ValueError, match=r"^fiber at 'pt' lists an element twice$"):
        td.Presheaf(pt, {"pt": twice}, {})
    with pytest.raises(ValueError, match=r"^fiber at 'pt' lists an element twice$"):
        td.constant_presheaf(twice, pt)
    for n in (0, 1, 2):
        levels = [(), (), ()]
        levels[n] = twice
        with pytest.raises(ValueError, match=rf"^level {n} lists a simplex twice$"):
            td.TruncSSet(*levels, {}, {})


def test_equal_labels_of_two_types_count_as_a_repeat():
    pt = td.FinPoset.point()
    with pytest.raises(ValueError, match="lists an element twice"):
        td.Presheaf(pt, {"pt": (1, True)}, {})
    with pytest.raises(ValueError, match="lists an element twice"):
        td.constant_presheaf(((True, "a"), (1, "a")), pt)
    with pytest.raises(ValueError, match="level 1 lists a simplex twice"):
        td.TruncSSet((), (0, 1, True), (), {}, {})


def family_document():
    raw = gzip.decompress((CORPUS / "families" / "vee-two-reps.json.gz").read_bytes())
    return json.loads(raw)


def permuted_family(doc):
    """The document with a fiber of level one and the level ``S1`` of the
    index written in reverse order."""
    doc = json.loads(json.dumps(doc))
    fibers = doc["levels"]["1"]["fibers"]
    p = max(fibers, key=lambda q: len(fibers[q]))
    fibers[p].reverse()
    doc["sset"]["S1"].reverse()
    return doc


def decode_error(read, doc):
    with pytest.raises(SerializationError) as exc:
        read(doc)
    return str(exc.value)


def test_family_document_out_of_order_decodes_to_the_same_family():
    doc = family_document()
    back = permuted_family(doc)
    assert back != doc
    want, got = selfdual_family_from_json(doc), selfdual_family_from_json(back)
    assert got.base.sset == want.base.sset
    assert got.base.sset.s1 == want.base.sset.s1
    for n in (0, 1, 2):
        assert got.base.level(n) == want.base.level(n)
    assert got.base.face == want.base.face
    assert got.base.degen == want.base.degen
    assert got.base.zeta == want.base.zeta
    assert (got.tau1, got.tau2, got.tau_s) == (want.tau1, want.tau2, want.tau_s)


def test_family_document_repeats_raise_the_same_error_in_either_order():
    doc = family_document()
    for permute in (False, True):
        bad = permuted_family(doc) if permute else json.loads(json.dumps(doc))
        fibers = bad["levels"]["1"]["fibers"]
        p = max(fibers, key=lambda q: len(fibers[q]))
        fibers[p].insert(3, fibers[p][3])
        assert decode_error(selfdual_family_from_json, bad) == (
            f"bad presheaf: fiber at {p!r} lists an element twice"
        )
        bad = permuted_family(doc) if permute else json.loads(json.dumps(doc))
        bad["sset"]["S1"].insert(2, bad["sset"]["S1"][2])
        assert decode_error(selfdual_family_from_json, bad) == (
            "bad simplicial set: level 1 lists a simplex twice"
        )


def test_cover_document_index_out_of_order():
    doc = json.loads((CORPUS / "covers" / "point-2x3.json").read_text())
    assert len(doc["index"]) > 1
    back = json.loads(json.dumps(doc))
    back["index"].reverse()
    assert back["index"] != doc["index"]
    want, got = family_from_json(doc), family_from_json(back)
    assert got.index == want.index
    assert got.total == want.total
    assert got.struct_map == want.struct_map
    for permuted in (doc, back):
        bad = json.loads(json.dumps(permuted))
        bad["index"].insert(1, bad["index"][1])
        assert decode_error(family_from_json, bad) == "bad family: fiber at 'pt' lists an element twice"
