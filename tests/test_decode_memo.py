"""The iterative, memoised label decoder against the recursive one it
replaced.

``dec_label`` scans a label with an explicit stack, and the document
readers decode each distinct string once through a per-call memo.  Both
must agree with the recursive character-by-character parser kept here,
in value and in error message, except on the inputs rejected on purpose:
integer labels not in the form ``enc_label`` writes, and tuples nested
deeper than ``MAX_LABEL_DEPTH``.
"""

import gzip
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.serialize import (
    MAX_LABEL_DEPTH,
    SerializationError,
    dec_label,
    enc_label,
    family_to_json,
    selfdual_family_from_json,
    selfdual_family_to_json,
)
from conftest import generated_covers

CORPUS_FAMILIES = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "families"


def ref_parse_label(s: str, pos: int):
    """The recursive parser the decoder replaced, unchanged."""
    if pos >= len(s):
        raise SerializationError(f"unexpected end of label {s!r}")
    if s[pos] == "(":
        pos += 1
        parts = []
        if pos < len(s) and s[pos] == ")":
            return (), pos + 1
        while True:
            part, pos = ref_parse_label(s, pos)
            parts.append(part)
            if pos >= len(s):
                raise SerializationError(f"unterminated tuple in label {s!r}")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == ")":
                return tuple(parts), pos + 1
            raise SerializationError(f"malformed tuple in label {s!r}")
    start = pos
    while pos < len(s) and s[pos] not in ",()":
        pos += 1
    atom = s[start:pos]
    if atom.startswith("#"):
        try:
            return int(atom[1:]), pos
        except ValueError as exc:
            raise SerializationError(f"malformed integer label {atom!r}") from exc
    if not atom:
        raise SerializationError(f"empty atom in label {s!r}")
    return atom, pos


def ref_dec_label(s):
    out, pos = ref_parse_label(s, 0)
    if pos != len(s):
        raise SerializationError(f"trailing characters in label {s!r}")
    return out


def outcome(decode, s):
    try:
        return ("ok", decode(s))
    except SerializationError as exc:
        return ("error", str(exc))


def newly_rejected(s):
    """An integer atom the old parser read through ``int()`` but that
    ``enc_label`` never writes."""
    for atom in re.split(r"[(),]", s):
        if atom.startswith("#"):
            try:
                value = int(atom[1:])
            except ValueError:
                continue
            if atom != enc_label(value):
                return True
    return False


def assert_agrees(strings):
    memo = {}
    for s in strings:
        want = outcome(ref_dec_label, s)
        assert outcome(dec_label, s) == want, s
        assert outcome(lambda x: dec_label(x, memo), s) == want, s
        assert outcome(lambda x: dec_label(x, memo), s) == want, s


def document_strings(doc, out):
    """Every string in a JSON document, keys included; restriction keys
    ``q>p`` also give their two halves."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.add(k)
            out.update(k.split(">"))
            document_strings(v, out)
    elif isinstance(doc, list):
        for v in doc:
            document_strings(v, out)
    elif isinstance(doc, str):
        out.add(doc)
    return out


@pytest.fixture(scope="module")
def zero_span_refinements():
    """Zero-span refinements by the class of all components."""
    covers = dict(generated_covers())
    out = {}
    for name in ("point-3x1", "chain-two-reps"):
        comps = td.family_components(covers[name])
        out[name] = td.zero_span_refinement(covers[name], td.SpanClass(tuple(comps.values())))
    return out


def test_decoder_agrees_on_every_document_string(generated_refinements, zero_span_refinements):
    strings = set()
    for _, cover, ref in generated_refinements:
        document_strings(family_to_json(cover), strings)
        document_strings(selfdual_family_to_json(ref), strings)
    for ref in zero_span_refinements.values():
        document_strings(selfdual_family_to_json(ref), strings)
    assert len(strings) > 10000
    assert_agrees(sorted(strings))


labels = st.recursive(
    st.one_of(
        st.integers(min_value=-(10**12), max_value=10**12),
        st.text(alphabet="abcsp*XY0_- ", min_size=1, max_size=4),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(labels, min_size=1, max_size=10))
def test_encoded_labels_decode_like_the_recursive_parser(xs):
    memo = {}
    for x in xs:
        s = enc_label(x)
        assert dec_label(s) == ref_dec_label(s) == x
        assert dec_label(s, memo) == x
        assert dec_label(s, memo) is memo[s]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.text(alphabet="(),#ab01-_ ٣", max_size=12))
def test_malformed_strings_raise_the_same_errors(s):
    if newly_rejected(s):
        assert outcome(dec_label, s)[0] == "error"
    else:
        assert_agrees([s])


def test_every_short_string_decodes_like_the_recursive_parser():
    strings = ["".join(t) for n in range(6) for t in itertools.product("(),#-0a", repeat=n)]
    assert_agrees([s for s in strings if not newly_rejected(s)])


@pytest.mark.parametrize(
    "s",
    ["", "(", "(a", "(a,", "(a(b))", "((a)b)", "a)", "(a)b", "()()", "#", "#x", "(,a)", "(a,)", ")"],
)
def test_each_error_message_matches(s):
    want = outcome(ref_dec_label, s)
    assert want[0] == "error"
    assert_agrees([s])


@pytest.mark.parametrize("s", ["#1_0", "# 1", "#1 ", "#+1", "#٣", "#01", "#-0", "#00", "(a,#01)"])
def test_integer_labels_have_one_encoding(s):
    assert outcome(ref_dec_label, s)[0] == "ok"
    with pytest.raises(SerializationError, match="malformed integer label"):
        dec_label(s)


@pytest.mark.parametrize("n", [0, 1, -1, 7, -42, 10**20])
def test_integer_labels_round_trip(n):
    assert dec_label(enc_label(n)) == n


def test_failed_decode_leaves_memo_unchanged():
    memo = {}
    dec_label("(a,#1)", memo)
    before = dict(memo)
    for _ in range(2):
        with pytest.raises(SerializationError, match="unterminated tuple"):
            dec_label("(a,#1", memo)
        assert memo == before
    with pytest.raises(SerializationError, match="label must be a string"):
        dec_label(["(", ")"], memo)
    assert memo == before


def test_nesting_limit():
    ok = "(" * MAX_LABEL_DEPTH + "a" + ")" * MAX_LABEL_DEPTH
    assert dec_label(ok) == ref_dec_label(ok)
    deep = "(" * 3000 + "a" + ")" * 3000
    for s in (deep, "(" * (MAX_LABEL_DEPTH + 1) + ")" * (MAX_LABEL_DEPTH + 1)):
        with pytest.raises(SerializationError, match="nests tuples deeper"):
            dec_label(s)


def test_selfdual_round_trip_of_generated_refinements(generated_refinements, zero_span_refinements):
    fams = [ref for _, _, ref in generated_refinements] + list(zero_span_refinements.values())
    for fam in fams:
        assert selfdual_family_from_json(selfdual_family_to_json(fam)) == fam


# The two memo shortcuts: an element ``(w,x)`` with ``w`` already decoded,
# and a flat sub-tuple ``(...)`` already decoded.  A string that takes one
# must decode as the scan without a memo does, and a string that fails
# must raise the scan's error and leave the memo as it was.

DEEP = "(" * MAX_LABEL_DEPTH + "a" + ")" * MAX_LABEL_DEPTH
SIMPLICES = ["(sp,1,1,#0,#0,#0)", "(sp2,(sp,1,1,#0,#0,#0),(sp,1,#2),#0,#0)", "()", DEEP]
TAILS = ["a", "u*", "#0", "#-7", "#01", "#-0", "#", "", "a)b", "(a", "a,b", "(a)", ")", "b>a"]


def memo_with(*labels):
    memo = {}
    for s in labels:
        dec_label(s, memo)
    return memo


def test_element_at_the_nesting_limit_still_raises():
    memo = memo_with(DEEP, "(a)")
    before = dict(memo)
    with pytest.raises(SerializationError, match="nests tuples deeper"):
        dec_label(f"({DEEP},b)", memo)
    assert memo == before


@pytest.mark.parametrize("w", SIMPLICES[:2])
@pytest.mark.parametrize("s", ["({w},#01)", "({w},)", "({w},a)b", "({w},(a)"])
def test_malformed_elements_raise_the_scan_error(w, s):
    s = s.format(w=w)
    memo = memo_with(w, "(sp,1,1,#0,#0,#0)", "(a)")
    before = dict(memo)
    want = outcome(dec_label, s)
    assert want[0] == "error"
    if not newly_rejected(s):
        assert want == outcome(ref_dec_label, s)
    assert outcome(lambda x: dec_label(x, memo), s) == want
    assert memo == before


@pytest.mark.parametrize("w", SIMPLICES)
def test_elements_and_sub_tuples_of_decoded_labels(w):
    """Each simplex in the memo, as the head of an element and as a part
    anywhere in a longer string, against every kind of tail."""
    strings = []
    for x in TAILS:
        strings += [f"({w},{x})", f"({x},{w})", f"(({w},{x}),{x})", f"({w},{x}", f"({w}{x})"]
    for s in strings:
        memo = memo_with(w, "(a)", "(sp,1,1,#0,#0,#0)")
        before = dict(memo)
        want = outcome(dec_label, s)
        if not newly_rejected(s) and s.count("(") <= MAX_LABEL_DEPTH:
            assert want == outcome(ref_dec_label, s), s
        assert outcome(lambda y: dec_label(y, memo), s) == want, s
        if want[0] == "error":
            assert memo == before, s


def test_element_shortcut_shares_the_decoded_simplex():
    w = SIMPLICES[1]
    memo = memo_with(w)
    x = dec_label(f"({w},#3)", memo)
    assert x == (ref_dec_label(w), 3)
    assert x[0] is memo[w]


def test_document_strings_in_shuffled_orders(generated_refinements, zero_span_refinements):
    """Every string of the refinement documents, in three fixed shuffled
    orders, each through one memo shared by the whole order: elements come
    both before and after their simplices."""
    strings = set()
    for _, _, ref in generated_refinements:
        document_strings(selfdual_family_to_json(ref), strings)
    for ref in zero_span_refinements.values():
        document_strings(selfdual_family_to_json(ref), strings)
    strings = sorted(strings)
    want = {s: outcome(ref_dec_label, s) for s in strings}
    for seed in range(3):
        order = list(strings)
        random.Random(seed).shuffle(order)
        memo = {}
        for s in order:
            assert outcome(lambda x: dec_label(x, memo), s) == want[s], s


def test_committed_corpus_families_round_trip():
    """Each committed perfbench family (seed 0) decodes and re-encodes to
    its own bytes, dumped as the corpus is."""
    paths = sorted(CORPUS_FAMILIES.glob("*.json.gz"))
    assert len(paths) == 4
    for path in paths:
        raw = gzip.decompress(path.read_bytes())
        fam = selfdual_family_from_json(json.loads(raw))
        text = json.dumps(selfdual_family_to_json(fam), sort_keys=True, separators=(",", ":"))
        assert text.encode() == raw, path.name
