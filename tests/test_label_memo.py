"""Memoised label keys and encodings against the plain recursive forms.

``sorted_labels`` computes each distinct sub-label's key once per sort,
the document writers encode each distinct tuple once per document, and
``Presheaf.key``/``PresheafMap.key`` read items in fiber order instead of
sorting them.  Each must agree with the recursive definition kept here.
"""

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.fintopos import label_key, sorted_labels
from toposdescent.serialize import SerializationError, enc_label
from conftest import chain2, vee


def ref_label_key(x):
    """The recursive label order, with no memo."""
    if isinstance(x, tuple):
        return (2, tuple(ref_label_key(e) for e in x))
    if isinstance(x, str):
        return (1, x)
    return (0, "", x)


def ref_presheaf_key(x):
    fib = tuple((p, x.fibers[p]) for p in x.base.points)
    res = tuple(
        (pq, tuple(sorted(m.items(), key=lambda kv: ref_label_key(kv[0]))))
        for pq, m in sorted(x.restrictions.items())
    )
    return (fib, res)


def ref_map_key(m):
    return tuple(
        (p, tuple(sorted(m.comp[p].items(), key=lambda kv: ref_label_key(kv[0]))))
        for p in m.dom.base.points
    )


atoms = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.text(alphabet="abcsp*XY0", min_size=1, max_size=3),
)


@st.composite
def label_pool(draw):
    """Labels built from atoms and from earlier labels, so that tuples
    share sub-tuples (by value and by identity) the way span labels do."""
    pool = draw(st.lists(atoms, min_size=1, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        parts = draw(st.lists(st.sampled_from(pool), max_size=4))
        pool.append(tuple(parts))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(label_pool())
def test_sorted_labels_matches_recursive_order(xs):
    assert sorted_labels(xs) == tuple(sorted(xs, key=ref_label_key))
    memo = {}
    assert [label_key(x, memo) for x in xs] == [ref_label_key(x) for x in xs]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(label_pool())
def test_enc_label_memo_matches_plain(xs):
    memo = {}
    assert [enc_label(x, memo) for x in xs] == [enc_label(x) for x in xs]
    assert [enc_label(x, memo) for x in reversed(xs)] == [enc_label(x) for x in reversed(xs)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(label_pool(), st.sampled_from("(),#|>"), st.booleans())
def test_reserved_character_raises_with_memo(xs, ch, nested):
    memo = {}
    for x in xs:
        enc_label(x, memo)
    bad = ("ok", f"a{ch}b")
    if nested:
        bad = (xs[0], bad)
    for _ in range(2):
        with pytest.raises(SerializationError):
            enc_label(bad, memo)
    with pytest.raises(SerializationError):
        enc_label(f"a{ch}", memo)


@st.composite
def scrambled_presheaf(draw):
    """A presheaf on a chain or a vee with tuple-heavy labels, its
    restriction dicts given in a drawn order rather than fiber order."""
    base = draw(st.sampled_from([chain2(), vee()]))
    fibers = {
        p: draw(st.lists(st.sampled_from(draw(label_pool())), unique=True, max_size=5))
        for p in base.points
    }
    for p, q in base.strict_pairs():
        if not fibers[p]:
            fibers[q] = []
    rest = {}
    for p, q in base.strict_pairs():
        items = [(e, draw(st.sampled_from(fibers[p]))) for e in fibers[q]]
        rest[(p, q)] = dict(draw(st.permutations(items)))
    return td.Presheaf(base, fibers, rest)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scrambled_presheaf(), st.randoms(use_true_random=False))
def test_presheaf_and_map_keys_match_sorted_form(x, rnd):
    prod, p1, p0 = td.product(x, x)
    for y in (x, prod):
        assert y.key() == ref_presheaf_key(y)
    maps = [td.PresheafMap.identity(x), p1, p0] + td.hom_enumerate(x, td.terminal_presheaf(x.base))
    for m in maps:
        comp = {p: dict(rnd.sample(list(c.items()), len(c))) for p, c in m.comp.items()}
        shuffled = td.PresheafMap(m.dom, m.cod, comp)
        assert m.key() == ref_map_key(m)
        assert shuffled.key() == ref_map_key(shuffled) == m.key()


def test_fiber_with_repeated_element_is_rejected():
    with pytest.raises(ValueError):
        td.Presheaf(td.FinPoset.point(), {"pt": ("a", "a")}, {})
