"""Bounded word equality against the procedure it replaced.

``word_equal`` tests the separating actions first, enumerated once per
presentation and bound, and runs its rewriting search on interned letters
against one rule table per presentation, indexed by first letter.  The
oracles here are the earlier code: the breadth-first search runs on
``Word`` values to the end of its budget before the actions are
enumerated, and every rule of the word-form rule list is scanned for every
word.  The verdicts must agree, the rule table read back as words must be
that rule list, and the ordered neighbour list of every word the oracle
expands must be the same."""

import importlib
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import toposdescent as td
from toposdescent import groupoid
from conftest import (
    free_dual_edge_sset,
    free_endo_sset,
    generated_covers,
    inverse_and_endo_pairs,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


_OLD_RULES = {}


def old_rules(p):
    """The rewrite rules as word pairs: both orientations of each relation
    and of its formal inverse, the first of each repeat kept and the
    trivial ones dropped.  Kept per presentation, as the library keeps its
    rule table."""
    if id(p) in _OLD_RULES:
        return _OLD_RULES[id(p)][1]
    rules, seen = [], set()
    for wa, wb in p.relations:
        for lhs, rhs in ((wa, wb), (wb, wa)):
            for rule in ((lhs, rhs), (p.inverse_word(lhs), p.inverse_word(rhs))):
                if rule[0] != rule[1] and rule not in seen:
                    seen.add(rule)
                    rules.append(rule)
    _OLD_RULES[id(p)] = (p, rules)
    return rules


def object_path(p, w):
    path = [w.start]
    for letter in w.letters:
        path.append(p.letter_ends(letter)[1])
    return tuple(path)


def encode(p, w):
    """The interned letters of a word: generator ``k`` forwards is ``2k``,
    backwards ``2k + 1``."""
    return tuple(2 * p.generators.index(g) + (s < 0) for g, s in w.letters)


def decode(p, start, letters):
    return td.Word(start, tuple((p.generators[a // 2], -1 if a % 2 else 1) for a in letters))


def decoded_rules(p):
    """The interned rule table read back as word pairs."""
    return [
        (decode(p, p.objects[o], lhs), decode(p, p.objects[o], rhs))
        for o, lhs, rhs in groupoid._rule_table(p)[3]
    ]


def linear_neighbors(p, w, rules):
    """All words one rewrite away, scanning every rule."""
    out = []
    letters = w.letters
    for k in range(len(letters) - 1):
        (g1, s1), (g2, s2) = letters[k], letters[k + 1]
        if g1 == g2 and s1 == -s2:
            out.append(td.Word(w.start, letters[:k] + letters[k + 2 :]))
    path = object_path(p, w)
    for lhs, rhs in rules:
        n = len(lhs.letters)
        if n == 0:
            for k in range(len(letters) + 1):
                if path[k] == lhs.start:
                    out.append(td.Word(w.start, letters[:k] + rhs.letters + letters[k:]))
        else:
            for k in range(len(letters) - n + 1):
                if letters[k : k + n] == lhs.letters:
                    out.append(td.Word(w.start, letters[:k] + rhs.letters + letters[k + n :]))
    return out


def indexed_neighbors(p, w):
    """The neighbours that ``word_equal`` expands, read back as words."""
    table = groupoid._rule_table(p)
    return [decode(p, w.start, v) for v in groupoid._neighbors(table, table[1][w.start], encode(p, w))]


def checked_neighbors(p, w, rules):
    """The linear scan's neighbour list, asserted equal to the indexed one."""
    out = linear_neighbors(p, w, rules)
    assert indexed_neighbors(p, w) == out
    return out


def bfs_then_separate(
    p, w1, w2, budget, *, action_bound=2, max_states=50000, separate=True, actions=None, log=None
):
    """The rewriting search to the end of its budget, then the separating
    actions: ``actions``, or those at ``action_bound`` enumerated afresh.
    A ``log`` dict, if given, gets the expanded words in order under
    ``"expanded"``, the number of seen words at each check of the state
    cap under ``"sizes"``, and whether the cap ended the search under
    ``"capped"``."""
    expanded, sizes = [], []
    if log is not None:
        log.update(expanded=expanded, sizes=sizes, capped=False)
    if w1 == w2:
        return td.Verdict.EQUAL
    rules = old_rules(p)
    seen1, seen2 = {w1}, {w2}
    front1, front2 = [w1], [w2]
    for _ in range(budget):
        sizes.append(len(seen1) + len(seen2))
        if len(seen1) + len(seen2) > max_states:
            if log is not None:
                log["capped"] = True
            break
        if len(front1) <= len(front2):
            front, seen, other = front1, seen1, seen2
            grow1 = True
        else:
            front, seen, other = front2, seen2, seen1
            grow1 = False
        new = []
        for w in front:
            expanded.append(w)
            for v in checked_neighbors(p, w, rules):
                if v in other:
                    return td.Verdict.EQUAL
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        if grow1:
            front1 = new
        else:
            front2 = new
        if not front1 and not front2:
            break
    if separate:
        if actions is None:
            actions = td.enumerate_actions(p, action_bound)
        for action in actions:
            if any(td.act(action, w1, x) != td.act(action, w2, x) for x in action.carrier[w1.start]):
                return td.Verdict.DISTINCT
    return td.Verdict.UNKNOWN


def _check(p, w1, w2, budget, actions=None, **kw):
    verdict = td.word_equal(p, w1, w2, budget, **kw)
    assert verdict is bfs_then_separate(p, w1, w2, budget, actions=actions, **kw)
    return verdict


@pytest.mark.parametrize("k", range(len(generated_covers())), ids=[n for n, _ in generated_covers()])
def test_verdicts_match_the_oracle_on_generated_covers(k, generated_refinements):
    # the endo pairs at budget 2: the oracle's search on a DISTINCT pair
    # grows too fast for budget 6 on the larger covers
    _, cover, ref = generated_refinements[k]
    nerve, tau = td.cech_nerve(cover)
    verdicts = []
    for pres, (inverse, endo) in (
        (td.g_fundamental_presentation(ref), inverse_and_endo_pairs(ref.base.sset, ref.tau_s)),
        (td.fundamental_presentation(nerve), inverse_and_endo_pairs(nerve, tau)),
    ):
        actions = td.enumerate_actions(pres, 2)
        verdicts += [_check(pres, w1, w2, 10, actions) for _, w1, w2 in inverse]
        verdicts += [_check(pres, w1, w2, 2, actions) for _, w1, w2 in endo]
    assert td.Verdict.EQUAL in verdicts


def test_verdicts_match_the_oracle_on_the_free_endo_sset():
    pres = td.fundamental_presentation(free_endo_sset())
    e, ident = pres.word("e"), td.Word("x", ())
    e_inv = pres.inverse_word(e)
    pairs = [(e, ident), (pres.word("e", "e"), e), (pres.concat(e, e_inv), ident), (e_inv, e)]
    verdicts = [
        _check(pres, w1, w2, 6, separate=separate) for w1, w2 in pairs for separate in (True, False)
    ]
    assert set(verdicts) == set(td.Verdict)


@pytest.fixture(scope="module")
def small_presentations(generated_refinements):
    refs = {name: (cover, ref) for name, cover, ref in generated_refinements}
    out = [
        td.fundamental_presentation(free_endo_sset()),
        td.fundamental_presentation(free_dual_edge_sset()[0]),
    ]
    for name in ("point-1x1", "point-1x2", "point-3x1", "chain-rep", "vee-branches"):
        cover, ref = refs[name]
        out.append(td.g_fundamental_presentation(ref))
        out.append(td.fundamental_presentation(td.cech_nerve(cover)[0]))
    return out


def _draw_word(draw, p, start):
    letters, at = [], start
    for _ in range(draw(st.integers(0, 4))):
        letter = draw(
            st.sampled_from(
                [(g, s) for g in p.generators for s in (1, -1) if p.letter_ends((g, s))[0] == at]
            )
        )
        letters.append(letter)
        at = p.letter_ends(letter)[1]
    return td.Word(start, tuple(letters))


def draw_problem(draw, presentations):
    """A presentation and two parallel well-formed words: the second drawn
    freely, or one or two rewrites away from the first."""
    p = presentations[draw(st.integers(0, len(presentations) - 1))]
    w1 = _draw_word(draw, p, draw(st.sampled_from(p.objects)))
    if draw(st.sampled_from(["free", "free", "rewritten"])) == "free":
        w2 = _draw_word(draw, p, w1.start)
        assume(p.word_ends(w1) == p.word_ends(w2))
    else:
        w2 = w1
        for _ in range(draw(st.integers(1, 2))):
            w2 = draw(st.sampled_from(linear_neighbors(p, w2, old_rules(p))))
    kw = {
        "action_bound": draw(st.integers(1, 2)),
        "max_states": draw(st.sampled_from([2, 10, 50000, 50000])),
        "separate": draw(st.sampled_from([True, True, False])),
    }
    return p, w1, w2, draw(st.integers(0, 4)), kw


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_verdicts_match_the_oracle_on_random_words(small_presentations, data):
    p, w1, w2, budget, kw = draw_problem(data.draw, small_presentations)
    _check(p, w1, w2, budget, **kw)


def test_actions_are_enumerated_once_per_presentation_and_bound(monkeypatch):
    bounds = []
    enumerate_actions = groupoid.enumerate_actions

    def counting(p, size_bound, carriers=None):
        bounds.append(size_bound)
        return enumerate_actions(p, size_bound, carriers)

    monkeypatch.setattr(groupoid, "enumerate_actions", counting)
    pres = td.fundamental_presentation(free_endo_sset())
    e, ident = pres.word("e"), td.Word("x", ())
    assert td.word_equal(pres, e, ident, 2) is td.Verdict.DISTINCT
    assert td.word_equal(pres, pres.word("e", "e"), e, 2) is td.Verdict.DISTINCT
    assert bounds == [2]
    # one-element carriers cannot tell e from the identity
    assert td.word_equal(pres, e, ident, 2, action_bound=1) is td.Verdict.UNKNOWN
    assert td.word_equal(pres, e, ident, 2, separate=False) is td.Verdict.UNKNOWN
    assert bounds == [2, 1]


def test_mutating_public_actions_leaves_verdicts_alone():
    pres = td.fundamental_presentation(free_endo_sset())
    e, ident = pres.word("e"), td.Word("x", ())

    def flatten(actions):
        for a in actions:
            for m in a.gen_action.values():
                for x in m:
                    m[x] = x

    # before and after the presentation has cached its own actions
    for _ in range(2):
        flatten(td.enumerate_actions(pres, 2))
        assert td.word_equal(pres, e, ident, 2) is td.Verdict.DISTINCT


@pytest.fixture(scope="module")
def words_inputs(request):
    """The inputs of the benchmark's words workload at seed 0, read without
    changing the corpus: the refinements of the 12 corpus covers, the free
    endo-loop and the assemble chains."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    request.addfinalizer(mp.undo)
    return workloads.words_setup(workloads.Corpus(0))


def test_rule_table_reads_back_as_the_word_form_rules(words_inputs):
    presentations = [(name, td.g_fundamental_presentation(ref)) for name, ref in words_inputs["refs"].items()]
    presentations.append(("free-endo", td.fundamental_presentation(words_inputs["sset"])))
    for chain, _, nodes, _ in words_inputs["chains"]:
        presentations += [(f"{chain}/{n}", td.g_fundamental_presentation(f)) for n, f in nodes.items()]
    assert len(presentations) == 12 + 1 + 8
    for name, p in presentations:
        rules = old_rules(p)
        assert decoded_rules(p) == rules, name
        by_letter, by_object = {}, {}
        for n, (lhs, _) in enumerate(rules):
            if lhs.letters:
                by_letter.setdefault(lhs.letters[0], []).append(n)
            else:
                by_object.setdefault(lhs.start, []).append(n)
        _, _, _, _, table_by_letter, table_by_object = groupoid._rule_table(p)
        assert {decode(p, None, (a,)).letters[0]: ns for a, ns in table_by_letter.items()} == by_letter, name
        assert {p.objects[o]: ns for o, ns in table_by_object.items()} == by_object, name


def same_search(p, w1, w2, budget, **kw):
    """``word_equal`` against the oracle with the separating actions off:
    the same verdict, and the same words expanded in the same order (so the
    seen sets grow alike, and the state cap stops both at the same word).
    Returns the oracle's log."""
    expanded = []
    neighbors = groupoid._neighbors

    def recording(table, start, letters):
        expanded.append(decode(p, w1.start, letters))
        return neighbors(table, start, letters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupoid, "_neighbors", recording)
        verdict = td.word_equal(p, w1, w2, budget, separate=False, **kw)
    log = {}
    assert verdict is bfs_then_separate(p, w1, w2, budget, separate=False, log=log, **kw)
    assert expanded == log["expanded"]
    return log


@pytest.mark.parametrize("max_states", [10, 100, 1000])
@pytest.mark.parametrize("budget", [14, 20])
def test_state_cap_stops_both_searches_alike_on_the_free_endo_loop(budget, max_states):
    pres = td.fundamental_presentation(free_endo_sset())
    log = same_search(pres, pres.word("e", "e"), pres.word("e"), budget, max_states=max_states)
    assert log["capped"] and log["expanded"]


def test_state_cap_stops_both_searches_alike_at_each_level():
    # a cap of n - 1 stops the search where n words are seen, a cap of n
    # lets it go on: so the seen sets must have exactly the oracle's sizes
    pres = td.fundamental_presentation(free_endo_sset())
    w1, w2 = pres.word("e", "e"), pres.word("e")
    sizes = same_search(pres, w1, w2, 8)["sizes"]
    assert len(sizes) == 8
    for k, n in enumerate(sizes):
        assert same_search(pres, w1, w2, 8, max_states=n - 1)["sizes"] == sizes[: k + 1]
        assert same_search(pres, w1, w2, 8, max_states=n)["sizes"] == sizes[: k + 2]


def test_state_cap_stops_both_searches_alike_on_a_generated_cover(generated_refinements):
    # the first endo pair of point-2x3 whose search the cap stops: the
    # actions tell it apart, so the search alone never joins it
    _, _, ref = next(r for r in generated_refinements if r[0] == "point-2x3")
    pres = td.g_fundamental_presentation(ref)
    _, endo = inverse_and_endo_pairs(ref.base.sset, ref.tau_s)
    for _, w1, w2 in endo:
        log = {}
        bfs_then_separate(pres, w1, w2, 6, max_states=100, separate=False, log=log)
        if log["capped"]:
            break
    else:
        pytest.fail("no endo pair of point-2x3 is stopped by the cap")
    assert td.word_equal(pres, w1, w2, 6) is td.Verdict.DISTINCT
    same_search(pres, w1, w2, 6, max_states=100)
    assert len(same_search(pres, w1, w2, 6)["expanded"]) > len(log["expanded"])
