"""Bounded word equality against the procedure it replaced.

``word_equal`` tests the separating actions first, enumerated once per
presentation and bound, and finds the applicable rewrite rules through an
index on their first letter.  The oracles here are the earlier code: the
breadth-first search runs to the end of its budget before the actions are
enumerated, and every rule is scanned for every word.  The verdicts must
agree, and so must the ordered neighbour list of every word the oracle
expands."""

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


def linear_neighbors(p, w, rules):
    """All words one rewrite away, scanning every rule."""
    out = []
    letters = w.letters
    for k in range(len(letters) - 1):
        (g1, s1), (g2, s2) = letters[k], letters[k + 1]
        if g1 == g2 and s1 == -s2:
            out.append(td.Word(w.start, letters[:k] + letters[k + 2 :]))
    path = groupoid._object_path(p, w)
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


def checked_neighbors(p, w, rules):
    """The linear scan's neighbour list, asserted equal to the indexed one."""
    out = linear_neighbors(p, w, rules)
    assert groupoid._neighbors(p, w, groupoid._rule_index(p)) == out
    return out


def bfs_then_separate(p, w1, w2, budget, *, action_bound=2, max_states=50000, separate=True, actions=None):
    """The rewriting search to the end of its budget, then the separating
    actions: ``actions``, or those at ``action_bound`` enumerated afresh."""
    if w1 == w2:
        return td.Verdict.EQUAL
    rules = groupoid._rules(p)
    seen1, seen2 = {w1}, {w2}
    front1, front2 = [w1], [w2]
    for _ in range(budget):
        if len(seen1) + len(seen2) > max_states:
            break
        if len(front1) <= len(front2):
            front, seen, other = front1, seen1, seen2
            grow1 = True
        else:
            front, seen, other = front2, seen2, seen1
            grow1 = False
        new = []
        for w in front:
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
            w2 = draw(st.sampled_from(linear_neighbors(p, w2, groupoid._rules(p))))
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
