"""Groupoid presentations, actions, bounded word equality."""

import pytest

import toposdescent as td
from toposdescent.fintopos import label_key
from conftest import free_dual_edge_sset, free_endo_sset, full_nerve_cover


def test_fundamental_presentation_singleton(singleton_cover):
    nerve, _ = td.cech_nerve(singleton_cover)
    pres = td.fundamental_presentation(nerve)
    assert pres.objects == ("1",)
    assert set(pres.generators) == {("1", "1")}
    # the single generator is the designated identity: equal to the empty word
    w = pres.word(("1", "1"))
    assert td.word_equal(pres, w, td.Word("1", ()), 5) is td.Verdict.EQUAL


def test_full_nerve_relation_chase(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    assert set(pres.objects) == {"1", "2"}
    assert len(pres.generators) == 4
    # triangle (1,2,1): the long edge is the identity at 1
    w = pres.word(("1", "2"), ("2", "1"))
    assert td.word_equal(pres, w, td.Word("1", ()), 10) is td.Verdict.EQUAL


def test_free_groupoid_on_one_edge():
    s = free_endo_sset()
    pres = td.fundamental_presentation(s)
    e = pres.word("e")
    ident = td.Word("x", ())
    assert td.word_equal(pres, e, ident, 6) is td.Verdict.DISTINCT


def test_word_equal_trivial_and_errors(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    w = pres.word(("1", "2"))
    assert td.word_equal(pres, w, w, 1) is td.Verdict.EQUAL
    with pytest.raises(ValueError):
        td.word_equal(pres, w, td.Word("1", ()), 5)


def test_word_equal_unknown_without_separation():
    s = free_endo_sset()
    pres = td.fundamental_presentation(s)
    e = pres.word("e")
    ident = td.Word("x", ())
    assert (
        td.word_equal(pres, e, ident, 2, separate=False) is td.Verdict.UNKNOWN
    )


def test_g_fundamental_presentation_requires_condition(fixture_cover):
    sf = td.cech_simplicial_family(fixture_cover)
    with pytest.raises(td.ConditionGFailure):
        td.g_fundamental_presentation(sf)


def test_g_fundamental_adds_span_relations(fixture_cover):
    ref = td.connected_refinement(fixture_cover)
    base = td.fundamental_presentation(ref.base.sset)
    refined = td.g_fundamental_presentation(ref)
    assert len(refined.relations) > len(base.relations)
    # the two singleton cross spans stay distinct before the relations
    spans = {
        l: td.span_of_1simplex(ref.base, l)
        for l in ref.base.sset.s1
        if ref.base.sset.endpoints(l) == ("1", "2")
        and td.span_of_1simplex(ref.base, l).vertex.size() == 1
    }
    picked = sorted(spans)
    assert len(picked) == 2
    extra = set(refined.relations) - set(base.relations)
    flat = {(a.letters, b.letters) for a, b in extra}
    l, t = picked
    assert ((l, 1),) not in {x for x, y in flat if y == ((t, 1),)}


def two_step_g_presentation(ref):
    """The fundamental presentation of the base, then a second presentation
    with one relation per span-morphism pair, the first of each unordered
    pair kept: the construction the one-call builder replaced."""
    base = td.fundamental_presentation(ref.base.sset)
    extra, seen = [], set()
    for l, t in td.span_morphism_pairs(ref.base):
        key = tuple(sorted((l, t), key=label_key))
        if key not in seen:
            seen.add(key)
            extra.append((td.Word(base.src[l], ((l, 1),)), td.Word(base.src[t], ((t, 1),))))
    return td.GroupoidPresentation(
        objects=base.objects,
        generators=base.generators,
        src=base.src,
        tgt=base.tgt,
        relations=base.relations + tuple(extra),
        identities=base.identities,
    )


def test_g_fundamental_presentation_checks_each_relation_once(monkeypatch, generated_refinements):
    checked = []
    check_word = td.GroupoidPresentation.check_word
    monkeypatch.setattr(td.GroupoidPresentation, "check_word", lambda p, w: checked.append(w) or check_word(p, w))
    for name, _, ref in generated_refinements:
        checked.clear()
        pres = td.g_fundamental_presentation(ref)
        assert checked == [w for pair in pres.relations for w in pair], name
        assert pres == two_step_g_presentation(ref), name


def test_generator_inverses_certified(fixture_cover, two_singleton_cover):
    for cover in (fixture_cover, two_singleton_cover):
        ref = td.connected_refinement(cover)
        pres = td.g_fundamental_presentation(ref)
        for l in ref.base.sset.s1:
            i = ref.base.sset.d(1, 1, l)
            lop = ref.tau_s.op1(l)
            w = td.Word(i, ((l, 1), (lop, 1)))
            ident = td.Word(i, ((ref.base.sset.deg(0, 0, i), 1),))
            assert td.word_equal(pres, w, ident, 10) is td.Verdict.EQUAL


def test_selfdual_condition_gives_inverses(cover_suite):
    # nerve-level statement: l^op l ~ id whenever the filling condition holds
    for name, cover in cover_suite:
        nerve, tau = td.cech_nerve(cover)
        if not td.check_selfdual_groupoid_condition(nerve, tau):
            continue
        pres = td.fundamental_presentation(nerve)
        for l in nerve.s1:
            i = nerve.d(1, 1, l)
            w = td.Word(i, ((l, 1), (tau.op1(l), 1)))
            ident = td.Word(i, ((nerve.deg(0, 0, i), 1),))
            assert td.word_equal(pres, w, ident, 10) is td.Verdict.EQUAL, name


def test_validate_action_full_nerve(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    carrier = {"1": (0, 1), "2": (0, 1)}
    swap = {0: 1, 1: 0}
    ident = {0: 0, 1: 1}
    good = td.GroupoidAction(
        carrier,
        {("1", "1"): dict(ident), ("2", "2"): dict(ident), ("1", "2"): dict(swap), ("2", "1"): dict(swap)},
    )
    assert td.validate_action(pres, good) == []
    bad = td.GroupoidAction(
        carrier,
        {("1", "1"): dict(ident), ("2", "2"): dict(ident), ("1", "2"): dict(swap), ("2", "1"): dict(ident)},
    )
    msgs = td.validate_action(pres, bad)
    assert any("relation" in m for m in msgs)


def test_validate_action_trivial(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    act = td.GroupoidAction(
        {"1": ("*",), "2": ("*",)},
        {g: {"*": "*"} for g in pres.generators},
    )
    assert td.validate_action(pres, act) == []


def test_act_examples(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    swap = {0: 1, 1: 0}
    ident = {0: 0, 1: 1}
    action = td.GroupoidAction(
        {"1": (0, 1), "2": (0, 1)},
        {("1", "1"): ident, ("2", "2"): dict(ident), ("1", "2"): swap, ("2", "1"): dict(swap)},
    )
    assert td.act(action, td.Word("1", ()), 0) == 0
    assert td.act(action, pres.word(("1", "2")), 0) == 1
    w = pres.word(("1", "2"))
    winv = pres.inverse_word(w)
    for x in (0, 1):
        assert td.act(action, pres.concat(w, winv), x) == x
    with pytest.raises(ValueError):
        td.act(action, w, 7)


def test_enumerate_actions_counts():
    # free endo-generator: all bijections on carriers of size <= 2
    s = free_endo_sset()
    pres = td.fundamental_presentation(s)
    acts = td.enumerate_actions(pres, 2)
    # one empty, one singleton, two on the two-element carrier
    assert len(acts) == 4

    # trivial groupoid: actions are plain finite sets
    pt_cover_nerve = td.cech_nerve(
        td.family_from_parts(td.FinPoset.point(), {"1": td.constant_presheaf(("a",), td.FinPoset.point())})
    )[0]
    triv = td.fundamental_presentation(pt_cover_nerve)
    assert len(td.enumerate_actions(triv, 1)) == 2


def test_enumerate_actions_indiscrete(full_nerve):
    # actions of the contractible groupoid on two objects are determined by
    # one carrier and one bijection
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    acts = td.enumerate_actions(pres, 2)
    # sizes 0 and 1 give one action each; size 2 gives the two bijections
    assert len(acts) == 4
    for a in acts:
        assert len(a.carrier["1"]) == len(a.carrier["2"])


def test_enumerated_actions_and_index_data_share_no_maps(full_nerve):
    nerve, _ = full_nerve
    acts = td.enumerate_actions(td.fundamental_presentation(nerve), 2)
    data = td.enumerate_s_descent_data(nerve, 2)
    for maps in ([a.gen_action for a in acts], [d.s for d in data]):
        ids = [id(m) for table in maps for m in table.values()]
        assert len(ids) == len(set(ids))


def test_action_invariance_under_equal_words(full_nerve):
    nerve, _ = full_nerve
    pres = td.fundamental_presentation(nerve)
    w1 = pres.word(("1", "2"), ("2", "1"))
    w2 = td.Word("1", ())
    assert td.word_equal(pres, w1, w2, 10) is td.Verdict.EQUAL
    for a in td.enumerate_actions(pres, 2):
        for x in a.carrier["1"]:
            assert td.act(a, w1, x) == td.act(a, w2, x)


def test_word_machinery_on_dual_edge():
    sset, tau = free_dual_edge_sset()
    pres = td.fundamental_presentation(sset)
    # without a filling condition e f and the identity stay distinct
    w = pres.word("e", "f")
    ident = td.Word("1", ())
    assert td.word_equal(pres, w, ident, 4) is td.Verdict.DISTINCT


def test_inverse_letters_act_through_the_inverse_map():
    # a 3-cycle is not its own inverse, so g^-1 = g g holds and g^-1 = g fails
    def loop_pres(*relations):
        return td.GroupoidPresentation(
            objects=("o",),
            generators=("g",),
            src={"g": "o"},
            tgt={"g": "o"},
            relations=relations,
            identities={},
        )

    a = td.GroupoidAction(carrier={"o": (0, 1, 2)}, gen_action={"g": {0: 1, 1: 2, 2: 0}})
    g, g_inv = td.Word("o", (("g", 1),)), td.Word("o", (("g", -1),))
    assert [td.act(a, g_inv, x) for x in (0, 1, 2)] == [2, 0, 1]
    assert td.act(a, td.Word("o", (("g", -1), ("g", -1), ("g", 1))), 0) == 2
    assert td.validate_action(loop_pres((g_inv, td.Word("o", (("g", 1), ("g", 1))))), a) == []
    assert td.validate_action(loop_pres((g_inv, g)), a) == ["relation 0 fails on 0"]
    with pytest.raises(ValueError, match="3 is not in the carrier at 'o'"):
        td.act(a, g, 3)


def test_malformed_letters_are_rejected():
    # with a sign of 0, (e, 0)(e, 0) would cancel to the empty word, as 0 == -0
    def pres(*relations):
        return td.GroupoidPresentation(
            objects=("a",), generators=("e",), src={"e": "a"}, tgt={"e": "a"},
            relations=relations, identities={},
        )

    ident = td.Word("a", ())
    for letters in ((("e", 0), ("e", 0)), (("e", 2),), (("f", 1),), ("e",), (("e", 1, 1),)):
        with pytest.raises(ValueError, match="malformed letter"):
            td.word_equal(pres(), td.Word("a", letters), ident, 2)
        with pytest.raises(ValueError, match="malformed letter"):
            pres((td.Word("a", letters), ident))
    assert td.word_equal(pres(), td.Word("a", (("e", -1), ("e", -1))), ident, 2) is td.Verdict.UNKNOWN


from hypothesis import given, settings, strategies as st


@st.composite
def nerve_words(draw):
    # composable signed words over the four generators of the full nerve
    length = draw(st.integers(min_value=0, max_value=4))
    start = draw(st.sampled_from(["1", "2"]))
    letters = []
    at = start
    for _ in range(length):
        sign = draw(st.sampled_from([1, -1]))
        targets = ["1", "2"]
        tgt = draw(st.sampled_from(targets))
        gen = (at, tgt) if sign > 0 else (tgt, at)
        letters.append((gen, sign))
        at = tgt
    return td.Word(start, tuple(letters))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nerve_words(), nerve_words())
def test_word_equal_sound_against_actions(w1, w2):
    # whenever the rewriting search certifies equality, every small action
    # must agree on the two words; a DISTINCT verdict must exhibit an
    # actual disagreement
    cover = full_nerve_cover()
    nerve, _ = td.cech_nerve(cover)
    pres = td.fundamental_presentation(nerve)
    if pres.word_ends(w1) != pres.word_ends(w2):
        return
    verdict = td.word_equal(pres, w1, w2, 6)
    actions = td.enumerate_actions(pres, 2)
    disagree = any(
        td.act(a, w1, x) != td.act(a, w2, x)
        for a in actions
        for x in a.carrier[w1.start]
    )
    if verdict is td.Verdict.EQUAL:
        assert not disagree
    elif verdict is td.Verdict.DISTINCT:
        assert disagree
