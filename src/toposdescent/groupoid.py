"""Fundamental groupoid presentations, words, actions, and bounded word
equality.

The fundamental presentation of a truncated simplicial set has the
vertices as objects, the 1-simplices as generator arrows, one relation
per 2-simplex identifying the long edge with the composite of the short
edges, the degenerate 1-simplices designated as identities, and formal
inverses throughout.  The refined presentation of a self-dual family
additionally identifies parallel 1-simplices connected by a span
morphism; under the filling condition this forces every generator to be
invertible by a short rewrite.

Word equality in a finitely presented groupoid is undecidable in
general, so :func:`word_equal` is a three-valued bounded procedure.  It
first tests the words against the actions of bounded size (finite
quotients, enumerated once per presentation and bound): one that tells
them apart certifies inequality.  Otherwise a breadth-first rewriting
search certifies equality, and failing that the verdict is unknown.  The
rewriting search is sound, so testing the actions first changes no
verdict.  It runs on interned letters, with one rule table per
presentation that finds the applicable rules by first letter; the
encoding is a bijection, so it meets the same words in the same order.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import ConditionGFailure
from .family import condition_g, span_morphism_pairs
from .fintopos import label_key, union_find
from .simplicial import TruncSSet


@dataclass(frozen=True)
class Word:
    """A composable sequence of signed generators with a base object.

    Letters apply left to right; the base object is the source of the
    first letter (and the only data of an empty word).
    """

    start: object
    letters: tuple


class Verdict(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


@dataclass
class GroupoidPresentation:
    """Objects, generator arrows, relation word-pairs, identity generators."""

    objects: tuple
    generators: tuple
    src: dict
    tgt: dict
    relations: tuple
    identities: dict

    def __post_init__(self):
        self._object_set = frozenset(self.objects)
        self._generator_set = frozenset(self.generators)
        for g in self.generators:
            if g not in self.src or g not in self.tgt:
                raise ValueError(f"generator {g!r} lacks endpoints")
        for i, g in self.identities.items():
            if self.src[g] != i or self.tgt[g] != i:
                raise ValueError(f"identity generator at {i!r} is not an endo-arrow")
        for a, b in self.relations:
            self.check_word(a)
            self.check_word(b)
            if self.word_ends(a) != self.word_ends(b):
                raise ValueError("relation words are not parallel")

    def letter_ends(self, letter):
        g, sign = letter
        return (self.src[g], self.tgt[g]) if sign > 0 else (self.tgt[g], self.src[g])

    def check_word(self, w: Word):
        at = w.start
        if at not in self._object_set:
            raise ValueError(f"word based at unknown object {at!r}")
        for letter in w.letters:
            if not (
                isinstance(letter, tuple)
                and len(letter) == 2
                and letter[0] in self._generator_set
                and letter[1] in (1, -1)
            ):
                raise ValueError(f"malformed letter {letter!r}: not a generator with sign 1 or -1")
            a, b = self.letter_ends(letter)
            if a != at:
                raise ValueError("word letters do not compose")
            at = b

    def word_ends(self, w: Word):
        at = w.start
        for letter in w.letters:
            at = self.letter_ends(letter)[1]
        return (w.start, at)

    def word(self, *gens, start=None) -> Word:
        letters = tuple((g, 1) for g in gens)
        if start is None:
            if not gens:
                raise ValueError("empty word needs an explicit base object")
            start = self.src[gens[0]]
        w = Word(start, letters)
        self.check_word(w)
        return w

    def inverse_word(self, w: Word) -> Word:
        return Word(self.word_ends(w)[1], tuple((g, -s) for g, s in reversed(w.letters)))

    def concat(self, a: Word, b: Word) -> Word:
        if self.word_ends(a)[1] != b.start:
            raise ValueError("concatenation endpoints do not match")
        return Word(a.start, a.letters + b.letters)


def fundamental_presentation(s: TruncSSet) -> GroupoidPresentation:
    """Presentation of the fundamental groupoid of a truncated simplicial
    set: generators are 1-simplices, each triangle identifies its long edge
    with the composite of the short ones, degenerate edges are identities."""
    return _fundamental(s, ())


def _fundamental(s: TruncSSet, identified) -> GroupoidPresentation:
    """The fundamental presentation of ``s`` with one more relation per
    pair of parallel 1-simplices in ``identified``, after the others;
    every relation is checked once, by the one constructor call."""
    src = {l: s.d(1, 1, l) for l in s.s1}
    tgt = {l: s.d(1, 0, l) for l in s.s1}
    identities = {i: s.deg(0, 0, i) for i in s.s0}
    relations = []
    for w in s.s2:
        l, t, r = s.d(2, 2, w), s.d(2, 1, w), s.d(2, 0, w)
        relations.append((Word(src[t], ((t, 1),)), Word(src[l], ((l, 1), (r, 1)))))
    for i in s.s0:
        relations.append((Word(i, ((identities[i], 1),)), Word(i, ())))
    for l, t in identified:
        relations.append((Word(src[l], ((l, 1),)), Word(src[t], ((t, 1),))))
    return GroupoidPresentation(
        objects=s.s0,
        generators=s.s1,
        src=src,
        tgt=tgt,
        relations=tuple(relations),
        identities=identities,
    )


def g_fundamental_presentation(sf) -> GroupoidPresentation:
    """Refined presentation of a self-dual family satisfying the filling
    condition: the fundamental presentation of the index plus one relation
    for every ordered pair of parallel 1-simplices whose spans are linked
    by a span morphism."""
    if not condition_g(sf):
        raise ConditionGFailure("the family does not satisfy the filling condition")
    identified = {}
    for l, t in span_morphism_pairs(sf.base):
        identified.setdefault(tuple(sorted((l, t), key=label_key)), (l, t))
    return _fundamental(sf.base.sset, identified.values())


@dataclass
class GroupoidAction:
    """Finite sets per object and a bijection per generator arrow."""

    carrier: dict
    gen_action: dict


def validate_action(p: GroupoidPresentation, a: GroupoidAction):
    """Empty iff the data is an action: total bijective generator maps that
    satisfy every relation, with identity generators acting trivially."""
    out = []
    for i in p.objects:
        if i not in a.carrier:
            out.append(f"carrier missing at {i!r}")
    if out:
        return out
    for g in p.generators:
        m = a.gen_action.get(g)
        if m is None:
            out.append(f"no action for generator {g!r}")
            continue
        if not _is_bijection(m, a.carrier[p.src[g]], a.carrier[p.tgt[g]]):
            out.append(f"action of {g!r} is not a bijection onto the target carrier")
    if out:
        return out
    for i, g in p.identities.items():
        if any(a.gen_action[g][x] != x for x in a.carrier[i]):
            out.append(f"identity generator at {i!r} does not act as the identity")
    inverses = {}
    for n, (wa, wb) in enumerate(p.relations):
        for x in a.carrier[wa.start]:
            if _apply(a.gen_action, wa.letters, x, inverses) != _apply(
                a.gen_action, wb.letters, x, inverses
            ):
                out.append(f"relation {n} fails on {x!r}")
                break
    return out


def _is_bijection(m, dom, cod):
    return (
        set(m) == set(dom)
        and set(m.values()) == set(cod)
        and len(set(m.values())) == len(m)
    )


def act(a: GroupoidAction, w: Word, x):
    """Apply a word to an element of the carrier at its base."""
    if x not in a.carrier[w.start]:
        raise ValueError(f"{x!r} is not in the carrier at {w.start!r}")
    return _apply(a.gen_action, w.letters, x, {})


def _apply(gen_action, letters, x, inverses):
    """Apply signed letters to ``x`` through the generator maps; the inverse
    of a map is built on first use and kept in ``inverses``."""
    for g, sign in letters:
        if sign > 0:
            x = gen_action[g][x]
        else:
            inverse = inverses.get(g)
            if inverse is None:
                inverse = inverses[g] = {v: k for k, v in gen_action[g].items()}
            x = inverse[x]
    return x


def solve_bijection_slots(domains, comp_constraints, eq_pairs=()):
    """All assignments of one value per slot satisfying composition
    constraints ``(a, b, c)`` (choice[b] after choice[a] equals choice[c])
    and equality pairs, in the order of the product of the domains.

    Each slot ranges over bijections between two fixed sets, and each
    constraint is well typed.  The search is depth-first and checks each
    constraint as soon as its last slot is assigned.  A slot that closes
    an equality pair with another slot, or a composition constraint in
    which it occurs once, is forced: the earlier slots fix the one value
    that can pass, which is looked up in the domain instead of trying
    every value (forward checking), and only the other constraints are
    checked on it.
    """
    eq_by_last, by_last = {}, {}
    for a, b in eq_pairs:
        eq_by_last.setdefault(max(a, b), []).append((a, b))
    for a, b, c in comp_constraints:
        by_last.setdefault(max(a, b, c), []).append((a, b, c))
    rules, checks, lookup = [], [], []
    for k, domain in enumerate(domains):
        eqs, comps = eq_by_last.get(k, []), by_last.get(k, [])
        rule = _forcing_rule(k, eqs, comps)
        rules.append(rule)
        forcing = rule[3] if rule else None
        checks.append(([e for e in eqs if e != forcing], [t for t in comps if t != forcing]))
        index = {}
        if rule:
            for value in domain:
                index.setdefault(frozenset(value.items()), []).append(value)
        lookup.append(index)
    out = []
    assigned = [None] * len(domains)

    def extend(k):
        if k == len(domains):
            out.append(tuple(assigned))
            return
        rule = rules[k]
        if rule is None:
            choices = domains[k]
        else:
            choices = lookup[k].get(frozenset(_forced_value(rule, assigned).items()), ())
        eqs, comps = checks[k]
        for choice in choices:
            assigned[k] = choice
            if all(assigned[a] == assigned[b] for a, b in eqs) and all(
                {x: assigned[b][y] for x, y in assigned[a].items()} == assigned[c]
                for a, b, c in comps
            ):
                extend(k + 1)
        assigned[k] = None

    extend(0)
    return out


def _forcing_rule(k, eqs, comps):
    """How slot ``k`` is forced, as (kind, other slot, other slot,
    constraint), or None: by an equality pair with another slot, else by
    a composition constraint in which ``k`` occurs once."""
    for a, b in eqs:
        if a != b:
            return ("eq", a if b == k else b, None, (a, b))
    for a, b, c in comps:
        if (a, b, c).count(k) == 1:
            if k == c:
                return ("c", a, b, (a, b, c))
            return ("a", b, c, (a, b, c)) if k == a else ("b", a, c, (a, b, c))
    return None


def _forced_value(rule, assigned):
    """The one value that satisfies the forcing constraint, given the
    values of its other two slots (bijections, so inverses exist)."""
    kind, p, q, _ = rule
    m = assigned[p]
    if kind == "eq":
        return m
    n = assigned[q]
    if kind == "c":  # n after m
        return {x: n[y] for x, y in m.items()}
    if kind == "a":  # m after the slot is n: the inverse of m after n
        inverse = {y: x for x, y in m.items()}
        return {x: inverse[z] for x, z in n.items()}
    return {y: n[x] for x, y in m.items()}  # the slot after m is n


def solve_carrier_slots(
    objects, sized, ends, pinned, comp_constraints, eq_pairs=(), size_bound=None, carriers=None
):
    """Bijection-slot search on every admissible choice of carriers.

    Carriers are the canonical ``0..n-1`` of each size up to ``size_bound``,
    one size per connected component of ``sized`` (components ordered by
    their first object, the last varying fastest: the lexicographic order
    of the size tuples), or the fixed ``carriers``; a choice is skipped
    unless each pair of objects in ``sized`` has carriers of equal size.
    Slot ``k`` ranges over the bijections from the carrier at
    ``ends[k][0]`` to the one at ``ends[k][1]``, or is the identity if
    pinned.  Returns the ``(carrier, combo)`` solutions, carrier by carrier.
    A negative ``size_bound`` raises ``ValueError``.
    """
    if size_bound is not None and size_bound < 0:
        raise ValueError(f"the size bound {size_bound!r} is negative")
    if carriers is None:
        if size_bound is None:
            raise ValueError("neither size_bound nor carriers is given")
        find, union = union_find(objects)
        for i, j in sized:
            union(i, j)
        roots = list(dict.fromkeys(find(i) for i in objects))
        component = [roots.index(find(i)) for i in objects]
        sizes = itertools.product(range(size_bound + 1), repeat=len(roots))
        carrier_list = [{i: tuple(range(ns[c])) for i, c in zip(objects, component)} for ns in sizes]
    else:
        for i in objects:
            if i not in carriers:
                raise ValueError(f"the fixed carriers miss the object {i!r}")
            if len(set(carriers[i])) != len(carriers[i]):
                raise ValueError(f"the fixed carrier at {i!r} lists an element twice")
        carrier_list = [dict(carriers)]
    comp_constraints, eq_pairs = sorted(comp_constraints), sorted(eq_pairs)
    out = []
    for carrier in carrier_list:
        if any(len(carrier[i]) != len(carrier[j]) for i, j in sized):
            continue
        domains = [
            [{x: x for x in carrier[i]}]
            if k in pinned
            else [dict(zip(carrier[i], perm)) for perm in itertools.permutations(carrier[j])]
            for k, (i, j) in enumerate(ends)
        ]
        for combo in solve_bijection_slots(domains, comp_constraints, eq_pairs):
            out.append((carrier, combo))
    return out


def enumerate_actions(p: GroupoidPresentation, size_bound: int, carriers=None):
    """All actions with carriers of size at most the bound (canonical
    carriers 0..n-1), or on the given fixed carriers.

    Identity generators are pinned to the identity; relations whose sides
    are short positive words become equality or composition constraints for
    a backtracking search, and any remaining relations are checked on the
    solutions.  So every solution is an action, and none is validated
    again.  Deduplication is by equality of raw data, not isomorphism.
    Every action holds its own generator maps.
    """
    slot_of = {g: k for k, g in enumerate(p.generators)}
    pinned = {slot_of[g] for g in p.identities.values()}
    comp_constraints, eq_pairs, leftover = set(), set(), []
    for wa, wb in p.relations:
        small, big = sorted((wa, wb), key=lambda w: len(w.letters))
        ls, lb = small.letters, big.letters
        if all(sign > 0 for _, sign in ls + lb):
            if len(lb) == 0:
                continue
            if len(ls) == 0 and len(lb) == 1:
                pinned.add(slot_of[lb[0][0]])
                continue
            if len(ls) == 1 and len(lb) == 1:
                eq_pairs.add((slot_of[ls[0][0]], slot_of[lb[0][0]]))
                continue
            if len(ls) == 1 and len(lb) == 2:
                comp_constraints.add(
                    (slot_of[lb[0][0]], slot_of[lb[1][0]], slot_of[ls[0][0]])
                )
                continue
        leftover.append((wa, wb))

    ends = [(p.src[g], p.tgt[g]) for g in p.generators]
    out = []
    for carrier, combo in solve_carrier_slots(
        p.objects, ends, ends, pinned, comp_constraints, eq_pairs, size_bound, carriers
    ):
        cand = GroupoidAction(
            carrier=dict(carrier), gen_action={g: dict(m) for g, m in zip(p.generators, combo)}
        )
        if leftover and any(
            any(act(cand, wa, x) != act(cand, wb, x) for x in carrier[wa.start])
            for wa, wb in leftover
        ):
            continue
        out.append(cand)
    return out


def _separating_actions(p: GroupoidPresentation, bound: int):
    """The actions with carriers of size at most the bound, as (carrier,
    generator maps, inverse maps built on use).  Enumerated once per bound
    and cached on the presentation; they are never handed out."""
    cache = getattr(p, "_actions_cache", None)
    if cache is None:
        cache = p._actions_cache = {}
    actions = cache.get(bound)
    if actions is None:
        actions = cache[bound] = [
            (a.carrier, a.gen_action, {}) for a in enumerate_actions(p, bound)
        ]
    return actions


def generator_congruence(p: GroupoidPresentation):
    """Union-find closure of the relations whose sides are single positive
    letters or empty: a sound, fast fragment of word equality.

    Returns (find, trivial) where ``find`` canonicalizes a generator and
    ``trivial`` holds the generators provably equal to an identity.
    """
    cached = getattr(p, "_congruence_cache", None)
    if cached is not None:
        return cached
    find, union = union_find(p.generators)
    trivial_seed = set(p.identities.values())
    for wa, wb in p.relations:
        sides = (wa.letters, wb.letters)
        if all(len(s) == 1 and s[0][1] > 0 for s in sides):
            union(wa.letters[0][0], wb.letters[0][0])
        elif {len(s) for s in (wa.letters, wb.letters)} == {0, 1}:
            letter = (wa.letters or wb.letters)[0]
            if letter[1] > 0:
                trivial_seed.add(letter[0])
    trivial = {g for g in p.generators if any(find(g) == find(t) for t in trivial_seed)}
    result = (find, trivial)
    p._congruence_cache = result
    return result


def _rule_table(p: GroupoidPresentation):
    """The rewrite rules over interned letters, cached on the presentation.

    Generator ``k`` of ``p.generators`` is the letter ``2k`` forwards and
    ``2k + 1`` backwards, so a letter's inverse is ``a ^ 1``; objects are
    numbered in ``p.objects`` order.  The rules are both orientations of
    each relation and of its formal inverse, as (base object, left side,
    right side), in the order of the relations, the first of each repeat
    kept and the trivial ones dropped.  Returns (the number of each signed
    letter, the number of each object, the target of each letter, the
    rules, rule numbers by the first letter of a non-empty left side,
    insertion rule numbers by base object)."""
    cached = getattr(p, "_rule_table_cache", None)
    if cached is not None:
        return cached
    objs = {o: k for k, o in enumerate(p.objects)}
    code, ends = {}, []
    for k, g in enumerate(p.generators):
        code[g, 1], code[g, -1] = 2 * k, 2 * k + 1
        ends += (objs[p.tgt[g]], objs[p.src[g]])
    rules, seen, by_letter, by_object = [], set(), {}, {}
    for wa, wb in p.relations:
        a, b = tuple(map(code.__getitem__, wa.letters)), tuple(map(code.__getitem__, wb.letters))
        start = objs[wa.start]
        end = ends[a[-1]] if a else start
        for lhs, rhs in ((a, b), (b, a)):
            inverse = tuple(x ^ 1 for x in reversed(lhs)), tuple(x ^ 1 for x in reversed(rhs))
            for rule in ((start, lhs, rhs), (end, *inverse)):
                if rule[1] != rule[2] and rule not in seen:
                    seen.add(rule)
                    if rule[1]:
                        by_letter.setdefault(rule[1][0], []).append(len(rules))
                    else:
                        by_object.setdefault(rule[0], []).append(len(rules))
                    rules.append(rule)
    result = p._rule_table_cache = (code, objs, ends, rules, by_letter, by_object)
    return result


def _neighbors(table, start, letters):
    """All words one rewrite away from the interned ``letters`` based at
    object number ``start``, in the order of the word-form search: free
    reductions by position, then rule applications (insertions of
    relation sides included) by rule number, each by position.

    ``table`` is :func:`_rule_table`.  A rule is tried only at the
    positions of its first letter, and an insertion only at the positions
    on its base object."""
    _, _, ends, rules, by_letter, by_object = table
    out = []
    at_letter, at_object = {}, {start: [0]}
    for k, a in enumerate(letters):
        if k and a ^ letters[k - 1] == 1:
            out.append(letters[: k - 1] + letters[k + 1 :])
        at_letter.setdefault(a, []).append(k)
        at_object.setdefault(ends[a], []).append(k + 1)
    candidates = set()
    for a in at_letter:
        candidates.update(by_letter.get(a, ()))
    for o in at_object:
        candidates.update(by_object.get(o, ()))
    for r in sorted(candidates):
        base, lhs, rhs = rules[r]
        n = len(lhs)
        if n:
            for k in at_letter[lhs[0]]:
                if letters[k : k + n] == lhs:
                    out.append(letters[:k] + rhs + letters[k + n :])
        else:
            for k in at_object[base]:
                out.append(letters[:k] + rhs + letters[k:])
    return out


def word_equal(
    p: GroupoidPresentation,
    w1: Word,
    w2: Word,
    budget: int = 10,
    *,
    action_bound: int = 2,
    max_states: int = 50000,
    separate: bool = True,
) -> Verdict:
    """Three-valued bounded word equality.

    Unless ``separate`` is false, first tests the words against every
    action with carriers of size at most ``action_bound`` (enumerated once
    per presentation and bound): DISTINCT if one tells them apart.  Then
    runs a bidirectional breadth-first rewriting search of depth ``budget``
    (capped at ``max_states`` explored words, deterministically): EQUAL if
    it joins the words, UNKNOWN otherwise.  The search only joins equal
    words, so the order of the two phases does not change the verdict.
    The search runs on tuples of interned letters (:func:`_rule_table`).
    """
    p.check_word(w1)
    p.check_word(w2)
    if p.word_ends(w1) != p.word_ends(w2):
        raise ValueError("word endpoints do not match")
    if w1 == w2:
        return Verdict.EQUAL
    if separate and any(
        _apply(maps, w1.letters, x, inverses) != _apply(maps, w2.letters, x, inverses)
        for carrier, maps, inverses in _separating_actions(p, action_bound)
        for x in carrier[w1.start]
    ):
        return Verdict.DISTINCT
    table = _rule_table(p)
    code = table[0].__getitem__
    start, a, b = table[1][w1.start], tuple(map(code, w1.letters)), tuple(map(code, w2.letters))
    seen1, seen2 = {a}, {b}
    front1, front2 = [a], [b]
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
            for v in _neighbors(table, start, w):
                if v in other:
                    return Verdict.EQUAL
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        if grow1:
            front1 = new
        else:
            front2 = new
        if not front1 and not front2:
            break
    return Verdict.UNKNOWN
