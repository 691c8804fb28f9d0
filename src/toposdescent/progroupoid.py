"""Diagrams of fundamental groupoids over hypercovers: transition functors
along refinements, strictness, and the classifying category of actions.

A finite fragment of the refinement diagram is supplied by the user:
hypercover nodes and refinement morphisms between them.  Each refinement
induces a functor between the refined fundamental groupoids (objects and
generators map along the index morphism); functoriality is certified
with the bounded word-equality procedure.  A transition is strict when
it is surjective on objects, on arrows up to certified equality, and on
composable pairs (a lifted pair composes to a lift of the composite, so
triangles lift as soon as pairs do).
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass

from .covering import _structure_maps_commute
from .errors import UndeterminedError, refuse
from .family import (
    SelfDualFamily,
    SimplicialFamilyMorphism,
    condition_g,
    morphism_commutes_with_dualities,
    validate_simplicial_family_morphism,
)
from .fintopos import PresheafMap, label_key
from .groupoid import (
    GroupoidPresentation,
    Verdict,
    Word,
    enumerate_actions,
    g_fundamental_presentation,
    generator_congruence,
    word_equal,
)
from .hypercover import is_hypercover
from .simplicial import SimplicialMap


@dataclass
class HypercoverIndex:
    """Nodes are hypercover refinements over their covers, edges are
    refinement morphisms between them (a poset-shaped finite diagram).

    Construction checks that every edge names known nodes, in edge order,
    and that the edges form no cycle, a self-loop included; the cycle check
    is ``graphlib.TopologicalSorter``'s."""

    covers: dict
    nodes: dict
    refinements: dict

    def __post_init__(self):
        graph = graphlib.TopologicalSorter()
        for a, b in self.refinements:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"refinement ({a!r}, {b!r}) mentions unknown node")
            graph.add(b, a)
        try:
            graph.prepare()
        except graphlib.CycleError:
            raise ValueError("refinement diagram has a cycle") from None


def _sorted_edges(refinements):
    """Edge items in ``label_key`` order of their names, which may mix types."""
    return sorted(refinements.items(), key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1])))


def validate_index(pi: HypercoverIndex):
    """Node and edge health: hypercovers with the filling condition, valid
    morphisms commuting with the dualities."""
    out = []
    for name, fam in sorted(pi.nodes.items(), key=lambda kv: label_key(kv[0])):
        cover = pi.covers[name]
        if not is_hypercover(fam.base, cover):
            out.append(f"node {name!r} is not a hypercover")
        if not condition_g(fam):
            out.append(f"node {name!r} fails the filling condition")
    for (a, b), m in _sorted_edges(pi.refinements):
        for v in validate_simplicial_family_morphism(m):
            out.append(f"refinement ({a!r}, {b!r}): {v}")
        for v in morphism_commutes_with_dualities(m, pi.nodes[a], pi.nodes[b]):
            out.append(f"refinement ({a!r}, {b!r}): {v}")
    return out


@dataclass
class FunctorData:
    """A functor between presented groupoids: an object map and a word per
    generator, with every source relation certified in the target."""

    source: GroupoidPresentation
    target: GroupoidPresentation
    object_map: dict
    gen_map: dict

    def word_image(self, w: Word) -> Word:
        letters = []
        for g, sign in w.letters:
            img = self.gen_map[g]
            letters.extend(img.letters if sign > 0 else self.target.inverse_word(img).letters)
        return Word(self.object_map[w.start], tuple(letters))


def transition_functor(
    m: SimplicialFamilyMorphism,
    source: GroupoidPresentation,
    target: GroupoidPresentation,
    budget: int = 10,
) -> FunctorData:
    """The functor induced by a refinement morphism: objects go along the
    index map in degree zero, generators along degree one.  Every source
    relation must be certified equal in the target; an unknown verdict
    raises as budget exhaustion, a separating action as a hard failure."""
    fd = FunctorData(
        source=source,
        target=target,
        object_map=dict(m.alpha.h0),
        gen_map={l: Word(m.alpha.h0[source.src[l]], ((m.alpha.h1[l], 1),)) for l in source.generators},
    )
    target_relations = {(a, b) for a, b in target.relations}
    target_relations |= {(b, a) for a, b in target.relations}
    for wa, wb in source.relations:
        ia, ib = fd.word_image(wa), fd.word_image(wb)
        if ia == ib or (ia, ib) in target_relations:
            continue
        verdict = word_equal(target, ia, ib, budget)
        if verdict is Verdict.UNKNOWN:
            raise UndeterminedError("relation not preserved (budget exhausted)")
        if verdict is Verdict.DISTINCT:
            raise ValueError("relation not preserved")
    return fd


@dataclass
class StrictnessReport:
    strict: bool
    failures: list
    undetermined: list


def _arrow_lifts(fd: FunctorData, gen, budget, max_len):
    """Source words (up to max_len letters) whose image is certified equal
    to the target generator.

    The single-letter congruence of the target settles the common case (a
    source generator whose image is related to the goal) without any word
    search; the bounded rewriting search only runs as a fallback, without
    the separating-action phase.
    """
    tgt = fd.target
    goal = Word(tgt.src[gen], ((gen, 1),))
    find, trivial = generator_congruence(tgt)
    lifts = []
    unknown = False
    src_objs = {o for o in fd.source.objects if fd.object_map[o] == tgt.src[gen]}

    if gen in trivial:
        for o in sorted(src_objs, key=label_key):
            if fd.object_map[o] == tgt.tgt[gen]:
                lifts.append(Word(o, ()))
    for g in fd.source.generators:
        img = fd.gen_map[g]
        if len(img.letters) == 1 and img.letters[0][1] > 0:
            if find(img.letters[0][0]) == find(gen) and img.start == tgt.src[gen]:
                lifts.append(Word(fd.source.src[g], ((g, 1),)))
    if lifts:
        return lifts, False

    def try_word(w):
        nonlocal unknown
        img = fd.word_image(w)
        if fd.target.word_ends(img) != fd.target.word_ends(goal):
            return
        verdict = word_equal(tgt, img, goal, budget, separate=False)
        if verdict is Verdict.EQUAL:
            lifts.append(w)
        elif verdict is Verdict.UNKNOWN:
            unknown = True

    for o in sorted(src_objs, key=label_key):
        try_word(Word(o, ()))
    seqs = [()]
    for _ in range(max_len):
        grown = []
        for seq in seqs:
            for g in fd.source.generators:
                for sign in (1, -1):
                    a, _ = fd.source.letter_ends((g, sign))
                    if seq and fd.source.letter_ends(seq[-1])[1] != a:
                        continue
                    grown.append(seq + ((g, sign),))
        seqs = grown
        for seq in seqs:
            a = fd.source.letter_ends(seq[0])[0]
            if a in src_objs:
                try_word(Word(a, seq))
    return lifts, unknown


def is_strict(fd: FunctorData, budget: int = 10, max_len: int = 2) -> StrictnessReport:
    """Surjectivity on objects, on generators up to certified equality, and
    on composable generator pairs (lifting pairs with a common middle
    object; the composite of a lifted pair lifts the composite triangle)."""
    failures, undetermined = [], []
    image_objs = set(fd.object_map.values())
    for o in fd.target.objects:
        if o not in image_objs:
            failures.append(f"object {o!r} is not in the image")
    lifts = {}
    for gen in fd.target.generators:
        found, unknown = _arrow_lifts(fd, gen, budget, max_len)
        lifts[gen] = found
        if not found:
            if unknown:
                undetermined.append(f"generator {gen!r}: lift search exhausted the budget")
            else:
                failures.append(f"generator {gen!r} has no lift")
    for g1 in fd.target.generators:
        for g2 in fd.target.generators:
            if fd.target.tgt[g1] != fd.target.src[g2]:
                continue
            if not lifts[g1] or not lifts[g2]:
                continue
            composable = any(
                fd.source.word_ends(w1)[1] == fd.source.word_ends(w2)[0]
                for w1 in lifts[g1]
                for w2 in lifts[g2]
            )
            if not composable:
                failures.append(
                    f"composable pair ({g1!r}, {g2!r}) has no composable lift"
                )
    return StrictnessReport(
        strict=not failures and not undetermined,
        failures=failures,
        undetermined=undetermined,
    )


@dataclass
class CategoryData:
    """The category of bounded finite actions of a presented groupoid."""

    presentation: GroupoidPresentation
    objects: list
    homs: dict
    identities_ok: bool
    composition_ok: bool


def classifying_category(p: GroupoidPresentation, bound: int) -> CategoryData:
    """Objects are all actions with carriers at most the bound, morphisms
    the equivariant families of maps; identities and composition are
    verified to stay inside the homs."""
    actions = enumerate_actions(p, bound)

    def ends(g):
        return (p.src[g], p.tgt[g])

    homs = {}
    for n1, a1 in enumerate(actions):
        for n2, a2 in enumerate(actions):
            homs[(n1, n2)] = _structure_maps_commute(
                p.objects, p.generators, ends, a1.carrier, a2.carrier, a1.gen_action, a2.gen_action
            )

    def frozen(m):
        return frozenset((i, frozenset(m[i].items())) for i in p.objects)

    members = {key: {frozen(m) for m in maps} for key, maps in homs.items()}
    identities_ok = all(
        frozen({i: {x: x for x in a.carrier[i]} for i in p.objects}) in members[(n, n)]
        for n, a in enumerate(actions)
    )
    composition_ok = True
    for n1 in range(len(actions)):
        for n2 in range(len(actions)):
            for n3 in range(len(actions)):
                for m1 in homs[(n1, n2)]:
                    for m2 in homs[(n2, n3)]:
                        comp = {
                            i: {x: m2[i][m1[i][x]] for x in actions[n1].carrier[i]}
                            for i in p.objects
                        }
                        if frozen(comp) not in members[(n1, n3)]:
                            composition_ok = False
    return CategoryData(p, actions, homs, identities_ok, composition_ok)


@dataclass
class ProGroupoid:
    """Groupoid presentations per node with transition functors per edge."""

    groupoids: dict
    transitions: dict


def assemble(pi: HypercoverIndex, budget: int = 10, max_len: int = 2):
    """Build the groupoid diagram of a hypercover fragment and tabulate the
    strictness of every transition; composite edges present in the diagram
    are checked against the composites of their factors.

    Returns (progroupoid, report).  Any invalid node or refinement aborts
    with its diagnosis.
    """
    refuse(validate_index(pi), "invalid hypercover index")
    groupoids = {name: g_fundamental_presentation(fam) for name, fam in pi.nodes.items()}
    transitions = {}
    report = {}
    for (a, b), m in _sorted_edges(pi.refinements):
        fd = transition_functor(m, groupoids[a], groupoids[b], budget)
        transitions[(a, b)] = fd
        rep = is_strict(fd, budget, max_len)
        report[(a, b)] = rep
    for (a, b) in transitions:
        for (b2, c) in transitions:
            if b2 != b or (a, c) not in transitions:
                continue
            fab, fbc, fac = transitions[(a, b)], transitions[(b2, c)], transitions[(a, c)]
            for g in fab.source.generators:
                lhs = fbc.word_image(fab.gen_map[g])
                rhs = fac.gen_map[g]
                verdict = word_equal(fac.target, lhs, rhs, budget)
                if verdict is not Verdict.EQUAL:
                    raise ValueError(
                        f"transitions do not compose along ({a!r}, {b!r}, {c!r}) at {g!r}"
                    )
    return ProGroupoid(groupoids, transitions), report


def _strip(e):
    """Span-refinement level elements are tagged (simplex, element).  The
    elements of one component share their tag and are listed in label
    order, so stripped they stay in label order."""
    return e[1]


def _span_data(fam: SelfDualFamily, l):
    base = fam.base
    i, j = base.sset.endpoints(l)
    comp = base.component(1, l)
    d1, d0 = base.face[(1, 1)], base.face[(1, 0)]
    frozen = tuple(
        (p, tuple(map(_strip, fib)), tuple((_strip(e), d1.apply(p, e)) for e in fib),
         tuple((_strip(e), d0.apply(p, e)) for e in fib))
        for p, fib in comp.fibers.items()
    )
    return (i, j, frozen)


def _triangle_data(fam: SelfDualFamily, w):
    """Per point, the stripped elements of the component of ``w`` with the
    stripped images under its three faces."""
    base = fam.base
    comp = base.component(2, w)
    faces = [base.face[(2, k)] for k in (2, 1, 0)]

    def rows(p):
        return tuple((_strip(e), tuple(_strip(d.apply(p, e)) for d in faces)) for e in comp.fibers[p])

    return tuple((p, rows(p)) for p in comp.base.points)


def inclusion_morphism(src: SelfDualFamily, tgt: SelfDualFamily) -> SimplicialFamilyMorphism:
    """Match a span refinement into a larger one by literal span data.

    Works for families produced by the refinement constructions (level
    elements are tagged with their simplex).  Indices, vertices and legs of
    the source must appear verbatim in the target.
    """
    sb, tb = src.base, tgt.base
    if not set(sb.sset.s0) <= set(tb.sset.s0):
        raise ValueError("source indices do not embed in the target")
    tgt_spans = {_span_data(tgt, l): l for l in tb.sset.s1}
    a1 = {}
    for l in sb.sset.s1:
        key = _span_data(src, l)
        if key not in tgt_spans:
            raise ValueError(f"source 1-simplex {l!r} has no literal match in the target")
        a1[l] = tgt_spans[key]
    tgt_tri = {}
    for w in tb.sset.s2:
        key = tuple(tb.sset.d(2, k, w) for k in (2, 1, 0)) + (_triangle_data(tgt, w),)
        tgt_tri[key] = w
    a2 = {}
    for w in sb.sset.s2:
        key = tuple(a1[sb.sset.d(2, k, w)] for k in (2, 1, 0)) + (_triangle_data(src, w),)
        if key not in tgt_tri:
            raise ValueError(f"source 2-simplex {w!r} has no literal match in the target")
        a2[w] = tgt_tri[key]
    alpha = SimplicialMap(sb.sset, tb.sset, {i: i for i in sb.sset.s0}, a1, a2)
    h0 = PresheafMap(
        sb.h0, tb.h0, {p: {e: e for e in sb.h0.fibers[p]} for p in sb.h0.base.points}
    )
    h1 = PresheafMap(
        sb.h1,
        tb.h1,
        {p: {e: (a1[e[0]], e[1]) for e in sb.h1.fibers[p]} for p in sb.h1.base.points},
    )
    h2 = PresheafMap(
        sb.h2,
        tb.h2,
        {p: {e: (a2[e[0]], e[1]) for e in sb.h2.fibers[p]} for p in sb.h2.base.points},
    )
    return SimplicialFamilyMorphism(sb, tb, h0, h1, h2, alpha)
