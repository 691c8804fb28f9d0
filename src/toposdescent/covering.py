"""Locally constant objects, gluing along descent data, action spans,
covering projections, and the two pipelines tying them together.

Gluing a cover descent datum produces a presheaf from the disjoint union
of trivial pieces, identified along the datum; the trivializations are
the quotient legs, and the datum can be read back off the
trivializations.  An action span is a span over two components on which
the datum acts by a single bijection; a datum is a covering projection
when the action spans with representable vertex jointly cover every
pairwise product.  These functions walk the elements of the pairwise
products of overlapping components in one order
(``simplicial._pair_elements``), read off the components without building
the Čech nerve.  The forward pipeline turns a covering projection into
a hypercover refinement with an index descent datum; the second pipeline
matches the consistent index data with the actions of the refined
fundamental groupoid, by exhaustive verification at a carrier bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .descent import (
    SDescentDatum,
    UDescentDatum,
    _as_action,
    _as_datum,
    _equal_on_span_morphisms,
    enumerate_s_descent_data,
    validate_s_descent,
    validate_u_descent,
)
from .errors import EmptyComponentError, InvariantError
from .family import ClassSpan, SelfDualFamily, condition_g, span_morphism_exists, span_of_1simplex
from .fintopos import (
    Family,
    Presheaf,
    PresheafMap,
    constant_presheaf,
    family_components,
    product,
    quotient_by_pairs,
    sorted_labels,
)
from .groupoid import enumerate_actions, g_fundamental_presentation
from .hypercover import (
    SpanClassSp,
    _unique_by,
    is_hypercover,
    one_span_refinement,
    representable_span,
)
from .simplicial import _overlaps, _pair_elements


@dataclass
class LocallyConstant:
    """A presheaf trivialized over a cover: per component, an isomorphism
    between a constant piece and the restriction of the space."""

    space: Presheaf
    cover: Family
    carrier: dict
    theta: dict


@dataclass
class ActionSpan:
    """A span over a pair of components together with the single carrier
    bijection through which a descent datum acts on it."""

    span: ClassSpan
    witness: dict

    def data_key(self):
        return self.span.data_key()


def glue(cover: Family, u: UDescentDatum) -> LocallyConstant:
    """Glue the trivial pieces along the datum: quotient the disjoint union
    of carrier-times-component presheaves by the identifications the datum
    prescribes over each pairwise product."""
    bad = validate_u_descent(u)
    if bad:
        raise ValueError("invalid descent datum: " + "; ".join(bad))
    comps = family_components(cover)
    base = cover.total.base
    fibers = {
        p: sorted_labels(
            (i, r, x) for i in cover.index for r in u.carrier[i] for x in comps[i].fibers[p]
        )
        for p in base.points
    }
    rest = {
        (p, q): {
            (i, r, x): (i, r, comps[i].restrictions[(p, q)][x]) for (i, r, x) in fibers[q]
        }
        for (p, q) in base.strict_pairs()
    }
    total = Presheaf(base, fibers, rest)
    glued = []
    for i, j, p, x, y in _pair_elements(base.points, comps, _overlaps(cover.index, comps)[0]):
        m = u.value(i, j, p, x, y)
        glued.extend((p, (i, r, x), (j, m[r], y)) for r in u.carrier[i])
    space, proj = quotient_by_pairs(total, glued)
    theta = {}
    for i in cover.index:
        piece, _, _ = product(constant_presheaf(u.carrier[i], base), comps[i])
        target, _, _ = product(space, comps[i])
        comp = {
            p: {
                (r, x): (proj.apply(p, (i, r, x)), x) for (r, x) in piece.fibers[p]
            }
            for p in base.points
        }
        theta[i] = PresheafMap(piece, target, comp)
    return LocallyConstant(space=space, cover=cover, carrier=dict(u.carrier), theta=theta)


def validate_trivialization(lc: LocallyConstant):
    """Empty iff each trivialization is an isomorphism over its component
    between the constant piece of its carrier and the space.  The datum such
    trivializations induce (:func:`extract_descent`) then satisfies the
    descent laws by construction, so it is not checked here."""
    out = []
    comps = family_components(lc.cover)
    base = lc.cover.total.base
    for i in comps:
        th = lc.theta.get(i)
        if th is None:
            out.append(f"no trivialization at {i!r}")
            continue
        piece, _, _ = product(constant_presheaf(lc.carrier[i], base), comps[i])
        target, _, _ = product(lc.space, comps[i])
        if th.dom != piece or th.cod != target:
            out.append(f"trivialization at {i!r} has wrong endpoints")
            continue
        for p in base.points:
            for (r, x) in piece.fibers[p]:
                if th.apply(p, (r, x))[1] != x:
                    out.append(f"trivialization at {i!r} is not over the component")
                    break
        if not th.is_iso():
            out.append(f"trivialization at {i!r} is not an isomorphism")
    return out


def extract_descent(lc: LocallyConstant) -> UDescentDatum:
    """Read the descent datum back from the trivializations: conjugate the
    pair swap on the space by the two trivializations.  Trivializations that
    pass :func:`validate_trivialization` give a datum by construction, and it
    is not validated again."""
    bad = validate_trivialization(lc)
    if bad:
        raise ValueError("invalid trivialization: " + "; ".join(bad))
    comps = family_components(lc.cover)
    base = lc.cover.total.base
    pairs, _ = _overlaps(lc.cover.index, comps)
    inv = {
        i: {
            p: {v: k for k, v in lc.theta[i].comp[p].items()}
            for p in base.points
        }
        for i in comps
    }
    sigma = {pair: {p: {} for p in base.points} for pair in pairs}
    for i, j, p, x, y in _pair_elements(base.points, comps, pairs):
        sigma[i, j][p][x, y] = {
            r: inv[j][p][(lc.theta[i].apply(p, (r, x))[0], y)][0] for r in lc.carrier[i]
        }
    return UDescentDatum(cover=lc.cover, carrier=dict(lc.carrier), sigma=sigma)


def action_span_test(span: ClassSpan, u: UDescentDatum):
    """The witness bijection of the span, or None.

    The witness exists when the datum takes the same value on the leg image
    of every element of the vertex, at every point; the vertex must be
    non-initial, which makes the witness unique.
    """
    if span.vertex.is_initial():
        raise EmptyComponentError("action span test on an initial vertex")
    witness = None
    for p in span.vertex.base.points:
        for z in span.vertex.fibers[p]:
            m = u.value(span.i, span.j, p, span.left.apply(p, z), span.right.apply(p, z))
            if witness is None:
                witness = m
            elif witness != m:
                return None
    return dict(witness)


def is_covering_projection(cover: Family, u: UDescentDatum) -> bool:
    """Whether every element of every pairwise product is the leg image of
    an action span with representable vertex (the canonical site of the
    presheaf topos)."""
    bad = validate_u_descent(u)
    if bad:
        raise ValueError("invalid descent datum: " + "; ".join(bad))
    comps = family_components(cover)
    base = cover.total.base
    return all(
        action_span_test(representable_span(base, comps, i, j, p, x, y), u) is not None
        for i, j, p, x, y in _pair_elements(base.points, comps, _overlaps(cover.index, comps)[0])
    )


def sieve_check(spans) -> bool:
    """Whether a set of action spans is closed under precomposition by span
    morphisms, with matching witnesses.

    Checks the representable sub-spans induced by every vertex element and
    every span morphism between listed members.
    """
    table = {s.data_key(): s.witness for s in spans}
    for s in spans:
        base = s.span.vertex.base
        i, j = s.span.i, s.span.j
        comps_feet = {i: s.span.left.cod, j: s.span.right.cod}
        for p in base.points:
            for z in s.span.vertex.fibers[p]:
                x, y = s.span.left.apply(p, z), s.span.right.apply(p, z)
                sub = representable_span(base, comps_feet, i, j, p, x, y)
                if table.get(sub.data_key()) != s.witness:
                    return False
    for a in spans:
        for b in spans:
            if (a.span.i, a.span.j) != (b.span.i, b.span.j) or a.data_key() == b.data_key():
                continue
            if span_morphism_exists(a.span, b.span) and a.witness != b.witness:
                return False
    return True


def all_action_spans(cover: Family, u: UDescentDatum):
    """Identity spans plus every action span with representable vertex."""
    comps = family_components(cover)
    base = cover.total.base
    spans = []
    for i in cover.index:
        idmap = PresheafMap.identity(comps[i])
        ident = ClassSpan(i, i, comps[i], idmap, idmap)
        w = action_span_test(ident, u)
        if w is not None:
            spans.append(ActionSpan(ident, w))
    for i, j, p, x, y in _pair_elements(base.points, comps, _overlaps(cover.index, comps)[0]):
        span = representable_span(base, comps, i, j, p, x, y)
        w = action_span_test(span, u)
        if w is not None:
            spans.append(ActionSpan(span, w))
    return list(_unique_by(spans, ActionSpan.data_key))


def main1_forward(cover: Family, u: UDescentDatum):
    """From a covering projection to a hypercover refinement carrying an
    index descent datum: refine by the action spans with representable
    vertex (plus identities) and read the datum off the witnesses."""
    if not is_covering_projection(cover, u):
        raise ValueError("the datum is not a covering projection")
    spans = all_action_spans(cover, u)
    fam = one_span_refinement(cover, SpanClassSp(tuple(s.span for s in spans)))
    s = {}
    for l in fam.base.sset.s1:
        w = action_span_test(span_of_1simplex(fam.base, l), u)
        if w is None:
            raise ValueError(f"refinement 1-simplex {l!r} is not an action span")
        s[l] = w
    datum = SDescentDatum(carrier=dict(u.carrier), s=s)
    bad = validate_s_descent(fam.base.sset, datum)
    if bad:
        raise ValueError("witnesses do not form a descent datum: " + "; ".join(bad))
    if not _equal_on_span_morphisms(datum, fam):
        raise ValueError("witness datum is not consistent")
    return fam, datum


def _orbits(objects, gens, ends, carr, act):
    """The orbits of a structure's carriers under its generators, in the
    order of their first element (object by object, element by element in
    carrier order), each as ``(shape, members)``.

    ``members`` lists the orbit's elements ``(i, x)`` by position: the first
    element, then the others in the order a breadth-first walk along the
    generators, forwards and then backwards, reaches them.  The shape drops
    the labels: it holds the object at each position, how each later
    position is reached, as ``(from, g, forwards)``, and the other
    generator links ``(from, g, to)``.  Two orbits that correspond along the
    generators, first element to first element, have equal shapes.
    """
    moves = {(i, x): [] for i in objects for x in carr[i]}
    for g in gens:
        i, j = ends(g)
        for x in carr[i]:
            moves[i, x].append((g, True, (j, act[g][x])))
    for g in gens:
        i, j = ends(g)
        for x in carr[i]:
            moves[j, act[g][x]].append((g, False, (i, x)))
    out, seen = [], set()
    for root in moves:
        if root in seen:
            continue
        members, pos, tree, links = [root], {root: 0}, [], []
        for k, v in enumerate(members):
            for g, forwards, w in moves[v]:
                if w not in pos:
                    pos[w] = len(members)
                    members.append(w)
                    tree.append((k, g, forwards))
                elif forwards:
                    links.append((k, g, pos[w]))
        seen.update(members)
        shape = (tuple(i for i, _ in members), tuple(tree), tuple(links))
        out.append((shape, members))
    return out


def _inverses(gens, act):
    """The inverse of each generator map of a target structure; going
    backwards along a generator needs its map injective."""
    out = {}
    for g in gens:
        out[g] = {y: x for x, y in act[g].items()}
        if len(out[g]) != len(act[g]):
            raise InvariantError(f"the second structure's map of {g!r} is not injective")
    return out


def _shape_images(shape, carr, act, inverse):
    """The values, by position, of each map from an orbit of this shape
    that commutes with the target structure ``(carr, act)``: the root takes
    each value in target carrier order, the value is pushed along the
    generators (backwards through ``inverse``), and it succeeds if every
    position lands in its carrier and every other link commutes."""
    objs, tree, links = shape
    allowed = [set(carr[i]) for i in objs]
    out = []
    for y in carr[objs[0]]:
        values = [y]
        for k, g, forwards in tree:
            step = act[g] if forwards else inverse[g]
            if values[k] not in step or step[values[k]] not in allowed[len(values)]:
                break
            values.append(step[values[k]])
        else:
            if all(values[k] in act[g] and act[g][values[k]] == values[w] for k, g, w in links):
                out.append(values)
    return out


def _structure_maps_commute(objects, gens, ends, carr1, carr2, act1, act2):
    """Families of carrier maps commuting with the two structures, in the
    order of the product of the carriers' maps: lexicographic in the
    ``carr2`` position of each image, object by object and element by
    element in ``carr1`` order.

    A commuting family is fixed on each orbit of ``carr1`` by its value at
    the orbit's first element, and orbits are independent.  So the
    families are the product of the images of the orbits
    (``_shape_images``), taken in the order of each orbit's first element.
    A target generator map that is not injective raises ``InvariantError``.
    """
    inverse = _inverses(gens, act2)
    images = [
        [dict(zip(members, values)) for values in _shape_images(shape, carr2, act2, inverse)]
        for shape, members in _orbits(objects, gens, ends, carr1, act1)
    ]
    out = []
    for combo in itertools.product(*images):
        value = {}
        for part in combo:
            value.update(part)
        out.append({i: {x: value[i, x] for x in carr1[i]} for i in objects})
    return out


def _hom_counts(objects, gens, ends, structures):
    """The number of commuting carrier-map families between every ordered
    pair of ``(carr, act)`` structures, keyed ``(n1, n2)`` with ``n1``
    varying slowest: ``len(_structure_maps_commute(...))`` without listing
    the maps.

    Each count is the product over the orbits of the source of the number
    of root values that propagate through the target.  The orbits of each
    structure are read once, and each target solves each distinct orbit
    shape once.  Every target's generator maps are checked injective.
    """
    shapes = [[shape for shape, _ in _orbits(objects, gens, ends, carr, act)] for carr, act in structures]
    inverses = [_inverses(gens, act) for _, act in structures]
    solved = [{} for _ in structures]
    out = {}
    for n1, row in enumerate(shapes):
        for n2, (carr, act) in enumerate(structures):
            known, count = solved[n2], 1
            for shape in row:
                if shape not in known:
                    known[shape] = len(_shape_images(shape, carr, act, inverses[n2]))
                count *= known[shape]
            out[n1, n2] = count
    return out


@dataclass
class MainTwoReport:
    object_count_data: int
    object_count_actions: int
    hom_counts_data: dict
    hom_counts_actions: dict
    round_trips_identity: bool
    mismatches: list

    @property
    def ok(self):
        return (
            self.object_count_data == self.object_count_actions
            and self.hom_counts_data == self.hom_counts_actions
            and self.round_trips_identity
            and not self.mismatches
        )


def main2_equivalence(cover: Family, f: SelfDualFamily, bound: int = 2) -> MainTwoReport:
    """Verify, by exhaustive enumeration at the carrier bound, that the
    consistent index descent data over the refinement and the actions of
    its refined fundamental groupoid form isomorphic categories.

    Hom sets are counted, not listed (``_hom_counts``): a datum is the
    coproduct of its orbits, so each count is a product of per-orbit
    counts.  A negative bound raises ``ValueError``."""
    if not condition_g(f):
        raise ValueError("the refinement does not satisfy the filling condition")
    if not is_hypercover(f.base, cover):
        raise ValueError("the family is not a hypercover refinement of the cover")
    pres = g_fundamental_presentation(f)
    sset = f.base.sset
    data = [d for d in enumerate_s_descent_data(sset, bound) if _equal_on_span_morphisms(d, f)]
    actions = enumerate_actions(pres, bound)
    mismatches = []
    round_ok = True

    def action_key(a):
        return (
            frozenset(a.carrier.items()),
            frozenset((g, frozenset(m.items())) for g, m in a.gen_action.items()),
        )

    # The searches build valid data and actions, so the round trips read
    # one as the other unchecked: a consistent datum satisfies the extra
    # relations of the refined presentation, and an action of it restricts
    # to a consistent datum.  An image that is no action is not found
    # among the enumerated ones.
    act_index = {action_key(a): n for n, a in enumerate(actions)}
    to_action = []
    for d in data:
        a = _as_action(sset, d)
        n = act_index.get(action_key(a))
        if n is None:
            mismatches.append("functor image is not an enumerated action")
        to_action.append(n)
        back = _as_datum(sset, a)
        if back.carrier != d.carrier or back.s != d.s:
            round_ok = False
    if None not in to_action and len(set(to_action)) != len(actions):
        mismatches.append("functor is not a bijection on objects")
    for a in actions:
        d = _as_datum(sset, a)
        b = _as_action(sset, d)
        if b.carrier != a.carrier or b.gen_action != a.gen_action:
            round_ok = False

    hom_d, hom_a = {}, {}
    if not mismatches:
        # Each datum matched an action with equal carriers and generator
        # maps, so one count serves the hom set on both sides.
        hom_d = _hom_counts(sset.s0, sset.s1, sset.endpoints, [(d.carrier, d.s) for d in data])
        hom_a = dict(hom_d)
    return MainTwoReport(
        object_count_data=len(data),
        object_count_actions=len(actions),
        hom_counts_data=hom_d,
        hom_counts_actions=hom_a,
        round_trips_identity=round_ok,
        mismatches=mismatches,
    )
