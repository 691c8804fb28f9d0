"""Locally constant objects, gluing along descent data, action spans,
covering projections, and the two pipelines tying them together.

Gluing a cover descent datum produces a presheaf from the disjoint union
of trivial pieces, identified along the datum; the trivializations are
the quotient legs, and the datum can be read back off the
trivializations.  An action span is a span over two components on which
the datum acts by a single bijection; a datum is a covering projection
when the action spans with representable vertex jointly cover every
pairwise product.  The forward pipeline turns a covering projection into
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
    action_to_consistent,
    consistent_to_g_action,
    enumerate_s_descent_data,
    is_consistent,
    validate_s_descent,
    validate_u_descent,
)
from .errors import EmptyComponentError
from .family import ClassSpan, SelfDualFamily, span_morphism_exists, span_of_1simplex
from .fintopos import (
    Family,
    label_key,
    Presheaf,
    PresheafMap,
    constant_presheaf,
    family_components,
    product,
    quotient_by_pairs,
    sorted_labels,
)
from .groupoid import enumerate_actions, g_fundamental_presentation
from .hypercover import SpanClassSp, one_span_refinement, representable_span
from .simplicial import cech_nerve


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
    index = sorted(comps, key=label_key)
    fibers = {
        p: sorted_labels(
            (i, r, x) for i in index for r in u.carrier[i] for x in comps[i].fibers[p]
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
    nerve, _ = cech_nerve(cover)
    pairs = []
    for i, j in nerve.s1:
        for p in base.points:
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    m = u.value(i, j, p, x, y)
                    for r in u.carrier[i]:
                        pairs.append((p, (i, r, x), (j, m[r], y)))
    space, proj = quotient_by_pairs(total, pairs)
    theta = {}
    for i in index:
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


def _theta_violations(lc: LocallyConstant):
    out = []
    comps = family_components(lc.cover)
    base = lc.cover.total.base
    for i in sorted(comps, key=label_key):
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
    pair swap on the space by the two trivializations."""
    bad = _theta_violations(lc)
    if bad:
        raise ValueError("invalid trivialization: " + "; ".join(bad))
    comps = family_components(lc.cover)
    base = lc.cover.total.base
    nerve, _ = cech_nerve(lc.cover)
    inv = {
        i: {
            p: {v: k for k, v in lc.theta[i].comp[p].items()}
            for p in base.points
        }
        for i in sorted(comps, key=label_key)
    }
    sigma = {}
    for i, j in nerve.s1:
        table = {}
        for p in base.points:
            tp = {}
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    m = {}
                    for r in lc.carrier[i]:
                        xi = lc.theta[i].apply(p, (r, x))[0]
                        m[r] = inv[j][p][(xi, y)][0]
                    tp[(x, y)] = m
            table[p] = tp
        sigma[(i, j)] = table
    out = UDescentDatum(cover=lc.cover, carrier=dict(lc.carrier), sigma=sigma)
    bad = validate_u_descent(out)
    if bad:
        raise ValueError("extracted datum is invalid: " + "; ".join(bad))
    return out


def validate_trivialization(lc: LocallyConstant):
    """Empty iff the trivializations are isomorphisms over the components
    and the datum they induce satisfies the descent laws."""
    out = _theta_violations(lc)
    if out:
        return out
    try:
        extract_descent(lc)
    except ValueError as exc:
        out.append(str(exc))
    return out


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
    nerve, _ = cech_nerve(cover)
    for i, j in nerve.s1:
        for p in base.points:
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    span = representable_span(base, comps, i, j, p, x, y)
                    if action_span_test(span, u) is None:
                        return False
    return True


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
    nerve, _ = cech_nerve(cover)
    spans = []
    for i in sorted(comps, key=label_key):
        idmap = PresheafMap.identity(comps[i])
        ident = ClassSpan(i, i, comps[i], idmap, idmap)
        w = action_span_test(ident, u)
        if w is not None:
            spans.append(ActionSpan(ident, w))
    for i, j in nerve.s1:
        for p in base.points:
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    span = representable_span(base, comps, i, j, p, x, y)
                    w = action_span_test(span, u)
                    if w is not None:
                        spans.append(ActionSpan(span, w))
    seen, out = set(), []
    for s in spans:
        if s.data_key() not in seen:
            seen.add(s.data_key())
            out.append(s)
    return out


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
    if not is_consistent(datum, fam):
        raise ValueError("witness datum is not consistent")
    return fam, datum


def _structure_maps_commute(objects, gens, ends, carr1, carr2, act1, act2):
    """Families of carrier maps commuting with the two structures."""
    per_obj = [
        [dict(zip(carr1[i], vals)) for vals in itertools.product(carr2[i], repeat=len(carr1[i]))]
        for i in objects
    ]
    out = []
    for combo in itertools.product(*per_obj):
        m = dict(zip(objects, combo))
        ok = True
        for g in gens:
            i, j = ends(g)
            for x in carr1[i]:
                if m[j][act1[g][x]] != act2[g][m[i][x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(m)
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
    its refined fundamental groupoid form isomorphic categories."""
    from .family import condition_g
    from .hypercover import is_hypercover

    if not condition_g(f):
        raise ValueError("the refinement does not satisfy the filling condition")
    if not is_hypercover(f.base, cover):
        raise ValueError("the family is not a hypercover refinement of the cover")
    pres = g_fundamental_presentation(f)
    sset = f.base.sset
    data = [d for d in enumerate_s_descent_data(sset, bound) if is_consistent(d, f)]
    actions = enumerate_actions(pres, bound)
    mismatches = []
    round_ok = True

    def action_key(a):
        return (
            frozenset(a.carrier.items()),
            frozenset((g, frozenset(m.items())) for g, m in a.gen_action.items()),
        )

    act_index = {action_key(a): n for n, a in enumerate(actions)}
    to_action = []
    for d in data:
        a = consistent_to_g_action(d, f, pres)
        n = act_index.get(action_key(a))
        if n is None:
            mismatches.append("functor image is not an enumerated action")
        to_action.append(n)
        back = action_to_consistent(a, f, pres)
        if back.carrier != d.carrier or back.s != d.s:
            round_ok = False
    if None not in to_action and len(set(to_action)) != len(actions):
        mismatches.append("functor is not a bijection on objects")
    for a in actions:
        d = action_to_consistent(a, f, pres)
        b = consistent_to_g_action(d, f, pres)
        if b.carrier != a.carrier or b.gen_action != a.gen_action:
            round_ok = False

    def ends(g):
        return (pres.src[g], pres.tgt[g])

    hom_d, hom_a = {}, {}
    if not mismatches:
        # Hom sets compared along the functor: entry (n1, n2) on the action
        # side counts equivariant maps between the images of data n1, n2.
        for n1, d1 in enumerate(data):
            for n2, d2 in enumerate(data):
                hom_d[(n1, n2)] = len(
                    _structure_maps_commute(
                        sset.s0, sset.s1, sset.endpoints, d1.carrier, d2.carrier, d1.s, d2.s
                    )
                )
                a1, a2 = actions[to_action[n1]], actions[to_action[n2]]
                hom_a[(n1, n2)] = len(
                    _structure_maps_commute(
                        pres.objects,
                        pres.generators,
                        ends,
                        a1.carrier,
                        a2.carrier,
                        a1.gen_action,
                        a2.gen_action,
                    )
                )
    return MainTwoReport(
        object_count_data=len(data),
        object_count_actions=len(actions),
        hom_counts_data=hom_d,
        hom_counts_actions=hom_a,
        round_trips_identity=round_ok,
        mismatches=mismatches,
    )
