"""Coskeleton data, hypercover checks, and span refinements of a cover.

The refinement constructions build a self-dual simplicial family over a
cover out of a class of spans: 1-simplices are spans over pairs of
components, 2-simplices are commuting two-storey spans, faces forget
storeys, and the duality swaps legs.  The coskeleton data (pairwise
products ``P_ij`` and boundary-triangle limits ``P_ltr``) supports the
hypercover test: the canonical component maps into them must be jointly
epimorphic at levels one and two.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .errors import ClosureError, EmptyComponentError, InvariantError
from .fintopos import (
    Family,
    Presheaf,
    PresheafMap,
    _constant,
    _coproduct,
    _hit_sets,
    _missed,
    cover_is_epi,
    family_components,
    hom_enumerate,
    is_connected,
    pairing,
    product,
    representable,
    sorted_labels,
)
from .family import ClassSpan, SelfDualFamily, SimplicialFamily, span_of_1simplex
from .simplicial import StrictDuality, TruncSSet, _overlaps, _values_along


@dataclass
class CoskData:
    """Pairwise products and boundary-triangle limits of a family."""

    nerve_pairs: tuple
    pair_limit: dict
    t2: tuple
    triple_limit: dict


def _triangle_limit(base, sl, st, sr) -> Presheaf:
    """Limit of the boundary of a two-storey span: compatible leg triples of
    the three spans (anything with ``vertex``, ``left`` and ``right``).

    The triples are listed in the order of the vertices' sorted fibers,
    which is their ``label_key`` order."""
    fibers = {}
    for p in base.points:
        out = []
        for a in sl.vertex.fibers[p]:
            for b in st.vertex.fibers[p]:
                if st.left.apply(p, b) != sl.left.apply(p, a):
                    continue
                for c in sr.vertex.fibers[p]:
                    if sr.left.apply(p, c) == sl.right.apply(p, a) and sr.right.apply(
                        p, c
                    ) == st.right.apply(p, b):
                        out.append((a, b, c))
        fibers[p] = tuple(out)
    rest = {
        (p, q): {
            (a, b, c): (
                sl.vertex.restrict(p, q, a),
                st.vertex.restrict(p, q, b),
                sr.vertex.restrict(p, q, c),
            )
            for (a, b, c) in fibers[q]
        }
        for (p, q) in base.strict_pairs()
    }
    return Presheaf._trusted(base, fibers, rest)


def _by_pair(items, ends):
    """The items grouped by their endpoint pair ``ends(item)``, in order."""
    out = {}
    for x in items:
        out.setdefault(ends(x), []).append(x)
    return out


def _composable_triples(by_pair, index):
    """Triangle boundaries ``(l, t, r)``: ``l`` over ``(i, j)``, ``t`` over
    ``(i, k)`` and ``r`` over ``(j, k)``, for ``i, j, k`` in ``index`` and
    1-simplices or spans grouped by endpoint pair.

    The triples come in the order of ``l``, then ``t``, then ``r``: label
    order, when ``index`` and the lists of ``by_pair`` are in label order
    and the labels start with their endpoint pair."""
    for i, j in itertools.product(index, repeat=2):
        for l in by_pair.get((i, j), ()):
            for k in index:
                for t in by_pair.get((i, k), ()):
                    for r in by_pair.get((j, k), ()):
                        yield l, t, r


def cosk_data(f: SimplicialFamily) -> CoskData:
    """Compute the coskeleton data of a simplicial family.

    Uses only the level-0 and level-1 data, so it is meaningful even when
    the family has no 2-simplices.
    """
    base = f.h0.base
    comps = {i: f.component(0, i) for i in f.sset.s0}
    pairs, _ = _overlaps(f.sset.s0, comps)
    pair_limit = {(i, j): product(comps[i], comps[j])[0] for i, j in pairs}
    spans = {l: span_of_1simplex(f, l) for l in f.sset.s1}
    t2, triple_limit = [], {}
    by_pair = _by_pair(f.sset.s1, f.sset.endpoints)
    for l, t, r in _composable_triples(by_pair, f.sset.s0):
        lim = _triangle_limit(base, spans[l], spans[t], spans[r])
        if not lim.is_initial():
            t2.append((l, t, r))
            triple_limit[(l, t, r)] = lim
    return CoskData(pairs, pair_limit, tuple(t2), triple_limit)


def _uncovered(f: SimplicialFamily, n, limits) -> dict:
    """Per key of ``limits``, the elements that no element of ``H_n`` hits.

    The faces of an element over ``w`` are its point in the limit over the
    boundary of ``w``; a point outside that limit raises ``ValueError``.
    """
    ix, lower = f.sset._positions_view(), f.sset.level(n - 1)
    ks = range(n, -1, -1)
    faces = [f.face[(n, k)] for k in ks]
    # the boundary of each n-simplex, by position, and its limit
    boundary = list(zip(*(map(lower.__getitem__, ix.face[(n, k)]) for k in ks)))
    lims = [limits.get(key) for key in boundary]
    hit = defaultdict(lambda: defaultdict(set))
    for p in f.h0.base.points:
        fiber = f.level(n).fibers[p]
        simplex = map(ix.pos[n].__getitem__, _values_along(f.zeta[n].comp[p], fiber))
        points = zip(*(_values_along(d.comp[p], fiber) for d in faces))
        for e, w, point in zip(fiber, simplex, points):
            if lims[w] is None or point not in lims[w].fiber_set(p):
                raise ValueError(f"faces of {e!r} at {p!r} lie outside the limit over {boundary[w]!r}")
            hit[boundary[w]][p].add(point)
    return {key: _missed(lim, hit.get(key, {})) for key, lim in limits.items()}


def hypercover_report(f: SimplicialFamily) -> dict:
    """Coverage tables: for each pair and boundary triple, the limit elements
    not hit by the elements of H1, respectively H2, through their faces;
    computed once per family."""
    if "hypercover_report" not in f._derived:
        data = cosk_data(f)
        f._derived["hypercover_report"] = {
            "level1": _uncovered(f, 1, data.pair_limit),
            "level2": _uncovered(f, 2, data.triple_limit),
        }
    return f._derived["hypercover_report"]


def is_hypercover(f: SimplicialFamily, cover: Family) -> bool:
    """Whether the family refines the cover as a hypercover: level 0 agrees
    with the cover and the canonical maps to the coskeleton data are jointly
    epimorphic at levels one and two."""
    if tuple(f.sset.s0) != tuple(cover.index) or f.h0 != cover.total:
        raise ValueError("level-0 mismatch with the cover")
    if f.zeta[0].comp != cover.struct_map.comp:
        raise ValueError("level-0 mismatch with the cover")
    if not cover_is_epi(cover):
        raise ValueError("the total of the cover does not cover the terminal object")
    report = hypercover_report(f)
    return not any(missed for level in report.values() for missed in level.values())


def _unique_by(items, key):
    """``items`` without repeats of ``key``: the first of each, in order."""
    out = {}
    for m in items:
        out.setdefault(key(m), m)
    return tuple(out.values())


@dataclass
class SpanClass:
    """A finite list of non-initial vertex candidates (representatives of an
    isomorphism-closed class)."""

    members: tuple

    def __post_init__(self):
        if any(m.is_initial() for m in self.members):
            raise EmptyComponentError("span class contains an initial presheaf")
        self.members = _unique_by(self.members, Presheaf.key)


@dataclass
class SpanClassSp:
    """A finite list of 1-spans, meant to be closed under duals and the two
    degenerate spans of each member and to contain every identity span."""

    members: tuple

    def __post_init__(self):
        if any(m.vertex.is_initial() for m in self.members):
            raise EmptyComponentError("span class contains a span with initial vertex")
        self.members = _unique_by(self.members, ClassSpan.data_key)

    def vertices(self):
        return _unique_by((m.vertex for m in self.members), Presheaf.key)


def _check_closure(spans, comps):
    keys = {s.data_key() for s in spans}
    missing = []
    for i, u in comps.items():
        ident = ClassSpan(i, i, u, PresheafMap.identity(u), PresheafMap.identity(u))
        if ident.data_key() not in keys:
            missing.append(f"identity span at {i!r} missing")
    for s in spans:
        if s.dual().data_key() not in keys:
            missing.append(f"dual span of one over ({s.i!r}, {s.j!r}) missing")
        for degen in (
            ClassSpan(s.i, s.i, s.vertex, s.left, s.left),
            ClassSpan(s.j, s.j, s.vertex, s.right, s.right),
        ):
            if degen.data_key() not in keys:
                missing.append(f"degenerate span over ({degen.i!r}, {degen.j!r}) missing")
    if missing:
        raise ClosureError("; ".join(sorted(set(missing))))


def _hom_lists(vertices):
    """``hom_list(ci, key, target)``: the maps from ``vertices[ci]`` to
    ``target`` in ``hom_enumerate`` order and their ordinals by map key,
    enumerated once per ``(ci, key)``."""
    homs = {}

    def hom_list(ci, key, target):
        if (ci, key) not in homs:
            lst = hom_enumerate(vertices[ci], target)
            homs[(ci, key)] = (lst, {m.key(): o for o, m in enumerate(lst)})
        return homs[(ci, key)]

    return hom_list


def _two_simplices(by_pair, index, span, vertices, hom_list):
    """The commuting two-storey spans over each triangle boundary.

    For each triple ``(l, t, r)`` of ``_composable_triples(by_pair,
    index)``, in that order, yields the triple and the list of ``(ci, (xo,
    mx), (yo, my), (zo, mz))``, in the order of ``ci``, ``xo``, ``yo``,
    ``zo``: maps from ``vertices[ci]`` to the vertices of ``span(l)``,
    ``span(t)`` and ``span(r)`` with ``l.left mx = t.left my``, ``l.right mx
    = r.left mz`` and ``t.right my = r.right mz``.  ``xo`` is the place of
    ``mx`` among the maps ``hom_list`` lists into its target, and so on.
    These are the maps from ``vertices[ci]`` into ``_triangle_limit`` of the
    triple, read componentwise.

    The maps from each vertex into each span and the values of their legs
    are worked out once per span, grouped by left leg and by both legs, and
    a triple tries only the vertices that map into all three of its spans.
    """
    leg_ids, joins = {}, {}

    def leg_id(leg, m, points):
        # a leg is named by its values along the fibers of its domain,
        # interned, so the join compares small ints
        values = tuple(leg.comp[p][m.comp[p][e]] for p in points for e in m.dom.fibers[p])
        return leg_ids.setdefault(values, len(leg_ids))

    def legs(item):
        if item not in joins:
            s = span(item)
            target, points = ("vtx", s.vertex.key()), s.vertex.base.points
            rows, by_left, by_legs = {}, {}, {}
            for ci in range(len(vertices)):
                row, left, both = [], {}, {}
                for o, m in enumerate(hom_list(ci, target, s.vertex)[0]):
                    kl, kr = leg_id(s.left, m, points), leg_id(s.right, m, points)
                    row.append((o, m, kl, kr))
                    left.setdefault(kl, []).append((o, m, kr))
                    both.setdefault((kl, kr), []).append((o, m))
                if row:
                    rows[ci], by_left[ci], by_legs[ci] = row, left, both
            joins[item] = rows, by_left, by_legs
        return joins[item]

    for l, t, r in _composable_triples(by_pair, index):
        xs, ys, zs = legs(l)[0], legs(t)[1], legs(r)[2]
        out = []
        for ci in sorted(xs.keys() & ys.keys() & zs.keys()):
            y_by_left, z_by_legs = ys[ci], zs[ci]
            for xo, mx, kxl, kxr in xs[ci]:
                for yo, my, kyr in y_by_left.get(kxl, ()):
                    for zo, mz in z_by_legs.get((kxr, kyr), ()):
                        out.append((ci, (xo, mx), (yo, my), (zo, mz)))
        yield (l, t, r), out


def _build_refinement(cover: Family, spans, vertices) -> SelfDualFamily:
    """Assemble the self-dual simplicial family determined by a span class.

    1-simplices are the given spans, 2-simplices all commuting two-storey
    spans with apex in ``vertices`` over composable boundary spans, as the
    join ``_two_simplices`` lists them.  Labels encode the class index of
    the vertex and the ordinals of the legs in the deterministic hom
    enumeration, so the output is reproducible.  The join walks the
    boundary triangles in label order and lists each one's maps in the
    order of the vertex index and the leg ordinals, so the 2-simplices come
    out sorted and are not sorted again.
    """
    comps = family_components(cover)
    base = cover.total.base
    vkeys = {v.key(): ci for ci, v in enumerate(vertices)}
    hom_list = _hom_lists(vertices)

    span_label = {}
    record = {}
    for s in spans:
        ci = vkeys[s.vertex.key()]
        _, uord = hom_list(ci, ("comp", s.i), comps[s.i])
        _, vord = hom_list(ci, ("comp", s.j), comps[s.j])
        lab = ("sp", s.i, s.j, ci, uord[s.left.key()], vord[s.right.key()])
        span_label[s.data_key()] = lab
        record[lab] = (s, ci)
    s1 = sorted_labels(record)

    ident_lab = {}
    for i, u in comps.items():
        ident = ClassSpan(i, i, u, PresheafMap.identity(u), PresheafMap.identity(u))
        if ident.data_key() not in span_label:
            raise ClosureError(f"identity span at {i!r} missing from the class")
        ident_lab[i] = span_label[ident.data_key()]

    by_pair = _by_pair(s1, lambda lab: (record[lab][0].i, record[lab][0].j))

    s2_faces = {}
    span = {lab: s for lab, (s, _) in record.items()}
    for ends, maps in _two_simplices(by_pair, cover.index, span.__getitem__, vertices, hom_list):
        for ci_w, (xo, mx), (yo, my), (zo, mz) in maps:
            s2_faces[("sp2", *ends, ci_w, xo, yo, zo)] = (ends, ci_w, (mx, my, mz))
    s2 = tuple(s2_faces)

    face = {
        (1, 0): {lab: lab[2] for lab in s1},
        (1, 1): {lab: lab[1] for lab in s1},
        (2, 0): {w: ends[2] for w, (ends, _, _) in s2_faces.items()},
        (2, 1): {w: ends[1] for w, (ends, _, _) in s2_faces.items()},
        (2, 2): {w: ends[0] for w, (ends, _, _) in s2_faces.items()},
    }

    def degen1(lab, which):
        # hom enumeration is deterministic, so the leg ordinals recorded in
        # the span label are valid ordinals for the 2-simplex legs too.
        s, ci = record[lab]
        _, idords = hom_list(ci, ("vtx", s.vertex.key()), s.vertex)
        idord = idords[PresheafMap.identity(s.vertex).key()]
        if which == 0:
            return ("sp2", ident_lab[s.i], lab, lab, ci, lab[4], idord, idord)
        return ("sp2", lab, lab, ident_lab[s.j], ci, idord, idord, lab[5])

    degen = {
        (0, 0): {i: ident_lab[i] for i in cover.index},
        (1, 0): {lab: degen1(lab, 0) for lab in s1},
        (1, 1): {lab: degen1(lab, 1) for lab in s1},
    }
    # Degenerate 2-simplices built above must have been enumerated.
    for m in itertools.chain(degen[(1, 0)].values(), degen[(1, 1)].values()):
        if m not in s2_faces:
            raise InvariantError(m)

    sset = TruncSSet._trusted(cover.index, s1, s2, face, degen)

    op1 = {lab: ("sp", lab[2], lab[1], lab[3], lab[5], lab[4]) for lab in s1}
    for lab in s1:
        if op1[lab] not in record:
            raise InvariantError(lab)

    def op2(w):
        _, llab, tlab, rlab, ci, xo, yo, zo = w
        return ("sp2", op1[rlab], op1[tlab], op1[llab], ci, zo, yo, xo)

    tau_s = StrictDuality(tau1=op1, tau2={w: op2(w) for w in s2})
    for w in s2:
        if tau_s.tau2[w] not in s2_faces:
            raise InvariantError(w)

    # Each level of ``sset`` is sorted and has no repeats, so it serves as
    # it is for the coproduct tags and for the fiber of its constant presheaf.
    h0 = cover.total
    h1 = _coproduct([record[lab][0].vertex for lab in sset.s1], sset.s1)
    if sset.s2:
        h2 = _coproduct([vertices[ci] for _, ci, _ in s2_faces.values()], sset.s2)
    else:
        h2 = _constant((), base)

    def tagmap(dom, cod, f):
        return PresheafMap._trusted(
            dom, cod, {p: {e: f(p, e) for e in dom.fibers[p]} for p in base.points}
        )

    hface = {
        (1, 0): tagmap(h1, h0, lambda p, e: record[e[0]][0].right.apply(p, e[1])),
        (1, 1): tagmap(h1, h0, lambda p, e: record[e[0]][0].left.apply(p, e[1])),
    }
    hdegen = {
        (0, 0): tagmap(h0, h1, lambda p, e: (ident_lab[cover.zeta(p, e)], e)),
        (1, 0): tagmap(h1, h2, lambda p, e: (degen[(1, 0)][e[0]], e[1])),
        (1, 1): tagmap(h1, h2, lambda p, e: (degen[(1, 1)][e[0]], e[1])),
    }
    # H2 lists the elements over each 2-simplex in turn, in the order of
    # ``s2``, so its maps are read off simplex by simplex.
    d0, d1, d2, z2, t2 = ({p: {} for p in base.points} for _ in range(5))
    for p in base.points:
        elems = iter(h2.fibers[p])
        for w, ((llab, tlab, rlab), ci, (mx, my, mz)) in s2_faces.items():
            wop = tau_s.tau2[w]
            cx, cy, cz = mx.comp[p], my.comp[p], mz.comp[p]
            for e in itertools.islice(elems, len(vertices[ci].fibers[p])):
                x = e[1]
                d0[p][e] = (rlab, cz[x])
                d1[p][e] = (tlab, cy[x])
                d2[p][e] = (llab, cx[x])
                z2[p][e] = w
                t2[p][e] = (wop, x)
    for k, comp in enumerate((d0, d1, d2)):
        hface[(2, k)] = PresheafMap._trusted(h2, h1, comp)
    zeta = (
        cover.struct_map,
        tagmap(h1, _constant(sset.s1, base), lambda p, e: e[0]),
        PresheafMap._trusted(h2, _constant(sset.s2, base), z2),
    )
    fam = SimplicialFamily(h0, h1, h2, hface, hdegen, sset, zeta)
    tau1 = tagmap(h1, h1, lambda p, e: (tau_s.tau1[e[0]], e[1]))
    return SelfDualFamily(fam, tau_s, tau1, PresheafMap._trusted(h2, h2, t2))


def _all_spans(cover: Family, cls: SpanClass):
    comps = family_components(cover)
    spans = []
    for i, j in itertools.product(cover.index, repeat=2):
        for v in cls.members:
            for u in hom_enumerate(v, comps[i]):
                for w in hom_enumerate(v, comps[j]):
                    spans.append(ClassSpan(i, j, v, u, w))
    return spans


def zero_span_refinement(cover: Family, cls: SpanClass) -> SelfDualFamily:
    """Refinement whose 1-simplices are all spans with vertex in the class.

    Every component of the cover must itself be a class member (the
    degenerate 1-simplices are its identity spans).
    """
    comps = family_components(cover)
    vkeys = {v.key() for v in cls.members}
    for i, u in comps.items():
        if u.key() not in vkeys:
            raise ValueError(f"component {i!r} is not a member of the span class")
    return _build_refinement(cover, _all_spans(cover, cls), cls.members)


def one_span_refinement(cover: Family, csp: SpanClassSp) -> SelfDualFamily:
    """Refinement whose 1-simplices are exactly the given spans.

    The class must contain every identity span and be closed under duals
    and under the two degenerate spans of each member.
    """
    comps = family_components(cover)
    _check_closure(csp.members, comps)
    return _build_refinement(cover, list(csp.members), csp.vertices())


def representable_span(base, comps, i, j, p, x, y) -> ClassSpan:
    """The span with vertex the representable of ``p`` whose legs pick the
    elements ``x`` of ``comps[i]`` and ``y`` of ``comps[j]`` at ``p`` (the
    Yoneda correspondence)."""
    rep = representable(base, p)

    def leg(k, z):
        comp = {q: ({"*": comps[k].restrict(q, p, z)} if rep.fibers[q] else {}) for q in base.points}
        return PresheafMap(rep, comps[k], comp)

    return ClassSpan(i, j, rep, leg(i, x), leg(j, y))


def representable_spans(cover: Family):
    """All spans with representable vertex over pairs of components; by the
    Yoneda correspondence these are the elements of the pairwise products."""
    comps = family_components(cover)
    base = cover.total.base
    spans = []
    for p in base.points:
        for i, j in itertools.product(cover.index, repeat=2):
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    spans.append(representable_span(base, comps, i, j, p, x, y))
    return spans


def connected_refinement(cover: Family, *, require_connected: bool = False) -> SelfDualFamily:
    """The refinement by connected generators: identity spans plus all spans
    with representable vertex.

    Representables over a poset are always connected, so the only possibly
    disconnected components of the result are the covers' own (which enter
    through the mandatory identity spans).  Pass ``require_connected`` to
    insist that the cover components are connected too.
    """
    comps = family_components(cover)
    if require_connected:
        for i, u in comps.items():
            if not is_connected(u):
                raise ValueError(f"component {i!r} is disconnected")
    spans = [
        ClassSpan(i, i, u, PresheafMap.identity(u), PresheafMap.identity(u))
        for i, u in comps.items()
    ]
    spans += representable_spans(cover)
    return one_span_refinement(cover, SpanClassSp(tuple(spans)))


def check_epi_criteria(cover: Family, cls) -> bool:
    """The joint-surjectivity criteria guaranteeing the span refinement is a
    hypercover, computed directly from the class (not from the refinement):
    all maps from class vertices must jointly cover each pairwise product,
    and each boundary-triangle limit.

    A map from a vertex into a boundary-triangle limit is a commuting
    two-storey span, so level two reads the hit sets off the join that
    builds the 2-simplices of the refinement (``_two_simplices``); no map
    into a limit is enumerated."""
    if not isinstance(cls, (SpanClass, SpanClassSp)):
        raise TypeError(f"expected a SpanClass or a SpanClassSp, got {type(cls).__name__}")
    comps = family_components(cover)
    base = cover.total.base
    if isinstance(cls, SpanClass):
        spans = _all_spans(cover, cls)
        verts = cls.members
    else:
        spans = list(cls.members)
        verts = cls.vertices()
    # spans are named by their place in ``spans``
    by_pair = _by_pair(range(len(spans)), lambda n: (spans[n].i, spans[n].j))

    # The spans of a SpanClass pair up every map from a member into the
    # product, so level one reads the pairings for either kind of class.
    for i, j in _overlaps(cover.index, comps)[0]:
        prod, _, _ = product(comps[i], comps[j])
        pairings = [pairing([spans[n].left, spans[n].right], prod) for n in by_pair.get((i, j), ())]
        if _missed(prod, _hit_sets((m.comp for m in pairings), base.points)):
            return False
    joined = _two_simplices(by_pair, cover.index, spans.__getitem__, verts, _hom_lists(verts))
    for (l, t, r), maps in joined:
        hit = {p: set() for p in base.points}
        for ci, (_, mx), (_, my), (_, mz) in maps:
            for p in base.points:
                cx, cy, cz = mx.comp[p], my.comp[p], mz.comp[p]
                hit[p].update((cx[x], cy[x], cz[x]) for x in verts[ci].fibers[p])
        if _missed(_triangle_limit(base, spans[l], spans[t], spans[r]), hit):
            return False
    return True
