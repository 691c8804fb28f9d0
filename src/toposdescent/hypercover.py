"""Coskeleton data, hypercover checks, and span refinements of a cover.

The refinement constructions build a self-dual simplicial family over a
cover out of a class of spans: 1-simplices are spans over pairs of
components, 2-simplices are commuting two-storey spans, faces forget
storeys, and the duality swaps legs.  The coskeleton data (pairwise
products ``P_ij`` and boundary-triangle limits ``P_ltr``) supports the
hypercover test: the canonical component maps into them must be jointly
epimorphic at levels one and two.

One hash join (``_join``) lists every boundary triangle.  Grouped by point,
it gives the fibers of the limits (``_triangle_join``), which the coverage
check (``hypercover_report``), ``check_epi_criteria`` and ``cosk_data``
read.  Grouped by class vertex, it gives the 2-simplices of a refinement
(``_two_simplices``): by Yoneda, the maps from a vertex into a limit are the
points of the limit of the hom-set spans.  A build or a check reads the
maps out of the class vertices from one table (``_hom_lists``).

The refinement builder (``_build_refinement``) writes every value of a
face, degeneracy, zeta or tau map as the codomain's own object, read off by
its place: the enumerated simplex label, or the element of H0, H1 or H2
listed there.  A refined family so holds each label once, however many maps
name it, and a lookup of one of its values finds the stored key itself.
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


def _join(rows):
    """``triangles(l, t, r)``: ``(g, triples)`` per group ``g`` with triples,
    in group order, listing in the order of ``a``, ``b``, ``c`` the members
    of ``l``, ``t`` and ``r`` with ``t.left b = l.left a``, ``r.left c =
    l.right a`` and ``r.right c = t.right b``.  ``rows(item)`` gives an
    item's rows ``(member, left, right)`` per group, read once and indexed by
    left key and by both keys; the pairs ``(a, b)`` that agree on their left
    keys are joined once per run of triples with the same ``(l, t)``."""
    tables, last = {}, [None, []]

    def legs(item):
        per_group = tables.get(item)
        if per_group is None:
            tables[item] = per_group = []
            for group in rows(item):
                by_left, by_legs = {}, {}
                for e, x, y in group:
                    by_left.setdefault(x, []).append((e, y))
                    by_legs.setdefault((x, y), []).append(e)
                per_group.append((group, by_left, by_legs))
        return per_group

    def half(l, t):
        # per group with some, the (a, b) with t.left b = l.left a and their
        # right keys; triples come in runs of one (l, t), so the last is kept
        if last[0] != (l, t):
            last[:] = (l, t), [
                (g, ab)
                for g, ((group, _, _), (_, by_left, _)) in enumerate(zip(legs(l), legs(t)))
                if (ab := [(a, b, (y, z)) for a, x, y in group for b, z in by_left.get(x, ())])
            ]
        return last[1]

    def triangles(l, t, r):
        pairs = half(l, t)
        right = legs(r) if pairs else ()
        return [
            (g, abc)
            for g, ab in pairs
            if (abc := [(a, b, c) for a, b, yz in ab for c in right[g][2].get(yz, ())])
        ]

    return triangles


def _triangle_join(points, span):
    """``fibers(l, t, r)``: per point of ``points``, the fiber of the limit
    of the boundary of a two-storey span, the compatible leg triples
    ``(a, b, c)`` of ``span(l)``, ``span(t)`` and ``span(r)`` (anything with
    ``vertex``, ``left`` and ``right``): ``_join`` grouped by point, with the
    vertex elements keyed by their legs, so in ``label_key`` order."""

    def rows(item):
        s = span(item)
        return [[(e, s.left.comp[p][e], s.right.comp[p][e]) for e in s.vertex.fibers[p]] for p in points]

    join = _join(rows)

    def fibers(l, t, r):
        out = dict.fromkeys(points, ())
        for g, abc in join(l, t, r):
            out[points[g]] = tuple(abc)
        return out

    return fibers


def _limit_presheaf(base, fibers, vertices) -> Presheaf:
    """The limit with the given fibers of triples, restricted along the
    three vertices."""
    vl, vt, vr = vertices
    rest = {
        (p, q): {
            (a, b, c): (vl.restrict(p, q, a), vt.restrict(p, q, b), vr.restrict(p, q, c))
            for (a, b, c) in fibers[q]
        }
        for (p, q) in base.strict_pairs()
    }
    return Presheaf._trusted(base, fibers, rest)


def _triangle_limit(base, sl, st, sr) -> Presheaf:
    """Limit of the boundary of a two-storey span, as a presheaf; its fibers
    are those of ``_triangle_join``."""
    fibers = _triangle_join(base.points, (sl, st, sr).__getitem__)(0, 1, 2)
    return _limit_presheaf(base, fibers, (sl.vertex, st.vertex, sr.vertex))


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


def _limit_fibers(f: SimplicialFamily):
    """The fibers of the limits of ``cosk_data(f)``, keyed as the limits
    are, without their restrictions: ``(pair_fibers, spans,
    triple_fibers)``, with ``spans`` the span of each 1-simplex."""
    points = f.h0.base.points
    comps = {i: f.component(0, i) for i in f.sset.s0}
    pairs, _ = _overlaps(f.sset.s0, comps)
    pair_fibers = {
        (i, j): {p: tuple(itertools.product(comps[i].fibers[p], comps[j].fibers[p])) for p in points}
        for i, j in pairs
    }
    spans = {l: span_of_1simplex(f, l) for l in f.sset.s1}
    join = _triangle_join(points, spans.__getitem__)
    triple_fibers = {}
    for ends in _composable_triples(_by_pair(f.sset.s1, f.sset.endpoints), f.sset.s0):
        fibers = join(*ends)
        if any(fibers.values()):
            triple_fibers[ends] = fibers
    return pair_fibers, spans, triple_fibers


def cosk_data(f: SimplicialFamily) -> CoskData:
    """Compute the coskeleton data of a simplicial family.

    Uses only the level-0 and level-1 data, so it is meaningful even when
    the family has no 2-simplices.
    """
    base = f.h0.base
    pair_fibers, spans, triple_fibers = _limit_fibers(f)
    comps = {i: f.component(0, i) for i in f.sset.s0}
    pair_limit = {(i, j): product(comps[i], comps[j])[0] for i, j in pair_fibers}
    triple_limit = {
        ends: _limit_presheaf(base, fibers, [spans[x].vertex for x in ends])
        for ends, fibers in triple_fibers.items()
    }
    return CoskData(tuple(pair_limit), pair_limit, tuple(triple_limit), triple_limit)


def _uncovered(f: SimplicialFamily, n, limits) -> dict:
    """Per key of ``limits``, the elements that no element of ``H_n`` hits.

    Each limit is given by its fibers.  The faces of an element over ``w``
    are its point in the limit over the boundary of ``w``; a point outside
    that limit raises ``ValueError``.
    """
    ix, lower = f.sset._positions_view(), f.sset.level(n - 1)
    ks = range(n, -1, -1)
    faces = [f.face[(n, k)] for k in ks]
    base_points = f.h0.base.points
    # the boundary of each n-simplex, by position, numbered once per boundary
    boundary = list(zip(*(map(lower.__getitem__, ix.face[(n, k)]) for k in ks)))
    slot = {}
    slots = [slot.setdefault(key, len(slot)) for key in boundary]
    lims = [limits.get(key) for key in slot]
    hit = [defaultdict(set) for _ in slot]
    for p in base_points:
        fiber = f.level(n).fibers[p]
        simplex = map(ix.pos[n].__getitem__, _values_along(f.zeta[n].comp[p], fiber))
        points = zip(*(_values_along(d.comp[p], fiber) for d in faces))
        inside = [None] * len(slot)
        for e, w, point in zip(fiber, simplex, points):
            k = slots[w]
            if inside[k] is None:
                inside[k] = frozenset(lims[k][p]) if lims[k] is not None else frozenset()
            if point not in inside[k]:
                raise ValueError(f"faces of {e!r} at {p!r} lie outside the limit over {boundary[w]!r}")
            hit[k][p].add(point)
    return {
        key: _missed(base_points, lim, hit[slot[key]] if key in slot else {})
        for key, lim in limits.items()
    }


def hypercover_report(f: SimplicialFamily) -> dict:
    """Coverage tables: for each pair and boundary triple, the limit elements
    not hit by the elements of H1, respectively H2, through their faces;
    computed once per family, from the fibers of the limits alone."""
    if "hypercover_report" not in f._derived:
        pair_fibers, _, triple_fibers = _limit_fibers(f)
        f._derived["hypercover_report"] = {
            "level1": _uncovered(f, 1, pair_fibers),
            "level2": _uncovered(f, 2, triple_fibers),
        }
    return f._derived["hypercover_report"]


def _check_level0(f: SimplicialFamily, cover: Family):
    """Raise ``ValueError`` unless level 0 of the family is the cover."""
    if (
        tuple(f.sset.s0) != tuple(cover.index)
        or f.h0 != cover.total
        or f.zeta[0].comp != cover.struct_map.comp
    ):
        raise ValueError("level-0 mismatch with the cover")


def is_hypercover(f: SimplicialFamily, cover: Family) -> bool:
    """Whether the family refines the cover as a hypercover: level 0 agrees
    with the cover and the canonical maps to the coskeleton data are jointly
    epimorphic at levels one and two."""
    _check_level0(f, cover)
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
    enumerated once per ``(ci, key)``.  ``key`` is ``target.key()``, so a
    component and a span vertex that are equal share one enumeration."""
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

    By Yoneda these are the maps from ``vertices[ci]`` into
    ``_triangle_limit`` of the triple: ``_join`` grouped by vertex, with the
    maps into each span's vertex keyed by their composites with the legs,
    each named by its values and interned to a small int."""
    leg_ids = {}

    def leg_id(leg, m, points):
        values = tuple(leg.comp[p][m.comp[p][e]] for p in points for e in m.dom.fibers[p])
        return leg_ids.setdefault(values, len(leg_ids))

    def rows(item):
        s = span(item)
        key, points = s.vertex.key(), s.vertex.base.points
        return [
            [
                ((o, m), leg_id(s.left, m, points), leg_id(s.right, m, points))
                for o, m in enumerate(hom_list(ci, key, s.vertex)[0])
            ]
            for ci in range(len(vertices))
        ]

    join = _join(rows)
    for ends in _composable_triples(by_pair, index):
        yield ends, [(ci, x, y, z) for ci, xyz in join(*ends) for x, y, z in xyz]


def _paired(runs):
    """The map that sends the elements of the first run of each pair, place
    by place, to those of the second."""
    return {e: f for a, b in runs for e, f in zip(a, b)}


def _build_refinement(cover: Family, spans, vertices, hom_list) -> SelfDualFamily:
    """Assemble the self-dual simplicial family determined by a span class.

    1-simplices are the given spans, 2-simplices all commuting two-storey
    spans with apex in ``vertices`` over composable boundary spans, as the
    join ``_two_simplices`` lists them.  Labels encode the class index of
    the vertex and the ordinals of the legs in the deterministic hom
    enumeration of the caller's ``hom_list`` (``_hom_lists(vertices)``), so
    the output is reproducible.  The join walks the boundary triangles in
    label order and lists each one's maps in the order of the vertex index
    and the leg ordinals, so the 2-simplices come out sorted and are not
    sorted again.

    Every value of a face, degeneracy, zeta or tau map is the codomain's own
    object, read off by its place: a simplex label built from its parts is
    replaced by the enumerated label at its ordinal, an element of H0 is
    looked up in its fiber, and an element of H1 or H2 is the one at the
    place of its vertex element in the run of its simplex.  So no value is a
    fresh tuple, and equal labels inside the family are one object.
    """
    comps = family_components(cover)
    base = cover.total.base
    ckeys = {i: u.key() for i, u in comps.items()}
    vkeys = {v.key(): ci for ci, v in enumerate(vertices)}

    span_label = {}
    record = {}
    for s in spans:
        ci = vkeys[s.vertex.key()]
        _, uord = hom_list(ci, ckeys[s.i], comps[s.i])
        _, vord = hom_list(ci, ckeys[s.j], comps[s.j])
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

    # each 2-simplex: its ordinal in ``s2``, its boundary, its vertex index
    # and its three maps into the boundary's vertices
    s2_faces = {}
    span = {lab: s for lab, (s, _) in record.items()}
    for ends, maps in _two_simplices(by_pair, cover.index, span.__getitem__, vertices, hom_list):
        for ci_w, (xo, mx), (yo, my), (zo, mz) in maps:
            w = ("sp2", *ends, ci_w, xo, yo, zo)
            s2_faces[w] = (len(s2_faces), ends, ci_w, (mx, my, mz))
    s2 = tuple(s2_faces)

    def s2_ordinal(w, culprit):
        # a 2-simplex built from the parts of ``culprit`` must have been
        # enumerated
        if w not in s2_faces:
            raise InvariantError(culprit)
        return s2_faces[w][0]

    face = {
        (1, 0): {lab: lab[2] for lab in s1},
        (1, 1): {lab: lab[1] for lab in s1},
        (2, 0): {w: ends[2] for w, (_, ends, _, _) in s2_faces.items()},
        (2, 1): {w: ends[1] for w, (_, ends, _, _) in s2_faces.items()},
        (2, 2): {w: ends[0] for w, (_, ends, _, _) in s2_faces.items()},
    }

    def degen1(lab, which):
        # hom enumeration is deterministic, so the leg ordinals recorded in
        # the span label are valid ordinals for the 2-simplex legs too.
        s, ci = record[lab]
        _, idords = hom_list(ci, s.vertex.key(), s.vertex)
        idord = idords[PresheafMap.identity(s.vertex).key()]
        if which == 0:
            m = ("sp2", ident_lab[s.i], lab, lab, ci, lab[4], idord, idord)
        else:
            m = ("sp2", lab, lab, ident_lab[s.j], ci, idord, idord, lab[5])
        return s2_ordinal(m, m)

    degen_ord = [{lab: degen1(lab, k) for lab in s1} for k in (0, 1)]
    degen = {
        (0, 0): {i: ident_lab[i] for i in cover.index},
        (1, 0): {lab: s2[o] for lab, o in degen_ord[0].items()},
        (1, 1): {lab: s2[o] for lab, o in degen_ord[1].items()},
    }
    sset = TruncSSet._trusted(cover.index, s1, s2, face, degen)

    s1_ordinal = {lab: o for o, lab in enumerate(s1)}
    op1 = {}
    for lab in s1:
        lop = ("sp", lab[2], lab[1], lab[3], lab[5], lab[4])
        if lop not in s1_ordinal:
            raise InvariantError(lab)
        op1[lab] = s1[s1_ordinal[lop]]
    op_ord = [
        s2_ordinal(("sp2", op1[w[3]], op1[w[2]], op1[w[1]], w[4], w[7], w[6], w[5]), w) for w in s2
    ]
    tau_s = StrictDuality(tau1=op1, tau2={w: s2[o] for w, o in zip(s2, op_ord)})

    # Each level of ``sset`` is sorted and has no repeats, so it serves as
    # it is for the coproduct tags and for the fiber of its constant presheaf.
    h0 = cover.total
    h1 = _coproduct([record[lab][0].vertex for lab in sset.s1], sset.s1)
    if sset.s2:
        h2 = _coproduct([vertices[ci] for _, _, ci, _ in s2_faces.values()], sset.s2)
    else:
        h2 = _constant((), base)

    def tagmap(dom, cod, f):
        return PresheafMap._trusted(
            dom, cod, {p: {e: f(p, e) for e in dom.fibers[p]} for p in base.points}
        )

    # H1 and H2 list the elements over each simplex in turn, in the order of
    # its level, as one run in the order of the simplex's vertex fiber.  A
    # simplex and its opposite or degenerate simplex share their vertex, so
    # the maps between their runs go place by place.  Per point, ``h1_at``
    # holds the H1 elements over each 1-simplex by vertex element, and
    # ``runs`` the run of each 2-simplex in the H2 fiber, in the order of s2.
    h0_at = {p: dict(zip(h0.fibers[p], h0.fibers[p])) for p in base.points}
    h1_at = {}
    d0, d1, d2, t2, t1, e0, e1 = ({} for _ in range(7))
    for p in base.points:
        h1_at[p] = at = {}
        elems = iter(h1.fibers[p])
        for lab in s1:
            run = itertools.islice(elems, len(record[lab][0].vertex.fibers[p]))
            at[lab] = {e[1]: e for e in run}
        fib = h2.fibers[p]
        sizes = (len(vertices[ci].fibers[p]) for _, _, ci, _ in s2_faces.values())
        start = list(itertools.accumulate(sizes, initial=0))
        runs = [fib[a:b] for a, b in zip(start, start[1:])]
        t1[p] = _paired((at[lab].values(), at[op1[lab]].values()) for lab in s1)
        t2[p] = _paired((run, runs[o]) for run, o in zip(runs, op_ord))
        e0[p], e1[p] = (
            _paired((at[lab].values(), runs[o]) for lab, o in ords.items()) for ords in degen_ord
        )
        d0[p], d1[p], d2[p] = {}, {}, {}
        for run, (_, (llab, tlab, rlab), _, (mx, my, mz)) in zip(runs, s2_faces.values()):
            a0, a1, a2 = at[rlab], at[tlab], at[llab]
            cx, cy, cz = mx.comp[p], my.comp[p], mz.comp[p]
            for e in run:
                x = e[1]
                d0[p][e] = a0[cz[x]]
                d1[p][e] = a1[cy[x]]
                d2[p][e] = a2[cx[x]]

    hface = {
        (1, 0): tagmap(h1, h0, lambda p, e: h0_at[p][record[e[0]][0].right.apply(p, e[1])]),
        (1, 1): tagmap(h1, h0, lambda p, e: h0_at[p][record[e[0]][0].left.apply(p, e[1])]),
    }
    for k, comp in enumerate((d0, d1, d2)):
        hface[(2, k)] = PresheafMap._trusted(h2, h1, comp)
    hdegen = {
        (0, 0): tagmap(h0, h1, lambda p, e: h1_at[p][ident_lab[cover.zeta(p, e)]][e]),
        (1, 0): PresheafMap._trusted(h1, h2, e0),
        (1, 1): PresheafMap._trusted(h1, h2, e1),
    }
    zeta = (
        cover.struct_map,
        tagmap(h1, _constant(sset.s1, base), lambda p, e: e[0]),
        tagmap(h2, _constant(sset.s2, base), lambda p, e: e[0]),
    )
    fam = SimplicialFamily(h0, h1, h2, hface, hdegen, sset, zeta)
    tau1 = PresheafMap._trusted(h1, h1, t1)
    return SelfDualFamily(fam, tau_s, tau1, PresheafMap._trusted(h2, h2, t2))


def _all_spans(cover: Family, cls: SpanClass, hom_list):
    """Every span over every ordered pair of components with vertex in the
    class, in the order of the pair, the member and the two legs' places in
    ``hom_enumerate`` order; the legs are read off the caller's table
    ``hom_list`` (``_hom_lists(cls.members)``)."""
    comps = family_components(cover)
    ckeys = {i: u.key() for i, u in comps.items()}
    spans = []
    for i, j in itertools.product(cover.index, repeat=2):
        for ci, v in enumerate(cls.members):
            lefts = hom_list(ci, ckeys[i], comps[i])[0]
            rights = hom_list(ci, ckeys[j], comps[j])[0]
            spans.extend(ClassSpan(i, j, v, u, w) for u in lefts for w in rights)
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
    hom_list = _hom_lists(cls.members)
    return _build_refinement(cover, _all_spans(cover, cls, hom_list), cls.members, hom_list)


def one_span_refinement(cover: Family, csp: SpanClassSp) -> SelfDualFamily:
    """Refinement whose 1-simplices are exactly the given spans.

    The class must contain every identity span and be closed under duals
    and under the two degenerate spans of each member.
    """
    comps = family_components(cover)
    _check_closure(csp.members, comps)
    vertices = csp.vertices()
    return _build_refinement(cover, list(csp.members), vertices, _hom_lists(vertices))


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
    verts = cls.members if isinstance(cls, SpanClass) else cls.vertices()
    hom_list = _hom_lists(verts)
    spans = _all_spans(cover, cls, hom_list) if isinstance(cls, SpanClass) else list(cls.members)
    # spans are named by their place in ``spans``
    by_pair = _by_pair(range(len(spans)), lambda n: (spans[n].i, spans[n].j))

    # The spans of a SpanClass pair up every map from a member into the
    # product, so level one reads the pairings for either kind of class.
    for i, j in _overlaps(cover.index, comps)[0]:
        prod, _, _ = product(comps[i], comps[j])
        pairings = [pairing([spans[n].left, spans[n].right], prod) for n in by_pair.get((i, j), ())]
        if _missed(base.points, prod.fibers, _hit_sets((m.comp for m in pairings), base.points)):
            return False
    joined = _two_simplices(by_pair, cover.index, spans.__getitem__, verts, hom_list)
    limit = _triangle_join(base.points, spans.__getitem__)
    for ends, maps in joined:
        hit = {p: set() for p in base.points}
        for ci, (_, mx), (_, my), (_, mz) in maps:
            for p in base.points:
                cx, cy, cz = mx.comp[p], my.comp[p], mz.comp[p]
                hit[p].update((cx[x], cy[x], cz[x]) for x in verts[ci].fibers[p])
        if _missed(base.points, limit(*ends), hit):
            return False
    return True
