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
    label_key,
    pairing,
    product,
    representable,
)
from .family import ClassSpan, SelfDualFamily, SimplicialFamily, span_of_1simplex
from .simplicial import StrictDuality, TruncSSet


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
    1-simplices or spans grouped by endpoint pair."""
    for i, j in itertools.product(index, repeat=2):
        for k in index:
            for l in by_pair.get((i, j), ()):
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
    supp = {i: set(comps[i].support()) for i in f.sset.s0}
    pairs = tuple(
        (i, j) for i in f.sset.s0 for j in f.sset.s0 if supp[i] & supp[j]
    )
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
    faces = [f.face[(n, k)] for k in range(n, -1, -1)]
    boundary = {w: tuple(f.sset.d(n, k, w) for k in range(n, -1, -1)) for w in f.sset.level(n)}
    hit = defaultdict(lambda: defaultdict(set))
    for p in f.h0.base.points:
        faces_at_p = [d.comp[p] for d in faces]
        for e in f.level(n).fibers[p]:
            key = boundary[f.zeta[n].apply(p, e)]
            point = tuple([m[e] for m in faces_at_p])
            if key not in limits or point not in limits[key].fiber_set(p):
                raise ValueError(f"faces of {e!r} at {p!r} lie outside the limit over {key!r}")
            hit[key][p].add(point)
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


@dataclass
class SpanClass:
    """A finite list of non-initial vertex candidates (representatives of an
    isomorphism-closed class)."""

    members: tuple

    def __post_init__(self):
        seen, out = set(), []
        for m in self.members:
            if m.is_initial():
                raise EmptyComponentError("span class contains an initial presheaf")
            k = m.key()
            if k not in seen:
                seen.add(k)
                out.append(m)
        self.members = tuple(out)


@dataclass
class SpanClassSp:
    """A finite list of 1-spans, meant to be closed under duals and the two
    degenerate spans of each member and to contain every identity span."""

    members: tuple

    def __post_init__(self):
        seen, out = set(), []
        for m in self.members:
            if m.vertex.is_initial():
                raise EmptyComponentError("span class contains a span with initial vertex")
            k = m.data_key()
            if k not in seen:
                seen.add(k)
                out.append(m)
        self.members = tuple(out)

    def vertices(self):
        seen, out = set(), []
        for m in self.members:
            k = m.vertex.key()
            if k not in seen:
                seen.add(k)
                out.append(m.vertex)
        return tuple(out)


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


def _build_refinement(cover: Family, spans, vertices) -> SelfDualFamily:
    """Assemble the self-dual simplicial family determined by a span class.

    1-simplices are the given spans, 2-simplices all commuting two-storey
    spans with apex in ``vertices`` over composable boundary spans.  Labels
    encode the class index of the vertex and the ordinals of the legs in
    the deterministic hom enumeration, so the output is reproducible.
    """
    comps = family_components(cover)
    base = cover.total.base
    vkeys = {v.key(): ci for ci, v in enumerate(vertices)}

    homs = {}

    def hom_list(ci, target_key, target):
        if (ci, target_key) not in homs:
            lst = hom_enumerate(vertices[ci], target)
            homs[(ci, target_key)] = (lst, {m.key(): o for o, m in enumerate(lst)})
        return homs[(ci, target_key)]

    span_label = {}
    record = {}
    for s in spans:
        ci = vkeys[s.vertex.key()]
        _, uord = hom_list(ci, ("comp", s.i), comps[s.i])
        _, vord = hom_list(ci, ("comp", s.j), comps[s.j])
        lab = ("sp", s.i, s.j, ci, uord[s.left.key()], vord[s.right.key()])
        span_label[s.data_key()] = lab
        record[lab] = (s, ci)
    s1 = tuple(record)

    ident_lab = {}
    for i, u in comps.items():
        ident = ClassSpan(i, i, u, PresheafMap.identity(u), PresheafMap.identity(u))
        if ident.data_key() not in span_label:
            raise ClosureError(f"identity span at {i!r} missing from the class")
        ident_lab[i] = span_label[ident.data_key()]

    by_pair = _by_pair(record, lambda lab: (record[lab][0].i, record[lab][0].j))

    # 2-simplices: hash-join the commuting leg triples per boundary triangle.
    s2_faces = {}
    cache = {}

    def maps_with_keys(ci_w, s: ClassSpan, lab):
        if (ci_w, lab) not in cache:
            lst, _ = hom_list(ci_w, ("vtx", s.vertex.key()), s.vertex)
            cache[(ci_w, lab)] = [
                (o, m, s.left.after(m).key(), s.right.after(m).key())
                for o, m in enumerate(lst)
            ]
        return cache[(ci_w, lab)]

    index = sorted(comps, key=label_key)
    for llab, tlab, rlab in _composable_triples(by_pair, index):
        sl, st, sr = record[llab][0], record[tlab][0], record[rlab][0]
        for ci_w in range(len(vertices)):
            xs = maps_with_keys(ci_w, sl, llab)
            ys = maps_with_keys(ci_w, st, tlab)
            zs = maps_with_keys(ci_w, sr, rlab)
            y_by_left = {}
            for yo, my, kyl, kyr in ys:
                y_by_left.setdefault(kyl, []).append((yo, my, kyr))
            z_by_legs = {}
            for zo, mz, kzl, kzr in zs:
                z_by_legs.setdefault((kzl, kzr), []).append((zo, mz))
            for xo, mx, kxl, kxr in xs:
                for yo, my, kyr in y_by_left.get(kxl, ()):
                    for zo, mz in z_by_legs.get((kxr, kyr), ()):
                        wlab = ("sp2", llab, tlab, rlab, ci_w, xo, yo, zo)
                        s2_faces[wlab] = ((llab, tlab, rlab), ci_w, (mx, my, mz))
    s2 = tuple(s2_faces)

    face = {
        (1, 0): {lab: lab[2] for lab in s1},
        (1, 1): {lab: lab[1] for lab in s1},
        (2, 0): {w: s2_faces[w][0][2] for w in s2},
        (2, 1): {w: s2_faces[w][0][1] for w in s2},
        (2, 2): {w: s2_faces[w][0][0] for w in s2},
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
        (0, 0): {i: ident_lab[i] for i in index},
        (1, 0): {lab: degen1(lab, 0) for lab in s1},
        (1, 1): {lab: degen1(lab, 1) for lab in s1},
    }
    # Degenerate 2-simplices built above must have been enumerated.
    for m in itertools.chain(degen[(1, 0)].values(), degen[(1, 1)].values()):
        if m not in s2_faces:
            raise InvariantError(m)

    sset = TruncSSet(tuple(index), s1, s2, face, degen)

    def op1(lab):
        return ("sp", lab[2], lab[1], lab[3], lab[5], lab[4])

    def op2(w):
        _, llab, tlab, rlab, ci, xo, yo, zo = w
        return ("sp2", op1(rlab), op1(tlab), op1(llab), ci, zo, yo, xo)

    tau_s = StrictDuality(
        tau1={lab: op1(lab) for lab in s1}, tau2={w: op2(w) for w in s2}
    )
    for lab in s1:
        if tau_s.tau1[lab] not in record:
            raise InvariantError(lab)
    for w in s2:
        if tau_s.tau2[w] not in s2_faces:
            raise InvariantError(w)

    # Each level of ``sset`` is sorted and has no repeats, so it serves as
    # it is for the coproduct tags and for the fiber of its constant presheaf.
    h0 = cover.total
    h1 = _coproduct([record[lab][0].vertex for lab in sset.s1], sset.s1)
    if sset.s2:
        h2 = _coproduct([vertices[s2_faces[w][1]] for w in sset.s2], sset.s2)
    else:
        h2 = _constant((), base)

    def tagmap(dom, cod, f):
        return PresheafMap._trusted(
            dom, cod, {p: {e: f(p, e) for e in dom.fibers[p]} for p in base.points}
        )

    hface = {
        (1, 0): tagmap(h1, h0, lambda p, e: record[e[0]][0].right.apply(p, e[1])),
        (1, 1): tagmap(h1, h0, lambda p, e: record[e[0]][0].left.apply(p, e[1])),
        (2, 0): tagmap(h2, h1, lambda p, e: (s2_faces[e[0]][0][2], s2_faces[e[0]][2][2].apply(p, e[1]))),
        (2, 1): tagmap(h2, h1, lambda p, e: (s2_faces[e[0]][0][1], s2_faces[e[0]][2][1].apply(p, e[1]))),
        (2, 2): tagmap(h2, h1, lambda p, e: (s2_faces[e[0]][0][0], s2_faces[e[0]][2][0].apply(p, e[1]))),
    }
    hdegen = {
        (0, 0): tagmap(h0, h1, lambda p, e: (ident_lab[cover.zeta(p, e)], e)),
        (1, 0): tagmap(h1, h2, lambda p, e: (degen[(1, 0)][e[0]], e[1])),
        (1, 1): tagmap(h1, h2, lambda p, e: (degen[(1, 1)][e[0]], e[1])),
    }
    zeta = (
        cover.struct_map,
        tagmap(h1, _constant(sset.s1, base), lambda p, e: e[0]),
        tagmap(h2, _constant(sset.s2, base), lambda p, e: e[0]),
    )
    fam = SimplicialFamily(h0, h1, h2, hface, hdegen, sset, zeta)
    tau1 = tagmap(h1, h1, lambda p, e: (tau_s.tau1[e[0]], e[1]))
    tau2 = tagmap(h2, h2, lambda p, e: (tau_s.tau2[e[0]], e[1]))
    return SelfDualFamily(fam, tau_s, tau1, tau2)


def _all_spans(cover: Family, cls: SpanClass):
    comps = family_components(cover)
    index = sorted(comps, key=label_key)
    spans = []
    for i, j in itertools.product(index, repeat=2):
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
    index = sorted(comps, key=label_key)
    spans = []
    for p in base.points:
        for i, j in itertools.product(index, repeat=2):
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
        for i, u in sorted(comps.items(), key=lambda kv: label_key(kv[0]))
    ]
    spans += representable_spans(cover)
    return one_span_refinement(cover, SpanClassSp(tuple(spans)))


def check_epi_criteria(cover: Family, cls) -> bool:
    """The joint-surjectivity criteria guaranteeing the span refinement is a
    hypercover, computed directly from the class (not from the refinement):
    all maps from class vertices must jointly cover each pairwise product,
    and each boundary-triangle limit."""
    comps = family_components(cover)
    base = cover.total.base
    index = sorted(comps, key=label_key)
    supp = {i: set(comps[i].support()) for i in index}
    if isinstance(cls, SpanClass):
        spans = _all_spans(cover, cls)
        verts = cls.members
    else:
        spans = list(cls.members)
        verts = cls.vertices()
    by_pair = _by_pair(spans, lambda s: (s.i, s.j))

    def covered(lim, maps):
        return not _missed(lim, _hit_sets((m.comp for m in maps), base.points))

    # The spans of a SpanClass pair up every map from a member into the
    # product, so level one reads the pairings for either kind of class.
    for i, j in itertools.product(index, repeat=2):
        if not (supp[i] & supp[j]):
            continue
        prod, _, _ = product(comps[i], comps[j])
        pairings = [pairing([s.left, s.right], prod) for s in by_pair.get((i, j), ())]
        if not covered(prod, pairings):
            return False
    for sl, st, sr in _composable_triples(by_pair, index):
        lim = _triangle_limit(base, sl, st, sr)
        if lim.is_initial():
            continue
        if not covered(lim, [m for v in verts for m in hom_enumerate(v, lim)]):
            return False
    return True
