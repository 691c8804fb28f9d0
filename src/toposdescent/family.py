"""Simplicial families: truncated simplicial presheaves fibered over a
truncated simplicial set, their spans, self-dualities, the canonical
simplicial family of a cover, and the comparison map into it.

A simplicial family has levels ``H0, H1, H2`` (presheaves) with face and
degeneracy maps, an index simplicial set ``S``, and level maps ``zeta``
into the constant presheaves of the index levels.  The fiber of ``H_n``
over an n-simplex ``w`` is the component ``(H_n)_w``; every component is
required non-initial.  Each 1-simplex carries a span (its component with
the two face legs), each 2-simplex a two-storey span; the family is
equivalent to this collection of spans, which is how the refinement
constructions build families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BaseMismatchError, EmptyComponentError
from .fintopos import (
    Family,
    Presheaf,
    PresheafMap,
    _constant,
    _sub_presheaf,
    hom_enumerate,
    pairing,
    product_list,
)
from .simplicial import (
    SimplicialMap,
    StrictDuality,
    TruncSSet,
    cech_nerve,
    validate,
    validate_simplicial_map,
)

_H_FACE_KEYS = ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
_H_DEGEN_KEYS = ((0, 0), (1, 0), (1, 1))


@dataclass
class SimplicialFamily:
    """Levels H0, H1, H2 over a truncated simplicial set via zeta maps."""

    h0: Presheaf
    h1: Presheaf
    h2: Presheaf
    face: dict
    degen: dict
    sset: TruncSSet
    zeta: tuple
    # Components, span morphism pairs and the coverage report, each computed
    # on first use.
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if set(self.face) != set(_H_FACE_KEYS) or set(self.degen) != set(_H_DEGEN_KEYS):
            raise ValueError("face/degeneracy maps must cover the truncated keys")
        levels = (self.h0, self.h1, self.h2)
        for (n, i), m in self.face.items():
            if m.dom != levels[n] or m.cod != levels[n - 1]:
                raise ValueError(f"face ({n},{i}) has wrong endpoints")
        for (n, i), m in self.degen.items():
            if m.dom != levels[n] or m.cod != levels[n + 1]:
                raise ValueError(f"degeneracy ({n},{i}) has wrong endpoints")
        if len(self.zeta) != 3:
            raise ValueError("zeta must have three levels")
        for n, z in enumerate(self.zeta):
            if z.dom != levels[n] or z.cod != _constant(self.sset.level(n), self.h0.base):
                raise ValueError(f"zeta_{n} has wrong endpoints")

    def level(self, n):
        return (self.h0, self.h1, self.h2)[n]

    def component(self, n, w) -> Presheaf:
        """The fiber (H_n)_w as a sub-presheaf of the n-th level.

        The whole level is partitioned on first use, so asking for every
        component in turn stays linear in the size of the level.
        """
        key = (n, w)
        if key not in self._derived:
            lvl, z = self.level(n), self.zeta[n]
            fibers = {v: {p: [] for p in lvl.base.points} for v in self.sset.level(n)}
            for p in lvl.base.points:
                for e in lvl.fibers[p]:
                    fibers[z.apply(p, e)][p].append(e)
            for v, fib in fibers.items():
                self._derived[(n, v)] = _sub_presheaf(
                    lvl, {p: tuple(es) for p, es in fib.items()}
                )
        return self._derived[key]

    def component_face(self, n, i, w) -> PresheafMap:
        """The face map restricted to the component over ``w``."""
        return _component_map(self, self.face[(n, i)], n, w, n - 1, self.sset.d(n, i, w))

    def component_degen(self, n, i, w) -> PresheafMap:
        return _component_map(self, self.degen[(n, i)], n, w, n + 1, self.sset.deg(n, i, w))

    def level0_family(self) -> Family:
        return Family(self.h0, self.sset.s0, self.zeta[0])


def _component_map(f: SimplicialFamily, m: PresheafMap, n, w, k, v) -> PresheafMap:
    """The level map ``m`` restricted to ``(H_n)_w -> (H_k)_v``.

    A natural map restricted to sub-presheaves is natural, so only where the
    elements land is checked: when ``m`` does not lie over the index map,
    as in a family that was never validated, some element leaves
    ``(H_k)_v``."""
    dom, cod = f.component(n, w), f.component(k, v)
    comp = {}
    for p in dom.base.points:
        comp[p] = c = {e: m.comp[p][e] for e in dom.fibers[p]}
        inside = cod.fiber_set(p)
        if not inside.issuperset(c.values()):
            e = next(e for e, x in c.items() if x not in inside)
            raise ValueError(f"component at {p!r} sends {e!r} outside the codomain")
    return PresheafMap._trusted(dom, cod, comp)


@dataclass
class ClassSpan:
    """A 1-span over a pair of component indices: a vertex presheaf with
    legs to the components over ``i`` and ``j``."""

    i: object
    j: object
    vertex: Presheaf
    left: PresheafMap
    right: PresheafMap

    def __post_init__(self):
        if self.left.dom != self.vertex or self.right.dom != self.vertex:
            raise ValueError("span legs must start at the vertex")

    def data_key(self):
        return (self.i, self.j, self.vertex.key(), self.left.key(), self.right.key())

    def dual(self) -> "ClassSpan":
        return ClassSpan(self.j, self.i, self.vertex, self.right, self.left)


@dataclass
class Span2:
    """A two-storey span: an apex over three boundary spans with commuting
    legs, plus the three composite maps to the feet."""

    apex: Presheaf
    to_left: PresheafMap
    to_middle: PresheafMap
    to_right: PresheafMap
    left_span: ClassSpan
    middle_span: ClassSpan
    right_span: ClassSpan
    p2: PresheafMap
    p1: PresheafMap
    p0: PresheafMap

    def __post_init__(self):
        if self.apex.is_initial():
            raise EmptyComponentError("span apex is initial")
        checks = (
            (self.left_span.left.after(self.to_left), self.middle_span.left.after(self.to_middle)),
            (self.left_span.right.after(self.to_left), self.right_span.left.after(self.to_right)),
            (self.middle_span.right.after(self.to_middle), self.right_span.right.after(self.to_right)),
        )
        for got, other in checks:
            if got != other:
                raise ValueError("two-storey span does not commute")


def span_of_1simplex(f: SimplicialFamily, l) -> ClassSpan:
    if l not in f.sset.level_set(1):
        raise ValueError(f"{l!r} is not a 1-simplex of the index")
    i, j = f.sset.endpoints(l)
    return ClassSpan(i, j, f.component(1, l), f.component_face(1, 1, l), f.component_face(1, 0, l))


def span_of_2simplex(f: SimplicialFamily, w) -> Span2:
    if w not in f.sset.level_set(2):
        raise ValueError(f"{w!r} is not a 2-simplex of the index")
    l, t, r = f.sset.d(2, 2, w), f.sset.d(2, 1, w), f.sset.d(2, 0, w)
    d2, d1, d0 = (f.component_face(2, i, w) for i in (2, 1, 0))
    sl, st, sr = (span_of_1simplex(f, x) for x in (l, t, r))
    return Span2(
        apex=f.component(2, w),
        to_left=d2,
        to_middle=d1,
        to_right=d0,
        left_span=sl,
        middle_span=st,
        right_span=sr,
        p2=sl.left.after(d2),
        p1=sl.right.after(d2),
        p0=sr.right.after(d0),
    )


def _composable(a: PresheafMap, b: PresheafMap):
    if b.cod != a.dom:
        raise BaseMismatchError("composite of non-composable presheaf maps")


def _same_composite(a: PresheafMap, b: PresheafMap, c: PresheafMap, d: PresheafMap) -> bool:
    """Whether ``a.after(b)`` and ``c.after(d)`` have equal components,
    compared element by element without building either composite."""
    _composable(a, b)
    _composable(c, d)
    if b.comp.keys() != d.comp.keys():
        return False
    for p, bp in b.comp.items():
        ap, cp, dp = a.comp[p], c.comp[p], d.comp[p]
        if bp.keys() != dp.keys() or any(ap[v] != cp[dp[e]] for e, v in bp.items()):
            return False
    return True


def _composite_is(a: PresheafMap, b: PresheafMap, c: PresheafMap = None) -> bool:
    """Whether ``a.after(b)`` has the components of ``c``, or of the identity
    of ``b.dom`` when ``c`` is None, compared element by element."""
    _composable(a, b)
    if c is not None and b.comp.keys() != c.comp.keys():
        return False
    for p, bp in b.comp.items():
        ap = a.comp[p]
        if c is None:
            if any(ap[v] != e for e, v in bp.items()):
                return False
            continue
        cp = c.comp[p]
        if bp.keys() != cp.keys() or any(ap[v] != cp[e] for e, v in bp.items()):
            return False
    return True


def _component_emptiness(f: SimplicialFamily):
    """A message per index simplex that no element of its level lies over,
    read off the images of the zeta maps."""
    out = []
    for n in (0, 1, 2):
        hit = set()
        for m in f.zeta[n].comp.values():
            hit.update(m.values())
        for w in f.sset.level(n):
            if w not in hit:
                out.append(f"component over {w!r} on level {n} is empty (non-emptiness assumption)")
    return out


def validate_family(f: SimplicialFamily):
    """All simplicial-family laws; empty iff the family is valid."""
    out = [f"index simplicial set: {v}" for v in validate(f.sset)]

    def eq(ok, name):
        if not ok:
            out.append(f"{name} fails")

    fc, dg = f.face, f.degen
    for i in (0, 1):
        eq(_composite_is(fc[(1, i)], dg[(0, 0)]), f"d{i} s0 = id on H0")
    eq(_same_composite(fc[(1, 0)], fc[(2, 1)], fc[(1, 0)], fc[(2, 0)]), "d0 d1 = d0 d0 on H2")
    eq(_same_composite(fc[(1, 0)], fc[(2, 2)], fc[(1, 1)], fc[(2, 0)]), "d0 d2 = d1 d0 on H2")
    eq(_same_composite(fc[(1, 1)], fc[(2, 2)], fc[(1, 1)], fc[(2, 1)]), "d1 d2 = d1 d1 on H2")
    eq(_composite_is(fc[(2, 0)], dg[(1, 0)]), "d0 s0 = id on H1")
    eq(_composite_is(fc[(2, 1)], dg[(1, 0)]), "d1 s0 = id on H1")
    eq(_same_composite(fc[(2, 2)], dg[(1, 0)], dg[(0, 0)], fc[(1, 1)]), "d2 s0 = s0 d1 on H1")
    eq(_same_composite(fc[(2, 0)], dg[(1, 1)], dg[(0, 0)], fc[(1, 0)]), "d0 s1 = s0 d0 on H1")
    eq(_composite_is(fc[(2, 1)], dg[(1, 1)]), "d1 s1 = id on H1")
    eq(_composite_is(fc[(2, 2)], dg[(1, 1)]), "d2 s1 = id on H1")
    eq(_same_composite(dg[(1, 0)], dg[(0, 0)], dg[(1, 1)], dg[(0, 0)]), "s0 s0 = s1 s0 on H0")

    for (n, i), m in fc.items():
        z_lo, z_hi = f.zeta[n - 1], f.zeta[n]
        for p, e in f.level(n).elements():
            if z_lo.apply(p, m.apply(p, e)) != f.sset.d(n, i, z_hi.apply(p, e)):
                out.append(f"zeta does not commute with face d_{i} on level {n} at {e!r}")
                break
    for (n, i), m in dg.items():
        z_lo, z_hi = f.zeta[n], f.zeta[n + 1]
        for p, e in f.level(n).elements():
            if z_hi.apply(p, m.apply(p, e)) != f.sset.deg(n, i, z_lo.apply(p, e)):
                out.append(f"zeta does not commute with degeneracy s_{i} on level {n} at {e!r}")
                break

    out += _component_emptiness(f)
    return out


@dataclass
class SelfDualFamily:
    """A simplicial family with compatible strict dualities on the index and
    on the levels; the level maps carry the fiber over ``w`` to the fiber
    over the opposite simplex."""

    base: SimplicialFamily
    tau_s: StrictDuality
    tau1: PresheafMap
    tau2: PresheafMap

    def __post_init__(self):
        if self.tau1.dom != self.base.h1 or self.tau1.cod != self.base.h1:
            raise ValueError("tau1 must be an endomap of H1")
        if self.tau2.dom != self.base.h2 or self.tau2.cod != self.base.h2:
            raise ValueError("tau2 must be an endomap of H2")

    def component_tau(self, n, w) -> PresheafMap:
        """(tau_n)_w : (H_n)_w -> (H_n)_{w^op}."""
        tau = (None, self.tau1, self.tau2)[n]
        wop = (None, self.tau_s.op1, self.tau_s.op2)[n](w)
        return _component_map(self.base, tau, n, w, n, wop)


def validate_selfdual(sf: SelfDualFamily):
    """All self-dual family laws: base validity, duality validity, zeta
    compatibility, involutivity, and the contravariant exchange of faces
    and degeneracies (the span of ``w^op`` is the dual span of ``w``)."""
    from .simplicial import validate_duality

    f = sf.base
    out = validate_family(f)
    out += [f"index duality: {v}" for v in validate_duality(f.sset, sf.tau_s)]
    if out:
        return out

    def eq(ok, name):
        if not ok:
            out.append(f"{name} fails")

    for n, tau in ((1, sf.tau1), (2, sf.tau2)):
        opn = (None, sf.tau_s.op1, sf.tau_s.op2)[n]
        for p, e in f.level(n).elements():
            if f.zeta[n].apply(p, tau.apply(p, e)) != opn(f.zeta[n].apply(p, e)):
                out.append(f"tau_{n} does not lie over the index duality at {e!r}")
                break
        eq(_composite_is(tau, tau), f"tau_{n} involutive")
        if not tau.is_iso():
            out.append(f"tau_{n} is not an isomorphism")
    if out:
        return out
    fc, dg = f.face, f.degen
    eq(_composite_is(fc[(1, 0)], sf.tau1, fc[(1, 1)]), "d0 tau1 = d1")
    eq(_composite_is(fc[(1, 1)], sf.tau1, fc[(1, 0)]), "d1 tau1 = d0")
    for i in (0, 1, 2):
        eq(
            _same_composite(fc[(2, i)], sf.tau2, sf.tau1, fc[(2, 2 - i)]),
            f"d{i} tau2 = tau1 d{2 - i}",
        )
    eq(_composite_is(sf.tau1, dg[(0, 0)], dg[(0, 0)]), "tau1 s0 = s0")
    eq(_same_composite(sf.tau2, dg[(1, 0)], dg[(1, 1)], sf.tau1), "tau2 s0 = s1 tau1")
    eq(_same_composite(sf.tau2, dg[(1, 1)], dg[(1, 0)], sf.tau1), "tau2 s1 = s0 tau1")
    return out


def cech_simplicial_family(cover: Family) -> SelfDualFamily:
    """The canonical simplicial family of a cover: level n is the (n+1)-fold
    product of the total, fibered over the nerve, with projection faces,
    diagonal degeneracies, and factor reversal as the duality."""
    nerve, tau_s = cech_nerve(cover)
    u = cover.total
    base = u.base
    u1, (pr1, pr0) = product_list([u, u])
    u2, _ = product_list([u, u, u])

    def zmap(lvl, arity, cod_labels):
        comp = {
            p: {
                e: (cover.zeta(p, e) if arity == 1 else tuple(cover.zeta(p, x) for x in e))
                for e in lvl.fibers[p]
            }
            for p in base.points
        }
        return PresheafMap(lvl, _constant(cod_labels, base), comp)

    def tupmap(dom, cod, pick):
        return PresheafMap(
            dom, cod, {p: {e: pick(e) for e in dom.fibers[p]} for p in base.points}
        )

    face = {
        (1, 0): pr0,
        (1, 1): pr1,
        (2, 0): tupmap(u2, u1, lambda e: (e[1], e[2])),
        (2, 1): tupmap(u2, u1, lambda e: (e[0], e[2])),
        (2, 2): tupmap(u2, u1, lambda e: (e[0], e[1])),
    }
    degen = {
        (0, 0): tupmap(u, u1, lambda e: (e, e)),
        (1, 0): tupmap(u1, u2, lambda e: (e[0], e[0], e[1])),
        (1, 1): tupmap(u1, u2, lambda e: (e[0], e[1], e[1])),
    }
    fam = SimplicialFamily(
        h0=u,
        h1=u1,
        h2=u2,
        face=face,
        degen=degen,
        sset=nerve,
        zeta=(cover.struct_map, zmap(u1, 2, nerve.s1), zmap(u2, 3, nerve.s2)),
    )
    tau1 = tupmap(u1, u1, lambda e: (e[1], e[0]))
    tau2 = tupmap(u2, u2, lambda e: (e[2], e[1], e[0]))
    return SelfDualFamily(fam, tau_s, tau1, tau2)


@dataclass
class SimplicialFamilyMorphism:
    """Level maps plus an index simplicial map making all squares commute."""

    source: SimplicialFamily
    target: SimplicialFamily
    h0: PresheafMap
    h1: PresheafMap
    h2: PresheafMap
    alpha: SimplicialMap

    def level_map(self, n):
        return (self.h0, self.h1, self.h2)[n]


def validate_simplicial_family_morphism(m: SimplicialFamilyMorphism):
    out = [f"alpha: {v}" for v in validate_simplicial_map(m.alpha)]
    src, tgt = m.source, m.target
    for n in (0, 1, 2):
        h, zs, zt = m.level_map(n), src.zeta[n], tgt.zeta[n]
        for p, e in src.level(n).elements():
            if zt.apply(p, h.apply(p, e)) != m.alpha.level_map(n)[zs.apply(p, e)]:
                out.append(f"zeta square fails on level {n} at {e!r}")
                break
    for (n, i), fsrc in src.face.items():
        if not _same_composite(m.level_map(n - 1), fsrc, tgt.face[(n, i)], m.level_map(n)):
            out.append(f"morphism does not commute with face d_{i} on level {n}")
    for (n, i), dsrc in src.degen.items():
        if not _same_composite(m.level_map(n + 1), dsrc, tgt.degen[(n, i)], m.level_map(n)):
            out.append(f"morphism does not commute with degeneracy s_{i} on level {n}")
    return out


def morphism_commutes_with_dualities(
    m: SimplicialFamilyMorphism, src: SelfDualFamily, tgt: SelfDualFamily
):
    """Violations of h tau = tau h and alpha tau = tau alpha."""
    out = []
    if not _same_composite(m.h1, src.tau1, tgt.tau1, m.h1):
        out.append("h1 does not commute with tau1")
    if not _same_composite(m.h2, src.tau2, tgt.tau2, m.h2):
        out.append("h2 does not commute with tau2")
    for l in src.base.sset.s1:
        if m.alpha.h1[src.tau_s.op1(l)] != tgt.tau_s.op1(m.alpha.h1[l]):
            out.append(f"alpha_1 does not commute with the duality at {l!r}")
    for w in src.base.sset.s2:
        if m.alpha.h2[src.tau_s.op2(w)] != tgt.tau_s.op2(m.alpha.h2[w]):
            out.append(f"alpha_2 does not commute with the duality at {w!r}")
    return out


def counit(f: SimplicialFamily) -> SimplicialFamilyMorphism:
    """The canonical comparison into the canonical simplicial family of the
    level-0 family: 1-simplices map to their endpoint pairs and elements to
    the pairs of their face images; likewise in degree two with the three
    composite legs."""
    bad = validate_family(f)
    if bad:
        raise ValueError("counit of an invalid family: " + "; ".join(bad))
    target = cech_simplicial_family(f.level0_family())
    tf = target.base
    s = f.sset
    a0 = {i: i for i in s.s0}
    a1 = {l: (s.d(1, 1, l), s.d(1, 0, l)) for l in s.s1}
    a2 = {
        w: (
            s.d(1, 1, s.d(2, 2, w)),
            s.d(1, 0, s.d(2, 2, w)),
            s.d(1, 0, s.d(2, 0, w)),
        )
        for w in s.s2
    }
    alpha = SimplicialMap(s, tf.sset, a0, a1, a2)
    h0 = PresheafMap.identity(f.h0)
    h1 = pairing([f.face[(1, 1)], f.face[(1, 0)]], tf.h1)
    p2 = f.face[(1, 1)].after(f.face[(2, 2)])
    p1 = f.face[(1, 0)].after(f.face[(2, 2)])
    p0 = f.face[(1, 0)].after(f.face[(2, 0)])
    h2 = pairing([p2, p1, p0], tf.h2)
    return SimplicialFamilyMorphism(f, tf, h0, h1, h2, alpha)


def span_morphism_exists(a: ClassSpan, b: ClassSpan) -> bool:
    """Whether some map of vertices commutes with both legs (matching the
    left legs to each other and the right legs to each other)."""
    for phi in hom_enumerate(a.vertex, b.vertex):
        if _composite_is(b.left, phi, a.left) and _composite_is(b.right, phi, a.right):
            return True
    return False


def span_morphism_pairs(f: SimplicialFamily):
    """Ordered pairs (l, t) of distinct parallel 1-simplices admitting a
    span morphism from the span of l to the span of t; computed once per
    family."""
    if "span_morphism_pairs" not in f._derived:
        spans = {l: span_of_1simplex(f, l) for l in f.sset.s1}
        f._derived["span_morphism_pairs"] = [
            (l, t)
            for l in f.sset.s1
            for t in f.sset.s1
            if l != t
            and (spans[l].i, spans[l].j) == (spans[t].i, spans[t].j)
            and span_morphism_exists(spans[l], spans[t])
        ]
    return f._derived["span_morphism_pairs"]


def condition_g(sf: SelfDualFamily) -> bool:
    """The filling condition: every 1-simplex ``l`` has a triangle with
    edges ``l`` and ``l^op`` whose long edge has equal face legs."""
    f = sf.base
    s = f.sset
    d1, d0 = f.face[(1, 1)], f.face[(1, 0)]
    by_faces = {}
    for w in s.s2:
        by_faces.setdefault((s.d(2, 2, w), s.d(2, 0, w)), []).append(w)
    for l in s.s1:
        found = False
        for w in by_faces.get((l, sf.tau_s.op1(l)), ()):
            mid = f.component(1, s.d(2, 1, w))
            if all(d1.apply(p, e) == d0.apply(p, e) for p, e in mid.elements()):
                found = True
                break
        if not found:
            return False
    return True
