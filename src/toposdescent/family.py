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

A family also has a fiber at each point ``p`` of the base (not to be
confused with the component over a simplex): ``H(p)`` is a truncated
simplicial set, the fibers of the levels at ``p`` with the
components of the face and degeneracy maps.  ``zeta_p : H(p) -> S`` is a
simplicial map, and a self-duality is a strict duality on each ``H(p)``
over the one on ``S``.  :func:`validate_family` and
:func:`validate_selfdual` check exactly that, fiber by fiber, through the
law rows of :mod:`simplicial` that also check ``S``; a law is reported
once if it fails on some fiber.  They read every level map, zeta and tau
by position (``simplicial._places_at``): a placed map, as the refinement
builder writes the maps touching H2, gives its stored places, and any
other map its ``comp`` against the places of its codomain's fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import refuse
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
    DEGEN_KEYS,
    FACE_KEYS,
    SimplicialMap,
    StrictDuality,
    TruncSSet,
    _after,
    _duality_violations,
    _identities,
    _LevelPlaces,
    _mismatches,
    _places_at,
    _squares,
    cech_nerve,
    validate,
    validate_simplicial_map,
)


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
        if set(self.face) != set(FACE_KEYS) or set(self.degen) != set(DEGEN_KEYS):
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
            lvl, simplices = self.level(n), self.sset.level(n)
            pos = self.sset._positions_view().pos
            fibers = [{p: [] for p in lvl.base.points} for _ in simplices]
            for p in lvl.base.points:
                for e, k in zip(lvl.fibers[p], _places_at(self.zeta[n], p, pos, n)):
                    fibers[k][p].append(e)
            for v, fib in zip(simplices, fibers):
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


def span_of_1simplex(f: SimplicialFamily, l) -> ClassSpan:
    if l not in f.sset._positions_view().pos[1]:
        raise ValueError(f"{l!r} is not a 1-simplex of the index")
    i, j = f.sset.endpoints(l)
    return ClassSpan(i, j, f.component(1, l), f.component_face(1, 1, l), f.component_face(1, 0, l))


def _fibers(f: SimplicialFamily):
    """Per base point ``p``, in order: ``(p, h, z)`` with ``h`` the fiber
    ``H(p)``, the truncated simplicial set of the fibers of the levels at
    ``p`` and the components of the face and degeneracy maps there, known
    by position (``TruncSSet._from_places``), and ``z`` the map ``zeta_p :
    H(p) -> S`` by position (``z[n][k]`` is the position of the simplex
    under the k-th element of ``H(p)_n``).  Every map is read through
    ``_places_at``, so the places of a level's fiber are built only for a
    map that stores none."""
    spos = f.sset._positions_view().pos
    out = []
    for p in f.h0.base.points:
        levels = tuple(f.level(n).fibers[p] for n in (0, 1, 2))
        pos = _LevelPlaces(levels)
        face = {(n, i): _places_at(m, p, pos, n - 1) for (n, i), m in f.face.items()}
        degen = {(n, i): _places_at(m, p, pos, n + 1) for (n, i), m in f.degen.items()}
        z = tuple(_places_at(f.zeta[n], p, spos, n) for n in (0, 1, 2))
        out.append((p, TruncSSet._from_places(levels, pos, face, degen), z))
    return out


def validate_family(f: SimplicialFamily):
    """All simplicial-family laws; empty iff the family is valid."""
    return _family_violations(f)[0]


def _family_violations(f: SimplicialFamily):
    """The messages of ``validate_family``, and ``_fibers(f)``.  Each fiber
    is a truncated simplicial set and zeta a simplicial map on it, so a law
    fails if it fails on some fiber."""
    out = [f"index simplicial set: {v}" for v in validate(f.sset)]
    fibers = _fibers(f)
    failing = {}
    for _, h, _ in fibers:
        for n, lhs, rhs, law, _ in _identities(h):
            failing[(law, n)] = failing.get((law, n)) or lhs != rhs
    out += [f"{law} on H{n} fails" for (law, n), bad in failing.items() if bad]

    # per square, the first element (points, then fibers, in order) where
    # zeta fails it
    first = {}
    for _, h, z in fibers:
        for _, x, (n, *_, op) in _mismatches(h, _squares(h, f.sset, z, False)):
            first.setdefault((n, op), x)
    # one message per map, in the order the family lists its maps
    maps = [(n, f"d_{i}", "face") for n, i in f.face] + [(n, f"s_{i}", "degeneracy") for n, i in f.degen]
    for n, op, kind in maps:
        if (n, op) in first:
            out.append(f"zeta does not commute with {kind} {op} on level {n} at {first[(n, op)]!r}")

    for n in (0, 1, 2):
        hit = set().union(*(z[n] for _, _, z in fibers))
        out += [
            f"component over {w!r} on level {n} is empty (non-emptiness assumption)"
            for k, w in enumerate(f.sset.level(n))
            if k not in hit
        ]
    return out, fibers


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


# The exchange laws of a self-duality, in the order they are reported, by
# the contravariant square of (id, tau1, tau2) on a fiber that states each.
_EXCHANGE_LAWS = (
    ((1, "d_0"), "d0 tau1 = d1"),
    ((1, "d_1"), "d1 tau1 = d0"),
    ((2, "d_0"), "d0 tau2 = tau1 d2"),
    ((2, "d_1"), "d1 tau2 = tau1 d1"),
    ((2, "d_2"), "d2 tau2 = tau1 d0"),
    ((0, "s_0"), "tau1 s0 = s0"),
    ((1, "s_1"), "tau2 s0 = s1 tau1"),
    ((1, "s_0"), "tau2 s1 = s0 tau1"),
)


def validate_selfdual(sf: SelfDualFamily):
    """All self-dual family laws: base validity, duality validity, zeta
    compatibility, involutivity, and the contravariant exchange of faces
    and degeneracies (the span of ``w^op`` is the dual span of ``w``).  On
    each fiber ``H(p)``, ``(tau1, tau2)`` must be a strict duality over the
    one on the index."""
    f = sf.base
    out, fibers = _family_violations(f)
    bad, ops = _duality_violations(f.sset, sf.tau_s)
    out += [f"index duality: {v}" for v in bad]
    if out:
        return out
    # per fiber: the fiber, zeta and t = (id, tau1, tau2), all by position
    by_pos = []
    for p, h, z in fibers:
        pos = h._positions_view().pos
        t1, t2 = _places_at(sf.tau1, p, pos, 1), _places_at(sf.tau2, p, pos, 2)
        by_pos.append((h, z, (tuple(range(len(h.s0))), t1, t2)))
    for n, tau in ((1, sf.tau1), (2, sf.tau2)):
        rows = ((h, [(n, _after(z[n], t[n]), _after(ops[n - 1], z[n]))]) for h, z, t in by_pos)
        e = next((x for h, row in rows for _, x, _ in _mismatches(h, row)), None)
        if e is not None:
            out.append(f"tau_{n} does not lie over the index duality at {e!r}")
        # an involution is an isomorphism, so only a map that is not one
        # can fail to be invertible
        if any(_after(t[n], t[n]) != tuple(range(len(t[n]))) for _, _, t in by_pos):
            out.append(f"tau_{n} involutive fails")
            if not tau.is_iso():
                out.append(f"tau_{n} is not an isomorphism")
    if out:
        return out
    failing = {
        (n, op)
        for h, _, t in by_pos
        for n, lhs, rhs, op in _squares(h, h, t, True)
        if lhs != rhs
    }
    out += [f"{law} fails" for key, law in _EXCHANGE_LAWS if key in failing]
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
        if m.level_map(n - 1).after(fsrc).comp != tgt.face[(n, i)].after(m.level_map(n)).comp:
            out.append(f"morphism does not commute with face d_{i} on level {n}")
    for (n, i), dsrc in src.degen.items():
        if m.level_map(n + 1).after(dsrc).comp != tgt.degen[(n, i)].after(m.level_map(n)).comp:
            out.append(f"morphism does not commute with degeneracy s_{i} on level {n}")
    return out


def morphism_commutes_with_dualities(
    m: SimplicialFamilyMorphism, src: SelfDualFamily, tgt: SelfDualFamily
):
    """Violations of h tau = tau h and alpha tau = tau alpha."""
    out = []
    if m.h1.after(src.tau1).comp != tgt.tau1.after(m.h1).comp:
        out.append("h1 does not commute with tau1")
    if m.h2.after(src.tau2).comp != tgt.tau2.after(m.h2).comp:
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
    refuse(validate_family(f), "counit of an invalid family")
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
        if b.left.after(phi).comp == a.left.comp and b.right.after(phi).comp == a.right.comp:
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
    ix = s._positions_view()
    d1, d0 = f.face[(1, 1)], f.face[(1, 0)]
    by_faces = {}
    for k, ends in enumerate(zip(ix.face[(2, 2)], ix.face[(2, 0)])):
        by_faces.setdefault(ends, []).append(k)
    for k, l in enumerate(s.s1):
        found = False
        for w in by_faces.get((k, ix.pos[1].get(sf.tau_s.op1(l))), ()):
            mid = f.component(1, s.s1[ix.face[(2, 1)][w]])
            if all(d1.apply(p, e) == d0.apply(p, e) for p, e in mid.elements()):
                found = True
                break
        if not found:
            return False
    return True
