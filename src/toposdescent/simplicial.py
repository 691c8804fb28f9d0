"""Two-truncated simplicial sets, strict dualities, and nerves of covers.

A truncated simplicial set keeps the sets of 0-, 1- and 2-simplices with
the face and degeneracy maps between them.  A 1-simplex ``l`` runs from
``d(1,1,l)`` to ``d(1,0,l)``; a 2-simplex ``w`` is a triangle whose long
edge is ``d(2,1,w)`` and whose short edges are ``d(2,2,w)`` then
``d(2,0,w)``.

Constructors only check that no level lists a simplex twice and that the
structure maps are total functions into the right sets; the simplicial
identities themselves are checked by :func:`validate`, which reports
violations as data instead of raising, so that deliberately broken inputs
can be inspected.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice

from .fintopos import Family, family_components, sorted_labels

FACE_KEYS = ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
DEGEN_KEYS = ((0, 0), (1, 0), (1, 1))


def _check_map(m, dom, cod, name):
    if set(m) != set(dom):
        raise ValueError(f"{name} is not total")
    codset = set(cod)
    for x, v in m.items():
        if v not in codset:
            raise ValueError(f"{name} sends {x!r} outside its codomain")


@dataclass
class TruncSSet:
    """2-truncated simplicial set.

    ``face[(n, i)]`` is the i-th face S_n -> S_{n-1}; ``degen[(n, i)]`` is
    the i-th degeneracy S_n -> S_{n+1}.
    """

    s0: tuple
    s1: tuple
    s2: tuple
    face: dict
    degen: dict
    _level_sets: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.s0 = sorted_labels(self.s0)
        self.s1 = sorted_labels(self.s1)
        self.s2 = sorted_labels(self.s2)
        levels = {0: self.s0, 1: self.s1, 2: self.s2}
        for n, level in levels.items():
            if any(map(operator.eq, level, islice(level, 1, None))):
                raise ValueError(f"level {n} lists a simplex twice")
        if set(self.face) != set(FACE_KEYS):
            raise ValueError("face maps must be given for keys (1,0),(1,1),(2,0),(2,1),(2,2)")
        if set(self.degen) != set(DEGEN_KEYS):
            raise ValueError("degeneracies must be given for keys (0,0),(1,0),(1,1)")
        for (n, i), m in self.face.items():
            _check_map(m, levels[n], levels[n - 1], f"face d_{i} on level {n}")
        for (n, i), m in self.degen.items():
            _check_map(m, levels[n], levels[n + 1], f"degeneracy s_{i} on level {n}")

    def d(self, n, i, x):
        return self.face[(n, i)][x]

    def deg(self, n, i, x):
        return self.degen[(n, i)][x]

    def endpoints(self, l):
        """Source and target vertex of a 1-simplex."""
        return self.d(1, 1, l), self.d(1, 0, l)

    def level(self, n):
        return (self.s0, self.s1, self.s2)[n]

    def level_set(self, n):
        """The n-simplices as a frozenset (computed once per level)."""
        if n not in self._level_sets:
            self._level_sets[n] = frozenset(self.level(n))
        return self._level_sets[n]


def validate(s: TruncSSet):
    """Check every truncated simplicial identity; return violation messages."""
    out = []

    def eq(lhs, rhs, name, x):
        if lhs != rhs:
            out.append(f"{name} fails at {x!r}: {lhs!r} != {rhs!r}")

    for i in s.s0:
        eq(s.d(1, 0, s.deg(0, 0, i)), i, "d0 s0 = id on S0", i)
        eq(s.d(1, 1, s.deg(0, 0, i)), i, "d1 s0 = id on S0", i)
        eq(s.deg(1, 0, s.deg(0, 0, i)), s.deg(1, 1, s.deg(0, 0, i)), "s0 s0 = s1 s0", i)
    for w in s.s2:
        eq(s.d(1, 0, s.d(2, 1, w)), s.d(1, 0, s.d(2, 0, w)), "d0 d1 = d0 d0", w)
        eq(s.d(1, 0, s.d(2, 2, w)), s.d(1, 1, s.d(2, 0, w)), "d0 d2 = d1 d0", w)
        eq(s.d(1, 1, s.d(2, 2, w)), s.d(1, 1, s.d(2, 1, w)), "d1 d2 = d1 d1", w)
    for l in s.s1:
        eq(s.d(2, 0, s.deg(1, 0, l)), l, "d0 s0 = id on S1", l)
        eq(s.d(2, 1, s.deg(1, 0, l)), l, "d1 s0 = id on S1", l)
        eq(s.d(2, 2, s.deg(1, 0, l)), s.deg(0, 0, s.d(1, 1, l)), "d2 s0 = s0 d1", l)
        eq(s.d(2, 0, s.deg(1, 1, l)), s.deg(0, 0, s.d(1, 0, l)), "d0 s1 = s0 d0", l)
        eq(s.d(2, 1, s.deg(1, 1, l)), l, "d1 s1 = id on S1", l)
        eq(s.d(2, 2, s.deg(1, 1, l)), l, "d2 s1 = id on S1", l)
    return out


@dataclass
class SimplicialMap:
    """Level maps commuting with faces and degeneracies (covariantly)."""

    source: TruncSSet
    target: TruncSSet
    h0: dict
    h1: dict
    h2: dict

    def __post_init__(self):
        _check_map(self.h0, self.source.s0, self.target.s0, "h0")
        _check_map(self.h1, self.source.s1, self.target.s1, "h1")
        _check_map(self.h2, self.source.s2, self.target.s2, "h2")

    def level_map(self, n):
        return (self.h0, self.h1, self.h2)[n]


def validate_simplicial_map(m: SimplicialMap):
    out = []
    s, t = m.source, m.target
    for l in s.s1:
        for i in (0, 1):
            if t.d(1, i, m.h1[l]) != m.h0[s.d(1, i, l)]:
                out.append(f"h does not commute with d_{i} at {l!r}")
    for w in s.s2:
        for i in (0, 1, 2):
            if t.d(2, i, m.h2[w]) != m.h1[s.d(2, i, w)]:
                out.append(f"h does not commute with d_{i} at {w!r}")
    for i in s.s0:
        if t.deg(0, 0, m.h0[i]) != m.h1[s.deg(0, 0, i)]:
            out.append(f"h does not commute with s_0 at {i!r}")
    for l in s.s1:
        for i in (0, 1):
            if t.deg(1, i, m.h1[l]) != m.h2[s.deg(1, i, l)]:
                out.append(f"h does not commute with s_{i} at {l!r}")
    return out


@dataclass
class ContravariantMap:
    """Level maps reversing the simplicial structure: faces map to opposite
    faces, d_i(h(w)) = h(d_{n-i}(w)), and dually for degeneracies."""

    source: TruncSSet
    target: TruncSSet
    h0: dict
    h1: dict
    h2: dict

    def __post_init__(self):
        _check_map(self.h0, self.source.s0, self.target.s0, "h0")
        _check_map(self.h1, self.source.s1, self.target.s1, "h1")
        _check_map(self.h2, self.source.s2, self.target.s2, "h2")


def validate_contravariant_map(m: ContravariantMap):
    out = []
    s, t = m.source, m.target
    for l in s.s1:
        for i in (0, 1):
            if t.d(1, i, m.h1[l]) != m.h0[s.d(1, 1 - i, l)]:
                out.append(f"contravariance fails for d_{i} at {l!r}")
    for w in s.s2:
        for i in (0, 1, 2):
            if t.d(2, i, m.h2[w]) != m.h1[s.d(2, 2 - i, w)]:
                out.append(f"contravariance fails for d_{i} at {w!r}")
    for i in s.s0:
        if t.deg(0, 0, m.h0[i]) != m.h1[s.deg(0, 0, i)]:
            out.append(f"contravariance fails for s_0 at {i!r}")
    for l in s.s1:
        for i in (0, 1):
            if t.deg(1, i, m.h1[l]) != m.h2[s.deg(1, 1 - i, l)]:
                out.append(f"contravariance fails for s_{i} at {l!r}")
    return out


@dataclass
class StrictDuality:
    """Involutive contravariant self-map fixing vertices; sends w to its
    opposite simplex."""

    tau1: dict
    tau2: dict

    def op1(self, l):
        return self.tau1[l]

    def op2(self, w):
        return self.tau2[w]


def validate_duality(s: TruncSSet, tau: StrictDuality):
    """Empty iff tau is a strict duality on s (contravariant and involutive)."""
    out = []
    try:
        _check_map(tau.tau1, s.s1, s.s1, "tau_1")
        _check_map(tau.tau2, s.s2, s.s2, "tau_2")
    except ValueError as exc:
        return [str(exc)]
    for l in s.s1:
        if tau.tau1[tau.tau1[l]] != l:
            out.append(f"tau_1 is not involutive at {l!r}")
    for w in s.s2:
        if tau.tau2[tau.tau2[w]] != w:
            out.append(f"tau_2 is not involutive at {w!r}")
    contra = ContravariantMap(s, s, {i: i for i in s.s0}, dict(tau.tau1), dict(tau.tau2))
    for msg in validate_contravariant_map(contra):
        out.append(msg.replace("contravariance", "duality contravariance"))
    return out


def cech_nerve(f: Family):
    """Nerve of a cover: tuples of indices whose componentwise products are
    non-initial, with coordinate-dropping faces, diagonal degeneracies, and
    tuple reversal as the strict duality.

    Returns (TruncSSet, StrictDuality).  Errors if a component is empty.
    """
    comps = family_components(f)
    supp = {i: set(comps[i].support()) for i in f.index}
    idx = f.index
    n1 = tuple(
        (i, j) for i in idx for j in idx if supp[i] & supp[j]
    )
    n2 = tuple(
        (i, j, k)
        for i in idx
        for j in idx
        for k in idx
        if supp[i] & supp[j] & supp[k]
    )
    face = {
        (1, 0): {l: l[1] for l in n1},
        (1, 1): {l: l[0] for l in n1},
        (2, 0): {w: (w[1], w[2]) for w in n2},
        (2, 1): {w: (w[0], w[2]) for w in n2},
        (2, 2): {w: (w[0], w[1]) for w in n2},
    }
    degen = {
        (0, 0): {i: (i, i) for i in idx},
        (1, 0): {l: (l[0], l[0], l[1]) for l in n1},
        (1, 1): {l: (l[0], l[1], l[1]) for l in n1},
    }
    sset = TruncSSet(idx, n1, n2, face, degen)
    tau = StrictDuality(
        tau1={l: (l[1], l[0]) for l in n1},
        tau2={w: (w[2], w[1], w[0]) for w in n2},
    )
    return sset, tau


def check_selfdual_groupoid_condition(s: TruncSSet, tau: StrictDuality) -> bool:
    """For every 1-simplex ``l: i -> j``, look for a triangle with edges
    ``l`` and ``l^op`` whose long edge is the degenerate simplex at ``i``.
    When this holds, the fundamental category is already a groupoid.
    """
    by_faces = {}
    for w in s.s2:
        by_faces.setdefault((s.d(2, 2, w), s.d(2, 1, w), s.d(2, 0, w)), []).append(w)
    for l in s.s1:
        i = s.d(1, 1, l)
        if (l, s.deg(0, 0, i), tau.op1(l)) not in by_faces:
            return False
    return True
