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

Each level is kept in ``label_key`` order.  The private
``TruncSSet._positions_view()`` is a positional view of the same data,
built on first use: the place of each simplex in its level, and each face
and degeneracy as a tuple that lists, by position, the position of the
image.  Positions follow label order, so a loop over positions visits the
simplices in the order of the levels.  The validators and the hot loops of
the families and refinements compare positions instead of hashing
nested-tuple labels again.  Positions never leave the library: every
public object, message and report names simplices by their labels.

``_places_at`` gives a presheaf map by position at one point: the places
that a placed map (``PresheafMap._placed``) stores, or ``_images`` of the
``comp`` of any other map against the places of its codomain's fiber,
built (``_LevelPlaces``) only when such a map asks for them.  The family
validators read each fiber ``H(p)`` of a family as a truncated simplicial
set known by position only (``TruncSSet._from_places``), so a refinement
whose maps out of H2 are placed is checked without a dict keyed by H2
elements.

Each law is written once, as rows of positions: ``_identities`` lists the
twelve truncated simplicial identities, ``_squares`` the eight squares of
level maps, covariant or contravariant.  :func:`validate`,
:func:`validate_simplicial_map`, :func:`validate_contravariant_map` and
:func:`validate_duality` read them on one simplicial set; the family
validators read the same rows on each fiber of a family.

``TruncSSet(...)`` sorts its levels and checks its maps.  The refinement
builder, whose levels come out in label order without repeats and whose
maps are total by construction, uses the private ``TruncSSet._trusted``,
which neither sorts nor checks, as ``Presheaf._trusted`` does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import NamedTuple

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


def _values_along(m: dict, keys):
    """The values of ``m`` in the order of ``keys``.  When ``m`` lists its
    keys in that order, as the maps a library construction builds do,
    they are read in place without hashing the keys again."""
    return m.values() if list(m) == list(keys) else map(m.__getitem__, keys)


def _images(m, level, cod_pos):
    """The codomain positions of ``m`` along ``level`` (a total map)."""
    return tuple(map(cod_pos.__getitem__, _values_along(m, level)))


def _places_at(m, p, pos, n):
    """The places of the presheaf map ``m`` at the point ``p``: for each
    element of ``m.dom.fibers[p]``, in order, the place of its image in
    ``m.cod.fibers[p]``.  A placed map (``PresheafMap._placed``) stores
    them; any other map gives ``_images`` of ``m.comp[p]`` against
    ``pos[n]``, the places of that codomain fiber, which is read only then."""
    if m._places is not None:
        return m._places[p]
    return _images(m.comp[p], m.dom.fibers[p], pos[n])


class _LevelPlaces:
    """``pos[n]``: the place of each simplex in ``levels[n]``, as a dict
    built on first read."""

    def __init__(self, levels):
        self.levels, self.built = levels, {}

    def __getitem__(self, n):
        if n not in self.built:
            self.built[n] = {x: k for k, x in enumerate(self.levels[n])}
        return self.built[n]


def _after(f, g):
    """``f`` after ``g``, both given by position."""
    return tuple(map(f.__getitem__, g))


def _mismatches(s, rows):
    """``(k, x, row)`` for each row ``(n, lhs, rhs, ...)`` and each
    n-simplex ``x`` of ``s`` (at position ``k``) where the two sides, given
    by position, differ.  Rows are taken in runs of one level; within a run,
    simplices in order, then rows in order."""
    for n, run in groupby(rows, operator.itemgetter(0)):
        run = [row for row in run if row[1] != row[2]]
        if run:
            for k, x in enumerate(s.level(n)):
                for row in run:
                    if row[1][k] != row[2][k]:
                        yield k, x, row


class _Positions(NamedTuple):
    """The positional view of a ``TruncSSet``: ``pos[n]`` maps each
    n-simplex to its place in ``level(n)``; ``face[(n, i)]`` and
    ``degen[(n, i)]`` list, by position, the position of the image."""

    pos: tuple
    face: dict
    degen: dict


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
    _positions: _Positions = field(default=None, compare=False, repr=False)

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

    @classmethod
    def _trusted(cls, s0, s1, s2, face, degen):
        """A truncated simplicial set from levels in ``label_key`` order
        without repeats and total face and degeneracy maps between them,
        keyed by ``FACE_KEYS`` and ``DEGEN_KEYS``; nothing is sorted or
        checked."""
        x = object.__new__(cls)
        x.s0, x.s1, x.s2, x.face, x.degen = s0, s1, s2, face, degen
        x._positions = None
        return x

    @classmethod
    def _from_places(cls, levels, pos, face, degen):
        """A truncated simplicial set known by position only: its three
        levels, their places ``pos`` (``_LevelPlaces`` of the levels, say),
        and each face and degeneracy as a tuple of places, keyed by
        ``FACE_KEYS`` and ``DEGEN_KEYS``.  It has no label maps (``face``
        and ``degen`` are None): the family validators read each fiber
        ``H(p)`` of a family this way, through ``_positions_view``, and
        look no simplex up by label."""
        x = cls._trusted(*levels, None, None)
        x._positions = _Positions(pos, face, degen)
        return x

    def d(self, n, i, x):
        return self.face[(n, i)][x]

    def deg(self, n, i, x):
        return self.degen[(n, i)][x]

    def endpoints(self, l):
        """Source and target vertex of a 1-simplex."""
        return self.d(1, 1, l), self.d(1, 0, l)

    def level(self, n):
        return (self.s0, self.s1, self.s2)[n]

    def _positions_view(self) -> _Positions:
        """The positional view (computed once)."""
        if self._positions is None:
            levels = (self.s0, self.s1, self.s2)
            pos = tuple({x: k for k, x in enumerate(level)} for level in levels)
            face = {
                (n, i): _images(m, levels[n], pos[n - 1]) for (n, i), m in self.face.items()
            }
            degen = {
                (n, i): _images(m, levels[n], pos[n + 1]) for (n, i), m in self.degen.items()
            }
            self._positions = _Positions(pos, face, degen)
        return self._positions


def _identities(s: TruncSSet):
    """The truncated simplicial identities of ``s`` as rows
    ``(n, lhs, rhs, law, m)``: the two sides, given by position, of ``law``
    on the n-simplices, whose values are m-simplices.  Families check the
    same rows on each fiber, and name their laws in this order.  Rows are
    made one at a time, so a caller that checks each row and drops it holds
    two sides at once."""
    ix = s._positions_view()
    d10, d11, d20, d21, d22 = (ix.face[k] for k in FACE_KEYS)
    s00, s10, s11 = (ix.degen[k] for k in DEGEN_KEYS)
    id0, id1 = tuple(range(len(s.s0))), tuple(range(len(s.s1)))
    yield 0, _after(d10, s00), id0, "d0 s0 = id", 0
    yield 0, _after(d11, s00), id0, "d1 s0 = id", 0
    yield 2, _after(d10, d21), _after(d10, d20), "d0 d1 = d0 d0", 0
    yield 2, _after(d10, d22), _after(d11, d20), "d0 d2 = d1 d0", 0
    yield 2, _after(d11, d22), _after(d11, d21), "d1 d2 = d1 d1", 0
    yield 1, _after(d20, s10), id1, "d0 s0 = id", 1
    yield 1, _after(d21, s10), id1, "d1 s0 = id", 1
    yield 1, _after(d22, s10), _after(s00, d11), "d2 s0 = s0 d1", 1
    yield 1, _after(d20, s11), _after(s00, d10), "d0 s1 = s0 d0", 1
    yield 1, _after(d21, s11), id1, "d1 s1 = id", 1
    yield 1, _after(d22, s11), id1, "d2 s1 = id", 1
    yield 0, _after(s10, s00), _after(s11, s00), "s0 s0 = s1 s0", 2


def validate(s: TruncSSet):
    """Check every truncated simplicial identity; return violation messages,
    level by level in the order 0, 2, 1 in which the table first names
    them."""
    rows = sorted(_identities(s), key=lambda row: (0, 2, 1).index(row[0]))
    out = []
    for k, x, (n, lhs, rhs, law, m) in _mismatches(s, rows):
        # a law with an identity side says which level it is about
        name = f"{law} on S{n}" if law.endswith("= id") else law
        vals = s.level(m)
        out.append(f"{name} fails at {x!r}: {vals[lhs[k]]!r} != {vals[rhs[k]]!r}")
    return out


def _squares(s: TruncSSet, t: TruncSSet, h, flip):
    """The squares of level maps ``s -> t`` given by position, ``h[n][k]``
    being the position in ``t`` of the image of the k-th n-simplex of
    ``s``, as rows ``(n, lhs, rhs, op)``: ``op`` on ``t`` after ``h_n``
    against ``h`` after the matching operator on the n-simplices of ``s``.
    Faces come first, then degeneracies, one row at a time.  Covariant
    maps match ``op`` with the same operator; contravariant ones (``flip``)
    with the opposite one, of index ``n - i``."""
    sv, tv = s._positions_view(), t._positions_view()
    for n, i in FACE_KEYS:
        j = n - i if flip else i
        yield n, _after(tv.face[(n, i)], h[n]), _after(h[n - 1], sv.face[(n, j)]), f"d_{i}"
    for n, i in DEGEN_KEYS:
        j = n - i if flip else i
        yield n, _after(tv.degen[(n, i)], h[n]), _after(h[n + 1], sv.degen[(n, j)]), f"s_{i}"


def _by_position(m):
    """The level maps of ``m`` (simplicial or contravariant) by position."""
    pos = m.target._positions_view().pos
    return tuple(_images(hn, m.source.level(n), pos[n]) for n, hn in enumerate((m.h0, m.h1, m.h2)))


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
    rows = _squares(m.source, m.target, _by_position(m), False)
    return [f"h does not commute with {op} at {x!r}" for _, x, (*_, op) in _mismatches(m.source, rows)]


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
    rows = _squares(m.source, m.target, _by_position(m), True)
    return [f"contravariance fails for {op} at {x!r}" for _, x, (*_, op) in _mismatches(m.source, rows)]


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


def _duality_violations(s: TruncSSet, tau: StrictDuality):
    """The messages of ``validate_duality`` and ``(tau_1, tau_2)`` by
    position on ``s`` (None when either is not a map of its level)."""
    pos = s._positions_view().pos
    try:
        # the position dicts stand for the levels: sets built from dicts
        # reuse the stored hashes of the labels
        _check_map(tau.tau1, pos[1], pos[1], "tau_1")
        _check_map(tau.tau2, pos[2], pos[2], "tau_2")
    except ValueError as exc:
        return [str(exc)], None
    t1, t2 = _images(tau.tau1, s.s1, pos[1]), _images(tau.tau2, s.s2, pos[2])
    rows = (
        (1, _after(t1, t1), tuple(range(len(s.s1))), "tau_1"),
        (2, _after(t2, t2), tuple(range(len(s.s2))), "tau_2"),
    )
    out = [f"{name} is not involutive at {x!r}" for _, x, (*_, name) in _mismatches(s, rows)]
    rows = _squares(s, s, (tuple(range(len(s.s0))), t1, t2), True)
    out += [f"duality contravariance fails for {op} at {x!r}" for _, x, (*_, op) in _mismatches(s, rows)]
    return out, (t1, t2)


def validate_duality(s: TruncSSet, tau: StrictDuality):
    """Empty iff tau is a strict duality on s (contravariant and involutive)."""
    return _duality_violations(s, tau)[0]


def _overlaps(index, comps):
    """The pairs and the triples of ``index`` whose components in ``comps``
    share a point of support, in label order when ``index`` is: the 1- and
    2-simplices of the Čech nerve, without building it."""
    supp = {i: set(comps[i].support()) for i in index}
    pairs = tuple((i, j) for i in index for j in index if supp[i] & supp[j])
    triples = tuple((i, j, k) for i, j in pairs for k in index if supp[i] & supp[j] & supp[k])
    return pairs, triples


def _pair_elements(points, comps, pairs):
    """``(i, j, p, x, y)`` for each element ``(x, y)`` at ``p`` of each
    pairwise product ``comps[i] x comps[j]``: pairs in the order given, then
    points, then ``x`` and ``y`` in fiber order."""
    for i, j in pairs:
        for p in points:
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    yield i, j, p, x, y


def cech_nerve(f: Family):
    """Nerve of a cover: tuples of indices whose componentwise products are
    non-initial, with coordinate-dropping faces, diagonal degeneracies, and
    tuple reversal as the strict duality.

    Returns (TruncSSet, StrictDuality).  Errors if a component is empty.
    """
    idx = f.index
    n1, n2 = _overlaps(idx, family_components(f))
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
    ix = s._positions_view()
    by_faces = set(zip(ix.face[(2, 2)], ix.face[(2, 1)], ix.face[(2, 0)]))
    pos1, s00, d11 = ix.pos[1], ix.degen[(0, 0)], ix.face[(1, 1)]
    return all(
        (k, s00[d11[k]], pos1.get(tau.op1(l))) in by_faces for k, l in enumerate(s.s1)
    )
