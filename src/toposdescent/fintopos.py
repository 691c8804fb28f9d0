"""Finite presheaf topoi: posets, presheaves, their maps, and families.

The ambient category is the topos of presheaves on a finite poset
(equivalently, sheaves for the Alexandrov topology, so the one-point
poset recovers finite sets).  Everything is finite and enumerable:
a presheaf is a finite fiber per point together with restriction
functions along the order, an arrow is a componentwise function, and
products, quotients, components and hom sets are computed by direct
enumeration.

Elements carry stable, ordered labels so that every enumeration in the
library is deterministic.  ``sorted_labels`` returns labels already in
``label_key`` order as they are, after one pass of native ``<`` over
adjacent pairs: on ints, strings and nested tuples of them, native ``<``
agrees with ``label_key`` or raises ``TypeError`` (two kinds met at the
first unequal place).  Only labels out of order, or whose comparison
raises, are sorted by ``label_key``, with the key of each distinct label
(and sub-label) computed once per sort, in a table that lives only as
long as that sort; there is no process-wide cache.
All values are immutable after construction and all operations are pure
functions; values may be shared freely between threads.

``Presheaf(...)`` and ``PresheafMap(...)`` order and check whatever they are
given, and so do ``constant_presheaf`` and the decoders in ``serialize``;
what arrives in order, as the writers emit it, is checked in one pass and
not sorted.
Constructions whose output is correct by construction, from dicts they
build themselves, use the private ``Presheaf._trusted`` and
``PresheafMap._trusted`` instead, which neither sort nor check:
sub-presheaves cut out of a presheaf keep its sorted fibers, products of
sorted fibers come out in label order, the coproduct of a refinement over
its sorted simplices (``_coproduct``) concatenates the summands' fibers in
tag order, and composites of natural maps are natural.  A family's
component maps are natural whenever its level maps are, so they check only
that each element lands in the target component.  So each label set is
sorted at most once, where it enters the library; the refinement builder
emits its 2-simplices already in label order and sorts only its
1-simplices (see ``simplicial`` for ``TruncSSet._trusted`` and the
positional view of a simplicial set).
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass, field

from .errors import BaseMismatchError, EmptyComponentError


def label_key(x, memo=None):
    """Total order on labels (ints, strings, and nested tuples of them).

    ``memo``, when given, is a caller-owned dict from tuple labels to their
    keys; a tuple met again, at any depth, reuses its key.
    """
    if isinstance(x, tuple):
        if memo is None:
            return (2, tuple(label_key(e) for e in x))
        key = memo.get(x)
        if key is None:
            key = memo[x] = (2, tuple(label_key(e, memo) for e in x))
        return key
    if isinstance(x, str):
        return (1, x)
    return (0, "", x)


def sorted_labels(xs):
    """The labels in ``label_key`` order, as a tuple.

    Labels already in order come back as they are, after one pass that
    compares each label with the next by native ``<``.  On labels that
    ``label_key`` orders, native ``<`` agrees with it wherever it does not
    raise: ints and strings compare as in their keys, and tuples, like their
    keys, compare at their first unequal place (``==`` agrees with equal
    keys), a proper prefix first; labels of two kinds (an int and a string,
    say) raise ``TypeError``.  Only when a pair is out of order, or a
    comparison raises, are the labels sorted by ``label_key``, each distinct
    key computed once.  Either way equal labels end up next to each other,
    in the order given, as a stable sort leaves them.
    """
    xs = tuple(xs)
    try:
        if not any(map(operator.lt, itertools.islice(xs, 1, None), xs)):
            return xs
    except TypeError:
        pass
    memo = {}
    return tuple(sorted(xs, key=lambda x: label_key(x, memo)))


@dataclass(frozen=True)
class FinPoset:
    """Finite poset given by its points and the full order relation.

    ``relation`` holds every pair ``(p, q)`` with ``p <= q``, reflexive and
    transitively closed; antisymmetry is checked at construction.
    """

    points: tuple
    relation: frozenset
    _strict_pairs: tuple = field(default=None, init=False, compare=False, repr=False)
    _top_down: tuple = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_pairs(cls, points, pairs=()):
        """Build a poset from generating ``p <= q`` pairs.

        The pairs are checked in the order given; the first that names an
        unknown point raises.  The reflexive-transitive closure is taken
        through one point at a time (Warshall's algorithm): after the turn
        of ``k``, every point below ``k`` is below all that ``k`` is below.
        Antisymmetry is checked in label order, so the error names the
        least pair ``p < q`` (by ``label_key``, on ``p`` then ``q``) with
        ``p <= q <= p``, whatever the hash seed.
        """
        points = sorted_labels(points)
        up = {p: {p} for p in points}
        for p, q in pairs:
            if p not in up or q not in up:
                raise ValueError(f"leq pair ({p!r}, {q!r}) mentions unknown point")
            up[p].add(q)
        for k in points:
            for above in up.values():
                if k in above:
                    above |= up[k]
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                if p != q and q in up[p] and p in up[q]:
                    raise ValueError(f"relation is not antisymmetric: {p!r} ~ {q!r}")
        return cls(points=points, relation=frozenset((p, q) for p in points for q in up[p]))

    @classmethod
    def point(cls):
        """The one-point poset; presheaves over it are plain finite sets."""
        return cls.from_pairs(("pt",))

    def leq(self, p, q):
        return (p, q) in self.relation

    def strict_pairs(self):
        """All pairs (p, q) with p < q, in label order (computed once)."""
        if self._strict_pairs is None:
            pairs = tuple(
                sorted(
                    ((p, q) for (p, q) in self.relation if p != q),
                    key=lambda pq: (label_key(pq[0]), label_key(pq[1])),
                )
            )
            object.__setattr__(self, "_strict_pairs", pairs)
        return self._strict_pairs

    def points_above(self, p):
        return tuple(q for q in self.points if self.leq(p, q) and q != p)

    def top_down(self):
        """Points ordered so that every point comes after all points above it
        (computed once)."""
        if self._top_down is None:
            order = tuple(
                sorted(self.points, key=lambda p: (len(self.points_above(p)), label_key(p)))
            )
            object.__setattr__(self, "_top_down", order)
        return self._top_down


@dataclass
class Presheaf:
    """A finite presheaf: a fiber per point and restrictions down the order.

    ``fibers`` maps points of the base to their elements; a point left out
    has none, and a point outside the base raises.  ``restrictions`` maps
    every strict pair ``(p, q)`` with ``p < q`` to a function from the fiber
    at ``q`` to the fiber at ``p``.  Identity restrictions are implicit,
    functoriality is checked at construction.
    """

    base: FinPoset
    fibers: dict
    restrictions: dict
    _fiber_sets: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for p in self.fibers:
            if not self.base.leq(p, p):
                raise ValueError(f"fiber at unknown point {p!r}")
        self.fibers = {p: sorted_labels(self.fibers.get(p, ())) for p in self.base.points}
        for p, fib in self.fibers.items():
            if len(self.fiber_set(p)) != len(fib):
                raise ValueError(f"fiber at {p!r} lists an element twice")
        strict = self.base.strict_pairs()
        rest = {}
        for pq in strict:
            p, q = pq
            if pq not in self.restrictions:
                raise ValueError(f"missing restriction map for {q!r} -> {p!r}")
            m = dict(self.restrictions[pq])
            if set(m) != self.fiber_set(q):
                raise ValueError(f"restriction {q!r} -> {p!r} is not total on the fiber")
            lower = self.fiber_set(p)
            for e, v in m.items():
                if v not in lower:
                    raise ValueError(f"restriction {q!r} -> {p!r} sends {e!r} outside the fiber")
            rest[pq] = m
        if set(self.restrictions) - set(strict):
            raise ValueError("restriction given for a non-comparable or reflexive pair")
        self.restrictions = rest
        for p, q in strict:
            for r in self.base.points:
                if r != q and self.base.leq(q, r):
                    for e in self.fibers[r]:
                        via = rest[(p, q)][rest[(q, r)][e]] if p != q else rest[(q, r)][e]
                        direct = rest[(p, r)][e]
                        if via != direct:
                            raise ValueError(
                                f"restrictions do not compose at {r!r} >= {q!r} >= {p!r} on {e!r}"
                            )

    @classmethod
    def _trusted(cls, base, fibers, restrictions):
        """A presheaf from fibers in ``label_key`` order without repeats,
        keyed by ``base.points``, and natural restrictions keyed by
        ``base.strict_pairs()`` in that order; nothing is sorted or checked."""
        x = object.__new__(cls)
        x.base, x.fibers, x.restrictions, x._fiber_sets = base, fibers, restrictions, {}
        return x

    def fiber(self, p):
        return self.fibers[p]

    def fiber_set(self, p):
        if p not in self._fiber_sets:
            self._fiber_sets[p] = frozenset(self.fibers[p])
        return self._fiber_sets[p]

    def restrict(self, p, q, e):
        """Restrict element ``e`` of the fiber at ``q`` down to ``p <= q``."""
        if p == q:
            return e
        return self.restrictions[(p, q)][e]

    def elements(self):
        for p in self.base.points:
            for e in self.fibers[p]:
                yield (p, e)

    def size(self):
        return sum(len(f) for f in self.fibers.values())

    def is_initial(self):
        return self.size() == 0

    def support(self):
        return tuple(p for p in self.base.points if self.fibers[p])

    def key(self):
        """Canonical hashable form, used to label spans deterministically.

        Restrictions are stored in ``strict_pairs`` order and each one's
        items follow its source fiber, which is sorted."""
        fib = tuple((p, self.fibers[p]) for p in self.base.points)
        res = tuple(
            (pq, tuple((e, m[e]) for e in self.fibers[pq[1]]))
            for pq, m in self.restrictions.items()
        )
        return (fib, res)


@dataclass
class PresheafMap:
    """Natural transformation between presheaves on the same base, with a
    component per point of the base; a component at another point raises."""

    dom: Presheaf
    cod: Presheaf
    comp: dict

    def __post_init__(self):
        if self.dom.base != self.cod.base:
            raise BaseMismatchError("map between presheaves over different posets")
        for p in self.comp:
            if not self.dom.base.leq(p, p):
                raise ValueError(f"component at unknown point {p!r}")
        comp = {}
        for p in self.dom.base.points:
            m = dict(self.comp.get(p, {}))
            if set(m) != self.dom.fiber_set(p):
                raise ValueError(f"component at {p!r} is not total")
            codset = self.cod.fiber_set(p)
            for e, v in m.items():
                if v not in codset:
                    raise ValueError(f"component at {p!r} sends {e!r} outside the codomain")
            comp[p] = m
        self.comp = comp
        for p, q in self.dom.base.strict_pairs():
            for e in self.dom.fibers[q]:
                if self.cod.restrict(p, q, comp[q][e]) != comp[p][self.dom.restrict(p, q, e)]:
                    raise ValueError(f"naturality fails at {q!r} >= {p!r} on {e!r}")

    @classmethod
    def _trusted(cls, dom, cod, comp):
        """A natural map from components that are total on ``dom``, keyed by
        its base points in order; nothing is checked."""
        m = object.__new__(cls)
        m.dom, m.cod, m.comp = dom, cod, comp
        return m

    def apply(self, p, e):
        return self.comp[p][e]

    def after(self, other: "PresheafMap") -> "PresheafMap":
        """Composite: apply ``other`` first, then ``self``."""
        if other.cod != self.dom:
            raise BaseMismatchError("composite of non-composable presheaf maps")
        comp = {
            p: {e: self.comp[p][other.comp[p][e]] for e in other.dom.fibers[p]}
            for p in self.dom.base.points
        }
        return PresheafMap._trusted(other.dom, self.cod, comp)

    def is_injective(self):
        return all(len(set(m.values())) == len(m) for m in self.comp.values())

    def is_surjective(self):
        return all(
            set(self.comp[p].values()) == set(self.cod.fibers[p]) for p in self.cod.base.points
        )

    def is_iso(self):
        return self.is_injective() and self.is_surjective()

    def inverse(self) -> "PresheafMap":
        if not self.is_iso():
            raise ValueError("inverting a non-isomorphism")
        comp = {p: {v: e for e, v in m.items()} for p, m in self.comp.items()}
        return PresheafMap(self.cod, self.dom, comp)

    def key(self):
        """Canonical hashable form: each component's items in fiber order."""
        return tuple(
            (p, tuple((e, self.comp[p][e]) for e in self.dom.fibers[p]))
            for p in self.dom.base.points
        )

    @classmethod
    def identity(cls, x: Presheaf) -> "PresheafMap":
        return cls(x, x, {p: {e: e for e in x.fibers[p]} for p in x.base.points})


def constant_presheaf(s, poset: FinPoset) -> Presheaf:
    """Constant presheaf: the same fiber everywhere, identity restrictions."""
    labels = sorted_labels(s)
    if poset.points and len(set(labels)) != len(labels):
        raise ValueError(f"fiber at {poset.points[0]!r} lists an element twice")
    return _constant(labels, poset)


def _constant(labels, poset: FinPoset) -> Presheaf:
    """The constant presheaf on labels already in ``label_key`` order
    without repeats (a level of a ``TruncSSet``, say); nothing is sorted."""
    return Presheaf._trusted(
        poset,
        {p: labels for p in poset.points},
        {pq: {e: e for e in labels} for pq in poset.strict_pairs()},
    )


def initial_presheaf(poset: FinPoset) -> Presheaf:
    return constant_presheaf((), poset)


def terminal_presheaf(poset: FinPoset) -> Presheaf:
    return constant_presheaf(("*",), poset)


def representable(poset: FinPoset, a) -> Presheaf:
    """The representable presheaf of a point: a singleton fiber below ``a``."""
    fibers = {p: ("*",) if poset.leq(p, a) else () for p in poset.points}
    rest = {}
    for p, q in poset.strict_pairs():
        rest[(p, q)] = {"*": "*"} if fibers[q] else {}
    return Presheaf(poset, fibers, rest)


def product(x: Presheaf, y: Presheaf):
    """Binary product with pair labels; returns (presheaf, proj1, proj2)."""
    prod, projs = product_list([x, y])
    return prod, projs[0], projs[1]


def product_list(factors):
    """Finite product with flat tuple labels; returns (presheaf, projections).

    Tuples of labels compare factor by factor, so the product of sorted
    fibers already comes out in ``label_key`` order."""
    if not factors:
        raise ValueError("empty product not supported, use terminal_presheaf")
    base = factors[0].base
    if any(f.base != base for f in factors):
        raise BaseMismatchError("product of presheaves over different posets")
    fibers = {
        p: tuple(itertools.product(*(f.fibers[p] for f in factors))) for p in base.points
    }
    rest = {}
    for p, q in base.strict_pairs():
        rest[(p, q)] = {
            e: tuple(factors[k].restrict(p, q, e[k]) for k in range(len(factors)))
            for e in fibers[q]
        }
    prod = Presheaf._trusted(base, fibers, rest)
    projs = [
        PresheafMap._trusted(prod, f, {p: {e: e[k] for e in fibers[p]} for p in base.points})
        for k, f in enumerate(factors)
    ]
    return prod, projs


def pairing(maps, prod: Presheaf) -> PresheafMap:
    """The map into a product presheaf with the given tuple of components."""
    dom = maps[0].dom
    comp = {
        p: {e: tuple(m.comp[p][e] for m in maps) for e in dom.fibers[p]}
        for p in dom.base.points
    }
    return PresheafMap(dom, prod, comp)


def coproduct(summands, tags) -> Presheaf:
    """Disjoint union with labels ``(tag, element)``."""
    if len(summands) != len(tags):
        raise ValueError("one tag per summand required")
    if not summands:
        raise ValueError("empty coproduct not supported, use initial_presheaf")
    base = summands[0].base
    if any(s.base != base for s in summands):
        raise BaseMismatchError("coproduct of presheaves over different posets")
    fibers = {
        p: [(t, e) for t, s in zip(tags, summands) for e in s.fibers[p]] for p in base.points
    }
    return Presheaf(base, fibers, _coproduct_restrictions(base, summands, tags))


def _coproduct(summands, tags) -> Presheaf:
    """The coproduct for distinct tags already in ``label_key`` order: a
    pair label compares by its tag first, so concatenating the summands'
    sorted fibers in tag order gives sorted fibers."""
    base = summands[0].base
    fibers = {
        p: tuple((t, e) for t, s in zip(tags, summands) for e in s.fibers[p])
        for p in base.points
    }
    return Presheaf._trusted(base, fibers, _coproduct_restrictions(base, summands, tags))


def _coproduct_restrictions(base, summands, tags):
    return {
        (p, q): {
            (t, e): (t, s.restrict(p, q, e)) for t, s in zip(tags, summands) for e in s.fibers[q]
        }
        for p, q in base.strict_pairs()
    }


def is_epi_family(maps) -> bool:
    """Whether a family of maps into a common target is jointly surjective
    at every point of the base."""
    if not maps:
        raise ValueError("empty family has no codomain")
    cod = maps[0].cod
    for m in maps:
        if m.cod != cod:
            raise BaseMismatchError("epi test needs a common codomain")
    points = cod.base.points
    return not _missed(points, cod.fibers, _hit_sets((m.comp for m in maps), points))


def _hit_sets(comps, points):
    """Per point, the set of elements hit by a family of maps, each given
    by its components ``{point: {element: image}}``."""
    hit = {p: set() for p in points}
    for comp in comps:
        for p in points:
            hit[p].update(comp[p].values())
    return hit


def _missed(points, fibers, hit) -> list:
    """The ``(point, element)`` pairs of the fibers outside the hit sets, in
    the order of ``points`` and of each fiber; a point without a hit set is
    missed whole."""
    return [(p, e) for p in points for e in fibers[p] if e not in hit.get(p, ())]


def union_find(items):
    """Disjoint sets over hashable labels; returns ``(find, union)``.

    The least label (in ``label_key`` order) represents its class, so
    representatives do not depend on the order of the unions; ``union``
    returns whether two classes merged.
    """
    parent = {el: el for el in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb, key=label_key)] = min(ra, rb, key=label_key)
        return True

    return find, union


def connected_components(x: Presheaf):
    """Sub-presheaves forming the connected components of ``x``.

    Elements are connected when linked by restriction maps; each component
    is closed under restrictions, and ``x`` is their coproduct.
    """
    find, union = union_find(x.elements())
    for p, q in x.base.strict_pairs():
        for e in x.fibers[q]:
            union((q, e), (p, x.restrict(p, q, e)))
    classes = {}
    for el in x.elements():
        classes.setdefault(find(el), []).append(el)
    out = []
    for root in sorted(classes, key=label_key):
        members = set(classes[root])
        fibers = {p: tuple(e for e in x.fibers[p] if (p, e) in members) for p in x.base.points}
        out.append(_sub_presheaf(x, fibers))
    return out


def _sub_presheaf(x: Presheaf, fibers) -> Presheaf:
    """The sub-presheaf of ``x`` on fibers cut out of its own in order and
    closed under restriction."""
    rest = {
        pq: {e: x.restrictions[pq][e] for e in fibers[pq[1]]} for pq in x.base.strict_pairs()
    }
    return Presheaf._trusted(x.base, fibers, rest)


def is_connected(x: Presheaf) -> bool:
    return len(connected_components(x)) == 1


def quotient_by_pairs(x: Presheaf, pairs):
    """Quotient ``x`` by the pointwise equivalence generated by the pairs,
    saturated under naturality; returns (quotient, projection).

    Each pair is ``(point, element, element)``; every pair is checked before
    any is used, and the first that names an element outside its fiber
    raises.  Saturation: whenever two elements are identified at ``q``,
    their restrictions are identified at every ``p < q``.  The pairs go
    through a queue, and each union at ``q`` that merges two classes puts
    the restricted pair at every ``p < q`` on it; a pair whose elements are
    already one class adds nothing, as its restrictions are already joined
    by the unions that made it so.  Class representatives are the least
    labels, so the result is canonical.
    """
    queue = collections.deque(pairs)
    for p, a, b in queue:
        if a not in x.fiber_set(p) or b not in x.fiber_set(p):
            raise ValueError(f"pair references unknown elements at {p!r}")
    strict = x.base.strict_pairs()
    below = {q: [p for p, qq in strict if qq == q] for q in x.base.points}
    find, union = union_find(x.elements())
    while queue:
        q, a, b = queue.popleft()
        if union((q, a), (q, b)):
            queue.extend((p, x.restrict(p, q, a), x.restrict(p, q, b)) for p in below[q])
    rep_of = {el: find(el) for el in x.elements()}
    fibers = {
        p: sorted_labels({rep_of[(p, e)][1] for e in x.fibers[p]}) for p in x.base.points
    }
    rest = {}
    for p, q in strict:
        m = {}
        for e in x.fibers[q]:
            m[rep_of[(q, e)][1]] = rep_of[(p, x.restrict(p, q, e))][1]
        rest[(p, q)] = m
    quot = Presheaf(x.base, fibers, rest)
    proj = PresheafMap(
        x, quot, {p: {e: rep_of[(p, e)][1] for e in x.fibers[p]} for p in x.base.points}
    )
    return quot, proj


def hom_enumerate(x: Presheaf, y: Presheaf):
    """All natural transformations x -> y, enumerated deterministically.

    Backtracks over points from maximal downwards; values at a point are
    forced on restriction images of already-assigned higher points, which
    prunes the search to the natural transformations exactly.
    """
    if x.base != y.base:
        raise BaseMismatchError("hom between presheaves over different posets")
    order = x.base.top_down()
    results = []

    def extend(k, assigned):
        if k == len(order):
            results.append(
                PresheafMap(x, y, {p: dict(assigned[p]) for p in x.base.points})
            )
            return
        p = order[k]
        forced = {}
        ok = True
        for q in order[:k]:
            if x.base.leq(p, q):
                for e in x.fibers[q]:
                    src = x.restrict(p, q, e)
                    val = y.restrict(p, q, assigned[q][e])
                    if forced.setdefault(src, val) != val:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            return
        free = [e for e in x.fibers[p] if e not in forced]
        if not y.fibers[p] and free:
            return
        for choice in itertools.product(y.fibers[p], repeat=len(free)):
            m = dict(forced)
            m.update(zip(free, choice))
            assigned[p] = m
            extend(k + 1, assigned)
        assigned.pop(p, None)

    extend(0, {})
    return results


def find_isomorphism(x: Presheaf, y: Presheaf):
    """Some isomorphism x -> y, or None."""
    if x.base != y.base:
        return None
    if any(len(x.fibers[p]) != len(y.fibers[p]) for p in x.base.points):
        return None
    for h in hom_enumerate(x, y):
        if h.is_iso():
            return h
    return None


def is_isomorphic(x: Presheaf, y: Presheaf) -> bool:
    return find_isomorphism(x, y) is not None


@dataclass
class Family:
    """A family of objects: a total presheaf fibered over a finite index set
    through a map to the constant presheaf of the index."""

    total: Presheaf
    index: tuple
    struct_map: PresheafMap

    def __post_init__(self):
        self.index = sorted_labels(self.index)
        expected = constant_presheaf(self.index, self.total.base)
        if self.struct_map.dom != self.total or self.struct_map.cod != expected:
            raise ValueError("struct_map must go from the total to the constant presheaf of the index")

    def zeta(self, p, e):
        return self.struct_map.apply(p, e)


def family_from_parts(poset: FinPoset, parts: dict) -> Family:
    """Assemble a family from disjointly-labelled component presheaves."""
    index = sorted_labels(parts)
    seen = set()
    for i in index:
        for p, e in parts[i].elements():
            if (p, e) in seen:
                raise ValueError(f"components overlap on element {e!r} at {p!r}")
            seen.add((p, e))
    fibers = {
        p: sorted_labels(e for i in index for e in parts[i].fibers[p]) for p in poset.points
    }
    rest = {
        pq: {e: parts[i].restrictions[pq][e] for i in index for e in parts[i].fibers[pq[1]]}
        for pq in poset.strict_pairs()
    }
    total = Presheaf(poset, fibers, rest)
    zeta = {
        p: {e: i for i in index for e in parts[i].fibers[p]} for p in poset.points
    }
    struct = PresheafMap(total, constant_presheaf(index, poset), zeta)
    return Family(total, index, struct)


def family_components(f: Family) -> dict:
    """The component sub-presheaves, indexed; errors on an empty component."""
    comps = {}
    for i in f.index:
        fibers = {
            p: tuple(e for e in f.total.fibers[p] if f.zeta(p, e) == i)
            for p in f.total.base.points
        }
        comp = _sub_presheaf(f.total, fibers)
        if comp.is_initial():
            raise EmptyComponentError(f"component {i!r} is empty")
        comps[i] = comp
    return comps


def cover_is_epi(f: Family) -> bool:
    """Whether the total of the family covers the terminal object."""
    return all(f.total.fibers[p] for p in f.total.base.points)


@dataclass
class FamilyMorphism:
    """Map of families: a presheaf map and an index reindexing making the
    square against the two structure maps commute."""

    source: Family
    target: Family
    on_total: PresheafMap
    on_index: dict

    def __post_init__(self):
        if set(self.on_index) != set(self.source.index):
            raise ValueError("on_index must be total on the source index")
        tgt = set(self.target.index)
        for i, v in self.on_index.items():
            if v not in tgt:
                raise ValueError(f"on_index sends {i!r} outside the target index")
        if self.on_total.dom != self.source.total or self.on_total.cod != self.target.total:
            raise ValueError("on_total endpoints do not match the families")
        for p, e in self.source.total.elements():
            if self.target.zeta(p, self.on_total.apply(p, e)) != self.on_index[self.source.zeta(p, e)]:
                raise ValueError(f"structure square does not commute at {p!r} on {e!r}")
