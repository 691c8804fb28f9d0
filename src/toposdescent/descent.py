"""Descent data over an index simplicial set, over a simplicial family, and
over a cover, with the correspondences between them.

An index descent datum assigns a bijection of carriers to every
1-simplex, trivially on degenerate simplices and compatibly with every
triangle; these are the same thing as actions of the fundamental
groupoid, and are enumerated as such.  A family descent datum assigns
bijections elementwise along the components of level one (stored in the
first-projection form, one bijection per component element per point); a
cover descent datum does the same along the pairwise products of the
cover, which are the components of level one of its Čech family, so cover
data are enumerated as family data over that family.  The cover validator
reads the overlapping pairs and triples straight off the supports of the
components (``simplicial._overlaps``); it builds no nerve.  Over a hypercover
refinement the family data and the cover data determine each other by
composing with, respectively solving against, the canonical comparison
maps.

The enumerators trust the slot search: what it builds satisfies every law
it encodes, so their outputs are not validated again.  Every other public
entry validates what it is given (the conversions, the transfers between
family and cover data, and :func:`is_consistent`), since its input may
come from outside, and refuses it through ``errors.refuse``.  The
transfers trust what they compute from checked inputs: by the
correspondence above, it is a datum when the family passes
``validate_selfdual``, which is the caller's to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleFamilyError, refuse
from .fintopos import Family, connected_components, family_components
from .family import SelfDualFamily, cech_simplicial_family, span_morphism_pairs
from .groupoid import (
    GroupoidAction,
    GroupoidPresentation,
    _carrier_faults,
    _is_bijection,
    enumerate_actions,
    fundamental_presentation,
    g_fundamental_presentation,
    solve_carrier_slots,
    validate_action,
)
from .hypercover import _check_level0, is_hypercover
from .simplicial import TruncSSet, _LevelPlaces, _overlaps, _pair_elements, _places_at


def _compose(outer, inner):
    return {x: outer[y] for x, y in inner.items()}


@dataclass
class SDescentDatum:
    """Carriers per vertex and a bijection per 1-simplex."""

    carrier: dict
    s: dict


def validate_s_descent(sset: TruncSSet, d: SDescentDatum):
    """Empty iff identity and cocycle laws hold over the index."""
    out = _carrier_faults(sset.s0, d.carrier)
    if out:
        return out
    for l in sset.s1:
        m = d.s.get(l)
        i, j = sset.endpoints(l)
        if m is None:
            out.append(f"no bijection for 1-simplex {l!r}")
        elif not _is_bijection(m, d.carrier[i], d.carrier[j]):
            out.append(f"value at {l!r} is not a bijection of the carriers")
    if out:
        return out
    for i in sset.s0:
        m = d.s[sset.deg(0, 0, i)]
        if any(m[x] != x for x in d.carrier[i]):
            out.append(f"identity law fails at vertex {i!r}")
    for w in sset.s2:
        lhs = d.s[sset.d(2, 1, w)]
        rhs = _compose(d.s[sset.d(2, 0, w)], d.s[sset.d(2, 2, w)])
        if lhs != rhs:
            out.append(f"cocycle fails at 2-simplex {w!r}")
    return out


def s_to_action(sset: TruncSSet, d: SDescentDatum) -> GroupoidAction:
    """The action of the fundamental groupoid with each generator acting by
    its bijection; inverse to :func:`action_to_s`."""
    refuse(validate_s_descent(sset, d), "invalid descent datum")
    return _as_action(sset, d)


def action_to_s(sset: TruncSSet, a: GroupoidAction, pres: GroupoidPresentation = None) -> SDescentDatum:
    pres = pres or fundamental_presentation(sset)
    refuse(validate_action(pres, a), "invalid action")
    return _as_datum(sset, a)


def _as_action(sset: TruncSSet, d: SDescentDatum) -> GroupoidAction:
    """The datum read as an action, unchecked: each generator acts by the
    bijection of its 1-simplex."""
    return GroupoidAction(carrier=dict(d.carrier), gen_action={l: dict(d.s[l]) for l in sset.s1})


def _as_datum(sset: TruncSSet, a: GroupoidAction) -> SDescentDatum:
    """The action read as a datum, unchecked."""
    return SDescentDatum(carrier=dict(a.carrier), s={l: dict(a.gen_action[l]) for l in sset.s1})


def enumerate_s_descent_data(sset: TruncSSet, size_bound: int = None, carriers=None):
    """All valid index descent data with canonical carriers of size at most
    the bound, or on fixed carriers: the actions of the fundamental
    presentation, in their enumeration order, read as data."""
    return [
        SDescentDatum(carrier=a.carrier, s=a.gen_action)
        for a in enumerate_actions(fundamental_presentation(sset), size_bound, carriers)
    ]


@dataclass
class HDescentDatum:
    """Carriers per vertex and, for each 1-simplex, a bijection per element
    of its component at each point of the base (the first-projection form
    of an isomorphism over the leg swap)."""

    family: SelfDualFamily
    carrier: dict
    sigma_hat: dict

    def value(self, l, p, e):
        return self.sigma_hat[l][p][e]


def validate_h_descent(d: HDescentDatum):
    """Empty iff the datum is total on the components of level one, has no
    entry off them, is natural in the base point, trivial on degenerate
    images, and compatible with every triangle.  Checked in stages, as
    :func:`validate_u_descent` is: an entry at a 1-simplex the family lacks
    ends the check, as does the first 1-simplex with a missing value, a
    non-bijection or an entry off its component; naturality is checked on
    every 1-simplex, and the identity and cocycle laws only on a natural
    datum.  An element of H2 whose faces do not lie over the faces of its
    2-simplex is reported in place of its cocycle law."""
    f = d.family.base
    sset = f.sset
    out = _carrier_faults(sset.s0, d.carrier)
    if out:
        return out
    ix = sset._positions_view()
    out = [f"entry at {l!r} off the family" for l in d.sigma_hat if l not in ix.pos[1]]
    if out:
        return out
    for l in sset.s1:
        i, j = sset.endpoints(l)
        comp = f.component(1, l)
        table = d.sigma_hat.get(l, {})
        seen = len(out)
        for p in comp.base.points:
            for e in comp.fibers[p]:
                m = table.get(p, {}).get(e)
                if m is None:
                    out.append(f"missing value at {l!r}, point {p!r}, element {e!r}")
                elif not _is_bijection(m, d.carrier[i], d.carrier[j]):
                    out.append(f"value at {l!r}, {e!r} is not a carrier bijection")
        for p, row in table.items():
            if p not in comp.base.points:
                out.append(f"entry at {l!r}, point {p!r} off the family")
            else:
                inside = comp.fiber_set(p)
                out.extend(
                    f"entry at {l!r}, point {p!r}, element {e!r} off the family"
                    for e in row
                    if e not in inside
                )
        if len(out) > seen:
            return out
        for p, q in comp.base.strict_pairs():
            for e in comp.fibers[q]:
                if table[p][comp.restrict(p, q, e)] != table[q][e]:
                    out.append(f"value at {l!r} is not natural at {e!r}")
    if out:
        return out
    s0 = f.degen[(0, 0)]
    for i in sset.s0:
        l = sset.deg(0, 0, i)
        comp0 = f.component(0, i)
        for p in comp0.base.points:
            for x in comp0.fibers[p]:
                m = d.value(l, p, s0.apply(p, x))
                if any(m[y] != y for y in d.carrier[i]):
                    out.append(f"identity law fails at vertex {i!r} on {x!r}")
    # per point: the elements of H2 over each 2-simplex, and the faces of
    # each element of H2 with the 1-simplices they lie over, by position
    faces = [f.face[(2, k)] for k in (2, 1, 0)]
    points = f.h0.base.points
    over, under = {}, {}
    for p in points:
        pos = _LevelPlaces((f.h0.fibers[p], f.h1.fibers[p]))
        z1 = _places_at(f.zeta[1], p, ix.pos, 1)
        over[p] = [[] for _ in sset.s2]
        for q, k in enumerate(_places_at(f.zeta[2], p, ix.pos, 2)):
            over[p][k].append(q)
        under[p] = [[(y, z1[y]) for y in _places_at(m, p, pos, 1)] for m in faces]
    for k, w in enumerate(sset.s2):
        ends = tuple(ix.face[(2, n)][k] for n in (2, 1, 0))
        l, t, r = map(sset.s1.__getitem__, ends)
        for p in points:
            h1, h2 = f.h1.fibers[p], f.h2.fibers[p]
            for q in over[p][k]:
                (a, la), (b, lb), (c, lc) = (places[q] for places in under[p])
                if (la, lb, lc) != ends:
                    out.append(f"faces of {h2[q]!r} at {p!r} lie off those of 2-simplex {w!r}")
                elif _compose(d.value(r, p, h1[c]), d.value(l, p, h1[a])) != d.value(t, p, h1[b]):
                    out.append(f"cocycle fails at 2-simplex {w!r} on {h2[q]!r}")
    return out


def induced_h_from_s(d: SDescentDatum, f: SelfDualFamily) -> HDescentDatum:
    """Extend an index datum to the family: the bijection of a 1-simplex is
    taken constantly on its whole component."""
    refuse(validate_s_descent(f.base.sset, d), "invalid descent datum")
    sigma = {}
    for l in f.base.sset.s1:
        comp = f.base.component(1, l)
        sigma[l] = {
            p: {e: dict(d.s[l]) for e in comp.fibers[p]} for p in comp.base.points
        }
    return HDescentDatum(family=f, carrier=dict(d.carrier), sigma_hat=sigma)


@dataclass
class UDescentDatum:
    """Carriers per cover index and, for each pair of components that
    share a point, a bijection per element of the pairwise product at each
    point."""

    cover: Family
    carrier: dict
    sigma: dict

    def value(self, i, j, p, x, y):
        return self.sigma[(i, j)][p][(x, y)]


def validate_u_descent(u: UDescentDatum):
    """Empty iff the datum is total on the pairwise products, has no entry
    off them, is natural in the point, trivial on diagonals, and compatible
    on triple products.  Checked in stages: an entry over a pair the cover
    lacks ends the check, as does the first pair with a missing value, a
    non-bijection or an entry off its product; naturality is checked on
    every pair, and the identity and cocycle laws only on a natural datum."""
    cover = u.cover
    comps = family_components(cover)
    out = _carrier_faults(cover.index, u.carrier)
    if out:
        return out
    base = cover.total.base
    pairs, triples = _overlaps(cover.index, comps)
    out = [f"entry over {pair!r} off the cover" for pair in u.sigma if pair not in pairs]
    if out:
        return out
    for i, j in pairs:
        table = u.sigma.get((i, j), {})
        seen = len(out)
        have = set()
        for _, _, p, x, y in _pair_elements(base.points, comps, ((i, j),)):
            have.add((p, (x, y)))
            m = table.get(p, {}).get((x, y))
            if m is None:
                out.append(f"missing value over ({i!r},{j!r}) at {p!r} on ({x!r},{y!r})")
            elif not _is_bijection(m, u.carrier[i], u.carrier[j]):
                out.append(f"value over ({i!r},{j!r}) on ({x!r},{y!r}) is not a carrier bijection")
        for p, row in table.items():
            if p not in base.points:
                out.append(f"entry over ({i!r},{j!r}) at {p!r} off the cover")
            else:
                off = [e for e in row if (p, e) not in have]
                out.extend(f"entry over ({i!r},{j!r}) at {p!r} on {e!r} off the cover" for e in off)
        if len(out) > seen:
            return out
        for p, q in base.strict_pairs():
            for x in comps[i].fibers[q]:
                for y in comps[j].fibers[q]:
                    down = table[p][(comps[i].restrictions[(p, q)][x], comps[j].restrictions[(p, q)][y])]
                    if down != table[q][(x, y)]:
                        out.append(f"value over ({i!r},{j!r}) is not natural on ({x!r},{y!r})")
    if out:
        return out
    for i in cover.index:
        for p in base.points:
            for x in comps[i].fibers[p]:
                m = u.value(i, i, p, x, x)
                if any(m[y] != y for y in u.carrier[i]):
                    out.append(f"identity law fails over {i!r} on {x!r}")
    for i, j, k in triples:
        for p in base.points:
            for x in comps[i].fibers[p]:
                for y in comps[j].fibers[p]:
                    for z in comps[k].fibers[p]:
                        lhs = _compose(u.value(j, k, p, y, z), u.value(i, j, p, x, y))
                        if lhs != u.value(i, k, p, x, z):
                            out.append(
                                f"cocycle fails over ({i!r},{j!r},{k!r}) on ({x!r},{y!r},{z!r})"
                            )
    return out


def u_to_h(u: UDescentDatum, f: SelfDualFamily) -> HDescentDatum:
    """Pull a cover datum back along the comparison maps: the value on an
    element of a component is the value on its pair of face images.  The
    family's level 0 must be the datum's cover, else ``ValueError``; the
    result, not validated again, is a datum if the family passes
    ``validate_selfdual``."""
    refuse(validate_u_descent(u), "invalid descent datum")
    fam = f.base
    _check_level0(fam, u.cover)
    d1, d0 = fam.face[(1, 1)], fam.face[(1, 0)]
    sigma = {}
    for l in fam.sset.s1:
        i, j = fam.sset.endpoints(l)
        comp = fam.component(1, l)
        sigma[l] = {
            p: {
                e: dict(u.value(i, j, p, d1.apply(p, e), d0.apply(p, e)))
                for e in comp.fibers[p]
            }
            for p in comp.base.points
        }
    return HDescentDatum(family=f, carrier=dict(u.carrier), sigma_hat=sigma)


def h_to_u(d: HDescentDatum, cover: Family) -> UDescentDatum:
    """Solve a cover datum from a family datum over a hypercover refinement.

    The family of comparison maps is jointly surjective onto each pairwise
    product, so the elementwise bijections determine a unique table on the
    products; inconsistent values mean the input was not a genuine family
    datum for this refinement.  The table is not validated again: it is a
    cover datum if the family passes ``validate_selfdual``."""
    f = d.family.base
    if not is_hypercover(f, cover):
        raise ValueError("the family is not a hypercover refinement of the cover")
    refuse(validate_h_descent(d), "invalid descent datum")
    base = cover.total.base
    d1, d0 = f.face[(1, 1)], f.face[(1, 0)]
    sigma = {}
    for l in f.sset.s1:
        i, j = f.sset.endpoints(l)
        comp = f.component(1, l)
        table = sigma.setdefault((i, j), {})
        for p in comp.base.points:
            for e in comp.fibers[p]:
                key = (d1.apply(p, e), d0.apply(p, e))
                val = d.value(l, p, e)
                prev = table.setdefault(p, {}).setdefault(key, val)
                if prev != val:
                    raise IncompatibleFamilyError(
                        f"incompatible family: values disagree over ({i!r},{j!r}) at {key!r}"
                    )
    for pair in sigma:
        for p in base.points:
            sigma[pair].setdefault(p, {})
    return UDescentDatum(cover=cover, carrier=dict(d.carrier), sigma=sigma)


def is_consistent(d: SDescentDatum, f: SelfDualFamily) -> bool:
    """Whether the datum assigns equal bijections to every pair of parallel
    1-simplices linked by a span morphism."""
    refuse(validate_s_descent(f.base.sset, d), "invalid descent datum")
    return _equal_on_span_morphisms(d, f)


def _equal_on_span_morphisms(d: SDescentDatum, f: SelfDualFamily) -> bool:
    """:func:`is_consistent` on a datum already known to be valid."""
    return all(d.s[l] == d.s[t] for l, t in span_morphism_pairs(f.base))


def consistent_to_g_action(
    d: SDescentDatum, f: SelfDualFamily, pres: GroupoidPresentation = None
) -> GroupoidAction:
    """A consistent datum acts through the refined fundamental groupoid."""
    if not is_consistent(d, f):
        raise ValueError("descent datum is not consistent")
    pres = pres or g_fundamental_presentation(f)
    action = _as_action(f.base.sset, d)
    refuse(validate_action(pres, action), "datum does not define an action")
    return action


def action_to_consistent(
    a: GroupoidAction, f: SelfDualFamily, pres: GroupoidPresentation = None
) -> SDescentDatum:
    pres = pres or g_fundamental_presentation(f)
    refuse(validate_action(pres, a), "invalid action")
    d = _as_datum(f.base.sset, a)
    if not is_consistent(d, f):
        raise ValueError("action does not yield a consistent datum")
    return d


def enumerate_h_descent_data(f: SelfDualFamily, size_bound: int = None, carriers=None):
    """All valid family descent data with carriers up to the bound (or on
    fixed carriers).

    Naturality means one bijection per restriction orbit of each component
    of level one; the identity law pins the orbits meeting a degenerate
    image, and the cocycle law becomes composition constraints between
    orbit slots, solved by backtracking.  So every solution is a datum,
    and none is validated again.
    """
    fam = f.base
    sset = fam.sset
    slots, slot_of = [], {}
    for l in sset.s1:
        for orbit in connected_components(fam.component(1, l)):
            for el in orbit.elements():
                slot_of[(l, el)] = len(slots)
            slots.append((l, orbit))
    s0 = fam.degen[(0, 0)]
    pinned = {
        slot_of[(sset.deg(0, 0, i), (p, s0.apply(p, x)))]
        for i in sset.s0
        for p, x in fam.component(0, i).elements()
    }
    constraints = set()
    d2, d1, d0 = (fam.face[(2, k)] for k in (2, 1, 0))
    for w in sset.s2:
        l, t, r = sset.d(2, 2, w), sset.d(2, 1, w), sset.d(2, 0, w)
        for p, x in fam.component(2, w).elements():
            constraints.add(
                (
                    slot_of[(l, (p, d2.apply(p, x)))],
                    slot_of[(r, (p, d0.apply(p, x)))],
                    slot_of[(t, (p, d1.apply(p, x)))],
                )
            )
    sized = [sset.endpoints(l) for l in sset.s1]
    ends = [sset.endpoints(l) for l, _ in slots]
    out = []
    for carrier, combo in solve_carrier_slots(
        sset.s0, sized, ends, pinned, constraints, size_bound=size_bound, carriers=carriers
    ):
        # Each element of an orbit takes the bijection of its slot, and
        # every 1-simplex has a table at every point.
        sigma = {}
        for (l, orbit), m in zip(slots, combo):
            table = sigma.setdefault(l, {})
            for p, e in orbit.elements():
                table.setdefault(p, {})[e] = dict(m)
        for l in sset.s1:
            table = sigma.setdefault(l, {})
            for p in fam.h0.base.points:
                table.setdefault(p, {})
        out.append(HDescentDatum(family=f, carrier=dict(carrier), sigma_hat=sigma))
    return out


def enumerate_u_descent_data(cover: Family, size_bound: int = None, carriers=None):
    """All valid cover descent data with carriers up to the bound (or on
    fixed carriers): the family data over the Čech family of the cover, whose
    1-simplices are the overlapping pairs and whose components of level one
    are the pairwise products, in their enumeration order."""
    return [
        UDescentDatum(cover=cover, carrier=d.carrier, sigma=d.sigma_hat)
        for d in enumerate_h_descent_data(cech_simplicial_family(cover), size_bound, carriers)
    ]
