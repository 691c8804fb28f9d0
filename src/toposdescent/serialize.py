"""JSON serialization for the library's value types.

Labels are strings in JSON; internal tuple labels round-trip through a
parenthesized encoding and integer labels through a ``#`` prefix, so user
labels must avoid ``( ) , #`` and ``|`` and ``>`` (the separators used in
restriction and pair keys).  An integer label is read only in the form
written for it, ``#0`` or ``#-?[1-9][0-9]*``, and a label may nest tuples
at most ``MAX_LABEL_DEPTH`` deep.

Writers of whole documents (the ``*_to_json`` functions of families,
simplicial sets, presheaves, presheaf maps, descent data and actions) read
every label through one label table per document (``_LabelTable``): each
distinct label is encoded once, with every check of ``enc_label``, and is
one ``str`` object wherever it occurs.  Lookups go by equality, and
``True == 1 == 1.0``, so a batch of labels (a fiber, a level, the keys or
the values of a map, a carrier list) is looked up only if each member's
type is exactly ``int``, ``str`` or ``tuple``; any other batch is encoded
member by member, with the same errors met in the same order.  Equal
tuples share a string within a document, as with any ``enc_label`` memo;
a presheaf or presheaf map written on its own shares atoms only.  Readers
of whole documents decode each distinct label string once per document
through a memo.  Tables and memos live only as long as their call; there
is no process-wide cache.  A reader's
memo also serves the parts of a new string: an element ``(w,x)`` whose
simplex ``w`` is already decoded, and a flat sub-tuple already decoded,
are looked up rather than parsed again, and only where a parse would
succeed, so the values and errors are those of the parse.  Readers still
build every value through the validating public constructors.  The writers
emit every fiber, level and index in ``label_key`` order, and those
constructors check such input in one pass of native comparisons instead of
sorting it (``fintopos.sorted_labels``); a document written in another
order is sorted on reading and decodes to the same value, and a repeated
label raises the same error in either order.
"""

from __future__ import annotations

import re

from .descent import HDescentDatum, SDescentDatum, UDescentDatum
from .family import SelfDualFamily, SimplicialFamily
from .fintopos import Family, FinPoset, Presheaf, PresheafMap, constant_presheaf
from .groupoid import GroupoidAction
from .simplicial import StrictDuality, TruncSSet


class SerializationError(ValueError):
    pass


_FORBIDDEN = set("(),#|>")
_ATOM = re.compile(r"[^(),]*")
_INT = re.compile(r"#(?:0|-?[1-9][0-9]*)")
MAX_LABEL_DEPTH = 100


def enc_label(x, memo=None) -> str:
    """Encode a label.  ``memo``, when given, is a caller-owned dict from
    tuples to their encodings: a tuple met again, at any depth, reuses its
    string, while every atom outside a reused tuple is checked as usual.
    Lookups go by tuple equality, so a tuple equal to one already encoded
    (as ``(True,)`` equals ``(1,)``) shares its string.

    The document writers encode through one label table per document
    (``_LabelTable``), which looks a label up only within a batch whose
    members are all exactly ``int``, ``str`` or ``tuple`` (a lookup of
    ``True`` or ``1.0`` would find the entry of ``1``), and which calls this
    function, with itself as the memo, for any other batch and for a new
    tuple with a member of another type, so a ``bool`` in a tuple still
    raises."""
    if isinstance(x, tuple):
        if memo is None:
            return "(" + ",".join(enc_label(e) for e in x) + ")"
        s = memo.get(x)
        if s is None:
            s = memo[x] = "(" + ",".join(enc_label(e, memo) for e in x) + ")"
        return s
    if isinstance(x, bool):
        raise SerializationError("boolean labels are not supported")
    if isinstance(x, int):
        return f"#{x}"
    if isinstance(x, str):
        if not x or set(x) & _FORBIDDEN:
            raise SerializationError(f"label {x!r} is empty or uses a reserved character")
        return x
    raise SerializationError(f"unsupported label type: {type(x).__name__}")


def dec_label(s: str, memo=None):
    """Decode a label.  ``memo``, when given, is a caller-owned dict from
    strings to their decoded labels: a string met again returns the label
    decoded the first time, and so do the parts of a new string that were
    met before.  An element ``(w,x)``, with ``w`` a tuple label in the memo
    and ``x`` one atom, is read as ``(memo[w], x)``, and a flat sub-tuple
    ``(...)`` whose text is in the memo takes that label; every other part
    is scanned, and the errors are those of a scan without the memo.  Only
    successful decodes of whole strings are stored, so a bad string raises
    every time it is met."""
    if not isinstance(s, str):
        raise SerializationError(f"label must be a string, not {type(s).__name__}")
    if memo is None:
        return _parse_label(s)
    out = memo.get(s)
    if out is None:
        out = memo[s] = _parse_label(s, memo)
    return out


def _parse_label(s: str, memo=None):
    """Scan ``s`` left to right with an explicit stack of open tuples; the
    first fault met decides the error.  With a memo, a string or a part of
    it that a scan would read without fault is looked up instead."""
    if memo is not None and s[:2] == "((" and s[-1:] == ")" and s.count("(") <= MAX_LABEL_DEPTH:
        # an element (w,x): w a tuple label already decoded, x one atom
        cut = s.rfind(",")
        x = s[cut + 1 : -1]
        if x and _ATOM.fullmatch(x) and (x[0] != "#" or _INT.fullmatch(x)):
            w = memo.get(s[1:cut])
            if w is not None:
                return (w, int(x[1:]) if x[0] == "#" else x)
    n = len(s)
    stack = []
    pos = 0
    while True:
        # read an atom or an empty tuple into ``value``, or open a tuple
        if pos >= n:
            raise SerializationError(f"unexpected end of label {s!r}")
        if s[pos] == "(":
            if len(stack) == MAX_LABEL_DEPTH:
                raise SerializationError(
                    f"label {s[:20]!r}... nests tuples deeper than {MAX_LABEL_DEPTH} levels"
                )
            # a flat sub-tuple already decoded takes its label (the text up to
            # the next ")" is a decoded label only if it is a flat tuple)
            end = s.find(")", pos) + 1 if memo is not None else 0
            if end and (value := memo.get(s[pos:end])) is not None:
                pos = end
            elif pos + 1 < n and s[pos + 1] == ")":
                value = ()
                pos += 2
            else:
                pos += 1
                stack.append([])
                continue
        else:
            end = _ATOM.match(s, pos).end()
            if end == pos:
                raise SerializationError(f"empty atom in label {s!r}")
            value = s[pos:end]
            pos = end
            if value[0] == "#":
                if not _INT.fullmatch(value):
                    raise SerializationError(f"malformed integer label {value!r}")
                value = int(value[1:])
        # add ``value`` to the innermost open tuple, closing tuples at ")"
        while True:
            if not stack:
                if pos != n:
                    raise SerializationError(f"trailing characters in label {s!r}")
                return value
            stack[-1].append(value)
            if pos >= n:
                raise SerializationError(f"unterminated tuple in label {s!r}")
            c = s[pos]
            pos += 1
            if c == ",":
                break
            if c != ")":
                raise SerializationError(f"malformed tuple in label {s!r}")
            value = tuple(stack.pop())


class _LabelTable(dict):
    """The label table of one document (see the module docstring).  A
    label's first occurrence is encoded and stored, and each later one is a
    lookup that returns the same string.  A new tuple of members of exact
    types in ``_exact`` is joined from the table's own entries; any other
    new label goes through ``enc_label`` with the table as its memo.  A
    label that fails to encode raises and is not stored.  The batch methods
    read a batch in order, so the first fault met is the one that encoding
    member by member meets; output dicts are built fresh."""

    __slots__ = ()
    _exact = frozenset((int, str, tuple))

    def __missing__(self, x):
        if type(x) is tuple and self._exact.issuperset(map(type, x)):
            s = "(" + ",".join(map(self.__getitem__, x)) + ")"
        else:
            s = enc_label(x, self)
        self[x] = s
        return s

    def _checked(self, x):
        return enc_label(x, self)

    def encode(self, xs):
        """An iterator over the encodings of ``xs``, taken in order as it is
        read; ``xs`` must be a collection, since it is read twice."""
        if self._exact.issuperset(map(type, xs)):
            return map(self.__getitem__, xs)
        return map(self._checked, xs)

    def labels(self, xs) -> list:
        return list(self.encode(xs))

    def map(self, m: dict) -> dict:
        """A label map, key then value item by item, as a fresh dict."""
        return dict(zip(self.encode(m), self.encode(m.values())))

    def keyed(self, keys, values) -> dict:
        """Encoded ``keys`` zipped with ``values``, an iterator that is
        advanced after each key, so faults come in item order."""
        return dict(zip(self.encode(keys), values))


class _AtomTable(_LabelTable):
    """The table of a presheaf or presheaf map written on its own, a call
    that has never had a tuple memo: each tuple is encoded by ``enc_label``
    without one, every time it is met."""

    __slots__ = ()
    _exact = frozenset((int, str))

    def _checked(self, x):
        return enc_label(x)


def _dec_map(d: dict, memo=None) -> dict:
    return {dec_label(k, memo): dec_label(v, memo) for k, v in d.items()}


def poset_to_json(p: FinPoset) -> dict:
    return {
        "points": [enc_label(x) for x in p.points],
        "leq": [[enc_label(a), enc_label(b)] for a, b in p.strict_pairs()],
    }


def poset_from_json(d: dict, memo=None) -> FinPoset:
    try:
        return FinPoset.from_pairs(
            [dec_label(x, memo) for x in d["points"]],
            [(dec_label(a, memo), dec_label(b, memo)) for a, b in d.get("leq", [])],
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad poset: {exc}") from exc


def presheaf_to_json(x: Presheaf, table=None) -> dict:
    t = _AtomTable() if table is None else table
    points = x.base.points

    def restrictions():
        for (p, q), m in x.restrictions.items():
            eq, ep = t.encode((q, p))
            yield f"{eq}>{ep}", t.map(m)

    return {
        "fibers": t.keyed(points, (t.labels(x.fibers[p]) for p in points)),
        "restrictions": dict(restrictions()),
    }


def presheaf_from_json(d: dict, poset: FinPoset, memo=None) -> Presheaf:
    try:
        fibers = {
            dec_label(p, memo): tuple(dec_label(e, memo) for e in es)
            for p, es in d["fibers"].items()
        }
        rest = {}
        for key, m in d.get("restrictions", {}).items():
            q, _, p = key.partition(">")
            if not p:
                raise SerializationError(f"restriction key {key!r} is not of the form 'q>p'")
            rest[(dec_label(p, memo), dec_label(q, memo))] = _dec_map(m, memo)
        return Presheaf(poset, fibers, rest)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad presheaf: {exc}") from exc


def family_to_json(f: Family) -> dict:
    t = _LabelTable()
    points, fibers = f.total.base.points, f.total.fibers

    def zeta(p):
        fiber = fibers[p]
        return t.keyed(fiber, t.encode([f.zeta(p, e) for e in fiber]))

    return {
        "poset": poset_to_json(f.total.base),
        "total": presheaf_to_json(f.total, t),
        "index": t.labels(f.index),
        "zeta": t.keyed(points, map(zeta, points)),
    }


def family_from_json(d: dict) -> Family:
    memo = {}
    try:
        poset = poset_from_json(d["poset"], memo)
        total = presheaf_from_json(d["total"], poset, memo)
        index = tuple(dec_label(i, memo) for i in d["index"])
        zeta = {dec_label(p, memo): _dec_map(m, memo) for p, m in d["zeta"].items()}
        struct = PresheafMap(total, constant_presheaf(index, poset), zeta)
        return Family(total, index, struct)
    except SerializationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad family: {exc}") from exc


def sset_to_json(s: TruncSSet, tau: StrictDuality = None, table=None) -> dict:
    t = _LabelTable() if table is None else table

    def faces(n, idxs):
        return [t.map(s.face[(n, i)]) for i in idxs]

    def degens(n, idxs):
        return [t.map(s.degen[(n, i)]) for i in idxs]

    out = {
        "S0": t.labels(s.s0),
        "S1": t.labels(s.s1),
        "S2": t.labels(s.s2),
        "d": {"1": faces(1, (0, 1)), "2": faces(2, (0, 1, 2))},
        "s": {"0": degens(0, (0,)), "1": degens(1, (0, 1))},
    }
    if tau is not None:
        out["tau"] = {"1": t.map(tau.tau1), "2": t.map(tau.tau2)}
    return out


def sset_from_json(d: dict, memo=None):
    if memo is None:
        memo = {}
    try:
        sset = TruncSSet(
            tuple(dec_label(x, memo) for x in d["S0"]),
            tuple(dec_label(x, memo) for x in d["S1"]),
            tuple(dec_label(x, memo) for x in d["S2"]),
            {
                (1, 0): _dec_map(d["d"]["1"][0], memo),
                (1, 1): _dec_map(d["d"]["1"][1], memo),
                (2, 0): _dec_map(d["d"]["2"][0], memo),
                (2, 1): _dec_map(d["d"]["2"][1], memo),
                (2, 2): _dec_map(d["d"]["2"][2], memo),
            },
            {
                (0, 0): _dec_map(d["s"]["0"][0], memo),
                (1, 0): _dec_map(d["s"]["1"][0], memo),
                (1, 1): _dec_map(d["s"]["1"][1], memo),
            },
        )
        tau = None
        if "tau" in d:
            tau = StrictDuality(_dec_map(d["tau"]["1"], memo), _dec_map(d["tau"]["2"], memo))
        return sset, tau
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise SerializationError(f"bad simplicial set: {exc}") from exc


def presheaf_map_to_json(m: PresheafMap, table=None) -> dict:
    t = _AtomTable() if table is None else table
    points = m.dom.base.points
    return t.keyed(points, (t.map(m.comp[p]) for p in points))


def presheaf_map_from_json(d: dict, dom: Presheaf, cod: Presheaf, memo=None) -> PresheafMap:
    return PresheafMap(dom, cod, {dec_label(p, memo): _dec_map(m, memo) for p, m in d.items()})


def _dec_carriers(d: dict, memo) -> dict:
    return {dec_label(i, memo): tuple(dec_label(r, memo) for r in rs) for i, rs in d.items()}



def _maps_to_json(carrier: dict, key: str, maps: dict) -> dict:
    """Carriers and one map per key: index descent data and actions."""
    t = _LabelTable()
    return {
        "carriers": t.keyed(carrier, map(t.labels, carrier.values())),
        key: t.keyed(maps, map(t.map, maps.values())),
    }


def _maps_from_json(d: dict, key: str, what: str):
    """The carriers and maps written by ``_maps_to_json``; a fault raises
    ``bad {what}``."""
    memo = {}
    try:
        carrier = _dec_carriers(d["carriers"], memo)
        return carrier, {dec_label(l, memo): _dec_map(m, memo) for l, m in d[key].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad {what}: {exc}") from exc


def _tables_to_json(carrier: dict, key: str, tables: dict) -> dict:
    """Carriers and one map per key, point and element: cover and family
    descent data."""
    t = _LabelTable()

    def by_element(table):
        return t.keyed(table, map(t.map, table.values()))

    def by_point(tables):
        return t.keyed(tables, map(by_element, tables.values()))

    return {
        "carriers": t.keyed(carrier, map(t.labels, carrier.values())),
        key: t.keyed(tables, map(by_point, tables.values())),
    }


def _tables_from_json(d: dict, key: str):
    """The carriers and tables written by ``_tables_to_json``."""
    memo = {}
    try:
        carrier = _dec_carriers(d["carriers"], memo)
        return carrier, {
            dec_label(l, memo): {
                dec_label(p, memo): {dec_label(e, memo): _dec_map(m, memo) for e, m in table.items()}
                for p, table in by_point.items()
            }
            for l, by_point in d[key].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad descent datum: {exc}") from exc


def sdescent_to_json(d) -> dict:
    return _maps_to_json(d.carrier, "s", d.s)


def sdescent_from_json(d: dict):
    carrier, s = _maps_from_json(d, "s", "descent datum")
    return SDescentDatum(carrier=carrier, s=s)


def udescent_to_json(u) -> dict:
    return _tables_to_json(u.carrier, "sigma", u.sigma)


def udescent_from_json(d: dict, cover: Family):
    carrier, sigma = _tables_from_json(d, "sigma")
    return UDescentDatum(cover=cover, carrier=carrier, sigma=sigma)


def selfdual_family_to_json(sf) -> dict:
    f = sf.base
    t = _LabelTable()

    def maps(items):
        return {key: presheaf_map_to_json(m, t) for key, m in items}

    return {
        "poset": poset_to_json(f.h0.base),
        "sset": sset_to_json(f.sset, sf.tau_s, t),
        "levels": {str(n): presheaf_to_json(x, t) for n, x in enumerate((f.h0, f.h1, f.h2))},
        "faces": maps((f"{n},{i}", m) for (n, i), m in sorted(f.face.items())),
        "degens": maps((f"{n},{i}", m) for (n, i), m in sorted(f.degen.items())),
        "zeta": maps((str(n), f.zeta[n]) for n in (0, 1, 2)),
        "tau": maps((("1", sf.tau1), ("2", sf.tau2))),
    }


def selfdual_family_from_json(d: dict):
    memo = {}
    try:
        poset = poset_from_json(d["poset"], memo)
        sset, tau_s = sset_from_json(d["sset"], memo)
        if tau_s is None:
            raise SerializationError("family JSON lacks the index duality")
        levels = {n: presheaf_from_json(d["levels"][str(n)], poset, memo) for n in (0, 1, 2)}
        face = {}
        for key, raw in d["faces"].items():
            n, i = (int(x) for x in key.split(","))
            face[(n, i)] = presheaf_map_from_json(raw, levels[n], levels[n - 1], memo)
        degen = {}
        for key, raw in d["degens"].items():
            n, i = (int(x) for x in key.split(","))
            degen[(n, i)] = presheaf_map_from_json(raw, levels[n], levels[n + 1], memo)
        zeta = tuple(
            presheaf_map_from_json(
                d["zeta"][str(n)], levels[n], constant_presheaf(sset.level(n), poset), memo
            )
            for n in (0, 1, 2)
        )
        fam = SimplicialFamily(levels[0], levels[1], levels[2], face, degen, sset, zeta)
        tau1 = presheaf_map_from_json(d["tau"]["1"], levels[1], levels[1], memo)
        tau2 = presheaf_map_from_json(d["tau"]["2"], levels[2], levels[2], memo)
        return SelfDualFamily(fam, tau_s, tau1, tau2)
    except SerializationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad simplicial family: {exc}") from exc


def action_to_json(a) -> dict:
    return _maps_to_json(a.carrier, "actions", a.gen_action)


def action_from_json(d: dict):
    carrier, gen_action = _maps_from_json(d, "actions", "action")
    return GroupoidAction(carrier=carrier, gen_action=gen_action)


def hdescent_to_json(d) -> dict:
    """Family descent datum: values keyed by 1-simplex, point, element."""
    return _tables_to_json(d.carrier, "sigma_hat", d.sigma_hat)


def hdescent_from_json(d: dict, family):
    carrier, sigma_hat = _tables_from_json(d, "sigma_hat")
    return HDescentDatum(family=family, carrier=carrier, sigma_hat=sigma_hat)
