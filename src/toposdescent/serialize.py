"""JSON serialization for the library's value types.

Labels are strings in JSON; internal tuple labels round-trip through a
parenthesized encoding and integer labels through a ``#`` prefix, so user
labels must avoid ``( ) , #`` and ``|`` and ``>`` (the separators used in
restriction and pair keys).  An integer label is read only in the form
written for it, ``#0`` or ``#-?[1-9][0-9]*``, and a label may nest tuples
at most ``MAX_LABEL_DEPTH`` deep.

Writers of whole documents (the ``*_to_json`` functions of families,
simplicial sets, descent data and actions) encode each distinct tuple
label once per document, and readers of whole documents decode each
distinct label string once per document, each through a memo that lives
only as long as that call; there is no process-wide cache.  A reader's
memo also serves the parts of a new string: an element ``(w,x)`` whose
simplex ``w`` is already decoded, and a flat sub-tuple already decoded,
are looked up rather than parsed again, and only where a parse would
succeed, so the values and errors are those of the parse.  Readers still
build every value through the validating public constructors.
"""

from __future__ import annotations

import re

from .fintopos import Family, FinPoset, Presheaf, PresheafMap, constant_presheaf
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
    (as ``(True,)`` equals ``(1,)``) shares its string."""
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


def _enc_map(m: dict, memo=None) -> dict:
    return {enc_label(k, memo): enc_label(v, memo) for k, v in m.items()}


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


def presheaf_to_json(x: Presheaf, memo=None) -> dict:
    return {
        "fibers": {
            enc_label(p, memo): [enc_label(e, memo) for e in x.fibers[p]] for p in x.base.points
        },
        "restrictions": {
            f"{enc_label(q, memo)}>{enc_label(p, memo)}": _enc_map(m, memo)
            for (p, q), m in x.restrictions.items()
        },
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
    memo = {}
    return {
        "poset": poset_to_json(f.total.base),
        "total": presheaf_to_json(f.total, memo),
        "index": [enc_label(i, memo) for i in f.index],
        "zeta": {
            enc_label(p, memo): {
                enc_label(e, memo): enc_label(f.zeta(p, e), memo) for e in f.total.fibers[p]
            }
            for p in f.total.base.points
        },
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


def sset_to_json(s: TruncSSet, tau: StrictDuality = None, memo=None) -> dict:
    if memo is None:
        memo = {}

    def faces(n, idxs):
        return [_enc_map(s.face[(n, i)], memo) for i in idxs]

    def degens(n, idxs):
        return [_enc_map(s.degen[(n, i)], memo) for i in idxs]

    out = {
        "S0": [enc_label(x, memo) for x in s.s0],
        "S1": [enc_label(x, memo) for x in s.s1],
        "S2": [enc_label(x, memo) for x in s.s2],
        "d": {"1": faces(1, (0, 1)), "2": faces(2, (0, 1, 2))},
        "s": {"0": degens(0, (0,)), "1": degens(1, (0, 1))},
    }
    if tau is not None:
        out["tau"] = {"1": _enc_map(tau.tau1, memo), "2": _enc_map(tau.tau2, memo)}
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


def presheaf_map_to_json(m: PresheafMap, memo=None) -> dict:
    return {enc_label(p, memo): _enc_map(m.comp[p], memo) for p in m.dom.base.points}


def presheaf_map_from_json(d: dict, dom: Presheaf, cod: Presheaf, memo=None) -> PresheafMap:
    return PresheafMap(dom, cod, {dec_label(p, memo): _dec_map(m, memo) for p, m in d.items()})


def _enc_carriers(carrier: dict, memo) -> dict:
    return {enc_label(i, memo): [enc_label(r, memo) for r in rs] for i, rs in carrier.items()}


def _dec_carriers(d: dict, memo) -> dict:
    return {dec_label(i, memo): tuple(dec_label(r, memo) for r in rs) for i, rs in d.items()}



def _maps_to_json(carrier: dict, key: str, maps: dict) -> dict:
    """Carriers and one map per key: index descent data and actions."""
    memo = {}
    return {
        "carriers": _enc_carriers(carrier, memo),
        key: {enc_label(l, memo): _enc_map(m, memo) for l, m in maps.items()},
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
    memo = {}
    return {
        "carriers": _enc_carriers(carrier, memo),
        key: {
            enc_label(l, memo): {
                enc_label(p, memo): {enc_label(e, memo): _enc_map(m, memo) for e, m in table.items()}
                for p, table in by_point.items()
            }
            for l, by_point in tables.items()
        },
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
    from .descent import SDescentDatum

    carrier, s = _maps_from_json(d, "s", "descent datum")
    return SDescentDatum(carrier=carrier, s=s)


def udescent_to_json(u) -> dict:
    return _tables_to_json(u.carrier, "sigma", u.sigma)


def udescent_from_json(d: dict, cover: Family):
    from .descent import UDescentDatum

    carrier, sigma = _tables_from_json(d, "sigma")
    return UDescentDatum(cover=cover, carrier=carrier, sigma=sigma)


def selfdual_family_to_json(sf) -> dict:
    f = sf.base
    memo = {}

    def maps(items):
        return {key: presheaf_map_to_json(m, memo) for key, m in items}

    return {
        "poset": poset_to_json(f.h0.base),
        "sset": sset_to_json(f.sset, sf.tau_s, memo),
        "levels": {str(n): presheaf_to_json(x, memo) for n, x in enumerate((f.h0, f.h1, f.h2))},
        "faces": maps((f"{n},{i}", m) for (n, i), m in sorted(f.face.items())),
        "degens": maps((f"{n},{i}", m) for (n, i), m in sorted(f.degen.items())),
        "zeta": maps((str(n), f.zeta[n]) for n in (0, 1, 2)),
        "tau": maps((("1", sf.tau1), ("2", sf.tau2))),
    }


def selfdual_family_from_json(d: dict):
    from .family import SelfDualFamily, SimplicialFamily

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
    from .groupoid import GroupoidAction

    carrier, gen_action = _maps_from_json(d, "actions", "action")
    return GroupoidAction(carrier=carrier, gen_action=gen_action)


def hdescent_to_json(d) -> dict:
    """Family descent datum: values keyed by 1-simplex, point, element."""
    return _tables_to_json(d.carrier, "sigma_hat", d.sigma_hat)


def hdescent_from_json(d: dict, family):
    from .descent import HDescentDatum

    carrier, sigma_hat = _tables_from_json(d, "sigma_hat")
    return HDescentDatum(family=family, carrier=carrier, sigma_hat=sigma_hat)
