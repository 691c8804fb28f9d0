"""JSON serialization for the library's value types.

Labels are strings in JSON; internal tuple labels round-trip through a
parenthesized encoding and integer labels through a ``#`` prefix, so user
labels must avoid ``( ) , #`` and ``|`` and ``>`` (the separators used in
restriction and pair keys).

Writers of whole documents (``sset_to_json``, ``selfdual_family_to_json``)
encode each distinct tuple label once per document, through a memo that
lives only as long as that call; there is no process-wide cache.
"""

from __future__ import annotations

from .fintopos import Family, FinPoset, Presheaf, PresheafMap, constant_presheaf
from .simplicial import StrictDuality, TruncSSet


class SerializationError(ValueError):
    pass


_FORBIDDEN = set("(),#|>")


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


def dec_label(s: str):
    out, pos = _parse_label(s, 0)
    if pos != len(s):
        raise SerializationError(f"trailing characters in label {s!r}")
    return out


def _parse_label(s: str, pos: int):
    if pos >= len(s):
        raise SerializationError(f"unexpected end of label {s!r}")
    if s[pos] == "(":
        pos += 1
        parts = []
        if pos < len(s) and s[pos] == ")":
            return (), pos + 1
        while True:
            part, pos = _parse_label(s, pos)
            parts.append(part)
            if pos >= len(s):
                raise SerializationError(f"unterminated tuple in label {s!r}")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == ")":
                return tuple(parts), pos + 1
            raise SerializationError(f"malformed tuple in label {s!r}")
    start = pos
    while pos < len(s) and s[pos] not in ",()":
        pos += 1
    atom = s[start:pos]
    if atom.startswith("#"):
        try:
            return int(atom[1:]), pos
        except ValueError as exc:
            raise SerializationError(f"malformed integer label {atom!r}") from exc
    if not atom:
        raise SerializationError(f"empty atom in label {s!r}")
    return atom, pos


def _enc_map(m: dict, memo=None) -> dict:
    return {enc_label(k, memo): enc_label(v, memo) for k, v in m.items()}


def _dec_map(d: dict) -> dict:
    return {dec_label(k): dec_label(v) for k, v in d.items()}


def poset_to_json(p: FinPoset) -> dict:
    return {
        "points": [enc_label(x) for x in p.points],
        "leq": [[enc_label(a), enc_label(b)] for a, b in p.strict_pairs()],
    }


def poset_from_json(d: dict) -> FinPoset:
    try:
        return FinPoset.from_pairs(
            [dec_label(x) for x in d["points"]],
            [(dec_label(a), dec_label(b)) for a, b in d.get("leq", [])],
        )
    except (KeyError, TypeError, ValueError) as exc:
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


def presheaf_from_json(d: dict, poset: FinPoset) -> Presheaf:
    try:
        fibers = {dec_label(p): tuple(dec_label(e) for e in es) for p, es in d["fibers"].items()}
        rest = {}
        for key, m in d.get("restrictions", {}).items():
            q, _, p = key.partition(">")
            if not p:
                raise SerializationError(f"restriction key {key!r} is not of the form 'q>p'")
            rest[(dec_label(p), dec_label(q))] = _dec_map(m)
        return Presheaf(poset, fibers, rest)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad presheaf: {exc}") from exc


def family_to_json(f: Family) -> dict:
    return {
        "poset": poset_to_json(f.total.base),
        "total": presheaf_to_json(f.total),
        "index": [enc_label(i) for i in f.index],
        "zeta": {
            enc_label(p): {enc_label(e): enc_label(f.zeta(p, e)) for e in f.total.fibers[p]}
            for p in f.total.base.points
        },
    }


def family_from_json(d: dict) -> Family:
    try:
        poset = poset_from_json(d["poset"])
        total = presheaf_from_json(d["total"], poset)
        index = tuple(dec_label(i) for i in d["index"])
        zeta = {
            dec_label(p): _dec_map(m) for p, m in d["zeta"].items()
        }
        struct = PresheafMap(total, constant_presheaf(index, poset), zeta)
        return Family(total, index, struct)
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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


def sset_from_json(d: dict):
    try:
        sset = TruncSSet(
            tuple(dec_label(x) for x in d["S0"]),
            tuple(dec_label(x) for x in d["S1"]),
            tuple(dec_label(x) for x in d["S2"]),
            {
                (1, 0): _dec_map(d["d"]["1"][0]),
                (1, 1): _dec_map(d["d"]["1"][1]),
                (2, 0): _dec_map(d["d"]["2"][0]),
                (2, 1): _dec_map(d["d"]["2"][1]),
                (2, 2): _dec_map(d["d"]["2"][2]),
            },
            {
                (0, 0): _dec_map(d["s"]["0"][0]),
                (1, 0): _dec_map(d["s"]["1"][0]),
                (1, 1): _dec_map(d["s"]["1"][1]),
            },
        )
        tau = None
        if "tau" in d:
            tau = StrictDuality(_dec_map(d["tau"]["1"]), _dec_map(d["tau"]["2"]))
        return sset, tau
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SerializationError(f"bad simplicial set: {exc}") from exc


def presheaf_map_to_json(m: PresheafMap, memo=None) -> dict:
    return {enc_label(p, memo): _enc_map(m.comp[p], memo) for p in m.dom.base.points}


def sdescent_to_json(d) -> dict:
    return {
        "carriers": {enc_label(i): [enc_label(r) for r in rs] for i, rs in d.carrier.items()},
        "s": {enc_label(l): _enc_map(m) for l, m in d.s.items()},
    }


def sdescent_from_json(d: dict):
    from .descent import SDescentDatum

    try:
        return SDescentDatum(
            carrier={dec_label(i): tuple(dec_label(r) for r in rs) for i, rs in d["carriers"].items()},
            s={dec_label(l): _dec_map(m) for l, m in d["s"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad descent datum: {exc}") from exc


def udescent_to_json(u) -> dict:
    return {
        "carriers": {enc_label(i): [enc_label(r) for r in rs] for i, rs in u.carrier.items()},
        "sigma": {
            enc_label(pair): {
                enc_label(p): {enc_label(xy): _enc_map(m) for xy, m in table.items()}
                for p, table in tables.items()
            }
            for pair, tables in u.sigma.items()
        },
    }


def udescent_from_json(d: dict, cover: Family):
    from .descent import UDescentDatum

    try:
        return UDescentDatum(
            cover=cover,
            carrier={dec_label(i): tuple(dec_label(r) for r in rs) for i, rs in d["carriers"].items()},
            sigma={
                dec_label(pair): {
                    dec_label(p): {dec_label(xy): _dec_map(m) for xy, m in table.items()}
                    for p, table in tables.items()
                }
                for pair, tables in d["sigma"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad descent datum: {exc}") from exc


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

    try:
        poset = poset_from_json(d["poset"])
        sset, tau_s = sset_from_json(d["sset"])
        if tau_s is None:
            raise SerializationError("family JSON lacks the index duality")
        levels = {n: presheaf_from_json(d["levels"][str(n)], poset) for n in (0, 1, 2)}

        def dec_comp(raw):
            return {dec_label(p): _dec_map(m) for p, m in raw.items()}

        face = {}
        for key, raw in d["faces"].items():
            n, i = (int(x) for x in key.split(","))
            face[(n, i)] = PresheafMap(levels[n], levels[n - 1], dec_comp(raw))
        degen = {}
        for key, raw in d["degens"].items():
            n, i = (int(x) for x in key.split(","))
            degen[(n, i)] = PresheafMap(levels[n], levels[n + 1], dec_comp(raw))
        zeta = tuple(
            PresheafMap(
                levels[n],
                constant_presheaf(sset.level(n), poset),
                dec_comp(d["zeta"][str(n)]),
            )
            for n in (0, 1, 2)
        )
        fam = SimplicialFamily(levels[0], levels[1], levels[2], face, degen, sset, zeta)
        tau1 = PresheafMap(levels[1], levels[1], dec_comp(d["tau"]["1"]))
        tau2 = PresheafMap(levels[2], levels[2], dec_comp(d["tau"]["2"]))
        return SelfDualFamily(fam, tau_s, tau1, tau2)
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad simplicial family: {exc}") from exc


def action_to_json(a) -> dict:
    return {
        "carriers": {enc_label(i): [enc_label(r) for r in rs] for i, rs in a.carrier.items()},
        "actions": {enc_label(g): _enc_map(m) for g, m in a.gen_action.items()},
    }


def action_from_json(d: dict):
    from .groupoid import GroupoidAction

    try:
        return GroupoidAction(
            carrier={dec_label(i): tuple(dec_label(r) for r in rs) for i, rs in d["carriers"].items()},
            gen_action={dec_label(g): _dec_map(m) for g, m in d["actions"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad action: {exc}") from exc


def hdescent_to_json(d) -> dict:
    """Family descent datum: values keyed by 1-simplex, point, element."""
    return {
        "carriers": {enc_label(i): [enc_label(r) for r in rs] for i, rs in d.carrier.items()},
        "sigma_hat": {
            enc_label(l): {
                enc_label(p): {enc_label(e): _enc_map(m) for e, m in table.items()}
                for p, table in tables.items()
            }
            for l, tables in d.sigma_hat.items()
        },
    }


def hdescent_from_json(d: dict, family):
    from .descent import HDescentDatum

    try:
        return HDescentDatum(
            family=family,
            carrier={dec_label(i): tuple(dec_label(r) for r in rs) for i, rs in d["carriers"].items()},
            sigma_hat={
                dec_label(l): {
                    dec_label(p): {dec_label(e): _dec_map(m) for e, m in table.items()}
                    for p, table in tables.items()
                }
                for l, tables in d["sigma_hat"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad descent datum: {exc}") from exc
