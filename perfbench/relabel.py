"""Seeded relabelling of corpus JSON.

Seed 0 is the identity, so the committed corpus is used byte for byte.
Any other seed renames the element labels of a cover by a seeded
permutation of those labels.  The renaming is an isomorphism, so every
label-free answer (simplex counts, data and action counts, verdict
tallies, hom tables) is unchanged, while the ``label_key`` order of the
elements, and with it every enumeration order, changes.

The functions below walk each corpus schema and rename only at label
positions, one atom of a label string at a time; schema keys, points,
index labels and integer labels are never touched.
"""

import random
import re

ATOM = re.compile(r"[^(),]+")


def element_labels(cover_json):
    """The element label atoms of a cover (family) JSON."""
    out = set()
    for es in cover_json["total"]["fibers"].values():
        for e in es:
            out.update(ATOM.findall(e))
    return out


def label_map(labels, seed, salt):
    """A seeded permutation of ``labels`` that moves at least one of them
    when there are two or more; the identity for seed 0."""
    labels = sorted(labels)
    if seed == 0 or len(labels) < 2:
        return {}
    rng = random.Random(f"{salt}:{seed}")
    image = list(labels)
    while image == labels:
        rng.shuffle(image)
    return {a: b for a, b in zip(labels, image) if a != b}


def lab(s, m):
    # The substitution runs for the identity map too, so set-up costs the
    # same at every seed.
    return ATOM.sub(lambda a: m.get(a.group(0), a.group(0)), s)


def _map(d, m):
    return {lab(k, m): lab(v, m) for k, v in d.items()}


def _comp(d, m):
    return {p: _map(v, m) for p, v in d.items()}


def presheaf(d, m):
    return {
        "fibers": {p: [lab(e, m) for e in es] for p, es in d["fibers"].items()},
        "restrictions": {k: _map(v, m) for k, v in d.get("restrictions", {}).items()},
    }


def cover(d, m):
    return {
        "poset": d["poset"],
        "total": presheaf(d["total"], m),
        "index": d["index"],
        "zeta": _comp(d["zeta"], m),
    }


def selfdual_family(d, m):
    s = d["sset"]
    sset = {
        "S0": [lab(x, m) for x in s["S0"]],
        "S1": [lab(x, m) for x in s["S1"]],
        "S2": [lab(x, m) for x in s["S2"]],
        "d": {n: [_map(x, m) for x in maps] for n, maps in s["d"].items()},
        "s": {n: [_map(x, m) for x in maps] for n, maps in s["s"].items()},
        "tau": {n: _map(x, m) for n, x in s["tau"].items()},
    }
    return {
        "poset": d["poset"],
        "sset": sset,
        "levels": {n: presheaf(x, m) for n, x in d["levels"].items()},
        "faces": {k: _comp(v, m) for k, v in d["faces"].items()},
        "degens": {k: _comp(v, m) for k, v in d["degens"].items()},
        "zeta": {k: _comp(v, m) for k, v in d["zeta"].items()},
        "tau": {k: _comp(v, m) for k, v in d["tau"].items()},
    }


def udatum(d, m):
    return {
        "carriers": d["carriers"],
        "sigma": {
            pair: {p: {lab(xy, m): table for xy, table in tables.items()} for p, tables in by_point.items()}
            for pair, by_point in d["sigma"].items()
        },
    }


def zero_class(d, m):
    return {"members": [presheaf(x, m) for x in d["members"]]}


def one_class(d, m):
    return {
        "spans": [
            {
                "i": sp["i"],
                "j": sp["j"],
                "vertex": presheaf(sp["vertex"], m),
                "left": _comp(sp["left"], m),
                "right": _comp(sp["right"], m),
            }
            for sp in d["spans"]
        ]
    }


def index(d, m):
    return {
        "nodes": [dict(n, cover=cover(n["cover"], m)) for n in d["nodes"]],
        "edges": d["edges"],
    }
