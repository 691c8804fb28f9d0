"""The document writers' label table against the per-element writers.

Every ``*_to_json`` writer of a whole document reads its labels through one
label table (``serialize._LabelTable``).  The per-element writers kept here
encode every label through ``enc_label``, with one tuple memo per document
(none for a presheaf or presheaf map written on its own).  Each writer must
give the same dict, with the same key order, or raise the same exception
type and message, on label pools that mix in labels ``enc_label`` refuses
(``bool`` after an equal ``int``, ``1.0``, lists, empty strings, reserved
characters) at random positions.  The table's own promises are pinned too:
equal labels of one output are one ``str`` object, and no two encoded maps
are one dict.
"""

import json
from types import SimpleNamespace as NS

import pytest
from hypothesis import given, settings, strategies as st

import toposdescent as td
from toposdescent.serialize import (
    SerializationError,
    action_to_json,
    enc_label,
    family_to_json,
    hdescent_to_json,
    poset_to_json,
    presheaf_map_to_json,
    presheaf_to_json,
    sdescent_to_json,
    selfdual_family_to_json,
    sset_to_json,
    udescent_to_json,
)
from conftest import generated_covers


# ------------------------------------------------- the per-element writers


def ref_map(m, memo):
    return {enc_label(k, memo): enc_label(v, memo) for k, v in m.items()}


def ref_presheaf(x, memo=None):
    return {
        "fibers": {
            enc_label(p, memo): [enc_label(e, memo) for e in x.fibers[p]] for p in x.base.points
        },
        "restrictions": {
            f"{enc_label(q, memo)}>{enc_label(p, memo)}": ref_map(m, memo)
            for (p, q), m in x.restrictions.items()
        },
    }


def ref_presheaf_map(m, memo=None):
    return {enc_label(p, memo): ref_map(m.comp[p], memo) for p in m.dom.base.points}


def ref_sset(s, tau=None, memo=None):
    if memo is None:
        memo = {}
    out = {
        "S0": [enc_label(x, memo) for x in s.s0],
        "S1": [enc_label(x, memo) for x in s.s1],
        "S2": [enc_label(x, memo) for x in s.s2],
        "d": {
            "1": [ref_map(s.face[(1, i)], memo) for i in (0, 1)],
            "2": [ref_map(s.face[(2, i)], memo) for i in (0, 1, 2)],
        },
        "s": {
            "0": [ref_map(s.degen[(0, 0)], memo)],
            "1": [ref_map(s.degen[(1, i)], memo) for i in (0, 1)],
        },
    }
    if tau is not None:
        out["tau"] = {"1": ref_map(tau.tau1, memo), "2": ref_map(tau.tau2, memo)}
    return out


def ref_family(f):
    memo = {}
    return {
        "poset": poset_to_json(f.total.base),
        "total": ref_presheaf(f.total, memo),
        "index": [enc_label(i, memo) for i in f.index],
        "zeta": {
            enc_label(p, memo): {
                enc_label(e, memo): enc_label(f.zeta(p, e), memo) for e in f.total.fibers[p]
            }
            for p in f.total.base.points
        },
    }


def ref_selfdual(sf):
    f = sf.base
    memo = {}

    def maps(items):
        return {key: ref_presheaf_map(m, memo) for key, m in items}

    return {
        "poset": poset_to_json(f.h0.base),
        "sset": ref_sset(f.sset, sf.tau_s, memo),
        "levels": {str(n): ref_presheaf(x, memo) for n, x in enumerate((f.h0, f.h1, f.h2))},
        "faces": maps((f"{n},{i}", m) for (n, i), m in sorted(f.face.items())),
        "degens": maps((f"{n},{i}", m) for (n, i), m in sorted(f.degen.items())),
        "zeta": maps((str(n), f.zeta[n]) for n in (0, 1, 2)),
        "tau": maps((("1", sf.tau1), ("2", sf.tau2))),
    }


def ref_carriers(carrier, memo):
    return {enc_label(i, memo): [enc_label(r, memo) for r in rs] for i, rs in carrier.items()}


def ref_maps(carrier, key, maps):
    memo = {}
    return {
        "carriers": ref_carriers(carrier, memo),
        key: {enc_label(l, memo): ref_map(m, memo) for l, m in maps.items()},
    }


def ref_tables(carrier, key, tables):
    memo = {}
    return {
        "carriers": ref_carriers(carrier, memo),
        key: {
            enc_label(l, memo): {
                enc_label(p, memo): {enc_label(e, memo): ref_map(m, memo) for e, m in table.items()}
                for p, table in by_point.items()
            }
            for l, by_point in tables.items()
        },
    }


# writer and its per-element form, by the name ``build`` knows the value by
WRITERS = {
    "udescent": (udescent_to_json, lambda u: ref_tables(u.carrier, "sigma", u.sigma)),
    "hdescent": (hdescent_to_json, lambda d: ref_tables(d.carrier, "sigma_hat", d.sigma_hat)),
    "sdescent": (sdescent_to_json, lambda d: ref_maps(d.carrier, "s", d.s)),
    "action": (action_to_json, lambda a: ref_maps(a.carrier, "actions", a.gen_action)),
    "presheaf": (presheaf_to_json, ref_presheaf),
    "presheaf_map": (presheaf_map_to_json, ref_presheaf_map),
    "sset": (lambda s: sset_to_json(s, s.tau), lambda s: ref_sset(s, s.tau)),
    "family": (family_to_json, ref_family),
    "selfdual": (selfdual_family_to_json, ref_selfdual),
}


def outcome(write, doc):
    try:
        out = write(doc)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    return ("gives", json.dumps(out))


def assert_same(name, doc):
    new, old = WRITERS[name]
    got = outcome(new, doc)
    assert got == outcome(old, doc)
    return got


# ------------------------------------------------------------- documents


def as_poset(points):
    return NS(points=points, strict_pairs=lambda: [(a, b) for a, b in zip(points, points[1:])])


def as_presheaf(base, fibers, rest):
    return NS(base=base, fibers=fibers, restrictions=rest)


def as_family(total, index, zetas):
    return NS(total=total, index=index, zeta=lambda p, e: zetas[p][total.fibers[p].index(e)])


def as_sset(levels, maps):
    face = dict(zip([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)], maps))
    degen = dict(zip([(0, 0), (1, 0), (1, 1)], maps[5:]))
    return NS(s0=levels[0], s1=levels[1], s2=levels[2], face=face, degen=degen, tau=NS(tau1=maps[8], tau2=maps[9]))


def as_selfdual(base, levels, maps, sset):
    m = [NS(dom=NS(base=base), comp=c) for c in maps]
    face = {(1, 0): m[0], (1, 1): m[1], (2, 0): m[2], (2, 1): m[3], (2, 2): m[4]}
    degen = {(0, 0): m[5], (1, 0): m[6], (1, 1): m[7]}
    h0, h1, h2 = levels
    fam = NS(h0=h0, h1=h1, h2=h2, sset=sset, face=face, degen=degen, zeta=tuple(m[8:11]))
    return NS(base=fam, tau_s=sset.tau, tau1=m[11], tau2=m[12])


def build(name, pick, many, label_map, count):
    """A duck-typed value for writer ``name``: ``pick()`` draws one label,
    ``many()`` a list of them, ``label_map()`` one label map and
    ``count()`` the size of a table."""

    def times():
        return range(count())

    if name in ("udescent", "hdescent"):
        tables = {pick(): {pick(): {pick(): label_map() for _ in times()} for _ in times()} for _ in times()}
        carrier = {pick(): many() for _ in times()}
        return NS(carrier=carrier, sigma=tables, sigma_hat=tables)
    if name in ("sdescent", "action"):
        maps = {pick(): label_map() for _ in times()}
        return NS(carrier={pick(): many() for _ in times()}, s=maps, gen_action=maps)
    if name == "sset":
        return as_sset([many(), many(), many()], [label_map() for _ in range(10)])
    points = [pick() for _ in times()] or [pick()]
    base = as_poset(points)

    def presheaf():
        rest = {(p, q): label_map() for p, q in zip(points, points[1:])}
        return as_presheaf(base, {p: many() for p in points}, rest)

    if name == "presheaf":
        return presheaf()
    if name == "presheaf_map":
        return NS(dom=NS(base=base), comp={p: label_map() for p in points})
    if name == "family":
        total = presheaf()
        return as_family(total, many(), {p: [pick() for _ in total.fibers[p]] for p in points})
    sset = as_sset([many(), many(), many()], [label_map() for _ in range(10)])
    comps = [{p: label_map() for p in points} for _ in range(13)]
    return as_selfdual(base, [presheaf() for _ in range(3)], comps, sset)


# ------------------------------------------------------------ label pools

GOOD = st.one_of(st.integers(min_value=-3, max_value=40), st.text(alphabet="abcsp*XY0", min_size=1, max_size=3))
# hashable labels that enc_label refuses; a bool comes after an equal int,
# since every pool holds 0 and 1
BAD = st.sampled_from([True, False, 1.0, 0.0, "", "a,b", "x#", "p>q", "(", "|"])
UNHASHABLE = st.sampled_from([[1], ["a"], [], ("a", [1])])


@st.composite
def label_pools(draw):
    """``(keys, values)``: hashable labels whose tuples share sub-tuples by
    value and by identity, and the same with an unhashable label or two,
    which can stand anywhere but in a dict key."""
    atoms = [0, 1] + draw(st.lists(GOOD, min_size=1, max_size=6))
    if draw(st.booleans()):
        for bad in draw(st.lists(BAD, min_size=1, max_size=3)):
            atoms.insert(draw(st.integers(0, len(atoms))), bad)
    keys = list(atoms)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        keys.append(tuple(draw(st.lists(st.sampled_from(keys), max_size=4))))
    values = list(keys)
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), draw(UNHASHABLE))
    return keys, values


@pytest.mark.parametrize("name", sorted(WRITERS))
@settings(max_examples=120, deadline=None, derandomize=True)
@given(pools=label_pools(), data=st.data())
def test_writers_match_the_per_element_writers(name, pools, data):
    keys, values = pools

    def pick():
        return data.draw(st.sampled_from(keys))

    def many():
        return data.draw(st.lists(st.sampled_from(values), max_size=4))

    def label_map():
        return dict(data.draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(values)), max_size=4)))

    def count():
        return data.draw(st.integers(min_value=0, max_value=3))

    assert_same(name, build(name, pick, many, label_map, count))


def trap_documents(name, then, tuples=False):
    """Documents for writer ``name``, one per position that can hold
    ``then`` (a map position if ``then`` is a dict, else a label position).
    The first map drawn is ``{1: 1}`` (or ``{(1,): (1,)}``); every other
    label is a distinct int ``n > 1`` (or ``(n,)``), and every other map is
    made of two such labels, or is ``{n: n}`` if ``then`` is a dict.  So
    most documents meet ``then`` after the label it equals, and that label
    is in no dict that ``then`` is a key of."""
    k = 0
    while True:
        drawn = []

        def draw(is_map):
            drawn.append(is_map)
            if len(drawn) == k + 1 and is_map == isinstance(then, dict):
                return then
            if is_map and drawn.count(True) > 1 and not isinstance(then, dict):
                return {pick(): pick()}
            n = 1 if is_map and drawn.count(True) == 1 else len(drawn) + 1
            x = (n,) if tuples else n
            return {x: x} if is_map else x

        def pick():
            return draw(False)

        doc = build(name, pick, lambda: [pick(), pick()], lambda: draw(True), lambda: 2)
        if len(drawn) <= k:
            return
        if drawn[k] == isinstance(then, dict):
            yield doc
        k += 1


@pytest.mark.parametrize("name", sorted(WRITERS))
@pytest.mark.parametrize("then", [True, (True,), 1.0, (1.0,), {1: True}, {True: 1}, {1: 1.0}], ids=repr)
def test_bool_and_float_after_an_equal_int_raise(name, then):
    docs = list(trap_documents(name, then))
    assert docs
    for doc in docs:
        assert assert_same(name, doc)[:2] == ("raises", SerializationError)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_equal_tuples_share_no_more_than_before(name):
    """``(True,)`` after ``(1,)`` shares its string in a document that has a
    tuple memo, and raises in a presheaf or presheaf map written alone."""
    got = [assert_same(name, doc)[0] for doc in trap_documents(name, (True,), tuples=True)]
    if name in ("presheaf", "presheaf_map"):
        assert set(got) == {"raises"}
    else:
        assert "gives" in got and "raises" in got


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_map_meets_its_faults_item_by_item(name):
    """A bad value before a bad key: the value's error is raised, as it is
    when keys and values are encoded item by item."""
    doc = build(name, lambda: "ok", lambda: ["ok"], lambda: {"x": "v,1", "k|2": "y"}, lambda: 2)
    got = assert_same(name, doc)
    assert got[:2] == ("raises", SerializationError) and "'v,1'" in got[2]


# ------------------------------------------------------ sharing, aliasing


@pytest.fixture(scope="module")
def chain_data():
    cover = dict(generated_covers())["chain-constants"]
    return td.enumerate_u_descent_data(cover, 3)


def strings_and_maps(obj, strings, maps):
    """Every string of an encoded document, and every dict below the top."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            strings.append(k)
            if isinstance(v, dict):
                maps.append(v)
            strings_and_maps(v, strings, maps)
    elif isinstance(obj, list):
        for v in obj:
            strings_and_maps(v, strings, maps)
    elif isinstance(obj, str):
        strings.append(obj)


def test_equal_labels_of_one_output_are_one_string(chain_data):
    u = max(chain_data, key=lambda u: sum(map(len, u.carrier.values())))
    strings, maps = [], []
    strings_and_maps(udescent_to_json(u), strings, maps)
    first = {}
    for s in strings:
        if s not in ("carriers", "sigma"):
            assert first.setdefault(s, s) is s
    assert len(first) * 5 < len(strings)


def test_encoded_maps_are_not_aliased(chain_data):
    u = chain_data[-1]
    out, again = udescent_to_json(u), udescent_to_json(u)
    before = json.dumps(out)
    strings, maps = [], []
    strings_and_maps(out, strings, maps)
    leaves = [m for m in maps if not any(isinstance(v, dict) for v in m.values())]
    assert len({id(m) for m in maps}) == len(maps) and len(leaves) > 10
    edited = leaves[0]
    for k in edited:
        edited[k] = "edited"
    edited["new"] = "entry"
    assert all("edited" not in m.values() and "new" not in m for m in leaves[1:])
    assert json.dumps(again) == before
    assert json.dumps(udescent_to_json(u)) == before
