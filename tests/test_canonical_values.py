"""The refinement builder writes every map value as the codomain's own object.

``hypercover._build_refinement`` reads each value of a face, degeneracy,
zeta or tau map off its place in the codomain: an enumerated simplex label
or the element of H0, H1 or H2 already listed there, never an equal tuple
built again.  ``oracle_build`` is the builder as it was before: it builds
every value afresh, with a per-element loop over H2 and the ``op2`` and
``degen1`` label builders.  The built family must equal the oracle's, with
the same keys in the same order, and every value must be the codomain's
object itself (``is``), on the connected refinements of the generated
covers, the zero-span refinement of ``point-1x2`` and random small covers.
"""

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given

import toposdescent as td
from toposdescent import hypercover
from toposdescent.errors import ClosureError, InvariantError
from toposdescent.family import ClassSpan, SelfDualFamily, SimplicialFamily
from toposdescent.fintopos import (
    PresheafMap,
    _constant,
    _coproduct,
    family_components,
    sorted_labels,
)
from toposdescent.hypercover import _by_pair, _hom_lists, _two_simplices
from toposdescent.simplicial import StrictDuality, TruncSSet
from conftest import generated_covers, small_covers
from test_random_covers import GATE

COVERS = dict(generated_covers())


def oracle_build(cover, spans, vertices):
    """The refinement built with a fresh tuple for every map value."""
    comps = family_components(cover)
    base = cover.total.base
    vkeys = {v.key(): ci for ci, v in enumerate(vertices)}
    hom_list = _hom_lists(vertices)

    span_label, record = {}, {}
    for s in spans:
        ci = vkeys[s.vertex.key()]
        _, uord = hom_list(ci, ("comp", s.i), comps[s.i])
        _, vord = hom_list(ci, ("comp", s.j), comps[s.j])
        lab = ("sp", s.i, s.j, ci, uord[s.left.key()], vord[s.right.key()])
        span_label[s.data_key()] = lab
        record[lab] = (s, ci)
    s1 = sorted_labels(record)

    ident_lab = {}
    for i, u in comps.items():
        ident = ClassSpan(i, i, u, PresheafMap.identity(u), PresheafMap.identity(u))
        if ident.data_key() not in span_label:
            raise ClosureError(f"identity span at {i!r} missing from the class")
        ident_lab[i] = span_label[ident.data_key()]

    by_pair = _by_pair(s1, lambda lab: (record[lab][0].i, record[lab][0].j))
    s2_faces = {}
    span = {lab: s for lab, (s, _) in record.items()}
    for ends, maps in _two_simplices(by_pair, cover.index, span.__getitem__, vertices, hom_list):
        for ci_w, (xo, mx), (yo, my), (zo, mz) in maps:
            s2_faces[("sp2", *ends, ci_w, xo, yo, zo)] = (ends, ci_w, (mx, my, mz))
    s2 = tuple(s2_faces)

    face = {
        (1, 0): {lab: lab[2] for lab in s1},
        (1, 1): {lab: lab[1] for lab in s1},
        (2, 0): {w: ends[2] for w, (ends, _, _) in s2_faces.items()},
        (2, 1): {w: ends[1] for w, (ends, _, _) in s2_faces.items()},
        (2, 2): {w: ends[0] for w, (ends, _, _) in s2_faces.items()},
    }

    def degen1(lab, which):
        s, ci = record[lab]
        _, idords = hom_list(ci, ("vtx", s.vertex.key()), s.vertex)
        idord = idords[PresheafMap.identity(s.vertex).key()]
        if which == 0:
            return ("sp2", ident_lab[s.i], lab, lab, ci, lab[4], idord, idord)
        return ("sp2", lab, lab, ident_lab[s.j], ci, idord, idord, lab[5])

    degen = {
        (0, 0): {i: ident_lab[i] for i in cover.index},
        (1, 0): {lab: degen1(lab, 0) for lab in s1},
        (1, 1): {lab: degen1(lab, 1) for lab in s1},
    }
    for m in itertools.chain(degen[(1, 0)].values(), degen[(1, 1)].values()):
        if m not in s2_faces:
            raise InvariantError(m)
    sset = TruncSSet._trusted(cover.index, s1, s2, face, degen)

    op1 = {lab: ("sp", lab[2], lab[1], lab[3], lab[5], lab[4]) for lab in s1}
    for lab in s1:
        if op1[lab] not in record:
            raise InvariantError(lab)

    def op2(w):
        _, llab, tlab, rlab, ci, xo, yo, zo = w
        return ("sp2", op1[rlab], op1[tlab], op1[llab], ci, zo, yo, xo)

    tau_s = StrictDuality(tau1=op1, tau2={w: op2(w) for w in s2})
    for w in s2:
        if tau_s.tau2[w] not in s2_faces:
            raise InvariantError(w)

    h0 = cover.total
    h1 = _coproduct([record[lab][0].vertex for lab in sset.s1], sset.s1)
    if sset.s2:
        h2 = _coproduct([vertices[ci] for _, ci, _ in s2_faces.values()], sset.s2)
    else:
        h2 = _constant((), base)

    def tagmap(dom, cod, f):
        return PresheafMap._trusted(
            dom, cod, {p: {e: f(p, e) for e in dom.fibers[p]} for p in base.points}
        )

    hface = {
        (1, 0): tagmap(h1, h0, lambda p, e: record[e[0]][0].right.apply(p, e[1])),
        (1, 1): tagmap(h1, h0, lambda p, e: record[e[0]][0].left.apply(p, e[1])),
    }
    hdegen = {
        (0, 0): tagmap(h0, h1, lambda p, e: (ident_lab[cover.zeta(p, e)], e)),
        (1, 0): tagmap(h1, h2, lambda p, e: (degen[(1, 0)][e[0]], e[1])),
        (1, 1): tagmap(h1, h2, lambda p, e: (degen[(1, 1)][e[0]], e[1])),
    }
    d0, d1, d2, z2, t2 = ({p: {} for p in base.points} for _ in range(5))
    for p in base.points:
        elems = iter(h2.fibers[p])
        for w, ((llab, tlab, rlab), ci, (mx, my, mz)) in s2_faces.items():
            wop = tau_s.tau2[w]
            cx, cy, cz = mx.comp[p], my.comp[p], mz.comp[p]
            for e in itertools.islice(elems, len(vertices[ci].fibers[p])):
                x = e[1]
                d0[p][e] = (rlab, cz[x])
                d1[p][e] = (tlab, cy[x])
                d2[p][e] = (llab, cx[x])
                z2[p][e] = w
                t2[p][e] = (wop, x)
    for k, comp in enumerate((d0, d1, d2)):
        hface[(2, k)] = PresheafMap._trusted(h2, h1, comp)
    zeta = (
        cover.struct_map,
        tagmap(h1, _constant(sset.s1, base), lambda p, e: e[0]),
        PresheafMap._trusted(h2, _constant(sset.s2, base), z2),
    )
    fam = SimplicialFamily(h0, h1, h2, hface, hdegen, sset, zeta)
    tau1 = tagmap(h1, h1, lambda p, e: (tau_s.tau1[e[0]], e[1]))
    return SelfDualFamily(fam, tau_s, tau1, PresheafMap._trusted(h2, h2, t2))


@contextmanager
def builder_inputs():
    """Records the arguments of each ``_build_refinement`` call made inside."""
    calls = []
    real = hypercover._build_refinement

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypercover, "_build_refinement", spy)
        yield calls


def built_and_oracle(make):
    with builder_inputs() as calls:
        ref = make()
    ((cover, spans, vertices, _),) = calls
    return ref, oracle_build(cover, spans, vertices)


def level_maps(ref):
    """``(name, map)`` for every face, degeneracy, zeta and tau map of the
    levels; the structure map of the cover is passed through as given."""
    f = ref.base
    yield from ((f"face {k}", m) for k, m in f.face.items())
    yield from ((f"degen {k}", m) for k, m in f.degen.items())
    yield from ((f"zeta {n}", f.zeta[n]) for n in (1, 2))
    yield from (("tau1", ref.tau1), ("tau2", ref.tau2))


def index_maps(ref):
    """``(name, map, codomain level)`` for every map of the index and its
    duality."""
    s = ref.base.sset
    yield from ((f"face {n, i}", m, s.level(n - 1)) for (n, i), m in s.face.items())
    yield from ((f"degen {n, i}", m, s.level(n + 1)) for (n, i), m in s.degen.items())
    yield from (("tau_s 1", ref.tau_s.tau1, s.s1), ("tau_s 2", ref.tau_s.tau2, s.s2))


def assert_shared(values, level, name):
    """Each value is the object that ``level`` lists at its place."""
    own = dict(zip(level, level))
    for v in values:
        assert v is own[v], f"{name}: {v!r} is a copy"


def check(ref, oracle):
    assert ref == oracle
    oracle_maps = dict(level_maps(oracle))
    for name, m in level_maps(ref):
        o = oracle_maps[name]
        assert list(m.comp) == list(o.comp), name
        for p, comp in m.comp.items():
            assert list(comp) == list(o.comp[p]), name
            assert_shared(comp.values(), m.cod.fibers[p], f"{name} at {p!r}")
    oracle_maps = {name: m for name, m, _ in index_maps(oracle)}
    for name, m, level in index_maps(ref):
        assert list(m) == list(oracle_maps[name]), name
        assert_shared(m.values(), level, name)


@pytest.mark.parametrize("name", sorted(COVERS))
def test_connected_refinements_share_their_values(name):
    check(*built_and_oracle(lambda: td.connected_refinement(COVERS[name])))


def test_zero_span_fixture_shares_its_values():
    cover = COVERS["point-1x2"]
    comps = td.family_components(cover)
    cls = td.SpanClass((comps["1"], comps["2"]))
    ref, oracle = built_and_oracle(lambda: td.zero_span_refinement(cover, cls))
    assert len(ref.base.sset.s2) == 29_920 and ref.base.h2.size() == 50_831
    check(ref, oracle)


@GATE
@given(small_covers())
def test_random_connected_refinements_share_their_values(cover):
    check(*built_and_oracle(lambda: td.connected_refinement(cover)))


def test_a_value_built_again_is_caught():
    # the check itself: an equal copy of one value is reported
    ref = td.connected_refinement(COVERS["point-1x1"])
    comp = ref.tau2.comp["pt"]
    e = next(iter(comp))
    comp[e] = tuple(list(comp[e]))
    with pytest.raises(AssertionError, match="tau2 at 'pt'"):
        check(ref, ref)
