"""Placed maps: a refinement's maps out of H2 and into it, held by position.

``hypercover._build_refinement`` writes d0, d1, d2, zeta_2 and tau_2 out of
H2, and s0 and s1 from H1 into H2, as placed maps
(``PresheafMap._placed``), and the family validators and the coverage check
read every map through ``simplicial._places_at``.  On each built family,
``validate_selfdual``, ``condition_g`` and ``is_hypercover`` must say the
same as on a copy whose maps are plain ``comp`` dicts, also after two
places of one placed map are swapped (and the same two values in the
copy).  The checks of a zero-span job build no ``comp`` of a placed map,
and the job's memory peak stays under a bound that the builder with
dicts keyed by H2 elements exceeds.  ``tests/test_canonical_values.py``
checks the ``comp`` dicts built on first read, key for key.
"""

import importlib
import tracemalloc
from pathlib import Path

import pytest

import toposdescent as td
from toposdescent.fintopos import PresheafMap
from conftest import generated_covers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GENERATED = dict(generated_covers())
ZERO_SPAN = ("point-3x1", "chain-two-reps", "point-1x2")
PLACED = (
    ("face", (2, 0)),
    ("face", (2, 1)),
    ("face", (2, 2)),
    ("degen", (1, 0)),
    ("degen", (1, 1)),
    ("zeta", 2),
    ("tau2", None),
)


@pytest.fixture(scope="module")
def corpus(request):
    """The perfbench corpus at seeds 0 and 1, read without changing it."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    request.addfinalizer(mp.undo)
    return {seed: workloads.Corpus(seed) for seed in (0, 1)}


def zero_span(name):
    cover = GENERATED[name]
    return cover, td.zero_span_refinement(cover, td.SpanClass(tuple(td.family_components(cover).values())))


def get(sf, which, key):
    if which == "tau2":
        return sf.tau2
    f = sf.base
    return {"face": f.face, "degen": f.degen, "zeta": f.zeta}[which][key]


def rebuilt(sf, convert):
    """``sf`` with every map replaced by ``convert(which, key, map)``."""
    f = sf.base
    face = {k: convert("face", k, m) for k, m in f.face.items()}
    degen = {k: convert("degen", k, m) for k, m in f.degen.items()}
    zeta = tuple(convert("zeta", n, z) for n, z in enumerate(f.zeta))
    base = td.SimplicialFamily(f.h0, f.h1, f.h2, face, degen, f.sset, zeta)
    return td.SelfDualFamily(base, sf.tau_s, convert("tau1", None, sf.tau1), convert("tau2", None, sf.tau2))


def plain(m):
    return PresheafMap._trusted(m.dom, m.cod, {p: dict(c) for p, c in m.comp.items()})


def verdicts(sf, cover):
    """What the three checks say, an error standing for its message."""

    def said(fn):
        try:
            return fn()
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    return (
        said(lambda: td.validate_selfdual(sf)),
        said(lambda: td.condition_g(sf)),
        said(lambda: td.is_hypercover(sf.base, cover)),
    )


def assert_plain_copy_agrees(sf, cover):
    assert all(get(sf, which, key)._places is not None for which, key in PLACED)
    copy = rebuilt(sf, lambda which, key, m: plain(m))
    assert all(get(copy, which, key)._places is None for which, key in PLACED)
    assert verdicts(sf, cover) == verdicts(copy, cover)


def built_families(corpus):
    for name, cover in GENERATED.items():
        yield f"generated/{name}", cover, td.connected_refinement(cover)
    for seed, c in corpus.items():
        for name in GENERATED:
            cover = c.cover(name)[0]
            yield f"seed{seed}/{name}", cover, td.connected_refinement(cover)
    for name in ZERO_SPAN:
        yield (f"zero/{name}", *zero_span(name))


def test_every_built_family_reads_as_its_plain_copy(corpus):
    seen = 0
    for _, cover, sf in built_families(corpus):
        assert_plain_copy_agrees(sf, cover)
        seen += 1
    assert seen == 3 * len(GENERATED) + len(ZERO_SPAN)


def swapped(m, p, i, j):
    """``m`` with the places at ``i`` and ``j`` of the point ``p`` swapped."""
    places = {q: list(ks) for q, ks in m._places.items()}
    places[p][i], places[p][j] = places[p][j], places[p][i]
    return PresheafMap._placed(m.dom, m.cod, {q: tuple(ks) for q, ks in places.items()})


def swapped_plain(m, p, i, j):
    """The plain copy of ``m`` with the values at the ``i``-th and ``j``-th
    elements of the point ``p`` swapped."""
    comp = {q: dict(c) for q, c in m.comp.items()}
    a, b = m.dom.fibers[p][i], m.dom.fibers[p][j]
    comp[p][a], comp[p][b] = comp[p][b], comp[p][a]
    return PresheafMap._trusted(m.dom, m.cod, comp)


@pytest.mark.parametrize("name", ["point-1x2", "chain-two-reps", "zero/point-3x1"])
@pytest.mark.parametrize("which, key", PLACED, ids=[f"{w}{k or ''}" for w, k in PLACED])
def test_a_swap_of_two_places_reads_as_the_same_swap_of_values(name, which, key):
    if name.startswith("zero/"):
        cover, sf = zero_span(name[5:])
    else:
        cover = GENERATED[name]
        sf = td.connected_refinement(cover)
    m = get(sf, which, key)
    # the first point and the first two places there with unequal values
    p = next(p for p in m.dom.base.points if len(set(m._places[p])) > 1)
    ks = m._places[p]
    i, j = 0, next(j for j, k in enumerate(ks) if k != ks[0])
    bad = rebuilt(sf, lambda w, k, x: swapped(x, p, i, j) if (w, k) == (which, key) else x)
    copy = rebuilt(sf, lambda w, k, x: swapped_plain(x, p, i, j) if (w, k) == (which, key) else plain(x))
    assert get(bad, which, key)._places is not None and get(copy, which, key)._places is None
    said = verdicts(bad, cover)
    assert said == verdicts(copy, cover)
    assert said != verdicts(sf, cover)


def test_the_checks_of_a_zero_span_job_build_no_comp():
    cover, sf = zero_span("point-1x2")
    assert td.validate_selfdual(sf) == []
    assert td.condition_g(sf)
    assert td.is_hypercover(sf.base, cover)
    for which, key in PLACED:
        assert "comp" not in vars(get(sf, which, key)), (which, key)
    # read once, it is built and kept
    assert sf.tau2.comp is sf.tau2.comp


# The builder with five dicts keyed by H2 elements peaked at 37.3 MB here;
# with placed maps it peaks at 28.5 MB (Python 3.11).
PEAK_BOUND_MB = 32


def test_the_zero_span_fixture_job_peaks_under_the_bound():
    cover = GENERATED["point-1x2"]
    cls = td.SpanClass(tuple(td.family_components(cover).values()))
    tracemalloc.start()
    try:
        sf = td.zero_span_refinement(cover, cls)
        assert td.validate_selfdual(sf) == []
        assert td.is_hypercover(sf.base, cover)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < PEAK_BOUND_MB
