"""Truncated simplicial sets, dualities, nerves."""

import pytest

import toposdescent as td
from conftest import free_dual_edge_sset, free_endo_sset, generated_covers


def test_nerve_of_fixture_counts(fixture_cover):
    nerve, tau = td.cech_nerve(fixture_cover)
    assert len(nerve.s0) == 2
    # products of non-empty sets over a point are never empty
    assert set(nerve.s1) == {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}
    assert len(nerve.s2) == 8
    assert td.validate(nerve) == []
    assert td.validate_duality(nerve, tau) == []


def test_nerve_face_and_degeneracy_values(fixture_cover):
    nerve, tau = td.cech_nerve(fixture_cover)
    w = ("1", "2", "1")
    assert nerve.d(2, 2, w) == ("1", "2")
    assert nerve.d(2, 1, w) == ("1", "1")
    assert nerve.d(2, 0, w) == ("2", "1")
    assert nerve.deg(0, 0, "1") == ("1", "1")
    assert tau.op1(("1", "2")) == ("2", "1")


def test_nerve_on_disconnected_base():
    two = td.FinPoset.from_pairs(("p", "q"))
    u1 = td.Presheaf(two, {"p": ("x",), "q": ()}, {})
    u2 = td.Presheaf(two, {"p": (), "q": ("y",)}, {})
    cover = td.family_from_parts(two, {"1": u1, "2": u2})
    nerve, _ = td.cech_nerve(cover)
    # cross products are initial: only the diagonal pairs survive
    assert set(nerve.s1) == {("1", "1"), ("2", "2")}


def test_nerve_of_singleton_cover(singleton_cover):
    nerve, _ = td.cech_nerve(singleton_cover)
    assert (len(nerve.s0), len(nerve.s1), len(nerve.s2)) == (1, 1, 1)


def test_nerve_requires_nonempty_components(pt):
    total = td.constant_presheaf(("a",), pt)
    zeta = td.PresheafMap(
        total, td.constant_presheaf(("1", "2"), pt), {"pt": {"a": "1"}}
    )
    with pytest.raises(td.EmptyComponentError):
        td.cech_nerve(td.Family(total, ("1", "2"), zeta))


def test_validate_names_broken_identity():
    # redirect the vertex degeneracy at the non-degenerate edge: d2 s0 breaks
    s = free_endo_sset()
    bad = td.TruncSSet(s.s0, s.s1, s.s2, s.face, {**s.degen, (0, 0): {"x": "e"}})
    msgs = td.validate(bad)
    assert msgs and any("s0" in m for m in msgs)


def test_validate_empty_sset():
    empty = td.TruncSSet((), (), (), {k: {} for k in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]}, {k: {} for k in [(0, 0), (1, 0), (1, 1)]})
    assert td.validate(empty) == []


def test_free_fixtures_validate():
    assert td.validate(free_endo_sset()) == []
    sset, tau = free_dual_edge_sset()
    assert td.validate(sset) == []
    assert td.validate_duality(sset, tau) == []


def test_selfdual_groupoid_condition_on_nerves():
    for name, cover in generated_covers():
        nerve, tau = td.cech_nerve(cover)
        assert td.check_selfdual_groupoid_condition(nerve, tau), name


def test_selfdual_groupoid_condition_fails_without_fillers():
    sset, tau = free_dual_edge_sset()
    assert not td.check_selfdual_groupoid_condition(sset, tau)


def test_selfdual_groupoid_condition_degenerate_only(singleton_cover):
    nerve, tau = td.cech_nerve(singleton_cover)
    assert td.check_selfdual_groupoid_condition(nerve, tau)


def test_duality_violations_are_reported():
    sset, tau = free_dual_edge_sset()
    not_involutive = td.StrictDuality(
        tau1={**tau.tau1, "e": "e", "f": "f"}, tau2=dict(tau.tau2)
    )
    msgs = td.validate_duality(sset, not_involutive)
    assert msgs and any("contravariance" in m or "involutive" in m for m in msgs)

    swapped = td.StrictDuality(
        tau1=dict(tau.tau1),
        tau2={**tau.tau2, "se0": "se0", "sf1": "sf1"},
    )
    msgs = td.validate_duality(sset, swapped)
    assert any("d_" in m or "s_" in m for m in msgs)


def test_simplicial_map_validation(fixture_cover, singleton_cover):
    small, _ = td.cech_nerve(singleton_cover)
    big, _ = td.cech_nerve(fixture_cover)
    good = td.SimplicialMap(
        small,
        big,
        {"1": "1"},
        {("1", "1"): ("1", "1")},
        {("1", "1", "1"): ("1", "1", "1")},
    )
    assert td.validate_simplicial_map(good) == []
    bad = td.SimplicialMap(
        small,
        big,
        {"1": "2"},
        {("1", "1"): ("1", "1")},
        {("1", "1", "1"): ("1", "1", "1")},
    )
    assert td.validate_simplicial_map(bad)


def test_contravariant_map_validation():
    sset, tau = free_dual_edge_sset()
    contra = td.ContravariantMap(sset, sset, {i: i for i in sset.s0}, dict(tau.tau1), dict(tau.tau2))
    assert td.validate_contravariant_map(contra) == []
    broken = td.ContravariantMap(
        sset, sset, {i: i for i in sset.s0}, {**tau.tau1, "e": "e"}, dict(tau.tau2)
    )
    assert td.validate_contravariant_map(broken)


def test_nerve_terminal_for_single_index(singleton_cover):
    nerve, _ = td.cech_nerve(singleton_cover)
    assert nerve.s0 == ("1",)
    assert nerve.s1 == (("1", "1"),)
    assert nerve.s2 == (("1", "1", "1"),)


def _point_maps():
    face = {(1, 0): {"l": "x"}, (1, 1): {"l": "x"}}
    face.update({(2, i): {"w": "l"} for i in range(3)})
    degen = {(0, 0): {"x": "l"}, (1, 0): {"l": "w"}, (1, 1): {"l": "w"}}
    return face, degen


def test_repeated_simplex_is_rejected():
    face, degen = _point_maps()
    assert td.validate(td.TruncSSet(("x",), ("l",), ("w",), face, degen)) == []
    with pytest.raises(ValueError, match="level 0 lists a simplex twice"):
        td.TruncSSet(("x", "x"), ("l",), ("w",), face, degen)
    with pytest.raises(ValueError, match="level 2 lists a simplex twice"):
        td.TruncSSet(("x",), ("l",), ("w", "w"), face, degen)


def test_repeated_simplex_in_json_is_rejected():
    from toposdescent.serialize import SerializationError, sset_from_json, sset_to_json

    face, degen = _point_maps()
    doc = sset_to_json(td.TruncSSet(("x",), ("l",), ("w",), face, degen))
    assert sset_from_json(doc)[0].s0 == ("x",)
    doc["S1"].append("l")
    with pytest.raises(SerializationError, match="level 1 lists a simplex twice"):
        sset_from_json(doc)
