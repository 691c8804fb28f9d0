"""Correspondences of the paper on random small covers.

Over the connected refinement of a cover (a hypercover refinement), family
descent data and cover descent data determine each other, so the two
enumerations have the same size; and the consistent index data match the
actions of the refined fundamental groupoid (``main2_equivalence``).
Gluing a cover datum and reading it back off the trivializations gives the
datum, and the glued object is a covering projection.  The connected
class meets the epi criteria and its refinement is a hypercover; on the
smallest covers, the criteria for the component class make its zero-span
refinement a hypercover.  The covers come
from ``conftest.small_covers``; the profile is derandomized, so every run
draws the same examples.
"""

from hypothesis import HealthCheck, given, settings

import toposdescent as td
from conftest import small_covers

GATE = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@GATE
@given(small_covers())
def test_u_data_and_h_data_have_the_same_size(cover):
    ref = td.connected_refinement(cover)
    assert td.is_hypercover(ref.base, cover)
    assert len(td.enumerate_u_descent_data(cover, 2)) == len(td.enumerate_h_descent_data(ref, 2))


@GATE
@given(small_covers())
def test_consistent_data_match_the_refined_actions(cover):
    rep = td.main2_equivalence(cover, td.connected_refinement(cover), 2)
    assert rep.ok


@GATE
@given(small_covers())
def test_glue_then_extract_gives_the_datum_back(cover):
    for u in td.enumerate_u_descent_data(cover, 2):
        back = td.extract_descent(td.glue(cover, u))
        assert back.carrier == u.carrier
        assert back.sigma == u.sigma
        assert td.is_covering_projection(cover, u)


@GATE
@given(small_covers())
def test_connected_class_meets_the_epi_criteria(cover):
    comps = td.family_components(cover)
    ident = [
        td.ClassSpan(i, i, comps[i], td.PresheafMap.identity(comps[i]), td.PresheafMap.identity(comps[i]))
        for i in sorted(comps)
    ]
    assert td.check_epi_criteria(cover, td.SpanClassSp(tuple(ident + td.representable_spans(cover))))
    assert td.is_hypercover(td.connected_refinement(cover).base, cover)


# The zero-span refinement of a larger cover runs to thousands of
# 2-simplices, so this property is checked on covers of at most 2 elements;
# one component of 2 elements over a point already gives 9,216, so it draws
# fewer covers to stay near a second and a half.
@settings(GATE, max_examples=60)
@given(small_covers())
def test_epi_criteria_make_the_zero_span_refinement_a_hypercover(cover):
    if cover.total.size() > 2:
        return
    comps = td.family_components(cover)
    cls = td.SpanClass(tuple(comps[i] for i in sorted(comps)))
    if td.check_epi_criteria(cover, cls):
        assert td.is_hypercover(td.zero_span_refinement(cover, cls).base, cover)
