"""Two correspondences of the paper on random small covers.

Over the connected refinement of a cover (a hypercover refinement), family
descent data and cover descent data determine each other, so the two
enumerations have the same size; and the consistent index data match the
actions of the refined fundamental groupoid (``main2_equivalence``).  The
covers come from ``conftest.small_covers``; the profile is derandomized, so
every run draws the same examples.
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
