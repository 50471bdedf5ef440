"""The compact-free condition series and the pruned maximality pairings
against the loops they replaced.

``condition_sublevel`` and ``condition_level`` read each set's sup from
the profile's private bounds helpers and compute the capacity from it,
with no compact and no ``capacity`` call per level.  The reference here
is the loop as it was: build the set at level -j, record inf where it
reaches the boundary and 0.0 where it is empty, else j**n times its
capacity.  ``maximality_check`` evaluates each test function only on the
atoms inside its open support; the edge cases of that pruning (support
ends exactly on an atom, a nonzero origin value, no atom covered, a test
function on a smaller ball) are pinned to the unpruned reference of
``test_ladder_reference.py``.  Entries, flags and metadata must match
bit for bit, and an input that raised must raise the same error.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    MinusInfinity,
    capacity,
    condition_level,
    condition_sublevel,
    hat,
    log_profile,
    make_profile,
    maximality_check,
    plateau,
)
from radialma.measures import _knot_atoms, _truncation_ladder
from test_ladder_reference import (
    HARNESS_SCHEDULES,
    LADDER_SCHEDULES,
    outcome,
    reference_build_series,
    reference_maximality_check,
)
from test_nonpolar_properties import fixed_profiles, profiles

CONDITIONS = {
    "sublevel": (condition_sublevel, lambda p: p.sublevel),
    "level": (condition_level, lambda p: p.level_set),
}


# -- the condition series -----------------------------------------------


def reference_condition_series(profile, n, set_at_level, schedule):
    """j**n * capacity(set_at_level(-j)), inf where the set touches the
    boundary and 0.0 where it is empty, as the loop was."""
    entries = []
    touched = 0
    for j in schedule:
        K = set_at_level(float(-j))
        if K.is_empty:
            entries.append((j, 0.0))
        elif K.sup >= profile.log_R:
            entries.append((j, math.inf))
            touched += 1
        else:
            entries.append((j, float(j) ** n * capacity(K, profile.log_R, n)))
    return reference_build_series(
        "j", entries, extra_metadata={"boundary_touching_entries": touched, "n": n}
    )


def condition_outcomes(p, n, schedule, which):
    series, set_at = CONDITIONS[which]
    got = outcome(lambda: series(p, n, schedule).to_json_dict())
    want = outcome(
        lambda: reference_condition_series(p, n, set_at(p), schedule).to_json_dict()
    )
    return got, want


@settings(max_examples=150, deadline=None)
@given(
    p=profiles(),
    n=st.integers(1, 3),
    schedule=st.sampled_from(LADDER_SCHEDULES),
    which=st.sampled_from(sorted(CONDITIONS)),
)
def test_condition_series_match_the_compact_loop(p, n, schedule, which):
    got, want = condition_outcomes(p, n, schedule, which)
    assert got == want


@pytest.mark.parametrize("which", sorted(CONDITIONS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_condition_series_match_the_compact_loop_on_the_families(n, which):
    for p in fixed_profiles():
        for schedule in LADDER_SCHEDULES:
            got, want = condition_outcomes(p, n, schedule, which)
            assert got == want, (p, schedule)


def test_a_level_of_minus_infinity_raises_as_the_compact_did():
    # {u <= -inf} is the origin alone, which no compact holds
    got, want = condition_outcomes(log_profile(), 1, (1, 2, math.inf), "sublevel")
    assert got == want and got[:2] == ("raised", "ValueError")


@pytest.mark.parametrize("which", sorted(CONDITIONS))
def test_a_nan_log_R_is_rejected_before_either_series(which):
    # the profile itself refuses a NaN log_R, so no series reaches one
    series, _ = CONDITIONS[which]
    with pytest.raises(ValueError, match="log_R must not be NaN"):
        series(
            make_profile([(-1.0, -1.0)], MinusInfinity(1.0), final_slope=2.0, log_R=math.nan),
            2,
            (1, 2, 4),
        )


# -- the pruned maximality pairings -------------------------------------


def edge_battery(p, n, schedule):
    """Test functions whose support ends sit on the knot atoms and the
    release points of the schedule's levels, plateaus (origin value 1)
    ending on each of them, hats ending just right of each release
    point, and hats that cover no atom."""
    positions, _ = _knot_atoms(p, n)
    releases = [r[0] for *_, r, _ in _truncation_ladder(p, n, schedule) if r is not None]
    pts = sorted(set(positions) | set(releases))
    log_R = p.log_R
    phis = []

    def add(make, *args):
        phis.append(make(*args, log_R=log_R, label=f"{make.__name__}{len(phis)}"))

    for a, b in zip(pts, pts[1:]):
        if a < 0.5 * (a + b) < b:
            add(hat, a, 0.5 * (a + b), b)  # ends on two neighbouring points
            w = 0.25 * (b - a)
            if a < a + w < 0.5 * (a + b) < b - w < b:
                add(hat, a + w, 0.5 * (a + b), b - w)  # strictly between them
    for a, m, b in zip(pts, pts[1:], pts[2:]):
        add(hat, a, m, b)  # an atom at the peak
    for b in pts:
        add(plateau, b - 1.0, b)
    for r in sorted(set(releases)):
        b = r + 2.0**-32  # within 1e-9 right of the release point
        if r < b < log_R:
            add(hat, r - 1.0, r - 0.5, b)
    first = pts[0] if pts else log_R - 1.0
    add(hat, first - 3.0, first - 2.0, first - 1.0)  # left of every atom
    add(plateau, first - 2.0, first - 1.0)
    return tuple(phis)


def maximality_outcomes(p, n, schedule, phis):
    got = outcome(lambda: maximality_check(p, n, phis=phis, schedule=schedule).to_json_dict())
    want = outcome(lambda: reference_maximality_check(p, n, schedule, phis).to_json_dict())
    return got, want


@settings(max_examples=40, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), schedule=st.sampled_from(HARNESS_SCHEDULES))
def test_pruned_pairings_match_on_support_ends(p, n, schedule):
    got, want = maximality_outcomes(p, n, schedule, edge_battery(p, n, schedule))
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_pairings_match_on_support_ends_on_the_families(n):
    for p in fixed_profiles():
        for schedule in HARNESS_SCHEDULES:
            got, want = maximality_outcomes(p, n, schedule, edge_battery(p, n, schedule))
            assert got == want, (p, schedule)


def test_an_origin_value_on_a_profile_with_an_origin_atom():
    p = make_profile([(-3.0, -3.0), (-1.0, -1.5)], MinusInfinity(0.5), final_slope=2.0)
    assert p.left_value == -math.inf and _knot_atoms(p, 2)[0] == (-3.0, -1.0)
    phis = (plateau(-2.0, -1.0, label="over"), plateau(-4.0, -3.0, label="on"))
    for schedule in HARNESS_SCHEDULES + ((1, 2, math.inf),):
        got, want = maximality_outcomes(p, 2, schedule, phis)
        assert got == want, schedule
    got, _ = maximality_outcomes(p, 2, (1, 2, 4), phis)
    assert got[0] == "ok"


def test_a_test_function_on_a_smaller_ball_raises_as_before():
    # the atom at -0.25 lies beyond the ball of phi, whose pruned
    # support does not reach it
    p = make_profile([(-2.0, -2.0), (-0.25, -1.0)], MinusInfinity(0.5), final_slope=4.0)
    phis = (hat(-2.0, -1.5, -1.0, log_R=-0.5, label="small"),)
    got, want = maximality_outcomes(p, 1, (1, 2, 4), phis)
    assert got == want and got[:2] == ("raised", "OutOfDomain")
