"""Extremal profiles, capacities, and the two condition checkers."""
import math

import numpy as np
import pytest

from radialma import (
    CompactTouchesBoundary,
    CONVERGING_TO_POSITIVE,
    CONVERGING_TO_ZERO,
    EmptyCompact,
    FiniteValue,
    Grid1D,
    OutOfDomain,
    RadialMeasure,
    annulus,
    capacity,
    closed_ball,
    condition_level,
    condition_sublevel,
    constant_profile,
    empty_compact,
    extremal,
    extremal_profile,
    log_profile,
    ma_measure,
    make_compact,
    make_profile,
    max_const_profile,
    oracle_capacity,
    power_tail_profile,
    random_compact,
    relaxation_envelope,
    sphere,
)

TWO_PI = 2.0 * math.pi
NEG_INF = float("-inf")


@pytest.mark.parametrize("j", [1, 2, 3, 10, 64, 1000])
def test_ball_capacity_closed_form(j):
    cap = capacity(closed_ball(float(-j)), 0.0, 1)
    assert cap == pytest.approx(TWO_PI / j, rel=1e-12)
    cap2 = capacity(closed_ball(float(-j)), 0.0, 2)
    assert cap2 == pytest.approx((TWO_PI / j) ** 2, rel=1e-12)


def test_ball_extremal_profile_shape():
    # K = ball e^-2 in the unit ball: -1 up to -2, then chord to (0, 0)
    p = extremal_profile(closed_ball(-2.0), 0.0)
    assert p.value(-3.0) == -1.0
    assert p.value(-2.0) == -1.0
    assert p.value(-1.0) == -0.5
    assert p.right_slope(-1.0) == 0.5
    assert p.boundary_limit == 0.0


def test_annulus_matches_ball_with_same_outer_radius():
    assert extremal_profile(annulus(-4.0, -2.0), 0.0) == extremal_profile(
        closed_ball(-2.0), 0.0
    )
    assert capacity(annulus(-4.0, -2.0), 0.0, 3) == capacity(
        closed_ball(-2.0), 0.0, 3
    )


def test_hull_absorbs_inner_components():
    two = make_compact([(-6.0, -5.0), (-3.0, -2.0)])
    assert extremal_profile(two, 0.0) == extremal_profile(annulus(-3.0, -2.0), 0.0)


def test_sphere_capacity_equals_ball_capacity():
    # the envelope fills the hole inside the sphere
    assert capacity(sphere(-2.0), 0.0, 1) == capacity(closed_ball(-2.0), 0.0, 1)


def test_extremal_result_bundle():
    res = extremal(closed_ball(-4.0), 0.0, 2)
    assert res.capacity == res.measure.mass_on(res.compact)
    assert res.capacity == pytest.approx((TWO_PI / 4.0) ** 2, rel=1e-12)
    assert res.profile == extremal_profile(closed_ball(-4.0), 0.0)


def test_degenerate_compacts():
    with pytest.raises(EmptyCompact):
        extremal_profile(empty_compact(), 0.0)
    assert capacity(empty_compact(), 0.0, 1) == 0.0
    with pytest.raises(CompactTouchesBoundary):
        extremal_profile(closed_ball(0.0), 0.0)
    with pytest.raises(CompactTouchesBoundary):
        extremal_profile(closed_ball(0.5), 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda K: capacity(K, math.nan, 1),
        lambda K: extremal(K, math.nan, 1),
        lambda K: oracle_capacity(K, math.nan, 1, h=1e-2),
        lambda K: relaxation_envelope(K, math.nan, Grid1D.from_bounds(-3.0, 0.0, 1e-2)),
    ],
    ids=["capacity", "extremal", "oracle_capacity", "relaxation_envelope"],
)
def test_nan_log_R_is_rejected(call):
    # every comparison with NaN is false, so no boundary check would fire
    with pytest.raises(OutOfDomain, match="log_R is NaN"):
        call(closed_ball(-1.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: capacity(closed_ball(-2.0), 0.0, 0),
        lambda: capacity(empty_compact(), 0.0, 0),
        lambda: condition_sublevel(log_profile(), 0),
        lambda: condition_level(log_profile(), -1),
        lambda: oracle_capacity(closed_ball(-2.0), 0.0, 0, h=1e-2),
    ],
    ids=["capacity", "capacity-empty", "condition_sublevel", "condition_level", "oracle_capacity"],
)
def test_dimension_below_one_is_rejected(call):
    with pytest.raises(ValueError, match=r"dimension n must be >= 1, got (0|-1)$"):
        call()


@pytest.mark.parametrize("n", [1.5, 2.0, True], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda n: capacity(closed_ball(-1.0), 0.0, n),
        lambda n: capacity(empty_compact(), 0.0, n),
        lambda n: condition_sublevel(log_profile(), n),
        lambda n: condition_level(log_profile(), n),
        lambda n: ma_measure(log_profile(), n),
        lambda n: RadialMeasure(n, 0.0, ()),
        lambda n: oracle_capacity(closed_ball(-1.0), 0.0, n, h=1e-2),
    ],
    ids=[
        "capacity", "capacity-empty", "condition_sublevel", "condition_level",
        "ma_measure", "RadialMeasure", "oracle_capacity",
    ],
)
def test_dimension_must_be_an_integer(call, n):
    # (2*pi)^1.5 is a number, so a float dimension would pass unnoticed
    with pytest.raises(ValueError, match=rf"dimension n must be an integer, got {n!r}$"):
        call(n)


@pytest.mark.parametrize("seed", range(25))
def test_extremal_profile_is_admissible(seed):
    rng = np.random.default_rng(12_000 + seed)
    K = random_compact(rng, 0.0)
    p = extremal_profile(K, 0.0)
    ts = np.linspace(-12.0, -1e-9, 400)
    for t in ts:
        v = p.value(float(t))
        assert -1.0 <= v <= 0.0
    for a, b in K.intervals:
        lo = b - 1.0 if a == NEG_INF else a
        for t in np.linspace(lo, b, 20):
            assert p.value(float(t)) == -1.0
    assert capacity(K, 0.0, 1) == extremal(K, 0.0, 1).measure.mass_on(K)


@pytest.mark.parametrize("seed", range(15))
def test_capacity_monotone_in_the_compact(seed):
    rng = np.random.default_rng(13_000 + seed)
    K = random_compact(rng, 0.0)
    pad = float(rng.uniform(0.05, 0.5))
    bigger = make_compact(
        [
            (a - pad if a > NEG_INF else a, min(b + pad, -1e-3))
            for a, b in K.intervals
        ]
    )
    assert K.subset_of(bigger)
    for n in (1, 2):
        assert capacity(K, 0.0, n) <= capacity(bigger, 0.0, n) + 1e-15


def test_hull_idempotence():
    # rebuilding from the extremal's own -1 level reproduces the hull
    K = make_compact([(-7.0, -6.0), (-4.0, -2.5)])
    p = extremal_profile(K, 0.0)
    K2 = p.level_set(-1.0)
    assert extremal_profile(K2, 0.0) == p


def test_condition_sublevel_log_is_positive():
    s = condition_sublevel(log_profile(), 1)
    assert s.flag == CONVERGING_TO_POSITIVE
    assert all(v == TWO_PI for v in s.values)


def test_condition_sublevel_power_tail_decays():
    # {u <= -j} is a ball of log-radius about -j^2: j * 2pi/j^2 -> 0
    s = condition_sublevel(power_tail_profile(0.5), 1)
    assert s.flag == CONVERGING_TO_ZERO
    js = s.indices
    for j, v in zip(js, s.values):
        if j >= 4:
            assert v == pytest.approx(TWO_PI / j, rel=0.2)


def test_condition_sublevel_bounded_profile_is_zero():
    s = condition_sublevel(max_const_profile(0.0, 1.0), 1)
    assert s.flag == CONVERGING_TO_ZERO
    assert all(v == 0.0 for v in s.values)


def test_condition_level_log_is_positive():
    # the sphere {u = -j} has the capacity of the filled ball
    s = condition_level(log_profile(), 1)
    assert s.flag == CONVERGING_TO_POSITIVE
    assert all(v == TWO_PI for v in s.values)


def test_condition_level_bounded_profile_is_zero():
    s = condition_level(max_const_profile(0.0, 1.0), 1)
    assert all(v == 0.0 for v in s.values)
    assert s.flag == CONVERGING_TO_ZERO


def test_condition_level_power_tail_n2():
    s = condition_level(power_tail_profile(0.5), 2)
    assert s.flag == CONVERGING_TO_ZERO
    for j, v in zip(s.indices, s.values):
        if j >= 8:
            assert v == pytest.approx((TWO_PI / j) ** 2, rel=0.5)


def test_condition_handles_boundary_filling_sublevels():
    # a constant profile's sublevels cover the whole ball for small j;
    # those entries are infinite and get dropped from the flag decision
    s = condition_sublevel(constant_profile(-5.0), 1)
    assert s.flag == CONVERGING_TO_ZERO
    assert s.metadata["dropped_infinite"] == 3


@pytest.mark.parametrize(
    "schedule, got",
    [((0, 1, 2), "0.0"), ((-1, 1, 2), "-1.0"), ((1, math.nan, 4), "nan")],
    ids=["zero", "negative", "nan"],
)
@pytest.mark.parametrize(
    "series", [condition_sublevel, condition_level], ids=["sublevel", "level"]
)
@pytest.mark.parametrize(
    "profile",
    [log_profile(), make_profile([(-1.0, -1.0)], FiniteValue(-1.0), final_slope=0.0)],
    ids=["log", "flat-last-segment"],
)
def test_condition_series_reject_levels_that_are_not_positive(profile, series, schedule, got):
    # j = 0 used to give the entry (0, inf) or (0, 0.0), and NaN a stray
    # ZeroDivisionError or an interval error naming no level
    with pytest.raises(ValueError, match=rf"^truncation level j must be positive, got {got}$"):
        series(profile, 1, schedule)


@pytest.mark.parametrize(
    "series", [condition_sublevel, condition_level], ids=["sublevel", "level"]
)
def test_condition_series_name_a_level_of_minus_infinity(series):
    # j = inf puts the level at -inf, where the log profile leaves only
    # the origin; the error names that level, as sublevel's does
    with pytest.raises(ValueError, match=r"^level s=-inf leaves only the origin"):
        series(log_profile(), 1, (1, 2, math.inf))
    # a bounded profile's set at -inf is empty, so its entry stays 0.0
    s = series(max_const_profile(-1.0), 1, (1, 2, math.inf))
    assert s.entries[-1] == (math.inf, 0.0)
