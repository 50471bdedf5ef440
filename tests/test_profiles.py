"""Profile calculus: construction, evaluation, truncation, level sets."""
import json
import math

import numpy as np
import pytest

from radialma import (
    ConvexityViolation,
    ConvexProfile,
    FiniteValue,
    MinusInfinity,
    MonotonicityViolation,
    NotConvexOnGrid,
    OutOfDomain,
    PowerTail,
    RadialCompact,
    UnorderedBreakpoints,
    annulus,
    closed_ball,
    constant_profile,
    counterexample_sequence,
    linear_cap_profile,
    log_profile,
    make_compact,
    make_profile,
    max_const_profile,
    power_tail_profile,
    random_profile,
    sample_analytic,
    sphere,
)
from radialma import families

NEG_INF = float("-inf")


def test_log_profile_is_the_identity():
    p = make_profile([(0.0, 0.0)], MinusInfinity(1.0), log_R=1.0)
    assert p.value(-3.0) == -3.0
    assert p.value(0.5) == 0.5
    assert p.value(NEG_INF) == NEG_INF


def test_max_const_profile_evaluation():
    # u = max(log||z||, 0) on the ball of radius e
    p = max_const_profile(0.0, 1.0)
    assert p.value(-5.0) == 0.0
    assert p.value(NEG_INF) == 0.0
    assert p.value(0.5) == 0.5
    assert p.right_slope(-0.5) == 0.0
    assert p.right_slope(0.0) == 1.0


def test_constructor_rejects_bad_input():
    with pytest.raises(UnorderedBreakpoints):
        make_profile([(-1.0, 0.0), (-2.0, 1.0)], FiniteValue(0.0))
    with pytest.raises(MonotonicityViolation):
        make_profile([(-2.0, 0.0), (-1.0, -1.0)], FiniteValue(0.0))
    with pytest.raises(ConvexityViolation):
        make_profile(
            [(-3.0, -3.0), (-2.0, -1.0), (-1.0, -0.9)], FiniteValue(-3.0)
        )
    # asymptotic slope must stay below the first chord slope
    with pytest.raises(ConvexityViolation):
        make_profile([(-1.0, -1.0)], MinusInfinity(2.0), final_slope=1.0)
    with pytest.raises(ValueError):
        make_profile([(1.0, 1.0)], MinusInfinity(1.0), log_R=0.0)


def test_final_slope_must_be_finite():
    # a NaN slope passes every ordering comparison, so it needs its own check
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(MonotonicityViolation, match="final slope"):
            make_profile([(-1.0, -1.0)], FiniteValue(-1.0), final_slope=s)
        with pytest.raises(MonotonicityViolation, match="final slope"):
            make_profile([(-2.0, -2.0), (-1.0, -1.0)], MinusInfinity(1.0), final_slope=s)


def test_log_R_must_not_be_nan():
    # every knot passes t >= log_R as false against NaN
    with pytest.raises(ValueError, match="log_R must not be NaN"):
        make_profile([(-1.0, -1.0)], MinusInfinity(1.0), final_slope=2.0, log_R=math.nan)
    data = log_profile().to_json_dict()
    data["log_R"] = math.nan
    with pytest.raises(ValueError, match="log_R must not be NaN"):
        ConvexProfile.from_json_dict(data)


def test_log_R_must_be_finite():
    # sublevel(1.0) would divide by the final slope 0 on the way to an
    # edge at +inf: a bare ZeroDivisionError
    with pytest.raises(ValueError, match="^log_R must be finite$"):
        make_profile([(-1.0, 0.0)], FiniteValue(0.0), 0.0, math.inf)
    data = log_profile().to_json_dict()
    data["log_R"] = math.inf
    with pytest.raises(ValueError, match="^log_R must be finite$"):
        ConvexProfile.from_json_dict(data)


def test_breakpoints_must_lie_below_boundary():
    with pytest.raises(OutOfDomain):
        log_profile().value(0.0)
    with pytest.raises(OutOfDomain):
        log_profile().right_slope(1.0)


def test_nan_is_out_of_domain():
    for p in (log_profile(), log_profile().truncate(2.0), max_const_profile(0.0, 1.0)):
        with pytest.raises(OutOfDomain, match="NaN"):
            p.value(math.nan)
        with pytest.raises(OutOfDomain, match="NaN"):
            p.values(np.array([-1.0, math.nan]))
        with pytest.raises(OutOfDomain, match="NaN"):
            p.right_slope(math.nan)
    # NaN and log_R are told apart only on the error path
    with pytest.raises(OutOfDomain, match="log_R"):
        log_profile().values(np.array([-1.0, 0.0]))
    assert log_profile().values(np.array([])).size == 0


@pytest.mark.parametrize(
    "p",
    [
        make_profile([(-1.0, -1.0)], FiniteValue(-1.0), final_slope=0.0),
        log_profile(),
        log_profile().truncate(2.0),
    ],
    ids=["flat-last-segment", "log", "log-truncated"],
)
@pytest.mark.parametrize("method", ["sublevel", "level_set"])
def test_nan_level_is_rejected(p, method):
    # a flat last segment used to divide by zero in _crossing, and the log
    # profile built the interval (-inf, nan), neither naming the level
    with pytest.raises(ValueError, match=r"^level s must not be NaN, got nan$"):
        getattr(p, method)(math.nan)


@pytest.mark.parametrize("method", ["sublevel", "level_set"])
def test_minus_infinite_level_names_the_level(method):
    # {u <= -inf} of a profile unbounded below is the origin alone; the
    # interval (-inf, -inf) used to raise RadialCompact's "endpoints must
    # be < +inf", which named the wrong infinity and no level
    with pytest.raises(ValueError, match=r"^level s=-inf leaves only the origin"):
        getattr(log_profile(), method)(-math.inf)
    # a bounded profile has nothing at -inf: the empty compact, as before
    assert getattr(max_const_profile(-1.0), method)(-math.inf).is_empty
    assert getattr(power_tail_profile(0.5), method)(-math.inf).is_empty

def test_clamp_level_must_be_a_float_below_inf():
    p = log_profile()
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError):
            p.max_with_affine(0.0, c)
    with pytest.raises(ValueError):
        p.truncate(math.nan)
    assert p.max_with_affine(0.0, NEG_INF) is p


@pytest.mark.parametrize(
    "slope, intercept, what",
    [
        (math.nan, 0.0, "slope"),
        (math.inf, 0.0, "slope"),
        (-math.inf, 0.0, "slope"),
        (1.0, math.nan, "intercept"),
        (1.0, math.inf, "intercept"),
        (0.0, math.nan, "intercept"),
    ],
)
def test_max_with_affine_rejects_non_finite_input(slope, intercept, what):
    with pytest.raises(ValueError, match=f"affine {what} must be finite"):
        log_profile().max_with_affine(slope, intercept)


def test_max_with_affine_with_minus_inf_intercept_is_the_identity():
    p = log_profile()
    assert p.max_with_affine(1.0, NEG_INF) is p
    assert p.max_with_affine(2.0, NEG_INF) is p


def test_truncate_log():
    p = log_profile()
    q = p.truncate(2.0)
    assert q.left_end == FiniteValue(-2.0)
    assert q.value(-5.0) == -2.0
    assert q.value(-1.0) == -1.0
    assert q.right_slope(-3.0) == 0.0
    assert q.right_slope(-1.5) == 1.0


def test_truncate_below_minimum_is_identity():
    p = max_const_profile(0.0, 1.0)
    assert p.truncate(5.0) == p


def test_truncate_power_tail_crossing():
    # -sqrt(-t) = -3 at t = -9; the sampled profile crosses within one
    # rung of its value ladder
    p = power_tail_profile(0.5)
    q = p.truncate(3.0)
    assert q.left_end == FiniteValue(-3.0)
    edge = q.sublevel(-3.0 + 1e-12).intervals[0][1]
    assert abs(edge - (-9.0)) < 0.2
    assert abs(p.value(-9.0) - (-3.0)) < 0.02


@pytest.mark.parametrize("seed", range(25))
def test_truncation_lattice(seed):
    """truncate(truncate(p, j), k) == truncate(p, k) exactly for j >= k."""
    rng = np.random.default_rng(seed)
    p = random_profile(rng, 0.0)
    for j, k in [(8.0, 1.0), (4.0, 4.0), (1024.0, 2.0), (2.0, 0.5)]:
        assert p.truncate(j).truncate(k) == p.truncate(k)


@pytest.mark.parametrize("seed", range(25))
def test_truncate_matches_pointwise_max(seed):
    rng = np.random.default_rng(1000 + seed)
    p = random_profile(rng, 0.0)
    ts = rng.uniform(-20.0, -1e-6, size=200)
    for j in (0.5, 1.0, 3.0, 17.0):
        q = p.truncate(j)
        for t in ts:
            assert q.value(float(t)) == max(p.value(float(t)), -j)
        assert q.value(NEG_INF) == max(p.value(NEG_INF), -j)


@pytest.mark.parametrize("seed", range(10))
def test_right_slope_nondecreasing(seed):
    rng = np.random.default_rng(2000 + seed)
    p = random_profile(rng, 0.0)
    slopes = [p.right_slope(NEG_INF)]
    slopes += [p.right_slope(t) for t, _ in p.breakpoints]
    assert slopes[0] >= 0.0
    assert all(a <= b for a, b in zip(slopes, slopes[1:]))


def test_right_slope_at_minus_infinity_when_the_release_overflows():
    # floor -1e308 on a tail of slope 1e-300 releases at -1e608, which
    # rounds to -inf; -inf still lies in the clamp, where the slope is 0
    p = make_profile([(-1.0, 0.0)], MinusInfinity(1e-300), 1.0).truncate(1e308)
    assert p._floor_edge == NEG_INF
    assert p.right_slope(NEG_INF) == 0.0 == p.left_slope
    assert p.right_slope(-1e300) == 1e-300


def test_sublevel_sets():
    assert log_profile().sublevel(-3.0) == closed_ball(-3.0)
    assert max_const_profile(0.0, 1.0).sublevel(-1.0).is_empty
    # -sqrt(-t) <= -2 exactly when t <= -4; the ladder has a node there
    assert power_tail_profile(0.5).sublevel(-2.0) == closed_ball(-4.0)


@pytest.mark.parametrize("seed", range(10))
def test_sublevel_nesting(seed):
    rng = np.random.default_rng(3000 + seed)
    p = random_profile(rng, 0.0)
    levels = sorted(rng.uniform(-8.0, -0.1, size=5))
    for s1, s2 in zip(levels, levels[1:]):
        assert p.sublevel(s1).subset_of(p.sublevel(s2))


def test_level_sets():
    assert log_profile().level_set(-2.0) == sphere(-2.0)
    assert log_profile().truncate(2.0).level_set(-2.0) == closed_ball(-2.0)
    assert max_const_profile(0.0, 1.0).level_set(-1.0).is_empty
    # flat piece: the level set is the whole flat
    p = linear_cap_profile(1.0, -2.0)
    assert p.level_set(-2.0) == closed_ball(-2.0)


@pytest.mark.parametrize("seed", range(10))
def test_level_set_consistent_with_sublevels(seed):
    """{u = s} = {u <= s} minus {u < s}, via interval endpoints."""
    rng = np.random.default_rng(4000 + seed)
    p = random_profile(rng, 0.0)
    for s in rng.uniform(-8.0, -0.1, size=6):
        lev = p.level_set(float(s))
        sub = p.sublevel(float(s))
        if lev.is_empty:
            continue
        assert lev.subset_of(sub)
        # the level set's outer edge is the sublevel's outer edge
        assert lev.intervals[-1][1] == sub.intervals[-1][1]


def test_shift_keeps_measure_data():
    rng = np.random.default_rng(5)
    p = random_profile(rng, 0.0)
    q = p.shift(0.25)  # dyadic shift: knot sums stay exact
    assert [t for t, _ in q.breakpoints] == [t for t, _ in p.breakpoints]
    assert q.final_slope == p.final_slope
    assert q.value(-1.5) == p.value(-1.5) + 0.25


def test_boundary_limit():
    assert log_profile().boundary_limit == 0.0
    assert constant_profile(-2.0).boundary_limit == -2.0


@pytest.mark.parametrize("seed", range(30))
def test_profile_json_round_trip_is_bit_exact(seed):
    rng = np.random.default_rng(6000 + seed)
    p = random_profile(rng, 0.0)
    q = ConvexProfile.from_json(p.to_json())
    assert q == p
    # and once more through plain json to pin the wire format
    d = json.loads(p.to_json())
    assert ConvexProfile.from_json_dict(d) == p


def test_compact_algebra():
    A = annulus(-3.0, -1.0)
    B = closed_ball(-2.0)
    assert A.intersect(B) == annulus(-3.0, -2.0)
    assert A.union(B) == closed_ball(-1.0)
    assert sphere(-2.0).subset_of(A)
    assert not A.subset_of(B)
    assert make_compact([]).is_empty
    assert B.contains_origin and not A.contains_origin
    assert A.contains(-1.0) and not A.contains(-0.5)


def test_compact_json_round_trip():
    K = make_compact([(NEG_INF, -4.0), (-3.0, -2.5), (-1.0, -1.0)])
    assert K.from_json_dict(K.to_json_dict()) == K


def test_degenerate_constant_profile():
    p = constant_profile(-2.0)
    assert p.value(-50.0) == -2.0
    assert p.final_slope == 0.0
    assert math.isinf(p.sublevel(-2.0).intervals[0][1]) is False
    # sublevel at the constant's own level reaches the boundary
    assert p.sublevel(-2.0).sup == p.log_R
    assert p.sublevel(-2.1).is_empty


# -- every check and branch that the other tests leave unrun ---------------

KNOT = ((-1.0, -1.0),)
NODES_ULPS_APART = [
    -3.3663275929465444, -3.3663275929465413, -3.366327592946538,
    -3.3663275929465355, -3.3663275929465324, -3.3663275929465293,
]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ConvexProfile((), FiniteValue(0.0), 0.0), ValueError,
         "need at least one breakpoint"),
        (lambda: ConvexProfile(((-1.0, math.nan),), FiniteValue(-1.0), 1.0), ValueError,
         "breakpoints must be finite"),
        (lambda: ConvexProfile(((NEG_INF, -1.0),), MinusInfinity(1.0), 1.0), ValueError,
         "breakpoints must be finite"),
        (lambda: ConvexProfile(KNOT, FiniteValue(math.inf), 1.0), ValueError,
         "FiniteValue must carry a finite value"),
        (lambda: ConvexProfile(KNOT, FiniteValue(0.0), 1.0), ConvexityViolation,
         "left end value must equal the first breakpoint value (0.0 != -1.0)"),
        (lambda: ConvexProfile(KNOT, MinusInfinity(0.0), 1.0), MonotonicityViolation,
         "MinusInfinity slope must be positive and finite; "
         "use FiniteValue for a bounded left tail"),
        (lambda: ConvexProfile(KNOT, MinusInfinity(math.nan), 1.0), MonotonicityViolation,
         "MinusInfinity slope must be positive and finite; "
         "use FiniteValue for a bounded left tail"),
        (lambda: ConvexProfile(KNOT, "flat", 1.0), TypeError, "unknown left end 'flat'"),
        (lambda: ConvexProfile(KNOT, MinusInfinity(1.0), 1.0, 0.0, math.nan), ValueError,
         "floor must be a float or -inf"),
        (lambda: ConvexProfile(KNOT, MinusInfinity(1.0), 1.0, 0.0, math.inf), ValueError,
         "floor must be a float or -inf"),
        # the family builders
        (lambda: linear_cap_profile(-1, 0), MonotonicityViolation,
         "LinearCap slope must be >= 0, got -1"),
        (lambda: power_tail_profile(1.0), ValueError, "need 0 < alpha < 1, got 1.0"),
        (lambda: sample_analytic(PowerTail(0.0), [-1.0]), ValueError,
         "PowerTail needs 0 < alpha < 1, got 0.0"),
        (lambda: sample_analytic(PowerTail(0.5), [-1.0, 0.0]), ValueError,
         "PowerTail grid must be negative"),
        # six nodes a few ulps apart: the sampled chord slopes round out of order
        (lambda: sample_analytic(PowerTail(0.5), NODES_ULPS_APART), NotConvexOnGrid,
         "slope drops from 0.2857142857142857 to 0.25 at segment 3"),
        (lambda: counterexample_sequence(0.0), ValueError, "this sequence needs log_R > 0"),
    ],
    ids=[
        "no-knot", "nan-value", "infinite-t", "infinite-tail-value", "tail-off-the-knot",
        "zero-tail-slope", "nan-tail-slope", "unknown-tail", "nan-floor", "inf-floor",
        "linearcap-negative-slope", "powertail-alpha", "sampled-powertail-alpha",
        "sampled-powertail-grid", "sampled-powertail-not-convex", "counterexample-log_R",
    ],
)
def test_constructor_names_what_is_wrong(build, error, message):
    with pytest.raises(error) as got:
        build()
    assert type(got.value) is error
    assert str(got.value) == message


def test_random_profile_gives_up_after_32_draws(monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise ConvexityViolation("refused")

    monkeypatch.setattr(families, "make_profile", refuse)
    with pytest.raises(ConvexityViolation, match="^could not draw a convex profile in 32 attempts$"):
        random_profile(np.random.default_rng(0))
    assert len(calls) == 32


@pytest.mark.parametrize(
    "intervals, message",
    [
        (((1.0, 0.0),), "interval 0: need a <= b, got (1.0, 0.0)"),
        (((0.0, math.nan),), "interval 0: need a <= b, got (0.0, nan)"),
        (((-2.0, -1.0), (-1.0, math.inf)), "interval 1: endpoints must be < +inf"),
        (((math.inf, math.inf),), "interval 0: endpoints must be < +inf"),
        (((-2.0, 0.0), (-1.0, 1.0)), "intervals must be disjoint and sorted"),
        (((0.0, 1.0), (-2.0, -1.0)), "intervals must be disjoint and sorted"),
        (((-1.0, 0.0), (0.0, 1.0)), "intervals must be disjoint and sorted"),
    ],
    ids=["reversed", "nan", "plus-inf-end", "plus-inf-interval", "overlapping",
         "unsorted", "touching"],
)
def test_radial_compact_rejects_bad_intervals(intervals, message):
    with pytest.raises(ValueError) as got:
        RadialCompact(intervals)
    assert type(got.value) is ValueError
    assert str(got.value) == message


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_shift_must_be_finite(c):
    with pytest.raises(ValueError, match=r"^shift must be finite$") as got:
        log_profile().shift(c)
    assert type(got.value) is ValueError


def test_max_with_affine_rejects_a_negative_slope():
    msg = r"^affine minorant must have slope >= 0$"
    for p in (log_profile(), log_profile().truncate(2.0)):
        with pytest.raises(MonotonicityViolation, match=msg):
            p.max_with_affine(-1.0, 0.0)


def test_from_json_dict_rejects_an_unknown_left_end_kind():
    data = log_profile().to_json_dict()
    data["left_end"]["kind"] = "plus_infinity"
    with pytest.raises(ValueError, match=r"^unknown left end kind 'plus_infinity'$") as got:
        ConvexProfile.from_json_dict(data)
    assert type(got.value) is ValueError


def test_make_profile_continues_a_lone_bounded_knot_flat():
    p = make_profile([(-1.0, -2.0)], FiniteValue(-2.0))
    assert math.copysign(1.0, p.final_slope) == 1.0 and p.final_slope == 0.0
    assert p.value(-0.5) == -2.0


def test_max_with_affine_with_an_empty_overtake_region_is_the_identity():
    # the line passes one ulp above the first knot, with a slope between
    # the tail's and the first chord's: the crossings on either side of
    # the knot round to hi <= lo
    p = ConvexProfile(
        (
            (-4.501953125, -1.52294921875),
            (-3.5654296875, -0.44946837425231934),
            (-2.2294921875, 2.6607611179351807),
            (-1.9365234375, 3.4434654712677),
            (-1.4228515625, 5.317314386367798),
        ),
        MinusInfinity(0.0537109375),
        3.64794921875,
        0.0,
    )
    assert p.max_with_affine(0.5999755859375, 1.1781127452850344) is p
