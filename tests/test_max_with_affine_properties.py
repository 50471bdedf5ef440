"""max_with_affine against the maths: q(t) = max(chi(t), slope*t + c).

The reference test compares the result with an older assembly; this one
reads only the definition.  At the knots of both profiles and at 101
points across the ball, the result's value must equal the pointwise
maximum within 1e-12 * (1 + |value|), on random profiles (clamped ones
included) and on lines through random points, tangent along each
segment, winning on the whole ball, flat, and at -inf.  The bound adds
a few ulps of |slope * t| + |intercept|, the rounding of the line's own
value: on the power-tail family's knots near t = -2^20 the two terms
cancel to a value a thousand times smaller.  It adds the same for the
result's own evaluation, |v_k| + |s_k * (t - t_k)| from the knot
(t_k, v_k) and slope s_k it evaluates t from: a crossing far out on the
tail leaves a knot whose terms cancel the same way near the ball.
"""
import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import ConvexProfile, MinusInfinity
from radialma.families import random_profile
from test_nonpolar_properties import fixed_profiles, profiles

NEG_INF = -math.inf

# a line along the chord from knot 2 to knot 3: the slopes differ by one
# ulp and the chord's ends sit -4.4e-16 and 4.4e-16 from the line
ROUNDED_CHORD = (
    ConvexProfile(
        (
            (-7.205078125, -4.8076171875),
            (-5.8291015625, -3.233843994140625),
            (-4.5185546875, -0.8866980552673343),
            (-3.3115234375, 1.2750548362731933),
            (-1.9892578125, 4.4382912635803216),
            (-1.0146484375, 7.735640335083007),
        ),
        MinusInfinity(1.09375),
        3.963818359375,
        0.0,
        -0.5,
    ),
    1.7909667968749998,
    7.205883359909056,
)


# a line crossing the tail at t = -59774.23, where the result's one knot
# sits: its value at t = -1.40625 is the difference of two terms near
# 83490, off by 7.0e-12 (seed 5768484 of the property test below drew it)
FAR_CROSSING = (
    ConvexProfile(
        ((-1.40625, -4.2490234375), (-0.734375, -2.6026344299316406)),
        MinusInfinity(1.396728515625),
        2.450439453125,
        0.0,
        -0.5,
    ),
    1.396827953922226,
    3.6589739343145182,
)


def parallel_chord():
    """A line along chord 2 of a random profile, run[2] - slope == 0."""
    p = random_profile(np.random.default_rng(2667), 0.0)
    slope = p._slopes[2]
    return p, slope, p._vs[1] - slope * p._ts[1]


def lines(p: ConvexProfile, rng: np.random.Generator):
    """(slope, intercept) pairs: through random points, tangent along
    each segment, winning on the whole ball, flat, and at -inf."""
    ts, vs, run = p._ts, p._vs, p._slopes
    out = []
    for _ in range(6):
        t = float(rng.uniform(ts[0] - 3.0, p.log_R))
        t = min(t, math.nextafter(p.log_R, NEG_INF))
        slope = float(rng.uniform(0.0, 2.0 * run[-1] + 1.0))
        out.append((slope, p.value(t) + float(rng.normal(0.0, 0.5)) - slope * t))
    # the tangent line along the tail, each chord, and the final segment
    anchors = [0] + list(range(len(ts) - 1)) + [len(ts) - 1]
    for k, slope in zip(anchors, run):
        if slope > 0.0:
            out.append((slope, vs[k] - slope * ts[k]))
    if isinstance(p.tail, MinusInfinity):
        # at most the tail slope and above every knot and the boundary
        slope = p.tail.slope * float(rng.uniform(0.1, 1.0))
        top = max(
            [v - slope * t for t, v in p.breakpoints]
            + [p.boundary_limit - slope * p.log_R]
        )
        out.append((slope, top + float(rng.uniform(0.0, 1.0))))
        out.append((p.tail.slope, top))
    out.append((0.0, float(rng.uniform(-6.0, 1.0))))
    out.append((float(rng.uniform(0.0, 2.0)), NEG_INF))
    return out


def sample_points(p, q):
    left = min(p._ts[0], q._ts[0]) - 3.0
    grid = np.linspace(left, p.log_R, 101)
    grid[-1] = math.nextafter(p.log_R, NEG_INF)
    return [*p._ts, *q._ts, *(float(t) for t in grid)]


def value_ulps(q, t):
    """A few ulps of |v_k| + |s_k * (t - t_k)|, with (t_k, v_k) and s_k
    the knot and slope ``q.value`` evaluates t from."""
    ts, run = q._ts, q._slopes
    if t <= ts[0]:
        k, s = 0, run[0]
    else:
        k = bisect_right(ts, t) - 1
        s = run[k + 1]
    return 1e-15 * (abs(q._vs[k]) + abs(s * (t - ts[k])))


def assert_is_the_maximum_of(p, slope, intercept, q):
    assert q.log_R == p.log_R
    for t in sample_points(p, q):
        v = max(p.value(t), slope * t + intercept)
        line_ulps = 0.0
        if intercept > NEG_INF:
            line_ulps = 1e-15 * (abs(slope * t) + abs(intercept))
        bound = 1e-12 * (1.0 + abs(v)) + line_ulps + value_ulps(q, t)
        assert abs(q.value(t) - v) <= bound, (
            p,
            slope,
            intercept,
            t,
        )


def assert_is_the_maximum(p, rng):
    for slope, intercept in lines(p, rng):
        q = p.max_with_affine(slope, intercept)
        assert_is_the_maximum_of(p, slope, intercept, q)


def test_max_with_affine_is_the_maximum_on_the_families():
    rng = np.random.default_rng(1)
    for p in fixed_profiles():
        assert_is_the_maximum(p, rng)


@settings(max_examples=300, deadline=None)
@given(p=profiles(), seed=st.integers(0, 2**32 - 1))
def test_max_with_affine_is_the_maximum(p, seed):
    assert_is_the_maximum(p, np.random.default_rng(seed))


def test_a_crossing_rounded_off_its_segment_stays_on_it():
    # the quotient put hi two units right of knot 3, where the result
    # rose 0.36 above both the profile and the line
    p, slope, intercept = ROUNDED_CHORD
    assert 0.0 < p._slopes[3] - slope < 1e-15
    q = p.max_with_affine(slope, intercept)
    assert q._ts[2] == p._ts[3]
    assert_is_the_maximum_of(p, slope, intercept, q)


def test_a_crossing_far_out_on_the_tail_is_evaluated_from_its_knot():
    p, slope, intercept = FAR_CROSSING
    q = p.max_with_affine(slope, intercept)
    assert len(q.breakpoints) == 1 and q._ts[0] < -59774.0
    assert_is_the_maximum_of(p, slope, intercept, q)


def test_a_line_along_a_chord_split_by_rounding_gives_a_profile():
    # rounding puts the chord's ends on both sides of the line, so the
    # quotient would divide by zero; the edge is the chord's end instead
    p, slope, intercept = parallel_chord()
    q = p.max_with_affine(slope, intercept)
    assert len(q.breakpoints) == 3
    assert_is_the_maximum_of(p, slope, intercept, q)
