"""max_with_affine against the four-branch assembly it replaced.

``ConvexProfile.max_with_affine`` builds its result with one
``_assemble`` call: the formula's knots left of lo, the crossings at a
finite lo and at hi < log_R, and the knots right of hi.  The assembly it
replaced chose among four branches by whether lo = -inf and whether
hi reaches log_R.  It is kept here as the reference, as it was, and
every result must match it bit for bit: breakpoints, tail, final slope,
log_R and floor, or the same exception.  Two kinds of line may differ,
both nearly along a segment whose ends rounding puts on both sides of
the line.  Where the reference divides by a zero slope difference it
raises ZeroDivisionError, and max_with_affine takes the segment's end.
Where its quotient lands off the segment it solved on, max_with_affine
keeps the crossing on that segment.  On those lines the result must be
the pointwise maximum instead.
"""
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import ConvexProfile, FiniteValue, MinusInfinity
from radialma.errors import MonotonicityViolation
from test_max_with_affine_properties import (
    ROUNDED_CHORD,
    assert_is_the_maximum_of,
    lines,
    parallel_chord,
)
from test_nonpolar_properties import fixed_profiles, profiles
from test_value_properties import reference_formula

NEG_INF = -math.inf


def reference_max_with_affine(p: ConvexProfile, slope: float, intercept: float):
    """max(chi, slope*t + intercept), assembled in four branches."""
    if not math.isfinite(slope):
        raise ValueError("affine slope must be finite")
    if not intercept < math.inf:
        raise ValueError("affine intercept must be finite or -inf")
    if slope < 0.0:
        raise MonotonicityViolation("affine minorant must have slope >= 0")
    if slope == 0.0 or intercept == NEG_INF:
        return p._max_with_constant(intercept)

    def line(t):
        return slope * t + intercept

    run = p._slopes
    ts, vs = p._ts, p._vs
    d_at = [vs[i] - line(ts[i]) for i in range(len(ts))]
    d_bnd = p._formula_boundary_limit() - line(p.log_R)
    if isinstance(p.tail, MinusInfinity):
        if p.tail.slope > slope:
            wins_left = True
        elif p.tail.slope < slope:
            wins_left = False
        else:
            wins_left = d_at[0] < 0.0
    else:
        wins_left = False
    if not wins_left and min(d_at) >= 0.0 and d_bnd >= 0.0:
        return p

    def cross_left():
        if wins_left:
            return NEG_INF
        if d_at[0] <= 0.0:
            s0 = p._tail_slope
            if s0 == slope:
                return NEG_INF
            return ts[0] + (-d_at[0]) / (s0 - slope)
        for i in range(1, len(ts)):
            if d_at[i] <= 0.0:
                return ts[i - 1] + (-d_at[i - 1]) / (run[i] - slope)
        return ts[-1] + (-d_at[-1]) / (p.final_slope - slope)

    def cross_right():
        if d_bnd <= 0.0:
            return p.log_R
        if d_at[-1] <= 0.0:
            return ts[-1] + (-d_at[-1]) / (p.final_slope - slope)
        for i in range(len(ts) - 2, -1, -1):
            if d_at[i] <= 0.0:
                return ts[i] + (-d_at[i]) / (run[i + 1] - slope)
        return ts[0] + (-d_at[0]) / (p._tail_slope - slope)

    lo, hi = cross_left(), cross_right()
    if hi <= lo:
        return p
    right_knots = tuple((t, v) for t, v in p.breakpoints if t > hi)
    if hi >= p.log_R:
        if lo == NEG_INF:
            anchor = min(ts[0], p.log_R - 1.0)
            out = ConvexProfile(
                ((anchor, line(anchor)),), MinusInfinity(slope), slope, p.log_R
            )
        else:
            left_knots = tuple((t, v) for t, v in p.breakpoints if t < lo)
            bps = left_knots + ((lo, reference_formula(p, lo)),)
            out = p._assemble(bps, p.tail, slope, p.log_R)
    else:
        hi_pair = ((hi, reference_formula(p, hi)),)
        if right_knots and right_knots[0][0] == hi:
            hi_pair = ()
        if lo == NEG_INF:
            out = p._assemble(
                hi_pair + right_knots, MinusInfinity(slope), p.final_slope, p.log_R
            )
        else:
            left_knots = tuple((t, v) for t, v in p.breakpoints if t < lo)
            lo_pair = ((lo, reference_formula(p, lo)),)
            if left_knots and left_knots[-1][0] == lo:
                lo_pair = ()
            out = p._assemble(
                left_knots + lo_pair + hi_pair + right_knots,
                p.tail,
                p.final_slope,
                p.log_R,
            )
    if p.floor == NEG_INF:
        return out
    return out._max_with_constant(p.floor)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def shape(fn, p, slope, intercept):
    """The result's data as bits, or the exception's type and message."""
    try:
        q = fn(p, slope, intercept)
    except Exception as e:  # noqa: BLE001 -- compare whatever is raised
        return ("raised", type(e).__name__, str(e))
    end = q.tail.value if isinstance(q.tail, FiniteValue) else q.tail.slope
    tail = (type(q.tail).__name__, bits(end))
    knots = tuple((bits(t), bits(v)) for t, v in q.breakpoints)
    return ("profile", knots, tail, bits(q.final_slope), bits(q.log_R), bits(q.floor))


def solves_off_its_segment(p: ConvexProfile, slope: float, intercept: float):
    """Whether the reference's quotient for lo or hi lands off the segment
    it solves on: for lo, left of the first knot where formula - line
    <= 0 (the final segment if none); for hi, right of the last (the left
    tail if none)."""
    ts, run = p._ts, p._slopes
    d_at = [v - (slope * t + intercept) for t, v in p.breakpoints]
    d_bnd = p._formula_boundary_limit() - (slope * p.log_R + intercept)
    wins_left = run[0] > slope or run[0] == slope and d_at[0] < 0.0
    if not wins_left and min(d_at) >= 0.0 and d_bnd >= 0.0:
        return False  # the reference returns before it solves
    below = [i for i, d in enumerate(d_at) if d <= 0.0]
    ends = (NEG_INF, *ts, p.log_R)
    solved = []
    if not wins_left:
        solved.append(below[0] - 1 if below else len(ts) - 1)
    if d_bnd > 0.0:
        solved.append(below[-1] if below else -1)
    for k in solved:
        i = max(k, 0)
        gap = run[k + 1] - slope
        if gap != 0.0:
            t = ts[i] + (-d_at[i]) / gap
            if not ends[k + 1] <= t <= ends[k + 2]:
                return True
    return False


def assert_matches(p, rng):
    for slope, intercept in lines(p, rng):
        got = shape(ConvexProfile.max_with_affine, p, slope, intercept)
        want = shape(reference_max_with_affine, p, slope, intercept)
        if got != want:
            zero = want[:2] == ("raised", "ZeroDivisionError")
            off = solves_off_its_segment(p, slope, intercept)
            assert zero or off, (p, slope, intercept)
            q = p.max_with_affine(slope, intercept)
            assert_is_the_maximum_of(p, slope, intercept, q)


def test_one_assembly_matches_the_four_branches_on_the_families():
    rng = np.random.default_rng(0)
    for p in fixed_profiles():
        assert_matches(p, rng)


@settings(max_examples=200, deadline=None)
@given(p=profiles(), seed=st.integers(0, 2**32 - 1))
def test_one_assembly_matches_the_four_branches(p, seed):
    assert_matches(p, np.random.default_rng(seed))


def test_the_reference_divides_by_zero_on_a_parallel_chord():
    want = shape(reference_max_with_affine, *parallel_chord())
    assert want[:2] == ("raised", "ZeroDivisionError")


def test_the_reference_solves_off_the_segment_on_a_rounded_chord():
    p, slope, intercept = ROUNDED_CHORD
    assert solves_off_its_segment(p, slope, intercept)
    want = shape(reference_max_with_affine, p, slope, intercept)
    assert want != shape(ConvexProfile.max_with_affine, p, slope, intercept)


def test_each_of_the_four_branches_is_reached():
    # lo = -inf or finite, hi < log_R or = log_R, on log r and max(log r, -1)
    log_r, max_const = fixed_profiles()[0], fixed_profiles()[2]
    for p, slope, intercept, lo_finite, hi_inside in [
        (log_r, 0.5, 0.0, False, False),  # the line wins on the whole ball
        (log_r, 2.0, 0.5, True, False),  # from -0.5 up to the boundary
        (log_r, 0.5, -1.0, False, True),  # from the origin up to -2
        (max_const, 0.5, -0.25, True, True),  # on (-1.5, -0.5)
    ]:
        q = p.max_with_affine(slope, intercept)
        assert (q.tail == p.tail) == lo_finite
        assert (q.final_slope == p.final_slope) == hi_inside
        assert shape(ConvexProfile.max_with_affine, p, slope, intercept) == shape(
            reference_max_with_affine, p, slope, intercept
        )
