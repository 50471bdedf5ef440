"""JSON round-trips, max_with_affine and total mass: property tests.

Over seeded ``random_profile`` and ``random_compact`` draws: profiles,
compacts and measures survive ``to_json``/``from_json`` bit for bit;
``max_with_affine`` dominates both of its arguments and returns a
profile that passes fresh validation; and the total Monge-Ampere mass
of an unclamped profile with a finite left end is (2*pi*final_slope)^n.

The last two hold up to rounding, not bit for bit, and their
tolerances are fixed here from the float epsilon: the crossing knots of
``max_with_affine`` and each knot's jump s+^n - s-^n carry rounding that
the quantity they are compared with does not.
"""
import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConvexProfile,
    RadialCompact,
    RadialMeasure,
    ma_measure,
    nonpolar_part,
    random_compact,
    random_profile,
)

EPS = sys.float_info.epsilon
LOG_RS = (0.0, 1.0, -0.5)


@st.composite
def profiles(draw, **kwargs):
    """A seeded ``random_profile`` draw at one of LOG_RS."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_profile(rng, draw(st.sampled_from(LOG_RS)), **kwargs)


@st.composite
def compacts(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_compact(rng, draw(st.sampled_from(LOG_RS)))


def profile_bits(p: ConvexProfile) -> tuple:
    """Every float of the profile, as its hex bit pattern."""
    tail = (type(p.tail).__name__, *(x.hex() for x in vars(p.tail).values()))
    return (
        tuple((t.hex(), v.hex()) for t, v in p.breakpoints),
        tail,
        p.final_slope.hex(),
        p.log_R.hex(),
        p.floor.hex(),
    )


def measure_bits(m: RadialMeasure) -> tuple:
    return (m.n, m.origin_mass.hex(), tuple((t.hex(), w.hex()) for t, w in m.atoms))


# -- JSON round-trips ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(p=profiles())
def test_profile_json_round_trip_is_bitwise(p):
    back = ConvexProfile.from_json(p.to_json())
    assert back == p
    assert profile_bits(back) == profile_bits(p)
    assert back.to_json() == p.to_json()


@settings(max_examples=300, deadline=None)
@given(K=compacts())
def test_compact_json_round_trip_is_bitwise(K):
    back = RadialCompact.from_json_dict(K.to_json_dict())
    assert back == K
    assert [(a.hex(), b.hex()) for a, b in back.intervals] == [
        (a.hex(), b.hex()) for a, b in K.intervals
    ]


@settings(max_examples=300, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), nonpolar=st.booleans())
def test_measure_json_round_trip_is_bitwise(p, n, nonpolar):
    m = nonpolar_part(p, n) if nonpolar else ma_measure(p, n)
    back = RadialMeasure.from_json(m.to_json())
    assert back == m
    assert measure_bits(back) == measure_bits(m)


# -- max_with_affine ---------------------------------------------------------


def probe_points(p: ConvexProfile, q: ConvexProfile) -> list[float]:
    """The knots of both profiles, the midpoints between them, a point
    left of every knot and one between the last knot and log_R."""
    knots = sorted({t for t, _ in p.breakpoints} | {t for t, _ in q.breakpoints})
    mids = [(a + b) / 2.0 for a, b in zip(knots, knots[1:])]
    return knots + mids + [knots[0] - 1.0, (knots[-1] + p.log_R) / 2.0]


@settings(max_examples=300, deadline=None)
@given(
    p=profiles(),
    slope=st.integers(0, 768).map(lambda k: k / 256.0),
    intercept=st.integers(-2048, 256).map(lambda k: k / 256.0),
)
def test_max_with_affine_dominates_both_and_validates(p, slope, intercept):
    q = p.max_with_affine(slope, intercept)
    fresh = ConvexProfile(q.breakpoints, q.tail, q.final_slope, q.log_R, floor=q.floor)
    assert profile_bits(fresh) == profile_bits(q)
    # a crossing knot is rounded relative to its own size, and a chord
    # of q carries that error to every point it spans
    knot_size = max(abs(v) + abs(slope * t) for t, v in q.breakpoints)
    for t in probe_points(p, q):
        if t >= p.log_R:
            continue
        v, u, line = q.value(t), p.value(t), slope * t + intercept
        size = 1.0 + abs(u) + abs(slope * t) + abs(intercept) + knot_size
        tol = 8.0 * EPS * size
        assert v >= u - tol, (t, v, u)
        assert v >= line - tol, (t, v, line)


# -- total mass --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(p=profiles(bounded=True, allow_clamp=False), n=st.integers(1, 3))
def test_total_mass_is_the_final_slope_power(p, n):
    m = ma_measure(p, n)
    assert m.origin_mass == 0.0
    want = (2.0 * math.pi * p.final_slope) ** n
    # each knot's jump carries the rounding of s+^n and s-^n
    tol = (2 * len(p.breakpoints) + 4) * EPS * want
    assert abs(m.total_mass - want) <= tol
