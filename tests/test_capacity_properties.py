"""Closed-form extremal profiles and capacities: property tests.

For a radial compact K inside the ball of radius e^log_R only its
rightmost point b = K.sup matters: the extremal profile is -1 up to b
and then the chord to (log_R, 0), so cap_n(K) = (2*pi / (log_R - b))^n.
These properties check that identity over seeded ``random_compact``
draws, together with monotonicity of the capacity in K, and pin the
closed-form ``capacity`` to the extremal measure's mass on K.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConvexProfile,
    FiniteValue,
    MassOverflow,
    capacity,
    closed_ball,
    extremal,
    extremal_profile,
    random_compact,
)

LOG_RS = (0.0, 1.0, -0.5)


@st.composite
def compacts(draw):
    """A seeded ``random_compact`` draw and the log_R it was drawn for."""
    log_R = draw(st.sampled_from(LOG_RS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_compact(rng, log_R), log_R


def one_knot(b: float, log_R: float) -> ConvexProfile:
    return ConvexProfile(((b, -1.0),), FiniteValue(-1.0), 1.0 / (log_R - b), log_R)


@settings(max_examples=200, deadline=None)
@given(drawn=compacts())
def test_extremal_profile_is_the_one_knot_profile(drawn):
    K, log_R = drawn
    got = extremal_profile(K, log_R)
    want = one_knot(K.sup, log_R)
    assert got == want
    assert got.final_slope.hex() == want.final_slope.hex()
    assert got.floor == want.floor


@settings(max_examples=200, deadline=None)
@given(drawn=compacts(), n=st.integers(1, 5))
def test_capacity_only_sees_the_rightmost_point(drawn, n):
    K, log_R = drawn
    c = capacity(K, log_R, n)
    assert c.hex() == capacity(closed_ball(K.sup), log_R, n).hex()
    closed = (2.0 * math.pi / (log_R - K.sup)) ** n
    assert abs(c - closed) <= 1e-12 * closed


@settings(max_examples=200, deadline=None)
@given(drawn=compacts(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_capacity_is_monotone_under_union(drawn, seed, n):
    K, log_R = drawn
    bigger = K.union(random_compact(np.random.default_rng(seed), log_R))
    assert K.subset_of(bigger)
    assert capacity(K, log_R, n) <= capacity(bigger, log_R, n)


@settings(max_examples=200, deadline=None)
@given(drawn=compacts(), n=st.integers(1, 5))
def test_closed_form_capacity_is_the_extremal_mass_bit_for_bit(drawn, n):
    K, log_R = drawn
    assert capacity(K, log_R, n).hex() == extremal(K, log_R, n).capacity.hex()


@settings(max_examples=50, deadline=None)
@given(drawn=compacts())
def test_closed_form_capacity_overflows_like_extremal(drawn):
    K, log_R = drawn
    n = 400  # (2*pi)**400 is past the float range
    with pytest.raises(OverflowError):
        (2.0 * math.pi) ** n
    with pytest.raises(MassOverflow):
        capacity(K, log_R, n)
    with pytest.raises(MassOverflow):
        extremal(K, log_R, n)
