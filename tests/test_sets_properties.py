"""Sublevel sets, level sets and nonpolar parts: property tests.

``sublevel`` and ``level_set`` find where the formula crosses a level
with the cached chord slopes.  These properties pin both, bit for bit,
to references kept here that divide a chord slope out on every call,
the way the package used to; ``nonpolar_part`` is checked against
``ma_measure``.
"""
import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    FiniteValue,
    MinusInfinity,
    geometric_schedule,
    log_profile,
    ma_measure,
    make_profile,
    nonpolar_part,
    power_tail_profile,
    random_profile,
)

SCHEDULE = geometric_schedule()
NEG_INF = float("-inf")


def signed_zero_profiles():
    """Knots at -0.0 with a rising tail, where ts[0] + 0.0 changes sign."""
    return [
        make_profile([(-0.0, -1.0)], MinusInfinity(1.0), 1.0, 1.0),
        make_profile([(-0.0, -1.0), (0.5, -0.5)], MinusInfinity(0.5), 2.0, 1.0),
    ]


@st.composite
def profiles(draw):
    """Seeded random draws (bounded, unbounded, either, at log_R 0 and
    1), the log and power-tail families, signed-zero knots, and
    truncated copies of any of them."""
    kind = draw(
        st.sampled_from(["bounded", "unbounded", "random", "log", "powertail", "zero"])
    )
    if kind == "log":
        p = log_profile()
    elif kind == "powertail":
        p = power_tail_profile(0.5)
    elif kind == "zero":
        p = draw(st.sampled_from(signed_zero_profiles()))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bounded = {"bounded": True, "unbounded": False, "random": None}[kind]
        log_R = draw(st.sampled_from([0.0, 1.0]))
        p = random_profile(rng, log_R, bounded=bounded)
    pre = draw(st.sampled_from((None,) + SCHEDULE))
    if pre is not None:
        p = p.truncate(float(pre))
    return p


# -- references: the formulas with a per-call chord-slope division --------


def _left_value(p) -> float:
    return p.tail.value if isinstance(p.tail, FiniteValue) else NEG_INF


def _boundary_limit(p) -> float:
    t, v = p.breakpoints[-1]
    return v + p.final_slope * (p.log_R - t)


def reference_edge(p, s: float):
    """sup{t : formula(t) <= s}, None when empty, log_R when total."""
    if _left_value(p) > s:
        return None
    ts = [t for t, _ in p.breakpoints]
    vs = [v for _, v in p.breakpoints]
    if _boundary_limit(p) <= s:
        return p.log_R
    if isinstance(p.tail, MinusInfinity) and vs[0] > s:
        return ts[0] + (s - vs[0]) / p.tail.slope
    k = bisect_right(vs, s) - 1
    if k == len(ts) - 1:
        return ts[k] + (s - vs[k]) / p.final_slope
    slope = (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])
    return ts[k] + (s - vs[k]) / slope


def reference_sublevel(p, s: float) -> tuple:
    if s < p.floor:
        return ()
    edge = reference_edge(p, s)
    return () if edge is None else ((NEG_INF, edge),)


def reference_level_set(p, s: float) -> tuple:
    left = p.floor if p.floor != NEG_INF else _left_value(p)
    if s < p.floor or left > s:
        return ()
    hi = reference_edge(p, s)
    if left == s:
        return ((NEG_INF, hi),)
    ts = [t for t, _ in p.breakpoints]
    vs = [v for _, v in p.breakpoints]
    if _boundary_limit(p) < s:
        return ()
    if isinstance(p.tail, MinusInfinity) and vs[0] >= s:
        lo = ts[0] + (s - vs[0]) / p.tail.slope
    else:
        k = bisect_right(vs, s) - 1
        if vs[k] == s:
            while k > 0 and vs[k - 1] == s:
                k -= 1
            lo = ts[k]
        elif k == len(ts) - 1:
            if p.final_slope == 0.0:
                return ()
            lo = ts[k] + (s - vs[k]) / p.final_slope
        else:
            slope = (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])
            lo = ts[k] + (s - vs[k]) / slope
    if hi is None or hi < lo or lo >= p.log_R:
        return ()
    return ((lo, hi),)


def bits(intervals) -> tuple:
    return tuple((a.hex(), b.hex()) for a, b in intervals)


def probe_levels(p, u: float) -> list[float]:
    """Knot values and their float neighbours, levels between knots, both
    tails, the boundary limit, the clamp, and one drawn level."""
    vs = [v for _, v in p.breakpoints]
    bnd = _boundary_limit(p)
    levels = [bnd, math.nextafter(bnd, math.inf), bnd + 1.0]
    for v in vs:
        levels += [v, math.nextafter(v, NEG_INF), math.nextafter(v, math.inf)]
    for a, b in zip(vs, vs[1:]):
        levels += [0.5 * (a + b), a + 0.25 * (b - a)]
    levels += [vs[0] - 1.0, vs[0] - 1e3, 0.5 * (vs[-1] + bnd)]
    if p.floor != NEG_INF:
        levels += [p.floor, math.nextafter(p.floor, NEG_INF), math.nextafter(p.floor, math.inf)]
    levels.append(vs[0] - 2.0 + u * (bnd - vs[0] + 3.0))
    return levels


@settings(max_examples=150, deadline=None)
@given(p=profiles(), u=st.floats(0.0, 1.0))
def test_sublevel_matches_reference_bitwise(p, u):
    for s in probe_levels(p, u):
        assert bits(p.sublevel(s).intervals) == bits(reference_sublevel(p, s)), s


def edge_or_error(edge, s):
    try:
        x = edge(s)
    except ZeroDivisionError as e:  # a NaN level on a flat last segment
        return ("raised", str(e))
    return x if x is None else x.hex()


@settings(max_examples=150, deadline=None)
@given(p=profiles(), u=st.floats(0.0, 1.0))
def test_sublevel_edge_matches_reference_bitwise(p, u):
    # the edge is read from the bisection alone, and at the infinities and
    # NaN too, which no set can hold
    for s in probe_levels(p, u) + [NEG_INF, math.inf, math.nan]:
        got = edge_or_error(p._formula_sublevel_edge, s)
        assert got == edge_or_error(lambda s: reference_edge(p, s), s), s


@settings(max_examples=150, deadline=None)
@given(p=profiles(), u=st.floats(0.0, 1.0))
def test_level_set_matches_reference_bitwise(p, u):
    for s in probe_levels(p, u):
        assert bits(p.level_set(s).intervals) == bits(reference_level_set(p, s)), s


def test_level_set_crossing_on_the_tail_at_a_signed_zero_knot():
    p = signed_zero_profiles()[1]
    # the rising tail meets level -1 at ts[0] + 0.0 = +0.0, not at ts[0]
    assert bits(p.level_set(-1.0).intervals) == bits(((0.0, 0.0),))


@settings(max_examples=100, deadline=None)
@given(p=profiles(), n=st.integers(1, 3))
def test_nonpolar_part_has_no_origin_mass_and_the_full_atoms(p, n):
    np_part = nonpolar_part(p, n)
    assert np_part.origin_mass == 0.0
    assert np_part.atoms == ma_measure(p, n).atoms


# -- the power-tail value ladder -------------------------------------------


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.0098, 0.999))
def test_power_tail_knots_carry_every_schedule_level_down_to_1024(alpha):
    # the knots run from -2^-6 to -1024 at four per octave, so the
    # profile bottoms out at -1024 and every doubling level up to 512 is
    # a knot value whose sublevel set ends exactly on that knot
    p = power_tail_profile(alpha)
    assert p.left_value == -1024.0
    assert p.truncate(1024.0) is p
    knot_at = {v: t for t, v in p.breakpoints}
    for j in geometric_schedule(512):
        assert -j in knot_at, j
        assert p.sublevel(float(-j)).sup == knot_at[-j], j
