"""Pointwise evaluation in one frame: property tests.

``ConvexProfile.value`` and ``RadialTestFunction.value`` read cached
chord slopes and clamp with one comparison.  These properties pin both
to references kept here, which evaluate the way the package used to:
the formula clamped by the builtin ``max``, and a chord slope divided
out per call.  Results are compared as bit patterns, so 0.0 and -0.0
count as different.
"""
import copy
import gc
import math
import pickle
import struct
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    FiniteValue,
    OutOfDomain,
    RadialTestFunction,
    default_battery,
    geometric_schedule,
    log_profile,
    make_profile,
    power_tail_profile,
    punctured_battery,
    random_profile,
)

SCHEDULE = geometric_schedule()
NEG_INF = float("-inf")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def reference_formula(p, t: float) -> float:
    """The formula at t, clamp ignored, the way the package used to
    compute it: the chord slope divided out per call."""
    ts, vs = p._ts, p._vs
    if t <= ts[0]:
        if isinstance(p.tail, FiniteValue):
            return p.tail.value
        return vs[0] + p.tail.slope * (t - ts[0])
    if t >= ts[-1]:
        return vs[-1] + p.final_slope * (t - ts[-1])
    i = bisect_right(ts, t) - 1
    s = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
    return vs[i] + s * (t - ts[i])


def reference_value(p, t: float) -> float:
    return max(reference_formula(p, t), p.floor)


def reference_phi(phi: RadialTestFunction, t: float) -> float:
    ts = [s for s, _ in phi.nodes]
    vs = [v for _, v in phi.nodes]
    if t <= ts[0]:
        return phi.origin_value
    if t >= ts[-1]:
        return 0.0
    i = bisect_right(ts, t) - 1
    s = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
    return vs[i] + s * (t - ts[i])


def signed_zero_profiles():
    """Profiles whose values or clamps are zeros of either sign."""
    return [
        # the tail keeps -0.0 although the knot stores 0.0
        make_profile([(-1.0, 0.0)], FiniteValue(-0.0), 1.0),
        make_profile([(-1.0, -0.0), (-0.5, -0.0)], FiniteValue(-0.0), 2.0),
        log_profile(1.0).max_with_affine(0.0, -0.0),
        log_profile(1.0).max_with_affine(0.0, 0.0),
    ]


@st.composite
def profiles(draw):
    """Seeded random draws (bounded, unbounded, either), the log and
    power-tail families, signed-zero cases, and truncated copies."""
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


def probe_points(ts, log_R: float, floor_edge: float = NEG_INF) -> list[float]:
    """Knots, midpoints and neighbours of knots, both tails, -inf and the
    last float below log_R."""
    pts = [NEG_INF, math.nextafter(log_R, NEG_INF)]
    for t in ts:
        pts += [t, math.nextafter(t, NEG_INF), math.nextafter(t, math.inf)]
    for a, b in zip(ts, ts[1:]):
        pts += [0.5 * (a + b), a + 0.25 * (b - a)]
    pts += [ts[0] - 1.0, ts[0] - 1e3, 0.5 * (ts[-1] + log_R)]
    if floor_edge != NEG_INF:
        pts += [floor_edge, math.nextafter(floor_edge, NEG_INF)]
    return [t for t in pts if t < log_R]


@settings(max_examples=150, deadline=None)
@given(p=profiles(), u=st.floats(0.0, 1.0), far=st.floats(-1e6, 0.0))
def test_profile_value_matches_reference_bitwise(p, u, far):
    ts = p._ts
    pts = probe_points(ts, p.log_R, p._floor_edge)
    # a drawn point inside the knot span, and one anywhere left of log_R
    pts += [ts[0] + u * (ts[-1] - ts[0]), min(p.log_R + far, math.nextafter(p.log_R, NEG_INF))]
    for t in pts:
        assert bits(p.value(t)) == bits(reference_value(p, t)), t


def test_signed_zero_tail_is_kept():
    p = signed_zero_profiles()[0]
    assert bits(p.value(-2.0)) == bits(-0.0)
    assert bits(p.value(NEG_INF)) == bits(-0.0)
    assert bits(p.value(-1.0)) == bits(-0.0)  # the tail branch owns the first knot


@pytest.mark.parametrize(
    "phi",
    default_battery() + punctured_battery() + default_battery(1.0) + punctured_battery(-0.5),
    ids=lambda phi: f"{phi.label}/{phi.log_R:g}",
)
@settings(max_examples=40, deadline=None)
@given(u=st.floats(0.0, 1.0))
def test_radial_test_function_value_matches_reference_bitwise(phi, u):
    ts = phi._ts
    pts = probe_points(ts, phi.log_R) + [phi.log_R, ts[0] + u * (ts[-1] - ts[0])]
    for t in pts:
        assert bits(phi.value(t)) == bits(reference_phi(phi, t)), t


def test_radial_test_function_rejects_nan_and_points_past_log_R():
    phi = default_battery()[0]
    with pytest.raises(OutOfDomain, match="NaN"):
        phi.value(math.nan)
    with pytest.raises(OutOfDomain, match="log_R"):
        phi.value(math.nextafter(phi.log_R, math.inf))


# -- the per-instance evaluator ---------------------------------------------


@settings(max_examples=100, deadline=None)
@given(p=profiles(), j=st.sampled_from(SCHEDULE), c=st.floats(-4.0, 0.0))
def test_clamped_copy_of_an_evaluated_profile_builds_its_own_evaluator(p, j, c):
    # the parent's evaluator exists before the copies are made, so a copy
    # that reused it would evaluate with the parent's clamp
    p.value(p._ts[0])
    for q in (p.truncate(float(j)), p.max_with_affine(0.0, c)):
        for t in probe_points(q._ts, q.log_R, q._floor_edge):
            assert bits(q.value(t)) == bits(max(reference_formula(q, t), q.floor)), t


def test_evaluated_profile_is_freed_without_the_cycle_collector():
    # an evaluator that referred to its profile would form a cycle, which
    # only the cycle collector frees
    gc.disable()
    try:
        for build in (
            lambda: make_profile([(-2.0, -1.5), (-1.0, -1.0)], FiniteValue(-1.5), 1.0),
            lambda: random_profile(np.random.default_rng(7), 0.0).truncate(2.0),
        ):
            p = build()
            p.value(-1.5)
            ref = weakref.ref(p)
            del p
            assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "p",
    [log_profile(), log_profile().truncate(4.0), power_tail_profile(0.5).truncate(16.0)]
    + signed_zero_profiles(),
)
def test_evaluated_profile_pickles_and_copies(p):
    pts = probe_points(p._ts, p.log_R, p._floor_edge)
    before = [bits(p.value(t)) for t in pts]
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p)):
        assert q == p
        assert [bits(q.value(t)) for t in pts] == before


# -- the branch order of the evaluator ---------------------------------------


def reference_closure(p):
    """The evaluator as it was built before the domain check moved last:
    one closure for every profile, testing t < log_R first and clamping
    always."""
    ts, vs, slopes = p._ts, p._vs, p._slopes
    log_R, floor = p.log_R, p.floor
    t0, v0, s0 = ts[0], vs[0], slopes[0]
    t1, v1, s1 = ts[-1], vs[-1], slopes[-1]
    left = None if s0 else p.tail.value

    def value(t: float) -> float:
        if not t < log_R:
            raise OutOfDomain("t is NaN" if math.isnan(t) else f"t={t} >= log_R={log_R}")
        if t <= t0:
            x = v0 + s0 * (t - t0) if s0 else left
        elif t >= t1:
            x = v1 + s1 * (t - t1)
        else:
            i = bisect_right(ts, t)
            x = vs[i - 1] + slopes[i] * (t - ts[i - 1])
        return floor if floor > x else x

    return value


def out_of_domain_points(log_R: float) -> list[float]:
    return [math.nan, math.inf, log_R, math.nextafter(log_R, math.inf)]


def outcome(f, t):
    """The bit pattern f returns at t, or the type and message it raises."""
    try:
        return bits(f(t))
    except OutOfDomain as exc:
        return type(exc), str(exc)


def one_knot_profiles():
    """One-knot profiles, clamped and not: the extremal profiles and the
    competitors that criterion 7 evaluates, and clamped copies of them."""
    ps = [
        make_profile([(-1.0, -1.0)], FiniteValue(-1.0), 1.0),
        make_profile([(-0.5, -0.0)], FiniteValue(-0.0), 0.0),
        log_profile(),
        log_profile(1.0),
    ]
    return ps + [p.truncate(2.0) for p in ps] + [log_profile().max_with_affine(0.0, -3.0)]


@settings(max_examples=150, deadline=None)
@given(
    p=st.one_of(profiles(), st.sampled_from(one_knot_profiles())),
    u=st.floats(0.0, 1.0),
    far=st.floats(-1e6, 0.0),
)
def test_value_matches_the_log_R_first_closure_bitwise(p, u, far):
    ref = reference_closure(p)
    ts = p._ts
    pts = probe_points(ts, p.log_R, p._floor_edge) + list(ts)
    pts += [ts[0] + u * (ts[-1] - ts[0]), min(p.log_R + far, math.nextafter(p.log_R, NEG_INF))]
    for t in pts + out_of_domain_points(p.log_R):
        assert outcome(p.value, t) == outcome(ref, t), t


@pytest.mark.parametrize(
    "p",
    one_knot_profiles()
    + [power_tail_profile(0.5), power_tail_profile(0.5).truncate(16.0)]
    + signed_zero_profiles(),
    ids=lambda p: f"{len(p._ts)}knots/floor{p.floor:g}",
)
def test_value_at_every_knot_and_outside_the_domain(p):
    ref = reference_closure(p)
    for t in p._ts:
        # the last knot of a multi-knot profile fails t < t1 and takes the
        # right line, where the reference's t >= t1 also sent it
        assert bits(p.value(t)) == bits(ref(t)), t
    for t in out_of_domain_points(p.log_R):
        with pytest.raises(OutOfDomain) as got:
            p.value(t)
        with pytest.raises(OutOfDomain) as want:
            ref(t)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_the_knot_and_clamp_cases_are_all_covered():
    # the formula's evaluator, bare and under a clamp, each with one and
    # with many knots
    cases = one_knot_profiles() + [power_tail_profile(0.5), power_tail_profile(0.5).truncate(16.0)]
    seen = {(len(p._ts) > 1, p.floor != NEG_INF) for p in cases}
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# -- one formula evaluator, shared by the clamped copies ---------------------


@pytest.mark.parametrize(
    "p",
    [
        log_profile(),
        make_profile([(-3.0, -4.0), (-1.0, -1.0)], FiniteValue(-4.0), 2.0),
        random_profile(np.random.default_rng(11), 0.0, allow_clamp=False),
    ],
    ids=["log", "bounded", "random"],
)
def test_clamped_copies_share_the_formula_evaluator(p):
    assert p.floor == NEG_INF and p.value is p._formula
    copies = [p.truncate(2.0), p.truncate(2.0).truncate(1.0), p.max_with_affine(0.0, -0.5)]
    for q in copies:
        assert q.floor != NEG_INF
        assert q._formula is p._formula
        assert q.value is not p._formula


@pytest.mark.parametrize(
    "p", [log_profile(), log_profile().truncate(4.0)], ids=["bare", "clamped"]
)
def test_pickling_or_copying_drops_the_evaluators(p):
    pts = probe_points(p._ts, p.log_R, p._floor_edge)
    before = [bits(p.value(t)) for t in pts]
    assert {"value", "_formula"} <= vars(p).keys()
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert not {"value", "_formula"} & vars(q).keys()
        assert [bits(q.value(t)) for t in pts] == before
        assert q._formula is not p._formula
        assert q.truncate(1.0)._formula is q._formula
