"""Profile families, test-function batteries, and randomized generators.

The profiles of log ||z||, max(log ||z||, c) and max(a log ||z||, b)
are piecewise linear and built exactly.  PowerTail(alpha) is the
profile -(-t)^alpha: ``sample_analytic`` samples it on a grid with a
node-wise convexity check, and ``power_tail_profile`` places its knots
on a geometric value ladder from -2^-6 down to -1024, four per octave,
so the clamp levels -1, -2, -4, ..., -1024 of the doubling truncation
schedule land exactly on knots and the deepest knot value is exactly
the schedule's bottom.

The default exhaustion and batteries are immutable tuples that every
harness call asks for, so each is built once per ``log_R`` and shared.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvexityViolation,
    MonotonicityViolation,
    NotConvexOnGrid,
    OutOfDomain,
)
from .measures import RadialTestFunction, annular_plateau, hat
from .profiles import (
    ConvexProfile,
    FiniteValue,
    MinusInfinity,
    RadialCompact,
    closed_ball,
    make_compact,
    make_profile,
)


@dataclass(frozen=True)
class PowerTail:
    """chi(t) = -(-t)^alpha for t < 0, with 0 < alpha < 1."""

    alpha: float


def log_profile(log_R: float = 0.0) -> ConvexProfile:
    anchor = log_R - 1.0
    return make_profile(((anchor, anchor),), MinusInfinity(1.0), 1.0, log_R)


def max_const_profile(c: float, log_R: float = 0.0) -> ConvexProfile:
    """Profile of max(log ||z||, c); constant when the kink is outside."""
    return linear_cap_profile(1.0, c, log_R)


def constant_profile(c: float, log_R: float = 0.0) -> ConvexProfile:
    return make_profile(((log_R - 1.0, c),), FiniteValue(c), 0.0, log_R)


def linear_cap_profile(a: float, b: float, log_R: float = 0.0) -> ConvexProfile:
    """Profile of max(a * log ||z||, b); constant b when a = 0."""
    if a < 0.0:
        raise MonotonicityViolation(f"LinearCap slope must be >= 0, got {a}")
    if a == 0.0 or b >= a * log_R:
        # the line never beats b inside the ball
        return constant_profile(b, log_R)
    return make_profile(((b / a, b),), FiniteValue(b), a, log_R)


def sample_analytic(family: PowerTail, grid) -> ConvexProfile:
    """Piecewise-linear sample of PowerTail on the unit ball.

    The grid must be a strictly increasing sequence of negative t; the
    samples are checked node-wise for convexity and the final slope
    continues the analytic tangent at the last node.
    """
    alpha = family.alpha
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"PowerTail needs 0 < alpha < 1, got {alpha}")
    ts = [float(t) for t in grid]
    if not ts or any(t >= 0.0 for t in ts):
        raise ValueError("PowerTail grid must be negative")
    pairs = tuple((t, -((-t) ** alpha)) for t in ts)
    final = alpha * (-ts[-1]) ** (alpha - 1.0)
    try:
        return make_profile(pairs, FiniteValue(pairs[0][1]), final)
    except ConvexityViolation as exc:
        raise NotConvexOnGrid(str(exc)) from exc


def power_tail_profile(alpha: float, log_R: float = 0.0) -> ConvexProfile:
    """PowerTail profile with knots on a geometric value ladder.

    Knot values are -2^(m/4), four per octave, from -2^-6 down to
    exactly -1024, at positions t = -(-v)^(1/alpha).  Truncation at any
    power-of-two level up to 1024 then clamps exactly at a knot, and the
    minimum equals -1024 exactly, so the truncation sequence stabilizes
    with zero error once the level passes 1024.

    The knots ignore log_R, so OutOfDomain is raised when the top knot
    -(2^-6)^(1/alpha) is not left of log_R, and when alpha is so small
    that the deepest knot -1024^(1/alpha) is not a float.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    inv = 1.0 / alpha
    pairs = []
    try:
        for m in range(40, -25, -1):  # v from -2^10 up to -2^-6
            v = -(2.0 ** (m / 4))
            t = -((-v) ** inv)
            pairs.append((t, v))
    except OverflowError:
        raise OutOfDomain(
            f"alpha={alpha:g} puts the deepest knot -1024^(1/alpha) "
            "beyond the float range"
        ) from None
    if not pairs[-1][0] < log_R:
        raise OutOfDomain(
            f"log_R={log_R:g} is not right of the top knot t={pairs[-1][0]:g}"
        )
    final = alpha * (-pairs[-1][0]) ** (alpha - 1.0)
    return make_profile(pairs, FiniteValue(pairs[0][1]), final, log_R)


# -- compacts and exhaustions ------------------------------------------


@functools.lru_cache(maxsize=32)
def standard_exhaustion(log_R: float = 0.0) -> tuple[RadialCompact, ...]:
    """Six increasing closed balls exhausting the domain."""
    return tuple(closed_ball(log_R - 4.0 * 2.0**-i) for i in range(6))


def random_compact(rng: np.random.Generator, log_R: float = 0.0) -> RadialCompact:
    """1 to 3 well-separated intervals, sometimes starting with a ball."""
    pieces = int(rng.integers(1, 4))
    gaps = rng.uniform(0.1, 1.4, size=2 * pieces)
    edges = (log_R - 0.2) - np.cumsum(gaps)[::-1]
    intervals = [(edges[2 * i], edges[2 * i + 1]) for i in range(pieces)]
    if rng.random() < 0.4:
        a, b = intervals[0]
        intervals[0] = (float("-inf"), b)
    if rng.random() < 0.2:
        a, b = intervals[-1]
        intervals[-1] = (b, b)  # degenerate sphere
    return make_compact(intervals)


# -- randomized profiles -----------------------------------------------


def _dyadic(x, bits: int):
    """Round to a multiple of 2**-bits; keeps generated data exact."""
    scale = float(2**bits)
    return np.round(np.asarray(x, dtype=float) * scale) / scale


def random_profile(
    rng: np.random.Generator,
    log_R: float = 0.0,
    bounded: bool | None = None,
    lattice: float | None = None,
    allow_clamp: bool = True,
) -> ConvexProfile:
    """Seeded random convex nondecreasing profile with 1 to 6 knots.

    ``bounded`` forces the left end kind (None draws it).  With
    ``lattice`` = h the knots sit on {log_R - 1/4 - k*h}, so a grid
    built on the same lattice hits every knot exactly (h should be
    dyadic).  Occasional zero slope increments produce flat pieces and
    collinear knots on purpose.  Gaps, slopes and values are drawn as
    dyadic rationals so chord slopes recompute exactly and collinear
    runs survive the convexity validation bit for bit.
    """
    if bounded is None:
        bounded = bool(rng.random() < 0.5)
    for _ in range(32):
        m = int(rng.integers(1, 7))
        hi = log_R - 0.25
        if lattice is not None:
            steps = rng.choice(np.arange(1, int(8.0 / lattice)), size=m, replace=False)
            ts = np.sort(hi - lattice * steps.astype(float))
        else:
            offsets = np.cumsum(_dyadic(rng.uniform(0.2, 1.4, size=m), 10))
            ts = hi - offsets[::-1]
        tail_slope = 0.0 if bounded else float(_dyadic(rng.uniform(0.05, 1.5), 12))
        incs = _dyadic(rng.uniform(0.0, 1.2, size=m), 12)
        incs[rng.random(m) < 0.3] = 0.0
        if not bounded:
            incs[0] = max(incs[0], 0.05)  # keep the first chord above the tail
        run = tail_slope + np.cumsum(incs)  # chord slopes then the final slope
        v0 = float(_dyadic(rng.uniform(-6.0, -0.5), 12))
        vs = [v0]
        for i in range(1, m):
            vs.append(vs[-1] + float(run[i - 1]) * float(ts[i] - ts[i - 1]))
        left = FiniteValue(v0) if bounded else MinusInfinity(tail_slope)
        try:
            profile = make_profile(
                tuple(zip(map(float, ts), vs)), left, float(run[-1]), log_R
            )
        except ConvexityViolation:
            # possible only for non-dyadic log_R, where knot differences
            # reintroduce rounding; redraw
            continue
        if allow_clamp and rng.random() < 0.25:
            level = float(_dyadic(rng.uniform(0.5, 4.0), 8))
            if -level > profile.left_value:
                profile = profile.truncate(level)
        return profile
    raise ConvexityViolation("could not draw a convex profile in 32 attempts")


# -- test function batteries -------------------------------------------


@functools.lru_cache(maxsize=32)
def default_battery(log_R: float = 0.0) -> tuple[RadialTestFunction, ...]:
    """16 test functions at geometric scales below the boundary.

    Annular plateaus and hats only: all of them vanish at the origin, so
    pairings see exactly the nonpolar mass of an atomic limit measure
    and never the origin atom.
    """
    out = []
    for i in range(-2, 6):
        c = -(2.0**i)
        out.append(
            annular_plateau(
                log_R + 4.0 * c,
                log_R + 2.0 * c,
                log_R + c,
                log_R + c / 2.0,
                log_R,
                label=f"plateau@{c:g}",
            )
        )
    for i in range(-2, 6):
        c = -(2.0**i)
        out.append(
            hat(log_R + 2.0 * c, log_R + c, log_R + c / 2.0, log_R, label=f"hat@{c:g}")
        )
    return tuple(out)


@functools.lru_cache(maxsize=32)
def punctured_battery(log_R: float = 0.0) -> tuple[RadialTestFunction, ...]:
    """16 hats vanishing near the origin (support away from 0)."""
    out = []
    for i in range(-2, 6):
        c = -(2.0**i)
        out.append(
            hat(log_R + 2.0 * c, log_R + c, log_R + c / 2.0, log_R, label=f"hat@{c:g}")
        )
        out.append(
            hat(log_R + 2.0 * c, log_R + 1.5 * c, log_R + c, log_R, label=f"hat2@{c:g}")
        )
    return tuple(out)
