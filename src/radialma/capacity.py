"""Relative extremal profiles and Monge-Ampere capacities.

For a radial compact K inside the ball of radius R the relative
extremal function u_K = sup{u psh, u <= 0, u <= -1 on K} is again
radial, with a convex nondecreasing profile: the largest convex
nondecreasing minorant of the obstacle that is -1 on K and 0 at log R.
The capacity is the Monge-Ampere mass the extremal profile puts on K.

For interval unions only the rightmost edge b of K matters: the
envelope is -1 on (-inf, b] and the chord to (log R, 0) after, so
cap(K) = (2*pi / (log R - b))^n.  The construction below still runs a
lower convex hull over the obstacle vertices followed by the monotone
correction, and tests pin the closed form against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CompactTouchesBoundary, EmptyCompact, MassOverflow
from .measures import RadialMeasure, ma_measure
from .profiles import (
    ConvexProfile,
    FiniteValue,
    RadialCompact,
    NEG_INF,
)
from .series import DiagnosticSeries, build_series, geometric_schedule


@dataclass(frozen=True)
class ExtremalResult:
    """Extremal profile of a compact, its measure, and the capacity."""

    compact: RadialCompact
    n: int
    profile: ConvexProfile
    measure: RadialMeasure
    capacity: float


def _lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull of points sorted by x (monotone chain)."""
    hull: list[tuple[float, float]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep strictly right turns; collinear middle points drop out
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def extremal_profile(K: RadialCompact, log_R: float = 0.0) -> ConvexProfile:
    """Profile of the relative extremal function of K in the R-ball.

    Lower convex hull of the obstacle vertices {(t, -1) : t endpoint of
    K} together with (log_R, 0), then the monotone correction: left of
    the last contact at height -1 the profile stays -1.
    """
    if K.is_empty:
        raise EmptyCompact("extremal profile needs a nonempty compact")
    if K.sup >= log_R:
        raise CompactTouchesBoundary(
            f"compact reaches t={K.sup} >= log_R={log_R}"
        )
    points = []
    for a, b in K.intervals:
        if a != NEG_INF and (not points or points[-1][0] != a):
            points.append((a, -1.0))
        if not points or points[-1][0] != b:
            points.append((b, -1.0))
    points.append((log_R, 0.0))
    hull = _lower_hull(points)
    # monotone correction: flat at -1 up to the last contact
    contact = max(t for t, v in hull if v == -1.0)
    rising = [(t, v) for t, v in hull if t > contact and t < log_R]
    bps = ((contact, -1.0),) + tuple(rising)
    last_t, last_v = bps[-1]
    final = (0.0 - last_v) / (log_R - last_t)
    return ConvexProfile(bps, FiniteValue(-1.0), final, log_R)


def extremal(K: RadialCompact, log_R: float, n: int) -> ExtremalResult:
    """Extremal profile, its Monge-Ampere measure, and cap_n(K)."""
    profile = extremal_profile(K, log_R)
    measure = ma_measure(profile, n)
    return ExtremalResult(K, n, profile, measure, measure.mass_on(K))


def capacity(K: RadialCompact, log_R: float, n: int) -> float:
    """Monge-Ampere capacity of K relative to the ball of radius e^log_R.

    The empty set has capacity 0; a compact touching the boundary raises
    CompactTouchesBoundary.
    """
    if K.is_empty:
        return 0.0
    return extremal(K, log_R, n).capacity


def _condition_series(
    profile: ConvexProfile,
    n: int,
    set_at_level,
    index_name: str,
    schedule,
) -> DiagnosticSeries:
    entries = []
    touched = 0
    for j in schedule:
        K = set_at_level(float(-j))
        if K.is_empty:
            entries.append((j, 0.0))
            continue
        if K.sup >= profile.log_R:
            # the set fills the ball: no extremal profile, record inf
            entries.append((j, math.inf))
            touched += 1
            continue
        try:
            scale = float(j) ** n
        except OverflowError:
            raise MassOverflow(f"j^n overflows at j={j}, n={n}") from None
        entries.append((j, scale * capacity(K, profile.log_R, n)))
    return build_series(
        index_name,
        entries,
        extra_metadata={"boundary_touching_entries": touched, "n": n},
    )


def condition_sublevel(
    profile: ConvexProfile,
    n: int,
    schedule=None,
) -> DiagnosticSeries:
    """Series j^n * cap_n({u <= -j}) over the schedule, with its flag.

    This is the hypothesis under which the truncated Monge-Ampere
    measures converge to the nonpolar part; the converse fails (the log
    profile yields the constant (2*pi)^n).
    """
    if schedule is None:
        schedule = geometric_schedule()
    return _condition_series(profile, n, profile.sublevel, "j", schedule)


def condition_level(
    profile: ConvexProfile,
    n: int,
    schedule=None,
) -> DiagnosticSeries:
    """Series j^n * cap_n({u == -j}) over the schedule, with its flag."""
    if schedule is None:
        schedule = geometric_schedule()
    return _condition_series(profile, n, profile.level_set, "j", schedule)
