"""Relative extremal profiles and Monge-Ampere capacities.

For a radial compact K inside the ball of radius R the relative
extremal function u_K = sup{u psh, u <= 0, u <= -1 on K} is again
radial, with a convex nondecreasing profile: the largest convex
nondecreasing minorant of the obstacle that is -1 on K and 0 at log R.
The capacity is the Monge-Ampere mass the extremal profile puts on K.

For interval unions only the rightmost edge b of K matters: every
obstacle vertex sits at height -1, so the envelope is -1 on (-inf, b]
and the chord to (log R, 0) after, and cap(K) = (2*pi / (log R - b))^n.
``extremal_profile`` builds that one-knot profile directly, and
``capacity`` returns the closed form itself, which is the extremal
measure's one atom bit for bit; property tests pin both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MassOverflow
from .measures import RadialMeasure, _check_dimension, _mass, ma_measure
from .profiles import ConvexProfile, FiniteValue, RadialCompact, _check_level, _interval_compact
from .series import DEFAULT_SCHEDULE, DiagnosticSeries, build_series


@dataclass(frozen=True)
class ExtremalResult:
    """Extremal profile of a compact, its measure, and the capacity."""

    compact: RadialCompact
    n: int
    profile: ConvexProfile
    measure: RadialMeasure
    capacity: float


def extremal_profile(K: RadialCompact, log_R: float = 0.0) -> ConvexProfile:
    """Profile of the relative extremal function of K in the R-ball.

    Flat at -1 up to b = K.sup, then the chord of slope 1 / (log_R - b)
    to (log_R, 0).
    """
    K.require_inside(log_R)
    b = K.sup
    return ConvexProfile(((b, -1.0),), FiniteValue(-1.0), 1.0 / (log_R - b), log_R)


def extremal(K: RadialCompact, log_R: float, n: int) -> ExtremalResult:
    """Extremal profile, its Monge-Ampere measure, and cap_n(K)."""
    profile = extremal_profile(K, log_R)
    measure = ma_measure(profile, n)
    return ExtremalResult(K, n, profile, measure, measure.mass_on(K))


def capacity(K: RadialCompact, log_R: float, n: int) -> float:
    """Monge-Ampere capacity of K relative to the ball of radius e^log_R.

    The empty set has capacity 0; a compact touching the boundary raises
    CompactTouchesBoundary.  The value is the mass (2*pi*s)^n of the
    extremal measure's one atom, s = 1 / (log_R - K.sup), computed as
    ``ma_measure`` computes it, so it equals ``extremal(...).capacity``
    bit for bit.
    """
    _check_dimension(n)
    if K.is_empty:
        return 0.0
    K.require_inside(log_R)
    return _mass(n, 1.0 / (log_R - K.sup))


def _condition_series(
    profile: ConvexProfile,
    n: int,
    set_bounds,
    schedule,
) -> DiagnosticSeries:
    """j^n * cap_n(set at level -j) over the schedule, inf where the
    set fills the ball.

    ``set_bounds`` is the profile's private helper behind ``sublevel``
    or ``level_set``: it gives the set's one interval, or None when the
    set is empty.  Only the set's sup decides its capacity, so each
    entry is ``j**n * _mass(n, 1.0 / (log_R - sup))``, the float
    ``capacity`` returns, with no compact built.  Each j is checked
    before its set is read: a j that is not positive, NaN included,
    raises the truncation ladder's ValueError, as ``truncation_analysis``
    does over the same schedule.  At j = inf a profile unbounded below
    leaves only the origin, which raises the ValueError ``sublevel`` and
    ``level_set`` raise at -inf; a profile cannot carry a NaN log_R.
    """
    _check_dimension(n)
    log_R = profile.log_R
    entries = []
    touched = 0
    for j in schedule:
        # the same test _check_level makes, here only to save it a call
        # per level on the normal path
        if not j > 0.0:
            _check_level(float(j))
        bounds = set_bounds(float(-j))
        if bounds is None:
            entries.append((j, 0.0))
            continue
        sup = bounds[1]
        if not math.isfinite(sup):
            _interval_compact(bounds, float(-j))  # the origin alone: raises
        if sup >= log_R:
            # the set fills the ball: no extremal profile, record inf
            entries.append((j, math.inf))
            touched += 1
            continue
        try:
            scale = float(j) ** n
        except OverflowError:
            raise MassOverflow(f"j^n overflows at j={j}, n={n}") from None
        entries.append((j, scale * _mass(n, 1.0 / (log_R - sup))))
    return build_series(
        "j",
        entries,
        extra_metadata={"boundary_touching_entries": touched, "n": n},
    )


def condition_sublevel(
    profile: ConvexProfile,
    n: int,
    schedule=DEFAULT_SCHEDULE,
) -> DiagnosticSeries:
    """Series j^n * cap_n({u <= -j}) over the schedule, with its flag.

    This is the hypothesis under which the truncated Monge-Ampere
    measures converge to the nonpolar part; the converse fails (the log
    profile yields the constant (2*pi)^n).
    """
    return _condition_series(profile, n, profile._sublevel_bounds, schedule)


def condition_level(
    profile: ConvexProfile,
    n: int,
    schedule=DEFAULT_SCHEDULE,
) -> DiagnosticSeries:
    """Series j^n * cap_n({u == -j}) over the schedule, with its flag."""
    return _condition_series(profile, n, profile._level_bounds, schedule)
