"""Exact calculus of convex nondecreasing piecewise-linear radial profiles.

A radial plurisubharmonic function u on the ball {||z|| < R} of C^n is
u(z) = chi(log ||z||) with chi convex and nondecreasing on (-inf, log R).
This module holds chi itself: construction, evaluation, clamping from
below, maxima with affine functions, sublevel and level sets, one-sided
slopes, and JSON round-trips.  Everything is closed-form float
arithmetic on the breakpoint data; nothing is discretized.

A profile is stored as an underlying piecewise-linear formula (knots
plus two tail slopes) together with a clamp value ``floor``; the profile
is max(formula, floor).  Truncation max(chi, -j) therefore only replaces
the clamp and never touches the knots, which keeps repeated truncations
and the derived measures bitwise reproducible.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CompactTouchesBoundary,
    ConvexityViolation,
    EmptyCompact,
    MonotonicityViolation,
    OutOfDomain,
    UnorderedBreakpoints,
)

NEG_INF = float("-inf")

# formula-level state that a clamped copy shares with its parent
_FORMULA_STATE = (
    "breakpoints",
    "tail",
    "final_slope",
    "log_R",
    "_slopes",
    "_ts",
    "_vs",
    "knot_slopes",
    "_knot_atom_tables",
    "_formula",
)


def _check_floor(floor: float) -> None:
    if math.isnan(floor) or floor == math.inf:
        raise ValueError("floor must be a float or -inf")


def _check_level(j: float) -> None:
    if not j > 0.0:
        raise ValueError(f"truncation level j must be positive, got {j}")


def _check_schedule(schedule) -> None:
    if len(schedule) == 0:
        raise ValueError("a schedule needs at least one truncation level j")


def _check_set_level(s: float) -> None:
    if math.isnan(s):
        raise ValueError(f"level s must not be NaN, got {s}")


def _out_of_domain(t: float, log_R: float) -> OutOfDomain:
    if math.isnan(t):
        return OutOfDomain("t is NaN")
    return OutOfDomain(f"t={t} >= log_R={log_R}")


@dataclass(frozen=True)
class FiniteValue:
    """Left tail is constant: chi(t) = value for all t <= first breakpoint."""

    value: float


@dataclass(frozen=True)
class MinusInfinity:
    """Left tail is linear with slope > 0, so chi decreases to -inf."""

    slope: float


LeftEnd = FiniteValue | MinusInfinity


@dataclass(frozen=True)
class RadialCompact:
    """Finite union of closed intervals in the log radius t = log ||z||.

    An interval (-inf, b] encodes the closed ball of radius e^b, [a, a]
    a sphere, and [a, b] with finite a a closed annulus.  Intervals are
    stored sorted and pairwise disjoint with strict gaps.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_b = NEG_INF
        for i, (a, b) in enumerate(self.intervals):
            if not a <= b:
                raise ValueError(f"interval {i}: need a <= b, got ({a}, {b})")
            if math.isinf(b):
                if b < 0.0:
                    raise ValueError(
                        f"interval {i}: right end -inf leaves only the origin"
                    )
                raise ValueError(f"interval {i}: endpoints must be < +inf")
            if i > 0 and not prev_b < a:
                raise ValueError("intervals must be disjoint and sorted")
            prev_b = b

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def contains_origin(self) -> bool:
        return bool(self.intervals) and self.intervals[0][0] == NEG_INF

    @property
    def sup(self) -> float:
        """Rightmost point; NEG_INF for the empty set."""
        return self.intervals[-1][1] if self.intervals else NEG_INF

    def require_inside(self, log_R: float) -> None:
        """Raise unless the compact is nonempty and ends before log_R:
        only then does it have a relative extremal function."""
        if math.isnan(log_R):
            raise OutOfDomain("log_R is NaN")
        if not self.intervals:
            raise EmptyCompact("the relative extremal function needs a nonempty compact")
        if self.sup >= log_R:
            raise CompactTouchesBoundary(
                f"compact reaches t={self.sup} >= log_R={log_R}"
            )

    def contains(self, t: float) -> bool:
        for a, b in self.intervals:
            if a <= t <= b:
                return True
        return False

    def intersect(self, other: "RadialCompact") -> "RadialCompact":
        out = []
        for a1, b1 in self.intervals:
            for a2, b2 in other.intervals:
                lo, hi = max(a1, a2), min(b1, b2)
                if lo <= hi:
                    out.append((lo, hi))
        return make_compact(out)

    def union(self, other: "RadialCompact") -> "RadialCompact":
        return make_compact(list(self.intervals) + list(other.intervals))

    def subset_of(self, other: "RadialCompact") -> bool:
        return self.intersect(other).intervals == self.intervals

    def to_json_dict(self) -> dict:
        return {
            "intervals": [
                [None if a == NEG_INF else a, b] for a, b in self.intervals
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RadialCompact":
        ivs = [
            (NEG_INF if a is None else float(a), float(b))
            for a, b in data["intervals"]
        ]
        return cls(tuple(ivs))


def make_compact(intervals) -> RadialCompact:
    """Sort and merge overlapping or touching intervals."""
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    merged: list[tuple[float, float]] = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            pa, pb = merged[-1]
            merged[-1] = (pa, max(pb, b))
        else:
            merged.append((a, b))
    return RadialCompact(tuple(merged))


def _interval_compact(bounds: tuple[float, float] | None, s: float) -> RadialCompact:
    """The compact holding the set at level s, or the empty one for None;
    (-inf, -inf), the origin alone at s = -inf, raises ValueError."""
    if bounds is not None and bounds[1] == NEG_INF:
        raise ValueError(f"level s={s} leaves only the origin, which is no compact")
    return empty_compact() if bounds is None else RadialCompact((bounds,))


def closed_ball(b: float) -> RadialCompact:
    """Closed ball {||z|| <= e^b} as a radial compact."""
    return RadialCompact(((NEG_INF, float(b)),))


def annulus(a: float, b: float) -> RadialCompact:
    return RadialCompact(((float(a), float(b)),))


def sphere(t: float) -> RadialCompact:
    return RadialCompact(((float(t), float(t)),))


def empty_compact() -> RadialCompact:
    return RadialCompact(())


@dataclass(frozen=True)
class ConvexProfile:
    """Convex nondecreasing piecewise-linear profile on (-inf, log_R).

    ``breakpoints`` is a strictly increasing tuple of (t, chi(t)) knots
    of the underlying formula, all with t < log_R.  Left of the first
    knot the formula follows ``tail`` (a constant, or a line of positive
    slope going to -inf); right of the last knot it is linear with slope
    ``final_slope``.  The profile itself is max(formula, floor); a floor
    of -inf means no clamp is active.  Instances are immutable and safe
    to share across threads: their lazily filled caches depend only on
    the formula, and clamped copies share them with the profile they
    were clamped from, the formula's point evaluator included.  The
    point evaluator ``value`` applies this instance's own clamp on top
    of it.  Two threads evaluating a fresh profile at once may both
    build an evaluator; the two are equal, and one of them is kept.
    """

    breakpoints: tuple[tuple[float, float], ...]
    tail: LeftEnd
    final_slope: float
    log_R: float = 0.0
    floor: float = NEG_INF

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if not bps:
            raise ValueError("need at least one breakpoint")
        if not self.log_R < math.inf:
            # every comparison with NaN is false, so the knot check below
            # would let it through; at +inf the ball has no boundary
            what = "not be NaN" if math.isnan(self.log_R) else "be finite"
            raise ValueError(f"log_R must {what}")
        for t, v in bps:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError("breakpoints must be finite")
            if t >= self.log_R:
                raise ValueError(f"breakpoint t={t} not < log_R={self.log_R}")
        for i in range(1, len(bps)):
            if not bps[i - 1][0] < bps[i][0]:
                raise UnorderedBreakpoints(
                    f"t[{i - 1}]={bps[i - 1][0]} !< t[{i}]={bps[i][0]}"
                )
        if not math.isfinite(self.final_slope):
            # every comparison with NaN is false, so the checks below
            # would let a NaN slope through
            raise MonotonicityViolation(
                f"final slope must be finite, got {self.final_slope}"
            )
        slopes = self._slopes
        for i, s in enumerate(slopes):
            if s < 0.0:
                raise MonotonicityViolation(f"segment {i} has slope {s} < 0")
        for i in range(1, len(slopes)):
            if slopes[i] < slopes[i - 1]:
                raise ConvexityViolation(
                    f"slope drops from {slopes[i - 1]} to {slopes[i]} "
                    f"at segment {i}"
                )
        le = self.tail
        if isinstance(le, FiniteValue):
            if not math.isfinite(le.value):
                raise ValueError("FiniteValue must carry a finite value")
            if le.value != bps[0][1]:
                raise ConvexityViolation(
                    "left end value must equal the first breakpoint value "
                    f"({le.value} != {bps[0][1]})"
                )
        elif isinstance(le, MinusInfinity):
            if le.slope <= 0.0 or not math.isfinite(le.slope):
                raise MonotonicityViolation(
                    "MinusInfinity slope must be positive and finite; "
                    "use FiniteValue for a bounded left tail"
                )
        else:
            raise TypeError(f"unknown left end {le!r}")
        _check_floor(self.floor)
        # canonical form: drop a clamp that never bites
        if self.floor != NEG_INF and self.floor <= self._formula_left_value():
            object.__setattr__(self, "floor", NEG_INF)

    # -- formula-level helpers (clamp ignored) --------------------------

    @cached_property
    def _slopes(self) -> tuple[float, ...]:
        """Formula slopes in order: tail, each chord, final."""
        bps = self.breakpoints
        run = [self._tail_slope]
        for i in range(1, len(bps)):
            (t0, v0), (t1, v1) = bps[i - 1], bps[i]
            run.append((v1 - v0) / (t1 - t0))
        run.append(self.final_slope)
        return tuple(run)

    @cached_property
    def _ts(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.breakpoints)

    @cached_property
    def _vs(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.breakpoints)

    def _formula_left_value(self) -> float:
        if isinstance(self.tail, FiniteValue):
            return self.tail.value
        return NEG_INF

    @property
    def _tail_slope(self) -> float:
        return self.tail.slope if isinstance(self.tail, MinusInfinity) else 0.0

    def _formula_boundary_limit(self) -> float:
        t, v = self.breakpoints[-1]
        return v + self.final_slope * (self.log_R - t)

    def _formula_right_slope(self, t: float) -> float:
        # _slopes[i] is the slope on [ts[i - 1], ts[i]), the tails included
        return self._slopes[bisect_right(self._ts, t)]

    def _crossing(self, k: int, s: float) -> float:
        """Where the formula segment right of knot k (k = -1: the left
        tail) reaches level s.

        One fixed interpolation formula anchored at a stored knot, with
        the cached segment slope, so repeated queries at the same level
        agree bitwise.
        """
        i = k if k > 0 else 0
        return self._ts[i] + (s - self._vs[i]) / self._slopes[k + 1]

    def _formula_sublevel_edge(self, s: float) -> float | None:
        """sup{t : formula(t) <= s}, None when empty, log_R when total.

        The crossing sits on the segment right of the last knot with
        value <= s (-1: the left tail).  The formula is nondecreasing, so
        the set can be empty only when s is below the first knot value,
        and total only when it is not below the last.
        """
        vs = self._vs
        k = bisect_right(vs, s) - 1
        if k < 0 and isinstance(self.tail, FiniteValue):
            return None
        if k == len(vs) - 1 and self._formula_boundary_limit() <= s:
            return self.log_R
        return self._crossing(k, s)

    @cached_property
    def _floor_edge(self) -> float:
        """Where the active clamp releases; NEG_INF when no clamp."""
        if self.floor == NEG_INF:
            return NEG_INF
        edge = self._formula_sublevel_edge(self.floor)
        assert edge is not None  # canonical form guarantees floor > inf chi
        return edge

    @cached_property
    def knot_slopes(self) -> tuple[tuple[float, float, float], ...]:
        """Per-knot (t, slope_before, slope_after) triples of the formula."""
        run = self._slopes
        return tuple(
            (t, run[i], run[i + 1]) for i, (t, _) in enumerate(self.breakpoints)
        )

    @cached_property
    def _knot_atom_tables(self) -> dict:
        """Per-n knot-atom tables of the formula, filled by ``ma_measure``.

        An entry depends only on the formula and n, so it is the same
        whichever clamped copy fills it first.
        """
        return {}

    # -- profile-level interface (clamp applied) ------------------------

    @property
    def left_end(self) -> LeftEnd:
        """The profile's own left tail, clamp included."""
        if self.floor != NEG_INF:
            return FiniteValue(self.floor)
        return self.tail

    @property
    def left_value(self) -> float:
        """chi(-inf): the infimum of the profile."""
        if self.floor != NEG_INF:
            return self.floor
        return self._formula_left_value()

    @property
    def left_slope(self) -> float:
        """Asymptotic slope at -inf; 0 whenever the profile is bounded."""
        if self.floor != NEG_INF:
            return 0.0
        return self._tail_slope

    @property
    def boundary_limit(self) -> float:
        """lim chi(t) as t -> log_R from the left."""
        return max(self._formula_boundary_limit(), self.floor)

    @cached_property
    def _formula(self):
        """The formula's point evaluator, clamp ignored: a closure over
        the knot tuples, the end knots and slopes, held in plain locals.

        Its branches run in this order: t <= t0 (the first knot) takes
        the left tail, t < t1 (the last knot) the bisected chord, t <
        log_R the line right of t1.  NaN and every t >= log_R fail all
        three tests and reach the final raise, so the domain check costs
        nothing on the way to a value.  The chord slope comes from
        ``_slopes``, not a per-call division.  It holds no reference to
        the profile, so an evaluated profile is freed as soon as its
        last reference goes.
        """
        ts, vs, slopes = self._ts, self._vs, self._slopes
        log_R = self.log_R
        t0, v0, s0 = ts[0], vs[0], slopes[0]
        t1, v1, s1 = ts[-1], vs[-1], slopes[-1]
        # a zero tail slope means a FiniteValue tail, whose own value is
        # returned (it may differ from v0 in the sign of zero)
        left = None if s0 else self.tail.value

        def formula(t: float) -> float:
            if t <= t0:
                return v0 + s0 * (t - t0) if s0 else left
            if t < t1:
                i = bisect_right(ts, t)
                return vs[i - 1] + slopes[i] * (t - ts[i - 1])
            if t < log_R:
                return v1 + s1 * (t - t1)
            raise _out_of_domain(t, log_R)

        return formula

    @cached_property
    def value(self):
        """Evaluate chi(t).  Accepts t = -inf; raises OutOfDomain at log_R
        and for NaN.

        ``p.value`` is the formula's evaluator ``_formula`` when no clamp
        is active, and otherwise a closure that applies this profile's
        floor on top of it with ``floor if floor > x else x``, the
        comparison ``max`` makes, so signed zeros come out as
        max(formula(t), floor) gives them.
        """
        formula, floor = self._formula, self.floor
        if floor == NEG_INF:
            return formula

        def clamped(t: float) -> float:
            x = formula(t)
            return floor if floor > x else x

        return clamped

    def __getstate__(self) -> dict:
        # the evaluators are closures, which do not pickle; a copy or an
        # unpickled profile builds its own on first use
        state = dict(vars(self))
        state.pop("value", None)
        state.pop("_formula", None)
        return state

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of t < log_R; NaN is rejected."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and not float(ts.max()) < self.log_R:
            if np.isnan(ts).any():
                raise OutOfDomain("grid contains NaN")
            raise OutOfDomain("grid reaches log_R")
        xp = np.array(self._ts)
        fp = np.array(self._vs)
        out = np.interp(ts, xp, fp)
        left = ts < xp[0]
        if left.any():
            if isinstance(self.tail, FiniteValue):
                out[left] = self.tail.value
            else:
                out[left] = fp[0] + self.tail.slope * (ts[left] - xp[0])
        right = ts > xp[-1]
        if right.any():
            out[right] = fp[-1] + self.final_slope * (ts[right] - xp[-1])
        if self.floor != NEG_INF:
            np.maximum(out, self.floor, out=out)
        return out

    def right_slope(self, t: float) -> float:
        """One-sided derivative chi'(t+).  At -inf returns the tail slope."""
        if not t < self.log_R:
            raise _out_of_domain(t, self.log_R)
        # -inf lies in the clamp even where its release overflows to -inf
        if self.floor != NEG_INF and (t < self._floor_edge or t == NEG_INF):
            return 0.0
        return self._formula_right_slope(t)

    def shift(self, c: float) -> "ConvexProfile":
        """chi + c; the Monge-Ampere data is unchanged."""
        if not math.isfinite(c):
            raise ValueError("shift must be finite")
        bps = tuple((t, v + c) for t, v in self.breakpoints)
        le = self.tail
        if isinstance(le, FiniteValue):
            le = FiniteValue(le.value + c)
        return ConvexProfile(bps, le, self.final_slope, self.log_R, self.floor + c)

    def sublevel(self, s: float) -> RadialCompact:
        """{chi <= s} as a radial compact; (-inf, edge] or empty.

        The edge equals log_R when the whole profile sits at or below s;
        the result then touches the boundary and has no extremal profile.
        A NaN level, or -inf on a profile unbounded below, raises ValueError.
        """
        _check_set_level(s)
        return _interval_compact(self._sublevel_bounds(s), s)

    def _sublevel_bounds(self, s: float) -> tuple[float, float] | None:
        """The interval ``sublevel(s)`` holds, or None when it is empty."""
        if s < self.floor:
            return None
        edge = self._formula_sublevel_edge(s)
        if edge is None:
            return None
        return (NEG_INF, edge)

    def level_set(self, s: float) -> RadialCompact:
        """{chi == s}: empty, a sphere, a closed annulus, or a closed ball.
        A NaN level, or -inf on a profile unbounded below, raises ValueError."""
        _check_set_level(s)
        return _interval_compact(self._level_bounds(s), s)

    def _level_bounds(self, s: float) -> tuple[float, float] | None:
        """The interval ``level_set(s)`` holds, or None when it is empty.

        hi is the sublevel edge.  lo is knot k, the first at or above s,
        when 0 < k and it sits at s, else the crossing on the segment left
        of k (the tail when k = 0; the final segment when none reaches s,
        which rises: a flat one keeps the boundary limit below s).
        """
        left = self.left_value
        if left > s:
            return None
        hi = self._formula_sublevel_edge(s)
        if left == s:
            # the clamp (or a constant tail) attains s on a whole ball
            return (NEG_INF, hi)
        # now s > floor, so the level set is a formula-level question
        if self._formula_boundary_limit() < s:
            return None
        vs = self._vs
        k = bisect_left(vs, s)
        if 0 < k < len(vs) and vs[k] == s:
            lo = self._ts[k]
        else:
            lo = self._crossing(k - 1, s)
        if hi is None or hi < lo or lo >= self.log_R:
            return None
        return (lo, hi)

    def _max_with_constant(self, c: float) -> "ConvexProfile":
        """max(chi, c): only the clamp moves, knots stay verbatim.

        The copy is not revalidated: it shares this profile's validated
        formula and its formula-level caches, and keeps only its own
        clamp release point; ``c`` comes checked by the caller.  A clamp
        at or below the current infimum leaves the profile as it is, the
        canonical form the constructor also enforces.
        """
        if c <= self.left_value:
            return self
        clamped = object.__new__(type(self))
        state = vars(clamped)
        for name in _FORMULA_STATE:
            state[name] = getattr(self, name)
        state["floor"] = c
        return clamped

    def truncate(self, j: float) -> "ConvexProfile":
        """max(chi, -j) for j > 0: the profile of max(u, -j).

        Truncation only raises the clamp, so truncate(truncate(chi, j), k)
        == truncate(chi, k) bitwise whenever j >= k, and the measures of
        shared knots are float-identical across truncation levels.  The
        result shares this profile's validated formula, so it costs one
        bisection (on first use of its release point), not a rebuild.
        """
        _check_level(j)
        return self._max_with_constant(-j)

    @staticmethod
    def _assemble(bps, tail, final_slope, log_R) -> "ConvexProfile":
        """Construct a profile from near-convex knots, dropping the odd
        knot whose recomputed chord slopes invert by an ulp.

        Materialized crossing points sit within one rounding error of
        the true convex graph, but over a short interval that is enough
        to flip a chord comparison; removing such a point changes the
        function by at most the same rounding error.  Under a constant
        tail the first knot sits at the tail's value and none lies below
        it, so that anchor is never dropped.
        """
        lead = tail.slope if isinstance(tail, MinusInfinity) else 0.0
        stack: list[tuple[float, float]] = []
        for p in bps:
            while stack:
                if len(stack) >= 2:
                    a, b = stack[-2], stack[-1]
                    s_prev = (b[1] - a[1]) / (b[0] - a[0])
                else:
                    s_prev = lead
                s_new = (p[1] - stack[-1][1]) / (p[0] - stack[-1][0])
                if s_new >= s_prev:
                    break
                stack.pop()
            stack.append(p)
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            if (b[1] - a[1]) / (b[0] - a[0]) > final_slope:
                stack.pop()
            else:
                break
        return ConvexProfile(tuple(stack), tail, final_slope, log_R)

    def max_with_affine(self, slope: float, intercept: float) -> "ConvexProfile":
        """max(chi, slope*t + intercept) for slope >= 0; still convex.

        An intercept of -inf is the line that is -inf everywhere, so the
        profile comes back unchanged.  Otherwise the line wins on at most
        one interval (lo, hi).  One crossing rule over the knots where
        formula - line <= 0 finds both: lo on the segment left of the
        first (the final segment if none), hi on the segment right of the
        last (the left tail if none), or -inf and log_R where the line
        wins at the ends.  Each crossing is kept on its segment, which
        rounding can split around 0 when it nearly parallels the line; on
        one exactly parallel the edge is its end where formula - line <= 0.
        One ``_assemble`` call builds the result from the knots left of
        lo, the crossings at a finite lo and at hi < log_R, and the knots
        right of hi.  The tail is the line's when lo = -inf and the final
        slope is the line's when hi = log_R; a line that wins on the
        whole ball leaves one anchor knot on it.
        """
        if not math.isfinite(slope):
            raise ValueError("affine slope must be finite")
        if not intercept < math.inf:
            raise ValueError("affine intercept must be finite or -inf")
        if slope < 0.0:
            raise MonotonicityViolation("affine minorant must have slope >= 0")
        if slope == 0.0 or intercept == NEG_INF:
            return self._max_with_constant(intercept)

        def line(t: float) -> float:
            return slope * t + intercept

        # formula - line is convex; the clamp is reapplied at the end
        run = self._slopes
        ts, vs = self._ts, self._vs
        d_at = [vs[i] - line(ts[i]) for i in range(len(ts))]
        d_bnd = self._formula_boundary_limit() - line(self.log_R)

        # the line wins at -inf where chi falls faster (a constant tail: never)
        s0 = run[0]
        wins_left = s0 > slope or s0 == slope and d_at[0] < 0.0
        if not wins_left and min(d_at) >= 0.0 and d_bnd >= 0.0:
            return self  # the line never rises above the formula

        def cross(k: int) -> float:
            """The zero of formula - line on the segment right of knot k
            (k = -1: the left tail), kept on it; when parallel, its left
            end if formula - line <= 0 there, else its right end."""
            i = k if k > 0 else 0
            left = ts[k] if k >= 0 else NEG_INF
            right = ts[k + 1] if k + 1 < len(ts) else self.log_R
            gap = run[k + 1] - slope
            if gap == 0.0:
                return left if d_at[i] <= 0.0 else right
            return min(max(ts[i] + (-d_at[i]) / gap, left), right)

        below = [i for i, d in enumerate(d_at) if d <= 0.0]
        if wins_left:
            lo = NEG_INF
        else:
            lo = cross(below[0] - 1 if below else len(ts) - 1)
        if d_bnd <= 0.0:
            hi = self.log_R
        else:
            # with no knot below, the line wins at -inf, where s0 > slope
            hi = cross(below[-1] if below else -1)
        if hi <= lo:
            return self  # tangency or numerically empty overtake region
        bps = [(t, v) for t, v in self.breakpoints if t < lo]
        for x in (lo, hi):
            if NEG_INF < x < self.log_R:
                bps.append((x, self._formula(x)))
        bps += [(t, v) for t, v in self.breakpoints if t > hi]
        if not bps:
            # the line wins on the whole ball
            anchor = min(ts[0], self.log_R - 1.0)
            bps = [(anchor, line(anchor))]
        tail = MinusInfinity(slope) if lo == NEG_INF else self.tail
        final = slope if hi >= self.log_R else self.final_slope
        out = self._assemble(bps, tail, final, self.log_R)
        if self.floor == NEG_INF:
            return out
        return out._max_with_constant(self.floor)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode(le: LeftEnd) -> dict:
            if isinstance(le, FiniteValue):
                return {"kind": "finite", "value_or_slope": le.value}
            return {"kind": "minus_infinity", "value_or_slope": le.slope}

        data = {
            "left_end": encode(self.left_end),
            "breakpoints": [[t, v] for t, v in self.breakpoints],
            "final_slope": self.final_slope,
            "log_R": self.log_R,
        }
        if self.floor != NEG_INF:
            # the clamp shows up as the finite left end above; the extra
            # key preserves the underlying formula tail for the round-trip
            data["formula_tail"] = encode(self.tail)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConvexProfile":
        def decode(entry: dict) -> LeftEnd:
            kind = entry["kind"]
            x = float(entry["value_or_slope"])
            if kind == "finite":
                return FiniteValue(x)
            if kind == "minus_infinity":
                return MinusInfinity(x)
            raise ValueError(f"unknown left end kind {kind!r}")

        bps = tuple((float(t), float(v)) for t, v in data["breakpoints"])
        if "formula_tail" in data:
            tail = decode(data["formula_tail"])
            floor = float(data["left_end"]["value_or_slope"])
        else:
            tail = decode(data["left_end"])
            floor = NEG_INF
        return cls(
            bps,
            tail,
            float(data["final_slope"]),
            float(data.get("log_R", 0.0)),
            floor,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "ConvexProfile":
        return cls.from_json_dict(json.loads(text))


def make_profile(
    breakpoints,
    left_end: LeftEnd,
    final_slope: float | None = None,
    log_R: float = 0.0,
) -> ConvexProfile:
    """Build a validated unclamped profile.

    When ``final_slope`` is None the last chord slope is continued past
    the last knot (the tail slope for a single knot with a MinusInfinity
    tail, otherwise 0).
    """
    bps = tuple((float(t), float(v)) for t, v in breakpoints)
    if final_slope is None:
        if len(bps) >= 2:
            (t0, v0), (t1, v1) = bps[-2], bps[-1]
            final_slope = (v1 - v0) / (t1 - t0)
        elif isinstance(left_end, MinusInfinity):
            final_slope = left_end.slope
        else:
            final_slope = 0.0
    return ConvexProfile(bps, left_end, float(final_slope), float(log_R))
