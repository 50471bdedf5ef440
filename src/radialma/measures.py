"""Radial Monge-Ampere measures and their nonpolar parts.

For u(z) = chi(log ||z||) with chi convex, nondecreasing and piecewise
linear, (dd^c u)^n lives on spheres: the closed ball {||z|| <= e^t}
carries mass (2*pi)^n * chi'(t+)^n.  Each slope jump s- -> s+ at a knot
t therefore contributes the sphere atom (2*pi)^n * (s+^n - s-^n), and a
left tail of asymptotic slope s gives the origin the atom (2*pi*s)^n.
The normalization is pinned by n = 1: u = log ||z|| has total mass 2*pi.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import MassOverflow, NonStabilized, OutOfDomain
from .profiles import ConvexProfile, RadialCompact, NEG_INF, _check_level

TWO_PI = 2.0 * math.pi

NP_DEPTH = 2**20  # the deepest level the nonpolar part's limit looks at


def _check_dimension(n: int) -> None:
    # one test on the hot path; a bool or a float fails it too
    if type(n) is not int or n < 1:
        what = ">= 1" if type(n) is int else "an integer"
        raise ValueError(f"dimension n must be {what}, got {n!r}")


def _check_atoms(atoms: tuple) -> tuple:
    """The atoms, checked: finite strictly increasing positions, masses > 0."""
    prev = NEG_INF
    for t, m in atoms:
        if not math.isfinite(t):
            raise ValueError("atom positions must be finite")
        if not m > 0.0:
            raise ValueError(f"atom at t={t} has nonpositive mass {m}")
        if not t > prev:
            raise ValueError("atom positions must be strictly increasing")
        prev = t
    return atoms


@dataclass(frozen=True)
class RadialMeasure:
    """Purely atomic radial measure: an origin mass plus sphere atoms.

    ``atoms`` is a strictly increasing tuple of (t, mass) pairs with
    mass > 0; the atom at t charges the sphere {||z|| = e^t}.
    """

    n: int
    origin_mass: float
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if not self.origin_mass >= 0.0:
            raise ValueError(f"origin mass must be >= 0, got {self.origin_mass}")
        _check_atoms(self.atoms)

    @classmethod
    def _built(cls, n, origin_mass, atoms) -> "RadialMeasure":
        """A measure over data already checked: no __post_init__."""
        measure = object.__new__(cls)
        state = vars(measure)
        state["n"], state["origin_mass"], state["atoms"] = n, origin_mass, atoms
        return measure

    @property
    def total_mass(self) -> float:
        return math.fsum([self.origin_mass] + [m for _, m in self.atoms])

    def mass_on(self, region: RadialCompact) -> float:
        """Measure of the region; exact interval/atom bookkeeping."""
        parts = [self.origin_mass] if region.contains_origin else []
        for t, m in self.atoms:
            if region.contains(t):
                parts.append(m)
        return math.fsum(parts)

    def restrict(self, region: RadialCompact) -> "RadialMeasure":
        origin = self.origin_mass if region.contains_origin else 0.0
        kept = tuple((t, m) for t, m in self.atoms if region.contains(t))
        return RadialMeasure(self.n, origin, kept)

    def integrate(self, phi: "RadialTestFunction") -> float:
        """Pair with a radial test function, origin value included."""
        parts = [self.origin_mass * phi.origin_value]
        parts += [m * phi.value(t) for t, m in self.atoms]
        return math.fsum(parts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "origin_mass": self.origin_mass,
            "atoms": [[t, m] for t, m in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RadialMeasure":
        return cls(
            int(data["n"]),
            float(data["origin_mass"]),
            tuple((float(t), float(m)) for t, m in data["atoms"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "RadialMeasure":
        return cls.from_json_dict(json.loads(text))


def _mass(n: int, s_after: float, s_before: float = 0.0) -> float:
    """(2*pi)^n * (s_after^n - s_before^n); MassOverflow unless finite."""
    try:
        scale = TWO_PI**n
    except OverflowError:
        raise MassOverflow(f"(2*pi)^n overflows at n={n}") from None
    try:
        mass = scale * (s_after**n - s_before**n)
    except OverflowError:
        mass = math.inf
    if not math.isfinite(mass):
        raise MassOverflow(
            f"mass of the slope jump {s_before} -> {s_after} overflows at n={n}"
        )
    return mass


def _knot_atoms(
    profile: ConvexProfile, n: int
) -> tuple[tuple[float, ...], tuple[tuple[float, float], ...]]:
    """Positions and (t, mass) atoms of the formula's slope jumps.

    Built and checked once per formula and n and shared by every clamped
    copy, since a clamp never changes the jump at a knot it does not cover.
    """
    tables = profile._knot_atom_tables
    table = tables.get(n)
    if table is None:
        atoms = []
        for t, s_before, s_after in profile.knot_slopes:
            # a knot with no slope jump has no atom, and s^n - s^n could
            # overflow for a huge s
            if s_after == s_before:
                continue
            jump = _mass(n, s_after, s_before)
            if jump != 0.0:
                atoms.append((t, jump))
        atoms = _check_atoms(tuple(atoms))
        table = tables.setdefault(n, (tuple(t for t, _ in atoms), atoms))
    return table


def _release(
    profile: ConvexProfile, n: int, edge: float, positions: Sequence[float]
) -> tuple[tuple[float, float] | None, int]:
    """The atom of a clamp releasing at ``edge`` and the index of the
    first knot atom right of it.

    The atom is (edge, (2*pi*sigma)^n) with sigma the formula slope
    there; a clamp that covers the whole ball releases nothing and keeps
    no knot atom: (None, len(positions)).  The atom is checked by
    ``_release_atom``.
    """
    if edge >= profile.log_R:
        return None, len(positions)
    mass = _mass(n, profile._formula_right_slope(edge))
    return _release_atom(edge, mass), bisect_right(positions, edge)


def _release_atom(edge: float, mass: float) -> tuple[float, float]:
    """The release atom (edge, mass), checked as ``_check_atoms`` checks
    a measure's atoms: a mass that underflows to 0.0 or an edge at -inf
    raises its ValueError.  A valid atom costs one comparison."""
    if not (mass > 0.0 and edge > NEG_INF):
        _check_atoms(((edge, mass),))
    return edge, mass


def _own_level(profile: ConvexProfile, n: int, positions: Sequence[float]):
    """(clamp, origin_mass, release, start) of ``ma_measure(profile, n)``:
    an unclamped profile keeps its origin atom (2*pi*s)^n, s its left
    slope, and every knot atom; a clamped one releases at its floor."""
    if profile.floor == NEG_INF:
        return NEG_INF, _mass(n, profile.left_slope), None, 0
    return (profile.floor, 0.0, *_release(profile, n, profile._floor_edge, positions))


def ma_measure(profile: ConvexProfile, n: int) -> RadialMeasure:
    """Monge-Ampere measure (dd^c u)^n of u = chi(log ||z||) on the ball.

    Zero-mass atoms (knots with no slope jump) are dropped, so equal
    measures compare equal as dataclasses.  For a clamped profile the
    flat part contributes nothing; the clamp release point carries the
    atom (2*pi*sigma)^n with sigma the formula slope there, and every
    knot right of it keeps the float-identical mass it has without the
    clamp.  The measure is the bottom level of the truncation ladder,
    read from ``_own_level``: the origin mass, the release atom, then
    the knot atoms from ``start`` on.  The atoms come checked from the
    per-n table, so the measure is not checked again.  Raises
    MassOverflow when (2*pi)^n or a mass is not a finite float.
    """
    _check_dimension(n)
    positions, atoms = _knot_atoms(profile, n)
    _, origin, release, start = _own_level(profile, n, positions)
    head = () if release is None else (release,)
    return RadialMeasure._built(n, origin, head + atoms[start:])


def _truncation_ladder(profile: ConvexProfile, n: int, schedule: Sequence):
    """Yield (j, clamp, origin_mass, release, start) for each level j.

    These are the data of ``ma_measure(profile.truncate(float(j)), n)``,
    built without the clamped copy or the measure: its floor ``clamp``,
    its origin mass, the release atom (t, mass) or None, and the index
    ``start`` of its first knot atom in ``_knot_atoms(profile, n)[1]``.
    The measure is the origin mass, the release atom, then
    ``atoms[start:]``.  A level at or below the profile's infimum leaves
    it unclamped (or on its own clamp): those levels share ``_own_level``.
    A clamp releasing left of the first knot releases on the left tail:
    its atom is (edge, (2*pi*s)^n) with s the tail slope, the same mass
    at every such level and checked by ``_release_atom`` as every release
    atom is, and it keeps every knot atom (start 0).  The branch reads
    the computed edge, so a crossing that rounds onto the first knot
    takes the general path.  A level that is not positive raises
    truncate's ValueError.
    """
    _check_dimension(n)
    positions, _ = _knot_atoms(profile, n)
    infimum = profile.left_value
    t0 = profile._ts[0]
    own = tail = None
    for j in schedule:
        level = float(j)
        _check_level(level)
        c = -level
        if c > infimum:
            edge = profile._formula_sublevel_edge(c)
            if edge < t0:
                if tail is None:
                    tail = _mass(n, profile._tail_slope)
                yield (j, c, 0.0, _release_atom(edge, tail), 0)
            else:
                yield (j, c, 0.0, *_release(profile, n, edge, positions))
            continue
        if own is None:
            own = _own_level(profile, n, positions)
        yield (j, *own)


def nonpolar_part(profile: ConvexProfile, n: int, depth: int = NP_DEPTH) -> RadialMeasure:
    """Nonpolar part NP(dd^c u)^n: the sphere atoms of (dd^c u)^n.

    NP(dd^c u)^n is the increasing limit of (dd^c max(u, -j))^n on
    {u > -j}.  Truncation keeps every atom right of its clamp release
    point bit for bit, and a clamp active at -j releases on {u = -j}, so
    the limit is the full atom list with no origin mass (the origin atom,
    present only when chi(-inf) = -inf, never meets {u > -j}).

    The limit looks down to the level J = ``depth``, the clamp covering
    the fewest atoms.  ``profile.truncate(J)`` has its clamp at exactly
    -J when -J is above the profile's infimum (a new clamp, releasing at
    ``_formula_sublevel_edge(-J)``) or when the profile's own clamp sits
    at -J (truncate then returns the profile itself).  Either way
    NonStabilized(J, count) is raised if count > 0 atoms sit at or left
    of the release point.  No clamped copy or truncated measure is built.
    """
    atoms = ma_measure(profile, n).atoms
    _check_level(depth)
    if -depth > profile.left_value:
        edge = profile._formula_sublevel_edge(-depth)
    elif profile.floor == -depth:
        edge = profile._floor_edge
    else:
        edge = NEG_INF  # truncate(J) leaves the profile unclamped at -J
    # (t, m) <= (edge, inf) exactly when t <= edge, since every m is finite
    missing = bisect_right(atoms, (edge, math.inf))
    if missing:
        raise NonStabilized(depth, missing)
    return RadialMeasure._built(n, 0.0, atoms)


@dataclass(frozen=True)
class RadialTestFunction:
    """Continuous piecewise-linear radial test function phi(log ||z||).

    Constant equal to ``origin_value`` left of the first node, affine
    between nodes, and identically 0 from the last node on, so the
    support stays compactly inside the ball (last node < log_R).
    """

    origin_value: float
    nodes: tuple[tuple[float, float], ...]
    log_R: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("need at least one node")
        prev = NEG_INF
        for t, v in self.nodes:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError("nodes must be finite")
            if not t > prev:
                raise ValueError("node positions must be strictly increasing")
            prev = t
        if not self.nodes[-1][0] < self.log_R:
            raise ValueError("support must end strictly before log_R")
        if self.nodes[0][1] != self.origin_value:
            raise ValueError("first node value must equal origin_value")
        if self.nodes[-1][1] != 0.0:
            raise ValueError("last node value must be 0 (compact support)")

    @cached_property
    def _ts(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.nodes)

    @cached_property
    def value(self):
        """phi(t); accepts t = -inf and anything up to log_R, rejects NaN.

        A closure over the nodes, built on first use as ``ConvexProfile.value``
        is.  ``weak_convergence_test`` and ``maximality_check`` call it once
        per knot-atom table, on the atoms inside phi's open support."""
        ts, vs = self._ts, tuple(v for _, v in self.nodes)
        # slopes[i] is the chord slope on [ts[i], ts[i + 1]]
        slopes = [(vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
        log_R, origin = self.log_R, self.origin_value
        t0, t1 = ts[0], ts[-1]

        def phi(t: float) -> float:
            if t <= t0:
                return origin
            if t < t1:
                i = bisect_right(ts, t) - 1
                return vs[i] + slopes[i] * (t - ts[i])
            if t <= log_R:
                return 0.0
            raise OutOfDomain("t is NaN" if math.isnan(t) else f"t={t} > log_R={log_R}")

        return phi

    def __getstate__(self) -> dict:
        # the evaluator is a closure, which does not pickle; a copy or an
        # unpickled test function builds its own on first use
        state = dict(vars(self))
        state.pop("value", None)
        return state


def plateau(t_one: float, t_zero: float, log_R: float = 0.0, label: str = "") -> RadialTestFunction:
    """1 on the ball up to t_one, then linear down to 0 at t_zero."""
    return RadialTestFunction(
        1.0, ((float(t_one), 1.0), (float(t_zero), 0.0)), log_R, label
    )


def hat(a: float, m: float, b: float, log_R: float = 0.0, label: str = "") -> RadialTestFunction:
    """Tent supported on [a, b] with peak 1 at m; vanishes at the origin."""
    return RadialTestFunction(
        0.0, ((float(a), 0.0), (float(m), 1.0), (float(b), 0.0)), log_R, label
    )


def annular_plateau(
    a: float, b: float, c: float, d: float, log_R: float = 0.0, label: str = ""
) -> RadialTestFunction:
    """Trapezoid supported on the annulus [a, d], flat 1 on [b, c]."""
    return RadialTestFunction(
        0.0,
        ((float(a), 0.0), (float(b), 1.0), (float(c), 1.0), (float(d), 0.0)),
        log_R,
        label,
    )


def distribution_function(measure: RadialMeasure, ts: np.ndarray) -> np.ndarray:
    """t -> measure of the closed ball {log ||z|| <= t}; rejects NaN."""
    ts = np.asarray(ts, dtype=float)
    if np.isnan(ts).any():
        raise OutOfDomain("grid contains NaN")
    pos = np.array([t for t, _ in measure.atoms])
    mas = np.array([m for _, m in measure.atoms])
    cum = np.concatenate(([0.0], np.cumsum(mas)))
    idx = np.searchsorted(pos, ts, side="right")
    return measure.origin_mass + cum[idx]
