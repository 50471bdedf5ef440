"""Independent numerical oracles: finite differences and obstacle relaxation.

Both routes deliberately avoid the closed-form slope bookkeeping used
by the exact modules.  ``fd_riesz_measure`` reads the n = 1 measure off
second differences of sampled values; ``relaxation_envelope`` and
``oracle_capacity`` solve the discrete obstacle problem for the
relative extremal function with projected SOR sweeps and only at the
very end package the node values as a profile or read a slope off them.
The contact set of that problem, the nodes up to the obstacle's last
-1, is fixed, so the sweeps relax only the N free cells right of it and
use Young's optimal factor 2 / (1 + sin(pi / N)): about 4N sweeps of N
cells per solve.
With the exact path they share only the types they read and return;
``RadialCompact.require_inside`` rejects an empty compact, or one that
reaches log_R, before any grid is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CompactTouchesBoundary,
    GridTooCoarse,
    GridTooLarge,
    MassOverflow,
    NegativeSecondDifference,
    NotConverged,
)
from .measures import RadialMeasure, TWO_PI
from .profiles import ConvexProfile, FiniteValue, RadialCompact, NEG_INF

# PSOR needs O(free cells^2) work (about 4N sweeps of the N free cells),
# and every node is marked and packaged; the largest grid the acceptance
# suite and the default CLI scenarios build has 6,652 nodes
MAX_GRID_NODES = 20_000

# a sweep that moves no node by more than this ends the relaxation
SWEEP_TOL = 1e-11


def _check_spacing(h: float) -> None:
    if not 0.0 < h < math.inf:
        raise ValueError(f"grid spacing must be finite and positive, got {h}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid left, left + h, ..., left + count * h."""

    left: float
    h: float
    count: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.left):
            raise ValueError(f"grid left end must be finite, got {self.left}")
        _check_spacing(self.h)
        if type(self.count) is not int:
            raise ValueError(f"cell count must be an int, got {self.count!r}")
        if self.count < 8:
            raise ValueError(f"need at least 8 cells, got {self.count}")

    @classmethod
    def from_bounds(cls, a: float, b: float, h: float) -> "Grid1D":
        """Grid covering [a, b] with spacing as close to h as possible.

        The spacing is adjusted so the last node lands exactly on b.
        """
        if not b > a:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        _check_spacing(h)
        count = max(8, round((b - a) / h))
        return cls(a, (b - a) / count, count)

    @cached_property
    def nodes(self) -> np.ndarray:
        out = self.left + self.h * np.arange(self.count + 1)
        out.flags.writeable = False
        return out

    @property
    def right(self) -> float:
        return float(self.nodes[-1])


def fd_riesz_measure(profile: ConvexProfile, grid: Grid1D) -> RadialMeasure:
    """n = 1 Monge-Ampere (Riesz) measure from second differences.

    Mass 2*pi * (v[i-1] - 2 v[i] + v[i+1]) / h at each interior node.
    The grid must stay strictly inside the domain; mass of the profile
    left of the grid is not seen.  Nonnegativity is enforced up to a
    rounding tolerance, beyond which NegativeSecondDifference is raised.
    """
    vals = profile.values(grid.nodes)
    h = grid.h
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    masses = TWO_PI * second / h
    vmax = float(np.max(np.abs(vals)))
    tol = TWO_PI * 32.0 * np.finfo(float).eps * (1.0 + vmax) / h
    worst = float(masses.min()) if masses.size else 0.0
    if worst < -tol:
        i = int(masses.argmin())
        raise NegativeSecondDifference(
            f"mass {worst} at t={grid.nodes[i + 1]} below -{tol}"
        )
    keep = masses > tol
    atoms = zip(grid.nodes[1:-1][keep].tolist(), masses[keep].tolist())
    return RadialMeasure(1, 0.0, tuple(atoms))


def _mark_obstacle(K: RadialCompact, nodes: np.ndarray) -> np.ndarray:
    """Obstacle array: -1 on grid nodes covered by K, 0 elsewhere.

    A degenerate interval (a sphere) that falls between nodes is snapped
    to the nearest node, an O(h) placement error consistent with the
    oracle's advertised accuracy.
    """
    o = np.zeros_like(nodes)
    for a, b in K.intervals:
        lo = 0 if a == NEG_INF else int(np.searchsorted(nodes, a, side="left"))
        hi = int(np.searchsorted(nodes, b, side="right")) - 1
        if lo > hi:
            mid = 0.5 * (max(a, float(nodes[0])) + b)
            near = int(np.argmin(np.abs(nodes - mid)))
            lo = hi = near
        o[lo : hi + 1] = -1.0
    return o


def _psor_solve(
    K: RadialCompact,
    log_R: float,
    grid: Grid1D,
    max_sweeps: int | None,
) -> np.ndarray:
    """Discrete obstacle solution at the grid nodes (shared solver).

    Let c be the last node where the obstacle is -1.  The sweeps relax
    only the free nodes c+1 .. m-1, red-black by the parity of the global
    node index, and read node c as a fixed -1 left neighbour.  Node c's
    candidate -1 + omega * (0.5 * (v[c+1] - 1) + 1) is >= -1 exactly when
    v[c+1] >= -1, so the projection keeps node c, and the contact block
    left of it, at -1, and the iterates are those of the sweep over every
    node (v[c+1] nears its final value from above, and every solve the
    tests pin to that sweep keeps it >= -1).

    Each half-sweep updates one colour in place through strided views,
    with buffers allocated once per solve, performing
    min(ob, v + omega * (0.5 * (l + r) - v)) one IEEE operation at a time
    in that order, so the iterates, the stopping sweep and the
    NotConverged residual are the same floats as gathering each colour
    through index arrays.  The factor is omega = 2 / (1 + sin(pi / N))
    for the N = m - c free cells, Young's optimum for SOR on them, which
    takes about 4N sweeps of N cells.

    ``max_sweeps`` must be an int of at least 1 (default 40 * cells +
    2000); ValueError otherwise, before any grid work.  Grids above
    MAX_GRID_NODES raise GridTooLarge before any sweep, and grids whose
    first node is not two cells left of the compact's end (too coarse, or
    starting too far right) raise GridTooCoarse: the free cells need a
    contact node at -1 left of them.
    """
    if max_sweeps is None:
        max_sweeps = 40 * grid.count + 2000
    elif type(max_sweeps) is not int or max_sweeps < 1:
        raise ValueError(f"max_sweeps must be an int >= 1, got {max_sweeps!r}")
    if grid.count + 1 > MAX_GRID_NODES:
        raise GridTooLarge(
            f"grid has {grid.count + 1} nodes, more than {MAX_GRID_NODES}"
        )
    K.require_inside(log_R)
    nodes = grid.nodes
    if abs(grid.right - log_R) > 1e-9 * grid.h:
        raise ValueError("grid must end at log_R (the boundary node)")
    if nodes[0] > K.sup - 2.0 * grid.h:
        raise GridTooCoarse(
            f"grid starts at {nodes[0]:g}, not two cells of {grid.h:g} left of "
            f"the compact's end {K.sup:g}"
        )
    o = _mark_obstacle(K, nodes)
    if o[-1] == -1.0:
        raise CompactTouchesBoundary("obstacle reached the boundary node")
    # largest nondecreasing minorant of the obstacle: running min from the
    # right; left of the last contact the envelope must stay at -1
    ob = np.minimum.accumulate(o[::-1])[::-1]
    v = ob.copy()
    m = grid.count
    lo = int(np.flatnonzero(ob == -1.0)[-1]) + 1  # first free node
    omega = 2.0 / (1.0 + math.sin(math.pi / (m - lo + 1)))
    # red-black colours of the free nodes as strided views of v and ob: the
    # nodes, their left and right neighbours, the obstacle, a candidate
    # buffer, and the colour's part of one difference buffer, allocated once
    # (with one spare zero, so a grid without free nodes moves by 0)
    diff = np.zeros(max(m - lo, 1))
    colours = []
    start = 0
    for first in (lo | 1, lo + (lo & 1)):  # the odd nodes, then the even
        left, cur, right = (v[first + k : m + k : 2] for k in (-1, 0, 1))
        colours.append((cur, left, right, ob[first:m:2], np.empty(cur.size),
                        diff[start : start + cur.size]))
        start += cur.size
    delta = math.inf
    for _ in range(max_sweeps):
        for cur, left, right, obs, buf, part in colours:
            # min(obs, cur + omega * (0.5 * (left + right) - cur)), unreassociated
            np.add(left, right, out=buf)
            buf *= 0.5
            buf -= cur
            buf *= omega
            buf += cur
            np.minimum(obs, buf, out=buf)
            np.subtract(buf, cur, out=part)
            cur[...] = buf
        np.abs(diff, out=diff)
        delta = float(diff.max())
        if delta <= SWEEP_TOL:
            break
    else:
        raise NotConverged(max_sweeps, delta)
    np.minimum(v, ob, out=v)
    return np.minimum.accumulate(v[::-1])[::-1]  # kill downward dust


def relaxation_envelope(
    K: RadialCompact,
    log_R: float,
    grid: Grid1D,
    max_sweeps: int | None = None,
) -> ConvexProfile:
    """Relative extremal profile of K by projected SOR on the obstacle LCP.

    Solves for the largest grid function that is below the monotone
    envelope of the obstacle (-1 on K, 0 at the boundary node) and
    discretely convex.  The nodes up to the last one on K stay at -1, so
    the sweeps relax only the N free cells right of it, red-black with
    the overrelaxation factor 2 / (1 + sin(pi / N)) optimal for them,
    about 4N sweeps of N cells, until a sweep moves no node by more than
    SWEEP_TOL.  Each colour is updated in place on strided views of the
    node values, with the floats of the plain gather-and-scatter sweep
    over every node.  ``max_sweeps`` (default 40 * cells + 2000) bounds
    the sweeps and must be an int of at least 1, else ValueError;
    NotConverged when it runs out.  The fixed point is thinned to its
    slope-jump knots and returned as a profile.
    """
    v = _psor_solve(K, log_R, grid, max_sweeps)
    return _profile_from_grid(grid.nodes, v, log_R)


def _profile_from_grid(
    nodes: np.ndarray, v: np.ndarray, log_R: float
) -> ConvexProfile:
    """Thin grid values to slope-jump knots and package as a profile.

    Nodes where the slope changes by more than 1e-4 * (1 + max slope)
    become knots; dust-level oscillations from the iteration are
    averaged out by the chord aggregation, keeping the profile's exact
    convexity validation satisfiable.
    """
    h = float(nodes[1] - nodes[0])
    slopes = np.diff(v) / h
    smax = float(slopes.max())
    thresh = 1e-4 * (1.0 + smax)
    jump_at = np.flatnonzero(np.abs(np.diff(slopes)) > thresh) + 1
    keep = [0] + [int(i) for i in jump_at if nodes[i] < log_R]
    bps = tuple((float(nodes[i]), float(v[i])) for i in keep)
    last_i = keep[-1]
    final = (float(v[-1]) - float(v[last_i])) / (float(nodes[-1]) - float(nodes[last_i]))
    return ConvexProfile(bps, FiniteValue(bps[0][1]), final, log_R)


def oracle_capacity(
    K: RadialCompact,
    log_R: float,
    n: int,
    h: float = 1e-3,
) -> float:
    """Capacity via the relaxation oracle, without the exact modules.

    The grid runs from an eighth of the chord span left of K's leftmost
    finite point to log_R with spacing h times the chord span
    log_R - K.sup, so the relative error stays O(h) uniformly in the
    depth of K.  The slope is read off the discrete envelope at the last
    contact node, and the capacity is (2*pi*slope)^n.  The empty set has
    capacity 0.  A dimension n that is not an int of at least 1, a log_R
    of +inf, or a spacing h that is not finite and positive raises
    ValueError; a capacity with no float, MassOverflow.
    """
    if type(n) is not int or n < 1:
        what = ">= 1" if type(n) is int else "an integer"
        raise ValueError(f"dimension n must be {what}, got {n!r}")
    if log_R == math.inf:
        raise ValueError("log_R must be finite")
    _check_spacing(h)
    if K.is_empty:
        return 0.0
    K.require_inside(log_R)
    span = log_R - K.sup
    pts = [x for ab in K.intervals for x in ab if x != NEG_INF]
    grid = Grid1D.from_bounds(min(pts) - 0.125 * span, log_R, h * span)
    v = _psor_solve(K, log_R, grid, None)
    contact = int(np.flatnonzero(v <= -1.0 + 1e-9)[-1])
    sigma = (float(v[contact + 1]) - float(v[contact])) / grid.h
    try:
        return (TWO_PI * sigma) ** n
    except OverflowError:
        raise MassOverflow(f"(2*pi*slope)^n overflows at n={n}") from None
