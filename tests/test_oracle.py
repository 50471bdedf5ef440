"""Finite-difference and relaxation oracles against the exact modules."""
import math
import re
import time

import numpy as np
import pytest

from radialma import (
    CompactTouchesBoundary,
    EmptyCompact,
    Grid1D,
    GridTooCoarse,
    GridTooLarge,
    MassOverflow,
    NegativeSecondDifference,
    NotConverged,
    PowerTail,
    annulus,
    capacity,
    closed_ball,
    constant_profile,
    distribution_function,
    empty_compact,
    extremal_profile,
    fd_riesz_measure,
    log_profile,
    ma_measure,
    oracle_capacity,
    power_tail_profile,
    random_compact,
    random_profile,
    relaxation_envelope,
    sample_analytic,
    sphere,
)
from radialma import oracle

TWO_PI = 2.0 * math.pi


def test_grid_construction():
    g = Grid1D.from_bounds(-2.0, 0.0, 0.25)
    assert g.count == 8
    assert g.right == 0.0
    assert np.allclose(np.diff(g.nodes), g.h)
    # from_bounds never yields fewer than 8 cells
    assert Grid1D.from_bounds(-1.0, 0.0, 0.5).count == 8
    with pytest.raises(ValueError):
        Grid1D(-1.0, 0.1, 4)
    with pytest.raises(ValueError):
        Grid1D(-1.0, -0.1, 16)
    with pytest.raises(ValueError, match=r"^need a < b, got \[0\.0, 0\.0\]$"):
        Grid1D.from_bounds(0.0, 0.0, 0.1)


@pytest.mark.parametrize("left", [-math.inf, math.inf, math.nan], ids=repr)
def test_grid_left_end_must_be_finite(left):
    # -inf was accepted, and fd_riesz_measure then gave an empty measure
    msg = rf"grid left end must be finite, got {re.escape(repr(left))}$"
    with pytest.raises(ValueError, match=msg):
        Grid1D(left, 0.1, 10)


@pytest.mark.parametrize("count", [10.5, 10.0, True, "10"], ids=repr)
def test_grid_cell_count_must_be_an_int(count):
    # 10.5 built 12 nodes with right end 1.1
    msg = rf"cell count must be an int, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=msg):
        Grid1D(0.0, 0.1, count)
    assert Grid1D(0.0, 0.1, 10).nodes.size == 11


@pytest.mark.parametrize("h", [math.nan, 0.0, -0.01, math.inf], ids=repr)
def test_grid_spacing_must_be_finite_and_positive(h):
    # nan reached round(), 0 divided by zero, -0.01 and inf gave 8 cells
    msg = rf"grid spacing must be finite and positive, got {re.escape(repr(h))}$"
    with pytest.raises(ValueError, match=msg):
        oracle_capacity(closed_ball(-1.0), 0.0, 1, h=h)
    with pytest.raises(ValueError, match=msg):
        relaxation_envelope(closed_ball(-1.0), 0.0, Grid1D.from_bounds(-2.0, 0.0, h))
    with pytest.raises(ValueError, match=msg):
        Grid1D(-2.0, h, 16)


def test_fd_total_mass_telescopes():
    grid = Grid1D.from_bounds(-5.0, -0.125, 0.125)
    fd = fd_riesz_measure(log_profile().truncate(2.0), grid)
    assert fd.total_mass == pytest.approx(TWO_PI, rel=1e-12)
    assert fd_riesz_measure(constant_profile(-1.0), grid).total_mass == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_fd_is_exact_on_lattice_aligned_profiles(seed):
    rng = np.random.default_rng(14_000 + seed)
    lat = 1.0 / 16
    p = random_profile(rng, 0.0, bounded=True, lattice=lat, allow_clamp=False)
    grid = Grid1D.from_bounds(-16.0, -lat, lat)
    mids = (grid.nodes[:-1] + grid.nodes[1:]) / 2.0
    exact = distribution_function(ma_measure(p, 1), mids)
    fd = distribution_function(fd_riesz_measure(p, grid), mids)
    assert float(np.max(np.abs(exact - fd))) <= 1e-9


def test_fd_first_order_on_power_tail():
    def err(h):
        g = Grid1D.from_bounds(-6.0, -0.25, h)
        prof = sample_analytic(PowerTail(0.5), g.nodes)
        F = distribution_function(fd_riesz_measure(prof, g), np.linspace(-4.0, -0.5, 57))
        F0 = distribution_function(fd_riesz_measure(prof, g), np.array([-4.0]))[0]
        ts = np.linspace(-4.0, -0.5, 57)
        analytic = TWO_PI * 0.5 * (-ts) ** (-0.5)
        return float(np.max(np.abs((F - F0) - (analytic - analytic[0]))))

    e1, e2 = err(1e-2), err(5e-3)
    assert e1 <= 0.1 and e2 <= 0.05
    assert e1 / e2 >= 1.4  # first-order decay


def test_negative_second_difference_guard():
    class Concave:
        def values(self, ts):
            return -np.square(ts)

    grid = Grid1D.from_bounds(-2.0, -0.1, 0.1)
    with pytest.raises(NegativeSecondDifference) as got:
        fd_riesz_measure(Concave(), grid)
    # the message is the one the per-node loop's guard gave
    with pytest.raises(NegativeSecondDifference) as want:
        reference_fd_atoms(Concave(), grid)
    assert str(got.value) == str(want.value)


# -- the atom selection of fd_riesz_measure ----------------------------------


def reference_fd_atoms(profile, grid):
    """fd_riesz_measure's atoms as a per-node loop over numpy scalars
    selected them, before one mask did; the guard is kept with it."""
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
    atoms = [
        (float(t), float(m))
        for t, m in zip(grid.nodes[1:-1], masses)
        if m > tol
    ]
    return tuple(atoms)


def atom_bits(atoms):
    return [(float(t).hex(), float(m).hex()) for t, m in atoms]


@pytest.mark.parametrize("seed", range(40))
def test_fd_atoms_match_the_per_node_loop_on_lattice_draws(seed):
    # the lattice draws and grid of the profile-eval benchmark workload
    rng = np.random.default_rng(31_000 + seed)
    lat = 1.0 / 16
    grid = Grid1D.from_bounds(-16.0, -lat, lat)
    p = random_profile(rng, 0.0, bounded=True, lattice=lat, allow_clamp=False)
    atoms = fd_riesz_measure(p, grid).atoms
    assert all(type(t) is float and type(m) is float for t, m in atoms)
    assert atom_bits(atoms) == atom_bits(reference_fd_atoms(p, grid))


@pytest.mark.parametrize(
    "profile",
    [
        log_profile().truncate(2.0),
        log_profile().truncate(64.0),
        power_tail_profile(0.5).truncate(4.0),
        power_tail_profile(0.25).truncate(16.0),
        constant_profile(-1.0),
    ],
    ids=["log/2", "log/64", "powertail0.5/4", "powertail0.25/16", "constant"],
)
@pytest.mark.parametrize("h", [0.125, 1e-2, 2e-3], ids=repr)
def test_fd_atoms_match_the_per_node_loop_on_truncated_families(profile, h):
    grid = Grid1D.from_bounds(-8.0, -0.125, h)
    atoms = fd_riesz_measure(profile, grid).atoms
    assert atom_bits(atoms) == atom_bits(reference_fd_atoms(profile, grid))


def test_fd_atoms_near_the_tolerance_match_the_per_node_loop():
    # dips of 16 * eps * r give a mass of about r times the tolerance:
    # 0.75 tol is dropped and 1.5 tol kept, by both selections
    grid = Grid1D.from_bounds(-2.0, -0.1, 0.1)
    eps = float(np.finfo(float).eps)

    class Dips:
        def values(self, ts):
            vals = np.zeros_like(ts)
            vals[4] = -16.0 * eps * 0.75
            vals[12] = -16.0 * eps * 1.5
            return vals

    atoms = fd_riesz_measure(Dips(), grid).atoms
    assert [t for t, _ in atoms] == [float(grid.nodes[12])]
    assert atom_bits(atoms) == atom_bits(reference_fd_atoms(Dips(), grid))


def test_relaxation_envelope_matches_hull_on_balls():
    h = 1e-3
    grid = Grid1D.from_bounds(-3.0, 0.0, h)
    env = relaxation_envelope(closed_ball(-2.0), 0.0, grid)
    hull = extremal_profile(closed_ball(-2.0), 0.0)
    ts = np.linspace(-2.9, -1e-3, 300)
    worst = max(abs(env.value(float(t)) - hull.value(float(t))) for t in ts)
    assert worst <= 10 * h


def test_relaxation_envelope_annulus():
    h = 2e-3
    grid = Grid1D.from_bounds(-5.0, 0.0, h)
    env = relaxation_envelope(annulus(-4.0, -2.5), 0.0, grid)
    hull = extremal_profile(annulus(-4.0, -2.5), 0.0)
    ts = np.linspace(-4.9, -1e-3, 300)
    worst = max(abs(env.value(float(t)) - hull.value(float(t))) for t in ts)
    assert worst <= 10 * h


def test_relaxation_reports_nonconvergence():
    grid = Grid1D.from_bounds(-3.0, 0.0, 1e-3)
    with pytest.raises(NotConverged) as exc:
        relaxation_envelope(closed_ball(-2.0), 0.0, grid, max_sweeps=3)
    assert exc.value.iterations == 3
    assert exc.value.residual > 0.0


@pytest.mark.parametrize("max_sweeps", [2.5, 0, -3, True, "3"], ids=repr)
def test_max_sweeps_must_be_an_int_of_at_least_one(max_sweeps):
    # 2.5 reached range(), 0 and -3 raised NotConverged, True ran one
    # sweep; this grid would raise GridTooLarge, were it looked at first
    grid = Grid1D.from_bounds(-3.0, 0.0, 1e-4)
    msg = rf"max_sweeps must be an int >= 1, got {re.escape(repr(max_sweeps))}$"
    with pytest.raises(ValueError, match=msg):
        relaxation_envelope(closed_ball(-2.0), 0.0, grid, max_sweeps=max_sweeps)


@pytest.mark.parametrize("h, budget", [(1e-2, 600), (2e-3, 3000)])
def test_overrelaxation_fits_the_free_cells_sweep_budget(h, budget, monkeypatch):
    # The factor tuned to the cells right of the last contact needs about
    # 4 * (free cells) sweeps: 403 and 2,013 here.  Tuned to all cells it
    # needs 3,267 and 16,369 and runs out of either budget.
    K = annulus(-8.0, -1.0)
    grid = Grid1D.from_bounds(-8.125, 0.0, h)
    env = relaxation_envelope(K, 0.0, grid, max_sweeps=budget)
    hull = extremal_profile(K, 0.0)
    ts = np.linspace(-8.0, -1e-3, 300)
    worst = max(abs(env.value(float(t)) - hull.value(float(t))) for t in ts)
    assert worst <= 10 * h

    grids = []
    solve = oracle._psor_solve

    def budgeted(K, log_R, grid, max_sweeps):
        grids.append(grid)
        return solve(K, log_R, grid, budget)

    monkeypatch.setattr(oracle, "_psor_solve", budgeted)
    got = oracle_capacity(K, 0.0, 1, h=h)
    want = capacity(K, 0.0, 1)
    assert grids == [grid]
    assert abs(got - want) <= 10 * h * want


def test_relaxation_grid_must_end_at_log_R():
    grid = Grid1D.from_bounds(-2.0, -0.5, 0.01)
    with pytest.raises(ValueError, match=r"^grid must end at log_R \(the boundary node\)$"):
        relaxation_envelope(closed_ball(-1.0), 0.0, grid)


def test_too_coarse_grid_is_a_typed_error():
    # 8 cells over [-1.125, 0] leave no node two cells left of the ball
    with pytest.raises(GridTooCoarse):
        oracle_capacity(closed_ball(-1.0), 0.0, 1, h=10.0)
    with pytest.raises(GridTooCoarse):
        relaxation_envelope(closed_ball(-1.0), 0.0, Grid1D.from_bounds(-1.1, 0.0, 0.5))


def test_oracle_work_is_bounded_before_any_sweep():
    start = time.perf_counter()
    with pytest.raises(GridTooLarge):
        oracle_capacity(closed_ball(-1.0), 0.0, 1, h=1e-6)
    with pytest.raises(GridTooLarge):
        relaxation_envelope(
            closed_ball(-2.0), 0.0, Grid1D.from_bounds(-3.0, 0.0, 1e-4)
        )
    assert time.perf_counter() - start < 1.0
    # the largest grid the suite solves stays well inside the bound
    grid = Grid1D.from_bounds(-3.0, 0.0, 3.0 / 19_999)
    assert grid.count + 1 == 20_000
    with pytest.raises(NotConverged):
        relaxation_envelope(closed_ball(-2.0), 0.0, grid, max_sweeps=1)


def test_fd_grid_is_bounded_before_sampling():
    # h=1e-15 over [-3, 0.5] asked numpy for 3.5e15 nodes (24.9 PiB)
    grid = Grid1D.from_bounds(-3.0, 0.5, 1e-15)
    msg = r"^grid has 3500000000000001 nodes, more than 20000$"
    with pytest.raises(GridTooLarge, match=msg):
        fd_riesz_measure(log_profile(log_R=1.0), grid)
    assert "nodes" not in vars(grid)
    with pytest.raises(GridTooLarge, match=r"^grid has 20001 nodes"):
        fd_riesz_measure(log_profile().truncate(2.0), Grid1D(-3.0, 1e-4, 20_000))
    fd = fd_riesz_measure(log_profile().truncate(2.0), Grid1D(-3.0, 1e-4, 19_999))
    assert fd.total_mass == pytest.approx(TWO_PI, rel=1e-12)


def test_oracles_reject_compacts_without_an_extremal_function():
    grid = Grid1D.from_bounds(-3.0, 0.0, 1e-2)
    with pytest.raises(EmptyCompact):
        relaxation_envelope(empty_compact(), 0.0, grid)
    with pytest.raises(CompactTouchesBoundary):
        relaxation_envelope(closed_ball(0.0), 0.0, grid)
    # inside the ball, but nearer the boundary node than half a cell
    with pytest.raises(CompactTouchesBoundary, match="^obstacle reached the boundary node$"):
        relaxation_envelope(sphere(-0.003), 0.0, grid)
    with pytest.raises(CompactTouchesBoundary):
        oracle_capacity(annulus(-1.0, 0.5), 0.0, 1)
    assert oracle_capacity(empty_compact(), 0.0, 1) == 0.0


@pytest.mark.parametrize("K", [closed_ball(-1.0), empty_compact()], ids=["ball", "empty"])
def test_oracle_capacity_names_an_infinite_log_R(K):
    # the chord span log_R - K.sup was reported as an infinite grid spacing
    with pytest.raises(ValueError, match=r"^log_R must be finite$"):
        oracle_capacity(K, math.inf, 1)


def test_oracle_capacity_overflow_is_a_typed_error():
    # the unit ball's slope is 1, and (2*pi)^400 has no float
    with pytest.raises(MassOverflow, match=r"\(2\*pi\*slope\)\^n overflows at n=400$"):
        oracle_capacity(closed_ball(-1.0), 0.0, 400, h=1e-2)


@pytest.mark.parametrize("j", [1, 4, 64, 1024])
def test_oracle_capacity_tracks_closed_form(j):
    h = 1e-3
    got = oracle_capacity(closed_ball(float(-j)), 0.0, 1, h=h)
    want = TWO_PI / j
    assert abs(got - want) <= 10 * h * want


@pytest.mark.parametrize("seed", range(5))
def test_oracle_capacity_on_random_compacts(seed):
    rng = np.random.default_rng(15_000 + seed)
    K = random_compact(rng, 0.0)
    h = 2e-3
    got = oracle_capacity(K, 0.0, 1, h=h)
    want = capacity(K, 0.0, 1)
    assert abs(got - want) <= 10 * h * want


def test_refinement_halves_the_envelope_error():
    hull = extremal_profile(closed_ball(-2.0), 0.0)
    ts = np.linspace(-2.9, -1e-3, 200)

    def sup_err(h):
        env = relaxation_envelope(
            closed_ball(-2.0), 0.0, Grid1D.from_bounds(-3.0, 0.0, h)
        )
        return max(abs(env.value(float(t)) - hull.value(float(t))) for t in ts)

    # the discrete solution is piecewise linear like the hull, so the
    # error is dominated by obstacle-edge placement: O(h)
    coarse = sup_err(0.016)
    fine = sup_err(0.008)
    assert fine <= 0.75 * coarse or fine <= 1e-9
