"""The strided PSOR kernel against the index-array loop it replaced.

``_psor_solve`` sweeps red-black over strided views of the free grid
values, right of the last contact node, with buffers allocated once.
Its arithmetic is the loop's, operation by operation, so these tests pin
it bit for bit to the literal loop kept here as the reference: sweep
every node, gather each colour through an index array, relax, project
onto the obstacle and scatter back.  Both take the overrelaxation factor
from the number of cells right of the last contact node.  The stopping
sweep and the ``NotConverged`` residual must match as well, so no
contact node may ever leave -1 in the reference.
"""
import math

import numpy as np
import pytest

from radialma import (
    Grid1D,
    NotConverged,
    annulus,
    closed_ball,
    geometric_schedule,
    random_compact,
)
from radialma.oracle import SWEEP_TOL, _mark_obstacle, _psor_solve


def reference_psor(K, log_R, grid, max_sweeps=None):
    """Red-black projected SOR through the index arrays odd and even."""
    o = _mark_obstacle(K, grid.nodes)
    ob = np.minimum.accumulate(o[::-1])[::-1]
    v = ob.copy()
    m = grid.count
    contact = int(np.flatnonzero(ob == -1.0)[-1])
    omega = 2.0 / (1.0 + math.sin(math.pi / (m - contact)))
    if max_sweeps is None:
        max_sweeps = 40 * m + 2000
    odd = np.arange(1, m, 2)
    even = np.arange(2, m, 2)
    delta = math.inf
    for _ in range(max_sweeps):
        delta = 0.0
        for idx in (odd, even):
            old = v[idx]
            cand = old + omega * (0.5 * (v[idx - 1] + v[idx + 1]) - old)
            new = np.minimum(ob[idx], cand)
            if idx.size:
                delta = max(delta, float(np.max(np.abs(new - old))))
            v[idx] = new
        new0 = min(ob[0], v[0] + omega * 0.5 * (v[1] - v[0]))
        delta = max(delta, abs(new0 - v[0]))
        v[0] = new0
        if delta <= SWEEP_TOL:
            break
    else:
        raise NotConverged(max_sweeps, delta)
    np.minimum(v, ob, out=v)
    return np.minimum.accumulate(v[::-1])[::-1]


def outcome(fn, K, grid, max_sweeps=None):
    """The solution's bytes, or the NotConverged sweep count and residual."""
    try:
        v = fn(K, 0.0, grid, max_sweeps)
    except NotConverged as e:
        return ("raised", e.iterations, float(e.residual).hex(), str(e))
    return ("solved", v.dtype.str, v.shape, v.tobytes())


def capacity_grid(K, h, pad=0.125):
    """The grid oracle_capacity builds for K at relative spacing h; with
    pad 0.25 the benchmark's envelope grid."""
    span = 0.0 - K.sup
    left = min(x for ab in K.intervals for x in ab if x != -math.inf)
    return Grid1D.from_bounds(left - pad * span, 0.0, h * span)


def draws(seed, count, max_nodes):
    """The first ``count`` random compacts of a seed whose capacity grid
    at h = 2e-3 has at most ``max_nodes`` nodes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        K = random_compact(rng, 0.0)
        if capacity_grid(K, 2e-3).count + 1 <= max_nodes:
            out.append(K)
    return out


def criterion_7_draws(count):
    """The first ``count`` of the 50 compacts acceptance criterion 7 solves
    at h = 2e-3, replayed from its generator: each draw is followed by the
    competitors' 400 uniforms."""
    rng = np.random.default_rng(1234)
    out = []
    for _ in range(count):
        out.append(random_compact(rng, 0.0))
        for _ in range(100):
            rng.uniform(0.0, 0.5 if rng.random() < 0.5 else 0.3)
        rng.uniform(size=200)
    return out


@pytest.mark.parametrize("pad", [0.125, 0.25], ids=["capacity", "envelope"])
@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_on_random_compacts(seed, pad):
    K = random_compact(np.random.default_rng(16_000 + seed), 0.0)
    grid = capacity_grid(K, 1e-2, pad)
    assert outcome(_psor_solve, K, grid) == outcome(reference_psor, K, grid)


@pytest.mark.parametrize(
    "compacts",
    [lambda: draws(16_100, 3, 600), lambda: criterion_7_draws(10)],
    ids=["small", "criterion-7"],
)
def test_matches_reference_on_fine_grids(compacts):
    for K in compacts():
        grid = capacity_grid(K, 2e-3)
        assert outcome(_psor_solve, K, grid) == outcome(reference_psor, K, grid)


def test_matches_reference_on_the_dyadic_balls():
    for j in geometric_schedule(1024):
        K = closed_ball(-float(j))
        grid = capacity_grid(K, 1e-2)
        assert outcome(_psor_solve, K, grid) == outcome(reference_psor, K, grid), j


@pytest.mark.parametrize("max_sweeps", [1, 3, 50])
@pytest.mark.parametrize(
    "K, grid",
    [
        (closed_ball(-2.0), Grid1D.from_bounds(-3.0, 0.0, 3.0 / 2_999)),
        (closed_ball(-2.0), Grid1D.from_bounds(-3.0, 0.0, 3.0 / 19_999)),
        (annulus(-4.0, -2.5), Grid1D.from_bounds(-5.0, 0.0, 2e-3)),
        (annulus(-8.0, -1.0), Grid1D.from_bounds(-8.125, 0.0, 1e-2)),
    ],
    ids=["ball-3000", "ball-20000", "annulus", "long-contact"],
)
def test_nonconvergence_matches_reference(K, grid, max_sweeps):
    got = outcome(_psor_solve, K, grid, max_sweeps)
    assert got[0] == "raised"
    assert got == outcome(reference_psor, K, grid, max_sweeps)


def test_matches_reference_without_free_nodes():
    # the balls end within the last two cells, so every node but the last
    # one or two is in the contact block and no node, or one, is swept
    grid = Grid1D.from_bounds(-1.0, 0.0, 0.125)
    for r in (-0.01, -0.1, -0.2):
        K = closed_ball(r)
        assert outcome(_psor_solve, K, grid) == outcome(reference_psor, K, grid)
