"""Monge-Ampere measures, nonpolar parts, pairings and restriction."""
import math

import numpy as np
import pytest

from radialma import (
    FiniteValue,
    NonStabilized,
    RadialMeasure,
    RadialTestFunction,
    annular_plateau,
    annulus,
    closed_ball,
    constant_profile,
    default_battery,
    distribution_function,
    empty_compact,
    hat,
    log_profile,
    ma_measure,
    make_compact,
    make_profile,
    max_const_profile,
    MassOverflow,
    MinusInfinity,
    OutOfDomain,
    capacity,
    nonpolar_part,
    plateau,
    power_tail_profile,
    punctured_battery,
    random_profile,
    sphere,
)

TWO_PI = 2.0 * math.pi
NEG_INF = float("-inf")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_profile_measure_is_origin_atom(n):
    m = ma_measure(log_profile(), n)
    assert m.origin_mass == TWO_PI**n
    assert m.atoms == ()
    assert m.total_mass == TWO_PI**n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counterexample_members_put_no_mass_on_unit_ball(n):
    K = closed_ball(0.0)
    for j in (1, 2, 7, 100):
        u_j = max_const_profile(1.0 / j, 1.0)
        assert ma_measure(u_j, n).mass_on(K) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counterexample_limit_nonpolar_mass(n):
    u = max_const_profile(0.0, 1.0)
    npm = nonpolar_part(u, n)
    assert npm.mass_on(closed_ball(0.0)) == TWO_PI**n
    assert npm == ma_measure(u, n)  # locally bounded: NP = MA


def test_truncated_log_single_sphere_atom():
    m = ma_measure(log_profile().truncate(3.0), 1)
    assert m.origin_mass == 0.0
    assert m.atoms == ((-3.0, TWO_PI),)


def test_nonpolar_part_strips_polar_origin():
    for n in (1, 2):
        npm = nonpolar_part(log_profile(), n)
        assert npm.origin_mass == 0.0
        assert npm.atoms == ()
        assert npm.total_mass == 0.0


def test_nonpolar_part_of_power_tail_equals_full_measure():
    # chi'(t) -> 0 toward -inf, so there is no origin atom to strip
    p = power_tail_profile(0.5)
    full = ma_measure(p, 1)
    assert full.origin_mass == 0.0
    assert nonpolar_part(p, 1) == full


@pytest.mark.parametrize("seed", range(40))
def test_nonpolar_part_matches_closed_form(seed):
    """Literal truncation limit == full atoms, origin dropped."""
    rng = np.random.default_rng(7000 + seed)
    p = random_profile(rng, 0.0)
    n = int(rng.integers(1, 4))
    full = ma_measure(p, n)
    npm = nonpolar_part(p, n)
    assert npm.origin_mass == 0.0
    assert npm.atoms == full.atoms
    if isinstance(p.left_end, FiniteValue):
        assert npm == full


def test_nonpolar_part_schedule_exhaustion():
    p = make_profile(
        [(-10.0, -10.0), (-5.0, -5.0)],
        MinusInfinity(1.0),
        final_slope=2.0,
    )
    with pytest.raises(NonStabilized) as exc:
        nonpolar_part(p, 1, depth=4)
    assert str(exc.value) == "nonpolar part did not stabilize with levels up to 4"
    # the clamp at -4 still covers the only atom, the kink at -5
    assert exc.value.level == 4
    assert exc.value.missing_atoms == 1
    q = make_profile(
        [(-10.0, -10.0), (-5.0, -4.0)],
        MinusInfinity(1.0),
        final_slope=2.0,
    )
    assert len(ma_measure(q, 1).atoms) == 2
    with pytest.raises(NonStabilized) as exc:
        nonpolar_part(q, 1, depth=1)
    assert (exc.value.level, exc.value.missing_atoms) == (1, 2)
    with pytest.raises(NonStabilized) as exc:
        nonpolar_part(q, 1, depth=8)
    assert (exc.value.level, exc.value.missing_atoms) == (8, 1)


@pytest.mark.parametrize("depth, got", [(0, "0"), (-1, "-1"), (math.nan, "nan")])
def test_nonpolar_part_rejects_a_depth_that_is_not_positive(depth, got):
    with pytest.raises(ValueError, match=rf"^truncation level j must be positive, got {got}$"):
        nonpolar_part(max_const_profile(-1.0), 1, depth=depth)


def test_nonpolar_part_raises_the_overflow_of_its_own_measure():
    # the origin atom (2*pi*1.5e102)^3 lies past the float range, while
    # the knot's slope jump does not: the nonpolar part reads the atoms
    # of a measure that cannot be built
    s = 1.5e102
    p = make_profile([(-1.0, 0.0)], MinusInfinity(s), final_slope=s * (1.0 + 1e-10))
    msg = "^mass of the slope jump 0.0 -> 1.5e\\+102 overflows at n=3$"
    with pytest.raises(MassOverflow, match=msg):
        ma_measure(p, 3)
    with pytest.raises(MassOverflow, match=msg):
        nonpolar_part(p, 3)


def test_distribution_function_rejects_nan():
    # searchsorted sorts NaN past every atom, which would read the total mass
    m = ma_measure(log_profile().truncate(1.0), 1)
    for ts in (np.array([math.nan]), np.array([-2.0, math.nan, -0.5])):
        with pytest.raises(OutOfDomain, match="^grid contains NaN$"):
            distribution_function(m, ts)
    assert distribution_function(m, np.array([-2.0, -1.0, math.inf])).tolist() == [
        0.0,
        TWO_PI,
        TWO_PI,
    ]


def test_mass_on_conventions():
    u = max_const_profile(0.0, 1.0)
    m = ma_measure(u, 2)
    assert m.mass_on(closed_ball(0.0)) == TWO_PI**2  # boundary sphere counts
    assert m.mass_on(sphere(0.0)) == TWO_PI**2
    assert m.mass_on(annulus(-2.0, -0.5)) == 0.0
    assert m.mass_on(empty_compact()) == 0.0


def test_integrate_pairings():
    zero = RadialMeasure(1, 0.0, ())
    box = plateau(-1.0, -0.1, 0.0)
    assert zero.integrate(box) == 0.0

    # single atom of mass 2*pi under a plateau equal to 1 there
    m = ma_measure(log_profile().truncate(3.0), 1)
    wide = plateau(-1.0, -0.1, 0.0)
    assert wide.value(-3.0) == 1.0
    assert m.integrate(wide) == TWO_PI

    # phi(0) = 0.5 against the one-atom nonpolar part at t = 0, n = 2
    u = max_const_profile(0.0, 1.0)
    phi = RadialTestFunction(1.0, ((-2.0, 1.0), (0.0, 0.5), (0.5, 0.0)), 1.0)
    assert nonpolar_part(u, 2).integrate(phi) == 0.5 * TWO_PI**2


def test_integrate_interpolates_between_nodes():
    m = RadialMeasure(1, 0.0, ((-1.0, 2.0),))
    tent = hat(-2.0, -1.5, -1.0, 0.0)
    assert m.integrate(tent) == 0.0  # atom sits on the support edge
    tent2 = hat(-2.0, -1.0, -0.5, 0.0)
    assert m.integrate(tent2) == 2.0
    ramp = RadialTestFunction(1.0, ((-2.0, 1.0), (-0.5, 0.0)), 0.0)
    assert ramp.value(-1.0) == pytest.approx(1.0 / 3.0)
    assert m.integrate(ramp) == pytest.approx(2.0 / 3.0)


def test_restrict():
    u = max_const_profile(0.0, 1.0)
    m = nonpolar_part(u, 1)
    assert m.restrict(closed_ball(0.75)) == m
    assert m.restrict(sphere(0.0)) == m
    assert m.restrict(annulus(-3.0, -1.0)).total_mass == 0.0
    lg = ma_measure(log_profile(), 1)
    assert lg.restrict(annulus(-3.0, -1.0)) == RadialMeasure(1, 0.0, ())
    assert lg.restrict(closed_ball(-1.0)) == lg  # origin kept inside balls


@pytest.mark.parametrize("seed", range(20))
def test_truncation_locality(seed):
    """Clamping below min(chi on I) leaves the measure on I unchanged."""
    rng = np.random.default_rng(8000 + seed)
    p = random_profile(rng, 0.0)
    I = annulus(-3.0, -0.5)
    # clamp strictly below min(chi on I); values may have either sign
    j = max(1.0, 1.0 - p.value(-3.0))
    q = p.truncate(j)
    assert ma_measure(q, 2).restrict(I) == ma_measure(p, 2).restrict(I)


@pytest.mark.parametrize("seed", range(20))
def test_truncated_interior_masses_increase(seed):
    rng = np.random.default_rng(9000 + seed)
    p = random_profile(rng, 0.0)
    E = closed_ball(-0.25)
    n = int(rng.integers(1, 4))
    prev = -1.0
    for j in (1, 2, 4, 8, 16, 32, 64):
        m = ma_measure(p.truncate(float(j)), n)
        strict = p.sublevel(-float(j))
        inside = m.mass_on(E) - m.restrict(strict).mass_on(E)
        assert inside >= prev - 1e-12 * (1.0 + abs(prev))
        prev = inside


@pytest.mark.parametrize("seed", range(20))
def test_truncation_conserves_total_mass(seed):
    rng = np.random.default_rng(10_000 + seed)
    p = random_profile(rng, 0.0)
    n = int(rng.integers(1, 4))
    expected = (TWO_PI * p.final_slope) ** n
    # the clamp must bite inside the domain or max(u, -j) is constant
    base = max(0.0, -p.boundary_limit)
    for j in (base + 0.5, base + 1.0, base + 9.0):
        total = ma_measure(p.truncate(j), n).total_mass
        assert total == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_measure_json_round_trip(seed):
    rng = np.random.default_rng(11_000 + seed)
    p = random_profile(rng, 0.0)
    m = ma_measure(p, 2)
    assert RadialMeasure.from_json(m.to_json()) == m


def test_zero_jump_knots_produce_no_atoms():
    # collinear middle knot: same function, no atom
    p = make_profile(
        [(-2.0, -2.0), (-1.5, -1.5), (-1.0, -1.0)], MinusInfinity(1.0)
    )
    assert ma_measure(p, 1) == ma_measure(log_profile(), 1)


def test_battery_shapes():
    phis = default_battery(0.0)
    assert len(phis) == 16
    for phi in phis:
        assert phi.value(NEG_INF) == 0.0  # never sees the origin atom
        assert phi.value(-1e-12) == 0.0
    inner = punctured_battery(0.0)
    for phi in inner:
        assert phi.value(NEG_INF) == 0.0


def test_annular_plateau_shape():
    phi = annular_plateau(-4.0, -3.0, -2.0, -1.0, 0.0)
    assert phi.value(-5.0) == 0.0
    assert phi.value(-3.5) == 0.5
    assert phi.value(-2.5) == 1.0
    assert phi.value(-1.5) == 0.5
    assert phi.value(-0.5) == 0.0


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        ma_measure(log_profile(), 0)


def test_mass_overflow_is_typed():
    steep = make_profile([(-1.0, -3.0)], MinusInfinity(3.0))
    assert math.isfinite(ma_measure(steep, 200).origin_mass)
    with pytest.raises(MassOverflow):
        ma_measure(steep, 300)  # origin atom (6*pi)^300
    with pytest.raises(MassOverflow):
        ma_measure(steep.truncate(1.0), 300)  # release atom
    kink = make_profile([(-1.0, -1.0)], FiniteValue(-1.0), final_slope=3.0)
    with pytest.raises(MassOverflow):
        ma_measure(kink, 300)  # knot atom
    with pytest.raises(MassOverflow):
        ma_measure(constant_profile(-1.0), 400)  # (2*pi)^400 itself
    with pytest.raises(MassOverflow):
        capacity(closed_ball(-1.0), 0.0, 400)
    assert capacity(closed_ball(-1.0), 0.0, 300) == TWO_PI**300


def test_two_pi_power_overflow_names_its_cause():
    # the log profile's masses are (2*pi)^n times 1 or 0: only (2*pi)^400 overflows
    with pytest.raises(MassOverflow, match=r"^\(2\*pi\)\^n overflows at n=400$"):
        ma_measure(log_profile(), 400)


def test_constant_profile_has_zero_measure():
    assert ma_measure(constant_profile(-3.0), 3).total_mass == 0.0
