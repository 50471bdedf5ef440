"""Harnesses: truncation analysis, weak convergence, maximality, membership."""
import math
import re

import numpy as np
import pytest

from radialma import (
    CONVERGING_TO_POSITIVE,
    CONVERGING_TO_ZERO,
    NonMonotoneSequence,
    NotAdmissible,
    ProfileSequence,
    annulus,
    cegrell_f_diagnostic,
    check_decreasing,
    closed_ball,
    condition_level,
    condition_sublevel,
    counterexample_sequence,
    default_battery,
    generalized_condition,
    geometric_schedule,
    hat,
    log_profile,
    ma_domain_membership,
    ma_measure,
    make_profile,
    max_const_profile,
    maximality_check,
    MinusInfinity,
    nonpolar_part,
    plateau,
    power_tail_profile,
    punctured_battery,
    random_decreasing_sequence,
    random_profile,
    setwise_gap,
    shifted_sequence,
    sphere,
    standard_exhaustion,
    truncation_analysis,
    truncation_sequence,
    weak_convergence_test,
)

TWO_PI = 2.0 * math.pi


def test_truncation_analysis_log_on_small_ball():
    """NP mass 0 but every truncation dumps (2pi)^n on K: both fail."""
    rep = truncation_analysis(log_profile(), closed_ball(-1.0), 2)
    assert rep.verdict == "flags-agree"
    assert rep.details["np_mass_on_K"] == 0.0
    tot, lev, inter = rep.conclusion_series
    assert all(v == TWO_PI**2 for v in lev.values)
    assert all(v == TWO_PI**2 for v in tot.values)
    assert all(v == 0.0 for v in inter.values)
    assert tot.flag != CONVERGING_TO_ZERO
    assert lev.flag != CONVERGING_TO_ZERO


def test_truncation_analysis_power_tail():
    """Level part decays like (2pi/(2j))^n, total converges to NP mass."""
    rep = truncation_analysis(power_tail_profile(0.5), closed_ball(-1.0), 1)
    assert rep.verdict == "flags-agree"
    tot, lev, inter = rep.conclusion_series
    assert tot.flag == CONVERGING_TO_ZERO  # reads |total - np_mass|
    assert lev.flag == CONVERGING_TO_ZERO
    for j, v in zip(lev.indices, lev.values):
        if j >= 8:
            assert v == pytest.approx(TWO_PI / (2.0 * j), rel=0.2)


def test_truncation_analysis_bounded_profile_stabilizes():
    rep = truncation_analysis(max_const_profile(0.0, 1.0), closed_ball(0.0), 3)
    assert rep.verdict == "flags-agree"
    tot, lev, inter = rep.conclusion_series
    assert all(v == TWO_PI**3 for v in tot.values)
    assert all(v == 0.0 for v in lev.values)
    assert rep.details["np_mass_on_K"] == TWO_PI**3


def test_decomposition_is_exact_on_clamped_profiles():
    # a profile carrying its own clamp at -2.5: for j <= 2 the truncation
    # clamp is active and its release atom sits on {u = -j}; from j = 4
    # on, the profile's own release atom at -2.5 counts as interior
    p = log_profile().truncate(2.5)
    rep = truncation_analysis(p, closed_ball(-1.0), 1)
    assert rep.details["exact_decomposition"] is True
    tot, lev, inter = rep.conclusion_series
    assert lev.values[0] == TWO_PI and lev.values[1] == TWO_PI
    assert all(v == 0.0 for v in lev.values[2:])
    assert all(v == TWO_PI for v in tot.values)
    assert inter.values[0] == 0.0 and inter.values[-1] == TWO_PI


def test_weak_convergence_truncations_of_power_tail():
    phi = plateau(-1.0, -0.1, 0.0)
    rep = weak_convergence_test(
        truncation_sequence(power_tail_profile(0.5)), [phi], 1
    )
    assert rep.hypothesis_series.flag == CONVERGING_TO_ZERO
    (ser,) = rep.conclusion_series
    assert ser.flag == CONVERGING_TO_ZERO
    assert rep.details["implication_respected"] is True


def test_weak_convergence_of_counterexample_pairing():
    """Setwise masses jump but the pairing still converges: the atom at
    t = 1/k slides to t = 0 under a continuous phi."""
    seq = counterexample_sequence(1.0)
    phi = plateau(0.0, 0.5, 1.0)
    for n in (1, 2):
        rep = weak_convergence_test(seq, [phi], n)
        (ser,) = rep.conclusion_series
        assert ser.flag == CONVERGING_TO_ZERO
        assert ser.metadata["target"] == TWO_PI**n
        ks, vals = ser.indices, ser.values
        assert vals[-1] == pytest.approx(TWO_PI**n, rel=0.05)
        assert rep.details["implication_respected"] is True


def test_weak_convergence_log_profile_shape():
    """Hypothesis positive yet every pairing converges; no converse is
    asserted anywhere in the report."""
    rep = weak_convergence_test(
        truncation_sequence(log_profile()), default_battery(0.0), 1
    )
    assert rep.hypothesis_series.flag == CONVERGING_TO_POSITIVE
    assert all(s.flag == CONVERGING_TO_ZERO for s in rep.conclusion_series)
    assert rep.details["implication_respected"] is True
    assert "converse" not in rep.to_json_dict()


def test_setwise_gap_counterexample():
    for n in (1, 2, 3):
        rep = setwise_gap(counterexample_sequence(1.0), closed_ball(0.0), n)
        assert rep.verdict == "persistent-gap"
        (ser,) = rep.conclusion_series
        assert all(v == 0.0 for v in ser.values)
        assert rep.details["np_mass_on_K"] == TWO_PI**n
        assert rep.details["final_gap"] == TWO_PI**n


def test_setwise_gap_on_sphere_variant():
    rep = setwise_gap(counterexample_sequence(1.0), sphere(0.0), 2)
    assert rep.verdict == "persistent-gap"
    assert rep.details["np_mass_on_K"] == TWO_PI**2


def test_setwise_gap_rejects_an_empty_schedule():
    # it read the final gap off entries[-1] and raised IndexError
    msg = "setwise_gap needs a nonempty k_schedule"
    with pytest.raises(ValueError, match=msg):
        setwise_gap(counterexample_sequence(1.0), closed_ball(0.0), 1, ())
    # before any work: a sequence with no limit and no members is not read
    with pytest.raises(ValueError, match=msg):
        setwise_gap(ProfileSequence("unread", None, None), closed_ball(0.0), 1, [])


def test_weak_convergence_rejects_an_empty_schedule():
    # no entries leave nothing to judge, yet a verdict would be returned
    msg = "^weak_convergence_test needs a nonempty k_schedule$"
    battery = default_battery(0.0)
    with pytest.raises(ValueError, match=msg):
        weak_convergence_test(truncation_sequence(log_profile()), battery, 1, ())
    # before any work: a sequence with no limit and no members is not read
    with pytest.raises(ValueError, match=msg):
        weak_convergence_test(ProfileSequence("unread", None, None), battery, 1, [])


def test_setwise_convergence_without_gap():
    rep = setwise_gap(
        truncation_sequence(max_const_profile(0.0, 1.0)), closed_ball(0.0), 1
    )
    assert rep.verdict == "converges-setwise"
    (ser,) = rep.conclusion_series
    assert all(v == TWO_PI for v in ser.values)


def test_maximality_verdicts():
    assert maximality_check(log_profile(), 1).verdict == "maximal-off-origin"
    assert maximality_check(log_profile(), 2).verdict == "maximal-off-origin"
    assert maximality_check(max_const_profile(0.0, 1.0), 1).verdict == "not-maximal"
    assert maximality_check(power_tail_profile(0.5), 1).verdict == "not-maximal"


@pytest.mark.parametrize(
    "schedule, got",
    [((0, 1, 2), "0.0"), ((-1, 1, 2), "-1.0"), ((1, math.nan, 4), "nan")],
    ids=["zero", "negative", "nan"],
)
def test_maximality_rejects_levels_that_are_not_positive(schedule, got):
    # the hypothesis series raises the truncation ladder's error, the one
    # truncation_analysis raises over the same schedule
    msg = rf"^truncation level j must be positive, got {got}$"
    with pytest.raises(ValueError, match=msg):
        maximality_check(log_profile(), 1, schedule=schedule)
    with pytest.raises(ValueError, match=msg):
        truncation_analysis(log_profile(), closed_ball(-1.0), 1, schedule=schedule)


@pytest.mark.parametrize(
    "harness",
    [
        lambda s: truncation_analysis(log_profile(), closed_ball(-1.0), 1, s),
        lambda s: maximality_check(log_profile(), 1, schedule=s),
        lambda s: cegrell_f_diagnostic(max_const_profile(-1.0), 2, s),
        lambda s: ma_domain_membership(log_profile(), 1, s),
        lambda s: condition_sublevel(log_profile(), 1, s),
        lambda s: condition_level(log_profile(), 1, s),
    ],
    ids=["truncation", "maximality", "cegrell", "membership", "sublevel", "level"],
)
@pytest.mark.parametrize("schedule", [(), []], ids=["tuple", "list"])
def test_an_empty_schedule_raises_before_any_verdict(harness, schedule):
    # verdicts were drawn from no level at all, and cegrell's sup of no
    # masses raised a stray "max() arg is an empty sequence"
    msg = "^a schedule needs at least one truncation level j$"
    with pytest.raises(ValueError, match=msg):
        harness(schedule)


@pytest.mark.parametrize("schedule", [(2, 1), (1, 1), (1, 4, 2)])
def test_a_schedule_that_does_not_increase_raises_the_series_error(schedule):
    # at j = 1 the clamp covers the kink at -1 that is interior at j = 2,
    # so the interior mass falls; the series rejects the order itself
    p = make_profile([(-3.0, -3.0), (-1.0, -1.0)], MinusInfinity(1.0), final_slope=2.0)
    msg = "^series indices must increase"
    with pytest.raises(ValueError, match=msg):
        truncation_analysis(p, closed_ball(0.0), 1, schedule=schedule)
    with pytest.raises(ValueError, match=msg):
        maximality_check(p, 1, schedule=schedule)


def test_maximality_names_unlabelled_test_functions_as_weak_convergence_does():
    # two unlabelled phis shared the one flag ''
    phis = (hat(-2, -1.5, -1), hat(-1, -0.75, -0.5))
    p = power_tail_profile(0.5)
    rep = maximality_check(p, 2, phis=phis)
    assert rep.flags == {"phi0": "converging-to-positive", "phi1": "converging-to-positive"}
    assert [rep.flags[f"phi{i}"] for i in range(2)] == [s.flag for s in rep.conclusion_series]
    weak = weak_convergence_test(truncation_sequence(p), phis, 2)
    assert list(weak.flags) == list(rep.flags)


def test_maximality_series_vanish_for_log():
    rep = maximality_check(log_profile(), 1)
    for ser in rep.conclusion_series:
        assert ser.flag == CONVERGING_TO_ZERO
        assert ser.values[-1] == 0.0  # atom leaves every annular support
    assert rep.battery == tuple(phi.label for phi in punctured_battery(0.0))


def _ladder_profiles():
    """Fixed families plus seeded bounded, unbounded and pre-clamped draws."""
    out = [
        pytest.param(log_profile(), id="log"),
        pytest.param(power_tail_profile(0.5), id="powertail"),
        pytest.param(max_const_profile(-1.0), id="maxconst"),
    ]
    rng = np.random.default_rng(20260)
    for i in range(4):
        bounded = random_profile(rng, 0.0, bounded=True, allow_clamp=False)
        unbounded = random_profile(rng, 0.0, bounded=False, allow_clamp=False)
        p = random_profile(rng, 0.0, allow_clamp=False)
        level = 0.5 * float(rng.integers(1, 9))
        while not -level > p.left_value:
            level /= 2.0
        out += [
            pytest.param(bounded, id=f"bounded{i}"),
            pytest.param(unbounded, id=f"unbounded{i}"),
            pytest.param(p.truncate(level), id=f"clamped{i}"),
        ]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("profile", _ladder_profiles())
def test_maximality_entries_match_the_per_measure_pairing(profile, n):
    # reference: one full pairing per truncated measure and test function
    rep = maximality_check(profile, n)
    phis = punctured_battery(profile.log_R)
    assert len(rep.conclusion_series) == len(phis)
    for ser, phi in zip(rep.conclusion_series, phis):
        want = [
            (float(j), ma_measure(profile.truncate(float(j)), n).integrate(phi))
            for j in geometric_schedule()
        ]
        assert [(j, v.hex()) for j, v in ser.entries] == [
            (j, v.hex()) for j, v in want
        ]


def test_default_battery_and_exhaustion_are_built_once_per_log_R():
    for build in (default_battery, punctured_battery, standard_exhaustion):
        assert build(0.0) is build(0.0)
        assert build(1.0) is not build(0.0)
        assert build(1.0) == build.__wrapped__(1.0)


def test_membership_verdicts():
    rep = ma_domain_membership(power_tail_profile(0.5), 1)
    assert rep.verdict == "in-domain"
    assert ma_domain_membership(log_profile(), 1).verdict == (
        "hypothesis-positive-no-verdict"
    )
    assert ma_domain_membership(max_const_profile(0.0, 1.0), 2).verdict == (
        "in-domain"
    )


def test_membership_reports_finite_exhaustion_masses():
    rep = ma_domain_membership(power_tail_profile(0.5), 1)
    masses = rep.details["np_masses_on_exhaustion"]
    assert all(math.isfinite(v) for v in masses)
    assert sorted(masses) == masses  # increasing along the exhaustion
    assert rep.details["np_is_radon"] is True


def test_cegrell_diagnostic():
    rep = cegrell_f_diagnostic(log_profile().truncate(5.0), 1)
    assert rep.verdict == "bounded-approximating-masses"
    (ser,) = rep.conclusion_series
    assert all(v == TWO_PI for v in ser.values)
    rep2 = cegrell_f_diagnostic(log_profile(), 2)
    assert rep2.verdict == "bounded-approximating-masses"
    with pytest.raises(NotAdmissible):
        cegrell_f_diagnostic(constant_boundary_profile(), 1)


def constant_boundary_profile():
    return make_profile([(-1.0, -1.5)], MinusInfinity(1.0), final_slope=1.0)


def test_generalized_condition():
    s = generalized_condition(
        truncation_sequence(power_tail_profile(0.5)), 1
    )
    assert s.flag == CONVERGING_TO_ZERO
    s2 = generalized_condition(counterexample_sequence(1.0), 1)
    assert s2.flag == CONVERGING_TO_ZERO
    assert all(v == 0.0 for v in s2.values)


def test_generalized_condition_forces_weak_convergence():
    """Remark-consistency: zero generalized condition => every battery
    pairing converges to the nonpolar target."""
    seq = counterexample_sequence(1.0)
    assert generalized_condition(seq, 2).flag == CONVERGING_TO_ZERO
    rep = weak_convergence_test(seq, default_battery(1.0), 2)
    assert all(s.flag == CONVERGING_TO_ZERO for s in rep.conclusion_series)


def test_generalized_condition_raises_on_a_sequence_that_does_not_decrease():
    # it took its members unchecked and judged a rising sequence
    # converging-to-zero
    u = log_profile()
    rising = ProfileSequence("rising", u, lambda k: u.truncate(1.0 / k))
    with pytest.raises(NonMonotoneSequence) as e:
        generalized_condition(rising, 2)
    assert str(e.value) == "rising: member 2 rises above the previous one at t=-inf"
    below = u.shift(-1.0)
    dipping = ProfileSequence("dip", u, lambda k: below)
    with pytest.raises(NonMonotoneSequence) as e:
        generalized_condition(dipping, 2)
    assert str(e.value) == "dip: member 1 dips below the limit at t=-1.0"


def test_check_decreasing_accepts_real_sequences():
    check_decreasing(truncation_sequence(log_profile()), [1, 2, 4, 8])
    check_decreasing(counterexample_sequence(1.0), [1, 2, 4, 8])
    check_decreasing(shifted_sequence(log_profile(), 2.0), [1, 3, 9])


class RecordingLimit:
    """A limit that records each point check_decreasing evaluates it at."""

    def __init__(self, t0, log_R):
        self.breakpoints, self.log_R, self.seen = ((t0, 0.0),), log_R, []

    def value(self, t):
        self.seen.append(t)
        return 0.0


def test_check_decreasing_grid_is_numpy_linspace_bit_for_bit():
    # the 33 points after -inf and the knot are np.linspace(a, b, 33),
    # built as Python floats
    rng = np.random.default_rng(11)
    scales = rng.choice([1e-3, 1.0, 1e3, 1e6], size=(2000, 2))
    for (t0, width), (s, w) in zip(rng.uniform(-1.0, 1.0, (2000, 2)), scales):
        t0 = float(t0 * s)
        limit = RecordingLimit(t0, t0 + float(abs(width) * w) + 1e-3)
        check_decreasing(ProfileSequence("recorded", limit, None), ())
        grid = limit.seen[2:]
        assert all(type(t) is float for t in grid)
        expected = np.linspace(t0 - 6.0, limit.log_R - 1e-6, 33)
        assert np.array(grid).tobytes() == expected.tobytes()


def test_check_decreasing_rejects_rising_members():
    rising = ProfileSequence(
        "rising", log_profile(), lambda k: log_profile().shift(float(k))
    )
    with pytest.raises(NonMonotoneSequence):
        check_decreasing(rising, [1, 2, 4])


def test_check_decreasing_rejects_members_below_limit():
    sinking = ProfileSequence(
        "sinking", log_profile(), lambda k: log_profile().shift(-1.0)
    )
    with pytest.raises(NonMonotoneSequence):
        check_decreasing(sinking, [1, 2])


@pytest.mark.parametrize(
    "slope, intercept, message",
    [
        # 0.5t - 0.5 rises above member 1 (t + 1) left of -3 and dips
        # below the limit right of -1: the rise is met first
        (0.5, -0.5, "member 2 rises above the previous one at t=-7.0"),
        # 3t + 2 dips below the limit left of -1 and rises above member 1
        # right of -0.5: the dip is met first
        (3.0, 2.0, "member 2 dips below the limit at t=-7.0"),
    ],
    ids=["rise", "dip"],
)
def test_check_decreasing_names_the_first_failing_point(slope, intercept, message):
    limit = log_profile()
    second = make_profile(
        [(-1.0, intercept - slope)], MinusInfinity(slope), final_slope=slope
    )
    seq = ProfileSequence(
        "mixed", limit, lambda k: limit.shift(1.0) if k == 1 else second
    )
    with pytest.raises(NonMonotoneSequence, match=rf"^mixed: {re.escape(message)}$"):
        check_decreasing(seq, [1, 2])


@pytest.mark.parametrize(
    "first, second, fails",
    [
        # the slack is 1e-9 * (1 + |limit|), so about 1e-9 near t = 0
        (0.0, -0.9e-9, False),
        (0.0, -1.5e-9, True),
        (0.0, 0.9e-9, False),
        (0.9e-9, 2.4e-9, True),
    ],
    ids=["small-dip", "dip", "small-rise", "rise"],
)
def test_check_decreasing_allows_exactly_its_slack(first, second, fails):
    limit = log_profile()
    seq = ProfileSequence(
        "near", limit, lambda k: limit.shift(first if k == 1 else second)
    )
    if fails:
        with pytest.raises(NonMonotoneSequence):
            check_decreasing(seq, [1, 2])
    else:
        check_decreasing(seq, [1, 2])


def test_member_index_validation():
    seq = truncation_sequence(log_profile())
    with pytest.raises(ValueError):
        seq.member(0)


@pytest.mark.parametrize("seed", range(20))
def test_liminf_never_undershoots_nonpolar_target(seed):
    rng = np.random.default_rng(16_000 + seed)
    seq = random_decreasing_sequence(rng, 0.0)
    n = seed % 3 + 1
    npm = nonpolar_part(seq.limit, n)
    for phi in default_battery(0.0)[::3]:
        target = npm.integrate(phi)
        for k in (16, 64, 256):
            val = ma_measure(seq.member(k), n).integrate(phi)
            assert val >= target - 1e-9 * (1.0 + target)


@pytest.mark.parametrize(
    "seed, draw, n", [(1, 307, 3), (11, 65, 3), (20, 380, 2), (20, 380, 3)]
)
def test_weak_convergence_flags_a_series_that_stabilized_after_a_bump(seed, draw, n):
    # the plateau@-32 deviations are 0 except a bump late in the
    # schedule; the series still reaches its target exactly
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        p = random_profile(rng, 0.0)
    rep = weak_convergence_test(truncation_sequence(p), default_battery(0.0), n)
    assert rep.flags["plateau@-32"] == CONVERGING_TO_ZERO
    assert rep.details["implication_respected"] is True


def test_report_serialization():
    rep = truncation_analysis(log_profile(), closed_ball(-1.0), 1)
    d = rep.to_json_dict()
    assert d["scenario"] == "truncation-analysis"
    assert d["verdict"] == "flags-agree"
    assert {"total_vs_np", "level", "interior_vs_np"} <= set(d["flags"])
    assert isinstance(d["conclusion_series"], list)


def test_weak_convergence_boundary_caution_flag():
    # steep final slope means mass can hide next to the open boundary
    phis = default_battery(0.0)[:2]
    tame = weak_convergence_test(truncation_sequence(log_profile()), phis, 1)
    assert tame.details["boundary_caution"] is False
    steep = weak_convergence_test(
        truncation_sequence(power_tail_profile(0.25)), phis, 1
    )
    assert steep.details["boundary_caution"] is True


def test_harnesses_reject_an_empty_battery():
    # with no test function the verdict was "converging" (weak convergence)
    # or "maximal-off-origin" (maximality), drawn from no pairing at all
    msg = "^weak_convergence_test needs a nonempty battery$"
    with pytest.raises(ValueError, match=msg):
        weak_convergence_test(truncation_sequence(log_profile()), (), 1)
    # before any work: a sequence with no limit and no members is not read
    with pytest.raises(ValueError, match=msg):
        weak_convergence_test(ProfileSequence("unread", None, None), [], 1)
    msg = "^maximality_check needs a nonempty battery$"
    with pytest.raises(ValueError, match=msg):
        maximality_check(log_profile(), 1, phis=())
    with pytest.raises(ValueError, match=msg):
        maximality_check(log_profile(), 1, phis=[])
    # None still means the punctured battery
    rep = maximality_check(log_profile(), 1, phis=None)
    assert rep.battery == tuple(phi.label for phi in punctured_battery(0.0))
