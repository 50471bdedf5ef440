"""The truncation ladder against the per-level loops it replaced.

``truncation_analysis``, ``maximality_check`` and ``cegrell_f_diagnostic``
read each level of their schedule from ``measures._truncation_ladder``
instead of building ``profile.truncate(float(j))`` and its measure, and
``decide_flag`` walks a series tail once.  These tests keep the loops
they replaced as references, as they were: a clamped copy and
``ma_measure`` per level, the classification by ``reference_classify_on``,
maximality's dict of test-function values per atom position, cegrell's
``total_mass`` per level, and the flag rule with its list of tail steps.
Every level and every report must match them bit for bit.
"""
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConvexityViolation,
    CONVERGING_TO_POSITIVE,
    CONVERGING_TO_ZERO,
    INCONCLUSIVE,
    DiagnosticSeries,
    HarnessReport,
    RadialMeasure,
    cegrell_f_diagnostic,
    closed_ball,
    condition_level,
    geometric_schedule,
    log_profile,
    ma_measure,
    maximality_check,
    nonpolar_part,
    MinusInfinity,
    make_profile,
    punctured_battery,
    standard_exhaustion,
    truncation_analysis,
    annulus,
)
from radialma.measures import _knot_atoms, _mass, _truncation_ladder
from radialma.series import _aitken_limit, decide_flag
from test_nonpolar_properties import fixed_profiles, profiles

LADDER_SCHEDULES = (geometric_schedule(), (1,), (3, 5, 9), (1, 2, math.inf))
HARNESS_SCHEDULES = (geometric_schedule(), (1,), (3, 5, 9))
# levels far below every knot, where each clamp releases on the left tail
DEEP_SCHEDULES = (geometric_schedule(2**30), (1, 3, 2**20 + 1, 2**30 - 1, 2**30))
COMPACTS = (closed_ball(-2.0), annulus(-3.0, -1.5), annulus(-2.0, -2.0))


# -- the references -----------------------------------------------------


def reference_decide_flag(values):
    """The flag rule with a list of tail steps, as it was."""
    finite = [v for v in values if math.isfinite(v)]
    meta = {"dropped_infinite": len(values) - len(finite)}
    if len(finite) < 3:
        meta["reason"] = "fewer than three finite entries"
        return INCONCLUSIVE, meta
    eps0 = 1e-6 * (finite[0] + 1.0)
    meta["eps0"] = eps0
    last3 = finite[-3:]
    spread = max(last3) - min(last3)
    scale = max(map(abs, last3))
    if spread <= 1e-6 * max(scale, 1e-300) and finite[-1] > eps0:
        meta["limit"] = finite[-1]
        return CONVERGING_TO_POSITIVE, meta
    tail = finite[len(finite) // 2 :]
    steps = list(zip(tail, tail[1:]))
    slack = 1e-12 * (abs(finite[0]) + 1.0)
    nonincreasing = all(b <= a + slack for a, b in steps)
    meta["tail_nonincreasing"] = nonincreasing
    if not nonincreasing:
        if last3 != [0.0, 0.0, 0.0]:
            return INCONCLUSIVE, meta
        meta["limit"] = 0.0
        meta["reason"] = "last three values are exactly 0"
        return CONVERGING_TO_ZERO, meta
    limit = _aitken_limit(*last3)
    meta["limit"] = limit
    pos = [a - b for a, b in steps if a > b]
    if len(pos) >= 2:
        meta["decay_ratio"] = (pos[-1] / pos[0]) ** (1.0 / (len(pos) - 1))
    if abs(limit) < eps0:
        return CONVERGING_TO_ZERO, meta
    return INCONCLUSIVE, meta


def reference_build_series(index_name, entries, target=None, extra_metadata=None):
    pairs = tuple([(float(j), float(v)) for j, v in entries])
    if target is None:
        flagged = [v for _, v in pairs]
    else:
        flagged = [abs(v - target) if math.isfinite(v) else v for _, v in pairs]
    flag, meta = reference_decide_flag(flagged)
    if target is not None:
        meta["target"] = target
        meta["flag_reads"] = "abs(value - target)"
        meta["signed"] = True
    if extra_metadata:
        meta.update(extra_metadata)
    return DiagnosticSeries(index_name, pairs, flag, meta)


def reference_classify_on(profile, clamped, measure, K, j):
    """Split the measure's mass on K into {u > -j}, {u = -j}, {u < -j}."""
    release_t = None
    if measure.atoms and clamped.floor == -j:
        release_t = measure.atoms[0][0]
    interior, level, below = [], [], []
    if measure.origin_mass != 0.0 and K.contains_origin:
        lv = profile.left_value
        if lv > -j:
            interior.append(measure.origin_mass)
        elif lv == -j:
            level.append(measure.origin_mass)
        else:
            below.append(measure.origin_mass)
    for t, m in measure.atoms:
        if not K.contains(t):
            continue
        if t == release_t:
            level.append(m)
            continue
        v = profile.value(t)
        if v > -j:
            interior.append(m)
        elif v == -j:
            level.append(m)
        else:
            below.append(m)
    return interior, level, below


def reference_truncation_analysis(profile, K, n, schedule):
    np_m = nonpolar_part(profile, n)
    np_mass = np_m.mass_on(K)
    rows_total, rows_level, rows_interior = [], [], []
    for j in schedule:
        clamped = profile.truncate(float(j))
        measure = ma_measure(clamped, n)
        interior, level, below = reference_classify_on(profile, clamped, measure, K, j)
        below_mass = math.fsum(below)
        if below_mass != 0.0:
            raise AssertionError(f"truncated measure charged {{u < -{j}}}: {below_mass}")
        rows_total.append((j, float(math.fsum(interior + level))))
        rows_level.append((j, float(math.fsum(level))))
        rows_interior.append((j, float(math.fsum(interior))))
    for (_, a), (_, b) in zip(rows_interior, rows_interior[1:]):
        if b < a:
            raise AssertionError("interior masses must be nondecreasing in j")
    total = reference_build_series(
        "j", rows_total, target=np_mass, extra_metadata={"series": "total_on_K"}
    )
    level = reference_build_series("j", rows_level, extra_metadata={"series": "level_part"})
    interior = reference_build_series(
        "j", rows_interior, target=np_mass, extra_metadata={"series": "interior_part"}
    )
    zero = CONVERGING_TO_ZERO
    return HarnessReport(
        scenario="truncation-analysis",
        hypothesis_series=None,
        conclusion_series=(total, level, interior),
        flags={
            "total_vs_np": total.flag,
            "level": level.flag,
            "interior_vs_np": interior.flag,
        },
        verdict="flags-agree" if (total.flag == zero) == (level.flag == zero) else "flags-disagree",
        details={
            "np_mass_on_K": np_mass,
            "np_total_mass": np_m.total_mass,
            "np_finite": True,
            "exact_decomposition": True,
            "level_zero_forces_total": not (level.flag == zero and total.flag != zero),
        },
    )


def reference_maximality_check(profile, n, schedule, phis=None):
    if phis is None:
        phis = punctured_battery(profile.log_R)
    exhaustion = standard_exhaustion(profile.log_R)
    np_m = nonpolar_part(profile, n)
    hypothesis = condition_level(profile, n, schedule)
    truncs = [(j, ma_measure(profile.truncate(float(j)), n)) for j in schedule]
    positions = {t for _, mj in truncs for t, _ in mj.atoms}
    conclusion, flags = [], {}
    for phi in phis:
        at = {t: phi.value(t) for t in positions}
        o = phi.origin_value
        entries = [
            (j, math.fsum([mj.origin_mass * o] + [m * at[t] for t, m in mj.atoms]))
            for j, mj in truncs
        ]
        s = reference_build_series("j", entries, target=0.0, extra_metadata={"phi": phi.label})
        conclusion.append(s)
        flags[phi.label] = s.flag
    maximal = np_m.total_mass == 0.0 and all(s.flag == CONVERGING_TO_ZERO for s in conclusion)
    return HarnessReport(
        scenario="maximality-check",
        hypothesis_series=hypothesis,
        conclusion_series=tuple(conclusion),
        flags=flags,
        verdict="maximal-off-origin" if maximal else "not-maximal",
        battery=tuple(phi.label for phi in phis),
        details={
            "criterion": "vanishing nonpolar part, radial reading",
            "np_total_mass": np_m.total_mass,
            "np_masses_on_exhaustion": [np_m.mass_on(K) for K in exhaustion],
            "n": n,
        },
    )


def reference_cegrell_entries(profile, n, schedule):
    return [(j, ma_measure(profile.truncate(float(j)), n).total_mass) for j in schedule]


# -- comparison helpers -------------------------------------------------


def bits(x):
    """Floats as their bit patterns, recursively; NaN-safe and sign-aware."""
    if isinstance(x, float):
        return ("f", struct.pack("<d", x))
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return x


def outcome(fn, *args):
    """The value's bits, or the exception's type and message."""
    try:
        return ("ok", bits(fn(*args)))
    except Exception as e:  # noqa: BLE001 -- compare whatever is raised
        return ("raised", type(e).__name__, str(e))


def ladder_measures(profile, n, schedule):
    _, atoms = _knot_atoms(profile, n)
    out = []
    for j, clamp, origin, release, start in _truncation_ladder(profile, n, schedule):
        head = () if release is None else (release,)
        out.append((j, clamp, RadialMeasure(n, origin, head + atoms[start:])))
    return out


def reference_levels(profile, n, schedule):
    out = []
    for j in schedule:
        clamped = profile.truncate(float(j))
        out.append((j, clamped.floor, ma_measure(clamped, n)))
    return out


def measure_bits(levels):
    return [
        (j, bits(clamp), bits(m.origin_mass), bits(m.atoms), m.n)
        for j, clamp, m in levels
    ]


def knot_level_schedule(profile):
    """Levels on each negative knot value and one ulp either side of it,
    where a clamp releases on a knot or its crossing rounds onto one."""
    levels = set()
    for _, v in profile.breakpoints:
        if v < 0.0:
            levels |= {-v, math.nextafter(-v, 0.0), math.nextafter(-v, math.inf)}
    return tuple(sorted(levels)) or (1,)


# -- the ladder ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_levels_are_the_truncated_measures_on_the_families(n):
    for p in fixed_profiles():
        for schedule in LADDER_SCHEDULES:
            assert measure_bits(ladder_measures(p, n, schedule)) == measure_bits(
                reference_levels(p, n, schedule)
            ), (p, schedule)


@settings(max_examples=100, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), schedule=st.sampled_from(LADDER_SCHEDULES))
def test_ladder_levels_are_the_truncated_measures(p, n, schedule):
    assert measure_bits(ladder_measures(p, n, schedule)) == measure_bits(
        reference_levels(p, n, schedule)
    )


@pytest.mark.parametrize("bad", [0, 0.0, -1, -2.5, math.nan])
def test_a_level_that_is_not_positive_raises_truncates_error(bad):
    p = log_profile()
    with pytest.raises(ValueError) as want:
        p.truncate(float(bad))
    schedule = (1, 2, bad)
    K = closed_ball(-2.0)
    for run in (
        lambda: list(_truncation_ladder(p, 1, schedule)),
        lambda: truncation_analysis(p, K, 1, schedule),
        lambda: cegrell_f_diagnostic(p, 1, schedule),
    ):
        with pytest.raises(ValueError) as got:
            run()
        assert str(got.value) == str(want.value)
    # maximality reads the level condition over the schedule first, as
    # it always did, so it raises whatever that raises
    assert outcome(lambda: maximality_check(p, 1, schedule=schedule)) == outcome(
        lambda: reference_maximality_check(p, 1, schedule)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_crossing_that_rounds_onto_the_first_knot_releases_there(n):
    # the tail crossing -1024 - 2**-52 rounds onto the first knot, so the
    # clamp releases there at the slope right of it and drops that knot's
    # atom, as the clamped copy's measure does
    p = make_profile([(-1024.0, -1.0)], MinusInfinity(1.0), final_slope=2.0)
    schedule = (1 + 2**-52,)
    ((_, _, _, release, start),) = _truncation_ladder(p, n, schedule)
    assert release == (-1024.0, _mass(n, 2.0)) and start == 1
    assert measure_bits(ladder_measures(p, n, schedule)) == measure_bits(
        reference_levels(p, n, schedule)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_deep_and_knot_levels_match_the_references_on_the_families(n):
    for p in fixed_profiles():
        for schedule in DEEP_SCHEDULES + (knot_level_schedule(p),):
            assert measure_bits(ladder_measures(p, n, schedule)) == measure_bits(
                reference_levels(p, n, schedule)
            ), (p, schedule)
            for K in COMPACTS:
                assert outcome(lambda: truncation_analysis(p, K, n, schedule).to_json_dict()) == outcome(
                    lambda: reference_truncation_analysis(p, K, n, schedule).to_json_dict()
                ), (p, K, schedule)
            assert outcome(lambda: maximality_check(p, n, schedule=schedule).to_json_dict()) == outcome(
                lambda: reference_maximality_check(p, n, schedule).to_json_dict()
            ), (p, schedule)


@settings(max_examples=80, deadline=None)
@given(
    p=profiles(),
    n=st.integers(1, 3),
    which=st.integers(0, len(DEEP_SCHEDULES)),
    K=st.sampled_from(COMPACTS),
)
def test_deep_and_knot_levels_match_the_references(p, n, which, K):
    schedule = (DEEP_SCHEDULES + (knot_level_schedule(p),))[which]
    assert measure_bits(ladder_measures(p, n, schedule)) == measure_bits(
        reference_levels(p, n, schedule)
    )
    got = outcome(lambda: truncation_analysis(p, K, n, schedule).to_json_dict())
    want = outcome(lambda: reference_truncation_analysis(p, K, n, schedule).to_json_dict())
    assert got == want


# -- the harnesses ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    p=profiles(),
    n=st.integers(1, 3),
    schedule=st.sampled_from(HARNESS_SCHEDULES),
    K=st.sampled_from(COMPACTS),
)
def test_truncation_analysis_matches_the_per_level_loop(p, n, schedule, K):
    got = outcome(lambda: truncation_analysis(p, K, n, schedule).to_json_dict())
    want = outcome(lambda: reference_truncation_analysis(p, K, n, schedule).to_json_dict())
    assert got == want


@settings(max_examples=40, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), schedule=st.sampled_from(HARNESS_SCHEDULES))
def test_maximality_check_matches_the_positions_dict(p, n, schedule):
    got = outcome(lambda: maximality_check(p, n, schedule=schedule).to_json_dict())
    want = outcome(lambda: reference_maximality_check(p, n, schedule).to_json_dict())
    assert got == want


@settings(max_examples=60, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), schedule=st.sampled_from(HARNESS_SCHEDULES))
def test_cegrell_entries_match_the_total_mass_loop(p, n, schedule):
    # shifted to boundary limit 0 (up to rounding), so most draws are
    # admissible; a shift off the value lattice may break convexity by an ulp
    try:
        p = p.shift(-p.boundary_limit)
    except ConvexityViolation:
        pass
    got = outcome(lambda: cegrell_f_diagnostic(p, n, schedule).to_json_dict())
    if got[0] == "raised":
        assert got[1] == "NotAdmissible"
        return
    entries = reference_cegrell_entries(p, n, schedule)
    report = cegrell_f_diagnostic(p, n, schedule)
    (s,) = report.conclusion_series
    want = reference_build_series("j", entries, extra_metadata={"series": "total_mass"})
    assert bits(s.to_json_dict()) == bits(want.to_json_dict())
    assert bits(report.details["sup_total_mass"]) == bits(max(v for _, v in entries))


def at_boundary_limit_zero(p):
    """p shifted to boundary limit 0 (up to rounding); a shift off the
    value lattice may break convexity by an ulp, which leaves p as is."""
    try:
        return p.shift(-p.boundary_limit)
    except ConvexityViolation:
        return p


def assert_cegrell_matches_the_total_mass_loop(p, n, schedule):
    """cegrell's series and supremum against the total-mass loop, bit for
    bit; a profile whose boundary limit is not 0 must raise NotAdmissible."""
    got = outcome(lambda: cegrell_f_diagnostic(p, n, schedule).to_json_dict())
    if got[0] == "raised":
        assert got[1] == "NotAdmissible"
        return
    entries = reference_cegrell_entries(p, n, schedule)
    report = cegrell_f_diagnostic(p, n, schedule)
    (s,) = report.conclusion_series
    want = reference_build_series("j", entries, extra_metadata={"series": "total_mass"})
    assert bits(s.to_json_dict()) == bits(want.to_json_dict()), (p, schedule)
    assert bits(report.details["sup_total_mass"]) == bits(max(v for _, v in entries))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cegrell_deep_and_knot_levels_match_the_total_mass_loop_on_the_families(n):
    # left-tail and knot levels share one fsum in the pairing walk
    # whenever they keep the same origin mass and atoms and release nothing
    for p in map(at_boundary_limit_zero, fixed_profiles()):
        for schedule in DEEP_SCHEDULES + (knot_level_schedule(p),):
            assert_cegrell_matches_the_total_mass_loop(p, n, schedule)


@settings(max_examples=60, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), which=st.integers(0, len(DEEP_SCHEDULES)))
def test_cegrell_deep_and_knot_levels_match_the_total_mass_loop(p, n, which):
    p = at_boundary_limit_zero(p)
    schedule = (DEEP_SCHEDULES + (knot_level_schedule(p),))[which]
    assert_cegrell_matches_the_total_mass_loop(p, n, schedule)


@pytest.mark.parametrize("schedule", HARNESS_SCHEDULES, ids=lambda s: f"to{max(s)}")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_harnesses_match_the_references_on_the_families(n, schedule):
    for p in fixed_profiles():
        for K in COMPACTS:
            assert outcome(lambda: truncation_analysis(p, K, n, schedule).to_json_dict()) == outcome(
                lambda: reference_truncation_analysis(p, K, n, schedule).to_json_dict()
            ), (p, K)
        assert outcome(lambda: maximality_check(p, n, schedule=schedule).to_json_dict()) == outcome(
            lambda: reference_maximality_check(p, n, schedule).to_json_dict()
        ), p


def test_only_the_origin_sits_on_the_level_minus_infinity():
    # at j = inf an unclamped profile has no release atom, so its first
    # knot atom is classified by value: u > -inf there.  The per-level
    # loop put it on {u = -inf}, because its clamp test read
    # floor == -j as true for the floor -inf, and then tripped its own
    # check that the interior masses do not decrease in j.
    p = make_profile([(-1.0, -1.0)], MinusInfinity(1.0), final_slope=2.0)
    K = closed_ball(-0.5)
    m = ma_measure(p, 1)
    assert m.origin_mass > 0.0 and m.atoms[0][0] == -1.0
    schedule = (1, 2, math.inf)
    total, level, interior = truncation_analysis(p, K, 1, schedule).conclusion_series
    assert level.values[-1] == m.origin_mass
    assert interior.values[-1] == math.fsum(mass for t, mass in m.atoms if K.contains(t))
    assert total.values[-1] == m.mass_on(K)
    with pytest.raises(AssertionError, match="interior masses must be nondecreasing"):
        reference_truncation_analysis(p, K, 1, schedule)


# -- the flag rule ------------------------------------------------------

_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-7, 1e-300, math.inf, -math.inf]),
    st.floats(0.0, 10.0),
    st.integers(0, 4).map(float),
)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(_values, max_size=12))
def test_decide_flag_matches_the_steps_list(values):
    assert bits(decide_flag(values)) == bits(reference_decide_flag(values))


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1.0, math.inf],
        [math.inf, 1.0, 0.5, 0.25, math.inf],
        [0.0] * 11,
        [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0],
        [0.0] * 5 + [239.2, 433.8, 159.3, 0.0, 0.0, 0.0],
        [0.0] * 5 + [239.2, 433.8, 159.3, 0.0, 0.0, 1e-300],
        [1.0, 0.5, 0.5, 0.5, 0.25, 0.25],
        [2.0, 2.0, 2.0, 2.0],
        [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125],
        [3.0, 1.0, 2.0, 1.0, 1.0],
    ],
)
def test_decide_flag_matches_on_infinities_zeros_bumps_and_ties(values):
    assert bits(decide_flag(values)) == bits(reference_decide_flag(values))
