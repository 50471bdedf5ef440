"""The sequence harnesses against loops that build and pair every member.

``check_decreasing``, ``weak_convergence_test``, ``setwise_gap`` and
``generalized_condition`` walk the members once and spot-check and pair
each distinct member once: consecutive indices whose member is the same
object (a truncation at or below the limit's infimum, a line that never
rises above the limit) share its values, measure and pairings.
``weak_convergence_test`` builds no member measure: members sharing the
limit's formula are spot-checked through one walk of its values and
paired through the knot-atom table they share, by ``_level_sums``.  The
references here are the loops as they were, which call ``seq.member(k)``
and build a measure for every index.  Reports must match them bit for
bit, every pairing must be ``ma_measure(member, n).integrate(phi)`` bit
for bit, and an input that raised must raise the same error.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    CONVERGING_TO_ZERO,
    FiniteValue,
    OutOfDomain,
    HarnessReport,
    NonMonotoneSequence,
    ProfileSequence,
    annulus,
    build_series,
    check_decreasing,
    clipped_sequence,
    closed_ball,
    condition_sublevel,
    counterexample_sequence,
    default_battery,
    generalized_condition,
    geometric_schedule,
    linear_cap_profile,
    log_profile,
    ma_measure,
    max_const_profile,
    nonpolar_part,
    plateau,
    power_tail_profile,
    random_decreasing_sequence,
    setwise_gap,
    truncation_sequence,
    weak_convergence_test,
)
from radialma import convergence
from radialma.measures import _own_level
from radialma.profiles import NEG_INF
from radialma.series import DEFAULT_SCHEDULE
from test_ladder_reference import bits, outcome

SCHEDULES = (
    DEFAULT_SCHEDULE,
    geometric_schedule(2**20),
    (1,),
    (3, 5, 9),
    (2, 2, 8),
)
COMPACTS = (closed_ball(-2.0), annulus(-3.0, -1.5), annulus(-2.0, -2.0))


# -- the references -----------------------------------------------------


def reference_check_decreasing(seq, ks):
    """Every member's values at the knots and 33 linspace points."""
    limit = seq.limit
    ts = [NEG_INF, *(t for t, _ in limit.breakpoints)]
    ts += [float(t) for t in np.linspace(limit.breakpoints[0][0] - 6.0, limit.log_R - 1e-6, 33)]
    prev = None
    for k in ks:
        prof = seq.member(k)
        vals = [prof.value(t) for t in ts]
        for i, (t, v) in enumerate(zip(ts, vals)):
            lv = limit.value(t)
            slack = 1e-9 * (1.0 + (abs(lv) if math.isfinite(lv) else 0.0))
            if math.isfinite(lv) and v < lv - slack:
                raise NonMonotoneSequence(
                    f"{seq.label}: member {k} dips below the limit at t={t}"
                )
            if prev is not None and math.isfinite(prev[i]) and v > prev[i] + slack:
                raise NonMonotoneSequence(
                    f"{seq.label}: member {k} rises above the previous one at t={t}"
                )
        prev = vals


def reference_weak_convergence_test(seq, phis, n, ks):
    reference_check_decreasing(seq, ks)
    limit = seq.limit
    np_m = nonpolar_part(limit, n)
    hypothesis = condition_sublevel(limit, n)
    measures = [(k, ma_measure(seq.member(k), n)) for k in ks]
    conclusion, flags = [], {}
    for phi in phis:
        entries = [(k, mk.integrate(phi)) for k, mk in measures]
        s = build_series(
            "k", entries, target=np_m.integrate(phi), extra_metadata={"phi": phi.label}
        )
        conclusion.append(s)
        flags[phi.label or f"phi{len(flags)}"] = s.flag
    all_converge = all(s.flag == CONVERGING_TO_ZERO for s in conclusion)
    hyp_zero = hypothesis.flag == CONVERGING_TO_ZERO
    return HarnessReport(
        scenario=f"weak-convergence[{seq.label}]",
        hypothesis_series=hypothesis,
        conclusion_series=tuple(conclusion),
        flags=flags,
        verdict=(
            f"hypothesis={hypothesis.flag}; "
            f"conclusion={'converging' if all_converge else 'not-converging'}"
        ),
        battery=tuple(phi.label for phi in phis),
        details={
            "np_total_mass": np_m.total_mass,
            "np_is_radon": True,
            "implication_respected": (not hyp_zero) or all_converge,
            "boundary_caution": limit.final_slope >= 8.0,
            "n": n,
        },
    )


def reference_setwise_gap(seq, K, n, ks):
    reference_check_decreasing(seq, ks)
    limit = seq.limit
    target = nonpolar_part(limit, n).mass_on(K)
    hypothesis = condition_sublevel(limit, n)
    entries = [(k, ma_measure(seq.member(k), n).mass_on(K)) for k in ks]
    s = build_series("k", entries, target=target)
    gap = target - entries[-1][1]
    persistent = s.flag != CONVERGING_TO_ZERO and abs(gap) > 1e-9 * (1.0 + abs(target))
    return HarnessReport(
        scenario=f"setwise-gap[{seq.label}]",
        hypothesis_series=hypothesis,
        conclusion_series=(s,),
        flags={"mass_on_K": s.flag, "hypothesis": hypothesis.flag},
        verdict="persistent-gap" if persistent else "converges-setwise",
        details={"np_mass_on_K": target, "final_gap": gap, "n": n},
    )


def reference_generalized_condition(seq, n):
    reference_check_decreasing(seq, DEFAULT_SCHEDULE)
    members = [(p, ma_measure(p, n)) for p in (seq.member(k) for k in DEFAULT_SCHEDULE)]
    entries = []
    for j in DEFAULT_SCHEDULE:
        sup = 0.0
        for prof, mk in members:
            sub = prof.sublevel(float(-j))
            if not sub.is_empty:
                sup = max(sup, mk.mass_on(sub))
        entries.append((j, sup))
    return build_series(
        "j", entries, extra_metadata={"series": "sup_k sublevel mass", "n": n}
    )


def assert_matches_the_references(seq, n, ks, compacts=COMPACTS):
    phis = default_battery(seq.limit.log_R)
    assert outcome(check_decreasing, seq, ks) == outcome(reference_check_decreasing, seq, ks)
    assert outcome(lambda: weak_convergence_test(seq, phis, n, ks).to_json_dict()) == outcome(
        lambda: reference_weak_convergence_test(seq, phis, n, ks).to_json_dict()
    )
    for K in compacts:
        assert outcome(lambda: setwise_gap(seq, K, n, ks).to_json_dict()) == outcome(
            lambda: reference_setwise_gap(seq, K, n, ks).to_json_dict()
        ), K
    assert outcome(lambda: generalized_condition(seq, n).to_json_dict()) == outcome(
        lambda: reference_generalized_condition(seq, n).to_json_dict()
    )


# -- the inputs ---------------------------------------------------------


def random_sequence(seed, log_R):
    return random_decreasing_sequence(np.random.default_rng(seed), log_R)


def family_sequences():
    limits = [
        max_const_profile(-1.0),
        max_const_profile(-4.0),
        max_const_profile(-600.0),
        linear_cap_profile(2.0, -1.0),
        linear_cap_profile(0.5, -3.0),
        linear_cap_profile(0.0, -1.0),
        log_profile(),
        log_profile(1.0),
    ]
    return [truncation_sequence(p) for p in limits] + [counterexample_sequence(1.0)]


# -- the tests ----------------------------------------------------------


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_R=st.sampled_from([0.0, 1.0, -0.5]),
    n=st.integers(1, 3),
    ks=st.sampled_from(SCHEDULES),
    K=st.sampled_from(COMPACTS),
)
def test_random_sequences_match_the_every_member_loops(seed, log_R, n, ks, K):
    assert_matches_the_references(random_sequence(seed, log_R), n, ks, (K,))


def test_the_random_draws_cover_every_mode_and_left_end():
    # the modes and left ends the property test above draws from; the
    # first seeds of each (mode, bounded) pair run here as well
    found = {}
    for seed in range(200):
        seq = random_sequence(seed, 0.0)
        key = (seq.label, isinstance(seq.limit.left_end, FiniteValue))
        found.setdefault(key, seq)
    modes = ("random-truncation", "random-shift", "random-clip")
    assert sorted(found) == sorted((m, b) for m in modes for b in (False, True))
    for seq in found.values():
        assert_matches_the_references(seq, 2, DEFAULT_SCHEDULE)


@pytest.mark.parametrize("ks", SCHEDULES, ids=lambda s: f"to{max(s)}x{len(s)}")
@pytest.mark.parametrize("n", [1, 3])
def test_family_truncations_match_the_every_member_loops(n, ks):
    for seq in family_sequences():
        assert_matches_the_references(seq, n, ks)


def listed_sequence(label, limit, members):
    """Member k is ``members[k - 1]``: the same objects, index by index."""
    return ProfileSequence(label, limit, lambda k: members[k - 1])


def hand_sequences():
    limit = log_profile()
    high, low = limit.shift(1.0), limit.shift(0.5)
    below = limit.shift(-1.0)
    return [
        listed_sequence("runs", limit, [high, high, low, low, limit, limit]),
        # rises above the run before it, at its first index
        listed_sequence("rise", limit, [low, low, high, high, limit, limit]),
        # rises above the run before it, though not above the first run
        listed_sequence("rise-late", limit, [high, high, limit, limit, low, low]),
        # dips below the limit after a run
        listed_sequence("dip", limit, [high, high, below, below, limit, limit]),
        # an equal but new object starts a new run
        listed_sequence("equal", limit, [low, limit.shift(0.5), limit, limit, limit, limit]),
    ]


@pytest.mark.parametrize("ks", [(1, 2, 3, 4, 5, 6), (2, 2, 4, 6), (1, 3, 5), (6, 6)])
def test_repeated_members_raise_or_pass_as_every_member_did(ks):
    for seq in hand_sequences():
        for n in (1, 2):
            assert_matches_the_references(seq, n, ks)
    got = [outcome(check_decreasing, seq, (1, 2, 3, 4, 5, 6)) for seq in hand_sequences()]
    assert [g[0] for g in got] == ["ok", "raised", "raised", "raised", "ok"]
    assert got[1][2] == "rise: member 3 rises above the previous one at t=-1.0"


def test_a_settled_truncation_builds_one_member_measure(monkeypatch):
    built = []

    def counting(profile, n):
        built.append(profile)
        return ma_measure(profile, n)

    monkeypatch.setattr(convergence, "ma_measure", counting)
    limit = max_const_profile(-1.0)
    seq = truncation_sequence(limit)
    assert len(DEFAULT_SCHEDULE) == 11
    # weak_convergence_test pairs through the knot-atom table: no member
    # measure is built, settled or not
    weak_convergence_test(seq, default_battery(0.0), 2)
    assert built == []
    setwise_gap(seq, closed_ball(-2.0), 2)
    assert built == [limit]
    built.clear()
    generalized_condition(seq, 2)
    assert built == [limit]
    # the log profile's truncations differ at every level
    built.clear()
    weak_convergence_test(truncation_sequence(log_profile()), default_battery(0.0), 2)
    assert built == []


def test_a_member_repeated_only_by_equality_is_paired_again(monkeypatch):
    # runs go by identity: a new but equal member has a knot-atom table
    # of its own, so it is read and paired again, and no measure is built
    built, levels = [], []

    def counting(profile, n):
        built.append(profile)
        return ma_measure(profile, n)

    def own_level(profile, n, positions):
        levels.append(profile)
        return _own_level(profile, n, positions)

    monkeypatch.setattr(convergence, "ma_measure", counting)
    monkeypatch.setattr(convergence, "_own_level", own_level)
    seq = ProfileSequence("equal", max_const_profile(-1.0), lambda k: max_const_profile(-1.0))
    weak_convergence_test(seq, default_battery(0.0), 1, (1, 2, 4))
    # the limit's own level gives the target, then one per member
    assert levels[0] is seq.limit
    assert len(levels) == 4 and len({id(p) for p in levels}) == 4
    assert built == []


# -- every pairing against the member's own measure -------------------------


def reference_pairings(seq, phis, n, ks):
    """Per phi, its target and ``ma_measure(member, n).integrate(phi)`` at
    each index, read in the order the harness reads them."""
    reference_check_decreasing(seq, ks)
    np_m = nonpolar_part(seq.limit, n)
    measures = [ma_measure(seq.member(k), n) for k in ks]
    return [(np_m.integrate(phi), [mk.integrate(phi) for mk in measures]) for phi in phis]


def harness_pairings(seq, phis, n, ks):
    rep = weak_convergence_test(seq, phis, n, ks)
    return [(s.metadata["target"], [v for _, v in s.entries]) for s in rep.conclusion_series]


def table_sequences():
    """Seeded random truncation, shift and clip sequences, two of each,
    and truncations of the power-tail, log and max-const families, with
    a clip of the log profile whose members hold knot atoms it lacks."""
    found: dict[str, list] = {}
    for seed in range(100):
        seq = random_sequence(seed, 0.0)
        found.setdefault(seq.label, [])
        if len(found[seq.label]) < 2:
            found[seq.label].append(seq)
    assert sorted(found) == ["random-clip", "random-shift", "random-truncation"]
    limits = [power_tail_profile(0.5), power_tail_profile(0.25), log_profile(), max_const_profile(-1.0)]
    return (
        [seq for seqs in found.values() for seq in seqs]
        + [truncation_sequence(p) for p in limits]
        + [clipped_sequence(log_profile(), 2.0, 0.5, 0.25)]
    )


def short_batteries(seq, n, ks):
    """Batteries on balls ending left of the rightmost and second
    rightmost atom that any member's measure holds, each with a plateau
    that is 1 at the origin."""
    positions = {t for k in ks for t, _ in ma_measure(seq.member(k), n).atoms}
    out = []
    for t in sorted(positions)[-2:]:
        log_R = t - 2.0**-10
        out.append(default_battery(log_R) + (plateau(log_R - 3.0, log_R - 0.5, log_R),))
    return out


@pytest.mark.parametrize("ks", [DEFAULT_SCHEDULE, geometric_schedule(2**20), (3, 5, 9)],
                         ids=["to1024", "to2^20", "3-5-9"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_pairing_is_the_member_measures_integral_bit_for_bit(n, ks):
    origin_plateaus = (plateau(-3.0, -0.5), plateau(-40.0, -2.0 ** -12))
    for seq in table_sequences():
        batteries = [default_battery(0.0), default_battery(0.0) + origin_plateaus]
        for phis in batteries + short_batteries(seq, n, ks):
            got = outcome(harness_pairings, seq, phis, n, ks)
            assert got == outcome(reference_pairings, seq, phis, n, ks), (seq.label, phis[0].log_R)


@pytest.mark.parametrize(
    "seq, log_R, message",
    [
        # the log profile has no knot atom: member 1 releases at t = -1
        (truncation_sequence(log_profile()), -1.5, "t=-1.0 > log_R=-1.5"),
        # member 1 holds a knot atom at -0.5, which the limit lacks
        (clipped_sequence(log_profile(), 2.0, 0.5, 0.25), -0.75, "t=-0.5 > log_R=-0.75"),
        # the limit's own atom raises first, in its target
        (truncation_sequence(power_tail_profile(0.5)), -0.5, "t=-0.35355339059327373 > log_R=-0.5"),
    ],
    ids=["release", "member-knot", "limit-knot"],
)
def test_a_ball_ending_left_of_a_member_atom_raises_the_member_pairings_error(seq, log_R, message):
    phis = default_battery(log_R)
    assert outcome(reference_pairings, seq, phis, 2, DEFAULT_SCHEDULE) == (
        "raised", "OutOfDomain", message,
    )
    with pytest.raises(OutOfDomain) as e:
        weak_convergence_test(seq, phis, 2)
    assert str(e.value) == message
