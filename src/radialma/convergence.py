"""Convergence harnesses for truncated Monge-Ampere measures.

Each harness builds the relevant diagnostic series, decides flags, and
returns a uniform HarnessReport.  The harnesses check one-directional
statements only: a capacity condition with a zero flag is evidence for
convergence to the nonpolar part, but a positive flag never lets a
harness conclude divergence (the log profile is the standing
counterexample: its scaled sublevel capacities are constant (2*pi)^n
while the truncated measures still converge).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .capacity import condition_level, condition_sublevel
from .errors import NonMonotoneSequence
from .families import (
    max_const_profile,
    punctured_battery,
    random_profile,
    standard_exhaustion,
)
from .measures import (
    RadialTestFunction,
    _knot_atoms,
    _own_level,
    _truncation_ladder,
    ma_measure,
    nonpolar_part,
)
from .profiles import ConvexProfile, RadialCompact, NEG_INF
from .series import (
    CONVERGING_TO_POSITIVE,
    CONVERGING_TO_ZERO,
    DEFAULT_SCHEDULE,
    DiagnosticSeries,
    build_series,
)


@dataclass(frozen=True)
class ProfileSequence:
    """A profile sequence u_k with its pointwise limit.

    ``member_fn`` maps k >= 1 to the k-th profile.  Sequences fed to the
    harnesses are expected to decrease pointwise to the limit; the
    harnesses spot-check that and raise NonMonotoneSequence otherwise.
    """

    label: str
    limit: ConvexProfile
    member_fn: Callable[[int], ConvexProfile]

    def member(self, k: int) -> ConvexProfile:
        if k < 1:
            raise ValueError(f"sequence index must be >= 1, got {k}")
        return self.member_fn(k)


def truncation_sequence(limit: ConvexProfile, label: str = "") -> ProfileSequence:
    """The canonical decreasing sequence u_k = max(u, -k)."""
    return ProfileSequence(
        label or "truncation", limit, lambda k: limit.truncate(float(k))
    )


def counterexample_sequence(log_R: float = 1.0) -> ProfileSequence:
    """u_k = max(log ||z||, 1/k) decreasing to max(log ||z||, 0).

    Every u_k puts zero Monge-Ampere mass on the closed unit ball while
    the limit's nonpolar part gives it (2*pi)^n; the ball radius must
    exceed 1 for the sets to live inside the domain.
    """
    if not log_R > 0.0:
        raise ValueError("this sequence needs log_R > 0")
    return ProfileSequence(
        "max(log r, 1/k)",
        max_const_profile(0.0, log_R),
        lambda k: max_const_profile(1.0 / k, log_R),
    )


def shifted_sequence(
    limit: ConvexProfile, scale: float = 1.0, label: str = ""
) -> ProfileSequence:
    """u_k = u + c_k, c_k = scale/k snapped to the 2^-12 value lattice.

    Lattice shifts add exactly to lattice knot values, so equal-slope
    runs in the limit survive bit for bit in every member; c_k is
    nonincreasing and eventually 0, keeping the sequence decreasing.
    """

    def member(k: int) -> ConvexProfile:
        return limit.shift(round(scale * 4096.0 / k) / 4096.0)

    return ProfileSequence(label or "shifted", limit, member)


def clipped_sequence(
    limit: ConvexProfile,
    slope: float,
    intercept: float,
    drop: float = 1.0,
    label: str = "",
) -> ProfileSequence:
    """u_k = max(u, slope*t + intercept - drop*(k-1)), sinking lines."""
    return ProfileSequence(
        label or "clipped",
        limit,
        lambda k: limit.max_with_affine(slope, intercept - drop * (k - 1)),
    )


def random_decreasing_sequence(rng, log_R: float = 0.0) -> ProfileSequence:
    """Seeded decreasing sequence over a random limit profile; ``rng``
    is a ``numpy.random.Generator``."""
    limit = random_profile(rng, log_R)
    mode = rng.choice(["truncation", "shift", "clip"])
    if mode == "truncation":
        return truncation_sequence(limit, label="random-truncation")
    if mode == "shift":
        return shifted_sequence(
            limit, scale=float(rng.uniform(0.5, 3.0)), label="random-shift"
        )
    slope = float(rng.uniform(0.0, 2.0))
    anchor = limit.breakpoints[0][0]
    intercept = limit.value(anchor) - slope * anchor
    return clipped_sequence(
        limit,
        slope,
        intercept,
        drop=float(rng.uniform(0.5, 2.0)),
        label="random-clip",
    )


def _member_walk(seq: ProfileSequence, ks: Sequence[int], check=None):
    """(members, at): the distinct members along ks, and per index of ks
    the pair (k, position of its member in ``members``).

    ``seq.member(k)`` is called once per index, in order.  Consecutive
    indices whose member is the same object share one position: a
    truncation at or below the limit's infimum (or its own clamp), or a
    line that never rises above the limit, returns the limit itself, so
    its values, measure and pairings repeat.  Reuse goes by identity,
    never equality, since equal profiles can differ in the sign of a
    zero.  ``check(k, member)``, if given, runs on each distinct member
    as soon as it is met.
    """
    members: list[ConvexProfile] = []
    at: list[tuple[int, int]] = []
    for k in ks:
        prof = seq.member(k)
        if not (members and members[-1] is prof):
            if check is not None:
                check(k, prof)
            members.append(prof)
        at.append((k, len(members) - 1))
    return members, at


def _checked_walk(seq: ProfileSequence, ks: Sequence[int]):
    """``_member_walk`` with each distinct member spot-checked as
    ``check_decreasing`` documents; a repeated member's values and
    comparisons repeat, so it is checked once.  The limit is evaluated
    once per point; a clamped copy of an unclamped limit shares its
    formula, so its values are ``floor if floor > x else x`` over those."""
    limit = seq.limit
    ts = [NEG_INF, *(t for t, _ in limit.breakpoints)]
    # np.linspace(a, b, 33) bit for bit: a + i * step, then b itself
    a, b = limit.breakpoints[0][0] - 6.0, limit.log_R - 1e-6
    step = (b - a) / 32
    ts += [a + i * step for i in range(32)] + [b]
    formula = limit.value  # the formula itself when the limit is unclamped
    xs = [formula(t) for t in ts]
    prev: list[float] | None = None
    # per point, once: the slack, and the bound a member must not dip
    # below (-inf where the limit is not finite, so no value dips)
    slacks, lows = [], []
    for lv in xs:
        finite = math.isfinite(lv)
        slack = 1e-9 * (1.0 + (abs(lv) if finite else 0.0))
        slacks.append(slack)
        lows.append(lv - slack if finite else NEG_INF)

    def check(k: int, prof: ConvexProfile) -> None:
        nonlocal prev
        if prof._formula is not formula:
            vals = [prof.value(t) for t in ts]
        else:
            floor = prof.floor
            vals = xs if floor == NEG_INF else [floor if floor > x else x for x in xs]
        for i, (t, v) in enumerate(zip(ts, vals)):
            if v < lows[i]:
                raise NonMonotoneSequence(
                    f"{seq.label}: member {k} dips below the limit at t={t}"
                )
            if prev is not None and math.isfinite(prev[i]) and v > prev[i] + slacks[i]:
                raise NonMonotoneSequence(
                    f"{seq.label}: member {k} rises above the previous one at t={t}"
                )
        prev = vals

    return _member_walk(seq, ks, check)


def check_decreasing(seq: ProfileSequence, ks: Sequence[int]) -> None:
    """Spot-check that members decrease along ks and stay above the limit,
    with a slack of 1e-9 relative to the limit's value.  A member that is
    the same object as the one before it is checked once."""
    _checked_walk(seq, ks)


@dataclass(frozen=True)
class HarnessReport:
    """Uniform result shape for every convergence harness."""

    scenario: str
    hypothesis_series: DiagnosticSeries | None
    conclusion_series: tuple[DiagnosticSeries, ...]
    flags: dict
    verdict: str
    battery: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "hypothesis_series": (
                None
                if self.hypothesis_series is None
                else self.hypothesis_series.to_json_dict()
            ),
            "conclusion_series": [
                s.to_json_dict() for s in self.conclusion_series
            ],
            "flags": dict(self.flags),
            "verdict": self.verdict,
            "battery": list(self.battery),
            "details": dict(self.details),
        }


def truncation_analysis(
    profile: ConvexProfile,
    K: RadialCompact,
    n: int,
    schedule=DEFAULT_SCHEDULE,
) -> HarnessReport:
    """Total vs nonpolar mass on K for the truncations, split by level.

    Series (a) is the total mass of (dd^c max(u, -j))^n on K, flagged
    against the nonpolar target; series (b) is the part carried by
    {u = -j}, flagged as a mass series.  A truncated measure charges
    nothing below -j, so its total on K is exactly interior + level.

    The levels come from ``_truncation_ladder``, so no clamped copy or
    measure is built, and each level is split by its structure, not by
    evaluating the profile.  The release atom lies on {u = -j} when the
    clamp sits at -j, and otherwise on the profile's own higher clamp,
    inside {u > -j}.  A nonzero origin mass occurs only at j = inf, on
    {u = -inf}.  A kept knot atom lies right of the release, so above
    -j, except on a bounded unclamped profile whose infimum is -j: the
    atom ending its flat bottom lies on {u = -j}.  One bisection of the
    knot atoms' values, which are nondecreasing and computed once, finds
    it.  Consecutive levels keeping the same atoms and release and
    origin masses share one (total, level, interior) row of fsums.
    """
    np_m = nonpolar_part(profile, n)
    np_mass = np_m.mass_on(K)
    _, atoms = _knot_atoms(profile, n)
    # indices, masses and values of the knot atoms inside K; the values
    # are the profile's at its knots, so they are nondecreasing
    on_K = [i for i, (t, _) in enumerate(atoms) if K.contains(t)]
    masses = [atoms[i][1] for i in on_K]
    values = [profile.value(atoms[i][0]) for i in on_K]
    rows_total: list[tuple[float, float]] = []
    rows_level: list[tuple[float, float]] = []
    rows_interior: list[tuple[float, float]] = []
    contains = K.contains
    key = row = None
    for j, clamp, origin, release, start in _truncation_ladder(profile, n, schedule):
        s = -j
        on, above = [], []  # the origin and release masses on and above -j
        if origin != 0.0 and K.contains_origin:
            on = [origin]
        if release is not None and contains(release[0]):
            if clamp == s:
                on = [release[1]]
            else:
                above = [release[1]]
        # the kept atoms: on -j up to ``top``, above it from there
        lo = bisect_left(on_K, start)
        top = bisect_right(values, s, lo)
        if key != (lo, top, on, above):
            key = (lo, top, on, above)
            interior = above + masses[top:]
            level = on + masses[lo:top]
            row = (math.fsum(interior + level), math.fsum(level), math.fsum(interior))
        total, on_level, inside = row
        rows_total.append((j, total))
        rows_level.append((j, on_level))
        rows_interior.append((j, inside))
    series_total = build_series(
        "j", rows_total, target=np_mass, extra_metadata={"series": "total_on_K"}
    )
    series_level = build_series(
        "j", rows_level, extra_metadata={"series": "level_part"}
    )
    if rows_interior == rows_total:
        # nothing on the level at any j: the same fsums, flag and fit
        series_interior = DiagnosticSeries._built(
            "j",
            series_total.entries,
            series_total.flag,
            {**series_total.metadata, "series": "interior_part"},
        )
    else:
        series_interior = build_series(
            "j",
            rows_interior,
            target=np_mass,
            extra_metadata={"series": "interior_part"},
        )
    flags = {
        "total_vs_np": series_total.flag,
        "level": series_level.flag,
        "interior_vs_np": series_interior.flag,
    }
    agree = (series_total.flag == CONVERGING_TO_ZERO) == (
        series_level.flag == CONVERGING_TO_ZERO
    )
    level_zero_forces_total = not (
        series_level.flag == CONVERGING_TO_ZERO
        and series_total.flag != CONVERGING_TO_ZERO
    )
    return HarnessReport(
        scenario="truncation-analysis",
        hypothesis_series=None,
        conclusion_series=(series_total, series_level, series_interior),
        flags=flags,
        verdict="flags-agree" if agree else "flags-disagree",
        details={
            "np_mass_on_K": np_mass,
            "np_total_mass": np_m.total_mass,
            "np_finite": True,
            "exact_decomposition": True,
            "level_zero_forces_total": level_zero_forces_total,
        },
    )


def weak_convergence_test(
    seq: ProfileSequence,
    phis: Sequence[RadialTestFunction],
    n: int,
    k_schedule=DEFAULT_SCHEDULE,
) -> HarnessReport:
    """Integrals against each phi along the sequence vs the nonpolar target.

    The sequence is first spot-checked to decrease along the schedule,
    as ``setwise_gap`` checks it.  The hypothesis series is the scaled
    sublevel capacity condition of the limit.  A zero hypothesis flag
    together with converging conclusions is the direction this harness
    checks; nothing is inferred from a positive hypothesis flag (the
    converse is false).  An empty ``k_schedule`` or ``phis`` raises
    ValueError.

    No measure is built per member.  Members sharing the limit's formula
    are spot-checked through one walk of its values.  Each member, and
    the target (the limit's own level without its origin mass), is paired
    through the knot-atom table it shares (a shifted or clipped member
    has its own): phi is evaluated once per table, at the atoms inside
    its open support, and an entry is the ``_level_sums`` fsum over the
    ``_own_level``, with the nonzero terms, float and OutOfDomain of
    ``ma_measure(member, n).integrate(phi)``.

    Profiles that climb steeply toward the boundary get a
    ``boundary_caution`` detail: the domain is open on the right, so
    mass piling up near the edge sits outside every compact and the
    battery may not see it.
    """
    if len(k_schedule) == 0:
        raise ValueError("weak_convergence_test needs a nonempty k_schedule")
    if len(phis) == 0:
        raise ValueError("weak_convergence_test needs a nonempty battery")
    members, at = _checked_walk(seq, k_schedule)
    limit = seq.limit
    np_m = nonpolar_part(limit, n)
    hypothesis = condition_sublevel(limit, n)
    conclusion = []
    flags = {}
    # per knot-atom table, its levels and their least start: at -1 the
    # nonpolar part, then each member's own level by its index in
    # ``members``; and the rightmost atom any of these measures holds
    groups: dict[int, list] = {}
    far = NEG_INF
    for i, prof in enumerate([limit, *members], -1):
        positions, atoms = _knot_atoms(prof, n)
        clamp, origin, release, start = _own_level(prof, n, positions)
        group = groups.setdefault(id(atoms), [positions, atoms, [], start])
        group[2].append((i, clamp, origin if i >= 0 else 0.0, release, start))
        group[3] = min(group[3], start)
        if start < len(positions) or release:
            far = max(far, positions[-1] if start < len(positions) else release[0])
    for phi in phis:
        if far > phi.log_R:
            # raises phi's OutOfDomain where the measures' pairings do
            for mk in [np_m, *(ma_measure(prof, n) for prof in members)]:
                mk.integrate(phi)
        value, o = phi.value, phi.origin_value
        a, b = phi.nodes[0][0] if o == 0.0 else NEG_INF, phi.nodes[-1][0]
        values = {}
        for positions, atoms, levels, lo in groups.values():
            first = bisect_right(positions, a, lo)
            last = bisect_left(positions, b, first)
            terms = [m * value(t) for t, m in atoms[first:last]]
            values.update(_level_sums(levels, o, value, a, b, terms, first))
        entries = [(k, values[i]) for k, i in at]
        s = build_series(
            "k", entries, target=values[-1], extra_metadata={"phi": phi.label}
        )
        conclusion.append(s)
        flags[phi.label or f"phi{len(flags)}"] = s.flag
    all_converge = all(s.flag == CONVERGING_TO_ZERO for s in conclusion)
    hyp_zero = hypothesis.flag == CONVERGING_TO_ZERO
    implication_respected = (not hyp_zero) or all_converge
    verdict = (
        f"hypothesis={hypothesis.flag}; "
        f"conclusion={'converging' if all_converge else 'not-converging'}"
    )
    return HarnessReport(
        scenario=f"weak-convergence[{seq.label}]",
        hypothesis_series=hypothesis,
        conclusion_series=tuple(conclusion),
        flags=flags,
        verdict=verdict,
        battery=tuple(phi.label for phi in phis),
        details={
            "np_total_mass": np_m.total_mass,
            "np_is_radon": True,
            "implication_respected": implication_respected,
            "boundary_caution": limit.final_slope >= 8.0,
            "n": n,
        },
    )


def setwise_gap(
    seq: ProfileSequence,
    K: RadialCompact,
    n: int,
    k_schedule=DEFAULT_SCHEDULE,
) -> HarnessReport:
    """Masses on a fixed compact along the sequence vs the nonpolar mass.

    Demonstrates that weak convergence to the nonpolar part does not
    force setwise convergence: the counterexample sequence keeps mass 0
    on the closed unit ball while the target is (2*pi)^n.  An empty
    ``k_schedule`` leaves no final gap to read and raises ValueError.
    """
    if len(k_schedule) == 0:
        raise ValueError("setwise_gap needs a nonempty k_schedule")
    members, at = _checked_walk(seq, k_schedule)
    limit = seq.limit
    np_m = nonpolar_part(limit, n)
    target = np_m.mass_on(K)
    hypothesis = condition_sublevel(limit, n)
    masses = [ma_measure(prof, n).mass_on(K) for prof in members]
    entries = [(k, masses[i]) for k, i in at]
    s = build_series("k", entries, target=target)
    gap = target - entries[-1][1]
    persistent = s.flag != CONVERGING_TO_ZERO and abs(gap) > 1e-9 * (
        1.0 + abs(target)
    )
    return HarnessReport(
        scenario=f"setwise-gap[{seq.label}]",
        hypothesis_series=hypothesis,
        conclusion_series=(s,),
        flags={"mass_on_K": s.flag, "hypothesis": hypothesis.flag},
        verdict="persistent-gap" if persistent else "converges-setwise",
        details={"np_mass_on_K": target, "final_gap": gap, "n": n},
    )


def _level_sums(levels, o, phi, a, b, terms, first=0):
    """Per level of ``_truncation_ladder``, or a measure's ``_own_level``
    led by a label j, (j, fsum of its measure's terms against a test
    function).

    The terms are the origin mass times ``o``, the release atom's mass
    times ``phi`` at it when the release lies in the open interval
    (a, b), and the products ``terms`` of the knot atoms the level
    keeps; ``terms[0]`` belongs to atom index ``first``, and a level
    keeps the atoms from its ``start`` on.  fsum's exact rounding does
    not depend on the order of the terms.  Consecutive levels with the
    same origin and release terms and the same start share one fsum.
    """
    entries, key, size = [], None, len(terms)
    for j, _, origin, release, start in levels:
        # clamped, so that levels keeping the same terms share a key
        k = 0 if start <= first else size if start - first > size else start - first
        head = [origin * o]
        if release is not None and a < release[0] < b:
            head.append(release[1] * phi(release[0]))
        if key != (head, k):
            key = (head, k)
            value = math.fsum(head + terms[k:])
        entries.append((j, value))
    return entries


def maximality_check(
    profile: ConvexProfile,
    n: int,
    phis: Sequence[RadialTestFunction] | None = None,
    schedule=DEFAULT_SCHEDULE,
) -> HarnessReport:
    """Radial maximality (away from the origin): vanishing nonpolar part.

    Checks that NP(dd^c u)^n carries no mass on the standard exhaustion
    and that the truncated measures integrate to 0 against test
    functions supported off the origin; the level-set capacity condition
    is reported as the hypothesis series.  ``phis`` defaults to the
    punctured battery; an empty one raises ValueError.

    The truncated measures are read from ``_truncation_ladder``, so no
    clamped copy or measure is built.  Each phi is 0 outside the open
    interval (a, b) from its first node (-inf when its origin value is
    not 0) to its last node, so an atom there adds m * 0.0, which fsum
    skips (an all-zero fsum is +0.0).  Phi is evaluated only at the knot
    atoms inside (a, b), found by bisection, and at the release atoms
    inside it; each entry is the fsum ``RadialMeasure.integrate`` takes
    over the same nonzero terms, hence the same float, summed by
    ``_level_sums`` as ``cegrell_f_diagnostic`` sums its masses.  The
    all-zero series of a phi that meets no atom is built once per call;
    each such phi gets a new series over its entries, flag and metadata,
    relabelled with the phi's label.
    """
    if phis is None:
        phis = punctured_battery(profile.log_R)
    elif len(phis) == 0:
        raise ValueError("maximality_check needs a nonempty battery")
    np_m = nonpolar_part(profile, n)
    np_masses = [np_m.mass_on(K) for K in standard_exhaustion(profile.log_R)]
    np_zero = np_m.total_mass == 0.0
    hypothesis = condition_level(profile, n, schedule)
    conclusion = []
    flags = {}
    positions, atoms = _knot_atoms(profile, n)
    levels = list(_truncation_ladder(profile, n, schedule))
    lo = min((start for *_, start in levels), default=len(atoms))
    released = [release[0] for *_, release, _ in levels if release is not None]
    # every point an unpruned pairing evaluates phi at, in its order; one
    # beyond phi's ball still raises phi's OutOfDomain
    reach = list(positions[lo:]) + released
    far = max(reach, default=NEG_INF)
    released.sort()
    zero = None  # the series of a phi that meets no atom, built once
    for phi in phis:
        if far > phi.log_R:
            for t in reach:
                phi.value(t)
        value, o = phi.value, phi.origin_value
        a, b = phi.nodes[0][0] if o == 0.0 else NEG_INF, phi.nodes[-1][0]
        first = bisect_right(positions, a, lo)
        last = bisect_left(positions, b, first)
        if (
            first == last
            and o == 0.0
            and bisect_right(released, a) == bisect_left(released, b)
        ):
            # every term is zero: the same entries, flag and fit each time
            if zero is None:
                zero = build_series("j", [(j, 0.0) for j, *_ in levels], target=0.0)
            s = DiagnosticSeries._built(
                "j", zero.entries, zero.flag, {**zero.metadata, "phi": phi.label}
            )
        else:
            terms = [m * value(t) for t, m in atoms[first:last]]
            entries = _level_sums(levels, o, value, a, b, terms, first)
            s = build_series(
                "j", entries, target=0.0, extra_metadata={"phi": phi.label}
            )
        conclusion.append(s)
        flags[phi.label] = s.flag
    all_zero = all(s.flag == CONVERGING_TO_ZERO for s in conclusion)
    maximal = np_zero and all_zero
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
            "np_masses_on_exhaustion": np_masses,
            "n": n,
        },
    )


def ma_domain_membership(
    profile: ConvexProfile,
    n: int,
    schedule=DEFAULT_SCHEDULE,
) -> HarnessReport:
    """Membership test for the natural domain of the Monge-Ampere operator.

    A Radon nonpolar part plus a zero-flagged sublevel capacity
    condition puts the function in the domain; a positive flag yields
    no verdict either way.
    """
    np_m = nonpolar_part(profile, n)
    np_masses = [np_m.mass_on(K) for K in standard_exhaustion(profile.log_R)]
    hypothesis = condition_sublevel(profile, n, schedule)
    if hypothesis.flag == CONVERGING_TO_ZERO:
        verdict = "in-domain"
    elif hypothesis.flag == CONVERGING_TO_POSITIVE:
        verdict = "hypothesis-positive-no-verdict"
    else:
        verdict = "inconclusive"
    return HarnessReport(
        scenario="ma-domain-membership",
        hypothesis_series=hypothesis,
        conclusion_series=(),
        flags={"hypothesis": hypothesis.flag},
        verdict=verdict,
        details={
            "np_masses_on_exhaustion": np_masses,
            "np_is_radon": True,  # finite atoms; a mass that overflows raises
            "n": n,
        },
    )


def cegrell_f_diagnostic(
    profile: ConvexProfile,
    n: int,
    schedule=DEFAULT_SCHEDULE,
) -> HarnessReport:
    """Class-F style diagnostic: boundary limit 0, bounded total masses.

    The truncations are the canonical bounded approximants; for a
    piecewise-linear radial profile their total mass is (2*pi*s)^n with
    s the final slope, so the series is constant and the supremum is
    finite whenever the profile is admissible.  Each level's total
    mass is ``_level_sums`` with unit weights over the atom masses.
    """
    from .errors import NotAdmissible

    bl = profile.boundary_limit
    scale = 1.0 + max(abs(v) for _, v in profile.breakpoints)
    if abs(bl) > 1e-12 * scale:
        raise NotAdmissible(
            f"boundary limit {bl} is not 0; not a candidate for class F"
        )
    masses = [m for _, m in _knot_atoms(profile, n)[1]]
    levels = _truncation_ladder(profile, n, schedule)
    entries = _level_sums(levels, 1.0, lambda t: 1.0, NEG_INF, math.inf, masses)
    s = build_series("j", entries, extra_metadata={"series": "total_mass"})
    sup_mass = max(v for _, v in entries)
    return HarnessReport(
        scenario="cegrell-f-diagnostic",
        hypothesis_series=None,
        conclusion_series=(s,),
        flags={"total_mass": s.flag},
        verdict="bounded-approximating-masses",
        details={"sup_total_mass": sup_mass, "n": n},
    )


def generalized_condition(seq: ProfileSequence, n: int) -> DiagnosticSeries:
    """Uniform-in-k sublevel masses: j -> sup_k mass of (dd^c u_k)^n
    on {u_k <= -j}, with j and k both over ``DEFAULT_SCHEDULE``.

    The sequence-level strengthening of the capacity condition; a zero
    flag supports convergence for the whole sequence at once.
    """
    profs, _ = _member_walk(seq, DEFAULT_SCHEDULE)
    members = [(p, ma_measure(p, n)) for p in profs]
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
