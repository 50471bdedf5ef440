"""Truncation shares the validated formula: property tests.

A truncated profile is a copy that skips revalidation and shares its
parent's formula-level caches and per-n knot-atom tables.  These
properties pin it to a freshly validated profile with the same clamp,
bit for bit, over seeded random draws and the named families.

``truncation_analysis`` splits each level of ``_truncation_ladder`` into
{u > -j} and {u = -j} by structure alone; the last properties pin the
facts that split rests on, and the release-atom check the ladder shares
with ``ma_measure``.
"""
import math
import sys
import threading
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConvexProfile,
    MinusInfinity,
    cegrell_f_diagnostic,
    closed_ball,
    geometric_schedule,
    log_profile,
    ma_measure,
    make_profile,
    maximality_check,
    power_tail_profile,
    random_profile,
    truncation_analysis,
)
from radialma.measures import _knot_atoms, _truncation_ladder
from test_ladder_reference import (
    DEEP_SCHEDULES,
    LADDER_SCHEDULES,
    knot_level_schedule,
    outcome,
    reference_cegrell_entries,
    reference_maximality_check,
    reference_truncation_analysis,
)
from test_nonpolar_properties import fixed_profiles
from test_nonpolar_properties import profiles as clamped_profiles

SCHEDULE = geometric_schedule()
NS = (1, 2, 3)


def fresh(p: ConvexProfile, floor: float) -> ConvexProfile:
    """The same formula and clamp, built and validated from scratch."""
    return ConvexProfile(p.breakpoints, p.tail, p.final_slope, p.log_R, floor=floor)


def expected_truncation(p: ConvexProfile, j: float) -> ConvexProfile:
    return fresh(p, max(p.floor, -j))


def reference_measure(p: ConvexProfile, n: int) -> tuple:
    """(origin, atoms) by the defining loop over every knot, no tables."""
    scale = (2.0 * math.pi) ** n
    if p.floor == -math.inf:
        origin, edge, atoms = scale * p.left_slope**n, -math.inf, []
    else:
        edge = p.sublevel(p.floor).sup
        if edge >= p.log_R:
            return 0.0, ()
        origin, atoms = 0.0, [(edge, scale * p.right_slope(edge) ** n)]
    for t, s_before, s_after in p.knot_slopes:
        jump = scale * (s_after**n - s_before**n)
        if t > edge and jump != 0.0:
            atoms.append((t, jump))
    return origin, tuple(atoms)


def bits(m) -> tuple:
    return (
        m.n,
        m.origin_mass.hex(),
        tuple((t.hex(), w.hex()) for t, w in m.atoms),
    )


@st.composite
def profiles(draw):
    """Seeded random draws (bounded, unbounded, clamped), the log and
    power-tail families, and already-clamped copies of any of them."""
    kind = draw(st.sampled_from(["bounded", "unbounded", "random", "log", "powertail"]))
    if kind == "log":
        p = log_profile()
    elif kind == "powertail":
        p = power_tail_profile(0.5)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bounded = {"bounded": True, "unbounded": False, "random": None}[kind]
        p = random_profile(rng, 0.0, bounded=bounded)
    pre = draw(st.sampled_from((None,) + SCHEDULE))
    if pre is not None:
        p = p.truncate(float(pre))
    return p


@settings(max_examples=60, deadline=None)
@given(p=profiles(), j=st.sampled_from(SCHEDULE))
def test_truncate_equals_fresh_validation(p, j):
    q = p.truncate(float(j))
    want = expected_truncation(p, float(j))
    assert q == want
    assert q.to_json() == want.to_json()
    assert q.left_end == want.left_end
    assert q.knot_slopes == want.knot_slopes
    assert q.sublevel(q.left_value) == want.sublevel(want.left_value)
    for n in NS:
        got = ma_measure(q, n)
        assert bits(got) == bits(ma_measure(want, n))
        origin, atoms = reference_measure(want, n)
        assert bits(got) == bits(type(got)(n, origin, atoms))


@settings(max_examples=60, deadline=None)
@given(p=profiles(), jk=st.lists(st.sampled_from(SCHEDULE), min_size=2, max_size=2))
def test_truncation_composes(p, jk):
    k, j = sorted(jk)
    left = p.truncate(float(j)).truncate(float(k))
    right = p.truncate(float(k))
    assert left == right
    for n in NS:
        assert bits(ma_measure(left, n)) == bits(ma_measure(right, n))


@settings(max_examples=40, deadline=None)
@given(p=profiles())
def test_shared_tables_fill_the_same_in_any_order(p):
    copies = [(j, p.truncate(float(j))) for j in SCHEDULE]
    for n in (3, 1, 2):
        assert bits(ma_measure(p, n)) == bits(ma_measure(fresh(p, p.floor), n))
        for j, q in copies:
            want = ma_measure(expected_truncation(p, float(j)), n)
            assert bits(ma_measure(q, n)) == bits(want)


def test_shared_tables_under_threads():
    """Copies of one parent filled from many threads at once agree with
    fresh profiles: a lost or doubled table entry changes no atom."""
    base = [power_tail_profile(0.5), log_profile()]
    base += [random_profile(np.random.default_rng(s), 0.0) for s in range(6)]
    want = {
        (i, j, n): bits(ma_measure(expected_truncation(p, float(j)), n))
        for i, p in enumerate(base)
        for j in SCHEDULE
        for n in NS
    }
    # fresh parents, so the threads race to create and fill the tables
    parents = [fresh(p, p.floor) for p in base]
    copies = [(i, j, p.truncate(float(j))) for i, p in enumerate(parents) for j in SCHEDULE]
    mismatches = []

    def work(order):
        for n in order:
            for i, j, q in copies:
                if bits(ma_measure(q, n)) != want[i, j, n]:
                    mismatches.append((i, j, n))

    orders = [(3, 1, 2), (1, 2, 3), (2, 3, 1), (3, 2, 1)] * 2
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


# -- the facts the structural split rests on -----------------------------


def split_schedules(p):
    return LADDER_SCHEDULES + DEEP_SCHEDULES + (knot_level_schedule(p),)


def check_structural_split(p, n, schedule, seen):
    """Per ladder level: a nonzero origin mass only at j = inf on a
    profile unbounded below; a release from a clamp other than -j above
    -j; no kept knot atom below -j, and one at exactly -j only on the
    flat bottom of a bounded unclamped profile whose infimum is -j."""
    _, atoms = _knot_atoms(p, n)
    flat_bottom = p.floor == -math.inf and p.left_value > -math.inf
    for j, clamp, origin, release, start in _truncation_ladder(p, n, schedule):
        s = -float(j)
        if origin != 0.0:
            assert j == math.inf and p.left_value == -math.inf, (p, j)
            seen["origin"] += 1
        if release is not None and clamp != s:
            assert p.value(release[0]) > s, (p, j)
            seen["own clamp"] += 1
        for t, _ in atoms[start:]:
            v = p.value(t)
            assert v >= s, (p, j, t)
            if v == s:
                assert flat_bottom and p.left_value == s, (p, j, t)
                seen["flat bottom"] += 1
        seen["levels"] += 1


def test_the_structural_split_holds_on_the_families():
    seen = Counter()
    for p in fixed_profiles():
        for schedule in split_schedules(p):
            for n in NS:
                check_structural_split(p, n, schedule, seen)
    # each rule is exercised, not only vacuously true
    assert min(seen[k] for k in ("origin", "own clamp", "flat bottom")) > 0, seen


@settings(max_examples=150, deadline=None)
@given(
    p=clamped_profiles(),
    n=st.integers(1, 3),
    which=st.integers(0, len(LADDER_SCHEDULES) + len(DEEP_SCHEDULES)),
)
def test_the_structural_split_holds(p, n, which):
    check_structural_split(p, n, split_schedules(p)[which], Counter())


def test_an_underflowing_release_atom_raises_in_every_harness():
    # the tail slope's atom (2*pi*1e-200)^2 underflows to 0.0; the ladder
    # now rejects it as ma_measure does, with the per-level loops' message
    p = make_profile([(-1.0, -1.0)], MinusInfinity(1e-200), final_slope=1.0)
    K = closed_ball(-0.5)
    raised = ("raised", "ValueError", "atom at t=-1e+200 has nonpositive mass 0.0")
    assert outcome(ma_measure, p.truncate(2.0), 2) == raised
    schedule = geometric_schedule()
    for got, want in [
        (lambda: truncation_analysis(p, K, 2), lambda: reference_truncation_analysis(p, K, 2, schedule)),
        (lambda: maximality_check(p, 2), lambda: reference_maximality_check(p, 2, schedule)),
        (lambda: cegrell_f_diagnostic(p, 2), lambda: reference_cegrell_entries(p, 2, schedule)),
    ]:
        assert outcome(got) == outcome(want) == raised
