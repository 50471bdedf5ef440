"""Truncation shares the validated formula: property tests.

A truncated profile is a copy that skips revalidation and shares its
parent's formula-level caches and per-n knot-atom tables.  These
properties pin it to a freshly validated profile with the same clamp,
bit for bit, over seeded random draws and the named families.
"""
import math
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConvexProfile,
    geometric_schedule,
    log_profile,
    ma_measure,
    power_tail_profile,
    random_profile,
)

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
