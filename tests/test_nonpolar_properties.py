"""The closed-form nonpolar part against the truncation limit it replaces.

``nonpolar_part`` returns the sphere atoms of ``ma_measure`` and decides
``NonStabilized`` from the clamp at its depth alone.  These properties
pin it, at the depth of a schedule's deepest level, bit for bit to the
literal increasing limit kept here as the reference: truncate at each
level of the schedule, drop the release atom of a clamp active at that
level, and stop when the kept atoms equal the full measure's.
"""
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialma import (
    FiniteValue,
    NonStabilized,
    RadialMeasure,
    log_profile,
    ma_measure,
    max_const_profile,
    nonpolar_part,
    power_tail_profile,
    random_profile,
)

SCHEDULES = (
    tuple(2**k for k in range(21)),
    (1,),
    (2,),
    (4,),
    (16,),
    (1, 2, 4),
    (1, 2, 8),
    (1, 2, 4, 8, 16, 32),
)
PRE_CLAMPS = (0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0)


def reference_nonpolar_part(profile, n, schedule):
    """The increasing limit of (dd^c max(u, -j))^n on {u > -j}, level by
    level, until the kept atoms equal the full measure's."""
    full = ma_measure(profile, n)
    for j in schedule:
        clamped = profile.truncate(j)
        kept = ma_measure(clamped, n).atoms
        if kept and clamped.floor == -float(j):
            kept = kept[1:]
        if kept == full.atoms:
            return RadialMeasure(n, 0.0, full.atoms)
    raise NonStabilized(j, sum(a not in kept for a in full.atoms))


def closed_form(profile, n, schedule):
    return nonpolar_part(profile, n, depth=max(schedule))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def outcome(fn, profile, n, schedule):
    """The measure's bits, or the NonStabilized level and missing count."""
    try:
        m = fn(profile, n, schedule)
    except NonStabilized as e:
        return ("raised", e.level, e.missing_atoms, str(e))
    atoms = tuple((bits(t), bits(mass)) for t, mass in m.atoms)
    return ("measure", m.n, bits(m.origin_mass), atoms)


def fixed_profiles():
    base = [
        log_profile(),
        power_tail_profile(0.5),
        max_const_profile(-1.0),
        max_const_profile(-4.0),
    ]
    return base + [p.truncate(j) for p in base for j in (1.0, 4.0)]


@st.composite
def profiles(draw):
    """Seeded random draws (bounded, unbounded, either) at log_R 0, 1 and
    -0.5; a quarter of them clamped again before use."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounded = draw(st.sampled_from([True, False, None]))
    log_R = draw(st.sampled_from([0.0, 1.0, -0.5]))
    p = random_profile(rng, log_R, bounded=bounded)
    if draw(st.integers(0, 3)) == 0:
        p = p.truncate(draw(st.sampled_from(PRE_CLAMPS)))
    return p


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"to{max(s)}")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_matches_the_truncation_limit_on_the_families(n, schedule):
    for p in fixed_profiles():
        assert outcome(closed_form, p, n, schedule) == outcome(
            reference_nonpolar_part, p, n, schedule
        ), p


@settings(max_examples=300, deadline=None)
@given(p=profiles(), n=st.integers(1, 3), schedule=st.sampled_from(SCHEDULES))
def test_closed_form_matches_the_truncation_limit(p, n, schedule):
    assert outcome(closed_form, p, n, schedule) == outcome(
        reference_nonpolar_part, p, n, schedule
    )


@settings(max_examples=150, deadline=None)
@given(p=profiles(), n=st.integers(1, 3))
def test_bounded_nonpolar_part_is_the_full_measure(p, n):
    assume(isinstance(p.left_end, FiniteValue))
    assert nonpolar_part(p, n) == ma_measure(p, n)


def test_a_clamp_of_its_own_at_the_deepest_level_is_never_released():
    # the clamp at -4 is the profile's own: truncating at 4 leaves it as
    # it is, and its release atom sits on {u = -4}
    p = log_profile().truncate(4.0)
    assert p.truncate(4.0) is p
    assert len(ma_measure(p, 1).atoms) == 1
    with pytest.raises(NonStabilized) as exc:
        nonpolar_part(p, 1, depth=4)
    assert (exc.value.level, exc.value.missing_atoms) == (4, 1)
    assert nonpolar_part(p, 1, depth=8) == ma_measure(p, 1)
