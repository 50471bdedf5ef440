"""Series and measures built without a second check, against the public
constructors.

``build_series`` converts, checks and collects the values its flag reads
in one walk over its entries, then builds the series without running
``DiagnosticSeries.__post_init__``; relabelled copies share the checked
entries.  ``nonpolar_part`` and ``ma_measure`` build their measure from
the per-n knot-atom table, checked once when the table is built.  These
tests hold both to what the public constructors build from the same
data: the same entries bit for bit, the same flag and metadata, or the
same ValueError.  The last section pins ``geometric_schedule`` to the
doubling loop it replaced.
"""
import copy
import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    DiagnosticSeries,
    MinusInfinity,
    RadialMeasure,
    annulus,
    build_series,
    closed_ball,
    geometric_schedule,
    log_profile,
    ma_measure,
    make_profile,
    max_const_profile,
    maximality_check,
    nonpolar_part,
    truncation_analysis,
)
from test_ladder_reference import reference_build_series
from test_nonpolar_properties import fixed_profiles, profiles


def bits(x):
    """Floats by their bytes (so -0.0 differs from 0.0), recursively."""
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, (tuple, list)):
        return tuple(bits(y) for y in x)
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    return (type(x).__name__, x)


def outcome(build, *args, **kwargs):
    """The series' name, entries, flag and metadata, or the ValueError."""
    try:
        s = build(*args, **kwargs)
    except ValueError as e:
        return ("raised", str(e))
    return ("series", s.index_name, bits(s.entries), s.flag, bits(s.metadata))


# -- build_series against the reference --------------------------------

INDICES = st.one_of(
    st.integers(-4, 2**12),
    st.floats(-1e6, 1e6),
    st.sampled_from([-0.0, 0.5, 1.0, 2.0, 2**53 + 1.0, 1e300]),
)
VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.0]),
)


@st.composite
def tails(draw):
    """c + a * rho^k: the tails the flag rule extrapolates, so that every
    flag is drawn, with an occasional special value put in."""
    c = draw(st.sampled_from([0.0, -0.0, 1.0, 2 * math.pi]))
    a = draw(st.floats(-4.0, 4.0))
    rho = draw(st.floats(0.0, 1.0))
    size = draw(st.integers(0, 12))
    vals = [c + a * rho**k for k in range(size)]
    if vals and draw(st.booleans()):
        vals[draw(st.integers(0, size - 1))] = draw(VALUES)
    return vals


@st.composite
def entry_lists(draw):
    """(j, v) lists with int and float indices, increasing in most draws
    and equal or decreasing somewhere in the rest."""
    vals = draw(st.one_of(st.lists(VALUES, max_size=12), tails()))
    idx = draw(st.lists(INDICES, min_size=len(vals), max_size=len(vals)))
    if draw(st.integers(0, 3)):
        idx = sorted(idx, key=float)
        idx = [j for k, j in enumerate(idx) if k == 0 or float(j) > float(idx[k - 1])]
        vals = vals[: len(idx)]
    return list(zip(idx, vals))


TARGETS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 2 * math.pi]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=600, deadline=None)
@given(
    entries=entry_lists(),
    target=TARGETS,
    extra=st.sampled_from([None, {}, {"series": "total_on_K"}, {"phi": "hat"}]),
)
def test_build_series_matches_the_reference(entries, target, extra):
    assert outcome(build_series, "j", entries, target, extra) == outcome(
        reference_build_series, "j", entries, target, extra
    )


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(1, 1.0), (1, 0.5)], "series indices must increase: 1.0 -> 1.0"),
        ([(2, 1.0), (1.5, 0.5)], "series indices must increase: 2.0 -> 1.5"),
        ([(2, 1.0), (1, math.nan)], "series indices must increase: 2.0 -> 1.0"),
        ([(1, 1.0), (2, math.nan)], "series value at 2.0 is NaN"),
        ([(1, 1.0), (2, -0.5)], "mass series went negative at 2.0: -0.5"),
        ([(1, -math.inf)], "mass series went negative at 1.0: -inf"),
    ],
)
def test_each_entry_error_keeps_its_message(entries, message):
    with pytest.raises(ValueError) as got:
        build_series("j", entries)
    assert str(got.value) == message
    with pytest.raises(ValueError) as public:
        pairs = tuple((float(j), float(v)) for j, v in entries)
        DiagnosticSeries("j", pairs, "inconclusive")
    assert str(public.value) == message


def test_a_nan_target_is_rejected():
    entries = [(1, 1.0), (2, 0.5), (4, 0.25), (8, 0.125)]
    with pytest.raises(ValueError, match="target is NaN"):
        build_series("j", entries, target=math.nan)


@pytest.mark.parametrize("target", [math.inf, -math.inf])
def test_an_infinite_target_drops_every_deviation(target):
    entries = [(1, 1.0), (2, 0.5), (4, 0.25), (8, 0.125)]
    s = build_series("j", entries, target=target)
    assert outcome(build_series, "j", entries, target) == outcome(
        reference_build_series, "j", entries, target
    )
    assert s.flag == "inconclusive" and s.metadata["dropped_infinite"] == 4


@pytest.mark.parametrize(
    "target, extra",
    [
        (None, {"signed": True}),
        (0.0, {"signed": False}),
        (0.0, {"target": 1.0}),
        (0.0, {"flag_reads": "value"}),
        (None, {"dropped_infinite": 0}),
        (None, {"limit": 0.0, "series": "total_mass"}),
    ],
)
def test_extra_metadata_cannot_overwrite_the_fit(target, extra):
    entries = [(1, 1.0), (2, 0.5), (4, 0.25), (8, 0.125)]
    with pytest.raises(ValueError, match="extra_metadata overwrites the fit"):
        build_series("j", entries, target=target, extra_metadata=extra)


def test_a_mass_series_stays_unsigned_whatever_its_metadata():
    entries = [(1, -1.0), (2, -0.5), (4, -0.25)]
    with pytest.raises(ValueError):
        build_series("j", entries, extra_metadata={"signed": True})
    with pytest.raises(ValueError, match="went negative at 1.0: -1.0"):
        build_series("j", entries, extra_metadata={"series": "total_mass"})


# -- relabelled series share their checked entries ----------------------


def test_maximality_zero_series_share_one_entries_tuple():
    report = maximality_check(max_const_profile(-1.0), 2)
    zeros = [s for s in report.conclusion_series if set(s.values) == {0.0}]
    assert len(zeros) >= 2
    assert all(s.entries is zeros[0].entries for s in zeros)
    assert len({s.metadata["phi"] for s in zeros}) == len(zeros)
    for s in zeros:
        assert s == DiagnosticSeries(s.index_name, s.entries, s.flag, s.metadata)


def test_an_interior_copy_shares_the_total_series_entries():
    report = truncation_analysis(log_profile(), annulus(-0.5, -0.25), 1)
    total, _, interior = report.conclusion_series
    assert interior.metadata["series"] == "interior_part"
    assert interior.entries is total.entries
    assert interior == DiagnosticSeries(
        "j", total.entries, total.flag, {**total.metadata, "series": "interior_part"}
    )


def round_trips(x):
    return (
        pickle.loads(pickle.dumps(x)),
        copy.copy(x),
        copy.deepcopy(x),
        dataclasses.replace(x),
    )


def test_built_series_round_trip_and_compare_equal():
    report = maximality_check(max_const_profile(-1.0), 2)
    trunc = truncation_analysis(log_profile(), closed_ball(-2.0), 1)
    built = [
        build_series("k", [(1, 2.0), (2, 1.0), (4, 0.5)]),
        build_series("j", [(1, 2.0), (2, 1.0), (4, 0.5)], target=0.0),
    ]
    for s in built + list(report.conclusion_series) + list(trunc.conclusion_series):
        public = DiagnosticSeries(s.index_name, s.entries, s.flag, s.metadata)
        assert s == public and type(s) is DiagnosticSeries
        for back in round_trips(s):
            assert back == s and bits(back.entries) == bits(s.entries)
    with pytest.raises(ValueError, match="unknown flag"):
        dataclasses.replace(built[0], flag="converging")
    with pytest.raises(dataclasses.FrozenInstanceError):
        built[0].flag = "inconclusive"


# -- measures from the checked knot-atom table -------------------------


def measure_bits(m):
    return (m.n, bits(m.origin_mass), bits(m.atoms))


def assert_public(m):
    public = RadialMeasure(m.n, m.origin_mass, m.atoms)
    assert m == public and measure_bits(m) == measure_bits(public)
    for back in round_trips(m):
        assert back == m and measure_bits(back) == measure_bits(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_measures_equal_the_public_constructor_on_the_families(n):
    for p in fixed_profiles():
        assert_public(ma_measure(p, n))
        assert_public(nonpolar_part(p, n))


@settings(max_examples=200, deadline=None)
@given(p=profiles(), n=st.integers(1, 3))
def test_measures_equal_the_public_constructor(p, n):
    assert_public(ma_measure(p, n))
    assert_public(nonpolar_part(p, n))


def test_an_underflowing_release_atom_keeps_its_check():
    p = make_profile([(-1.0, -1.0)], MinusInfinity(1e-200), final_slope=2.0)
    clamped = p.truncate(1.1)
    message = "atom at t=-1.000000000000001e+199 has nonpositive mass 0.0"
    for build in (ma_measure, nonpolar_part):
        with pytest.raises(ValueError) as got:
            build(clamped, 2)
        assert str(got.value) == message
    assert_public(ma_measure(p, 2))


def test_the_public_measure_constructor_still_checks():
    for atoms, message in [
        (((0.0, 1.0), (-1.0, 1.0)), "atom positions must be strictly increasing"),
        (((math.inf, 1.0),), "atom positions must be finite"),
        (((-1.0, 0.0),), "atom at t=-1.0 has nonpositive mass 0.0"),
        (((-1.0, math.nan),), "atom at t=-1.0 has nonpositive mass nan"),
    ]:
        with pytest.raises(ValueError) as got:
            RadialMeasure(1, 0.0, atoms)
        assert str(got.value) == message
    with pytest.raises(ValueError, match="origin mass must be >= 0"):
        RadialMeasure(1, -1.0, ())


# -- the geometric schedule ---------------------------------------------


def reference_geometric_schedule(j_max):
    """The doubling loop the schedule was built with."""
    out, j = [], 1
    while j <= j_max:
        out.append(j)
        j *= 2
    return tuple(out)


def test_the_schedule_matches_the_doubling_loop():
    for j_max in [*range(1, 2100), 1.5, 1024.5, 2**40, 2**40 - 1, 2.0**60, 1e30]:
        assert geometric_schedule(j_max) == reference_geometric_schedule(j_max), j_max


def test_a_schedule_to_nan_or_inf_is_rejected():
    with pytest.raises(ValueError, match="j_max must be >= 1"):
        geometric_schedule(math.nan)
    with pytest.raises(ValueError, match="j_max must be >= 1"):
        geometric_schedule(0.5)
    with pytest.raises(ValueError, match="j_max must be >= 1 and finite"):
        geometric_schedule(math.inf)
