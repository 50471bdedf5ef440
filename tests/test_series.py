"""Detected-limit flags and series plumbing."""
import math

import pytest

from radialma import (
    CONVERGING_TO_POSITIVE,
    CONVERGING_TO_ZERO,
    INCONCLUSIVE,
    DiagnosticSeries,
    build_series,
    condition_sublevel,
    constant_profile,
    geometric_schedule,
)

TWO_PI = 2.0 * math.pi


def test_geometric_schedule():
    assert geometric_schedule(8) == (1, 2, 4, 8)
    assert geometric_schedule(1024)[-1] == 1024
    with pytest.raises(ValueError):
        geometric_schedule(0)


def test_a_schedule_level_must_have_a_float():
    # 2**1024 was a level, and float(-j) of it raised OverflowError
    assert geometric_schedule(2**1024 - 1)[-1] == 2**1023
    msg = r"^the top level 2\*\*1024 has no float: j_max must be below 2\*\*1024$"
    with pytest.raises(ValueError, match=msg):
        geometric_schedule(2**1024)
    with pytest.raises(ValueError, match=r"the top level 2\*\*2000 "):
        geometric_schedule(2**2000 + 5)


def test_constant_positive_series_flags_positive():
    rows = [(j, TWO_PI) for j in geometric_schedule(1024)]
    s = build_series("j", rows)
    assert s.flag == CONVERGING_TO_POSITIVE
    assert s.indices[0] == 1.0
    assert s.values[-1] == TWO_PI


def test_power_decay_flags_zero():
    rows = [(j, TWO_PI / j) for j in geometric_schedule(1024)]
    assert build_series("j", rows).flag == CONVERGING_TO_ZERO
    rows = [(j, 5.0 / j**2) for j in geometric_schedule(1024)]
    assert build_series("j", rows).flag == CONVERGING_TO_ZERO


def test_exact_zero_series_flags_zero():
    rows = [(j, 0.0) for j in geometric_schedule(256)]
    assert build_series("j", rows).flag == CONVERGING_TO_ZERO


def test_exactly_stabilized_series_after_a_late_bump_flags_zero():
    # plateau@-32 deviations of a converged truncation sequence (seed 1,
    # draw 307, n = 3): the bump keeps the tail from being nonincreasing
    devs = [0.0] * 5 + [239.20376654251797, 433.8316495887581, 159.2906345928573]
    devs += [0.0] * 3
    s = build_series("k", list(zip(geometric_schedule(1024), devs)))
    assert s.flag == CONVERGING_TO_ZERO
    assert s.metadata["tail_nonincreasing"] is False
    assert s.metadata["limit"] == 0.0
    assert s.metadata["reason"] == "last three values are exactly 0"
    # a bump that has not settled exactly stays inconclusive
    s = build_series("k", list(zip(geometric_schedule(1024), devs[:-1] + [1e-300])))
    assert s.flag == INCONCLUSIVE
    assert "reason" not in s.metadata


def test_slow_drift_is_inconclusive():
    # decreasing but with a limit far above the zero gate and no
    # stabilized tail: 1 + 1/log2(j)
    rows = [(j, 1.0 + 1.0 / math.log2(j)) for j in geometric_schedule(1024)[1:]]
    assert build_series("j", rows).flag == INCONCLUSIVE


def test_growing_series_is_inconclusive():
    rows = [(j, float(j)) for j in geometric_schedule(1024)]
    assert build_series("j", rows).flag == INCONCLUSIVE


def test_short_series_is_inconclusive():
    assert build_series("j", [(1, 1.0), (2, 0.5)]).flag == INCONCLUSIVE


def test_target_mode_measures_distance_to_target():
    target = TWO_PI**2
    rows = [(k, target * (1.0 - 2.0 / k)) for k in geometric_schedule(1024)]
    s = build_series("k", rows, target=target)
    assert s.flag == CONVERGING_TO_ZERO
    assert s.metadata["target"] == target
    # far from target: the residual stays positive
    rows = [(k, target + 1.0) for k in geometric_schedule(1024)]
    assert build_series("k", rows, target=target).flag == CONVERGING_TO_POSITIVE


def test_infinite_entries_are_dropped_and_counted():
    s = condition_sublevel(constant_profile(-5.0), 1)
    vals = s.values
    assert all(math.isfinite(v) for v in vals if v != float("inf"))
    assert s.metadata["dropped_infinite"] == 3
    assert s.metadata["boundary_touching_entries"] == 3
    assert s.flag == CONVERGING_TO_ZERO


def test_csv_projection():
    s = build_series("j", [(1, 1.0), (2, 0.5), (4, 0.25), (8, 0.125),
                           (16, 0.0625), (32, 0.03125)])
    lines = s.to_csv().splitlines()
    assert lines[0] == "j,value,flag"
    assert lines[1].startswith("1,1.0,")
    assert len(lines) == 7


def test_json_projection_round_trips_values():
    s = build_series("k", [(1, 2.0), (2, 2.0), (4, 2.0), (8, 2.0)])
    d = s.to_json_dict()
    assert d["index_name"] == "k"
    assert d["flag"] == s.flag
    assert d["entries"] == [[1.0, 2.0], [2.0, 2.0], [4.0, 2.0], [8.0, 2.0]]


def test_indices_must_increase():
    with pytest.raises(ValueError):
        DiagnosticSeries("j", ((2.0, 1.0), (1.0, 1.0)), CONVERGING_TO_ZERO)


def test_flag_gate_scales_with_first_value():
    # tail below eps0 = 1e-6*(first + 1) counts as zero even if nonzero
    rows = [(j, 1e-9) for j in geometric_schedule(256)]
    assert build_series("j", rows).flag == CONVERGING_TO_ZERO
    # same values but a tiny first entry: gate shrinks, tail is positive
    rows = [(1, 1e-9)] + [(j, 1e-9) for j in geometric_schedule(256)[1:]]
    s = build_series("j", rows)
    assert s.metadata["eps0"] == pytest.approx(1e-6 * (1e-9 + 1.0))


def test_a_mass_series_rejects_minus_infinity():
    with pytest.raises(ValueError, match="mass series went negative at 1.0: -inf"):
        DiagnosticSeries("j", ((1.0, -math.inf), (2.0, 1.0)), "inconclusive")
    # build_series used to drop it as an infinite entry and flag the rest
    rows = [(1, -math.inf)] + [(j, 1.0 / j) for j in geometric_schedule(1024)[1:]]
    with pytest.raises(ValueError, match="mass series went negative at 1.0: -inf"):
        build_series("j", rows)
    # +inf entries and signed series are unchanged
    DiagnosticSeries("j", ((1.0, math.inf), (2.0, 1.0)), "inconclusive")
    signed = DiagnosticSeries(
        "j", ((1.0, -math.inf), (2.0, -1.0)), "inconclusive", {"signed": True}
    )
    assert signed.values == (-math.inf, -1.0)
    assert build_series("j", rows, target=0.0).metadata["dropped_infinite"] == 1


def test_series_checks_report_the_first_fault():
    with pytest.raises(ValueError, match="series indices must increase: 2.0 -> 2.0"):
        DiagnosticSeries("j", ((1.0, 1.0), (2.0, 1.0), (2.0, 1.0)), "inconclusive")
    with pytest.raises(ValueError, match="series value at 2.0 is NaN"):
        DiagnosticSeries("j", ((1.0, 1.0), (2.0, math.nan)), "inconclusive", {"signed": True})
    with pytest.raises(ValueError, match="mass series went negative at 2.0: -0.5"):
        DiagnosticSeries("j", ((1.0, 1.0), (2.0, -0.5)), "inconclusive")
    DiagnosticSeries("j", ((1.0, -0.0), (2.0, 0.0)), "inconclusive")
