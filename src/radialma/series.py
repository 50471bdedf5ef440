"""Diagnostic series: indexed value sequences with a convergence flag.

Condition checkers and convergence harnesses all emit the same shape: a
sequence (j, value) over a schedule, a flag saying where the tail is
heading, and metadata recording how the flag was decided.  The flag
rule, on the finite entries:

  converging-to-positive  last three values agree to 1e-6 relative and
                          exceed eps0 = 1e-6 * (first value + 1)
  converging-to-zero      tail is nonincreasing and the extrapolated
                          limit (Aitken delta-squared on the last three
                          values) is below eps0 in absolute value, or
                          the series stabilized exactly: the last three
                          values are 0.0 even though an earlier bump
                          keeps the tail from being nonincreasing
  inconclusive            anything else

Aitken's delta-squared is exact for v_j = c + a * rho^i, which is what a
power-law tail c + a * j^(-beta) becomes on a geometric schedule, so the
zero flag still fires when the values themselves are far from zero but
extrapolate there.  Entries recorded as inf (a sublevel set that filled
the whole ball) are excluded from the fit and noted in the metadata.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

CONVERGING_TO_ZERO = "converging-to-zero"
CONVERGING_TO_POSITIVE = "converging-to-positive"
INCONCLUSIVE = "inconclusive"

_REL_AGREE = 1e-6


def geometric_schedule(j_max: int = 1024) -> tuple[int, ...]:
    """Powers of two up to j_max: 1, 2, 4, ...

    ValueError unless j_max >= 1 is finite and the top level has a float
    (j_max below 2**1024), since each level j is read as the float depth -j.
    """
    if not 1 <= j_max < math.inf:
        raise ValueError("j_max must be >= 1 and finite")
    top = int(j_max).bit_length() - 1
    if top >= sys.float_info.max_exp:
        raise ValueError(
            f"the top level 2**{top} has no float: "
            f"j_max must be below 2**{sys.float_info.max_exp}"
        )
    return tuple(2**k for k in range(top + 1))


# the levels 1, 2, 4, ..., 1024 every harness and condition series
# reads when its caller names none
DEFAULT_SCHEDULE: tuple[int, ...] = geometric_schedule()


def _aitken_limit(v3: float, v2: float, v1: float) -> float:
    """Extrapolated limit from the last three values (v1 most recent)."""
    d1 = v2 - v3
    d2 = v1 - v2
    scale = max(abs(v1), abs(v2), abs(v3), 1.0)
    if abs(d2) <= 1e-14 * scale:
        return v1  # already stabilized
    dd = d2 - d1
    if abs(dd) <= 1e-14 * scale:
        return v1  # no curvature to extrapolate from
    return v1 - d2 * d2 / dd


def decide_flag(values: list[float]) -> tuple[str, dict]:
    """Flag a nonnegative series tail; returns (flag, fit metadata)."""
    # a finite sum means every value is finite: no filtered copy needed
    if math.isfinite(sum(values)):
        finite = values
    else:
        finite = [v for v in values if math.isfinite(v)]
    meta: dict = {"dropped_infinite": len(values) - len(finite)}
    if len(finite) < 3:
        meta["reason"] = "fewer than three finite entries"
        return INCONCLUSIVE, meta
    eps0 = 1e-6 * (finite[0] + 1.0)
    meta["eps0"] = eps0
    v3, v2, v1 = finite[-3:]
    # the positive flag needs v1 > eps0, which most tails flagged against
    # their target do not reach, so that is tested first
    if v1 > eps0:
        spread = max(v3, v2, v1) - min(v3, v2, v1)
        scale = max(abs(v3), abs(v2), abs(v1))
        if spread <= _REL_AGREE * max(scale, 1e-300):
            meta["limit"] = v1
            return CONVERGING_TO_POSITIVE, meta
    # one walk over the tail: is it nonincreasing, and its first and last
    # strict decreases with their count
    slack = 1e-12 * (abs(finite[0]) + 1.0)
    nonincreasing = True
    first = last = 0.0
    drops = 0
    half = len(finite) // 2
    a = finite[half]
    for b in finite[half + 1 :]:
        if not b <= a + slack:
            nonincreasing = False
            break
        if a > b:
            last = a - b
            if not drops:
                first = last
            drops += 1
        a = b
    meta["tail_nonincreasing"] = nonincreasing
    if not nonincreasing:
        if not v3 == v2 == v1 == 0.0:
            return INCONCLUSIVE, meta
        meta["limit"] = 0.0
        meta["reason"] = "last three values are exactly 0"
        return CONVERGING_TO_ZERO, meta
    limit = _aitken_limit(v3, v2, v1)
    meta["limit"] = limit
    # decay-rate estimate from successive tail decreases, metadata only
    if drops >= 2:
        meta["decay_ratio"] = (last / first) ** (1.0 / (drops - 1))
    if abs(limit) < eps0:
        return CONVERGING_TO_ZERO, meta
    return INCONCLUSIVE, meta


def _check_entry(prev, j, v, floor: float) -> None:
    """Index above ``prev`` (None first), value not NaN, not below ``floor``."""
    if prev is not None and not j > prev:
        raise ValueError(f"series indices must increase: {prev} -> {j}")
    if not v >= floor:
        if math.isnan(v):
            raise ValueError(f"series value at {j} is NaN")
        raise ValueError(f"mass series went negative at {j}: {v}")


@dataclass(frozen=True)
class DiagnosticSeries:
    """An indexed series with its convergence flag.

    ``entries`` are (index, value) pairs in schedule order.  When the
    series tracks an integral against a known target, the flag is
    decided on the deviations |value - target| and ``target`` is stored
    in the metadata; a mass series is flagged on the raw values.
    """

    index_name: str
    entries: tuple[tuple[float, float], ...]
    flag: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.flag not in (
            CONVERGING_TO_ZERO,
            CONVERGING_TO_POSITIVE,
            INCONCLUSIVE,
        ):
            raise ValueError(f"unknown flag {self.flag!r}")
        floor = -math.inf if self.metadata.get("signed") else 0.0
        for prev, (j, v) in zip((None, *self.indices), self.entries):
            _check_entry(prev, j, v, floor)

    @classmethod
    def _built(cls, index_name, entries, flag, metadata) -> "DiagnosticSeries":
        """A series over entries already checked: no __post_init__."""
        series = object.__new__(cls)
        state = vars(series)
        state["index_name"], state["entries"] = index_name, entries
        state["flag"], state["metadata"] = flag, metadata
        return series

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    @property
    def indices(self) -> tuple[float, ...]:
        return tuple(j for j, _ in self.entries)

    def to_csv(self) -> str:
        lines = [f"{self.index_name},value,flag"]
        for j, v in self.entries:
            ix = int(j) if float(j).is_integer() else j
            lines.append(f"{ix},{v!r},{self.flag}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "index_name": self.index_name,
            "entries": [[j, v] for j, v in self.entries],
            "flag": self.flag,
            "metadata": self.metadata,
        }


def build_series(
    index_name: str,
    entries,
    target: float | None = None,
    extra_metadata: dict | None = None,
) -> DiagnosticSeries:
    """Assemble a DiagnosticSeries, deciding the flag automatically.

    With a ``target`` the flag reads the deviations |value - target|
    (converging-to-zero then means the series reaches the target); the
    raw values are what get stored either way.  A NaN target raises
    ValueError, and so does an ``extra_metadata`` key the fit wrote.
    """
    if target is not None and math.isnan(target):
        raise ValueError("series target is NaN")
    floor = 0.0 if target is None else -math.inf
    # one walk: convert, check (_check_entry runs only for an entry that
    # fails its tests), and collect what the flag reads; a value that is
    # not finite has no finite deviation either, and decide_flag drops it
    pairs, flagged, prev = [], [], None
    for j, v in entries:
        j, v = float(j), float(v)
        if not v >= floor or prev is not None and not j > prev:
            _check_entry(prev, j, v, floor)
        prev = j
        pairs.append((j, v))
        flagged.append(v if target is None else abs(v - target))
    flag, meta = decide_flag(flagged)
    if target is not None:
        meta["target"] = target
        meta["flag_reads"] = "abs(value - target)"
        meta["signed"] = True
    if extra_metadata:
        for key in extra_metadata:
            if key in meta or key in ("target", "flag_reads", "signed"):
                raise ValueError(f"extra_metadata overwrites the fit's {key!r}")
        meta.update(extra_metadata)
    return DiagnosticSeries._built(index_name, tuple(pairs), flag, meta)
