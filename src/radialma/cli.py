"""Scenario runner: reproducible experiments with CSV/JSON artifacts.

Every subcommand computes its tables, checks the scenario's assertions,
and writes ``<scenario>.<csv|json>`` plus a ``<scenario>.meta.json``
sidecar (versions and config echo live there so the data files are
byte-identical across runs).  Exit status: 0 all assertions pass, 2 an
assertion failed, 1 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .capacity import capacity, condition_level, condition_sublevel, extremal
from .convergence import (
    counterexample_sequence,
    ma_domain_membership,
    maximality_check,
    setwise_gap,
    truncation_analysis,
    truncation_sequence,
    weak_convergence_test,
)
from .errors import (
    GridTooCoarse,
    GridTooLarge,
    NonStabilized,
    OutOfDomain,
    RadialMAError,
)
from .families import (
    PowerTail,
    default_battery,
    linear_cap_profile,
    log_profile,
    max_const_profile,
    power_tail_profile,
    punctured_battery,
    random_compact,
    random_profile,
    sample_analytic,
)
from .measures import (
    NP_DEPTH,
    TWO_PI,
    distribution_function,
    hat,
    ma_measure,
    plateau,
)
from .oracle import Grid1D, fd_riesz_measure, oracle_capacity, relaxation_envelope
from .profiles import closed_ball, make_compact
from .series import (
    CONVERGING_TO_POSITIVE,
    CONVERGING_TO_ZERO,
    build_series,
    geometric_schedule,
)

ENV_OUTDIR = "RADIALMA_OUTDIR"

# the oracle checks allow an error of 10*h, which says nothing once it nears 1
H_MAX = 0.1
# the scenarios place knots and sample points at log_R minus offsets down
# to 1e-6 (the spot check of a decreasing sequence); up to 2^32 the float
# spacing near log_R is at most 2^-20, so all of them stay left of log_R
LOG_R_MAX = 2.0**32


class ScenarioFailure(Exception):
    """A scenario assertion failed; carries series to dump."""

    def __init__(self, message, series=()):
        super().__init__(message)
        self.series = tuple(series)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _require(cond: bool, name: str, detail: str = "", series=()):
    if not cond:
        msg = f"assertion '{name}' violated" + (f": {detail}" if detail else "")
        raise ScenarioFailure(msg, series)


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _json_text(obj, nl="\n"):
    """``json.dumps(x, indent=2, sort_keys=True)``, written in one walk,
    for x the strict-JSON form of obj: its dict keys made str, its numpy
    scalars made Python numbers and its non-finite floats made strings
    ("inf", "-inf", "nan"), so no bare inf or nan is written.

    ``nl`` is the newline plus the indent of obj's own line.  A float is
    written by ``float.__repr__``, as json does (numpy 2's repr of an
    ``np.float64`` is ``np.float64(...)``), and what json cannot encode
    raises the TypeError it raised.
    """
    # floats first: most cells of the rows are floats (np.float64 too)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return text if math.isfinite(obj) else _ENCODE_STR(text)
    if isinstance(obj, str):
        return _ENCODE_STR(obj)
    if isinstance(obj, int):
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return (
            "{" + inner
            + ("," + inner).join([_ENCODE_STR(k) + ": " + _json_text(v, inner) for k, v in items])
            + nl + "}"
        )
    if obj is None:
        return "null"
    if isinstance(obj, (np.floating, np.integer)):
        item = obj.item()
        if not isinstance(item, np.generic):  # np.longdouble stays itself
            return _json_text(item, nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_TMP_IDS = itertools.count()


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, then rename.

    The temporary file is created with mode 0o666, so the umask gives the
    written file the mode that open() would give it; its name is unique
    per process and call, and O_EXCL refuses a leftover of the same name.
    The text's UTF-8 bytes, whatever the locale, go to the descriptor
    with os.write, called again after a short write; that costs less
    than a buffered file object, whose opening calls fstat and isatty.
    """
    d = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(d, f".tmp-{os.getpid()}-{next(_TMP_IDS)}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        break
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    return str(v)


def _emit(outdir: str, scenario: str, fmt: str, columns, rows, meta) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    paths = []
    data_path = os.path.join(outdir, f"{scenario}.{fmt}")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_cell(v) for v in r])
        _write_atomic(data_path, buf.getvalue())
    else:
        _write_atomic(data_path, _json_text({"columns": columns, "rows": rows}) + "\n")
    paths.append(data_path)
    meta_path = os.path.join(outdir, f"{scenario}.meta.json")
    _write_atomic(meta_path, _json_text(meta) + "\n")
    paths.append(meta_path)
    return paths


def _versions():
    return {
        "radialma": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _build_family(args):
    """Profile + a short tag from the --family flags."""
    fam = args.family
    log_R = args.log_R
    if fam == "log":
        return log_profile(log_R), "log"
    if fam == "maxconst":
        return max_const_profile(args.c, log_R), f"maxconst({args.c:g})"
    if fam == "powertail":
        if not 0.0 < args.alpha < 1.0:
            raise UsageError(f"--alpha must lie in (0, 1), got {args.alpha:g}")
        try:
            profile = power_tail_profile(args.alpha, log_R=log_R)
        except OutOfDomain as e:
            raise UsageError(f"--alpha {args.alpha:g} with --log-R {log_R:g}: {e}") from None
        return profile, f"powertail({args.alpha:g})"
    if fam == "linearcap":
        a, b = args.a, args.b
        if a < 0.0:
            raise UsageError(f"--a must be >= 0, got {a:g}")
        # the profile's knot b/a is placed only where the line beats b
        if a > 0.0 and b < a * log_R and not math.isfinite(b / a):
            raise UsageError(f"--b {b:g} over --a {a:g} puts the knot b/a at {b / a:g}")
        return linear_cap_profile(a, b, log_R), f"linearcap({a:g},{b:g})"
    rng = np.random.default_rng(args.seed)
    return random_profile(rng, log_R), f"random(seed={args.seed})"


# ---------------------------------------------------------------- scenarios


def scenario_counterexample(args):
    """Zero mass on the closed unit ball along the sequence, positive target.

    u_k = max(log||z||, 1/k) on the ball of radius e: every (dd^c u_k)^n
    vanishes on {||z|| <= 1} while the limit's nonpolar part gives it
    (2*pi)^n.  Variant 'weak-vs-setwise' additionally shows the weak
    convergence that coexists with the setwise gap.
    """
    n = args.n
    seq = counterexample_sequence(log_R=1.0)
    K = closed_ball(0.0)
    ks = geometric_schedule(args.k_max)
    report = setwise_gap(seq, K, n, ks)
    s = report.conclusion_series[0]
    target = report.details["np_mass_on_K"]
    rows = [(int(k), v, target, target - v) for k, v in s.entries]
    _require(
        all(v == 0.0 for _, v, _, _ in rows),
        "mass_on_K_exactly_zero",
        f"values {sorted({v for _, v, _, _ in rows})}",
        [s],
    )
    _require(
        target == TWO_PI**n,
        "np_target_equals_(2pi)^n",
        f"{target} != {TWO_PI ** n}",
        [s],
    )
    _require(
        report.verdict == "persistent-gap",
        "persistent_gap",
        f"verdict {report.verdict}",
        [s, report.hypothesis_series],
    )
    meta = {
        "verdict": report.verdict,
        "flags": report.flags,
        "np_target": target,
        "hypothesis_flag": report.hypothesis_series.flag,
        "n": n,
    }
    if n == 1:
        h = args.h
        grid = Grid1D.from_bounds(-3.0, 0.5, h)
        fd = fd_riesz_measure(seq.limit, grid)
        fd_val = fd.mass_on(make_compact([(grid.left, 0.25)]))
        _require(
            abs(fd_val - target) <= 10.0 * h,
            "fd_crosscheck_within_10h",
            f"|{fd_val} - {target}| > {10 * h}",
            [s],
        )
        meta["fd_crosscheck"] = {"h": h, "fd_mass": fd_val, "abs_err": abs(fd_val - target)}
    if args.variant == "weak-vs-setwise":
        battery = list(default_battery(1.0)) + [
            plateau(0.25, 0.5, 1.0, label="plateau@0.25"),
            plateau(0.0, 0.5, 1.0, label="plateau@0"),
            hat(-0.5, 0.0, 0.5, 1.0, label="hat@0"),
        ]
        wk = weak_convergence_test(seq, battery, n, ks)
        _require(
            wk.hypothesis_series.flag == CONVERGING_TO_ZERO,
            "sublevel_condition_zero_flag",
            f"flag {wk.hypothesis_series.flag}",
            [wk.hypothesis_series],
        )
        _require(
            all(f == CONVERGING_TO_ZERO for f in wk.flags.values()),
            "weak_convergence_all_phis",
            f"flags {wk.flags}",
            wk.conclusion_series,
        )
        meta["weak_convergence"] = {
            "hypothesis_flag": wk.hypothesis_series.flag,
            "flags": wk.flags,
            "note": "condition + weak convergence hold, setwise still fails",
        }
    return ["k", "mass_on_K", "np_target", "gap"], rows, meta


def scenario_capacity_table(args):
    """C_n(ball(e^-j), unit ball) against the closed form (2*pi/j)^n.

    The ball e^-j is the sublevel set {log||z|| <= -j}, so the scaled
    column j^n * C_n is the condition series of the log profile.
    """
    n = args.n
    geo = [int(j) for j in geometric_schedule(args.j_max)]
    js = list(range(1, args.j_max + 1)) if args.dense else geo
    oracle_vals = {}
    if args.with_oracle:
        for j in geo:
            oracle_vals[j] = oracle_capacity(closed_ball(float(-j)), 0.0, n, h=args.h)
    rows = []
    # j -> j^n * capacity over js, which holds every geometric j
    scaled_at = dict(condition_sublevel(log_profile(), n, js).entries)
    worst_exact = 0.0
    worst_oracle = 0.0
    for j in js:
        c = capacity(closed_ball(float(-j)), 0.0, n)
        closed = (TWO_PI / j) ** n
        rel = abs(c - closed) / closed
        worst_exact = max(worst_exact, rel)
        ov = oracle_vals.get(j)
        if ov is not None:
            worst_oracle = max(worst_oracle, abs(ov - closed) / closed)
        rows.append((j, c, scaled_at[j], ov) if args.with_oracle else (j, c, scaled_at[j]))
    _require(
        worst_exact <= 1e-12,
        "closed_form_rel_error_1e-12",
        f"worst {worst_exact}",
    )
    scaled = build_series("j", [(float(j), scaled_at[j]) for j in geo])
    _require(
        scaled.flag == CONVERGING_TO_POSITIVE,
        "scaled_capacity_flag_positive",
        f"flag {scaled.flag}",
        [scaled],
    )
    meta = {
        "n": n,
        "closed_form": "(2*pi/j)^n",
        "worst_rel_error_exact": worst_exact,
        "scaled_flag": scaled.flag,
        "scaled_limit_target": TWO_PI**n,
    }
    if args.with_oracle:
        _require(
            worst_oracle <= 10.0 * args.h,
            "oracle_rel_error_10h",
            f"worst {worst_oracle} > {10 * args.h}",
        )
        meta["oracle"] = {"h": args.h, "indices": geo, "worst_rel_error": worst_oracle}
    cols = ["j", "capacity", "scaled"] + (["oracle"] if args.with_oracle else [])
    return cols, rows, meta


# scenario -> (the log family's flag or verdict, that of maxconst,
# powertail and linearcap).  The log profile stays positive for both
# condition variants: the extremal envelope fills the hole of the sphere
# {u = -j}, so the level capacity equals the sublevel one.
_EXPECTED = {
    "condition": (CONVERGING_TO_POSITIVE, CONVERGING_TO_ZERO),
    "maximality": ("maximal-off-origin", "not-maximal"),
    "membership": ("hypothesis-positive-no-verdict", "in-domain"),
}


def _expected(args, profile):
    """The flag (condition) or verdict (maximality, membership) the
    family scenario must show, or None when it is only reported.

    ``_EXPECTED`` gives it for every family but random, with these
    exceptions.  A profile with zero final slope is constant and has
    zero measure, so it must be maximal off the origin whatever its
    family (linearcap --a 0, maxconst with c >= log_R).  The log
    family's condition and membership are required only at log_R = 0:
    elsewhere j^n cap({u <= -j}) nears (2*pi)^n only like
    (j / (j + log_R))^n and is still short of it at j = 1024.  And
    maximal-off-origin is required only once the schedule has three
    levels j with -j at or left of the punctured battery's deepest node
    (log_R - 64): a hat over a shallower level carries that level's
    release atom, so the hats' series cannot flag zero before.  A
    maxconst or linearcap profile is clamped at m (--c or --b): its
    sublevel and level sets are empty only at the levels j > -m strictly
    past the clamp, so its zero flag and in-domain verdict are required
    only once the schedule has two such levels, where the series ends
    in two exact zeros.  At the default --j-max that is --c=-511
    (levels 512 and 1024) and up; from -512 on only 1024 is left and
    the flag reads inconclusive or, deeper, positive.
    """
    log, other = _EXPECTED.get(args.command, (None, None))
    if args.command == "maximality" and profile.final_slope == 0.0:
        expected = "maximal-off-origin"
    elif args.family == "log":
        expected = log if args.log_R == 0.0 or args.command == "maximality" else None
    else:
        expected = None if args.family == "random" else other
    if expected == "maximal-off-origin":
        deepest = min(phi.nodes[0][0] for phi in punctured_battery(args.log_R))
        if sum(-j <= deepest for j in geometric_schedule(args.j_max)) < 3:
            return None
    elif args.command in ("condition", "membership") and args.family in ("maxconst", "linearcap"):
        m = profile.left_value  # the clamp
        if sum(-j < m for j in geometric_schedule(args.j_max)) < 2:
            return None
    return expected


def _family_scenario(body):
    """A family scenario from ``body(args, profile, tag)``, which returns
    its columns, rows, meta and the series to dump when the expectation
    fails.  The profile is built once, the flag or verdict ``_expected``
    names is required, and the meta gains the profile tag and n."""

    @functools.wraps(body)
    def scenario(args):
        profile, tag = _build_family(args)
        columns, rows, meta, series = body(args, profile, tag)
        what = "flag" if args.command == "condition" else "verdict"
        expected = _expected(args, profile)
        if expected is not None:
            detail = f"{tag}: {what} {meta[what]}, expected {expected}"
            _require(meta[what] == expected, f"family_expected_{what}", detail, series)
        if what == "flag":
            meta["expected_flag"] = expected
        return columns, rows, {"profile": tag, "n": args.n, **meta}

    return scenario


@_family_scenario
def scenario_condition(args, profile, tag):
    """Scaled capacity condition series for a named profile family."""
    schedule = geometric_schedule(args.j_max)
    cond = (
        condition_level(profile, args.n, schedule)
        if args.which == "level"
        else condition_sublevel(profile, args.n, schedule)
    )
    rows = list(cond.entries)
    meta = {"which": args.which, "flag": cond.flag, "series_metadata": cond.metadata}
    return ["j", "scaled_capacity"], rows, meta, [cond]


@_family_scenario
def scenario_truncate_analyze(args, profile, tag):
    """Truncated mass decomposition total = interior + level on compacts."""
    schedule = geometric_schedule(args.j_max)
    log_R = args.log_R
    rows = []
    meta_per = {}
    for name, K in [
        ("ball", closed_ball(log_R - 2.0)),
        ("annulus", make_compact([(log_R - 3.0, log_R - 1.5)])),
        ("sphere", make_compact([(log_R - 2.0, log_R - 2.0)])),
    ]:
        rep = truncation_analysis(profile, K, args.n, schedule)
        tot, lev, inter = rep.conclusion_series[:3]
        for (j, t), (_, l), (_, i) in zip(tot.entries, lev.entries, inter.entries):
            rows.append((name, int(j), t, i, l))
        _require(
            rep.verdict == "flags-agree",
            "level_total_flags_agree",
            f"{tag} on {name}: flags {rep.flags}",
            [tot, lev],
        )
        meta_per[name] = {
            "flags": rep.flags,
            "verdict": rep.verdict,
            "np_mass_on_K": rep.details["np_mass_on_K"],
        }
    return ["compact", "j", "total", "interior", "level"], rows, {"compacts": meta_per}, ()


@_family_scenario
def scenario_weak_converge(args, profile, tag):
    """Truncation sequence of a family profile against the 16-phi battery."""
    seq = truncation_sequence(profile, label=tag)
    battery = default_battery(args.log_R)
    report = weak_convergence_test(seq, battery, args.n, geometric_schedule(args.k_max))
    rows = []
    for s in report.conclusion_series:
        target = s.metadata.get("target")
        for k, v in s.entries:
            rows.append((s.metadata["phi"], int(k), v, target))
    _require(
        report.details["implication_respected"],
        "condition_implies_weak_convergence",
        f"hypothesis zero flag but conclusions {report.flags}",
        [report.hypothesis_series, *report.conclusion_series],
    )
    meta = {
        "hypothesis_flag": report.hypothesis_series.flag,
        "flags": report.flags,
        "verdict": report.verdict,
        "battery": list(report.battery),
    }
    return ["phi", "k", "integral", "np_target"], rows, meta, ()


@_family_scenario
def scenario_maximality(args, profile, tag):
    """Vanishing-nonpolar-part maximality check for a family profile."""
    report = maximality_check(profile, args.n, schedule=geometric_schedule(args.j_max))
    rows = []
    for s in report.conclusion_series:
        for j, v in s.entries:
            rows.append((s.metadata["phi"], int(j), v))
    meta = {
        "verdict": report.verdict,
        "np_total_mass": report.details["np_total_mass"],
        "hypothesis_flag": report.hypothesis_series.flag,
        "flags": report.flags,
    }
    return ["phi", "j", "integral"], rows, meta, report.conclusion_series[:2]


@_family_scenario
def scenario_membership(args, profile, tag):
    """Membership diagnostic for the Monge-Ampere operator's domain."""
    report = ma_domain_membership(profile, args.n, schedule=geometric_schedule(args.j_max))
    hyp = report.hypothesis_series
    rows = [(int(j), v) for j, v in hyp.entries]
    meta = {
        "verdict": report.verdict,
        "hypothesis_flag": hyp.flag,
        "np_masses_on_exhaustion": report.details["np_masses_on_exhaustion"],
        "np_is_radon": report.details["np_is_radon"],
    }
    return ["j", "scaled_sublevel_capacity"], rows, meta, [hyp]


def scenario_oracle_check(args):
    """Cross-validation: exact calculus vs finite differences and relaxation."""
    rows = []

    def bound(section, case, metric, value, limit, name, detail):
        """Append the row of one bound and require it."""
        rows.append((section, case, metric, value, limit, value <= limit))
        _require(value <= limit, name, detail)

    h_lattice = 1.0 / 16.0
    rng = np.random.default_rng(args.seed)
    worst_pl = 0.0
    n_profiles = args.count
    for i in range(n_profiles):
        # bounded and unclamped: the grid cannot see the origin atom of
        # an unbounded tail, and a clamp edge is generally off-lattice
        # (an off-node atom legitimately splits across two grid nodes)
        prof = random_profile(rng, 0.0, bounded=True, lattice=h_lattice, allow_clamp=False)
        grid = Grid1D.from_bounds(-16.0, -h_lattice, h_lattice)
        err = fd_distribution_error(prof, grid)
        worst_pl = max(worst_pl, err)
    bound("pl-exactness", f"{n_profiles} lattice profiles", "sup|F_exact-F_fd|", worst_pl, 1e-9, "pl_fd_distribution_1e-9", f"worst {worst_pl}")

    hs = [1e-2, 5e-3, 2.5e-3]
    for alpha in (0.25, 0.5, 0.75):
        errs = []
        for h in hs:
            errs.append(_powertail_fd_error(alpha, h))
            bound(
                "powertail-refinement",
                f"alpha={alpha:g},h={h:g}",
                "sup|F_fd-F_true|",
                errs[-1],
                10.0 * h,
                "powertail_fd_within_10h",
                f"alpha={alpha}, h={h}: err {errs[-1]}",
            )
        decays = all(a / b >= 1.4 for a, b in zip(errs, errs[1:]))
        # value is the total decay across the 4x refinement; 1.96 = 1.4^2
        # is the weakest total consistent with first order
        rows.append(("powertail-refinement", f"alpha={alpha:g}", "first_order_decay", float(errs[0] / errs[-1]), 1.96, decays))
        _require(decays, "powertail_first_order_decay", f"alpha={alpha}: errors {errs}")

    worst_cap = 0.0
    worst_env = 0.0
    for i in range(args.envelopes):
        K = random_compact(rng, 0.0)
        res = extremal(K, 0.0, 1)
        ocap = oracle_capacity(K, 0.0, 1, h=args.h)
        rel = abs(ocap - res.capacity) / res.capacity
        worst_cap = max(worst_cap, rel)
        finite = [e for ab in K.intervals for e in ab if math.isfinite(e)]
        left = min(finite) - 1.0
        env = relaxation_envelope(K, 0.0, Grid1D.from_bounds(left, 0.0, args.h))
        ts = np.linspace(left + 0.1, -2e-3, 400)
        gap = max(abs(env.value(float(t)) - res.profile.value(float(t))) for t in ts)
        worst_env = max(worst_env, gap)
    case = f"{args.envelopes} compacts"
    bound("envelope", case, "max_rel_capacity_err", worst_cap, 10.0 * args.h, "oracle_capacity_within_10h", f"worst {worst_cap}")
    bound("envelope", case, "max_profile_gap", worst_env, 10.0 * args.h, "relaxation_envelope_within_10h", f"worst {worst_env}")

    meta = {
        "seed": args.seed,
        "h": args.h,
        "pl_profiles": n_profiles,
        "envelope_compacts": args.envelopes,
        "worst": {
            "pl_distribution": worst_pl,
            "oracle_capacity_rel": worst_cap,
            "envelope_profile_gap": worst_env,
        },
    }
    return ["section", "case", "metric", "value", "bound", "ok"], rows, meta


def fd_distribution_error(prof, grid) -> float:
    """Sup distance between exact and finite-difference distribution
    functions, sampled between grid nodes."""
    exact = ma_measure(prof, 1)
    fd = fd_riesz_measure(prof, grid)
    ts = grid.nodes[:-1] + grid.h / 2.0
    fe = distribution_function(exact, ts)
    ff = distribution_function(fd, ts)
    return float(np.max(np.abs(fe - ff))) if len(ts) else 0.0


def _powertail_fd_error(alpha: float, h: float) -> float:
    """FD distribution of the sampled power profile vs the analytic
    distribution 2*pi*alpha*(-t)^(alpha-1), sup over a safe window."""
    grid = Grid1D.from_bounds(-6.0, -0.25, h)
    prof = sample_analytic(PowerTail(alpha), grid=grid.nodes)
    fd = fd_riesz_measure(prof, grid)
    window = (grid.nodes >= -4.0) & (grid.nodes <= -0.5)
    ts = grid.nodes[window][:-1] + grid.h / 2.0
    ff = distribution_function(fd, ts)
    # subtract the exact mass of (-inf, -4] so both sides count the window
    base_exact = TWO_PI * alpha * 4.0 ** (alpha - 1.0)
    base_fd = distribution_function(fd, np.array([-4.0 + grid.h / 2.0]))[0]
    truth = TWO_PI * alpha * np.power(-ts, alpha - 1.0) - base_exact
    return float(np.max(np.abs((ff - base_fd) - truth)))


_SCENARIOS = {
    "counterexample": scenario_counterexample,
    "capacity-table": scenario_capacity_table,
    "condition": scenario_condition,
    "truncate-analyze": scenario_truncate_analyze,
    "weak-converge": scenario_weak_converge,
    "maximality": scenario_maximality,
    "membership": scenario_membership,
    "oracle-check": scenario_oracle_check,
}


def _finite_float(text: str) -> float:
    """argparse type for float options: NaN and +-inf are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return x


def _add_family_parser(sub, name, summary, index="j_max"):
    """Subparser with --n, the level cap (--j-max or --k-max) and the
    --family flags."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--" + index.replace("_", "-"), dest=index, type=int, default=1024)
    p.add_argument("--family", default="log", choices=["log", "maxconst", "powertail", "linearcap", "random"])
    p.add_argument("--c", type=_finite_float, default=-1.0, help="constant for maxconst")
    p.add_argument("--alpha", type=_finite_float, default=0.5, help="exponent for powertail")
    p.add_argument("--a", type=_finite_float, default=1.0, help="slope for linearcap")
    p.add_argument("--b", type=_finite_float, default=-1.0, help="cap for linearcap")
    p.add_argument("--seed", type=int, default=0, help="seed for random family")
    p.add_argument("--log-R", dest="log_R", type=_finite_float, default=0.0)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call shares it, and building it costs about
    as much as a small scenario."""
    parser = _Parser(prog="radialma", description=__doc__)
    parser.add_argument("--output-dir", default=None, help=f"defaults to ${ENV_OUTDIR} or the working directory")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("counterexample", help="zero masses on the ball vs positive nonpolar target")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k-max", dest="k_max", type=int, default=1024)
    p.add_argument("--h", type=_finite_float, default=1e-3)
    p.add_argument("--variant", default="gap", choices=["gap", "weak-vs-setwise"])

    p = sub.add_parser("capacity-table", help="C_n(ball(e^-j), unit ball) vs (2*pi/j)^n")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--j-max", dest="j_max", type=int, default=1024)
    p.add_argument("--dense", action="store_true", help="every integer j, not just powers of two")
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--h", type=_finite_float, default=1e-3)

    p = _add_family_parser(sub, "condition", "scaled capacity condition series for a family")
    p.add_argument("--which", default="sublevel", choices=["sublevel", "level"])
    _add_family_parser(sub, "truncate-analyze", "total = interior + level decomposition on compacts")
    _add_family_parser(sub, "weak-converge", "truncation sequence vs the test-function battery", "k_max")
    _add_family_parser(sub, "maximality", "vanishing nonpolar part off the origin")
    _add_family_parser(sub, "membership", "Monge-Ampere domain membership diagnostic")

    p = sub.add_parser("oracle-check", help="exact calculus vs FD and relaxation oracles")
    p.add_argument("--h", type=_finite_float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="random lattice profiles")
    p.add_argument("--envelopes", type=int, default=5, help="random compacts for the envelope check")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for nm in ("n", "j_max", "k_max", "count", "envelopes"):
            if getattr(args, nm, 1) < 1:
                raise UsageError(f"--{nm.replace('_', '-')} must be >= 1")
        for nm in ("j_max", "k_max"):
            try:
                geometric_schedule(getattr(args, nm, 1))
            except ValueError as e:
                raise UsageError(f"--{nm.replace('_', '-')}: {e}") from None
        if args.command == "capacity-table" and args.dense and args.j_max > NP_DEPTH:
            raise UsageError(f"--dense builds a row per j: --j-max must be <= 2^20, got {args.j_max}")
        h = getattr(args, "h", None)
        if h is not None and not 0.0 < h < H_MAX:
            raise UsageError(f"--h must lie in (0, {H_MAX:g}), got {h:g}")
        if abs(getattr(args, "log_R", 0.0)) > LOG_R_MAX:
            raise UsageError(f"--log-R must lie in [-2^32, 2^32], got {args.log_R:g}")
        if getattr(args, "seed", 0) < 0:
            raise UsageError("--seed must be >= 0")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    outdir = args.output_dir or os.environ.get(ENV_OUTDIR) or "."
    scenario = args.command
    try:
        columns, rows, meta = _SCENARIOS[scenario](args)
    except ScenarioFailure as e:
        print(f"FAIL {scenario}: {e}", file=sys.stderr)
        for s in e.series:
            if s is not None:
                print(s.to_csv(), file=sys.stderr)
        return 2
    except (UsageError, GridTooLarge, GridTooCoarse, NonStabilized) as e:
        # an oracle grid too large or too coarse is a bad --h, and a clamp
        # deeper than 2^20 an input the nonpolar schedule cannot reach:
        # neither is a failure
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (RadialMAError, AssertionError, ValueError) as e:
        print(f"FAIL {scenario}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    meta_full = {
        "scenario": scenario,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("output_dir",)
        },
        "versions": _versions(),
        "result": meta,
    }
    paths = _emit(outdir, scenario, args.format, columns, rows, meta_full)
    for pth in paths:
        print(f"wrote {pth}")
    print(f"PASS {scenario}")
    return 0
