"""The benchmark's four workloads, each built from a seed.

Each ``build_*(seed, smoke)`` returns a ``Workload``: one *pass* of items
that the runner cycles through, plus a JSON-able description of the
generated inputs (hashed into the run record).  An item is a callable
``item(tr) -> float`` that runs the package, checks the outputs against
the acceptance suite's pinned bounds and returns the worst ratio of a
checked error to its bound (0 where every check is bitwise).  A failed
check raises ``CheckFailed``.  Items call the package through module
attributes (``rm.x`` at call time) so the tracer's rebinding sees them.

Pinned bounds, as in ``tests/test_acceptance.py``: 10h for the
relaxation oracle, 1e-12 for the closed form and for dominance, 1e-9 for
finite differences and for nonpolar targets, plus the verdicts and flags
of criteria 3-5 and the CLI's per-family expectations.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import radialma as rm
import radialma.cli  # noqa: F401  (bound before the tracer patches namespaces)

TWO_PI = 2.0 * math.pi
NEG_INF = float("-inf")

# Grid spacing of the oracle items.  Criterion 7 uses 2e-3, where one
# random compact takes 0.1-3 s; PSOR's sweep count varies by +-30%
# between compacts of one grid size, so a run needs a few hundred items
# for its rate not to depend on the seed.  1e-2 keeps the same compacts
# at 110-870 nodes.
ORACLE_H = 1e-2
# extent/span ratios of the oracle compacts; the grid has (1.125 + r)/h
# nodes, so these strata fix the cost mix whatever the seed draws
ORACLE_RATIOS = (0.25, 7.5)
ORACLE_STRATA = 88

EXACT_COMPACTS = ((-2.0, None), (-3.0, -1.5), (-2.0, -2.0))  # ball, annulus, sphere
EXACT_RANDOM = 384  # enough draws that the median item does not move with the seed
EXACT_SEQUENCES = 64  # from criterion 5's pool, with its finite-k inequality
SEQ_KS = (8, 16, 32, 64, 128)
C5_SEED, C5_TRIALS = 99, 100  # criterion 5's generator stream

EVAL_COMPACTS = 48
EVAL_LATTICE = 192
LATTICE = 1.0 / 16

# family tag -> (maximality verdict, membership verdict, level-condition flag),
# the expectations the CLI pins per family
FAMILY_EXPECT = {
    "log": ("maximal-off-origin", "hypothesis-positive-no-verdict", rm.CONVERGING_TO_POSITIVE),
    "maxconst": ("not-maximal", "in-domain", rm.CONVERGING_TO_ZERO),
    "powertail": ("not-maximal", "in-domain", rm.CONVERGING_TO_ZERO),
}

CLI_SCENARIOS = ("counterexample", "capacity-table", "condition", "truncate-analyze",
                 "weak-converge", "maximality", "membership")
CLI_FAMILY_SCENARIOS = ("condition", "truncate-analyze", "weak-converge",
                        "maximality", "membership")
# weak-converge fails on a few random draws (see _weak_convergence), so the
# random family runs the other four
CLI_RANDOM_SCENARIOS = tuple(s for s in CLI_FAMILY_SCENARIOS if s != "weak-converge")
CLI_RANDOM_SEEDS = 3


class CheckFailed(Exception):
    """An item's output missed its pinned verdict, flag or bound."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Workload:
    name: str
    items: list[tuple[str, Callable]]  # (kind, item) for one pass
    inputs: list  # JSON-able description of what the seed generated
    extra: Callable[[], dict] = field(default=dict)

    def digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True, allow_nan=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _compact_desc(K) -> list:
    return [[None if a == NEG_INF else a, b] for a, b in K.intervals]


# -- oracle-crosscheck --------------------------------------------------


def _extent_ratio(K) -> float:
    pts = [x for ab in K.intervals for x in ab if x != NEG_INF]
    return (K.sup - min(pts)) / (0.0 - K.sup)


def _oracle_item(K):
    def item(tr) -> float:
        cap = rm.capacity(K, 0.0, 1)
        res = rm.extremal(K, 0.0, 1)
        closed = TWO_PI / (0.0 - K.sup)
        require(res.capacity == cap, "capacity() and extremal() disagree")
        r_closed = abs(cap - closed) / (1e-12 * closed)
        ora = rm.oracle_capacity(K, 0.0, 1, h=ORACLE_H)
        r_oracle = abs(ora - cap) / (10 * ORACLE_H * cap)
        span = 0.0 - K.sup
        left = min(x for ab in K.intervals for x in ab if x != NEG_INF) - 0.25 * span
        grid = rm.Grid1D.from_bounds(left, 0.0, ORACLE_H * span)
        env = rm.relaxation_envelope(K, 0.0, grid)
        ts = np.linspace(left, -ORACLE_H * span, 257).tolist()
        with tr.span("profiles.eval.batch"):
            approx = [env.value(t) for t in ts]
            exact = [res.profile.value(t) for t in ts]
        tr.count("profiles.eval.points", 2 * len(ts))
        r_env = max(abs(a - e) for a, e in zip(approx, exact)) / (10 * ORACLE_H)
        worst = max(r_closed, r_oracle, r_env)
        require(worst <= 1.0, f"oracle check {r_closed:.3g}/{r_oracle:.3g}/{r_env:.3g} of bound")
        return worst

    return item


def build_oracle(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n_strata = 2 if smoke else ORACLE_STRATA
    lo, hi = ORACLE_RATIOS
    width = (hi - lo) / ORACLE_STRATA
    strata: list = [None] * n_strata
    for _ in range(20000):
        K = rm.random_compact(rng, 0.0)
        k = math.floor((_extent_ratio(K) - lo) / width)
        if 0 <= k < n_strata and strata[k] is None:
            strata[k] = K
            if all(s is not None for s in strata):
                break
    else:
        raise RuntimeError("random_compact never filled every grid-size stratum")
    # every dyadic ball of criterion 1, spread evenly among the compacts
    js = list(rm.geometric_schedule(2 if smoke else 1024))
    balls = [rm.closed_ball(-float(j)) for j in rng.permutation(js)]
    every = max(1, n_strata // len(balls))
    # spread the strata through the pass so any prefix has the same mix
    step = next(s for s in (7, 5, 3, 1) if math.gcd(s, n_strata) == 1)
    order = [strata[(i * step) % n_strata] for i in range(n_strata)]
    seq = []
    for i, K in enumerate(order):
        if i % every == 0 and balls:
            seq.append(("ball", balls.pop()))
        seq.append(("compact", K))
    seq += [("ball", K) for K in balls]
    return Workload(
        "oracle-crosscheck",
        [(kind, _oracle_item(K)) for kind, K in seq],
        [[kind, _compact_desc(K)] for kind, K in seq],
    )


# -- exact-harness ------------------------------------------------------


def _exact_item(p, tag, n, compacts, battery):
    def item(tr) -> float:
        npm = rm.nonpolar_part(p, n)
        require(npm.origin_mass == 0.0, "nonpolar part carries origin mass")
        for K in compacts:
            rep = rm.truncation_analysis(p, K, n)
            require(rep.verdict == "flags-agree", f"truncation flags {rep.flags}")
            require(rep.details["exact_decomposition"] is True, "decomposition")
            require(rep.details["level_zero_forces_total"] is True, "level/total")
        worst = 0.0
        if tag in FAMILY_EXPECT:
            worst = _weak_convergence(p, n, battery)
        maxi = rm.maximality_check(p, n)
        member = rm.ma_domain_membership(p, n)
        level = rm.condition_level(p, n)
        bounded = isinstance(p.left_end, rm.FiniteValue)
        if tag in FAMILY_EXPECT:
            want_max, want_member, want_level = FAMILY_EXPECT[tag]
        else:
            # random draws: maximal exactly when no sphere carries mass; a
            # bounded profile has empty deep sublevel sets, so it is in the
            # domain with a zero level flag; unbounded ones have no pinned verdict
            want_max = "not-maximal" if rm.ma_measure(p, n).atoms else "maximal-off-origin"
            want_member = "in-domain" if bounded else None
            want_level = rm.CONVERGING_TO_ZERO if bounded else None
        require(maxi.verdict == want_max, f"maximality {maxi.verdict} != {want_max}")
        if want_member is not None:
            require(member.verdict == want_member, f"membership {member.verdict} != {want_member}")
        if want_level is not None:
            require(level.flag == want_level, f"level condition {level.flag} != {want_level}")
        require(worst <= 1.0, f"weak-convergence target missed by {worst:.3g} of bound")
        return worst

    return item


def _weak_convergence(p, n, battery) -> float:
    """Criterion 4 on one profile: the implication, then the 1e-9 targets.

    Random draws do not run it: on about one (profile, n) in 8,000,
    ``series.decide_flag`` calls a converged conclusion series
    ``inconclusive`` when a bump sits late in the schedule, so
    ``implication_respected`` is false (seed 118954863 draws one).
    """
    weak = rm.weak_convergence_test(rm.truncation_sequence(p), battery, n)
    require(weak.details["implication_respected"], f"weak convergence {weak.flags}")
    worst = 0.0
    if weak.hypothesis_series.flag == rm.CONVERGING_TO_ZERO:
        for ser in weak.conclusion_series:
            tgt = ser.metadata["target"]
            if math.isfinite(tgt):
                worst = max(worst, abs(ser.values[-1] - tgt) / (1e-9 * (1.0 + abs(tgt))))
    return worst


def _sequence_item(seq, n, battery):
    def item(tr) -> float:
        rm.check_decreasing(seq, SEQ_KS)
        npm = rm.nonpolar_part(seq.limit, n)
        members = [rm.ma_measure(seq.member(k), n) for k in SEQ_KS]
        worst = 0.0
        for phi in battery:
            target = npm.integrate(phi)
            for mk in members:
                worst = max(worst, (target - mk.integrate(phi)) / (1e-9 * (1.0 + target)))
        require(worst <= 1.0, f"tail integral below the target by {worst:.3g} of bound")
        return worst

    return item


def build_exact(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    compacts = [rm.closed_ball(a) if b is None else rm.annulus(a, b) for a, b in EXACT_COMPACTS]
    battery = rm.default_battery(0.0)
    profiles = [("powertail", rm.power_tail_profile(a)) for a in (0.25, 0.5, 0.75)]
    profiles += [("log", rm.log_profile()), ("maxconst", rm.max_const_profile(-1.0))]
    n_random, n_seq = (1, 1) if smoke else (EXACT_RANDOM, EXACT_SEQUENCES)
    if smoke:
        profiles = profiles[3:4]
    profiles += [("random", rm.random_profile(rng, 0.0)) for _ in range(n_random)]
    # Criterion 5's inequality holds at k = 8..128 for its own 100 sequences;
    # for other draws only the limit is guaranteed (a clipped line can still
    # win at k = 8), and about 0.3% of fresh draws have a member that
    # raises ConvexityViolation, so the seed picks which of those sequences run.
    c5 = np.random.default_rng(C5_SEED)
    pool = [(rm.random_decreasing_sequence(c5, 0.0), t % 3 + 1) for t in range(C5_TRIALS)]
    picks = rng.permutation(C5_TRIALS)[:n_seq]
    items, inputs = [], []
    for tag, p in profiles:
        for n in (1, 2, 3):
            items.append((f"profile-{tag}", _exact_item(p, tag, n, compacts, battery)))
            inputs.append([tag, n, p.to_json_dict()])
    for t in picks:
        seq, n = pool[t]
        items.append(("sequence", _sequence_item(seq, n, battery)))
        inputs.append([int(t), seq.label, n, seq.limit.to_json_dict()])
    return Workload("exact-harness", items, inputs)


# -- profile-eval -------------------------------------------------------


def _dominance_item(K, supersets, lines):
    b_max = K.sup
    finite_as = [a for a, _ in K.intervals if a > NEG_INF]
    left = min(finite_as) if finite_as else b_max - 2.0
    ts = np.linspace(left - 3.0, -1e-9, 257).tolist()

    def item(tr) -> float:
        ext = rm.extremal_profile(K, 0.0)
        comps = []
        for ball, pad in supersets:
            if ball:
                sup = rm.closed_ball(min(b_max + pad, -1e-3))
            else:
                sup = rm.make_compact([(a - pad if a > NEG_INF else a, min(b + pad, -1e-3))
                                       for a, b in K.intervals])
            comps.append(rm.extremal_profile(sup, 0.0))
        for sl, const in lines:
            comps.append(rm.constant_profile(-1.0, 0.0).max_with_affine(sl, const))
        ext_knots = [t for t, _ in ext.breakpoints]
        pts = [ts + [t for t, _ in comp.breakpoints] + ext_knots for comp in comps]
        # only the value calls run inside the span; the comparison is outside
        with tr.span("profiles.eval.batch"):
            vals = [([comp.value(t) for t in ps], [ext.value(t) for t in ps])
                    for comp, ps in zip(comps, pts)]
        tr.count("profiles.eval.points", 2 * sum(map(len, pts)))
        worst = max(c - e for cs, es in vals for c, e in zip(cs, es))
        require(worst <= 1e-12, f"competitor above the extremal by {worst:.3g}")
        return max(worst, 0.0) / 1e-12

    return item


def _lattice_item(p, grid, mids):
    def item(tr) -> float:
        exact = rm.distribution_function(rm.ma_measure(p, 1), mids)
        fd = rm.distribution_function(rm.fd_riesz_measure(p, grid), mids)
        err = float(np.max(np.abs(exact - fd)))
        require(err <= 1e-9, f"fd distribution off by {err:.3g}")
        return err / 1e-9

    return item


def build_eval(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n_compacts, n_lattice = (1, 4) if smoke else (EVAL_COMPACTS, EVAL_LATTICE)
    grid = rm.Grid1D.from_bounds(-16.0, -LATTICE, LATTICE)
    mids = (grid.nodes[:-1] + grid.nodes[1:]) / 2.0
    compact_items, lattice_items, inputs = [], [], []
    for _ in range(n_compacts):
        # the competitor draws of criterion 7
        K = rm.random_compact(rng, 0.0)
        supersets = []
        for _ in range(100):
            ball = bool(rng.random() < 0.5)
            supersets.append((ball, float(rng.uniform(0.0, 0.5) if ball else rng.uniform(0.0, 0.3))))
        lines = []
        for _ in range(100):
            sl = float(rng.uniform(0.0, 2.0))
            lines.append((sl, min(-1.0 - sl * K.sup, 0.0) - float(rng.uniform(0.0, 1.0))))
        compact_items.append(("dominance", _dominance_item(K, supersets, lines)))
        inputs.append(["dominance", _compact_desc(K), supersets, lines])
    for _ in range(n_lattice):
        p = rm.random_profile(rng, 0.0, bounded=True, lattice=LATTICE, allow_clamp=False)
        lattice_items.append(("lattice-fd", _lattice_item(p, grid, mids)))
        inputs.append(["lattice-fd", p.to_json_dict()])
    # one dominance item per four lattice items: the median falls on the
    # lattice items and the tail on the dominance items
    items = []
    per = max(1, n_lattice // n_compacts)
    for i, comp in enumerate(compact_items):
        items.append(comp)
        items += lattice_items[i * per:(i + 1) * per]
    return Workload("profile-eval", items, inputs)


# -- cli-scenarios ------------------------------------------------------


def cli_configs(seed: int, smoke: bool) -> list[list[str]]:
    """Every non-oracle scenario at defaults, plus powertail and random families."""
    rng = np.random.default_rng(seed)
    configs = [[s] for s in CLI_SCENARIOS]
    configs += [[s, "--family", "powertail"] for s in CLI_FAMILY_SCENARIOS]
    configs += [[s, "--family", "random", "--seed", str(int(rng.integers(0, 2**31)))]
                for s in CLI_RANDOM_SCENARIOS for _ in range(CLI_RANDOM_SEEDS)]
    if smoke:
        configs = [configs[0], configs[-1]]
    return [[f"--format={fmt}", *c] for c in configs for fmt in ("csv", "json")]


def build_cli(seed: int, smoke: bool, workdir: str, recorded: dict) -> Workload:
    first: dict[str, str] = {}  # config -> digest of its data file
    drifted: set[str] = set()

    def make(i: int, argv: list[str]):
        outdir = os.path.join(workdir, str(i))
        fmt = argv[0].split("=")[1]
        key = " ".join(argv)
        data_path = os.path.join(outdir, f"{argv[1]}.{fmt}")
        meta_path = os.path.join(outdir, f"{argv[1]}.meta.json")

        def item(tr) -> float:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = rm.cli.main(["--output-dir", outdir, *argv])
            require(rc == 0, f"radialma {key} exited {rc}: {sink.getvalue()[-300:]}")
            with open(data_path, "rb") as f:
                data = f.read()
            tr.count("cli.bytes_written", len(data) + os.path.getsize(meta_path))
            digest = hashlib.sha256(data).hexdigest()
            require(first.setdefault(key, digest) == digest, f"{key}: data file changed")
            if key in recorded and recorded[key] != digest:
                drifted.add(key)
            return 0.0

        return item

    configs = cli_configs(seed, smoke)

    def extra() -> dict:
        return {"cli_digest_drift": len(drifted), "cli_digests": first}

    return Workload(
        "cli-scenarios",
        [(c[1], make(i, c)) for i, c in enumerate(configs)],
        configs,
        extra,
    )


BUILDERS = {
    "oracle-crosscheck": build_oracle,
    "exact-harness": build_exact,
    "profile-eval": build_eval,
}
