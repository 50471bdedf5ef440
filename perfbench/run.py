"""Run one radialma benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed generates every input.  With ``--trace 0`` the items
run untraced for S seconds and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed.  Every item is checked; a failed item is counted,
never dropped.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries the run record (seed, input digest, machine,
versions, tail percentile, failed_ratio, err_to_bound).  The full record,
and with tracing the spans, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread: keep numpy's BLAS pool from starting workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INIT = SRC / "radialma" / "__init__.py"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
NAMES = ("oracle-crosscheck", "exact-harness", "profile-eval", "cli-scenarios")
# seed reserved for confirming a claimed gain; never used while tuning
HOLDOUT_SEED = 7919
SETUP_REPEATS = 6
SETUP_PROBES = 5  # reference loops after each set-up, for its host-speed scale
TAIL_CAP = 0.99  # beyond p99 the host's scheduling noise dominates


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal passes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def check_sources() -> None:
    if not INIT.is_file():
        raise SystemExit(f"run.py: no radialma sources at {INIT}; run from a source checkout")


def import_package():
    """Import radialma from this checkout's src/, never from elsewhere."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import radialma

    if Path(radialma.__file__).resolve() != INIT.resolve():
        raise SystemExit(f"run.py: imported radialma from {radialma.__file__}, not {INIT}")
    import workloads

    return workloads


def build(workloads, args, workdir):
    if args.workload == "cli-scenarios":
        recorded = {}
        if BASELINE.is_file():
            recorded = json.loads(BASELINE.read_text()).get("cli_digests", {})
        return workloads.build_cli(args.seed, args.smoke, workdir, recorded)
    return workloads.BUILDERS[args.workload](args.seed, args.smoke)


def setup_only(args) -> None:
    """Child process: time a cold import plus the input build.

    Prints the wall time and the host-speed scale measured right after it.
    """
    t0 = time.perf_counter()
    workloads = import_package()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        build(workloads, args, workdir)
        took = time.perf_counter() - t0
    import hostspeed

    hostspeed.probe()  # the first loop in a process pays numpy's first calls
    ref = statistics.median(hostspeed.probe() for _ in range(SETUP_PROBES))
    print(json.dumps({"setup_s": took, "scale": hostspeed.NOMINAL_S / ref}))


def measure_setup(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Outcomes:
    """Per-item times and check results of one run.

    Every visit's time is scaled by the host-speed factor measured just
    before it (see hostspeed.py); ``raw`` keeps the unscaled visit times
    and ``busy_raw_s`` the unscaled item time.
    """

    def __init__(self, n_items: int, speed):
        self.speed = speed
        self.times: list[list[float]] = [[] for _ in range(n_items)]
        self.raw: list[list[float]] = [[] for _ in range(n_items)]
        self.busy_s = 0.0
        self.busy_raw_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.failures: list[str] = []

    def run(self, kind, item, tr) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("bench.item"):
                ratio = item(tr)
            self.worst = max(self.worst, ratio)
        except Exception as exc:  # a failed item is counted, never fatal
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0

    def visit(self, index, kind, item, tr) -> None:
        scale = self.speed.scale()
        took = self.run(kind, item, tr)
        self.raw[index].append(took)
        self.times[index].append(took * scale)
        self.busy_raw_s += took
        self.busy_s += took * scale

    def typical(self, raw=False) -> list[float]:
        """Each item's median visit."""
        return [statistics.median(ts) for ts in (self.raw if raw else self.times)]


def tail(times: list[float]) -> tuple[float, float]:
    """(quantile, value): the highest quantile with >= 10 items beyond it, capped."""
    n = len(times)
    q = min(TAIL_CAP, max(0.5, 1.0 - 10.0 / n))
    s = sorted(times)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_untraced(wl, seconds, null, speed) -> tuple[Outcomes, float]:
    """Cycle through the pass until the time is up, finishing at least one pass.

    Returns the outcomes and the wall time of the whole loop.
    """
    out = Outcomes(len(wl.items), speed)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(wl.items) or time.perf_counter() < deadline:
        index = i % len(wl.items)
        kind, item = wl.items[index]
        out.visit(index, kind, item, null)
        i += 1
    return out, time.perf_counter() - start


def run_traced(wl, seconds, tracer, null, speed):
    """Alternate untraced and traced passes, flipping the order every pair.

    Returns the outcomes, the scaled item time of the untraced (False) and
    the traced (True) passes, and the number of pairs.
    """
    out = Outcomes(len(wl.items), speed)
    busy = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    pairs = 0
    while True:
        t0 = time.perf_counter()
        for with_trace in ((False, True) if pairs % 2 == 0 else (True, False)):
            before = out.busy_s
            if with_trace:
                with tracer.installed():
                    for index, (kind, item) in enumerate(wl.items):
                        out.visit(index, kind, item, tracer)
            else:
                for index, (kind, item) in enumerate(wl.items):
                    out.visit(index, kind, item, null)
            busy[with_trace] += out.busy_s - before
        pairs += 1
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return out, busy, pairs


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(tracer, passes: int, setup_tracer, overhead: float) -> dict:
    from tracer import LAYERS, PACKAGE_LAYERS

    def total(table, key):
        return getattr(setup_tracer, table)[key] + getattr(tracer, table)[key] / passes

    m = {}
    for layer in LAYERS:
        if layer == "convergence.check_decreasing":
            m[f"{layer}.self_s"] = metric(total("self_s", layer), "s")
            continue
        calls = total("calls", layer)
        self_s = total("self_s", layer)
        if layer == "profiles.eval":
            calls += total("counters", "profiles.eval.points")
            self_s += total("self_s", "profiles.eval.batch")
        m[f"{layer}.calls"] = metric(calls, "count")
        m[f"{layer}.self_s"] = metric(self_s, "s")
    np_calls = total("calls", "measures.nonpolar_part")
    truncs = total("counters", "measures.nonpolar_part.truncations")
    m["measures.nonpolar_part.truncations_per_call"] = metric(
        truncs / np_calls if np_calls else 0.0, "ratio")
    m["oracle.solve.grid_nodes"] = metric(total("counters", "oracle.solve.grid_nodes"), "count")
    m["oracle.solve.max_grid_nodes"] = metric(
        max(tracer.counters["oracle.solve.max_grid_nodes"],
            setup_tracer.counters["oracle.solve.max_grid_nodes"]), "count")
    m["cli.bytes_written"] = metric(total("counters", "cli.bytes_written"), "bytes")
    for layer in PACKAGE_LAYERS:
        m[f"{layer}.errors"] = metric(total("errors", layer), "count")
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    return m


def main(argv=None) -> int:
    args = parse(argv)
    check_sources()
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup_only(args)
        return 0
    setup_samples = [] if args.trace else measure_setup(args)
    workloads = import_package()
    from hostspeed import HostSpeed
    from tracer import NullTracer, Tracer

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        null = NullTracer()
        setup_tracer = Tracer()
        if args.trace:
            with setup_tracer.installed():
                wl = build(workloads, args, workdir)
        else:
            wl = build(workloads, args, workdir)
        record = {
            "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "input_digest": wl.digest(), "items_per_pass": len(wl.items),
            "git_commit": git_commit(), "numpy": workloads.np.__version__,
            **machine(),
        }
        if args.trace:
            tracer = Tracer()
            out, busy, pairs = run_traced(wl, args.seconds, tracer, null, HostSpeed())
            metrics = per_layer(tracer, pairs, setup_tracer, busy[True] / busy[False] - 1.0)
            record["passes"] = {"pairs": pairs, "untraced_item_s": busy[False],
                                "traced_item_s": busy[True]}
            record["spans"] = {"setup": setup_tracer.sidecar(), "passes": tracer.sidecar()}
        else:
            speed = HostSpeed()
            out, wall = run_untraced(wl, args.seconds, null, speed)
            typical = out.typical()
            q, tail_s = tail(typical)
            raw = out.typical(raw=True)
            metrics = {
                "setup_s": metric(statistics.median(
                    s["setup_s"] * s["scale"] for s in setup_samples), "s"),
                "items_per_s": metric(out.attempted / out.busy_s, "1/s"),
                "item_p50_ms": metric(statistics.median(typical) * 1e3, "ms"),
                "item_tail_ms": metric(tail_s * 1e3, "ms"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            record.update(setup_samples=setup_samples, tail_quantile=q,
                          tail_samples=len(typical), timed_wall_s=wall,
                          visits=min(len(ts) for ts in out.times),
                          unscaled={"items_per_s": out.attempted / out.busy_raw_s,
                                    "item_p50_ms": statistics.median(raw) * 1e3,
                                    "item_tail_ms": tail(raw)[1] * 1e3},
                          **speed.summary())
        attempted = out.attempted
        record.update(
            attempted=attempted, failed=out.failed, failed_ratio=out.failed / attempted,
            err_to_bound=out.worst, failures=out.failures, **wl.extra(),
        )
        sidecar = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
        sidecar.write_text(json.dumps({"record": record, "metrics": metrics}, indent=1))
        record.pop("spans", None)
        record.pop("cli_digests", None)
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": out.failed == 0, "attempted": attempted,
                          "failed": out.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
