"""Count the work one pass of a benchmark workload does: calls and lines.

    python tools/workcount.py --workload exact-harness --seed 1 [--smoke]

Run from anywhere inside a source checkout: the package is imported from
its ``src/`` and the items are built by ``perfbench/workloads.py``, which
is only read.  One untraced pass warms the caches a long run keeps warm;
then one pass runs under ``sys.setprofile`` and ``sys.settrace``, which
count, per item, the Python and C function calls and the Python lines
executed.  The cycle collector is paused over the counted pass, so a
collection's callbacks never land in an item's count.  The tracer and
profiler that were installed before are put back afterwards.

The output is one line per item (index, kind, calls, lines), one line
per kind with its totals, and last a JSON object with the pass totals
and a digest of the per-item counts.  Two runs at one seed print the
same counts.  Work inside a C function, such as a numpy kernel, counts
as one call however long it runs, so the count complements wall time
and never replaces it.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("oracle-crosscheck", "exact-harness", "profile-eval", "cli-scenarios")


class NullTracer:
    """What a workload item is handed when nothing is timed."""

    class _Span:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _span = _Span()

    def span(self, name):
        return self._span

    def count(self, name, value=1.0):
        pass


def load_workloads():
    """``perfbench/workloads.py``, with radialma imported from ``src/``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    module = sys.modules.get("workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return module


def count(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, int, int]]:
    """(kind, calls, lines) per item of one counted pass, in pass order."""
    wl_mod = load_workloads()
    tr = NullTracer()
    with tempfile.TemporaryDirectory() as workdir:
        if workload == "cli-scenarios":
            wl = wl_mod.build_cli(seed, smoke, workdir, {})
        else:
            wl = wl_mod.BUILDERS[workload](seed, smoke)
        for _, item in wl.items:
            item(tr)
        tally = [0, 0]  # calls, lines of the item running

        def profile(frame, event, arg):
            if event == "call" or event == "c_call":
                tally[0] += 1

        def line(frame, event, arg):
            if event == "line":
                tally[1] += 1
            return line

        def trace(frame, event, arg):
            return line

        out = []
        old_trace, old_profile = sys.gettrace(), sys.getprofile()
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for kind, item in wl.items:
                tally[:] = [0, 0]
                sys.setprofile(profile)
                sys.settrace(trace)
                try:
                    item(tr)
                finally:
                    sys.settrace(old_trace)
                    sys.setprofile(old_profile)
                out.append((kind, tally[0], tally[1]))
        finally:
            if collecting:
                gc.enable()
    return out


def digest(counts) -> str:
    text = json.dumps([list(c) for c in counts])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true", help="the minimal pass of the smoke test")
    args = ap.parse_args(argv)
    counts = count(args.workload, args.seed, args.smoke)
    kinds: dict[str, list[int]] = {}
    print("item\tkind\tcalls\tlines")
    for i, (kind, calls, lines) in enumerate(counts):
        print(f"{i}\t{kind}\t{calls}\t{lines}")
        total = kinds.setdefault(kind, [0, 0, 0])
        total[0] += 1
        total[1] += calls
        total[2] += lines
    print("kind\titems\tcalls\tlines")
    for kind, (items, calls, lines) in kinds.items():
        print(f"{kind}\t{items}\t{calls}\t{lines}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "items": len(counts),
        "calls": sum(c for _, c, _ in counts),
        "lines": sum(n for *_, n in counts),
        "digest": digest(counts),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
