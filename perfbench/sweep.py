"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--write-baseline]

Runs ``perfbench/run.py`` untraced for ``BENCHMARK.json``'s ``run_seconds``,
once per workload and seed, one run at a time, and prints for every
metric the median, the quartiles and the spread (interquartile distance
over the median) next to the bound that ``BENCHMARK.json`` fixes.
``--write-baseline`` stores the summary, the machine record and the
digests of the CLI data files at default parameters in
``perfbench/baseline.json``, which later runs of the ``cli-scenarios``
workload compare against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BASELINE = HERE / "baseline.json"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary, digests, record = {}, {}, {}
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            record, result = run_once(workload, seed, seconds)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            if workload == "cli-scenarios":
                sidecar = HERE / "out" / f"{workload}.seed{seed}.trace0.json"
                for key, dig in json.loads(sidecar.read_text())["record"]["cli_digests"].items():
                    if "--family random" not in key:
                        digests[key] = dig
        summary[workload] = {k: summarize(v) for k, v in per_metric.items()}
        summary[workload]["failed_items"] = failed
        print(f"\n{workload}: failed items {failed}")
        for name, s in summary[workload].items():
            if name == "failed_items":
                continue
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                bad += 1
            print(f"  {name:42s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" bound {bound}{flag}")
        print(flush=True)
    if args.write_baseline:
        base = {
            "git_commit": record.get("git_commit"),
            "machine": {k: record.get(k) for k in ("nproc", "cpu_model", "python", "numpy")},
            "run_seconds": seconds, "seeds": args.seeds,
            "workloads": summary, "cli_digests": dict(sorted(digests.items())),
        }
        BASELINE.write_text(json.dumps(base, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
