"""``tools/workcount.py``: the same counts on every run, and the tracer
and profiler that were installed before are put back."""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_workcount():
    spec = importlib.util.spec_from_file_location("workcount", ROOT / "tools" / "workcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_smoke_passes_give_identical_counts():
    workcount = load_workcount()
    for workload in ("exact-harness", "cli-scenarios"):
        first = workcount.count(workload, 3, smoke=True)
        second = workcount.count(workload, 3, smoke=True)
        assert first == second, workload
        assert first and all(calls > 0 and lines > 0 for _, calls, lines in first)


def test_the_previous_profiler_and_tracer_are_put_back(capsys):
    workcount = load_workcount()
    events = [0]

    def profiler(frame, event, arg):
        events[0] += 1

    tracer = sys.gettrace()  # the line map's, when the suite runs under it
    sys.setprofile(profiler)
    try:
        assert workcount.main(["--workload", "exact-harness", "--seed", "3", "--smoke"]) == 0
        assert sys.getprofile() is profiler
        assert sys.gettrace() is tracer
    finally:
        sys.setprofile(None)
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    counts = workcount.count("exact-harness", 3, smoke=True)
    assert lines[0] == "item\tkind\tcalls\tlines"
    assert lines[1:1 + len(counts)] == [
        f"{i}\t{kind}\t{calls}\t{n}" for i, (kind, calls, n) in enumerate(counts)
    ]
    assert summary["items"] == len(counts)
    assert summary["calls"] == sum(c for _, c, _ in counts)
    assert summary["lines"] == sum(n for *_, n in counts)
    assert summary["digest"] == workcount.digest(counts)
