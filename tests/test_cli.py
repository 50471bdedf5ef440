"""CLI contract: artifacts, determinism, exit codes."""
import csv
import io
import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from radialma import cli

TWO_PI = 2.0 * math.pi


def run_cli(args, outdir):
    """``radialma --output-dir outdir *args`` run in-process by cli.main,
    with $RADIALMA_OUTDIR unset, in the shape subprocess.run returns."""
    argv = ["--output-dir", str(outdir), *args]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.delenv("RADIALMA_OUTDIR", raising=False)
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_counterexample_artifacts(tmp_path):
    r = run_cli(["counterexample", "--n", "2"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS counterexample" in r.stdout
    rows = read_rows(tmp_path / "counterexample.csv")
    assert all(float(row["mass_on_K"]) == 0.0 for row in rows)
    assert all(float(row["np_target"]) == TWO_PI**2 for row in rows)
    meta = json.loads((tmp_path / "counterexample.meta.json").read_text())
    assert meta["config"]["n"] == 2
    assert "radialma" in meta["versions"]


def test_capacity_table_rows(tmp_path):
    r = run_cli(["capacity-table", "--j-max", "64", "--dense"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    rows = read_rows(tmp_path / "capacity-table.csv")
    assert len(rows) == 64
    for row in rows:
        j = int(row["j"])
        assert float(row["capacity"]) == pytest.approx(TWO_PI / j, rel=1e-12)
        assert float(row["scaled"]) == pytest.approx(TWO_PI, rel=1e-12)


def test_capacity_table_with_oracle(tmp_path):
    r = run_cli(["capacity-table", "--with-oracle", "--j-max", "8", "--h", "1e-2"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    rows = read_rows(tmp_path / "capacity-table.csv")
    assert [int(row["j"]) for row in rows] == [1, 2, 4, 8]
    for row in rows:
        closed = TWO_PI / int(row["j"])
        assert abs(float(row["oracle"]) - closed) <= 0.1 * closed
    oracle = json.loads((tmp_path / "capacity-table.meta.json").read_text())["result"]["oracle"]
    assert oracle["h"] == 1e-2 and oracle["indices"] == [1, 2, 4, 8]
    assert 0.0 < oracle["worst_rel_error"] <= 0.1


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        r = run_cli(["condition", "--family", "powertail", "--j-max", "256"], d)
        assert r.returncode == 0, r.stdout + r.stderr
    assert (a / "condition.csv").read_bytes() == (b / "condition.csv").read_bytes()
    assert (a / "condition.meta.json").read_bytes() == (
        b / "condition.meta.json"
    ).read_bytes()


def test_json_format_mirrors_csv(tmp_path):
    # global flags go before the subcommand
    r = run_cli(["--format", "json", "capacity-table", "--j-max", "16"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    data = json.loads((tmp_path / "capacity-table.json").read_text())
    cols = data["columns"]
    jrows = [dict(zip(cols, row)) for row in data["rows"]]
    assert [row["j"] for row in jrows] == [1, 2, 4, 8, 16]
    r2 = run_cli(["capacity-table", "--j-max", "16"], tmp_path)
    assert r2.returncode == 0
    rows = read_rows(tmp_path / "capacity-table.csv")
    assert [int(x["j"]) for x in rows] == [1, 2, 4, 8, 16]
    for jrow, crow in zip(jrows, rows):
        assert jrow["capacity"] == float(crow["capacity"])


def test_env_var_sets_output_dir(tmp_path):
    env = dict(os.environ)
    env["RADIALMA_OUTDIR"] = str(tmp_path)
    r = subprocess.run(
        [sys.executable, "-m", "radialma", "maximality", "--family", "log"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "maximality.csv").exists()


@pytest.mark.parametrize("args, code", [(["maximality"], 0), (["counterexample", "--n", "0"], 1)])
def test_python_m_radialma_exits_with_the_status_of_main(tmp_path, monkeypatch, args, code):
    monkeypatch.setattr(sys, "argv", ["radialma", "--output-dir", str(tmp_path), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("radialma", run_name="__main__")
    assert exc.value.code == code


def test_usage_errors_exit_1(tmp_path):
    assert run_cli(["no-such-command"], tmp_path).returncode == 1
    assert run_cli(["counterexample", "--n", "0"], tmp_path).returncode == 1
    assert run_cli(["counterexample", "--bogus-flag"], tmp_path).returncode == 1
    r = run_cli(["capacity-table", "--h", "-1"], tmp_path)
    assert r.returncode == 1


def test_scenario_assertion_failure_exits_2_and_dumps_series(tmp_path):
    # k_max=2 leaves the pairing series too short to flag: the
    # weak-convergence implication cannot be confirmed
    r = run_cli(["weak-converge", "--family", "powertail", "--k-max", "2"], tmp_path)
    assert r.returncode == 2
    out = r.stdout + r.stderr
    assert "FAIL" in out
    assert "condition_implies_weak_convergence" in out
    assert "k,value,flag" in out  # the dumped series is visible


def test_condition_level_variant(tmp_path):
    r = run_cli(
        ["condition", "--family", "log", "--which", "level", "--j-max", "128"],
        tmp_path,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    rows = read_rows(tmp_path / "condition.csv")
    assert all(
        float(row["scaled_capacity"]) == pytest.approx(TWO_PI, rel=1e-12)
        for row in rows
    )


def test_truncate_analyze_smoke(tmp_path):
    r = run_cli(
        ["truncate-analyze", "--family", "random", "--seed", "7", "--j-max", "256"],
        tmp_path,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "truncate-analyze.csv").exists()


def test_weak_converge_smoke(tmp_path):
    r = run_cli(["weak-converge", "--family", "maxconst", "--c", "-1"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_membership_smoke(tmp_path):
    r = run_cli(["membership", "--family", "powertail", "--alpha", "0.25"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_counterexample_weak_vs_setwise_variant(tmp_path):
    r = run_cli(
        ["counterexample", "--variant", "weak-vs-setwise", "--n", "2"], tmp_path
    )
    assert r.returncode == 0, r.stdout + r.stderr


def test_oracle_check_smoke(tmp_path):
    r = run_cli(
        ["oracle-check", "--count", "5", "--envelopes", "2", "--h", "2e-3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    rows = read_rows(tmp_path / "oracle-check.csv")
    assert rows, "oracle-check wrote no rows"


@pytest.mark.parametrize(
    "args",
    [["capacity-table", "--n", "400"], ["capacity-table", "--with-oracle", "--n", "400"]],
    ids=["exact", "with-oracle"],
)
def test_mass_overflow_exits_2_on_one_line(tmp_path, args):
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "MassOverflow" in lines[0]


@pytest.mark.parametrize("scenario", ["truncate-analyze", "weak-converge"])
def test_two_pi_power_overflow_exits_2_on_one_line(tmp_path, scenario):
    r = run_cli([scenario, "--n", "400"], tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "MassOverflow" in lines[0] and "(2*pi)^n" in lines[0]
    assert not (tmp_path / f"{scenario}.csv").exists()


@pytest.mark.parametrize("scenario", ["capacity-table", "condition", "maximality"])
def test_scale_overflow_exits_2_on_one_line(tmp_path, scenario):
    # at n = 300 the masses fit in a float but the scale j^n does not
    r = run_cli([scenario, "--n", "300"], tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "MassOverflow" in lines[0] and "j^n" in lines[0]
    assert not (tmp_path / f"{scenario}.csv").exists()


def test_oversized_oracle_grid_is_a_quick_usage_error(tmp_path):
    # h=1e-6 asks for a grid of about 1.1M nodes
    start = time.perf_counter()
    r = run_cli(["capacity-table", "--with-oracle", "--h", "1e-6"], tmp_path)
    assert time.perf_counter() - start < 20.0
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert "usage error" in r.stderr and "nodes" in r.stderr
    assert not (tmp_path / "capacity-table.csv").exists()


def test_oversized_fd_grid_is_a_usage_error(tmp_path, capsys):
    # counterexample's FD cross-check at h=1e-15 asked numpy for 3.5e15
    # nodes and ended in a MemoryError traceback
    assert cli.main(["--output-dir", str(tmp_path), "counterexample", "--h", "1e-15"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["usage error: grid has 3500000000000001 nodes, more than 20000"]
    assert not any(tmp_path.iterdir())


class ReachedTheScenario(Exception):
    pass


def test_a_dense_capacity_table_past_2_20_rows_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # --dense builds one row per integer up to --j-max; 10^7 rows under a
    # 2 GB address-space limit ended in a MemoryError traceback
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(cli, "capacity", no_rows)
    argv = ["--output-dir", str(tmp_path), "capacity-table", "--dense", "--j-max"]
    for j_max in ("1048577", "10000000"):
        assert cli.main([*argv, j_max]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: --dense builds a row per j: --j-max must be <= 2^20, got {j_max}"
        ]
    assert not any(tmp_path.iterdir())

    # 2^20 rows, and any --j-max without --dense, pass the check
    def reached(args):
        raise ReachedTheScenario(args.j_max, args.dense)

    monkeypatch.setitem(cli._SCENARIOS, "capacity-table", reached)
    with pytest.raises(ReachedTheScenario) as e:
        cli.main([*argv, "1048576"])
    assert e.value.args == (2**20, True)
    with pytest.raises(ReachedTheScenario) as e:
        cli.main([*argv[:-2], "--j-max", "10000000"])
    assert e.value.args == (10**7, False)


NO_FLOAT = str(2**1024)


@pytest.mark.parametrize(
    "argv",
    [
        *([scenario, "--j-max", NO_FLOAT] for scenario in (
            "condition", "maximality", "truncate-analyze", "membership", "capacity-table"
        )),
        ["weak-converge", "--k-max", NO_FLOAT],
        ["counterexample", "--k-max", NO_FLOAT],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_schedule_levels_without_a_float_are_usage_errors(tmp_path, capsys, argv):
    # a level of 2^1024 ended in an OverflowError traceback (int too
    # large to convert to float)
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: {argv[1]}: the top level 2**1024 has no float: "
        "j_max must be below 2**1024"
    ]
    assert not any(tmp_path.iterdir())


def test_the_largest_schedule_with_floats_runs(tmp_path):
    r = run_cli(["condition", "--j-max", str(2**1024 - 1)], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = read_rows(tmp_path / "condition.csv")
    assert float(rows[-1]["j"]) == 2.0**1023


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--h", "nan"],
        ["counterexample", "--h", "inf"],
        ["counterexample", "--h", "abc"],
        ["capacity-table", "--with-oracle", "--h", "nan"],
        ["oracle-check", "--h", "nan"],
        ["condition", "--family", "powertail", "--alpha", "2"],
        ["condition", "--family", "powertail", "--alpha", "nan"],
        ["condition", "--family", "maxconst", "--c", "nan"],
        ["condition", "--log-R", "inf"],
        ["condition", "--log-R", "nan"],
        ["condition", "--family", "linearcap", "--a", "nan"],
        ["condition", "--family", "linearcap", "--b", "nan"],
    ],
    ids=" ".join,
)
def test_bad_float_options_are_usage_errors(tmp_path, capsys, argv):
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if ln.startswith("usage error:")]) == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["condition", "--family", "random", "--seed", "-1"],
        ["truncate-analyze", "--family", "random", "--seed", "-1"],
        ["weak-converge", "--family", "random", "--seed", "-1"],
        ["maximality", "--family", "random", "--seed", "-1"],
        ["membership", "--family", "random", "--seed", "-1"],
        ["condition", "--seed", "-1"],
        ["oracle-check", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["usage error: --seed must be >= 0"]
    assert not any(tmp_path.iterdir())


def test_too_coarse_oracle_grid_is_a_usage_error(tmp_path, capsys):
    # at h=0.08 the oracle grid's 14 cells of 0.08 chord spans start an
    # eighth of a span left of the ball, less than two cells
    argv = ["capacity-table", "--with-oracle", "--h", "0.08", "--j-max", "4"]
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: grid starts at")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--h", "10", "--count", "2", "--envelopes", "2"],
        ["oracle-check", "--h", "0.1", "--count", "2", "--envelopes", "2"],
        ["capacity-table", "--with-oracle", "--h", "0.5"],
        ["counterexample", "--h", "0.1"],
    ],
    ids=" ".join,
)
def test_h_of_a_tenth_or_more_is_a_usage_error(tmp_path, capsys, argv):
    # the oracle checks' 10*h tolerances pass anything once h nears 0.1
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("usage error:")] == [
        f"usage error: --h must lie in (0, 0.1), got {argv[argv.index('--h') + 1]}"
    ]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["condition", "--log-R", "1e300"],
        ["condition", "--family", "random", "--log-R=-1e300"],
        ["weak-converge", "--family", "maxconst", "--log-R", "2e10"],
        ["condition", "--family", "powertail", "--alpha", "1e-300"],
        ["condition", "--family", "powertail", "--log-R", "-1"],
        ["maximality", "--family", "powertail", "--log-R=-0.001"],
        ["condition", "--family", "linearcap", "--a=-1"],
        ["membership", "--family", "linearcap", "--a=-1e-320"],
        ["condition", "--family", "linearcap", "--a=1e-320"],
        ["condition", "--family", "linearcap", "--a=1e-300", "--b=-1e10"],
        ["maximality", "--family", "linearcap", "--a=1e-320", "--log-R=-1", "--b=-2"],
    ],
    ids=" ".join,
)
def test_family_options_outside_their_domain_are_usage_errors(tmp_path, capsys, argv):
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if ln.startswith("usage error:")]) == 1
    assert not any(tmp_path.iterdir())


def test_linearcap_slope_and_knot_are_checked_before_the_profile(tmp_path, capsys):
    # a negative slope used to exit 2 (MonotonicityViolation) and a knot
    # b/a that overflows to -inf ended in a traceback
    for argv, line in [
        (["--a=-1"], "usage error: --a must be >= 0, got -1"),
        (["--a=1e-300", "--b=-1e10"],
         "usage error: --b -1e+10 over --a 1e-300 puts the knot b/a at -inf"),
    ]:
        argv = ["--output-dir", str(tmp_path), "condition", "--family", "linearcap", *argv]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize(
    "argv",
    [["--a", "0"], ["--a=-0.0"], ["--a=1e-320", "--b=1"], ["--a=1e-300", "--b=-1e8"]],
    ids=" ".join,
)
def test_linearcap_edges_that_build_a_profile_pass(tmp_path, argv):
    # zero slope (of either sign) and b >= a * log_R give the constant b;
    # a knot b/a that stays finite is placed however deep
    argv = ["--output-dir", str(tmp_path), "condition", "--family", "linearcap", *argv]
    assert cli.main(argv) == 0


UNDERFLOWING_RELEASE = ["--family", "linearcap", "--a=1e-300", "--b=-1e8", "--n", "2"]


@pytest.mark.parametrize("scenario", ["weak-converge", "truncate-analyze", "maximality"])
def test_an_underflowing_release_atom_is_a_failure_not_a_traceback(tmp_path, scenario):
    # each clamp of max(1e-300 * log r, -1e8) releases an atom whose mass
    # (2*pi*1e-300)^2 underflows to 0.0, which the measure check rejects
    r = run_cli([scenario, *UNDERFLOWING_RELEASE], tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [
        f"FAIL {scenario}: ValueError: atom at t=-9.99999999995523e+299 "
        "has nonpositive mass 0.0"
    ]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("scenario", ["condition", "membership"])
def test_an_underflowing_release_atom_leaves_the_capacity_scenarios_passing(
    tmp_path, scenario
):
    assert cli.main(["--output-dir", str(tmp_path), scenario, *UNDERFLOWING_RELEASE]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "maxconst", "--log-R", "-1"],
        ["--family", "maxconst", "--log-R", "-2"],
        ["--family", "linearcap", "--a", "0"],
    ],
    ids=" ".join,
)
def test_constant_profile_is_maximal_off_the_origin(tmp_path, capsys, argv):
    # max(log r, -1) is constant on a ball of log radius <= -1, and so is
    # linearcap with zero slope: zero measure, whatever the family expects
    assert cli.main(["--output-dir", str(tmp_path), "maximality", *argv]) == 0
    result = json.loads((tmp_path / "maximality.meta.json").read_text())["result"]
    assert result["verdict"] == "maximal-off-origin"
    assert result["np_total_mass"] == 0.0


@pytest.mark.parametrize(
    "family, threshold",
    [
        (["--log-R=0"], 256),
        (["--log-R=-0.5"], 512),
        (["--family", "linearcap", "--a", "0"], 256),
    ],
    ids=["log", "log-R=-0.5", "linearcap-a=0"],
)
def test_maximal_off_origin_is_required_once_three_levels_pass_the_battery(
    tmp_path, capsys, family, threshold
):
    # the punctured battery's deepest node is log_R - 64: above it a hat
    # carries a release atom, so the verdict is reported and not required
    # until three levels j have -j at or left of that node
    for e in range(11):
        argv = ["maximality", *family, "--j-max", str(2**e)]
        assert cli.main(["--output-dir", str(tmp_path), *argv]) == 0, argv
        args = cli.build_parser().parse_args(argv)
        expected = cli._expected(args, cli._build_family(args)[0])
        assert expected == ("maximal-off-origin" if 2**e >= threshold else None), argv
    verdict = json.loads((tmp_path / "maximality.meta.json").read_text())["result"]["verdict"]
    assert verdict == "maximal-off-origin"


@pytest.mark.parametrize("log_R", ["0", "0.5", "-0.5"])
def test_log_family_expectation_is_required_only_at_log_R_zero(tmp_path, capsys, log_R):
    # j^n cap({u <= -j}) reaches (2*pi)^n only like (j / (j + log_R))^n,
    # so the positive flag is required at log_R = 0 and reported elsewhere
    result = {}
    for scenario in ("condition", "membership"):
        argv = [scenario, "--family", "log", f"--log-R={log_R}"]
        assert cli.main(["--output-dir", str(tmp_path), *argv]) == 0
        meta = json.loads((tmp_path / f"{scenario}.meta.json").read_text())
        result[scenario] = meta["result"]
    cond, member = result["condition"], result["membership"]
    if log_R == "0":
        assert cond["expected_flag"] == cond["flag"] == "converging-to-positive"
        assert member["verdict"] == "hypothesis-positive-no-verdict"
    else:
        assert cond["expected_flag"] is None
        assert cond["flag"] == member["hypothesis_flag"] == "inconclusive"


def test_powertail_runs_inside_its_log_R_domain(tmp_path, capsys):
    # the top knot of the alpha = 0.5 ladder sits at -2^-12
    argv = ["condition", "--family", "powertail", "--log-R=-0.0001"]
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 0


def test_main_shares_one_parser_across_calls(tmp_path, capsys):
    first = ["condition", "--family", "powertail", "--j-max", "256"]

    def run(outdir, *argv):
        return cli.main(["--output-dir", str(tmp_path / outdir), *argv])

    assert run("first", *first) == 0
    assert run("other", "--format", "json", "capacity-table", "--j-max", "16") == 0
    assert run("other", "condition", "--log-R", "nan") == 1
    # options and defaults of one call must not leak into the next
    assert run("other", "condition", "--family", "maxconst", "--c", "-2", "--which", "level") == 0
    for argv in (["--help"], ["condition", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    assert "counterexample" in capsys.readouterr().out
    assert run("other", "maximality") == 0
    assert run("again", *first) == 0
    for name in ("condition.csv", "condition.meta.json"):
        assert (tmp_path / "again" / name).read_bytes() == (
            tmp_path / "first" / name
        ).read_bytes()
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664), (0o000, 0o666)]
)
def test_output_files_get_the_mode_open_would_give_them(tmp_path, mask, mode, capsys):
    old = os.umask(mask)
    try:
        assert cli.main(["--output-dir", str(tmp_path), "maximality"]) == 0
    finally:
        os.umask(old)
    for name in ("maximality.csv", "maximality.meta.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "maximality.csv",
        "maximality.meta.json",
    ]


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        cli._write_atomic(str(tmp_path / "x.csv"), "a,b\n")
    assert list(tmp_path.iterdir()) == []


def test_a_leftover_temporary_file_is_left_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_TMP_IDS", itertools.count())
    leftover = tmp_path / f".tmp-{os.getpid()}-0.part"
    leftover.write_text("old")
    cli._write_atomic(str(tmp_path / "x.csv"), "a,b\n")
    assert (tmp_path / "x.csv").read_text() == "a,b\n"
    assert leftover.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name, "x.csv"]


def test_csv_cells_write_none_empty_and_numpy_scalars_as_python_numbers():
    cells = [cli._cell(v) for v in (None, np.float32(0.1), np.int64(3), 0.5)]
    assert cells == ["", "0.10000000149011612", "3", "0.5"]


def test_short_writes_still_land_the_whole_text(tmp_path, monkeypatch):
    write = os.write
    calls = []

    def at_most_seven(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(cli.os, "write", at_most_seven)
    text = "j,value\n" + "".join(f"{j},{j / 3!r}\n" for j in range(1, 40)) + "é\n"
    path = tmp_path / "x.csv"
    cli._write_atomic(str(path), text)
    assert path.read_bytes() == text.encode()
    assert len(calls) == -(-len(text.encode()) // 7)
    assert list(tmp_path.iterdir()) == [path]


def test_a_failed_os_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(fd, data):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "write", refuse)
    with pytest.raises(OSError, match="disk full"):
        cli._write_atomic(str(tmp_path / "x.csv"), "a,b\n")
    assert list(tmp_path.iterdir()) == []


def test_bounded_families_need_two_levels_past_their_floor(tmp_path, capsys):
    # max(log r, c) has empty sublevel sets only at the levels j > -c:
    # from c = -512 on, the default schedule keeps only j = 1024 there,
    # so the zero flag and the in-domain verdict are reported, not required.
    # _expected is checked at every c; main runs at a stride of 17 and on
    # both sides of each power of two, since its outcome only changes there
    edges = {e + d for e in (-128, -256, -512, -1024) for d in (-1, 0, 1)}
    runs = set(range(-100, -2001, -17)) | edges | {-2000}
    for c in range(-100, -2001, -1):
        for scenario in ("condition", "membership"):
            argv = [scenario, "--family", "maxconst", f"--c={c}"]
            if c in runs:
                assert cli.main(["--output-dir", str(tmp_path), *argv]) == 0, argv
        args = cli.build_parser().parse_args(argv)
        expected = cli._expected(args, cli._build_family(args)[0])
        assert expected == ("in-domain" if c >= -511 else None), c
    for b, flag in ((-511, "converging-to-zero"), (-512, None)):
        argv = ["condition", "--family", "linearcap", f"--b={b}"]
        assert cli.main(["--output-dir", str(tmp_path), *argv]) == 0, argv
        meta = json.loads((tmp_path / "condition.meta.json").read_text())
        assert meta["result"]["expected_flag"] == flag


DEEPEST = "usage error: nonpolar part did not stabilize with levels up to 1048576"


@pytest.mark.parametrize(
    "argv",
    [
        [scenario, "--family", "maxconst", f"--c={c}"]
        for scenario in ("maximality", "membership", "weak-converge", "truncate-analyze")
        for c in ("-1048577", "-2e6")
    ]
    + [["maximality", "--family", "linearcap", "--a", "1", "--b=-2e6"]],
    ids=" ".join,
)
def test_a_clamp_deeper_than_the_nonpolar_schedule_is_a_usage_error(tmp_path, capsys, argv):
    # the nonpolar part looks no deeper than 2^20, so a clamp below it
    # leaves an atom it cannot reach: the input, not the paper, is at fault
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [DEEPEST]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        [scenario, "--family", "maxconst", "--c=-1048576"]
        for scenario in ("maximality", "membership", "weak-converge")
    ]
    + [["condition", "--family", "maxconst", "--c=-2e6"]],
    ids=" ".join,
)
def test_a_clamp_the_nonpolar_schedule_reaches_still_passes(tmp_path, argv):
    # a clamp at -2^20 releases on the deepest level; the condition
    # series never builds the nonpolar part
    assert cli.main(["--output-dir", str(tmp_path), *argv]) == 0
