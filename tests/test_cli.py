import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import steergap
from steergap import (
    GroupParams,
    estimate_norm,
    report,
    seesaw_tensor_optimize,
    spectral,
)
from steergap.cli import _apply_config, _build_parser, _load_config_file, main
from steergap.heatvision import MAX_STEPS
from steergap.report import (
    ReportSettings,
    criterion_bound_chain,
    criterion_conjugation,
    criterion_norm_sweep,
    run_report,
)
from steergap.spectral import analytic_norm, radial_bracket

from test_heatvision import (
    EXACT_STEPS_S3,
    exact_mixture_purities,
    lazy_walk_second_moments,
)

CRITERION_LINE = re.compile(r"^\[(PASS|FAIL)\] criterion (\d+): ")


def run_lines(capsys):
    captured = capsys.readouterr()
    return captured.out.splitlines(), captured.err


# --- norm ---


def test_norm_writes_csv_and_json(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    rc = main(
        [
            "norm",
            "--s",
            "3",
            "--depth-max",
            "4",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert rc == 0
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "N,estimate,analytic_bound,gap,lower,upper"
    assert len(lines) == 5  # header + depths 1..4
    doc = json.loads(json_path.read_text())
    assert list(doc) == ["config", "result", "meta"]
    assert doc["config"]["command"] == "norm"
    assert doc["config"]["s"] == 3
    assert doc["meta"]["artifact"] == "steergap"
    assert doc["meta"]["version"] == steergap.__version__
    estimates = doc["result"]["estimates"]
    assert [e["depth"] for e in estimates] == [1, 2, 3, 4]
    # CSV floats are full-precision: text round-trips to the JSON values
    for line, entry in zip(lines[1:], estimates):
        n, est, bound, gap, lower, upper = line.split(",")
        assert int(n) == entry["depth"]
        assert float(est) == entry["estimate"]
        assert float(bound) == analytic_norm(3)
        assert float(gap) == entry["gap"]
        assert (float(lower), float(upper)) == (entry["lower"], entry["upper"])
        assert entry["representation"] == "sparse"
        assert list(entry) == [
            "depth", "estimate", "gap", "lower", "upper", "representation"
        ]
    assert doc["result"]["final_estimate"] == estimates[-1]["estimate"]
    assert doc["result"]["final_gap"] == estimates[-1]["gap"]
    assert "method" not in doc["result"]


def test_norm_defaults_to_stdout(capsys):
    rc = main(["norm", "--s", "2", "--depth-max", "2"])
    out, _ = run_lines(capsys)
    assert rc == 0
    assert out[0] == "N,estimate,analytic_bound,gap,lower,upper"
    assert len(out) == 3


def test_norm_json_is_deterministic_outside_meta(tmp_path):
    path = tmp_path / "sweep.json"
    argv = ["norm", "--s", "3", "--depth-max", "3", "--csv",
            str(tmp_path / "x.csv"), "--json", str(path)]
    assert main(argv) == 0
    first = path.read_text()
    assert main(argv) == 0
    second = path.read_text()
    # identical bytes through config and result; only meta carries a timestamp
    assert first.split('"meta"')[0] == second.split('"meta"')[0]


def test_norm_radial_runs_past_the_krylov_budget(capsys):
    # T_N has N + 1 = 201 points, more than the 200-vector Lanczos budget,
    # and its bracket costs one apply of T_N.
    rc = main(["norm", "--s", "3", "--depth-min", "200", "--depth-max", "200"])
    out, _ = run_lines(capsys)
    assert rc == 0
    n, est, _, gap, lower, upper = out[1].split(",")
    assert int(n) == 200
    assert float(gap) > 0.0
    assert float(lower) - 1e-15 <= float(est) <= float(upper) + 1e-15
    assert float(upper) - float(lower) <= 1e-12


# --- exit codes ---


def test_invalid_s_exits_1(capsys):
    rc = main(["norm", "--s", "1", "--depth-max", "3"])
    _, err = run_lines(capsys)
    assert rc == 1
    assert "s must be ≥ 2" in err


def test_usage_problems_exit_1(capsys):
    assert main(["norm", "--depth-max", "3"]) == 1
    assert "--s" in capsys.readouterr().err
    assert main(["norm", "--s", "3", "--depth-max", "3", "--bogus"]) == 1
    assert "unrecognized" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    # Options that no documented run used are gone, not ignored.
    for argv in (
        ["report", "--quick", "--seesaw-restarts", "3"],
        ["report", "--quick", "--chain-samples", "60"],
        ["report", "--quick", "--table-samples", "60"],
        ["report", "--quick", "--norm-depth-max", "8"],
        ["steer", "commuting", "--s", "3", "--depth", "3"],
    ):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_capacity_exhaustion_exits_2(capsys):
    rc = main(["steer", "seesaw", "--s", "3", "--bob-depth", "21"])
    _, err = run_lines(capsys)
    assert rc == 2
    assert "error:" in err and "exceeds cap" in err


def test_capacity_exhaustion_at_huge_depth_exits_2(capsys):
    # The depth-20000 ball has about 9500 digits, too many to format as an int.
    rc = main(["steer", "seesaw", "--s", "3", "--bob-depth", "20000"])
    _, err = run_lines(capsys)
    assert rc == 2
    assert "exceeds cap" in err
    assert "at least 2^20001 words" in err


def test_sparse_norm_over_the_word_cap_exits_2_before_allocating(capsys):
    # The depth-20 ball at s=3 holds 3 145 726 words, over the 2M word cap.
    # ``norm`` brackets such a ball on T_N alone; the seesaw needs the ball.
    tracemalloc.start()
    try:
        rc = main(["steer", "seesaw", "--s", "3", "--bob-depth", "20"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, err = run_lines(capsys)
    assert rc == 2
    assert "exceeds cap" in err
    assert peak < 1_000_000  # one float64 vector of the ball is 25 MB


def test_buffer_exhaustion_exits_2(capsys):
    rc = main(["heatvision", "--s", "3", "--depth", "4", "--steps", "9"])
    _, err = run_lines(capsys)
    assert rc == 2
    assert "max exact steps: 4" in err


def test_heatvision_mixture_runs_past_the_word_cap(tmp_path):
    """The depth-20 ball at s=3 holds 3 145 726 words, over the 2M word cap,
    but a mixture runs on the shell masses and its word pairs, with no ball."""
    csv_path = tmp_path / "mix.csv"
    rc = main(["heatvision", "--s", "3", "--depth", "20", "--steps", "9",
               "--state", "e,g1", "--csv", str(csv_path)])
    assert rc == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(10))
    for row, exact in zip(rows, exact_mixture_purities(3, "e,g1", 9)):
        assert abs(float(row[1]) - float(exact)) <= 1e-15 * float(exact)


def test_heatvision_list_work_exits_2(capsys):
    """The mixture of e and g1 is one word pair 1 apart, whose chain runs to
    step 2 steps and reads 2 + min(t, 2 steps - t) shells at step t + 1.  So
    up to 9078 steps fit in the list work of the root run's 12 841, and 9079
    are refused with exit 2 before any step."""
    start = time.perf_counter()
    rc = main(["heatvision", "--s", "2", "--depth", "9080", "--steps", "9079",
               "--state", "e,g1"])
    elapsed = time.perf_counter() - start
    _, err = run_lines(capsys)
    assert rc == 2
    assert "list work over 9079 steps, more than 12841 steps from e take" in err
    assert elapsed < 1.0


def test_heatvision_from_root_runs_past_the_word_cap(tmp_path):
    """From |e> the run needs no word basis, so the depth-20 ball is no limit."""
    csv_path = tmp_path / "deep.csv"
    rc = main(["heatvision", "--s", "3", "--depth", "20", "--steps", "19",
               "--state", "e", "--csv", str(csv_path)])
    assert rc == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(20))
    exact = lazy_walk_second_moments(3, EXACT_STEPS_S3)
    for row, moment in zip(rows, exact):
        assert abs(float(row[1]) - float(moment)) <= 1e-15


def test_heatvision_envelope_underflow_exits_1(capsys):
    # At s=10 the envelope ((1+f*)/2)^(2t) is 0.0 in doubles from t = 1670.
    rc = main(["heatvision", "--s", "10", "--depth", "1700", "--steps", "1700"])
    _, err = run_lines(capsys)
    assert rc == 1
    assert "error:" in err and "underflows to 0.0" in err


def test_heatvision_step_cap_exits_2(capsys):
    """At s=2 the envelope is 1.0 at every step and the root state needs no
    word basis, so only the step cap refuses this run, before any step."""
    start = time.perf_counter()
    rc = main(["heatvision", "--s", "2", "--depth", "1000000", "--steps", "1000000"])
    elapsed = time.perf_counter() - start
    _, err = run_lines(capsys)
    assert rc == 2
    assert f"at most {MAX_STEPS} run (step cap)" in err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["steer", "seesaw", "--s", "3", "--restarts", "0"],
        ["heatvision", "--s", "3", "--depth", "3", "--steps", "-1"],
    ],
    ids=["seesaw-restarts", "heatvision-steps"],
)
def test_nonpositive_budgets_exit_1(capsys, argv):
    rc = main(argv)
    _, err = run_lines(capsys)
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--quick", "--tolerance-scale", "nan"],
        ["report", "--quick", "--tolerance-scale", "inf"],
        ["report", "--quick", "--tolerance-scale", "-1"],
    ],
    ids=["report-scale-nan", "report-scale-inf", "report-scale-negative"],
)
def test_bad_tolerances_exit_1(capsys, argv):
    """A NaN tolerance passes every comparison against it, and a negative one
    fails them all or runs solvers to their caps, so both are refused up front."""
    start = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - start
    _, err = run_lines(capsys)
    assert rc == 1
    assert err.startswith("error: ") and "must be finite and ≥ 0" in err
    assert elapsed < 1.0


def test_library_callers_get_the_same_tolerance_checks():
    """Zero stays accepted, as the report's negative control and as a solver
    tolerance; ``run_report`` refuses a NaN scale as the command line does.
    The norm takes no tolerance: its bracket is what it reports.  The
    seesaw's tolerance, set by no command, refuses NaN and negative values."""
    settings = ReportSettings.quick()
    settings.tolerance_scale = 0.0
    assert [r.number for r in run_report(settings) if not r.passed]
    with pytest.raises(TypeError, match="tol"):
        estimate_norm(GroupParams(3), 3, tol=0.0)
    assert estimate_norm(GroupParams(3), 3).gap > 0
    seesaw_tensor_optimize(GroupParams(3), 2, 2, restarts=1, tol=0.0)
    for tol in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite and ≥ 0"):
            seesaw_tensor_optimize(GroupParams(3), 2, 2, restarts=1, tol=tol)
    settings.tolerance_scale = float("nan")
    with pytest.raises(ValueError, match="tolerance_scale must be finite"):
        run_report(settings)


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.2 GiB")

    monkeypatch.setattr("steergap.heatvision.iterate_channel", exhausted)
    rc = main(["heatvision", "--s", "3", "--depth", "4", "--steps", "2"])
    _, err = run_lines(capsys)
    assert rc == 2
    assert err.startswith("error: ")
    assert "out of memory" in err


# --- steer ---


def test_commuting_json_schema(capsys):
    rc = main(["steer", "commuting", "--s", "5"])
    out, _ = run_lines(capsys)
    assert rc == 0
    doc = json.loads("\n".join(out))
    result = doc["result"]
    assert list(result) == [
        "s",
        "model",
        "f_s",
        "tensor_bound",
        "violates",
        "depth",
        "d_A",
        "seed",
        "table",
    ]
    assert result["model"] == "commuting"
    assert result["f_s"] == 1.0
    assert result["tensor_bound"] == analytic_norm(5)
    assert result["violates"] is True
    assert result["d_A"] is None
    table = result["table"]
    assert len(table) == 2 and len(table[0][0]) == 5
    assert table[0][0][0][0] == 0.5
    assert table[0][1][0][0] == 0.0


def test_commuting_s2_does_not_violate(capsys):
    assert main(["steer", "commuting", "--s", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["violates"] is False
    assert doc["result"]["tensor_bound"] == 1.0


def test_seesaw_json(capsys):
    rc = main(
        [
            "steer",
            "seesaw",
            "--s",
            "3",
            "--alice-dim",
            "2",
            "--bob-depth",
            "2",
            "--restarts",
            "2",
        ]
    )
    out, _ = run_lines(capsys)
    assert rc == 0
    doc = json.loads("\n".join(out))
    result = doc["result"]
    assert result["model"] == "tensor"
    assert result["d_A"] == 2
    assert result["seed"] == 0
    assert result["violates"] is False
    assert result["f_s"] <= analytic_norm(3) + 1e-9
    assert doc["config"]["alice_dim"] == 2


def test_seesaw_json_is_deterministic_outside_meta(tmp_path):
    path = tmp_path / "seesaw.json"
    argv = ["steer", "seesaw", "--s", "3", "--alice-dim", "3", "--bob-depth", "3",
            "--restarts", "3", "--seed", "4", "--json", str(path)]
    assert main(argv) == 0
    first = path.read_text()
    assert main(argv) == 0
    second = path.read_text()
    assert first.split('"meta"')[0] == second.split('"meta"')[0]
    diagnostics = json.loads(first)["meta"]["diagnostics"]
    assert diagnostics["stationary"] is True
    restarts = diagnostics["restarts"]
    assert len(restarts) == 3
    assert all(r["iterations"] >= 1 for r in restarts)
    assert max(r["f"] for r in restarts) <= analytic_norm(3)


def test_seesaw_readme_example_runs(capsys):
    rc = main(["steer", "seesaw", "--s", "5", "--alice-dim", "8", "--bob-depth", "5",
               "--restarts", "20"])
    out, _ = run_lines(capsys)
    assert rc == 0
    doc = json.loads("\n".join(out))
    f_s = doc["result"]["f_s"]
    assert f_s <= 0.8
    assert abs(f_s - 0.7312853827454472) <= 1e-15
    assert abs(f_s - radial_bracket(5, 5)[0]) <= 1e-15
    diagnostics = doc["meta"]["diagnostics"]
    assert diagnostics["stationary"] is True
    assert [r["iterations"] for r in diagnostics["restarts"]] == [3] * 20


def test_seesaw_dim_cap_exits_2(capsys):
    # 200 x 49 150 states at s=3, N=14: the Krylov basis estimate, two
    # 100-row parity blocks (7.9 GB), is over the byte budget, so the run
    # stops before allocating it.
    rc = main(
        ["steer", "seesaw", "--s", "3", "--alice-dim", "200", "--bob-depth", "14"]
    )
    _, err = run_lines(capsys)
    assert rc == 2
    assert "Krylov basis" in err


# --- heatvision ---


def test_heatvision_csv_and_json(tmp_path):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    rc = main(
        [
            "heatvision",
            "--s",
            "3",
            "--depth",
            "6",
            "--steps",
            "4",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,purity,bound,ratio"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    doc = json.loads(json_path.read_text())
    result = doc["result"]
    assert list(result) == ["s", "N", "T", "k0", "fstar", "final_purity"]
    assert result["k0"] == 0
    assert result["fstar"] == analytic_norm(3)
    assert result["final_purity"] == float(lines[-1].split(",")[1])
    assert 0.0 < result["final_purity"] < 1.0


def test_heatvision_mixed_initial_state(tmp_path):
    csv_path = tmp_path / "mix.csv"
    json_path = tmp_path / "mix.json"
    rc = main(
        [
            "heatvision",
            "--s",
            "3",
            "--depth",
            "6",
            "--steps",
            "2",
            "--state",
            "g1.g2,e",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["result"]["k0"] == 2
    t0 = csv_path.read_text().splitlines()[1].split(",")
    assert float(t0[1]) == 0.5  # equal mixture of two orthogonal words


def test_heatvision_rejects_bad_state(capsys):
    assert main(["heatvision", "--s", "3", "--depth", "4", "--steps", "1",
                 "--state", "g0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["heatvision", "--s", "2", "--depth", "3", "--steps", "1",
                 "--state", "g1.g2.g1.g2"]) == 1
    assert "is not in the depth-3 basis" in capsys.readouterr().err
    # letters above s are caught by the basis lookup
    assert main(["heatvision", "--s", "2", "--depth", "3", "--steps", "1",
                 "--state", "g3"]) == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--state", "e,g1,"], "cannot parse generator token ''"),
        (["--state", " , "], "cannot parse generator token ''"),
        (["--depth", "-1"], "depth must be ≥ 0"),
    ],
    ids=["trailing-comma", "blank-tokens", "negative-depth"],
)
def test_heatvision_refuses_empty_tokens_and_negative_depth(capsys, extra, message):
    """An empty ``--state`` token is not read as ``e``, and a negative depth
    is refused as such, not as a word outside a "depth--1" basis."""
    argv = ["heatvision", "--s", "3", "--depth", "4", "--steps", "2", *extra]
    assert main(argv) == 1
    out, err = run_lines(capsys)
    assert out == [] and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


# --- config files ---


def test_config_file_sets_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("s = 4\ndepth-max = 3  # sweep ceiling\n\ndepth-min = 2\n")
    json_path = tmp_path / "out.json"
    rc = main(
        ["norm", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
         "--json", str(json_path)]
    )
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["config"]["s"] == 4
    assert doc["config"]["depth_max"] == 3
    assert doc["config"]["depth_min"] == 2
    assert [e["depth"] for e in doc["result"]["estimates"]] == [2, 3]
    rc = main(
        ["norm", "--config", str(cfg), "--s", "2", "--csv",
         str(tmp_path / "o2.csv"), "--json", str(json_path)]
    )
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["config"]["s"] == 2  # explicit flag beats the config file
    assert doc["config"]["depth_max"] == 3


def test_config_file_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 3\n")
    assert main(["norm", "--config", str(bad), "--s", "3",
                 "--depth-max", "2"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    removed = tmp_path / "removed.cfg"
    removed.write_text("chain-samples = 60\n")
    assert main(["report", "--quick", "--config", str(removed)]) == 1
    assert "unknown config key 'chain_samples'" in capsys.readouterr().err
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just some words\n")
    assert main(["norm", "--config", str(malformed), "--s", "3",
                 "--depth-max", "2"]) == 1
    assert "key=value" in capsys.readouterr().err


NORM_ARGV = ["norm", "--depth-max", "2"]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (NORM_ARGV, "s = x\n", "argument --s: invalid int value: 'x'"),
        (["report"], "tolerance-scale = small\n",
         "argument --tolerance-scale: invalid float value: 'small'"),
        (NORM_ARGV, "leaf = 1\n", "unknown config key 'leaf'"),
        (NORM_ARGV, "run = 1\n", "unknown config key 'run'"),
        (NORM_ARGV, "command = 1\n", "unknown config key 'command'"),
    ],
    ids=["int", "float", "leaf", "run", "command"],
)
def test_config_values_are_checked_as_flags_are(tmp_path, capsys, argv, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([*argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_representation_exits_1_alike_from_flag_and_config(tmp_path, capsys):
    """``norm`` has one route, so a representation is refused as a flag and
    as a config key alike, each with one line and before any solve."""
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("representation = sparse\n")
    errs = []
    for extra in (["--representation", "sparse"], ["--config", str(cfg)]):
        assert main(["norm", "--s", "3", "--depth-max", "2", *extra]) == 1
        out, err = run_lines(capsys)
        assert out == []
        errs.append(err)
    assert errs == [
        "steergap: unrecognized arguments: --representation sparse\n",
        "error: unknown config key 'representation'\n",
    ]


NORM_ARGV = ["norm", "--s", "3", "--depth-max", "2"]
SEESAW_ARGV = ["steer", "seesaw", "--s", "3", "--bob-depth", "2", "--restarts", "1"]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (NORM_ARGV, "--tol", "1e-10"),
        (NORM_ARGV, "--max-iter", "200"),
        (NORM_ARGV, "--seed", "0"),
        (SEESAW_ARGV, "--tol", "1e-9"),
        (SEESAW_ARGV, "--max-iter", "5"),
    ],
    ids=["tol", "max-iter", "seed", "seesaw-tol", "seesaw-max-iter"],
)
def test_removed_norm_options_exit_1(tmp_path, capsys, argv, flag, value):
    """The solver options of the deleted Lanczos route are gone from ``norm``,
    and the seesaw's solver settings, now constants, from ``steer seesaw``:
    each is refused as a flag and as a config key, as ``--representation``
    is, with one line and before any solve."""
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    key = flag[2:].replace("-", "_")
    for extra, message in [
        ([flag, value], f"unrecognized arguments: {flag} {value}"),
        (["--config", str(cfg)], f"unknown config key '{key}'"),
    ]:
        assert main([*argv, *extra]) == 1
        out, err = run_lines(capsys)
        assert out == [] and message in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_config_booleans_parse_and_bad_ones_exit_1(tmp_path, capsys):
    cfg = tmp_path / "report.cfg"
    cfg.write_text("quick = maybe\n")
    assert main(["report", "--config", str(cfg)]) == 1
    assert "cannot parse boolean 'maybe'" in capsys.readouterr().err
    cfg.write_text("quick = yes\nseed = 7\n")
    parser = _build_parser()
    args = parser.parse_args(["report", "--config", str(cfg)])
    _apply_config(args, _load_config_file(str(cfg)))
    args = parser.parse_args(["report", "--config", str(cfg)])
    assert (args.quick, args.seed) == (True, 7)


def test_abbreviated_options_exit_1(capsys):
    assert main(["steer", "seesaw", "--s", "5", "--restart", "10"]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --restart 10" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--s", "3", "--depth-max", "2", "--csv", ""],
        ["steer", "commuting", "--s", "3", "--json", "{tmp}/missing/x.json"],
        ["norm", "--s", "3", "--depth-max", "2", "--config", "{tmp}/missing.cfg"],
        ["norm", "--s", "3", "--depth-max", "2", "--config", "{tmp}"],
        ["norm", "--s", "3", "--depth-max", "2", "--config", ""],
    ],
    ids=[
        "csv-empty-name",
        "json-missing-dir",
        "config-missing",
        "config-directory",
        "config-empty-name",
    ],
)
def test_unopenable_files_exit_1(tmp_path, capsys, argv):
    rc = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# --- report ---


def test_quick_report_prints_one_line_per_criterion(capsys):
    rc = main(["report", "--quick"])
    out, err = run_lines(capsys)
    assert rc == 3
    assert len(out) == 9
    statuses = {}
    for line in out:
        m = CRITERION_LINE.match(line)
        assert m, line
        statuses[int(m.group(2))] = m.group(1)
    assert sorted(statuses) == list(range(1, 10))
    assert [n for n, st in statuses.items() if st == "FAIL"] == [2]
    assert "failing criteria: 2" in err


def test_quick_report_json_document(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    rc = main(["report", "--quick", "--json", str(json_path)])
    capsys.readouterr()
    assert rc == 3
    doc = json.loads(json_path.read_text())
    criteria = doc["result"]["criteria"]
    assert [c["number"] for c in criteria] == list(range(1, 10))
    assert all(set(c) == {"number", "title", "passed", "details"} for c in criteria)
    assert doc["result"]["failing"] == [2]
    assert doc["result"]["all_passed"] is False
    assert doc["config"]["quick"] is True


def test_quick_report_json_is_deterministic_outside_meta(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["report", "--quick", "--seed", "7", "--json", str(path)]
    assert main(argv) == 3
    first = path.read_text()
    assert main(argv) == 3
    second = path.read_text()
    capsys.readouterr()
    assert list(json.loads(first)) == ["config", "result", "meta"]
    assert first.split('"meta"')[0] == second.split('"meta"')[0]


def test_zero_chain_samples_pass_criterion_3():
    settings = ReportSettings.quick()
    settings.chain_samples = 0
    assert criterion_bound_chain(settings).line() == (
        "[PASS] criterion 3: first-letter bound chain — "
        "0 samples, 0 violations, minimum slack inf"
    )


def test_conjugation_draws_refused_below_zero():
    """Criterion 7 refuses a negative draw count before drawing, as criteria
    3 and 9 refuse theirs; zero draws check nothing and pass.  A report
    with a negative sample count or no seesaw restart is refused, not
    passed."""
    settings = ReportSettings.quick()
    settings.conjugation_draws = -1
    with pytest.raises(ValueError, match="conjugation_draws must be ≥ 0, got -1"):
        criterion_conjugation(settings)
    settings.conjugation_draws = 0
    result = criterion_conjugation(settings)
    assert result.passed
    assert "over 0 draws" in result.details
    for field, value, message in [
        ("chain_samples", -1, "chain_samples must be ≥ 0, got -1"),
        ("table_samples", -1, "table_samples must be ≥ 0, got -1"),
        ("seesaw_restarts", 0, "restarts must be ≥ 1"),
    ]:
        settings = ReportSettings.quick()
        setattr(settings, field, value)
        with pytest.raises(ValueError, match=message):
            run_report(settings)


def test_norm_sweep_runs_no_lanczos(monkeypatch):
    """Criterion 1 brackets the radial value instead, at both profiles."""

    def refuse(*args, **kwargs):
        raise AssertionError("_top_state called")

    monkeypatch.setattr(spectral, "_top_state", refuse)
    for settings, gap in [
        (ReportSettings.quick(), "worst final gap 0.036011 (allowed 0.060000)"),
        (ReportSettings(), "worst final gap 0.014858 (allowed 0.030000)"),
    ]:
        result = criterion_norm_sweep(settings)
        assert result.passed and result.details == gap


@pytest.mark.parametrize("vector", ["theta off by 1e-6", "uniform"])
def test_norm_sweep_bracket_catches_a_wrong_vector(monkeypatch, vector):
    """A vector off the radial eigenvector keeps lambda_N inside its
    Collatz-Wielandt bracket, which holds for any positive vector, but
    leaves the bracket wide: only its width shows the fault."""
    if vector == "uniform":
        root = spectral._radial_root
        monkeypatch.setattr(
            spectral, "_radial_root", lambda s, n: (root(s, n)[0], np.ones(n + 1))
        )
    else:
        secular = spectral.radial_secular
        monkeypatch.setattr(
            spectral, "radial_secular", lambda s, n, t: secular(s, n, t / (1 + 1e-6))
        )
    result = criterion_norm_sweep(ReportSettings.quick())
    assert not result.passed
    assert "not certified by its Collatz-Wielandt bracket" in result.details


def test_norm_sweep_brackets_the_radial_depths(monkeypatch):
    """Past ``RADIAL_THRESHOLD`` criterion 1 checks the bracket on T_N: with
    every ball over the threshold it passes as before, and a vector off the
    radial eigenvector fails it."""
    monkeypatch.setattr(spectral, "RADIAL_THRESHOLD", 0)
    result = criterion_norm_sweep(ReportSettings.quick())
    assert result.passed
    assert result.details == "worst final gap 0.036011 (allowed 0.060000)"
    root = spectral._radial_root
    monkeypatch.setattr(
        spectral, "_radial_root", lambda s, n: (root(s, n)[0], np.ones(n + 1))
    )
    result = criterion_norm_sweep(ReportSettings.quick())
    assert not result.passed
    assert "not certified by its Collatz-Wielandt bracket" in result.details


def test_norm_sweep_checks_the_lower_envelope(monkeypatch):
    """A value at or below f* cos(pi/(N+2)) fails, even inside its bracket."""
    settings = ReportSettings.quick()
    passing = criterion_norm_sweep(settings).details
    envelope = analytic_norm(3) * math.cos(math.pi / 5)
    certify = report._certified

    def low_at_3_3(params, n):
        if (params.s, n) == (3, 3):
            return envelope, envelope, envelope, "sparse"
        return certify(params, n)

    monkeypatch.setattr(report, "_certified", low_at_3_3)
    result = criterion_norm_sweep(settings)
    assert not result.passed
    assert result.details == (
        f"{passing}; s=3: N=3 value {envelope!r} not above the envelope {envelope!r}"
    )


def test_norm_sweep_refuses_a_depth_below_one():
    settings = ReportSettings.quick()
    settings.norm_depth_max = 0
    for run in (criterion_norm_sweep, run_report):
        with pytest.raises(ValueError, match="norm_depth_max must be ≥ 1, got 0"):
            run(settings)


def test_zero_tolerance_negative_control(capsys):
    """Collapsing every tolerance to zero must flip several criteria to FAIL,
    which shows the tolerances are actually consulted."""
    rc = main(["report", "--quick", "--tolerance-scale", "0"])
    out, _ = run_lines(capsys)
    assert rc == 3
    fails = [line for line in out if line.startswith("[FAIL]")]
    assert len(fails) >= 4


REPO = Path(__file__).resolve().parents[1]


def run_child(*args, extra_path=()):
    # The child must import the package under test, installed or not.
    src = str(Path(steergap.__file__).resolve().parents[1])
    path = os.pathsep.join(
        filter(None, [src, *extra_path, os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = run_child("-m", "steergap", "--version")
    assert proc.returncode == 0
    assert steergap.__version__ in proc.stdout


STARTUP_PROBE = """
import json, sys
from steergap import cli

codes = [
    cli.main(["heatvision", "--s", "3", "--depth", "6", "--steps", "5"]),
    cli.main(["steer", "commuting", "--s", "3"]),
    cli.main(["norm", "--s", "3", "--depth-max", "3"]),
    cli.main(["norm", "--s", "3", "--depth-min", "17", "--depth-max", "17"]),
    cli.main(["steer", "seesaw", "--s", "3", "--alice-dim", "2", "--bob-depth", "3"]),
    cli.main(["report", "--quick"]),
]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_no_command_loads_scipy():
    """The package runs on numpy alone: no command imports any scipy module.

    This process already holds scipy, so the check runs in a child."""
    proc = run_child("-c", STARTUP_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0, 0, 0, 3]
    assert probe["scipy"] == []


IMPORT_PROBE = """
import sys
from steergap import cli

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --version exits through argparse
    code = exc.code
modules = sorted(sys.modules)
import json

print(json.dumps({"code": code, "modules": modules}))
"""

#: Standard-library modules that a CSV-only run of a light command does not
#: use: json and datetime serve the JSON writer, and no module on that path
#: needs dataclasses (with the inspect it imports) or fractions.
IDLE_STDLIB = ["dataclasses", "inspect", "json", "datetime", "fractions"]


@pytest.fixture(scope="module")
def bare_modules():
    """Modules that a bare interpreter child has loaded before any import,
    such as what ``site`` and its ``.pth`` files preload."""
    proc = run_child("-c", "import sys; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv, code, absent",
    [
        (["--version"], 0, ["numpy", *IDLE_STDLIB]),
        (
            ["heatvision", "--s", "3", "--depth", "6", "--steps", "5"],
            0,
            [
                "steergap.report",
                "steergap.steering",
                "steergap.spectral",
                "steergap.hilbert",
                "numpy",
                *IDLE_STDLIB,
            ],
        ),
        (
            ["heatvision", "--s", "3", "--depth", "6", "--steps", "5", "--state",
             "e,g1"],
            0,
            ["steergap.spectral", "steergap.hilbert", "numpy", *IDLE_STDLIB],
        ),
        (["report", "--tolerance-scale", "nan"], 1, ["steergap.report", "numpy"]),
        (["report", "--quick"], 3, ["fractions", "decimal"]),
    ],
    ids=[
        "version",
        "heatvision",
        "heatvision-mixture",
        "report-tolerance-scale",
        "report-quick",
    ],
)
def test_command_imports_only_what_it_runs(bare_modules, argv, code, absent):
    """Each command loads only its own layers and the standard library it
    uses; a module that the bare interpreter already holds is not counted.
    A bad report tolerance scale is refused before the report layer is even
    imported, so no criterion runs first."""
    proc = run_child("-c", IMPORT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == code
    loaded = set(probe["modules"]) - bare_modules
    assert [m for m in absent if m in loaded] == []


ALL_PROBE = """
import steergap

names = steergap.__all__
resolved = {name: getattr(steergap, name) for name in names}
star = {}
exec("from steergap import *", star)
from steergap import spectral
print(sorted(set(names) - set(dir(steergap))))
print(sorted(n for n in names if star.get(n, star) is not resolved[n]))
print(spectral is steergap.spectral, hasattr(steergap, "no_such_name"))
"""


def test_every_public_name_resolves_lazily():
    proc = run_child("-c", ALL_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "True False"]


def test_benchmark_tracer_finds_every_function_it_wraps():
    """perfbench's tracer raises TracerError when a function it wraps is gone."""
    proc = run_child(
        "-c", "import tracer; tracer.install('t')", extra_path=[str(REPO / "perfbench")]
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_traced_child_runs(tmp_path):
    """The benchmark's traced child wraps layer functions that the command
    handlers import only when they run."""
    record = tmp_path / "rec.json"
    proc = run_child(
        str(REPO / "perfbench" / "launch.py"),
        str(record),
        "1",
        "t",
        *["heatvision", "--s", "3", "--depth", "4", "--steps", "3"],
        extra_path=[str(REPO / "perfbench")],
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(record.read_text())["trace"]["spans"]
    assert "heatvision.iterate_channel" in {span[0] for span in spans}


def test_benchmark_traced_seesaw_child_runs(tmp_path):
    """The tracer binds the seesaw's arguments to read ``tol``, so a
    signature that loses that keyword fails this run, as it would the
    benchmark's traced report."""
    record = tmp_path / "rec.json"
    proc = run_child(
        str(REPO / "perfbench" / "launch.py"),
        str(record),
        "1",
        "t",
        *["steer", "seesaw", "--s", "3", "--alice-dim", "2", "--bob-depth", "3",
          "--restarts", "2", "--json", str(tmp_path / "out.json")],
        extra_path=[str(REPO / "perfbench")],
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(record.read_text())["trace"]
    assert "steering.seesaw_tensor_optimize" in {span[0] for span in trace["spans"]}
    assert trace["counters"]["steering.seesaw_restarts"] == 2


# --- README ---


def test_readme_commands_parse():
    """Every steergap line in the README's sh blocks parses and sets its
    command's required options, so a renamed option cannot leave it stale."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("steergap ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        missing = [
            opt
            for opt in args.leaf.required_options
            if getattr(args, opt.lstrip("-").replace("-", "_")) is None
        ]
        assert not missing, (line, missing)
