import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import steergap
from steergap import GroupParams, estimate_norm, seesaw_tensor_optimize
from steergap.cli import main
from steergap.heatvision import MAX_STEPS
from steergap.report import (
    ReportSettings,
    criterion_bound_chain,
    criterion_conjugation,
    run_report,
)
from steergap.spectral import analytic_norm

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
    assert lines[0] == "N,estimate,analytic_bound,gap,iterations"
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
        n, est, bound, gap, iters = line.split(",")
        assert int(n) == entry["depth"]
        assert float(est) == entry["estimate"]
        assert float(bound) == analytic_norm(3)
        assert float(gap) == entry["gap"]
    assert doc["result"]["final_estimate"] == estimates[-1]["estimate"]
    assert doc["result"]["final_gap"] == estimates[-1]["gap"]
    assert "method" not in doc["result"]


def test_norm_defaults_to_stdout(capsys):
    rc = main(["norm", "--s", "2", "--depth-max", "2"])
    out, _ = run_lines(capsys)
    assert rc == 0
    assert out[0] == "N,estimate,analytic_bound,gap,iterations"
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
    # T_N has N + 1 = 201 points, more than the 200-vector Lanczos budget.
    rc = main(["norm", "--s", "3", "--depth-min", "200", "--depth-max", "200",
               "--representation", "radial"])
    out, _ = run_lines(capsys)
    assert rc == 0
    n, _, _, gap, iters = out[1].split(",")
    assert (int(n), int(iters)) == (200, 201)
    assert float(gap) > 0.0


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
    rc = main(
        [
            "norm",
            "--s",
            "3",
            "--depth-max",
            "21",
            "--depth-min",
            "21",
            "--representation",
            "sparse",
        ]
    )
    _, err = run_lines(capsys)
    assert rc == 2
    assert "error:" in err


def test_capacity_exhaustion_at_huge_depth_exits_2(capsys):
    # The depth-20000 ball has about 9500 digits, too many to format as an int.
    rc = main(
        [
            "norm",
            "--s",
            "3",
            "--depth-min",
            "20000",
            "--depth-max",
            "20000",
            "--representation",
            "sparse",
        ]
    )
    _, err = run_lines(capsys)
    assert rc == 2
    assert "exceeds cap" in err


def test_sparse_norm_over_the_word_cap_exits_2_before_allocating(capsys):
    # The depth-20 ball at s=3 holds 3 145 726 words, over the 2M word cap.
    tracemalloc.start()
    try:
        rc = main(
            [
                "norm",
                "--s",
                "3",
                "--depth-min",
                "20",
                "--depth-max",
                "20",
                "--representation",
                "sparse",
            ]
        )
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
    but a mixture runs on the shell masses and its words' hull, with no ball."""
    csv_path = tmp_path / "mix.csv"
    rc = main(["heatvision", "--s", "3", "--depth", "20", "--steps", "9",
               "--state", "e,g1", "--csv", str(csv_path)])
    assert rc == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(10))
    for row, exact in zip(rows, exact_mixture_purities(3, "e,g1", 9)):
        assert abs(float(row[1]) - float(exact)) <= 1e-15 * float(exact)


def test_heatvision_list_work_exits_2(capsys):
    """The mixture of e and g1 takes 4 (t + 1) list passes at step t, so up
    to 6419 steps fit in the list work of the root run's 12 841, and 6420
    are refused with exit 2 before any step."""
    start = time.perf_counter()
    rc = main(["heatvision", "--s", "2", "--depth", "6421", "--steps", "6420",
               "--state", "e,g1"])
    elapsed = time.perf_counter() - start
    _, err = run_lines(capsys)
    assert rc == 2
    assert "list work over 6420 steps, more than 12841 steps from e take" in err
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
        ["steer", "seesaw", "--s", "3", "--max-iter", "0"],
        ["norm", "--s", "3", "--depth-max", "3", "--representation", "sparse",
         "--max-iter", "0"],
        ["norm", "--s", "3", "--depth-max", "3", "--representation", "radial",
         "--max-iter", "0"],
        ["heatvision", "--s", "3", "--depth", "3", "--steps", "-1"],
    ],
    ids=["seesaw-restarts", "seesaw-max-iter", "norm-max-iter",
         "norm-radial-max-iter", "heatvision-steps"],
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
        ["norm", "--s", "3", "--depth-max", "12", "--tol", "nan"],
        ["norm", "--s", "3", "--depth-max", "12", "--tol", "-1"],
        ["steer", "seesaw", "--s", "3", "--tol", "nan"],
        ["steer", "seesaw", "--s", "3", "--tol", "-1"],
    ],
    ids=["report-scale-nan", "report-scale-inf", "report-scale-negative",
         "norm-tol-nan", "norm-tol-negative", "seesaw-tol-nan",
         "seesaw-tol-negative"],
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
    tolerance; ``run_report`` refuses a NaN scale as the command line does."""
    settings = ReportSettings.quick()
    settings.tolerance_scale = 0.0
    assert [r.number for r in run_report(settings) if not r.passed]
    for route in ("sparse", "radial"):
        assert estimate_norm(GroupParams(3), 3, tol=0.0, representation=route).gap > 0
    seesaw_tensor_optimize(GroupParams(3), 2, 2, restarts=1, max_iter=2, tol=0.0)
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
    assert json.loads("\n".join(out))["result"]["f_s"] <= 0.8


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


# --- config files ---


def test_config_file_sets_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("s = 4\ndepth-max = 3  # sweep ceiling\n\ntol = 1e-8\n")
    json_path = tmp_path / "out.json"
    rc = main(
        ["norm", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
         "--json", str(json_path)]
    )
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["config"]["s"] == 4
    assert doc["config"]["depth_max"] == 3
    assert doc["config"]["tol"] == 1e-8
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
    cli.main(["norm", "--s", "3", "--depth-max", "3", "--representation", "radial"]),
    cli.main(["norm", "--s", "3", "--depth-max", "3", "--representation", "sparse"]),
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


@pytest.mark.parametrize(
    "script, args",
    [
        ("norm_convergence.py", ["--s", "3", "--depth-max", "4", "--out-dir", "{tmp}"]),
        ("purity_decay.py", ["--s", "3", "--steps", "3"]),
        ("separation_demo.py",
         ["--s", "3", "--alice-dim", "2", "--bob-depth", "3", "--restarts", "2"]),
    ],
    ids=["norm_convergence", "purity_decay", "separation_demo"],
)
def test_script_runs(tmp_path, script, args):
    args = [a.format(tmp=tmp_path) for a in args]
    proc = run_child(str(REPO / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
