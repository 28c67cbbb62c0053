"""Benchmark of the steergap command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the workload is a fresh child process, and runs go one at a
time: a closed loop with one client, which is how this batch tool is used.
Runs repeat until the next one would end after S seconds (two runs at
least, so that a slow workload still reports a median of two; a traced
invocation makes one untraced and two traced runs at least).
Every run's output is checked against the oracles in ``workloads.py``.
Between runs this process times the fixed reference in ``hostspeed.py``,
which follows the speed the shared host gives it.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``wall_rel`` (median over runs of the child's wall
time, spawn to exit, divided by the reference time beside it), ``setup_s``
(median time from spawn until ``steergap.cli.main`` is entered, pooled with
a few ``--version`` runs) and ``peak_rss_mb`` (median maximum RSS from the
child's rusage). With ``--trace 1`` it holds the per-layer metrics of the
traced runs instead (see ``tracer.py``). A full record, with the machine
details and the ``src/`` line count, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from hostspeed import reference_passes
from tracer import EXACT_COUNTS, covered_seconds, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "steergap"
OUT = HERE / "out"
LAUNCH = HERE / "launch.py"

NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 5
#: Every child must end this long after the invocation started, so that the
#: whole invocation stays inside its 180 s limit.
CHILD_DEADLINE_S = 165.0
#: Between child runs the host-speed reference runs for this share of the
#: last run's wall time, so a long run gets as many reference passes beside
#: it, in proportion, as a short one.
REFERENCE_SHARE = 0.2
FIRST_REFERENCE_S = 0.3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    traced: bool
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    exit_code: int
    problems: list[str]
    trace: dict | None = None
    reference_s: float | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in BLAS_THREAD_VARS:
        env[var] = str(NPROC)
    return env


def _alarm(signum, frame):
    raise TimeoutError("child run passed the benchmark's deadline")


def _terminate(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    sys.exit(128 + signum)


def spawn(argv, *, traced, run_id, scratch, deadline, expected_exit, check=None) -> Sample:
    """Run one child to completion and check its exit code and outputs."""
    for stale in scratch.iterdir():
        stale.unlink()
    record = scratch / "record.json"
    stderr = scratch / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(scratch / "stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    args = [sys.executable, str(LAUNCH), str(record), str(int(traced)), run_id, *argv]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, child_env(), file_actions=actions)
    reaped = False
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    exit_code = os.waitstatus_to_exitcode(status)
    sample = Sample(
        traced=traced,
        wall_s=end - start,
        setup_s=None,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        exit_code=exit_code,
        problems=[],
    )
    if exit_code != expected_exit:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-5:]
        sample.problems.append(
            f"{run_id}: exit code {exit_code}, expected {expected_exit}: " + " | ".join(tail)
        )
        return sample
    data = json.loads(record.read_text())
    sample.setup_s = data["main_entered"] - start
    sample.trace = data.get("trace")
    if check is not None:
        try:
            sample.problems.extend(check(scratch))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample.problems.append(f"{run_id}: output unreadable: {exc!r}")
    return sample


def measure(workload, seed: int, seconds: float, trace: bool):
    """Probes, then runs until the window is used; returns (probes, runs)."""
    started = time.monotonic()
    window_end = started + seconds
    deadline = started + CHILD_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    probes: list[Sample] = []
    runs: list[Sample] = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        if not trace:
            for i in range(SETUP_PROBES):
                probes.append(
                    spawn(["--version"], traced=False, run_id=f"probe-{i}",
                          scratch=scratch, deadline=deadline, expected_exit=0)
                )
        # A traced invocation needs one untraced run for the overhead and
        # two traced runs to confirm that the counts repeat.
        kinds = itertools.cycle((False, True, True) if trace else (False,))
        minimum = 3 if trace else 2
        reference_passes(workload.reference, 0.0)  # warm-up: first-call costs are not host speed
        before = reference_passes(workload.reference, FIRST_REFERENCE_S)
        for i, traced in enumerate(kinds):
            if i >= minimum:
                next_end = time.monotonic() + runs[-1].wall_s * (1 + REFERENCE_SHARE)
                if next_end > window_end:
                    break
            run_id = f"{workload.name}-seed{seed}-{i}"
            try:
                runs.append(
                    spawn(workload.argv(seed, scratch), traced=traced, run_id=run_id,
                          scratch=scratch, deadline=deadline,
                          expected_exit=workload.expected_exit, check=workload.check)
                )
            except TimeoutError as exc:
                runs.append(Sample(traced, 0.0, None, 0.0, 0.0, -1, [f"{run_id}: {exc}"]))
            after = reference_passes(workload.reference, REFERENCE_SHARE * runs[-1].wall_s)
            runs[-1].reference_s = statistics.fmean(before + after)
            before = after
            if runs[-1].problems:
                break
    return probes, runs


def unit_of(name: str) -> str:
    if name.endswith("_frac") or name == "trace.coverage":
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes_computed"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_rel"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def end_to_end(probes, runs) -> dict[str, float]:
    return {
        "wall_rel": statistics.median(r.wall_s / r.reference_s for r in runs),
        "setup_s": statistics.median(p.setup_s for p in probes + runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }


def _median(values):
    """Median; a count stays a count that one of the runs reported."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(runs) -> tuple[dict[str, float], list[str]]:
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    layers = [layer_metrics(r.trace) for r in traced]
    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    problems = [
        f"count {name} differs between traced runs: {[m[name] for m in layers]}"
        for name in EXACT_COUNTS
        if len({m[name] for m in layers}) != 1
    ]
    metrics["proc.wall_s"] = statistics.median(r.wall_s for r in plain)
    metrics["proc.cpu_s"] = statistics.median(r.cpu_s for r in plain)
    metrics["host.reference_s"] = statistics.median(r.reference_s for r in runs)
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain
    )
    metrics["trace.coverage"] = statistics.median(
        covered_seconds(r.trace["spans"]) / (r.wall_s - r.setup_s) for r in traced
    )
    return metrics, problems


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "mem_total_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_cap": NPROC,
    }


def src_lines() -> int:
    """``wc -l src/steergap/*.py``: recorded for simplicity work, not gated."""
    return sum(p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: steergap sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    probes, runs = measure(workload, args.seed, args.seconds, bool(args.trace))
    problems = [p for s in probes + runs for p in s.problems]
    failed = sum(1 for r in runs if r.problems)
    if not problems:
        if args.trace:
            metrics, count_problems = per_layer(runs)
            problems += count_problems
            failed += bool(count_problems)
        else:
            metrics = end_to_end(probes, runs)
    else:
        metrics = {}
    for problem in problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "src_lines": src_lines(),
        "failed_frac": failed / len(runs),
        "result": result,
        "probes": [asdict(p) for p in probes],
        "runs": [asdict(r) for r in runs],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
