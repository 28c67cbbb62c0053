"""The benchmark's workloads and the oracles that check their outputs.

The oracles are computed here from the definitions, independently of both
the package and the test suite's oracles in ``tests/util.py``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy.linalg import eigh_tridiagonal

from hostspeed import dense_seconds, mixed_seconds

NORM_S, NORM_DEPTH = 3, 16
HEAT_S, HEAT_DEPTH, HEAT_STEPS = 3, 10, 9


def fstar(s: int) -> float:
    return 2.0 * math.sqrt(s - 1.0) / s


def radial_top_eigenvalue(s: int, depth: int) -> float:
    """Top eigenvalue of the (depth+1)-point radial tridiagonal.

    Zero diagonal; the off-diagonal couples the root to shell 1 with
    1/sqrt(s) and every deeper pair of shells with sqrt(s-1)/s.
    """
    off = [1.0 / math.sqrt(s)] + [math.sqrt(s - 1.0) / s] * (depth - 1)
    values = eigh_tridiagonal(
        [0.0] * (depth + 1), off, eigvals_only=True, select="i", select_range=(depth, depth)
    )
    return float(values[0])


def lazy_walk_purity(s: int, steps: int) -> list[float]:
    """Purity sum_k m_k(t)^2 / |shell k| of the channel started at |e>.

    m is the lazy walk on the distance from the root: stay 1/2, move down
    1/(2s), move up (s-1)/(2s); from the root move up 1/2.
    """
    shells = [1] + [s * (s - 1) ** (k - 1) for k in range(1, steps + 1)]
    mass = [1.0] + [0.0] * steps
    series = [1.0]
    for t in range(1, steps + 1):
        nxt = [0.5 * m for m in mass]
        nxt[1] += 0.5 * mass[0]
        for k in range(1, t):
            nxt[k - 1] += mass[k] / (2 * s)
            nxt[k + 1] += mass[k] * (s - 1) / (2 * s)
        mass = nxt
        series.append(sum(m * m / n for m, n in zip(mass, shells)))
    return series


def check_norm(out: Path) -> list[str]:
    estimates = json.loads((out / "norm.json").read_text())["result"]["estimates"]
    problems = []
    if [e["depth"] for e in estimates] != list(range(1, NORM_DEPTH + 1)):
        problems.append("norm: estimates do not cover depths 1..16")
    bound = fstar(NORM_S)
    for e in estimates:
        exact = radial_top_eigenvalue(NORM_S, e["depth"])
        if not abs(e["estimate"] - exact) <= 1e-9:
            problems.append(f"norm: depth {e['depth']} estimate {e['estimate']!r} != {exact!r}")
        if not e["estimate"] <= bound:
            problems.append(f"norm: depth {e['depth']} estimate exceeds f*(3)")
    return problems


def check_heat(out: Path) -> list[str]:
    with open(out / "heat.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    oracle = lazy_walk_purity(HEAT_S, HEAT_STEPS)
    if [int(r["t"]) for r in rows] != list(range(HEAT_STEPS + 1)):
        return ["heatvision: rows do not cover t = 0..9"]
    problems = []
    for r, exact in zip(rows, oracle):
        purity, bound = float(r["purity"]), float(r["bound"])
        if not abs(purity - exact) <= 1e-12:
            problems.append(f"heatvision: t={r['t']} purity {purity!r} != {exact!r}")
        if not purity <= bound:
            problems.append(f"heatvision: t={r['t']} purity above its bound")
    return problems


def check_report(out: Path) -> list[str]:
    # Criterion 2 is the documented known failure, so exit code 3 with
    # failing == [2] is the expected outcome of the reference report.
    failing = json.loads((out / "report.json").read_text())["result"]["failing"]
    return [] if failing == [2] else [f"report: failing criteria {failing}, expected [2]"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]
    expected_exit: int
    check: Callable[[Path], list[str]]
    #: Host-speed reference timed beside each run (see ``hostspeed.py``).
    reference: Callable[[], float] = mixed_seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "norm_s3_d16",
            lambda seed, out: [
                "norm", "--s", str(NORM_S), "--depth-max", str(NORM_DEPTH),
                "--representation", "sparse", "--seed", str(seed),
                "--csv", str(out / "norm.csv"), "--json", str(out / "norm.json"),
            ],
            0,
            check_norm,
        ),
        Workload(
            "heat_s3_d10",
            lambda seed, out: [
                "heatvision", "--s", str(HEAT_S), "--depth", str(HEAT_DEPTH),
                "--steps", str(HEAT_STEPS), "--state", "e", "--csv", str(out / "heat.csv"),
            ],
            0,
            check_heat,
            dense_seconds,
        ),
        Workload(
            "report_ref",
            lambda seed, out: ["report", "--seed", str(seed), "--json", str(out / "report.json")],
            3,
            check_report,
        ),
        Workload(
            "report_quick",
            lambda seed, out: [
                "report", "--quick", "--seed", str(seed), "--json", str(out / "report.json"),
            ],
            3,
            check_report,
        ),
    )
}
