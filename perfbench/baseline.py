"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME ...] [--out FILE]

For each workload this runs ``run.py`` untraced once per seed and traced at
the first two seeds, with the ``run_seconds`` of ``BENCHMARK.json``. For each
end-to-end metric it reports the median of the per-seed values and the
spread (third minus first quartile, as ``statistics.quantiles(n=4)`` gives
them) as a share of the median, beside the metric's bound. The summary,
with the machine and the ``src/`` line count, is written as JSON to
``--out`` (default ``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, machine, src_lines
from workloads import WORKLOADS

TRACED_SEEDS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    runs: dict[str, list[dict]] = {name: [] for name in names}
    # Seed-major order spreads any drift of the machine over all workloads.
    for seed in seeds:
        for name in names:
            runs[name].append(bench(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {runs[name][-1]['metrics']}", file=sys.stderr)
    summary = {"machine": machine(), "src_lines": src_lines(), "run_seconds": seconds,
               "seeds": seeds, "workloads": {}}
    for name in names:
        entry = {
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in runs[name]])
            entry["end_to_end"][metric] = {**stats, "bound": bound}
            print(f"{name:12s} {metric:12s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.4f} bound {bound}")
        for seed in seeds[:TRACED_SEEDS]:
            traced = bench(name, seed, seconds, 1)
            entry["per_layer"][str(seed)] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
