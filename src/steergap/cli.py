"""Batch command-line front end.

One subcommand per experiment: ``norm`` (depth sweep of the compressed
norm lambda_N, each with its Collatz-Wielandt bracket), ``steer
commuting`` (on the depth-2 ball) / ``steer seesaw`` (strategy
evaluation), ``heatvision`` (channel purity run), and ``report`` (the full
reproduction pipeline; its profile, seed and tolerance scale are its only
options).  Configuration comes from flags, spelled in full,
optionally seeded from a key=value config file that explicit flags
override; argparse converts a file value as it does the flag's.

Exit codes: 0 success, 1 invalid configuration (including a named file
that cannot be opened), 2 resource or convergence failure (including running
out of memory), 3 report criteria failed.

Each command imports the layers it runs inside its handler, so ``--version``
loads no numpy and ``heatvision``, from any state, loads no spectral,
steering or report code, no numpy and no word basis.  The standard library
is loaded the same way: ``json`` and ``datetime`` only when a JSON document
is written, and ``dataclasses``, with the ``inspect`` it imports, only in
the numeric layers, where numpy imports ``inspect`` anyway.  So
``--version`` and a CSV-only ``heatvision`` add to what the interpreter
loads at start-up only this package, argparse with what it imports, and csv.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import BufferExhaustedError, CapacityError, ConvergenceError
from .freegroup import GroupParams, analytic_norm, word_from_str
from .serialize import csv_text, json_dumps, run_meta, write_text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit(2),
    and takes options only spelled in full.  A leaf command's parser lists
    the options that a flag or its config file must supply."""

    required_options: tuple[str, ...] = ()

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="steergap", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="depth sweep of the norm estimate")
    norm.add_argument("--s", type=int)
    norm.add_argument("--depth-max", type=int)
    norm.required_options = ("--s", "--depth-max")
    norm.add_argument("--depth-min", type=int, default=1)
    norm.add_argument("--csv", default="-", help="CSV path, '-' for stdout")
    norm.add_argument("--json", default=None, help="JSON path, '-' for stdout")
    norm.add_argument("--config", default=None, help="key=value defaults file")
    norm.set_defaults(run=_cmd_norm, leaf=norm)

    steer = sub.add_parser("steer", help="evaluate steering strategies")
    steer_sub = steer.add_subparsers(dest="strategy", required=True)

    commuting = steer_sub.add_parser(
        "commuting", help="the exact commuting-shift strategy"
    )
    commuting.add_argument("--s", type=int)
    commuting.required_options = ("--s",)
    commuting.add_argument("--json", default="-")
    commuting.add_argument("--config", default=None)
    commuting.set_defaults(run=_cmd_steer_commuting, leaf=commuting)

    seesaw = steer_sub.add_parser(
        "seesaw", help="alternating optimization over tensor strategies"
    )
    seesaw.add_argument("--s", type=int)
    seesaw.required_options = ("--s",)
    seesaw.add_argument("--alice-dim", type=int, default=8)
    seesaw.add_argument("--bob-depth", type=int, default=5)
    seesaw.add_argument("--restarts", type=int, default=20)
    seesaw.add_argument("--seed", type=int, default=0)
    seesaw.add_argument("--json", default="-")
    seesaw.add_argument("--config", default=None)
    seesaw.set_defaults(run=_cmd_steer_seesaw, leaf=seesaw)

    heat = sub.add_parser("heatvision", help="iterated-channel purity run")
    heat.add_argument("--s", type=int)
    heat.add_argument("--depth", type=int)
    heat.add_argument("--steps", type=int)
    heat.required_options = ("--s", "--depth", "--steps")
    heat.add_argument(
        "--state",
        default="e",
        help="comma-separated serialized words mixed uniformly (default 'e')",
    )
    heat.add_argument("--csv", default="-")
    heat.add_argument("--json", default=None)
    heat.add_argument("--config", default=None)
    heat.set_defaults(run=_cmd_heatvision, leaf=heat)

    report = sub.add_parser("report", help="run the full reproduction report")
    report.add_argument("--quick", action="store_true", help="smoke-test profile")
    report.add_argument("--tolerance-scale", type=float, default=1.0)
    report.add_argument("--seed", type=int, default=None)
    report.add_argument("--json", default=None)
    report.add_argument("--config", default=None)
    report.set_defaults(run=_cmd_report, leaf=report)

    return parser


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _apply_config(args: argparse.Namespace, entries: dict[str, str]) -> None:
    """Install config-file values as defaults of the command's parser.

    Keys must name an option of the command, as the first parse shows them.
    A store_true value goes through ``_parse_bool``; every other value stays
    a string, which the second parse converts with the option's own type, as
    it does a flag.  Explicit flags still win.
    """
    options = vars(args).keys() - {"run", "leaf", "command", "strategy"}
    defaults = {}
    for key, value in entries.items():
        if key not in options:
            raise ValueError(f"unknown config key {key!r}")
        defaults[key] = (
            _parse_bool(value) if isinstance(getattr(args, key), bool) else value
        )
    args.leaf.set_defaults(**defaults)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"run", "leaf", "config", "command", "strategy"}
    return {
        "command": args.leaf.prog.split(" ", 1)[1],
        **{k: v for k, v in sorted(vars(args).items()) if k not in skip},
    }


def _document(args: argparse.Namespace, result: dict, **extra_meta) -> str:
    meta = {**run_meta(__version__), **extra_meta}
    return json_dumps({"config": _config_echo(args), "result": result, "meta": meta})


def _cmd_norm(args) -> int:
    from .spectral import norm_sweep

    sweep = norm_sweep(GroupParams(args.s), args.depth_max, depth_min=args.depth_min)
    rows = [
        (r.depth, r.estimated_norm, r.analytic_bound, r.gap, r.lower, r.upper)
        for r in sweep
    ]
    header = ["N", "estimate", "analytic_bound", "gap", "lower", "upper"]
    write_text(csv_text(header, rows), args.csv)
    if args.json is not None:
        result = {
            "s": args.s,
            "analytic_bound": analytic_norm(args.s),
            "final_estimate": sweep[-1].estimated_norm,
            "final_gap": sweep[-1].gap,
            "estimates": [
                {
                    "depth": r.depth,
                    "estimate": r.estimated_norm,
                    "gap": r.gap,
                    "lower": r.lower,
                    "upper": r.upper,
                    "representation": r.representation,
                }
                for r in sweep
            ],
        }
        write_text(_document(args, result), args.json)
    return 0


def _cmd_steer_commuting(args) -> int:
    from .steering import commuting_strategy_result

    result = commuting_strategy_result(GroupParams(args.s))
    write_text(_document(args, result.to_json_dict()), args.json)
    return 0


def _cmd_steer_seesaw(args) -> int:
    from .steering import seesaw_tensor_optimize

    result = seesaw_tensor_optimize(
        GroupParams(args.s),
        args.alice_dim,
        args.bob_depth,
        restarts=args.restarts,
        seed=args.seed,
    )
    restarts = [{"f": h[-1], "iterations": len(h)} for h in result.restart_histories]
    diagnostics = {"stationary": result.stationary, "restarts": restarts}
    doc = _document(args, result.to_json_dict(), diagnostics=diagnostics)
    write_text(doc, args.json)
    return 0


def _cmd_heatvision(args) -> int:
    from .heatvision import iterate_channel

    words = [word_from_str(tok) for tok in args.state.split(",")]
    run = iterate_channel(GroupParams(args.s), args.depth, args.steps, words)
    write_text(csv_text(["t", "purity", "bound", "ratio"], run.rows()), args.csv)
    if args.json is not None:
        result = {
            "s": run.s,
            "N": run.depth,
            "T": run.steps,
            "k0": run.initial_support_depth,
            "fstar": run.fstar,
            "final_purity": run.purity_series[-1],
        }
        write_text(_document(args, result), args.json)
    return 0


def _cmd_report(args) -> int:
    # Refused before the report layer loads or any criterion runs;
    # ``run_report`` checks again for library callers.
    scale = args.tolerance_scale
    if not 0.0 <= scale < float("inf"):
        raise ValueError(f"tolerance_scale must be finite and ≥ 0, got {scale}")
    from .report import ReportSettings, run_report

    settings = ReportSettings.quick() if args.quick else ReportSettings()
    settings.tolerance_scale = args.tolerance_scale
    if args.seed is not None:
        settings.seed = args.seed
    # The config echo records the seed the run used, given or not.
    args.seed = settings.seed
    results = run_report(settings)
    for res in results:
        print(res.line())
    failing = [r.number for r in results if not r.passed]
    if args.json is not None:
        result = {
            "criteria": [r.to_json_dict() for r in results],
            "all_passed": not failing,
            "failing": failing,
        }
        write_text(_document(args, result), args.json)
    if failing:
        print(
            "failing criteria: " + ", ".join(str(n) for n in failing),
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(args, _load_config_file(args.config))
            args = parser.parse_args(argv)
        # Required options are checked only now so the config file can
        # supply them.
        missing = [
            opt
            for opt in args.leaf.required_options
            if getattr(args, opt.lstrip("-").replace("-", "_")) is None
        ]
        if missing:
            raise _UsageError(
                f"{args.leaf.prog}: the following arguments are required: "
                + ", ".join(missing)
            )
        return args.run(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, ConvergenceError, BufferExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
