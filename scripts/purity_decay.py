#!/usr/bin/env python3
"""Track purity under the iterated random-shift channel against its envelope.

Runs the channel from the root state on a truncation deep enough for every
requested step to be exact, writes the trajectory CSV, and prints the
geometric envelope ((1 + 2*sqrt(s-1)/s)/2)^(2t) next to the observed decay.

Usage:
    python3 scripts/purity_decay.py --s 3 --steps 9 --out purity_s3.csv
"""

import argparse
import pathlib

from steergap import IDENTITY, GroupParams, iterate_channel
from steergap.serialize import csv_text


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=3)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--depth", type=int, default=None,
                    help="truncation depth (default: steps + 1)")
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args()

    depth = args.depth if args.depth is not None else args.steps + 1
    run = iterate_channel(GroupParams(args.s), depth, args.steps, [IDENTITY])

    print(f"s = {args.s}, truncation depth {depth}, envelope base "
          f"((1 + {run.fstar:.6f})/2)^2")
    print(f"{'t':>3} {'purity':>14} {'envelope':>14} {'ratio':>8}")
    for t, purity, envelope, ratio in run.rows():
        print(f"{t:>3} {purity:>14.10f} {envelope:>14.10f} {ratio:>8.4f}")

    if args.out is not None:
        args.out.write_text(csv_text(["t", "purity", "bound", "ratio"], run.rows()))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
