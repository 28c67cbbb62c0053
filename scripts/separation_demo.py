#!/usr/bin/env python3
"""Demonstrate the tensor/commuting separation for one input count.

Three numbers tell the story for s >= 3:

  * the tensor-model ceiling 2*sqrt(s-1)/s,
  * the best seesaw-optimized tensor strategy, which stays under it,
  * the commuting-shift strategy, which reaches 1 exactly.

Usage:
    python3 scripts/separation_demo.py --s 5 --bob-depth 5 --restarts 10
"""

import argparse

from steergap import (
    GroupParams,
    analytic_norm,
    commuting_strategy_result,
    seesaw_tensor_optimize,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=5)
    ap.add_argument("--alice-dim", type=int, default=8)
    ap.add_argument("--bob-depth", type=int, default=5)
    ap.add_argument("--restarts", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = GroupParams(args.s)
    bound = analytic_norm(args.s)
    print(f"s = {args.s}")
    print(f"tensor-model bound:        {bound:.12f}")

    tensor = seesaw_tensor_optimize(
        params,
        args.alice_dim,
        args.bob_depth,
        restarts=args.restarts,
        seed=args.seed,
    )
    margin = bound - tensor.f_s
    print(
        f"best seesaw tensor value:  {tensor.f_s:.12f}  "
        f"(d_A={tensor.d_A}, depth={tensor.depth}, margin {margin:.3e})"
    )

    commuting = commuting_strategy_result(params)
    print(f"commuting-shift value:     {commuting.f_s:.12f}")

    gap = commuting.f_s - bound
    if commuting.violates:
        print(f"separation: commuting beats every tensor strategy by {gap:.6f}")
    else:
        print("no separation at s = 2: the tensor bound is exactly 1")


if __name__ == "__main__":
    main()
