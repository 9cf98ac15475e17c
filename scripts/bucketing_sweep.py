"""Randomly shifted bucketing versus the 4 sqrt(delta) guarantee.

Usage: python scripts/bucketing_sweep.py [--instances 50] [--seeds 100]

Draws small finite instances, computes the exact distance to calibration
delta by the partition oracle, then averages the interval calibration
error of a randomly shifted width sqrt(2 delta) grid over seeds.  The
mean should stay below 4 sqrt(delta); the exit code is 1 if it does not.
"""

import argparse
import math
import sys

import numpy as np

from calmeasures import (
    FiniteInstance,
    dce_oracle,
    project,
    random_grid_intce,
)


def random_instance(rng, max_points=8):
    n = int(rng.integers(2, max_points + 1))
    return FiniteInstance.make(
        (f"x{i}", rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0),
         rng.uniform(0.0, 1.0))
        for i in range(n)
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = -np.inf
    for i in range(args.instances):
        inst = random_instance(rng)
        delta = dce_oracle(inst)
        if delta < 1e-12:
            continue
        joint = project(inst)
        beta = min(math.sqrt(2.0 * delta), 1.0)
        mean = np.mean(
            [random_grid_intce(joint, beta, s) for s in range(args.seeds)]
        )
        bound = 4.0 * math.sqrt(delta)
        worst = max(worst, mean - bound)
        print(
            f"  instance {i:3d}: delta = {delta:.4f}  "
            f"mean intCE = {mean:.4f}  bound = {bound:.4f}"
        )
    verdict = "ok" if worst <= 1e-9 else "VIOLATED"
    print(f"worst mean excess over bound: {worst:+.3e}  {verdict}")
    return 0 if worst <= 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
