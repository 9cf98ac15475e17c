"""Sweep random finite instances and report the least slack of each
relation of the table calmeasures.measures.RELATIONS.

Usage: python scripts/relation_sweep.py [--trials 1000] [--seed 0]

Each trial draws an instance of 1 to MAX_POINTS points and computes every
measure of SPECS on it.  At the end prints, for each relation, the least
slack observed over the trials and over every pair of a left and a right
spec: the right side minus the left, tolerance included, so it holds when
the slack is >= 0.  The exit code is 1 if a slack is negative, or if no
spec of SPECS stands for one side of a relation.
"""

import argparse
import itertools
import math
import sys

import numpy as np

from calmeasures import FiniteInstance, project
from calmeasures.measures import RELATIONS, resolve

MAX_POINTS = 10
SPECS = ("ece", "ece2", "cdl", "smce", "emd", "tv", "lowdeg:3", "kernel",
         "kernel:gaussian", "intce", "intce:50", "dce", "dce_upper")


def random_instance(rng):
    n = int(rng.integers(1, MAX_POINTS + 1))
    return FiniteInstance.make(
        (f"x{i}", rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0),
         rng.uniform(0.0, 1.0))
        for i in range(n)
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    measures = {spec: resolve(spec) for spec in SPECS}
    worst = dict.fromkeys(RELATIONS, math.inf)
    for _ in range(args.trials):
        instance = random_instance(rng)
        joint = project(instance)
        values = {spec: f(joint, instance) for spec, f in measures.items()}
        for name, (left, right, slack) in RELATIONS.items():
            for s, t in itertools.product(SPECS, SPECS):
                if s.split(":")[0] == left and t.split(":")[0] == right:
                    worst[name] = min(worst[name],
                                      slack(values[s], values[t]))

    print(f"trials: {args.trials}, seed: {args.seed}")
    for name, slack in worst.items():
        verdict = "NOT COVERED" if slack == math.inf else (
            "ok" if slack >= 0.0 else "VIOLATED")
        print(f"  {name:24s} min slack {slack:+.3e}  {verdict}")
    return 0 if all(0.0 <= s < math.inf for s in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
