"""Sweep random joints and report the slack in the measure relation chain.

Usage: python scripts/relation_sweep.py [--trials 1000] [--seed 0]

For each joint prints nothing; at the end prints the worst (most negative)
slack observed for each inequality.  All slacks should be >= -1e-9; the
exit code is 1 if one is not.
"""

import argparse
import sys

import numpy as np

from calmeasures import cdl, ece, ece_q, emd_joints, from_samples, smce


def random_joint(rng, max_values=10):
    k = int(rng.integers(1, max_values + 1))
    vs = rng.uniform(0.0, 1.0, size=k)
    pairs = []
    weights = []
    for v in vs:
        mu = rng.uniform(0.0, 1.0)
        m = rng.uniform(0.1, 1.0)
        pairs.extend([(float(v), 1), (float(v), 0)])
        weights.extend([m * mu, m * (1.0 - mu)])
    return from_samples(pairs, weights)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    slacks = {
        "ece^2 <= ece2^2": np.inf,
        "ece2^2 <= cdl": np.inf,
        "cdl <= 2 ece": np.inf,
        "emd/2 <= smce": np.inf,
        "smce <= emd": np.inf,
        "smce <= ece": np.inf,
    }
    for _ in range(args.trials):
        j = random_joint(rng)
        e1, e2 = ece(j), ece_q(j, 2.0)
        c, s, d = cdl(j), smce(j), emd_joints(j)
        slacks["ece^2 <= ece2^2"] = min(slacks["ece^2 <= ece2^2"], e2**2 - e1**2)
        slacks["ece2^2 <= cdl"] = min(slacks["ece2^2 <= cdl"], c - e2**2)
        slacks["cdl <= 2 ece"] = min(slacks["cdl <= 2 ece"], 2 * e1 - c)
        slacks["emd/2 <= smce"] = min(slacks["emd/2 <= smce"], s - d / 2)
        slacks["smce <= emd"] = min(slacks["smce <= emd"], d - s)
        slacks["smce <= ece"] = min(slacks["smce <= ece"], e1 - s)

    print(f"trials: {args.trials}, seed: {args.seed}")
    for name, slack in slacks.items():
        verdict = "ok" if slack >= -1e-9 else "VIOLATED"
        print(f"  {name:18s} min slack {slack:+.3e}  {verdict}")
    return 0 if min(slacks.values()) >= -1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
