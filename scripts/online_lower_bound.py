"""Linear-regret exhibit: the threshold adversary against deterministic
forecasters, next to a stochastic baseline that stays well calibrated.

Usage: python scripts/online_lower_bound.py [-T 1000] [--seed 0]

Prints sequence ECE / T per matchup.  Deterministic forecasters are
forced to ~T/2; the constant forecaster against matched Bernoulli labels
decays like 1/sqrt(T).

Exits 1 if a deterministic forecaster's sequence ECE against the threshold
adversary is below T/2 (less 1e-9 T for rounding), which cannot happen:
the adversary plays y = 1 exactly when p < 1/2, so a level with v < 1/2
holds only y = 1 and one with v >= 1/2 only y = 0.  Then |E[y | v] - v|
is 1 - v > 1/2 or v >= 1/2 at every level, and ECE, their mass-weighted
sum, is at least 1/2.
"""

import argparse
import sys

from calmeasures import (
    BernoulliAdversary,
    ConstantForecaster,
    GridRandomForecaster,
    RunningMeanForecaster,
    ThresholdAdversary,
    run,
    sequence_measure,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-T", "--rounds", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    T = args.rounds

    matchups = [
        ("constant:0.5 vs threshold", ConstantForecaster(0.5),
         ThresholdAdversary()),
        ("running_mean vs threshold", RunningMeanForecaster(),
         ThresholdAdversary()),
        ("constant:0.3 vs bernoulli:0.3", ConstantForecaster(0.3),
         BernoulliAdversary(0.3)),
        ("grid_random:20 vs bernoulli:0.3", GridRandomForecaster(20),
         BernoulliAdversary(0.3)),
    ]
    print(f"T = {T}, seed = {args.seed}")
    ok = True
    for name, f, a in matchups:
        t = run(f, a, T, args.seed)
        seq = sequence_measure(t, "ece")
        print(f"  {name:34s} seq ECE = {seq:10.3f}   per round = {seq / T:.4f}")
        if isinstance(a, ThresholdAdversary) and seq < T / 2 - 1e-9 * T:
            print(f"error: {name}: sequence ECE {seq!r} below T/2",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
