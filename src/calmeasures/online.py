"""Sequential prediction testbed.

An episode alternates a forecaster (sees the history, emits p_t) against an
adversary (sees the history, emits y_t).  Sequence-level calibration error
is T times the chosen distributional measure on the uniform empirical joint
of the transcript.

Information model: adversaries see only the history.  The threshold
adversary additionally receives the forecaster's deterministic map and
replays it to anticipate p_t; this is the standard linear-regret
construction against deterministic algorithms, without granting the
adversary access to realized randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import EmpiricalJoint, from_samples
from .measures import resolve


@dataclass(frozen=True)
class Transcript:
    """Ordered (prediction, outcome) rounds."""

    rounds: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("transcript must have at least one round")
        for p, y in self.rounds:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prediction {p} outside [0, 1]")
            if y not in (0, 1):
                raise ValueError(f"outcome {y} not in {{0, 1}}")

    def __len__(self) -> int:
        return len(self.rounds)

    def joint(self) -> EmpiricalJoint:
        return from_samples(list(self.rounds))


# ---------------------------------------------------------------------------
# strategies


class Forecaster:
    deterministic = True

    def predict(self, ps: list[float], ys: list[int], rng) -> float:
        raise NotImplementedError


class Adversary:
    needs_forecaster = False

    def outcome(self, ps: list[float], ys: list[int], rng) -> int:
        raise NotImplementedError


class ConstantForecaster(Forecaster):
    def __init__(self, c: float):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"constant prediction {c} outside [0, 1]")
        self.c = c

    def predict(self, ps, ys, rng):
        return self.c


class RunningMeanForecaster(Forecaster):
    """Laplace-smoothed running label mean: (a + sum y) / (a + b + t - 1).

    The sum is kept across calls for the last ``ys`` list seen and extended
    by the labels appended since, as ``run`` appends them; another list, or
    a shorter one, is summed again.  Adding left to right either way, it
    equals ``sum(ys)``."""

    def __init__(self, a: float = 1.0, b: float = 1.0):
        if a < 0.0 or b < 0.0 or a + b <= 0.0:
            raise ValueError("prior pseudocounts must be nonnegative, a+b > 0")
        self.a = a
        self.b = b
        self._ys: list[int] = []
        self._n = 0
        self._sum = 0

    def predict(self, ps, ys, rng):
        if ys is not self._ys or len(ys) < self._n:
            self._ys, self._n, self._sum = ys, 0, 0
        self._sum = sum(ys[self._n:], self._sum)
        self._n = len(ys)
        return (self.a + self._sum) / (self.a + self.b + len(ys))


class GridRandomForecaster(Forecaster):
    """Running mean with randomized rounding to the nearest 1/m grid."""

    deterministic = False

    def __init__(self, m: int, a: float = 1.0, b: float = 1.0):
        if m < 1:
            raise ValueError("grid resolution must be >= 1")
        self.m = m
        self.base = RunningMeanForecaster(a, b)

    def predict(self, ps, ys, rng):
        p = self.base.predict(ps, ys, rng)
        lo = np.floor(p * self.m) / self.m
        if lo >= 1.0:
            return 1.0
        hi = lo + 1.0 / self.m
        frac = (p - lo) * self.m
        return float(hi if rng.random() < frac else lo)


class BernoulliAdversary(Adversary):
    def __init__(self, q: float):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"outcome probability {q} outside [0, 1]")
        self.q = q

    def outcome(self, ps, ys, rng):
        return int(rng.random() < self.q)


class ConstantAdversary(Adversary):
    def __init__(self, y: int):
        if y not in (0, 1):
            raise ValueError("constant outcome must be 0 or 1")
        self.y = y

    def outcome(self, ps, ys, rng):
        return self.y


class ThresholdAdversary(Adversary):
    """Replays a deterministic forecaster to anticipate p_t, then plays
    y_t = 1 iff p_t < 1/2."""

    needs_forecaster = True

    def __init__(self):
        self.forecaster: Forecaster | None = None

    def bind(self, forecaster: Forecaster) -> None:
        if not forecaster.deterministic:
            raise ValueError(
                "threshold adversary requires a deterministic forecaster"
            )
        self.forecaster = forecaster

    def outcome(self, ps, ys, rng):
        if self.forecaster is None:
            raise ValueError("threshold adversary not bound to a forecaster")
        p_next = self.forecaster.predict(ps, ys, None)
        return int(p_next < 0.5)


def baseline_forecasters() -> dict:
    """Factories for the stock forecasters."""
    return {
        "constant": ConstantForecaster,
        "running_mean": RunningMeanForecaster,
        "grid_random": GridRandomForecaster,
    }


# ---------------------------------------------------------------------------
# episodes and sequence measures


def run(
    forecaster: Forecaster,
    adversary: Adversary,
    T: int,
    seed: int = 0,
) -> Transcript:
    """Play T rounds; deterministic given the seed (one RNG stream split
    per strategy)."""
    if T < 1:
        raise ValueError("need at least one round")
    if adversary.needs_forecaster:
        adversary.bind(forecaster)
    f_rng, a_rng = np.random.default_rng(seed).spawn(2)
    ps: list[float] = []
    ys: list[int] = []
    for _ in range(T):
        p = float(forecaster.predict(ps, ys, f_rng))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"forecaster emitted {p} outside [0, 1]")
        y = int(adversary.outcome(ps, ys, a_rng))
        if y not in (0, 1):
            raise ValueError(f"adversary emitted {y} outside {{0, 1}}")
        ps.append(p)
        ys.append(y)
    return Transcript(tuple(zip(ps, ys)))


def sequence_measure(transcript: Transcript, measure: str) -> float:
    """T times the chosen measure on the uniform joint of the transcript."""
    return len(transcript) * resolve(measure)(transcript.joint())


def prefix_curve(transcript: Transcript, measure: str) -> list[float]:
    """Sequence measure of every prefix, for regret plots.

    The transcript is aggregated once, into per-label counts of its k
    distinct predictions.  Each prefix's joint is built from the counts
    over its length t, levels of count 0 dropped, and then its last round
    is counted out, so a curve costs O(T k) outside the measure.  The joints
    are the ones ``from_samples`` builds from the prefixes, bit for bit:
    merged unit masses are exact integer counts, and their total is t.
    """
    f = resolve(measure)
    p, y = np.array(transcript.rounds, dtype=float).T
    y = y.astype(np.intp)
    distinct, level = np.unique(p, return_inverse=True)
    k = len(distinct)
    key = y * k + level
    counts = np.bincount(key, minlength=2 * k).reshape(2, k)
    # make represents a level by its first round with the lowest label the
    # level has; only 0.0 and -0.0 share a level with two bit patterns
    pairs, first = np.unique(key, return_index=True)
    rep = np.zeros((2, k))
    rep.flat[pairs] = p[first]
    curve = []
    # longest prefix first, so a size cap fails before the shorter ones run
    for t in range(len(p), 0, -1):
        vals = np.where(counts[0] > 0, rep[0], rep[1])
        curve.append(t * f(EmpiricalJoint.from_columns(vals, *(counts / t))))
        counts[y[t - 1], level[t - 1]] -= 1
    return curve[::-1]
