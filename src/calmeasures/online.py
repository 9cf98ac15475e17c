"""Sequential prediction testbed.

An episode alternates a forecaster (sees the history, emits p_t) against an
adversary (sees the history, emits y_t).  Sequence-level calibration error
is T times the chosen distributional measure on the uniform empirical joint
of the transcript.

Information model: adversaries see the history and, against a
deterministic forecaster, its p_t, which is a function of that history;
this is all the threshold adversary needs for the standard linear-regret
construction against deterministic algorithms.  A randomized forecaster's
realized p_t is never shown.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .empirical import EmpiricalJoint, _group_levels, from_samples
from .measures import required, resolve


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
    def outcome(self, ps: list[float], ys: list[int], p: float | None,
                rng) -> int:
        """y_t, given the history and the round's prediction p, which is
        None unless the forecaster is deterministic."""
        raise NotImplementedError


class ConstantForecaster(Forecaster):
    def __init__(self, c: float):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"constant prediction {c} outside [0, 1]")
        self.c = c

    def predict(self, ps, ys, rng):
        return self.c


class RunningMeanForecaster(Forecaster):
    """Laplace-smoothed running label mean: (1 + sum y) / (t + 1) in round
    t, the deterministic baseline that the threshold adversary beats.

    The sum is kept across calls for the last ``ys`` list seen and extended
    by the labels appended since, as ``run`` appends them; another list, or
    a shorter one, is summed again.  Adding left to right either way, it
    equals ``sum(ys)``."""

    def __init__(self):
        self._ys: list[int] = []
        self._n = 0
        self._sum = 0

    def predict(self, ps, ys, rng):
        if ys is not self._ys or len(ys) < self._n:
            self._ys, self._n, self._sum = ys, 0, 0
        self._sum = sum(ys[self._n:], self._sum)
        self._n = len(ys)
        return (1.0 + self._sum) / (2.0 + len(ys))


class GridRandomForecaster(Forecaster):
    """Running mean with randomized rounding to the nearest 1/m grid."""

    deterministic = False

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("grid resolution must be >= 1")
        self.m = m
        self.base = RunningMeanForecaster()

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

    def outcome(self, ps, ys, p, rng):
        return int(rng.random() < self.q)


class ConstantAdversary(Adversary):
    def __init__(self, y: int):
        if y not in (0, 1):
            raise ValueError("constant outcome must be 0 or 1")
        self.y = y

    def outcome(self, ps, ys, p, rng):
        return self.y


class ThresholdAdversary(Adversary):
    """Plays y_t = 1 iff a deterministic forecaster's p_t < 1/2."""

    def outcome(self, ps, ys, p, rng):
        if p is None:
            raise ValueError(
                "threshold adversary requires a deterministic forecaster"
            )
        return int(p < 0.5)


class Strategy(NamedTuple):
    """A strategy name's entry, as :class:`~calmeasures.measures.Measure`
    is a measure id's: its argument parser (None when the name takes no
    argument) and its constructor, called with the parsed argument."""

    parse: Callable[[str], object] | None
    make: Callable[[object], Forecaster | Adversary]


# The strategy names, each resolved by measures.lookup as a measure id is.
FORECASTERS: dict[str, Strategy] = {
    "constant": Strategy(required(float), ConstantForecaster),
    "running_mean": Strategy(None, lambda a: RunningMeanForecaster()),
    "grid_random": Strategy(required(int), GridRandomForecaster),
}
ADVERSARIES: dict[str, Strategy] = {
    "bernoulli": Strategy(required(float), BernoulliAdversary),
    "ones": Strategy(None, lambda a: ConstantAdversary(1)),
    "zeros": Strategy(None, lambda a: ConstantAdversary(0)),
    "threshold": Strategy(None, lambda a: ThresholdAdversary()),
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
    f_rng, a_rng = np.random.default_rng(seed).spawn(2)
    ps: list[float] = []
    ys: list[int] = []
    for _ in range(T):
        p = float(forecaster.predict(ps, ys, f_rng))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"forecaster emitted {p} outside [0, 1]")
        shown = p if forecaster.deterministic else None
        y = int(adversary.outcome(ps, ys, shown, a_rng))
        if y not in (0, 1):
            raise ValueError(f"adversary emitted {y} outside {{0, 1}}")
        ps.append(p)
        ys.append(y)
    return Transcript(tuple(zip(ps, ys)))


def sequence_measure(transcript: Transcript, measure: str) -> float:
    """T times the chosen measure on the uniform joint of the transcript."""
    return len(transcript) * resolve(measure)(transcript.joint())


def prefix_curve(transcript: Transcript, measure: str) -> list[float]:
    """Sequence measure of every prefix, for regret plots; see
    :func:`prefix_curves`."""
    return prefix_curves(transcript, {measure: resolve(measure)})[measure]


def prefix_curves(
    transcript: Transcript,
    measures: Mapping[str, Callable[[EmpiricalJoint], float]],
) -> dict[str, list[float]]:
    """Sequence measure of every prefix under each ``spec: f`` of
    ``measures``, from one walk over the prefixes.

    The transcript is aggregated once, by the grouping that
    ``EmpiricalJoint.make`` uses (``empirical._group_levels``), into
    per-label counts of its k distinct predictions.  The walk takes the
    prefixes longest first, in blocks: a block holds the label masses of
    prefixes t = hi, hi - 1, ... as the rows of two arrays m0, m1, on the
    w levels present at its longest prefix hi, with
    max(1, _BLOCK_CELLS // w) rows: the counts at hi less the cumulative
    counts, on those levels, of the rounds each row drops, so
    ``_group_levels`` is the walk's only grouping.  An f with a row form
    ``f.rows(vals, m0, m1)`` runs once per block; every other f runs, in
    order, on each row's joint, built once from the row with its levels of
    mass 0.0 dropped.  The walk starts at the longest prefix, so a measure
    that fails on a size cap fails at its first call.  The masses are the
    ones ``from_samples`` builds from the prefixes, bit for bit: merged
    unit masses are exact integer counts, and their total is t; the row
    forms give each row its joint's value, bit for bit.
    """
    distinct, cell, counts = _group_levels(
        *np.array(transcript.rounds, dtype=float).T)
    rows = {spec: f.rows for spec, f in measures.items() if hasattr(f, "rows")}
    joints = {spec: f for spec, f in measures.items() if spec not in rows}
    curves = {spec: [] for spec in measures}
    hi = len(cell)
    while hi:
        present = np.flatnonzero(counts.any(axis=0))
        w = len(present)
        n = min(hi, max(1, _BLOCK_CELLS // w))
        t = np.arange(hi, hi - n, -1)
        # row r is prefix hi - r: the counts at hi less the cumulative
        # counts of rounds hi - 1 down to hi - r; a round's cell y k + level
        # (of k levels) is column y w + (the level's place in present)
        gone = np.zeros((n, 2 * w), dtype=counts.dtype)
        gone[np.arange(1, n), np.searchsorted(np.concatenate(
            (present, present + len(distinct))), cell[hi - 1:hi - n:-1])] = 1
        block = counts.take(present, axis=1).reshape(-1) - gone.cumsum(axis=0)
        m0, m1 = (block.reshape(n, 2, w) / t[:, None, None]).transpose(1, 0, 2)
        vals = distinct[present]
        for spec, f in rows.items():
            curves[spec].extend((t * f(vals, m0, m1)).tolist())
        if joints:
            for r, tr in enumerate(t.tolist()):
                joint = EmpiricalJoint.from_columns(vals, m0[r], m1[r])
                for spec, f in joints.items():
                    curves[spec].append(tr * f(joint))
        np.subtract.at(counts.reshape(-1), cell[hi - n:hi], 1)
        hi -= n
    return {spec: curve[::-1] for spec, curve in curves.items()}


# Cells (rows times levels) of one block of prefixes in ``prefix_curves``;
# past it in levels, a block is one row.  Sized by measurement on 2 vCPUs:
# the ece,cdl walks of the benchmark's online-curves ops (T = 100-300) were
# fastest at 2**11-2**12 cells, and about 30% slower at 2**10 or 2**13,
# where a row costs more in cache than a block saves in calls.
_BLOCK_CELLS = 1 << 12
