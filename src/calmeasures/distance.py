"""Distance to calibration: interval calibration error and brute-force
oracles.

The true distance oracle enumerates every set partition of a small finite
instance (restricted growth strings).  Assigning each block the
mass-weighted mean of its conditional label means yields a perfectly
calibrated predictor, and every calibrated predictor on the instance arises
this way (equal-valued blocks merge harmlessly), so the enumeration is
exhaustive.  The upper-distance oracle runs the same enumeration on the
distinct prediction values of a joint, i.e. over calibrated
post-processings.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .empirical import EmpiricalJoint, FiniteInstance, project
from .lipschitz import residuals

DEFAULT_ORACLE_CAP = 12


class OracleSizeError(ValueError):
    """Instance too large for the Bell-number partition enumeration."""


@dataclass(frozen=True)
class IntervalPartition:
    """Ordered partition of [0, 1]: intervals [b_{j-1}, b_j), last closed."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bs = self.breakpoints
        if len(bs) < 2 or bs[0] != 0.0 or bs[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @staticmethod
    def uniform(k: int) -> "IntervalPartition":
        if k < 1:
            raise ValueError("need at least one interval")
        return IntervalPartition(tuple(j / k for j in range(k + 1)))

    @property
    def width(self) -> float:
        return max(
            b2 - b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])
        )

    def __len__(self) -> int:
        return len(self.breakpoints) - 1

    def index(self, v: float) -> int:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"value {v} outside [0, 1]")
        j = bisect_right(self.breakpoints, v) - 1
        return min(j, len(self) - 1)  # v = 1 goes in the last (closed) interval

    def midpoint(self, j: int) -> float:
        return 0.5 * (self.breakpoints[j] + self.breakpoints[j + 1])


def ce_partition(joint: EmpiricalJoint, part: IntervalPartition) -> float:
    """Sum over intervals of |E[(y - v) 1(v in I_j)]|."""
    res = [0.0] * len(part)
    for v, y, m in joint.atoms:
        res[part.index(v)] += m * (y - v)
    return sum(abs(r) for r in res)


def intce_partition(joint: EmpiricalJoint, part: IntervalPartition) -> float:
    return ce_partition(joint, part) + part.width


@dataclass(frozen=True)
class CanonicalPredictor:
    """Per-interval conditional-mean post-processing q_B.

    Empty intervals map to their midpoint (no mass, no effect); the
    post-processed joint is always perfectly calibrated.
    """

    partition: IntervalPartition
    values: tuple[float, ...]

    def __call__(self, v: float) -> float:
        return self.values[self.partition.index(v)]

    def apply(self, joint: EmpiricalJoint) -> EmpiricalJoint:
        return EmpiricalJoint.make(
            (self(v), y, m) for v, y, m in joint.atoms
        )

    def l1_shift(self, joint: EmpiricalJoint) -> float:
        """E|v - q_B(v)| under the joint: the movement to calibration."""
        return sum(m * abs(v - self(v)) for v, _, m in joint.atoms)


def canonical_predictor(
    joint: EmpiricalJoint, part: IntervalPartition
) -> CanonicalPredictor:
    mass = [0.0] * len(part)
    ymass = [0.0] * len(part)
    for v, y, m in joint.atoms:
        j = part.index(v)
        mass[j] += m
        ymass[j] += m * y
    values = tuple(
        ymass[j] / mass[j] if mass[j] > 0.0 else part.midpoint(j)
        for j in range(len(part))
    )
    return CanonicalPredictor(part, values)


# ---------------------------------------------------------------------------
# minimized interval calibration error on a breakpoint grid


def intce_opt(joint: EmpiricalJoint, g: int = 1000) -> float:
    """Min over partitions with breakpoints on the uniform g-grid of
    (CE + width), via a per-width-cap DP over value groups.

    The reported value overestimates the unrestricted optimum by at most
    2/g: any partition's groups fit grid-aligned intervals after widening
    each end to the enclosing grid point.
    """
    if g < 2:
        raise ValueError("grid resolution must be >= 2")
    vals, rs = residuals(joint)
    m = len(vals)
    cells = [min(int(v * g), g - 1) for v in vals]
    sep = [cells[j] < cells[j + 1] for j in range(m - 1)]
    if not all(sep):
        warnings.warn(
            f"grid g={g} too coarse to separate some prediction values; "
            "they are forced into shared intervals"
        )
    prefix = np.concatenate([[0.0], np.cumsum(rs)])
    # group i..j needs a grid interval of this exact width
    req = [[(cells[j] - cells[i] + 1) / g for j in range(m)] for i in range(m)]
    cost = [
        [abs(prefix[j + 1] - prefix[i]) for j in range(m)] for i in range(m)
    ]
    caps = sorted({req[i][j] for i in range(m) for j in range(i, m)})
    best = np.inf
    for cap in caps:
        dp = [np.inf] * (m + 1)
        dp[0] = 0.0
        for j in range(m):
            if j < m - 1 and not sep[j]:
                continue  # cannot end a group here
            for i in range(j + 1):
                if i > 0 and not sep[i - 1]:
                    continue  # cannot start a group here
                if req[i][j] <= cap + 1e-15:
                    dp[j + 1] = min(dp[j + 1], dp[i] + cost[i][j])
        if dp[m] < np.inf:
            best = min(best, dp[m] + cap)
    return float(best)


def random_grid_intce(
    joint: EmpiricalJoint, beta: float, seed: int
) -> float:
    """Interval calibration error of a randomly shifted width-beta grid:
    first interval [0, b] with b uniform in [0, beta], then width-beta
    intervals.  Deterministic given the seed."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta {beta} outside (0, 1]")
    rng = np.random.default_rng(seed)
    b = float(rng.uniform(0.0, beta))
    bps = [0.0]
    x = b
    while x < 1.0 - 1e-12:
        if x > bps[-1] + 1e-12:
            bps.append(x)
        x += beta
    bps.append(1.0)
    return intce_partition(joint, IntervalPartition(tuple(bps)))


# ---------------------------------------------------------------------------
# brute-force distance oracles


def restricted_growth_strings(n: int) -> Iterator[list[int]]:
    """All set partitions of n items as block-id arrays a with a[0] = 0 and
    a[i] <= max(a[:i]) + 1."""
    a = [0] * n

    def rec(i: int, top: int) -> Iterator[list[int]]:
        if i == n:
            yield a
            return
        for block in range(top + 2):
            a[i] = block
            yield from rec(i + 1, max(top, block))

    if n == 0:
        yield a
        return
    yield from rec(1, 0)


def _min_partition_cost(
    mass: np.ndarray, pred: np.ndarray, cond: np.ndarray, cap: int
) -> float:
    """Min over set partitions, with each block assigned the mass-weighted
    mean of cond over the block, of sum mass |pred - block value|."""
    n = len(mass)
    if n > cap:
        raise OracleSizeError(
            f"{n} points exceed the enumeration cap {cap} "
            f"(Bell({cap}) partitions is the supported limit)"
        )
    mc = mass * cond
    best = np.inf
    nblocks_vals = np.empty(n)
    nblocks_mass = np.empty(n)
    for a in restricted_growth_strings(n):
        k = max(a) + 1
        nblocks_mass[:k] = 0.0
        nblocks_vals[:k] = 0.0
        for i in range(n):
            nblocks_mass[a[i]] += mass[i]
            nblocks_vals[a[i]] += mc[i]
        cost = 0.0
        for i in range(n):
            cost += mass[i] * abs(pred[i] - nblocks_vals[a[i]] / nblocks_mass[a[i]])
            if cost >= best:
                break
        best = min(best, cost)
    return float(best)


def dce_oracle(
    instance: FiniteInstance, cap: int = DEFAULT_ORACLE_CAP
) -> float:
    """Exact distance to the nearest perfectly calibrated predictor on the
    instance's own feature space."""
    if cap > 13:
        raise ValueError("enumeration cap beyond 13 is not supported")
    if cap == 13:
        warnings.warn("cap 13 enumerates ~27.6M partitions; this is slow")
    mass = np.array([m for _, m, _, _ in instance.points])
    pred = np.array([p for _, _, p, _ in instance.points])
    cond = np.array([c for _, _, _, c in instance.points])
    return _min_partition_cost(mass, pred, cond, cap)


def dce_upper_oracle(
    joint: EmpiricalJoint, cap: int = DEFAULT_ORACLE_CAP
) -> float:
    """Exact minimum l1 movement over calibrated post-processings of the
    joint's distinct prediction values."""
    levels = joint.level_sets()
    vs = sorted(levels)
    mass = np.array([levels[v][0] for v in vs])
    cond = np.array([levels[v][1] for v in vs])
    pred = np.array(vs)
    return _min_partition_cost(mass, pred, cond, cap)


def dce_from_instance(instance: FiniteInstance, cap: int = DEFAULT_ORACLE_CAP):
    """Convenience bundle: (dce, dce_upper) for an instance."""
    return dce_oracle(instance, cap), dce_upper_oracle(project(instance), cap)


__all__ = [
    "IntervalPartition",
    "CanonicalPredictor",
    "OracleSizeError",
    "ce_partition",
    "intce_partition",
    "canonical_predictor",
    "intce_opt",
    "random_grid_intce",
    "restricted_growth_strings",
    "dce_oracle",
    "dce_upper_oracle",
    "dce_from_instance",
]
