"""Distance to calibration: interval calibration error and exact
distance oracles.

The true distance oracle minimizes over every set partition of a small
finite instance.  Assigning each block the mass-weighted mean of its
conditional label means yields a perfectly calibrated predictor, and every
calibrated predictor on the instance arises this way (equal-valued blocks
merge harmlessly).  A partition's cost adds up over its blocks, so a
subset DP over the 2^n block costs finds the minimum in O(3^n) steps.
The upper-distance oracle runs the same DP on the distinct prediction
values of a joint, i.e. over calibrated post-processings.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .empirical import EmpiricalJoint, FiniteInstance
from .lipschitz import residuals

# the most points an oracle enumerates the set partitions of
ORACLE_CAP = 12
# intce's grid resolution g when none is given
DEFAULT_GRID = 1000


class OracleSizeError(ValueError):
    """A solve over its size cap: an oracle's instance has more than
    ORACLE_CAP points, or an intce DP would take more than _DP_STEPS
    steps."""


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
        return int(self.indices(v))

    def indices(self, vs: np.ndarray) -> np.ndarray:
        """index(v) for each of an array of values in [0, 1]."""
        j = np.searchsorted(self.breakpoints, vs, side="right") - 1
        return np.minimum(j, len(self) - 1)  # 1 is in the last interval

    def midpoint(self, j: int) -> float:
        return 0.5 * (self.breakpoints[j] + self.breakpoints[j + 1])


def ce_partition(joint: EmpiricalJoint, part: IntervalPartition) -> float:
    """Sum over intervals of |E[(y - v) 1(v in I_j)]|."""
    res = np.bincount(part.indices(joint.vals), joint.residual, len(part))
    return float(np.abs(res).sum())


def intce_partition(joint: EmpiricalJoint, part: IntervalPartition) -> float:
    return ce_partition(joint, part) + part.width


# ---------------------------------------------------------------------------
# minimized interval calibration error on a breakpoint grid


def intce_opt(joint: EmpiricalJoint, g: int = DEFAULT_GRID) -> float:
    """Min over partitions with breakpoints on the uniform g-grid of
    (CE + width), via a DP over groups of grid cells run for each width
    cap that can still win.

    A cap's value is its least CE plus the cap, so no cap at or above a
    value already reached can beat it.  The all-singletons partition under
    the least cap 1/g, summed in the order the DP sums it, gives such a
    value U, no less than the DP's own value at that cap.  Only the caps
    below U are run, and the answer is the least of U and their values:
    bit for bit the minimum over every cap.  A group fits under a kept cap
    only if its width is below about U, so each cell looks back over a
    window of the occupied cells within about U * g grid cells, under the
    same ``req <= cap + 1e-15`` test as a DP over every start.  When the
    CE is small the window is a few cells.  The worst case, every label 1,
    has U near 1/2: about half the caps and a window of half the grid
    remain.  The (cells x window x caps) candidates are built for a block
    of cells at a time, at most _DP_CELLS per block unless one cell's are
    more, so memory follows cells x (window + caps), against
    cells x (cells + caps) for a DP over every cap and start.  A DP of more
    than _DP_STEPS candidates is refused before any of them is built.

    The value is an upper bound on the unrestricted optimum, the least CE
    plus widest span over groupings of consecutive predictions: a grid
    interval is no narrower than its predictions' span.  It is within 2/g
    of it when each grid cell holds one prediction, so that the
    coarse-grid warning is silent: widening each end of an optimal
    grouping's groups to the enclosing grid point adds at most 2/g.  Two
    predictions in one cell must share a group, and the gap can be larger:
    0.48, 0.62, 0.64, 0.76 with labels 1, 0, 1, 0 give 0.485 at g = 10,
    against 0.265 for the groups {0.48, 0.62} and {0.64, 0.76}.
    """
    check_grid(g)
    vals, rs = residuals(joint)
    # values in one grid cell always share a group: merge them into one
    # row; the values are sorted, so each cell's values are one run
    cell = np.minimum((vals * g).astype(np.int64), g - 1)
    first = np.concatenate([[True], cell[1:] != cell[:-1]])
    cells, row = cell[first], np.cumsum(first) - 1
    m = len(cells)
    prefix = np.concatenate([[0.0], np.cumsum(np.bincount(row, rs))])
    best = np.cumsum(np.abs(prefix[1:] - prefix[:-1]))[-1] + np.int64(1) / g
    # every width w with w / g <= best + 1e-15 is at most span
    span = min(g, int((best + 2e-15) * g * (1.0 + 1e-9)) + 2)
    lo = np.searchsorted(cells, cells - (span - 1))
    w = int((np.arange(m) - lo).max()) + 1
    # the DP weighs cells x window x caps candidates; the caps are distinct
    # widths of at most span cells, each that of some (cell, start) pair
    steps = m * w * min(span, m * w)
    if steps > _DP_STEPS:
        raise OracleSizeError(f"grid g={g} needs {steps} DP steps, over the "
                              f"cap of {_DP_STEPS}")
    if len(cells) < len(vals):
        warnings.warn(
            f"grid g={g} too coarse to separate some prediction values; "
            "they are forced into shared intervals"
        )
    # start[j, t] = j - w + 1 + t: the window of group starts for cell j,
    # whose groups need a grid interval of width req
    start = np.arange(m)[:, None] + np.arange(1 - w, 1)
    outside = start < 0
    start[outside] = 0
    req = (cells[:, None] - cells[start] + 1) / g
    req[outside] = np.inf
    caps = np.unique(req[req < best])
    if not len(caps):
        return float(best)
    req = req[:, :, None]
    cost = np.abs(prefix[1:, None] - prefix[start])[:, :, None]
    limit = caps + 1e-15
    # dp[w - 1 + i, c]: least CE of the first i cells under cap caps[c];
    # the w - 1 rows before stand for starts before the first cell
    dp = np.full((w + m, len(caps)), np.inf)
    dp[w - 1] = 0.0
    block = max(1, _DP_CELLS // (w * len(caps)))
    for a in range(0, m, block):
        cand = np.where(req[a:a + block] <= limit, cost[a:a + block], np.inf)
        for j, c in enumerate(cand, a):
            np.minimum.reduce(dp[j:j + w] + c, axis=0, out=dp[j + w])
    return float(min(best, (dp[-1] + caps).min()))


def check_grid(g: int) -> int:
    """``g`` if :func:`intce_opt` takes it as its grid, else ValueError."""
    if g < 2:
        raise ValueError("grid resolution must be >= 2")
    # predictions are at most 1, so v * g <= float(g): intce_opt's cast of
    # v * g to int64 is safe while float(g) < 2**63
    if float(g) >= 2.0**63:
        raise ValueError(f"grid resolution g={g} too large: cell indices "
                         "v * g must fit int64 (g < 2**63)")
    return g


# intce_opt builds its (cells x window x caps) candidates for this many at
# a time, or for one cell where one cell's are more; it refuses a DP of more
# than _DP_STEPS of them
_DP_CELLS = 1 << 16
_DP_STEPS = 1 << 30


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


@functools.cache
def _subset_plan(n: int) -> tuple[np.ndarray, tuple]:
    """The size-only part of the subset DP on n points, built once per n
    and read-only: each subset's 0/1 membership row, and for each
    popcount layer p its subsets S, the blocks T of S that hold S's
    lowest point (that point plus any subset of the other p - 1) and
    their complements S - T.  The plan on n points holds (3^n - 1) / 2
    blocks and as many complements: 4.5 MiB at n = 12, 0.07 MiB at 8, and
    6.8 MiB for every n up to ORACLE_CAP."""
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    popcount = member.sum(axis=1)
    layers = []
    for p in range(1, n + 1):
        layer = np.flatnonzero(popcount == p)
        bits = np.nonzero(member[layer])[1].reshape(-1, p)
        pick = (np.arange(1 << (p - 1))[:, None] >> np.arange(p - 1)) & 1
        blocks = (1 << bits[:, :1]) | ((1 << bits[:, 1:]) @ pick.T)
        layers.append((layer, blocks, layer[:, None] ^ blocks))
    for a in (member, *(a for layer in layers for a in layer)):
        a.flags.writeable = False
    return member, tuple(layers)


def _min_partition_cost(
    mass: np.ndarray, pred: np.ndarray, cond: np.ndarray
) -> float:
    """Min over set partitions, with each block assigned the mass-weighted
    mean of cond over the block, of sum mass |pred - block value|.

    Subset S is the bit mask of its points.  f[S] = min over blocks T of S
    that hold S's lowest point of cost[T] + f[S - T], solved one popcount
    layer at a time: O(3^n) steps over 2^n block costs.  Which blocks
    each layer takes depends on n alone: :func:`_subset_plan` builds that
    plan at the first call on n points and keeps it (4.5 MiB at n = 12)."""
    n = len(mass)
    if n > ORACLE_CAP:
        raise OracleSizeError(f"{n} points exceed the oracle cap {ORACLE_CAP}")
    member, layers = _subset_plan(n)
    # subset sums of (mass, mass * cond), adding the points in index order
    sums = np.zeros((1 << n, 2))
    for i, row in enumerate(np.stack([mass, mass * cond], axis=1)):
        np.add(sums[: 1 << i], row, out=sums[1 << i: 2 << i])
    # the empty set (index 0) has no mass and is never a block
    value = np.concatenate([[0.0], sums[1:, 1] / sums[1:, 0]])
    # a singleton block keeps its cond exactly, not (mass * cond) / mass
    value[1 << np.arange(n)] = cond
    cost = (member * mass * np.abs(pred - value[:, None])).sum(axis=1)
    f = np.zeros(1 << n)
    for layer, blocks, rest in layers:
        f[layer] = (cost[blocks] + f[rest]).min(axis=1)
    return float(f[-1])


def dce_oracle(instance: FiniteInstance) -> float:
    """Exact distance to the nearest perfectly calibrated predictor on the
    instance's own feature space, for at most ORACLE_CAP points."""
    return _min_partition_cost(
        instance.mass, instance.pred, instance.cond_mean)


def dce_upper_oracle(joint: EmpiricalJoint) -> float:
    """Exact minimum l1 movement over calibrated post-processings of the
    joint's distinct prediction values, for at most ORACLE_CAP of them."""
    return _min_partition_cost(joint.mass, joint.vals, joint.mean)
