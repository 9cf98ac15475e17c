"""The smCE/EMD chain DP, solved in its dual by the slope trick, and
``intce_opt`` on merged grid cells with pruned caps and windowed starts,
each against the code it replaced.

The references are in-test copies of that code: the concave
piecewise-linear DP that rebuilt its breakpoint array at every level, the
interval DP over single prediction values, and the cell DP run for every
width cap over every group start.
"""

import heapq
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from calmeasures import (
    EmpiricalJoint,
    IntervalPartition,
    ece,
    emd_joints,
    from_samples,
    intce_opt,
    lipschitz,
    smce,
)
from calmeasures.lipschitz import _chain_dp, residuals


class ConcavePL:
    """Concave piecewise-linear function on [-1, 1], stored as breakpoints."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def window_max(self, d):
        i = int(np.argmax(self.ys))
        ustar, ymax = float(self.xs[i]), float(self.ys.max())
        left, right = self.xs[: i + 1] - d, self.xs[i:] + d
        bps = np.unique(
            np.clip(np.concatenate([left, right, [-1.0, 1.0]]), -1.0, 1.0)
        )
        lo = np.clip(bps - d, -1.0, 1.0)
        hi = np.clip(bps + d, -1.0, 1.0)
        ys = np.maximum(self(lo), self(hi))
        inside = (lo <= ustar) & (ustar <= hi)
        return ConcavePL(bps, np.where(inside, ymax, ys))


def concave_pl_chain_dp(vals, cs, lipschitz):
    xs = np.array([-1.0, 1.0])
    value = ConcavePL(xs, float(cs[0]) * xs)
    for j in range(1, len(vals)):
        value = value.window_max(lipschitz * float(vals[j] - vals[j - 1]))
        value.ys = value.ys + float(cs[j]) * value.xs
    return max(float(value.ys.max()), 0.0)


def per_value_intce(joint, g):
    vals, rs = residuals(joint)
    m = len(vals)
    cells = IntervalPartition.uniform(g).indices(vals)
    sep = cells[:-1] < cells[1:]
    prefix = np.concatenate([[0.0], np.cumsum(rs)])
    req = (cells[None, :] - cells[:, None] + 1) / g
    cost = np.abs(prefix[None, 1:] - prefix[:-1, None])
    can_start = np.concatenate([[True], sep])
    caps = np.unique(req[np.triu_indices(m)])
    dp = np.full((len(caps), m + 1), np.inf)
    dp[:, 0] = 0.0
    for j in np.flatnonzero(np.concatenate([sep, [True]])):
        fits = can_start[: j + 1] & (req[: j + 1, j] <= caps[:, None] + 1e-15)
        cand = np.where(fits, dp[:, : j + 1] + cost[: j + 1, j], np.inf)
        dp[:, j + 1] = cand.min(axis=1)
    return float((dp[:, m] + caps).min())


def full_cap_intce(joint, g):
    """intce_opt's cell DP run for every width cap over every group start."""
    vals, rs = residuals(joint)
    cells, row = np.unique(IntervalPartition.uniform(g).indices(vals),
                           return_inverse=True)
    m = len(cells)
    prefix = np.concatenate([[0.0], np.cumsum(np.bincount(row, rs))])
    req = (cells[None, :] - cells[:, None] + 1) / g
    cost = np.abs(prefix[None, 1:] - prefix[:-1, None])
    caps = np.unique(req[np.triu_indices(m)])
    dp = np.full((len(caps), m + 1), np.inf)
    dp[:, 0] = 0.0
    for j in range(m):
        fits = req[: j + 1, j] <= caps[:, None] + 1e-15
        cand = np.where(fits, dp[:, : j + 1] + cost[: j + 1, j], np.inf)
        dp[:, j + 1] = cand.min(axis=1)
    return float((dp[:, m] + caps).min())


def joint_of(p, y, w=None):
    p, y = np.asarray(p, float).tolist(), np.asarray(y, int).tolist()
    if w is None:
        return from_samples(list(zip(p, y)))
    return EmpiricalJoint.make(list(zip(p, y, np.asarray(w).tolist())))


def seeded_joints(sizes, seed):
    """Float scores with weights, their nextafter neighbours, 2-decimal
    grids, 0 and 1 among few values, one label per level, one level."""
    rng = np.random.default_rng(seed)
    joints = []
    for k in sizes:
        p = rng.random(k)
        joints.append(joint_of(p, rng.random(k) < p, rng.random(k) ** 3))
        half = rng.random(max(k // 2, 1))
        p = np.concatenate([half, np.nextafter(half, 1.0),
                            np.nextafter(half, 0.0)])[:k]
        joints.append(joint_of(p, rng.random(len(p)) < 0.4))
        p = np.round(rng.random(5 * k), 2)
        joints.append(joint_of(p, rng.random(5 * k) < p ** 2))
        p = rng.choice([0.0, 1.0, 0.5, rng.random()], 3 * k)
        joints.append(joint_of(p, rng.random(3 * k) < 0.5))
        p = rng.beta(2.0, 3.0, k)
        joints.append(joint_of(p, rng.random(k) < 0.5))
    for p, y in [([0.0], [1]), ([1.0], [0]), ([0.3], [1]), ([0.3], [0]),
                 ([0.0, 1.0], [1, 0]), ([0.0, 1.0], [0, 1])]:
        joints.append(joint_of(p, y))
    return joints


def beta_scores(k, seed):
    rng = np.random.default_rng(seed)
    p = rng.beta(2.0, 3.0, k)
    return joint_of(p, rng.random(k) < p)


@pytest.mark.parametrize("lipschitz, measure", [(1, smce), (2, emd_joints)])
def test_chain_dp_matches_concave_pl_dp(lipschitz, measure):
    for joint in seeded_joints((1, 2, 3, 8, 40, 300, 1000), seed=9):
        ref = concave_pl_chain_dp(*residuals(joint), lipschitz)
        assert abs(measure(joint) - ref) <= 1e-12


def test_chain_dp_matches_on_single_residuals():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 50):
        vals = np.sort(rng.random(k))
        for cs in (rng.normal(size=k), np.zeros(k), -np.abs(rng.random(k))):
            for lipschitz in (1, 2):
                ref = concave_pl_chain_dp(vals, cs, lipschitz)
                assert abs(_chain_dp(vals, cs, lipschitz) - ref) <= 1e-12


def test_inequalities_at_1e5_distinct_scores():
    joint = beta_scores(10**5, seed=5)
    assert len(joint.vals) == 10**5
    s, e = smce(joint), emd_joints(joint)
    assert e / 2.0 <= s + 1e-12
    assert s <= e + 1e-12
    assert s <= ece(joint) + 1e-12


def test_chain_dp_time_grows_near_linearly(monkeypatch):
    """Each kink enters each heap once and leaves it at most once, so a
    solve makes 2 (k - 1) pushes (the first kink starts in both heaps) and
    at most 2k pops, each O(log k): counted, not timed, at k and 4k."""
    counts = {"push": 0, "pop": 0}

    def push(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def pop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(lipschitz, "heapq",
                        SimpleNamespace(heappush=push, heappop=pop))
    for k in (10**4, 4 * 10**4):
        counts.update(push=0, pop=0)
        _chain_dp(*residuals(beta_scores(k, seed=k)), 1)
        assert counts["push"] == 2 * (k - 1)
        assert counts["pop"] <= 2 * k


@pytest.mark.parametrize("g", [2, 7, 1000])
def test_intce_on_merged_cells_matches_per_value_dp(g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for joint in seeded_joints((1, 2, 3, 8, 40, 200), seed=g):
            ref = per_value_intce(joint, g)
            assert abs(intce_opt(joint, g) - ref) <= 1e-12


def window_edge_joints(sizes, g, seed):
    """Every residual zero (the value is 1/g), all scores in one grid cell,
    and every label 1 (the window spans the grid)."""
    rng = np.random.default_rng(seed)
    joints = [joint_of([0.25] * 4 + [0.5] * 8 + [0.75] * 4,
                       [1, 0, 0, 0] + [1, 0] * 4 + [1, 1, 1, 0])]
    for k in sizes:
        p = (int(rng.integers(g)) + 0.99 * rng.random(k)) / g
        joints.append(joint_of(p, rng.random(k) < p))
        joints.append(joint_of(rng.random(k), np.ones(k)))
    return joints


@pytest.mark.parametrize("g", [2, 7, 1000])
def test_pruned_windowed_intce_matches_full_cap_dp_bit_for_bit(g):
    sizes = (1, 2, 3, 8, 40, 200, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        edge = window_edge_joints(sizes, g, seed=g)
        assert intce_opt(edge[0], g) == 1 / g
        for joint in seeded_joints(sizes, seed=g) + edge:
            assert intce_opt(joint, g).hex() == full_cap_intce(joint, g).hex()
