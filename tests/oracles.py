"""References that the tests check the library against.  No measure id,
subcommand or script reaches them, so they live with the tests and scipy
is a test dependency only.  Each name and the fact it checks:

- :func:`smce_lp_oracle` and :func:`emd_lp_oracle` are generic LPs for the
  chain LPs that :func:`~calmeasures.lipschitz.smce` and
  :func:`~calmeasures.lipschitz.emd_joints` solve by the slope trick:
  each value equals its LP's optimum.
- :func:`sign_witness_ce` is the weighted CE of a +-1 witness, whose
  maximum over sign patterns is :func:`~calmeasures.basic.ece`.
- :func:`restricted_growth_strings` enumerates the set partitions that the
  subset DP of the distance oracles minimizes over.
- :func:`interval_ce_brute` is the interval CE over every grouping of
  consecutive levels, which :func:`~calmeasures.distance.intce_opt` bounds
  from above, within 2/g when no grid cell holds two predictions.
- :func:`surrogate_masses` gives the Bernoulli surrogate of a joint, the
  target of :func:`emd_lp_oracle`'s transport; both its columns are
  probability distributions.
- :class:`WeightFunction` and :func:`weighted_ce` give the CE of one
  weight function: smce dominates every 1-Lipschitz weight in [-1, 1].
- :func:`expected_payoff` is a policy's payoff on a joint: on a calibrated
  joint no policy beats the per-value best response.
- :func:`task_bregman` is the Bregman divergence of a task's convex
  potential, the max of its payoff lines: >= 0 for every task.
  :func:`cfdl_bregman` sums it over the level sets, weighted by mass: it
  equals :func:`~calmeasures.decision.cfdl`, the payoff route.
- :func:`v_divergence` is the Bregman divergence of |v - vstar|: the
  threshold task's cfdl is their mass-weighted sum, and cdl their sup.
- :class:`CanonicalPredictor` and :func:`canonical_predictor` map each
  interval to its conditional mean: the post-processed joint is
  calibrated, and its movement is at most the interval CE plus the width.
- :func:`recalibrated_joint` moves each level to its mean label: the result
  is perfectly calibrated.

The exact distance oracles behind the ``dce`` and ``dce_upper`` measure
ids and the ``oracle`` subcommand are production paths and stay in
:mod:`calmeasures.distance`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np
from scipy.optimize import linprog

from calmeasures.decision import DecisionTask, _best_responses
from calmeasures.distance import IntervalPartition
from calmeasures.empirical import EmpiricalJoint, left_sum
from calmeasures.lipschitz import residuals


def smce_lp_oracle(joint: EmpiricalJoint, grid: int = 100) -> float:
    """Generic-LP cross-check for smce.

    Variables are weight values at the distinct predictions plus a uniform
    grid; every pair gets an explicit Lipschitz constraint.  Any feasible
    assignment extends to a 1-Lipschitz function on [0,1] (McShane
    extension clipped to [-1,1]), so the optimum equals smce exactly up to
    solver tolerance.
    """
    vals, cs = joint.vals, joint.residual
    pts = np.unique(np.concatenate([vals, np.linspace(0.0, 1.0, grid + 1)]))
    n = len(pts)
    c_obj = np.zeros(n)
    c_obj[np.searchsorted(pts, vals)] = cs
    # w_i - w_j <= gap and w_j - w_i <= gap for every pair i < j
    i, j = np.triu_indices(n, 1)
    rows = np.eye(n)[i] - np.eye(n)[j]
    res = linprog(
        -c_obj,
        A_ub=np.stack([rows, -rows], axis=1).reshape(-1, n),
        b_ub=np.repeat(pts[j] - pts[i], 2),
        bounds=[(-1.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"smce oracle LP failed: {res.message}")
    return max(-res.fun, 0.0)


def emd_lp_oracle(joint: EmpiricalJoint) -> float:
    """Dense transport-LP cross-check for emd_joints: the optimal-transport
    cost between the joint and its surrogate under |v - v'| + |y - y'|,
    with one variable per (source, target) pair."""
    pairs = surrogate_masses(joint)
    pts = np.array(list(pairs), dtype=float)
    src, dst = np.array(list(pairs.values())).T
    s, t = src > 0.0, dst > 0.0
    cost = np.abs(pts[s][:, None, :] - pts[t][None, :, :]).sum(axis=2)
    ns, nt = cost.shape
    # row sums are the source masses, column sums the target masses; the
    # last column constraint is redundant
    a_eq = np.vstack([np.kron(np.eye(ns), np.ones(nt)),
                      np.kron(np.ones(ns), np.eye(nt))[:-1]])
    b_eq = np.concatenate([src[s], dst[t][:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def sign_witness_ce(joint: EmpiricalJoint, signs: dict[float, int]) -> float:
    """E[b(v)(y - v)] for a +-1 witness b given per distinct value.

    The maximum over all sign patterns equals ece(joint).
    """
    return sum(signs[v] * m * (y - v) for v, y, m in joint.atoms)


def restricted_growth_strings(n: int) -> Iterator[list[int]]:
    """All set partitions of n items as block-id arrays a with a[0] = 0 and
    a[i] <= max(a[:i]) + 1, each a fresh list."""
    a = [0] * n

    def rec(i: int, top: int) -> Iterator[list[int]]:
        if i == n:
            yield a.copy()
            return
        for block in range(top + 2):
            a[i] = block
            yield from rec(i + 1, max(top, block))

    if n == 0:
        yield []
        return
    yield from rec(1, 0)


def interval_ce_brute(joint: EmpiricalJoint) -> float:
    """Least sum over groups of |sum of the residuals c_v| plus the widest
    group's span, max v - min v, over the 2^(k-1) groupings of the k
    levels into runs of consecutive predictions; k <= 12."""
    vals, rs = (col.tolist() for col in residuals(joint))
    k = len(vals)
    if k > 12:
        raise ValueError(f"{k} levels, more than 12")
    best = float("inf")
    for cuts in itertools.product((False, True), repeat=k - 1):
        ends = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), k]
        runs = list(zip(ends, ends[1:]))
        ce = sum(abs(sum(rs[a:b])) for a, b in runs)
        best = min(best, ce + max(vals[b - 1] - vals[a] for a, b in runs))
    return best


def surrogate_masses(
    joint: EmpiricalJoint,
) -> dict[tuple[float, int], tuple[float, float]]:
    """Per support point (v, y): (observed mass, Bernoulli-surrogate mass).

    The surrogate splits each level set's mass v : (1 - v) between labels.
    """
    out = {}
    cols = (joint.vals, joint.m0, joint.m1, joint.mass)
    for v, m0, m1, mass in zip(*(col.tolist() for col in cols)):
        out[(v, 1)], out[(v, 0)] = (m1, mass * v), (m0, mass * (1.0 - v))
    return out


@dataclass(frozen=True)
class WeightFunction:
    """Black-box weight evaluator with a declared Lipschitz bound.

    lipschitz=None means "bounded-only": no smoothness is claimed.
    """

    fn: Callable[[float], float]
    lipschitz: float | None = None
    name: str = "custom"

    def __call__(self, v: float) -> float:
        return self.fn(v)


def weighted_ce(joint: EmpiricalJoint, w: WeightFunction) -> float:
    """|E[w(v)(y - v)]| for a single weight function."""
    vals, rs = residuals(joint)
    ws = [w(v) for v in vals.tolist()]
    for v, wv in zip(vals.tolist(), ws):
        if abs(wv) > 1.0 + 1e-12:
            raise ValueError(
                f"weight function evaluates to {wv} outside [-1, 1] at v={v}"
            )
    return abs(left_sum(np.multiply(ws, rs)))


def expected_payoff(
    joint: EmpiricalJoint,
    task: DecisionTask,
    policy: Mapping[float, int] | Callable[[float], int],
) -> float:
    """E[u(policy(v), y)] over the joint; the policy is asked once per
    distinct prediction."""
    vals = joint.vals.tolist()
    acts = [(policy if callable(policy) else policy.get)(v) for v in vals]
    if None in acts:
        v = vals[acts.index(None)]
        raise ValueError(f"policy undefined on support value {v}")
    u = task.payoff_matrix()[acts]
    return left_sum(joint.m0 * u[:, 0], joint.m1 * u[:, 1])


def task_bregman(task: DecisionTask, mean: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """phi(mean) - phi(v) - g (mean - v) at each pair of entries, with
    phi(x) = max_a u(a,0) + (u(a,1) - u(a,0)) x the task's convex potential
    and g the slope u(a,1) - u(a,0) of the best response a to v (lowest
    index at a tie), a subgradient of phi at v; so each entry is >= 0.
    The lines are scored in blocks of ~2^20 payoffs."""
    u = task.payoff_matrix()
    slope = u[:, 1] - u[:, 0]

    def phi(x):
        return np.concatenate([
            (u[:, 0] + np.outer(b, slope)).max(axis=1)
            for b in np.array_split(x, max(1, len(x) * len(u) >> 20))
        ])

    g = slope[_best_responses(u, v)]
    return phi(mean) - phi(v) - g * (mean - v)


def cfdl_bregman(joint: EmpiricalJoint, task: DecisionTask) -> float:
    """Fixed decision loss as the sum over level sets of mass times the
    task's Bregman divergence between the recalibrated value and the
    prediction: the Bregman route to :func:`~calmeasures.decision.cfdl`."""
    div = task_bregman(task, joint.mean, joint.vals)
    return left_sum(joint.mass * div)


def v_divergence(vstar: float, v1: float, v2: float) -> float:
    """Bregman divergence of |v - vstar|: 2|v1 - vstar| when vstar lies in
    the half-open interval between v1 and v2 (open at min, closed at max),
    else 0."""
    for arg in (vstar, v1, v2):
        if not 0.0 <= arg <= 1.0:
            raise ValueError(f"argument {arg} outside [0, 1]")
    lo, hi = min(v1, v2), max(v1, v2)
    if lo < vstar <= hi:
        return 2.0 * abs(v1 - vstar)
    return 0.0


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
        return joint.with_values(self._at(joint.vals))

    def l1_shift(self, joint: EmpiricalJoint) -> float:
        """E|v - q_B(v)| under the joint: the movement to calibration."""
        d = np.abs(joint.vals - self._at(joint.vals))
        return left_sum(joint.m0 * d, joint.m1 * d)

    def _at(self, vs: np.ndarray) -> np.ndarray:
        """q_B(v) for each of an array of values in [0, 1]."""
        return np.asarray(self.values)[self.partition.indices(vs)]


def canonical_predictor(
    joint: EmpiricalJoint, part: IntervalPartition
) -> CanonicalPredictor:
    j = part.indices(joint.vals)
    mass = np.bincount(j, joint.mass, len(part)).tolist()
    ymass = np.bincount(j, joint.mass * joint.mean, len(part)).tolist()
    values = tuple(
        y / m if m > 0.0 else part.midpoint(i)
        for i, (m, y) in enumerate(zip(mass, ymass))
    )
    return CanonicalPredictor(part, values)


def recalibrated_joint(joint: EmpiricalJoint) -> EmpiricalJoint:
    """Replace each atom's prediction by its recalibrated value and re-merge."""
    return joint.with_values(joint.mean)
