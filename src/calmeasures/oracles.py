"""Cross-check oracles: generic solvers and brute-force enumerations that
tests compare the exact solvers against.  No measure id or subcommand
runs them.

- :func:`smce_lp_oracle` and :func:`emd_lp_oracle` are generic LPs for the
  chain LPs that :func:`~calmeasures.lipschitz.smce` and
  :func:`~calmeasures.lipschitz.emd_joints` solve by the slope trick.
- :func:`sign_witness_ce` is the weighted CE of a +-1 witness, whose
  maximum over sign patterns is :func:`~calmeasures.basic.ece`.
- :func:`restricted_growth_strings` enumerates the set partitions that the
  subset DP of the distance oracles minimizes over.

The exact distance oracles behind the ``dce`` and ``dce_upper`` measure
ids and the ``oracle`` subcommand are production paths and stay in
:mod:`calmeasures.distance`.

This is the only module that imports scipy, and it does so inside the two
LP bodies: at module level it would cost every ``import calmeasures`` and
every ``calmeasure`` process about three quarters of its import time and
45 MB of RSS.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .basic import surrogate_masses
from .empirical import EmpiricalJoint


def smce_lp_oracle(joint: EmpiricalJoint, grid: int = 100) -> float:
    """Generic-LP cross-check for smce.

    Variables are weight values at the distinct predictions plus a uniform
    grid; every pair gets an explicit Lipschitz constraint.  Any feasible
    assignment extends to a 1-Lipschitz function on [0,1] (McShane
    extension clipped to [-1,1]), so the optimum equals smce exactly up to
    solver tolerance.
    """
    from scipy.optimize import linprog

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
    from scipy.optimize import linprog

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
