"""Weighted calibration error for pluggable weight families.

The central solver is :func:`smce`: the exact maximum of
|E[w(v)(y - v)]| over 1-Lipschitz w: [0,1] -> [-1,1].  On a finite support
only the weight values at the distinct predictions matter, and pairwise
Lipschitz constraints on a line are implied by consecutive ones, so the
problem is a chain LP

    maximize sum_j c_j w_j,  w_j in [-1,1],  |w_{j+1} - w_j| <= v_{j+1} - v_j

with c_j the residual mass at value v_j.  We solve it by concave
piecewise-linear dynamic programming (a sliding-window max per step), which
is exact up to float rounding and independent of any LP solver tolerance.
A generic-LP formulation (:func:`smce_lp_oracle`) serves as the
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from .empirical import EmpiricalJoint


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


def residuals(joint: EmpiricalJoint) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and their residual masses c_v = sum m (y - v)."""
    acc: dict[float, float] = {}
    for v, y, m in joint.atoms:
        acc[v] = acc.get(v, 0.0) + m * (y - v)
    vals = np.array(sorted(acc))
    return vals, np.array([acc[v] for v in vals])


def weighted_ce(joint: EmpiricalJoint, w: WeightFunction) -> float:
    """|E[w(v)(y - v)]| for a single weight function."""
    total = 0.0
    for v, y, m in joint.atoms:
        wv = w(v)
        if abs(wv) > 1.0 + 1e-12:
            raise ValueError(
                f"weight function evaluates to {wv} outside [-1, 1] at v={v}"
            )
        total += m * wv * (y - v)
    return abs(total)


# ---------------------------------------------------------------------------
# concave piecewise-linear value functions for the chain DP


class _ConcavePL:
    """Concave piecewise-linear function on [-1, 1], stored as breakpoints."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = xs
        self.ys = ys

    @staticmethod
    def linear(c: float) -> "_ConcavePL":
        xs = np.array([-1.0, 1.0])
        return _ConcavePL(xs, c * xs)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return np.interp(x, self.xs, self.ys)

    def add_linear(self, c: float) -> None:
        self.ys = self.ys + c * self.xs

    def max_value(self) -> float:
        return float(self.ys.max())

    def window_max(self, d: float) -> "_ConcavePL":
        """New function w -> max over u in [w-d, w+d] (clipped to [-1,1]).

        By concavity only breakpoints up to the argmax shift by -d and
        only those from it on by +d."""
        if d <= 0.0:
            return _ConcavePL(self.xs.copy(), self.ys.copy())
        i = int(np.argmax(self.ys))
        ustar = float(self.xs[i])
        ymax = self.max_value()
        left, right = self.xs[: i + 1] - d, self.xs[i:] + d
        bps = np.unique(
            np.clip(np.concatenate([left, right, [-1.0, 1.0]]), -1.0, 1.0)
        )
        lo = np.clip(bps - d, -1.0, 1.0)
        hi = np.clip(bps + d, -1.0, 1.0)
        ys = np.maximum(self(lo), self(hi))
        inside = (lo <= ustar) & (ustar <= hi)
        ys = np.where(inside, ymax, ys)
        return _ConcavePL(bps, ys)


def smce(joint: EmpiricalJoint) -> float:
    """Smooth calibration error: exact chain-LP optimum via concave DP."""
    vals, cs = residuals(joint)
    value = _ConcavePL.linear(float(cs[0]))
    for j in range(1, len(vals)):
        value = value.window_max(float(vals[j] - vals[j - 1]))
        value.add_linear(float(cs[j]))
    # -w is feasible whenever w is, so the optimum already dominates the
    # absolute value; it is also >= 0 because w = 0 is feasible.
    return max(value.max_value(), 0.0)


def smce_lp_oracle(joint: EmpiricalJoint, grid: int = 100) -> float:
    """Generic-LP cross-check for smce.

    Variables are weight values at the distinct predictions plus a uniform
    grid; every pair gets an explicit Lipschitz constraint.  Any feasible
    assignment extends to a 1-Lipschitz function on [0,1] (McShane
    extension clipped to [-1,1]), so the optimum equals smce exactly up to
    solver tolerance.
    """
    vals, cs = residuals(joint)
    pts = np.unique(np.concatenate([vals, np.linspace(0.0, 1.0, grid + 1)]))
    n = len(pts)
    idx = {v: np.searchsorted(pts, v) for v in vals}
    c_obj = np.zeros(n)
    for v, c in zip(vals, cs):
        c_obj[idx[v]] += c
    rows_a = []
    rows_b = []
    for i in range(n):
        for j in range(i + 1, n):
            gap = pts[j] - pts[i]
            row = np.zeros(n)
            row[i] = 1.0
            row[j] = -1.0
            rows_a.append(row)
            rows_b.append(gap)
            rows_a.append(-row)
            rows_b.append(gap)
    res = linprog(
        -c_obj,
        A_ub=np.array(rows_a),
        b_ub=np.array(rows_b),
        bounds=[(-1.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"smce oracle LP failed: {res.message}")
    return max(-res.fun, 0.0)


# ---------------------------------------------------------------------------
# other weight families


def low_degree_ce(joint: EmpiricalJoint, d: int) -> float:
    """Weighted CE over degree-d polynomials with l1 coefficient norm <= 1.

    The objective is linear in the coefficients, so the maximum sits at a
    signed monomial vertex: max over 0 <= k <= d of |E[v^k (y - v)]|.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    best = 0.0
    for k in range(d + 1):
        moment = sum(m * v**k * (y - v) for v, y, m in joint.atoms)
        best = max(best, abs(moment))
    return best


def laplace_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.exp(-np.abs(u - v))


def gaussian_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.exp(-((u - v) ** 2))


_KERNELS = {"laplace": laplace_kernel, "gaussian": gaussian_kernel}


def kernel_ce(
    joint: EmpiricalJoint,
    kernel: str | Callable[[np.ndarray, np.ndarray], np.ndarray] = "laplace",
) -> float:
    """RKHS-unit-ball maximum of E[w(v)(y - v)]: sqrt of the Gram quadratic
    form of the residual signed measure."""
    if isinstance(kernel, str) and kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    kfun = _KERNELS[kernel] if isinstance(kernel, str) else kernel
    vs = np.array([v for v, _, _ in joint.atoms])
    rs = np.array([m * (y - v) for v, y, m in joint.atoms])
    gram = kfun(vs[:, None], vs[None, :])
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() < -1e-9:
        raise ValueError(
            f"kernel Gram matrix not PSD on support (min eig {eigs.min()})"
        )
    quad = float(rs @ gram @ rs)
    return math.sqrt(max(quad, 0.0))


# ---------------------------------------------------------------------------
# earthmover distance between the joint and its Bernoulli surrogate


def emd_joints(joint: EmpiricalJoint) -> float:
    """Exact optimal-transport cost between the joint and its surrogate
    under the metric |v - v'| + |y - y'|, solved as a transport LP."""
    from .basic import surrogate_masses

    pairs = surrogate_masses(joint)
    src = [(pt, m) for pt, (m, _) in pairs.items() if m > 0.0]
    dst = [(pt, m) for pt, (_, m) in pairs.items() if m > 0.0]
    ns, nt = len(src), len(dst)
    cost = np.empty((ns, nt))
    for i, ((v1, y1), _) in enumerate(src):
        for j, ((v2, y2), _) in enumerate(dst):
            cost[i, j] = abs(v1 - v2) + abs(y1 - y2)

    a_eq = []
    b_eq = []
    for i in range(ns):
        row = np.zeros((ns, nt))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(src[i][1])
    for j in range(nt - 1):  # last column constraint is redundant
        row = np.zeros((ns, nt))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(dst[j][1])
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)
