"""Weighted calibration error over classes of weight functions.

The central solver is :func:`smce`: the exact maximum of
|E[w(v)(y - v)]| over 1-Lipschitz w: [0,1] -> [-1,1].  On a finite support
only the weight values at the distinct predictions matter, and pairwise
Lipschitz constraints on a line are implied by consecutive ones, so the
problem is a chain LP

    maximize sum_j c_j w_j,  w_j in [-1,1],  |w_{j+1} - w_j| <= v_{j+1} - v_j

with c_j the residual mass at value v_j.  We solve its dual, the least cost
of settling the residual masses along the chain, by dynamic programming on
a convex piecewise-linear value function (the slope trick): each level adds
one kink and cuts the slopes back to [-1, 1], which takes weight off the
two ends of the kinks, so two heaps of kinks give O(k log k) time.  It is
exact up to float rounding and does not depend on any LP solver tolerance.
The earthmover distance to the Bernoulli surrogate (:func:`emd_joints`) is
the same chain LP with the gaps doubled.  The tests check both against
generic LPs (``tests/oracles.py``).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .empirical import EmpiricalJoint, left_sum


def residuals(joint: EmpiricalJoint) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and their residual masses c_v = sum m (y - v)."""
    return joint.vals, joint.residual


def _chain_dp(vals: np.ndarray, cs: np.ndarray, lipschitz: int) -> float:
    """max sum_j c_j w_j over w_j in [-1, 1] with |w_{j+1} - w_j| <= d_j =
    lipschitz * (v_{j+1} - v_j), solved in its dual by the slope trick.

    By LP duality the optimum is the least cost of settling the residuals:
    moving mass across gap j costs d_j per unit, and making or dropping it
    costs 1.  With C_j the prefix sums of c and g_j the mass dropped up to
    level j, that is the least sum_{j<=k} |g_j - g_{j-1}| + sum_{j<k} d_j
    |C_j - g_j| over g with g_0 = 0 and g_k = C_k.  Its value function,
    G_1 = |.| and G_{j+1} = (G_j + d_j |. - C_j|) inf-convolved with |.|,
    is convex and piecewise linear with slopes in [-1, 1]: each level adds
    a kink of weight 2 d_j at C_j, and the inf-convolution cuts weight d_j
    off each end of the kinks.  Two heaps hold the kinks, lowest and
    highest first, with shared weights.  ``value`` is G(C_k): a cut of
    weight w at x lowers it by w (x - C_k) from the low end if x > C_k, and
    by w (C_k - x) from the high end if x < C_k.  Each kink enters each
    heap once and leaves it at most once, so a solve takes O(k log k) time
    and O(k) memory.
    """
    prefix = np.cumsum(cs).tolist()
    end = prefix.pop()
    weight = [2.0]
    low, high = [(0.0, 0)], [(0.0, 0)]  # (x, id) and (-x, id)
    value = abs(end)
    for x, d in zip(prefix, (lipschitz * np.diff(vals)).tolist()):
        weight.append(2.0 * d)
        heapq.heappush(low, (x, len(weight) - 1))
        heapq.heappush(high, (-x, len(weight) - 1))
        value += d * abs(x - end)
        for heap, s in ((low, 1.0), (high, -1.0)):
            cut = d
            while cut > 0.0:
                y, i = heap[0]
                w = min(weight[i], cut)
                weight[i] -= w
                cut -= w
                value -= w * max(0.0, y - s * end)
                if weight[i] == 0.0:
                    heapq.heappop(heap)
    # -w is feasible whenever w is, so the optimum already dominates the
    # absolute value; it is >= 0, and max() drops rounding below it
    return max(value, 0.0)


def smce(joint: EmpiricalJoint) -> float:
    """Smooth calibration error: exact chain-LP optimum via its dual DP."""
    return _chain_dp(*residuals(joint), lipschitz=1)


def emd_joints(joint: EmpiricalJoint) -> float:
    """Exact optimal-transport cost between the joint and its Bernoulli
    surrogate under |v - v'| + |y - y'|.  By Kantorovich duality it is the
    max of sum_v c_v (f(v, 1) - f(v, 0)) over 1-Lipschitz f, and the
    differences w = f(., 1) - f(., 0) are exactly the 2-Lipschitz
    w: [0,1] -> [-1,1] (take f(v, y) = (y - 1/2) w(v))."""
    return _chain_dp(*residuals(joint), lipschitz=2)


# ---------------------------------------------------------------------------
# other weight families


def low_degree_ce(joint: EmpiricalJoint, d: int) -> float:
    """Weighted CE over degree-d polynomials with l1 coefficient norm <= 1.

    The objective is linear in the coefficients, so the maximum sits at a
    signed monomial vertex: max over 0 <= k <= d of |E[v^k (y - v)]|, each
    a row of one :func:`~calmeasures.empirical.left_sum` of level terms.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    vals, rs = joint.vals, joint.residual
    sums = left_sum(np.array([vals**k * rs for k in range(d + 1)]))
    return float(np.abs(sums).max())


def laplace_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.exp(-np.abs(u - v))


def gaussian_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.exp(-((u - v) ** 2))


_KERNELS = {"laplace": laplace_kernel, "gaussian": gaussian_kernel}


def kernel_ce(joint: EmpiricalJoint, kernel: str = "laplace") -> float:
    """RKHS-unit-ball maximum of E[w(v)(y - v)]: sqrt of the Gram quadratic
    form of the residual signed measure on the distinct predictions.

    ``kernel`` names a built-in kernel, ``"laplace"`` or ``"gaussian"``.
    Both are positive definite, so the form is >= 0 up to rounding.  The
    form sum_i r_i sum_j K_ij r_j is added by
    :func:`~calmeasures.empirical.left_sum`, each inner sum first, with no
    BLAS product.  The Gram matrix is rebound to its product with r, so at
    most two k x k arrays are alive at once."""
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    vs, rs = residuals(joint)
    gram = _KERNELS[kernel](vs[:, None], vs[None, :]) * rs
    quad = left_sum(rs * left_sum(gram))
    return math.sqrt(max(quad, 0.0))

