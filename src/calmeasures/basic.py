"""Expected calibration error and its close relatives.

ECE is the mass-weighted mean of |E[y|v] - v| over prediction level sets.
It equals the total variation distance between the observed joint and the
surrogate joint where labels are resampled Bernoulli(v); that identity is
computed explicitly in :func:`tv_characterization` as an independent route.
"""

from __future__ import annotations

import numpy as np

from .empirical import EmpiricalJoint, left_sum


def ece(joint: EmpiricalJoint) -> float:
    """Sum over distinct v of mass(v) * |E[y|v] - v|: ece_q at q = 1."""
    return ece_q(joint, 1.0)


def ece_q(joint: EmpiricalJoint, q: float) -> float:
    """L^q version: E[|E[y|v] - v|^q]^(1/q), for finite q >= 1; the
    one-row call of :func:`ece_q_rows`."""
    return float(ece_q_rows(joint.vals, joint.m0[None], joint.m1[None], q)[0])


def ece_q_rows(
    vals: np.ndarray, m0: np.ndarray, m1: np.ndarray, q: float
) -> np.ndarray:
    """ece_q of each row's joint: row r puts the label masses m0[r, i] and
    m1[r, i] on the prediction vals[i], and a level of mass 0.0 in a row is
    not in that row's joint.

    The per-level terms of each row are added from the left, in level
    order, by one :func:`~calmeasures.empirical.left_sum` over the rows: a
    row's absent levels add +0.0, so each row's value is its joint's, bit
    for bit.  The final power is a Python float power, as for one joint."""
    check_q(q)
    mass, mean = EmpiricalJoint.row_mass_mean(m0, m1)
    totals = left_sum(mass * np.abs(mean - vals) ** q)
    return np.array([total ** (1.0 / q) for total in totals.tolist()])


def check_q(q: float) -> float:
    """``q`` if :func:`ece_q_rows` takes it, else ValueError."""
    if not 1.0 <= q < np.inf:
        raise ValueError(f"q must be finite and >= 1, got {q}")
    return q


def tv_characterization(joint: EmpiricalJoint) -> float:
    """Total variation between the joint and its Bernoulli surrogate, from
    the per-label masses and not the mean column.  Equals ece(joint); the
    one-row call of :func:`tv_rows`."""
    return float(tv_rows(joint.vals, joint.m0[None], joint.m1[None])[0])


def tv_rows(vals: np.ndarray, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """tv_characterization of each row's joint, rows as for
    :func:`ece_q_rows`.  The gaps of each level's atoms (v, 1) and (v, 0)
    are added from the left, level by level, by one
    :func:`~calmeasures.empirical.left_sum` over the rows."""
    mass = m0 + m1
    return 0.5 * left_sum(np.abs(m1 - mass * vals),
                          np.abs(m0 - mass * (1.0 - vals)))


def bucket_midpoint(v, b: int):
    """Midpoint of v's bucket (or of each of an array of v's) in the b-way
    equal partition of [0, 1].

    Bucket j is [j/b, (j+1)/b), the last one closed, with v compared to
    the edges j/b as doubles, as in ``IntervalPartition.uniform(b)``: v*b
    can round across an edge (0.29*100 is 28.999999999999996), so its
    floor is moved down where j/b > v and up where (j+1)/b <= v.
    """
    j = np.floor(np.multiply(v, b))
    j -= j / b > v
    j += (j + 1) / b <= v
    return (np.minimum(j, b - 1) + 0.5) / b


def binned_ece(joint: EmpiricalJoint, b: int) -> float:
    """ECE after rounding every prediction to its bucket midpoint.

    Reproduces the classic odd/even bucket-count oscillation on nearly
    calibrated predictors straddling a bucket boundary.
    """
    check_buckets(b)
    return ece(joint.with_values(bucket_midpoint(joint.vals, b)))


def check_buckets(b: int) -> int:
    """``b`` if :func:`binned_ece` takes it, else ValueError."""
    if b < 1:
        raise ValueError(f"number of buckets must be >= 1, got {b}")
    return b
