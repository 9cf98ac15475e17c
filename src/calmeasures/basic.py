"""Expected calibration error and its close relatives.

ECE is the mass-weighted mean of |E[y|v] - v| over prediction level sets.
It equals the total variation distance between the observed joint and the
surrogate joint where labels are resampled Bernoulli(v); that identity is
computed explicitly in :func:`tv_characterization` as an independent route.
"""

from __future__ import annotations

from .empirical import EmpiricalJoint


def ece(joint: EmpiricalJoint) -> float:
    """Sum over distinct v of mass(v) * |E[y|v] - v|."""
    return sum(
        mass * abs(mean - v)
        for v, (mass, mean) in joint.level_sets().items()
    )


def ece_q(joint: EmpiricalJoint, q: float) -> float:
    """L^q version: E[|E[y|v] - v|^q]^(1/q).  Nondecreasing in q >= 1."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    total = sum(
        mass * abs(mean - v) ** q
        for v, (mass, mean) in joint.level_sets().items()
    )
    return total ** (1.0 / q)


def surrogate_masses(
    joint: EmpiricalJoint,
) -> dict[tuple[float, int], tuple[float, float]]:
    """Per support point (v, y): (observed mass, Bernoulli-surrogate mass).

    The surrogate splits each level set's mass v : (1 - v) between labels.
    """
    obs: dict[tuple[float, int], float] = {}
    for v, y, m in joint.atoms:
        obs[(v, y)] = obs.get((v, y), 0.0) + m
    out: dict[tuple[float, int], tuple[float, float]] = {}
    for v, (mass, _) in joint.level_sets().items():
        for y, share in ((1, v), (0, 1.0 - v)):
            out[(v, y)] = (obs.get((v, y), 0.0), mass * share)
    return out


def tv_characterization(joint: EmpiricalJoint) -> float:
    """Total variation between the joint and its Bernoulli surrogate,
    computed by explicit per-atom mass comparison.  Equals ece(joint)."""
    return 0.5 * sum(
        abs(a - b) for a, b in surrogate_masses(joint).values()
    )


def bucket_midpoint(v: float, b: int) -> float:
    """Midpoint of v's bucket in the b-way equal partition of [0, 1].

    Buckets are [(j-1)/b, j/b), the last one closed.
    """
    j = min(int(v * b), b - 1)
    return (j + 0.5) / b


def binned_ece(joint: EmpiricalJoint, b: int) -> float:
    """ECE after rounding every prediction to its bucket midpoint.

    Reproduces the classic odd/even bucket-count oscillation on nearly
    calibrated predictors straddling a bucket boundary.
    """
    if b < 1:
        raise ValueError(f"number of buckets must be >= 1, got {b}")
    rounded = EmpiricalJoint.make(
        (bucket_midpoint(v, b), y, m) for v, y, m in joint.atoms
    )
    return ece(rounded)


def sign_witness_ce(joint: EmpiricalJoint, signs: dict[float, int]) -> float:
    """E[b(v)(y - v)] for a +-1 witness b given per distinct value.

    The maximum over all sign patterns equals ece(joint); used by tests as
    a brute-force oracle.
    """
    return sum(
        signs[v] * m * (y - v) for v, y, m in joint.atoms
    )


__all__ = [
    "ece",
    "ece_q",
    "tv_characterization",
    "binned_ece",
    "bucket_midpoint",
    "surrogate_masses",
    "sign_witness_ce",
]
