"""Worked-example generators with their known values attached.

Each fixture bundles a finite instance with expected measure values
(value, tolerance, provenance tag) and optional interval bounds; verify()
recomputes every entry and is the golden-value regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decision import cfdl, threshold_task
from .empirical import FiniteInstance, project
from .measures import resolve


@dataclass(frozen=True)
class Fixture:
    name: str
    instance: FiniteInstance
    # measure id -> (value, tolerance, provenance tag)
    expected: dict[str, tuple[float, float, str]]
    # measure id -> (lower bound, upper bound, provenance tag)
    bounds: dict[str, tuple[float, float, str]] = field(default_factory=dict)


def evaluate(fixture: Fixture, measure: str) -> float:
    joint = project(fixture.instance)
    # a fixture-only key: cfdl against the fixed threshold-1/2 task
    if measure == "cfdl_threshold_half":
        return cfdl(joint, threshold_task(0.5))
    return resolve(measure)(joint, fixture.instance)


def verify(fixture: Fixture) -> dict[str, tuple[float, bool]]:
    """Recompute every expected value; returns measure -> (computed, ok)."""
    out: dict[str, tuple[float, bool]] = {}
    for measure, (value, tol, _) in fixture.expected.items():
        got = evaluate(fixture, measure)
        out[measure] = (got, abs(got - value) <= tol)
    for measure, (lo, hi, _) in fixture.bounds.items():
        got = evaluate(fixture, measure)
        out[measure] = (got, lo <= got <= hi)
    return out


def two_point(eps: float) -> Fixture:
    """Uniform two-point space, one point always 0, the other always 1,
    predictions straddling 1/2 by eps.  The canonical ECE discontinuity
    exhibit: nearly calibrated, yet ECE = 1/2 - eps."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps {eps} outside (0, 1/2)")
    instance = FiniteInstance.make(
        [("a", 0.5, 0.5 - eps, 0.0), ("b", 0.5, 0.5 + eps, 1.0)]
    )
    expected = {
        "ece": (0.5 - eps, 1e-12, "closed form"),
        "smce": (eps * (1.0 - 2.0 * eps) / 2.0, 1e-9, "derived: hand LP"),
    }
    if eps < 0.25:
        expected["dce"] = (eps, 1e-12, "derived: partition oracle")
    return Fixture("two_point", instance, expected)


def quadratic_gap(eps: float) -> tuple[Fixture, Fixture]:
    """Two realizations of the same prediction-label joint whose true
    distances to calibration differ quadratically.

    The joint puts mass 1/2 on each of 1/2 - delta and 1/2 + delta with
    uniformly random labels, delta = eps / (1 - 2 eps).  The fine 4-point
    realization hides a calibrated predictor only 2 eps delta away; the
    coarse 2-point realization forces the full distance delta.  The two
    projections are atomwise identical, so no joint-only measure can tell
    them apart.
    """
    if not 0.0 < eps < 0.25:
        raise ValueError(f"eps {eps} outside (0, 1/4)")
    delta = eps / (1.0 - 2.0 * eps)
    lo, hi = 0.5 - delta, 0.5 + delta
    fine = FiniteInstance.make(
        [
            ("00", 0.5 - eps, lo, lo),
            ("01", eps, lo, 1.0),
            ("10", eps, hi, 0.0),
            ("11", 0.5 - eps, hi, hi),
        ]
    )
    coarse = FiniteInstance.make(
        [("u", 0.5, lo, 0.5), ("w", 0.5, hi, 0.5)]
    )
    fix1 = Fixture(
        "quadratic_gap_fine",
        fine,
        {
            "dce": (
                2.0 * eps * delta, 1e-12, "closed form: merge middle points"
            ),
            "ece": (delta, 1e-12, "derived: recalibration to 1/2"),
        },
    )
    fix2 = Fixture(
        "quadratic_gap_coarse",
        coarse,
        {
            "dce": (delta, 1e-12, "closed form: shift both values to 1/2"),
            "ece": (delta, 1e-12, "derived: recalibration to 1/2"),
        },
    )
    return fix1, fix2


def cdl_example_1(eps: float) -> Fixture:
    """Constant-1/2 predictor against Bernoulli(1/2 + eps) labels; the
    tight example where the decision loss is twice the quadratic error."""
    if not 0.0 < eps < 0.1:
        raise ValueError(f"eps {eps} outside (0, 1/10)")
    instance = FiniteInstance.make([("x", 1.0, 0.5, 0.5 + eps)])
    return Fixture(
        "cdl_example_1",
        instance,
        {
            "ece2": (eps, 1e-12, "closed form"),
            "cdl": (2.0 * eps, 1e-9, "closed form: right limit at 1/2"),
            "ece": (eps, 1e-12, "derived: single level set"),
            "cfdl_threshold_half": (2.0 * eps, 1e-12, "closed form"),
        },
    )


def cdl_example_2(eps: float, n: int = 1000) -> Fixture:
    """Identity predictor on [eps, 1] with labels Bernoulli(x - eps),
    discretized to n mass points at subinterval midpoints; the example
    where the decision loss is quadratically below the calibration error.

    The midpoint discretization moves each support point by at most
    (1 - eps) / n, so the decision-loss scan drifts by at most that much
    per breakpoint against the continuum bound.
    """
    if not 0.0 < eps < 0.1:
        raise ValueError(f"eps {eps} outside (0, 1/10)")
    if n < 100:
        raise ValueError(f"n {n} must be >= 100")
    points = []
    for i in range(n):
        x = eps + (1.0 - eps) * (i + 0.5) / n
        points.append((f"x{i}", 1.0 / n, x, x - eps))
    instance = FiniteInstance.make(points)
    slack = 2.0 * (1.0 - eps) / n
    return Fixture(
        "cdl_example_2",
        instance,
        {"ece": (eps, 1e-12, "closed form: constant offset")},
        bounds={
            "cdl": (
                eps**2,
                eps**2 / (1.0 - eps) + slack,
                "squared-error bounds + discretization slack",
            )
        },
    )


FIXTURES = {
    "two_point": two_point,
    "quadratic_gap": quadratic_gap,
    "cdl_example_1": cdl_example_1,
    "cdl_example_2": cdl_example_2,
}
