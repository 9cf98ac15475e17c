"""Decision-theoretic calibration error.

A decision task is a finite action set with [0,1]-bounded payoffs over the
two outcomes.  The payoff lost by best-responding to a miscalibrated
predictor instead of its recalibration is the fixed decision loss; its
supremum over all bounded tasks reduces to a one-dimensional scan over
V-shaped divergences, which is how :func:`cdl` evaluates it exactly.

The fixed decision loss is computed by two independent routes: directly
from expected payoffs (:func:`cfdl`) and through the Bregman divergence of
the task's induced convex potential (:func:`cfdl_bregman`).  The two agree
identically; the pairing is the module's central consistency check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .empirical import EmpiricalJoint, recalibrate


@dataclass(frozen=True)
class DecisionTask:
    """Finite action set with payoff u(a, y) in [0, 1]."""

    actions: tuple[str, ...]
    payoff: tuple[tuple[float, float], ...]  # rows (u(a,0), u(a,1))

    def __post_init__(self):
        if not self.actions:
            raise ValueError("decision task needs at least one action")
        if len(self.payoff) != len(self.actions):
            raise ValueError("one payoff row per action required")
        for row in self.payoff:
            for u in row:
                if not 0.0 <= u <= 1.0:
                    raise ValueError(f"payoff {u} outside [0, 1]")

    def payoff_matrix(self) -> np.ndarray:
        return np.array(self.payoff)

    @staticmethod
    def from_json(path: str | Path) -> "DecisionTask":
        with open(path) as fh:
            data = json.load(fh)
        try:
            return DecisionTask(
                tuple(str(a) for a in data["actions"]),
                tuple((float(r[0]), float(r[1])) for r in data["payoff"]),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed task file {path}: {exc!r}") from exc


def threshold_task(vstar: float) -> DecisionTask:
    """Two-action task whose best response switches at vstar.

    Its induced potential is the V-shaped |v - vstar| scaled into the
    [0,1]-payoff family (up to an affine shift, which leaves the fixed
    decision loss unchanged).
    """
    if not 0.0 <= vstar <= 1.0:
        raise ValueError(f"vstar {vstar} outside [0, 1]")
    scale = max(vstar, 1.0 - vstar, 1e-300)
    return DecisionTask(
        ("low", "high"),
        ((vstar / scale, 0.0), (0.0, (1.0 - vstar) / scale)),
    )


def quadratic_task(grid: int = 1000) -> DecisionTask:
    """Quadratic-payoff task u(a, y) = 1 - (a - y)^2 on a uniform action
    grid; its best response is (grid-rounded) identity."""
    a = np.linspace(0.0, 1.0, grid + 1)
    return DecisionTask(
        tuple(f"{x:.6g}" for x in a),
        tuple((1.0 - x**2, 1.0 - (x - 1.0) ** 2) for x in a),
    )


def best_response(task: DecisionTask, v: float) -> int:
    """argmax_a of v u(a,1) + (1-v) u(a,0); ties -> lowest action index."""
    u = task.payoff_matrix()
    scores = v * u[:, 1] + (1.0 - v) * u[:, 0]
    return int(np.argmax(scores))  # argmax returns the first maximizer


def expected_payoff(
    joint: EmpiricalJoint,
    task: DecisionTask,
    policy: Mapping[float, int] | Callable[[float], int],
) -> float:
    """E[u(policy(v), y)] over the joint's atoms."""
    u = task.payoff_matrix()
    total = 0.0
    for v, y, m in joint.atoms:
        if callable(policy):
            a = policy(v)
        else:
            try:
                a = policy[v]
            except KeyError:
                raise ValueError(f"policy undefined on support value {v}")
        total += m * u[a, y]
    return total


def cfdl(joint: EmpiricalJoint, task: DecisionTask) -> float:
    """Payoff gained by best-responding to the recalibration instead of
    the raw predictions."""
    phat = recalibrate(joint).as_dict()
    u = task.payoff_matrix()
    br: dict[float, int] = {}

    def respond(v: float) -> int:
        if v not in br:
            br[v] = best_response(task, v)
        return br[v]

    total = 0.0
    for v, y, m in joint.atoms:
        total += m * (u[respond(phat[v]), y] - u[respond(v), y])
    return total


# ---------------------------------------------------------------------------
# convex potentials and Bregman divergences


@dataclass(frozen=True)
class ConvexPotential:
    """Piecewise-linear convex function on [0, 1].

    breakpoints are segment boundaries 0 = b_0 < ... < b_k = 1; slopes has
    one nondecreasing entry per segment.  subgrad_rule, when set, overrides
    the default subgradient selection (used by task potentials to keep the
    tie-breaking consistent with the best response).
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    value0: float = 0.0
    subgrad_rule: Callable[[float], float] | None = None

    def __post_init__(self):
        bs, ss = self.breakpoints, self.slopes
        if len(bs) < 2 or bs[0] != 0.0 or bs[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(ss) != len(bs) - 1:
            raise ValueError("one slope per segment required")
        if any(s2 < s1 - 1e-12 for s1, s2 in zip(ss, ss[1:])):
            raise ValueError("slopes must be nondecreasing (convexity)")

    def _segment(self, v: float) -> int:
        bs = self.breakpoints
        for i in range(len(bs) - 1):
            if v < bs[i + 1]:
                return i
        return len(bs) - 2

    def value(self, v: float) -> float:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"argument {v} outside [0, 1]")
        acc = self.value0
        bs, ss = self.breakpoints, self.slopes
        for i, s in enumerate(ss):
            hi = min(v, bs[i + 1])
            if hi <= bs[i]:
                break
            acc += s * (hi - bs[i])
        return acc

    def subgradient(self, v: float) -> float:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"argument {v} outside [0, 1]")
        if self.subgrad_rule is not None:
            return self.subgrad_rule(v)
        return self.slopes[self._segment(v)]


class KLPotential:
    """Bernoulli negative entropy mu ln mu + (1-mu) ln(1-mu).

    Its Bregman divergence is the Bernoulli KL divergence.  The subgradient
    is unbounded at the endpoints, so this potential is outside the
    [0,1]-payoff task family and excluded from the decision-loss supremum.
    """

    def value(self, mu: float) -> float:
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"argument {mu} outside [0, 1]")
        out = 0.0
        if mu > 0.0:
            out += mu * math.log(mu)
        if mu < 1.0:
            out += (1.0 - mu) * math.log(1.0 - mu)
        return out

    def subgradient(self, mu: float) -> float:
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"argument {mu} outside [0, 1]")
        if mu == 0.0:
            return -math.inf
        if mu == 1.0:
            return math.inf
        return math.log(mu / (1.0 - mu))


def bregman(phi, mu_star: float, mu: float) -> float:
    """phi(mu*) - phi(mu) - grad_phi(mu) (mu* - mu); >= 0 for convex phi."""
    for arg in (mu_star, mu):
        if not 0.0 <= arg <= 1.0:
            raise ValueError(f"argument {arg} outside [0, 1]")
    return phi.value(mu_star) - phi.value(mu) - phi.subgradient(mu) * (
        mu_star - mu
    )


def _upper_envelope(
    lines: list[tuple[float, float]]
) -> tuple[list[float], list[tuple[float, float]]]:
    """Upper envelope of lines (slope, intercept) on [0, 1].

    Returns segment boundaries [0, ..., 1] and the governing line per
    segment, slopes nondecreasing.
    """
    lines = sorted(lines, key=lambda sl: (sl[0], sl[1]))
    dedup: list[tuple[float, float]] = []
    for s, b in lines:
        if dedup and dedup[-1][0] == s:
            dedup[-1] = (s, b)  # same slope: keep the larger intercept
        else:
            dedup.append((s, b))
    hull: list[tuple[float, float]] = []
    xs: list[float] = []  # intersection of hull[i] and hull[i+1]
    for s, b in dedup:
        while hull:
            s0, b0 = hull[-1]
            x = (b - b0) / (s0 - s)  # s > s0 after dedup
            if xs and x <= xs[-1]:
                hull.pop()
                xs.pop()
            else:
                xs.append(x)
                break
        hull.append((s, b))
    # clip to [0, 1]
    bounds = [0.0]
    segs: list[tuple[float, float]] = []
    for i, line in enumerate(hull):
        lo = xs[i - 1] if i > 0 else -math.inf
        hi = xs[i] if i < len(xs) else math.inf
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi > lo:
            segs.append(line)
            bounds.append(hi)
    bounds[-1] = 1.0
    return bounds, segs


def task_potential(task: DecisionTask) -> ConvexPotential:
    """Convex potential of a task: the upper envelope of the per-action
    payoff lines v -> u(a,0) + (u(a,1) - u(a,0)) v.

    The subgradient follows the task's best response (lowest-index tie
    break), so the Bregman route reproduces the payoff route exactly.
    """
    u = task.payoff_matrix()
    lines = [(float(r[1] - r[0]), float(r[0])) for r in u]
    bounds, segs = _upper_envelope(lines)
    slopes = tuple(s for s, _ in segs)
    value0 = segs[0][1]  # first governing line evaluated at v = 0

    def subgrad(v: float) -> float:
        a = best_response(task, v)
        return float(u[a, 1] - u[a, 0])

    return ConvexPotential(
        tuple(bounds), slopes, value0=value0, subgrad_rule=subgrad
    )


def cfdl_bregman(joint: EmpiricalJoint, task: DecisionTask) -> float:
    """Fixed decision loss via the induced Bregman divergence between each
    level set's recalibrated value and its prediction."""
    phi = task_potential(task)
    phat = recalibrate(joint).as_dict()
    return sum(
        mass * bregman(phi, phat[v], v)
        for v, (mass, _) in joint.level_sets().items()
    )


# ---------------------------------------------------------------------------
# V-shaped divergences and the decision-loss supremum


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


def cdl(joint: EmpiricalJoint) -> float:
    """sup over vstar of the mass-weighted V-shaped divergence between
    recalibrated values and predictions.

    The objective is piecewise linear in vstar with breakpoints at the
    predictions and their recalibrated values; the half-open membership
    interval makes the sup attainable only as a one-sided limit, so the
    scan evaluates the value and both one-sided limits analytically at
    every breakpoint.
    """
    levels = joint.level_sets()
    v2 = np.array(sorted(levels))  # predictions
    mass = np.array([levels[v][0] for v in v2])
    v1 = np.array([levels[v][1] for v in v2])  # recalibrated values
    lo = np.minimum(v1, v2)
    hi = np.maximum(v1, v2)

    bps = np.unique(np.concatenate([v1, v2, [0.0, 1.0]]))
    b = bps[:, None]
    term = 2.0 * mass[None, :] * np.abs(v1[None, :] - b)
    member_exact = (lo[None, :] < b) & (b <= hi[None, :])
    member_left = member_exact  # the interval is left-open, right-closed
    member_right = (lo[None, :] <= b) & (b < hi[None, :])
    best = 0.0
    for member in (member_exact, member_left, member_right):
        best = max(best, float((term * member).sum(axis=1).max()))
    return best
