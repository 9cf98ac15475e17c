"""Decision-theoretic calibration error.

A decision task is a finite action set with [0,1]-bounded payoffs over the
two outcomes.  The payoff lost by best-responding to a miscalibrated
predictor instead of its recalibration is the fixed decision loss; its
supremum over all bounded tasks reduces to a one-dimensional scan over
V-shaped divergences, which is how :func:`cdl` evaluates it exactly.

The fixed decision loss is computed by two independent routes: directly
from expected payoffs (:func:`cfdl`) and through the Bregman divergence of
the task's induced convex potential (:func:`cfdl_bregman`).  The two agree
to float precision; the pairing is the module's central consistency check.
Both evaluate all level sets at once; the Bregman route takes potentials on
arrays and its subgradients from the task's best responses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .empirical import EmpiricalJoint, left_sum


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
        with open(path, encoding="utf-8-sig") as fh:
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
    return int(_best_responses(task.payoff_matrix(), np.array([v]))[0])


def _best_responses(u: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """best_response to each of vs, scored in blocks of ~2^20 payoffs;
    argmax returns the first maximizer."""
    return np.concatenate([
        np.argmax(np.outer(v, u[:, 1]) + np.outer(1.0 - v, u[:, 0]), axis=1)
        for v in np.array_split(vs, max(1, len(vs) * len(u) >> 20))
    ])


def cfdl(joint: EmpiricalJoint, task: DecisionTask) -> float:
    """Payoff gained by best-responding to the recalibration instead of
    the raw predictions."""
    u, v = task.payoff_matrix(), joint.vals
    gain = u[_best_responses(u, joint.mean)] - u[_best_responses(u, v)]
    return left_sum(joint.m0 * gain[:, 0], joint.m1 * gain[:, 1])


# ---------------------------------------------------------------------------
# convex potentials and Bregman divergences


@dataclass(frozen=True)
class ConvexPotential:
    """Piecewise-linear convex function on [0, 1].

    breakpoints are segment boundaries 0 = b_0 < ... < b_k = 1; slopes has
    one nondecreasing entry per segment.  value and subgradient take a
    float or an array of points in [0, 1], each on the last segment that
    starts at or below it (one searchsorted), so a kink takes its
    right-hand slope.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    value0: float = 0.0

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

    def _locate(self, v):
        """(v as an array, each point's segment)."""
        x = np.asarray(v, dtype=float)
        bad = ~((x >= 0.0) & (x <= 1.0))
        if bad.any():
            raise ValueError(f"argument {x[bad][0]} outside [0, 1]")
        seg = np.searchsorted(self.breakpoints, x, side="right") - 1
        return x, np.minimum(seg, len(self.slopes) - 1)

    def value(self, v):
        """phi(v): phi at the segment's left breakpoint, a sum from value0
        of slope times width in segment order, plus slope times the rest."""
        x, seg = self._locate(v)
        bs, ss = np.array(self.breakpoints), np.array(self.slopes)
        left = np.cumsum(np.append(self.value0, ss[:-1] * np.diff(bs)[:-1]))
        out = left[seg] + ss[seg] * (x - bs[seg])
        return out if out.ndim else float(out)

    def subgradient(self, v):
        out = np.array(self.slopes)[self._locate(v)[1]]
        return out if out.ndim else float(out)


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

    At a kink its subgradient is the envelope's right-hand slope, not
    always the slope of the task's best response there, which
    :func:`cfdl_bregman` takes.
    """
    lines = [(float(r[1] - r[0]), float(r[0])) for r in task.payoff_matrix()]
    bounds, segs = _upper_envelope(lines)
    slopes = tuple(s for s, _ in segs)
    value0 = segs[0][1]  # first governing line evaluated at v = 0
    return ConvexPotential(tuple(bounds), slopes, value0=value0)


def cfdl_bregman(joint: EmpiricalJoint, task: DecisionTask) -> float:
    """Fixed decision loss as the sum over level sets of mass * (phi(mean)
    - phi(v) - g (mean - v)), phi the task potential, in one array
    expression.  g is the slope u(a,1) - u(a,0) of the best response a to
    v (lowest index at a tie), so at a kink it is the subgradient for
    which this route equals :func:`cfdl`."""
    v, mean = joint.vals, joint.mean
    phi, u = task_potential(task), task.payoff_matrix()
    g = (u[:, 1] - u[:, 0])[_best_responses(u, v)]
    div = phi.value(mean) - phi.value(v) - g * (mean - v)
    return left_sum(joint.mass * div)


# ---------------------------------------------------------------------------
# V-shaped divergences and the decision-loss supremum


def cdl(joint: EmpiricalJoint) -> float:
    """sup over vstar of the mass-weighted V-shaped divergence between
    recalibrated values and predictions, by one sort and one sweep; the
    one-row call of :func:`cdl_rows`, where the sweep is described."""
    return float(cdl_rows(joint.vals, joint.m0[None], joint.m1[None])[0])


def cdl_rows(vals: np.ndarray, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """cdl of each row's joint: row r puts the label masses m0[r, i] and
    m1[r, i] on the prediction vals[i], and a level of mass 0.0 in a row is
    not in that row's joint.

    Level i (prediction v, mass m, recalibrated value mean) adds
    2 m |mean - b| at vstar = b when b lies in its membership interval
    (lo, hi] = (min(mean, v), max(mean, v)], and nothing elsewhere.  On the
    interval the term is linear in b, with slope -2m when mean is the upper
    end and 2m when it is the lower one; a level with mean == v adds
    nothing.  The objective is therefore piecewise linear with breakpoints
    at the 2k interval ends, and left-continuous, since the intervals are
    closed on the right.  On each piece it is linear, so its sup is the
    value or the right limit at some end.

    Each row's ends are sorted once.  A cumulative sum of slopes (added at
    lo, taken away at hi) gives the slope of every piece, and a second one
    adds, end by end, each level's term as it enters (at lo) or leaves (at
    hi) and each piece's slope times its length.  Its entries are the
    value at each end, reached before the end's own entries and leavings,
    and the right limit, reached after them.  At a shared end the leavings
    (terms <= 0) come before the entries (terms >= 0), so the partial
    sums in between lie below one of the two, and the largest entry,
    clipped below at 0.0, is the sup.  The sums stay on the scale of the
    objective, so the result keeps its relative accuracy on nearly
    calibrated joints, where a sum of per-level intercepts 2 m mean would
    cancel.  O(k log k) time and O(k) memory per row of k levels.

    A level that adds nothing in a row (mass 0.0, or mean == v) keeps its
    place with slope and terms +-0.0 and both its ends at 0.0, at or below
    every other end: the sorted active ends keep their order and the gaps
    between them, and every step the level adds is +-0.0, so each row's
    value is its joint's, bit for bit.
    """
    mass, mean = EmpiricalJoint.row_mass_mean(m0, m1)
    gap = vals - mean
    # -2m when mean is the upper end, 2m when v is, 0.0 when mean == v
    slope = 2.0 * mass * np.sign(gap)
    term = slope * gap  # 2m |mean - v|, at the end away from mean
    moved, up = slope != 0.0, slope < 0.0
    # leavings first: the stable sort keeps them before entries at a tie
    ends = np.concatenate((np.where(moved, np.maximum(mean, vals), 0.0),
                           np.where(moved, np.minimum(mean, vals), 0.0)),
                          axis=1)
    order = ends.argsort(axis=1, kind="stable")
    order += np.arange(0, order.size, order.shape[1])[:, None]

    def in_order(*halves):
        return np.concatenate(halves, axis=1).ravel()[order]

    ends = ends.ravel()[order]
    slopes = in_order(-slope, slope).cumsum(axis=1)
    steps = np.empty((len(ends), 2 * ends.shape[1] - 1))
    steps[:, 0::2] = in_order(
        np.where(up, 0.0, -term), np.where(up, term, 0.0))
    steps[:, 1::2] = slopes[:, :-1] * (ends[:, 1:] - ends[:, :-1])
    # max may pick a -0.0 among equal zeros; + 0.0 makes it print as 0
    return steps.cumsum(axis=1).max(axis=1, initial=0.0) + 0.0
