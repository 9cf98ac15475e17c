"""Decision-theoretic calibration error.

A decision task is a finite action set with [0,1]-bounded payoffs over the
two outcomes.  The payoff lost by best-responding to a miscalibrated
predictor instead of its recalibration is the fixed decision loss,
:func:`cfdl`, computed from expected payoffs over all level sets at once.
It equals the mass-weighted Bregman divergence of the task's convex
potential, the pointwise max of its payoff lines, which is the form the
tests check it against.  Its supremum over all bounded tasks reduces to a
one-dimensional scan over V-shaped divergences, which is how :func:`cdl`
evaluates it exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .empirical import EmpiricalJoint, json_number, left_sum


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
        """The task of a JSON object with a list ``actions`` of distinct
        string names and a list ``payoff`` of rows [u(a,0), u(a,1)], each a
        list of two numbers."""
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
        try:
            actions, rows = data["actions"], data["payoff"]
            if not (isinstance(actions, list) and isinstance(rows, list)
                    and all(isinstance(a, str) for a in actions)
                    and len(set(actions)) == len(actions)
                    and all(isinstance(r, list) and len(r) == 2
                            for r in rows)):
                raise ValueError("actions must be a list of distinct strings "
                                 "and each payoff row two numbers")
            payoff = tuple((json_number("payoff", u0),
                            json_number("payoff", u1)) for u0, u1 in rows)
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"malformed task file {path}: {what}") from None
        return DecisionTask(tuple(actions), payoff)


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
