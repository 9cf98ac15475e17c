"""``decision.cdl`` by sort and sweep, against the dense breakpoint scan.

The reference is an in-test copy of the O(k^2) scan that ``cdl`` replaced:
the value and the right limit of the objective at every prediction, every
recalibrated value, 0 and 1, from one (breakpoints, levels) array.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from calmeasures import EmpiricalJoint, ece, ece_q, from_samples
from calmeasures.decision import cdl


def dense_cdl(joint):
    ls = joint.level_sets()
    v2, mass, v1 = ls.vals, ls.mass, ls.mean
    lo = np.minimum(v1, v2)
    hi = np.maximum(v1, v2)
    bps = np.unique(np.concatenate([v1, v2, [0.0, 1.0]]))
    b = bps[:, None]
    term = 2.0 * mass[None, :] * np.abs(v1[None, :] - b)
    member_exact = (lo[None, :] < b) & (b <= hi[None, :])
    member_right = (lo[None, :] <= b) & (b < hi[None, :])
    best = 0.0
    for member in (member_exact, member_right):
        best = max(best, float((term * member).sum(axis=1).max()))
    return best


def exact_cdl(joint):
    """The same scan in rational arithmetic, on the joint's float columns."""
    ls = joint.level_sets()
    levels = [tuple(map(Fraction, row)) for row in
              zip(ls.vals.tolist(), ls.mass.tolist(), ls.mean.tolist())]
    best = Fraction(0)
    for b in sorted({x for v, _, mean in levels for x in (v, mean)}):
        for right in (False, True):
            total = Fraction(0)
            for v, m, mean in levels:
                lo, hi = min(v, mean), max(v, mean)
                if (lo <= b < hi) if right else (lo < b <= hi):
                    total += 2 * m * abs(mean - b)
            best = max(best, total)
    return best


def joint_of(p, y, w=None):
    return from_samples(list(zip(np.asarray(p, float).tolist(),
                                 np.asarray(y, int).tolist())),
                        None if w is None else np.asarray(w).tolist())


def seeded_joints():
    """Joints of up to 10^3 levels: float scores, their nextafter
    neighbours, 1-decimal grids, 0 and 1, one-label levels, one level."""
    rng = np.random.default_rng(11)
    joints = []
    for k in (1, 2, 3, 7, 40, 300, 1000):
        p = rng.random(k)
        joints.append(joint_of(p, rng.random(k) < p, rng.random(k)))
        half = rng.random(max(k // 2, 1))
        p = np.concatenate([half, np.nextafter(half, 1.0),
                            np.nextafter(half, 0.0)])[:k]
        joints.append(joint_of(p, rng.random(len(p)) < 0.4))
        p = np.round(rng.random(5 * k), 1)
        joints.append(joint_of(p, rng.random(5 * k) < p ** 2))
        p = rng.choice([0.0, 1.0, 0.5, rng.random()], 3 * k)
        joints.append(joint_of(p, rng.random(3 * k) < 0.5))
        # one label per level
        p = rng.random(k)
        joints.append(joint_of(p, rng.random(k) < 0.5))
    for p, y in [([0.0], [1]), ([1.0], [0]), ([0.0], [0]), ([1.0], [1]),
                 ([0.3], [1]), ([0.0, 1.0], [1, 0]), ([0.0, 1.0], [0, 1])]:
        joints.append(joint_of(p, y))
    return joints


class TestAgreement:
    def test_dense_scan_within_1e12(self):
        for joint in seeded_joints():
            assert abs(cdl(joint) - dense_cdl(joint)) <= 1e-12

    def test_single_level(self):
        # cdl of one level (v, mean) is 2 |mean - v|, reached at b = v or
        # b -> v from the right
        for v, y in [(0.3, 1), (0.7, 0), (0.0, 1), (1.0, 0)]:
            assert cdl(joint_of([v], [y])) == pytest.approx(
                2.0 * abs(y - v), abs=1e-15)

    def test_relative_accuracy_on_nearly_calibrated_joints(self):
        """Sums over the sweep stay on the scale of the objective: each
        level's mean sits 1e-11 to 1e-4 from its prediction, and the result
        keeps 1e-12 relative accuracy against rational arithmetic."""
        rng = np.random.default_rng(4)
        for scale in (1e-4, 1e-7, 1e-11):
            v = np.sort(rng.random(60))
            mean = np.clip(v + rng.normal(0.0, scale, 60), 0.0, 1.0)
            m = rng.random(60)
            m /= m.sum()
            joint = EmpiricalJoint.from_columns(v, m * (1.0 - mean), m * mean)
            want = exact_cdl(joint)
            assert want > 0
            assert abs(Fraction(cdl(joint)) - want) <= 1e-12 * want


class TestCalibrated:
    def test_calibrated_joint_is_exactly_zero(self):
        """Dyadic predictions with dyadic label counts: every level's mean
        equals its prediction bit for bit."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            rows = []
            for v in rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 0.375], 4,
                                replace=False):
                ones = int(v * 8)
                rows += [(float(v), 1)] * ones + [(float(v), 0)] * (8 - ones)
            joint = from_samples(rows)
            ls = joint.level_sets()
            assert np.array_equal(ls.mean, ls.vals)
            assert cdl(joint) == 0.0


def distinct_joint(k, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.random(k)
    return joint_of(p, rng.random(k) < p ** 1.5)


class TestScale:
    def test_memory_per_level_at_1e5(self):
        """The dense scan asked for a k x k array (74.5 GiB at k = 10^5)."""
        k = 10**5
        joint = distinct_joint(k)
        assert len(joint.vals) == k
        tracemalloc.start()
        try:
            cdl(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * k

    def test_relation_chain_at_1e5(self):
        joint = distinct_joint(10**5, seed=1)
        e1, e2, c = ece(joint), ece_q(joint, 2.0), cdl(joint)
        assert math.isfinite(c)
        assert e1**2 <= e2**2 + 1e-9
        assert e2**2 <= c + 1e-9
        assert c <= 2.0 * e1 + 1e-9
        assert e1 <= e2 + 1e-9
