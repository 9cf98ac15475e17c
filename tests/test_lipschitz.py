import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from calmeasures import (
    EmpiricalJoint,
    OracleSizeError,
    ece,
    emd_joints,
    from_samples,
    kernel_ce,
    low_degree_ce,
    residuals,
    smce,
)
from conftest import joints, random_calibrated_joint, random_joint
from oracles import WeightFunction, smce_lp_oracle, weighted_ce


def two_point_joint(eps):
    return from_samples([(0.5 - eps, 0), (0.5 + eps, 1)])


class TestResiduals:
    def test_values_and_masses(self):
        j = from_samples([(0.3, 1), (0.3, 0), (0.8, 0)])
        vals, cs = residuals(j)
        assert list(vals) == [0.3, 0.8]
        assert cs[0] == pytest.approx((1 / 3) * 0.7 + (1 / 3) * (-0.3))
        assert cs[1] == pytest.approx((1 / 3) * (-0.8))


class TestSmce:
    def test_two_point_closed_form(self):
        for eps in (0.05, 0.1, 0.2, 0.25):
            want = eps * (1.0 - 2.0 * eps) / 2.0
            assert smce(two_point_joint(eps)) == pytest.approx(want, abs=1e-9)

    def test_calibrated_is_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert smce(random_calibrated_joint(rng)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(joints())
    def test_below_ece(self, j):
        assert smce(j) <= ece(j) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(joints(max_values=8))
    def test_matches_lp_oracle(self, j):
        assert smce(j) == pytest.approx(smce_lp_oracle(j), abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(joints())
    def test_dominates_any_lipschitz_weight(self, j):
        s = smce(j)
        candidates = [
            WeightFunction(lambda v: 1.0, 0.0, "one"),
            WeightFunction(lambda v: 2.0 * v - 1.0, 2.0, "linear"),
            WeightFunction(lambda v: min(1.0, max(-1.0, v - 0.5)), 1.0, "clip"),
            WeightFunction(lambda v: abs(v - 0.5) - 0.25, 1.0, "vee"),
        ]
        for w in candidates:
            lip = w.lipschitz if w.lipschitz else 1.0
            scale = max(lip, 1.0)
            scaled = WeightFunction(lambda v, w=w, s=scale: w(v) / s)
            assert weighted_ce(j, scaled) <= s + 1e-12

    def test_weight_range_enforced(self):
        j = two_point_joint(0.1)
        with pytest.raises(ValueError):
            weighted_ce(j, WeightFunction(lambda v: 2.0))

    def test_stability_under_prediction_shifts(self):
        # moving each prediction by at most eta moves smce by at most 2 eta
        rng = np.random.default_rng(7)
        for _ in range(100):
            j = random_joint(rng)
            eta = float(rng.uniform(0.0, 0.2))
            shifted = EmpiricalJoint.make(
                (min(1.0, max(0.0, v + rng.uniform(-eta, eta))), y, m)
                for v, y, m in j.atoms
            )
            assert abs(smce(j) - smce(shifted)) <= 2.0 * eta + 1e-9

    def test_two_point_jump_absent_in_smce(self):
        # the discontinuity exhibit: ECE jumps by ~0.4, smCE barely moves
        eps = 0.1
        near = two_point_joint(eps)
        exact = from_samples([(0.5, 0), (0.5, 1)])
        assert abs(ece(near) - ece(exact)) == pytest.approx(0.4, abs=1e-12)
        assert abs(smce(near) - smce(exact)) <= 2.0 * eps + 1e-12


class TestEmd:
    @settings(max_examples=60, deadline=None)
    @given(joints())
    def test_sandwich(self, j):
        d = emd_joints(j)
        s = smce(j)
        assert d / 2.0 <= s + 1e-9
        assert s <= d + 1e-9

    def test_calibrated_is_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert emd_joints(random_calibrated_joint(rng)) <= 1e-9

    def test_pure_label_transport(self):
        # one miscalibrated level set: surrogate differs only in labels
        j = from_samples([(0.25, 1), (0.25, 1), (0.25, 1), (0.25, 0)])
        # observed label mean 3/4, surrogate 1/4: move mass 1/2 across labels
        assert emd_joints(j) == pytest.approx(0.5, abs=1e-9)


class TestLowDegree:
    def test_degree_zero_is_mean_residual(self):
        j = from_samples([(0.2, 1), (0.9, 0)])
        want = abs(0.5 * (1 - 0.2) + 0.5 * (0 - 0.9))
        assert low_degree_ce(j, 0) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(joints())
    def test_monotone_in_degree_and_below_ece(self, j):
        vals = [low_degree_ce(j, d) for d in range(5)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-12
        assert vals[-1] <= ece(j) + 1e-12

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            low_degree_ce(two_point_joint(0.1), -1)

    def test_term_table_at_its_cap_stays_below_it(self):
        """At 2^20 distinct predictions the cap of 2^27 bytes allows degree
        6: its table peaks at ~117 MB under tracemalloc, below the cap, and
        degree 7 is refused before one row of terms is built."""
        k = 2**20
        vals = np.arange(k) / k
        joint = EmpiricalJoint.make(np.stack(
            [vals, np.ones(k), np.full(k, 1.0 / k)], axis=1))
        tracemalloc.start()
        try:
            low_degree_ce(joint, 6)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(OracleSizeError, match="degree d=7 needs"):
                low_degree_ce(joint, 7)
            refused_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2**26 < peak <= 2**27
        assert refused_peak < 8 * k


class TestKernel:
    @pytest.mark.parametrize("kernel", ["laplace", "gaussian"])
    def test_nonnegative_and_zero_when_calibrated(self, kernel):
        rng = np.random.default_rng(3)
        for _ in range(10):
            j = random_calibrated_joint(rng)
            assert 0.0 <= kernel_ce(j, kernel) <= 1e-6

    @pytest.mark.parametrize("kernel", ["laplace", "gaussian"])
    def test_gram_arrays_over_their_cap_are_never_built(self, kernel):
        """8193 levels would need two k x k arrays of 2^30 bytes and a
        little more; the refusal allocates less than one of them."""
        k = 8193
        joint = EmpiricalJoint.make(np.stack(
            [(np.arange(k) + 0.5) / k, np.ones(k), np.ones(k)], axis=1))
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError, match="8193 levels need "
                               "1074003984 bytes of Gram arrays, over the "
                               "cap of 1073741824"):
                kernel_ce(joint, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * k * k

    def test_single_atom_value(self):
        # k(v, v) = 1, so the value is |residual mass|
        j = from_samples([(0.2, 1)])
        assert kernel_ce(j, "laplace") == pytest.approx(0.8, abs=1e-12)
