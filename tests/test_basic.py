import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from calmeasures import (
    IntervalPartition,
    binned_ece,
    bucket_midpoint,
    ece,
    ece_q,
    from_samples,
    intce_opt,
    tv_characterization,
)
from calmeasures.empirical import grid_cell
from conftest import joints, random_calibrated_joint
from oracles import sign_witness_ce, surrogate_masses


def two_point_joint(eps):
    return from_samples([(0.5 - eps, 0), (0.5 + eps, 1)])


class TestEce:
    def test_two_point_value(self):
        assert ece(two_point_joint(0.1)) == pytest.approx(0.4, abs=1e-12)

    def test_calibrated_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert ece(random_calibrated_joint(rng)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(joints())
    def test_bounded_by_one(self, j):
        assert 0.0 <= ece(j) <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(joints(max_values=6))
    def test_sign_witness_oracle(self, j):
        # ECE equals the best +-1 witness over level sets, brute force 2^m
        vals = j.vals.tolist()
        best = max(
            sign_witness_ce(j, dict(zip(vals, signs)))
            for signs in itertools.product((-1, 1), repeat=len(vals))
        )
        assert best == pytest.approx(ece(j), abs=1e-12)


class TestEceQ:
    def test_q1_equals_ece(self):
        j = two_point_joint(0.07)
        assert ece_q(j, 1.0) == pytest.approx(ece(j), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(joints())
    def test_monotone_in_q(self, j):
        qs = [1.0, 1.5, 2.0, 3.0, 6.0]
        vals = [ece_q(j, q) for q in qs]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-12

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            ece_q(two_point_joint(0.1), 0.5)


class TestTvIdentity:
    @settings(max_examples=100, deadline=None)
    @given(joints())
    def test_matches_ece(self, j):
        assert tv_characterization(j) == pytest.approx(ece(j), abs=1e-12)

    def test_surrogate_masses_sum(self):
        j = two_point_joint(0.1)
        pairs = surrogate_masses(j)
        assert sum(a for a, _ in pairs.values()) == pytest.approx(1.0)
        assert sum(b for _, b in pairs.values()) == pytest.approx(1.0)


class TestBinnedEce:
    def test_bucket_midpoint_conventions(self):
        assert bucket_midpoint(0.0, 10) == 0.05
        assert bucket_midpoint(0.1, 10) == pytest.approx(0.15)  # left closed
        assert bucket_midpoint(1.0, 10) == 0.95  # last bucket closed

    def test_buckets_are_split_at_the_edges_as_doubles(self):
        # 0.29 * 100 is 28.999999999999996, yet 0.29 is the edge 29/100
        assert bucket_midpoint(0.29, 100) == 0.295
        j = from_samples([(0.29, 1), (0.3, 0)])
        assert binned_ece(j, 100) == pytest.approx(0.505, abs=1e-12)
        # intce's grid cells are these buckets: 0.285 and 0.29 fall in
        # cells 28 and 29, so no warning, and the least value over the
        # groupings of the 100-grid is 0.17875
        j = from_samples([(0.285, 1), (0.29, 0), (0.29, 0), (0.5, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert intce_opt(j, 100) == pytest.approx(0.17875, abs=1e-12)

    def test_buckets_agree_with_the_uniform_partition(self):
        """Every 3-decimal value, every edge and both its float neighbours
        fall in the cell, and so the bucket, that
        IntervalPartition.uniform(b) gives them."""
        for b in range(1, 400):
            edges = np.arange(b + 1) / b
            vs = np.concatenate([np.arange(1001) / 1000, edges,
                                 np.nextafter(edges, 0),
                                 np.nextafter(edges, 1)])
            vs = vs[(vs >= 0.0) & (vs <= 1.0)]
            cells = IntervalPartition.uniform(b).indices(vs)
            assert np.array_equal(grid_cell(vs, b), cells), b
            assert np.array_equal(bucket_midpoint(vs, b), (cells + 0.5) / b)

    def test_single_bucket_mean_gap(self):
        j = from_samples([(0.2, 1), (0.6, 0)])
        # both predictions collapse to 0.5; mean label is 0.5
        assert binned_ece(j, 1) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b", [3, 5, 7, 9, 15])
    def test_odd_buckets_small_on_straddle(self, b):
        # odd b: both points share the middle bucket and cancel
        eps = 0.01
        assert binned_ece(two_point_joint(eps), b) <= 2 * eps + 1e-12

    @pytest.mark.parametrize("b", [2, 4, 10, 20])
    def test_even_buckets_large_on_straddle(self, b):
        # even b: a boundary at 1/2 separates the points, error stays ~1/2
        eps = 0.01
        got = binned_ece(two_point_joint(eps), b)
        assert got == pytest.approx(0.5 - 1.0 / (2 * b), abs=1e-12)

    def test_rejects_nonpositive_buckets(self):
        with pytest.raises(ValueError):
            binned_ece(two_point_joint(0.1), 0)

    @settings(max_examples=50, deadline=None)
    @given(joints())
    def test_bounded(self, j):
        assert 0.0 <= binned_ece(j, 10) <= 1.0 + 1e-12
