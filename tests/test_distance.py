import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from calmeasures import (
    FiniteInstance,
    ORACLE_CAP,
    IntervalPartition,
    OracleSizeError,
    ce_partition,
    dce_oracle,
    dce_upper_oracle,
    ece,
    from_samples,
    intce_opt,
    intce_partition,
    project,
    random_grid_intce,
    smce,
)
from conftest import instances, joints, random_instance, random_joint
from oracles import (
    canonical_predictor,
    interval_ce_brute,
    restricted_growth_strings,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestIntervalPartition:
    def test_index_conventions(self):
        part = IntervalPartition.uniform(4)
        assert part.index(0.0) == 0
        assert part.index(0.25) == 1  # left closed
        assert part.index(0.999) == 3
        assert part.index(1.0) == 3  # last interval closed
        with pytest.raises(ValueError):
            part.index(1.5)

    def test_width_and_len(self):
        part = IntervalPartition((0.0, 0.1, 0.6, 1.0))
        assert len(part) == 3
        assert part.width == pytest.approx(0.5)
        assert part.midpoint(1) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalPartition((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValueError):
            IntervalPartition((0.1, 1.0))
        with pytest.raises(ValueError):
            IntervalPartition.uniform(0)


class TestCanonicalPredictor:
    @settings(max_examples=40, deadline=None)
    @given(joints())
    def test_applied_joint_is_calibrated(self, j):
        q = canonical_predictor(j, IntervalPartition.uniform(7))
        assert ece(q.apply(j)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(joints())
    def test_shift_bounded_by_interval_ce(self, j):
        # movement to the canonical predictor never exceeds CE_B + width
        for k in (1, 3, 10):
            part = IntervalPartition.uniform(k)
            q = canonical_predictor(j, part)
            assert q.l1_shift(j) <= intce_partition(j, part) + 1e-12

    def test_empty_interval_gets_midpoint(self):
        j = from_samples([(0.9, 1)])
        q = canonical_predictor(j, IntervalPartition.uniform(2))
        assert q(0.2) == 0.25

    def test_ce_partition_cancellation(self):
        # equal and opposite residuals in one interval cancel
        j = from_samples([(0.4, 1), (0.6, 0)])
        assert ce_partition(j, IntervalPartition.uniform(1)) <= 1e-12
        assert ce_partition(j, IntervalPartition.uniform(2)) == pytest.approx(
            0.6, abs=1e-12
        )


class TestIntceOpt:
    def test_never_above_any_grid_partition(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            j = random_joint(rng)
            best = intce_opt(j, 1000)
            for k in (1, 2, 4, 5, 10, 20, 100):
                assert best <= intce_partition(
                    j, IntervalPartition.uniform(k)
                ) + 1e-12

    def test_single_value_joint(self):
        j = from_samples([(0.5, 1), (0.5, 0)])
        # one interval around the point: residual 0, width 1/g
        assert intce_opt(j, 1000) == pytest.approx(0.001, abs=1e-12)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            intce_opt(from_samples([(0.5, 1)]), 1)

    def test_coarse_grid_warns(self):
        j = from_samples([(0.5001, 1), (0.5002, 0)])
        with pytest.warns(UserWarning):
            intce_opt(j, 100)


    def test_an_upper_bound_within_2_over_g_when_the_warning_is_silent(self):
        """intce:<g> is at least the least interval CE over every grouping
        of consecutive levels, and at most 2/g above it when each grid
        cell holds one prediction, so the coarse-grid warning is silent."""
        rng = np.random.default_rng(22)
        silent = 0
        for _ in range(150):
            j = random_joint(rng)
            brute = interval_ce_brute(j)
            for g in (2, 7, 20, 1000):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    value = intce_opt(j, g)
                assert value >= brute - 1e-12
                if not caught:
                    silent += 1
                    assert value <= brute + 2.0 / g + 1e-12
        assert silent >= 150

    def test_two_predictions_in_a_cell_can_exceed_2_over_g(self):
        """0.62 and 0.64 share a cell of the grid g = 10, so they share a
        group: intce:10 is 0.485, while the groups {0.48, 0.62} and
        {0.64, 0.76} give 0.125 + 0.14 = 0.265."""
        j = from_samples([(0.48, 1), (0.62, 0), (0.64, 1), (0.76, 0)])
        with pytest.warns(UserWarning, match="too coarse"):
            value = intce_opt(j, 10)
        assert value == pytest.approx(0.485, abs=1e-12)
        assert interval_ce_brute(j) == pytest.approx(0.265, abs=1e-12)
        assert value > interval_ce_brute(j) + 2.0 / 10


class TestRandomGridIntce:
    def test_deterministic_given_seed(self):
        j = random_joint(np.random.default_rng(22))
        a = random_grid_intce(j, 0.3, 7)
        b = random_grid_intce(j, 0.3, 7)
        assert a == b

    def test_beta_validation(self):
        j = from_samples([(0.5, 1)])
        with pytest.raises(ValueError):
            random_grid_intce(j, 0.0, 0)
        with pytest.raises(ValueError):
            random_grid_intce(j, 1.5, 0)

    def test_mean_below_four_sqrt_delta(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 15:
            inst = random_instance(rng, max_points=7)
            delta = dce_oracle(inst)
            if delta < 1e-9:
                continue
            joint = project(inst)
            beta = min(math.sqrt(2.0 * delta), 1.0)
            mean = np.mean(
                [random_grid_intce(joint, beta, s) for s in range(60)]
            )
            assert mean <= 4.0 * math.sqrt(delta) + 1e-9
            checked += 1


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n", range(9))
    def test_counts_match_bell_numbers(self, n):
        assert sum(1 for _ in restricted_growth_strings(n)) == BELL[n]

    def test_each_partition_is_its_own_list(self):
        assert list(restricted_growth_strings(3)) == [
            [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]]
        for n in range(7):
            strings = [tuple(a) for a in restricted_growth_strings(n)]
            assert len(set(strings)) == len(strings) == BELL[n]

    def test_strings_are_restricted_growth(self):
        for a in restricted_growth_strings(5):
            assert a[0] == 0
            for i in range(1, 5):
                assert a[i] <= max(a[:i]) + 1


class TestDceOracles:
    def test_cap_enforced(self):
        big = FiniteInstance.make(
            [(f"y{i}", 1.0, i / 14, 0.5) for i in range(ORACLE_CAP + 1)]
        )
        with pytest.raises(OracleSizeError):
            dce_oracle(big)
        with pytest.raises(OracleSizeError):
            dce_upper_oracle(project(big))

    def test_zero_for_calibrated_instance(self):
        inst = FiniteInstance.make(
            [("a", 0.5, 0.3, 0.3), ("b", 0.5, 0.8, 0.8)]
        )
        assert dce_oracle(inst) == 0.0
        assert dce_upper_oracle(project(inst)) == 0.0

    def test_merging_helps(self):
        # two opposite-residual points merge into one calibrated value
        inst = FiniteInstance.make(
            [("a", 0.5, 0.4, 0.5), ("b", 0.5, 0.6, 0.5)]
        )
        assert dce_oracle(inst) == pytest.approx(0.1, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_sandwiches(self, inst):
        joint = project(inst)
        dce, upper = dce_oracle(inst), dce_upper_oracle(joint)
        assert smce(joint) / 2.0 <= dce + 1e-9
        assert dce <= upper + 1e-12
        assert upper <= 4.0 * math.sqrt(dce) + 1e-9
        assert upper <= ece(joint) + 1e-12
        assert upper <= intce_opt(joint, 1000) + 2e-3
