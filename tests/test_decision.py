import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calmeasures import (
    DecisionTask,
    best_response,
    cdl,
    cfdl,
    ece,
    ece_q,
    from_samples,
    quadratic_task,
    recalibrate,
    threshold_task,
)
from conftest import joints, random_calibrated_joint, random_joint, random_task
from oracles import cfdl_bregman, expected_payoff, task_bregman, v_divergence


class TestDecisionTask:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTask((), ())
        with pytest.raises(ValueError):
            DecisionTask(("a",), ((0.0, 1.5),))
        with pytest.raises(ValueError):
            DecisionTask(("a", "b"), ((0.0, 1.0),))

    def test_from_json(self, tmp_path):
        p = tmp_path / "task.json"
        p.write_text('{"actions": ["l", "h"], "payoff": [[1, 0], [0, 1]]}')
        task = DecisionTask.from_json(p)
        assert task.actions == ("l", "h")

    def test_best_response_tie_break_lowest_index(self):
        task = DecisionTask(("a", "b"), ((0.5, 0.5), (0.5, 0.5)))
        assert best_response(task, 0.3) == 0

    def test_threshold_task_switch_point(self):
        task = threshold_task(0.3)
        assert best_response(task, 0.2) == 0
        assert best_response(task, 0.4) == 1

    def test_expected_payoff_policy_forms(self):
        j = from_samples([(0.2, 1), (0.8, 0)])
        task = threshold_task(0.5)
        by_map = expected_payoff(j, task, {0.2: 0, 0.8: 1})
        by_fn = expected_payoff(j, task, lambda v: 0 if v < 0.5 else 1)
        assert by_map == pytest.approx(by_fn, abs=1e-15)
        with pytest.raises(ValueError):
            expected_payoff(j, task, {0.2: 0})


class TestCfdl:
    @settings(max_examples=80, deadline=None)
    @given(joints(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_two_routes_agree(self, j, seed):
        task = random_task(np.random.default_rng(seed))
        assert cfdl(j, task) == pytest.approx(cfdl_bregman(j, task), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(joints(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_nonnegative(self, j, seed):
        task = random_task(np.random.default_rng(seed))
        assert cfdl(j, task) >= -1e-12

    def test_zero_on_calibrated(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            j = random_calibrated_joint(rng)
            task = random_task(rng)
            assert abs(cfdl(j, task)) <= 1e-12

    def test_quadratic_task_recovers_squared_error(self):
        rng = np.random.default_rng(12)
        task = quadratic_task(1000)
        for _ in range(10):
            j = random_joint(rng)
            want = ece_q(j, 2.0) ** 2
            assert cfdl(j, task) == pytest.approx(want, abs=2e-3)

    def test_threshold_task_matches_v_divergence(self):
        # 2 max(vstar, 1-vstar) cfdl(threshold) equals the weighted
        # V-shaped divergence sum, whenever vstar avoids the support
        rng = np.random.default_rng(13)
        for _ in range(50):
            j = random_joint(rng)
            vstar = float(rng.uniform(0.01, 0.99))
            phat = recalibrate(j).as_dict()
            want = sum(
                mass * v_divergence(vstar, phat[v], v)
                for v, mass in zip(j.vals.tolist(), j.mass.tolist())
            )
            got = 2.0 * max(vstar, 1.0 - vstar) * cfdl(j, threshold_task(vstar))
            assert got == pytest.approx(want, abs=1e-9)

    def test_trustworthiness_small_exhaustive(self):
        # on calibrated data no policy beats per-value best response
        rng = np.random.default_rng(14)
        for _ in range(30):
            j = random_calibrated_joint(rng, max_values=4)
            task = random_task(rng, max_actions=3)
            vals = j.vals.tolist()
            n = len(task.actions)
            br_payoff = expected_payoff(
                j, task, {v: best_response(task, v) for v in vals}
            )
            best = max(
                expected_payoff(j, task, dict(zip(vals, assignment)))
                for assignment in itertools.product(range(n), repeat=len(vals))
            )
            assert best <= br_payoff + 1e-12


class TestPotentials:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bregman_nonnegative(self, seed, a, b):
        task = random_task(np.random.default_rng(seed))
        assert task_bregman(task, np.array([a]), np.array([b]))[0] >= -1e-12


class TestVDivergence:
    def test_membership_half_open(self):
        # interval between the arguments is open at min, closed at max
        assert v_divergence(0.5, 0.3, 0.5) == pytest.approx(0.4)
        assert v_divergence(0.5, 0.7, 0.5) == 0.0
        assert v_divergence(0.5, 0.5, 0.7) == 0.0
        assert v_divergence(0.5, 0.3, 0.7) == pytest.approx(0.4)
        assert v_divergence(0.9, 0.3, 0.7) == 0.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            v_divergence(1.5, 0.5, 0.5)


class TestCdl:
    def test_single_point_attains_right_limit(self):
        # constant 1/2 predictions with mean 1/2 + eps: the sup is only
        # approached as vstar decreases to 1/2, and must still be found
        eps = 0.05
        j = from_samples([(0.5, 1), (0.5, 0)], [0.5 + eps, 0.5 - eps])
        assert cdl(j) == pytest.approx(2.0 * eps, abs=1e-9)

    def test_zero_on_calibrated(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            assert cdl(random_calibrated_joint(rng)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(joints())
    def test_relation_chain(self, j):
        e1 = ece(j)
        e2 = ece_q(j, 2.0)
        c = cdl(j)
        assert e1**2 <= e2**2 + 1e-9
        assert e2**2 <= c + 1e-9
        assert c <= 2.0 * e1 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(joints(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_dominates_cfdl_of_any_task(self, j, seed):
        task = random_task(np.random.default_rng(seed))
        assert cfdl(j, task) <= cdl(j) + 1e-9
