import numpy as np
import pytest

from calmeasures import (
    BernoulliAdversary,
    ConstantAdversary,
    ConstantForecaster,
    GridRandomForecaster,
    RunningMeanForecaster,
    ThresholdAdversary,
    Transcript,
    ece,
    prefix_curve,
    run,
    sequence_measure,
)
from calmeasures.online import ADVERSARIES, FORECASTERS


class TestTranscript:
    def test_validation(self):
        with pytest.raises(ValueError):
            Transcript(())
        with pytest.raises(ValueError):
            Transcript(((1.5, 1),))
        with pytest.raises(ValueError):
            Transcript(((0.5, 2),))

    def test_joint_is_uniform(self):
        t = Transcript(((0.2, 1), (0.2, 1), (0.8, 0)))
        j = t.joint()
        assert dict(((v, y), m) for v, y, m in j.atoms) == {
            (0.2, 1): pytest.approx(2 / 3),
            (0.8, 0): pytest.approx(1 / 3),
        }


class TestStrategies:
    def test_constant_forecaster_range(self):
        with pytest.raises(ValueError):
            ConstantForecaster(1.2)

    def test_running_mean_values(self):
        f = RunningMeanForecaster(1.0, 1.0)
        assert f.predict([], [], None) == 0.5
        assert f.predict([0.5], [1], None) == pytest.approx(2 / 3)

    def test_grid_random_stays_on_grid(self):
        f = GridRandomForecaster(10)
        rng = np.random.default_rng(0)
        for ys in ([], [1], [1, 1, 0]):
            p = f.predict([0.5] * len(ys), ys, rng)
            assert abs(p * 10 - round(p * 10)) < 1e-12

    def test_threshold_requires_deterministic(self):
        with pytest.raises(ValueError):
            run(GridRandomForecaster(10), ThresholdAdversary(), 5)
        with pytest.raises(ValueError):
            ThresholdAdversary().outcome([], [], None, None)

    def test_baseline_registry(self):
        assert set(FORECASTERS) == {
            "constant",
            "running_mean",
            "grid_random",
        }
        assert set(ADVERSARIES) == {"bernoulli", "ones", "zeros", "threshold"}


class TestRun:
    def test_deterministic_given_seed(self):
        f = GridRandomForecaster(10)
        a = BernoulliAdversary(0.4)
        t1 = run(f, a, 200, seed=5)
        t2 = run(GridRandomForecaster(10), BernoulliAdversary(0.4), 200, seed=5)
        assert t1 == t2

    def test_seed_changes_transcript(self):
        f = GridRandomForecaster(10)
        a = BernoulliAdversary(0.4)
        assert run(f, a, 200, seed=1) != run(f, a, 200, seed=2)

    def test_constant_adversary(self):
        t = run(ConstantForecaster(0.3), ConstantAdversary(1), 10, seed=0)
        assert all(y == 1 for _, y in t.rounds)

    @pytest.mark.parametrize("adversary", [
        ThresholdAdversary(), BernoulliAdversary(0.7)])
    def test_the_forecaster_is_called_once_per_round(self, adversary,
                                                     monkeypatch):
        """run asks the forecaster for p_t once per round, whatever the
        adversary: the threshold adversary is shown that p_t."""
        calls = []
        predict = RunningMeanForecaster.predict

        def counted(self, ps, ys, rng):
            calls.append(len(ys))
            return predict(self, ps, ys, rng)

        monkeypatch.setattr(RunningMeanForecaster, "predict", counted)
        run(RunningMeanForecaster(), adversary, 50, seed=3)
        assert calls == list(range(50))

    def test_needs_at_least_one_round(self):
        with pytest.raises(ValueError):
            run(ConstantForecaster(0.5), ConstantAdversary(0), 0)


class TestSequenceMeasures:
    def test_definition(self):
        t = Transcript(((0.2, 1), (0.8, 0)))
        assert sequence_measure(t, "ece") == pytest.approx(2 * ece(t.joint()))

    def test_unknown_measure(self):
        t = Transcript(((0.5, 1),))
        with pytest.raises(ValueError):
            sequence_measure(t, "nope")

    def test_prefix_curve_shape(self):
        t = run(ConstantForecaster(0.5), BernoulliAdversary(0.5), 10, seed=0)
        curve = prefix_curve(t, "ece")
        assert len(curve) == 10
        assert curve[-1] == pytest.approx(sequence_measure(t, "ece"))

    def test_binned_sequence_measure(self):
        t = Transcript(((0.26, 1), (0.24, 0)))
        got = sequence_measure(t, "binned:2")
        # both predictions land in [0, 1/2) with midpoint 0.25, mean 0.5
        assert got == pytest.approx(2 * 0.25, abs=1e-12)


class TestLowerBound:
    def test_threshold_forces_linear_ece(self):
        T = 500
        for f in (ConstantForecaster(0.5), RunningMeanForecaster()):
            t = run(f, ThresholdAdversary(), T, seed=3)
            assert sequence_measure(t, "ece") >= 0.4 * T

    def test_matched_bernoulli_stays_calibrated(self):
        T = 2000
        t = run(ConstantForecaster(0.3), BernoulliAdversary(0.3), T, seed=4)
        assert sequence_measure(t, "ece") <= 3.0 * np.sqrt(T)
