"""Prefix curves from one aggregation, and the O(1) running-mean forecaster.

``prefix_curve`` must give, float for float, what building each prefix's
joint with ``from_samples`` gives (an in-test copy of that code is the
reference), without building a joint per prefix.  The forecasters must
play the transcripts of the per-round ``sum(ys)`` formula.
"""

import math

import pytest

from calmeasures import (
    BernoulliAdversary,
    ConstantForecaster,
    EmpiricalJoint,
    Forecaster,
    GridRandomForecaster,
    OracleSizeError,
    RunningMeanForecaster,
    ThresholdAdversary,
    Transcript,
    from_samples,
    prefix_curve,
    run,
    sequence_measure,
)
from calmeasures import measures, online
from calmeasures.distance import DEFAULT_ORACLE_CAP
from calmeasures.measures import MEASURES, resolve

ORACLES = {"dce_upper", "intce"}


def per_prefix_curve(transcript, measure):
    """The reference: one from_samples joint per prefix."""
    f = resolve(measure)
    rounds = transcript.rounds
    curve = [
        t * f(from_samples(list(rounds[:t])))
        for t in range(len(rounds), 0, -1)
    ]
    return curve[::-1]


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.fixture
def specs(tmp_path):
    """Every registry id that takes a joint, with an argument if it needs
    one."""
    task = tmp_path / "task.json"
    task.write_text('{"actions": ["l", "h"], "payoff": [[1, 0], [0.3, 0.7]]}')
    args = {"ece_q": "3", "binned": "10", "lowdeg": "3", "kernel": "gaussian",
            "cfdl": str(task)}
    ids = [name for name, m in MEASURES.items() if not m.instance_only]
    return [f"{name}:{args[name]}" if name in args else name for name in ids]


def seeded_transcripts(T):
    """One transcript per forecaster, against both kinds of adversary."""
    return [
        run(ConstantForecaster(0.3), BernoulliAdversary(0.6), T, seed=3),
        run(RunningMeanForecaster(), ThresholdAdversary(), T, seed=2),
        run(RunningMeanForecaster(), BernoulliAdversary(0.3), T, seed=4),
        run(GridRandomForecaster(5), BernoulliAdversary(0.3), T, seed=1),
    ]


def hand_built():
    up, down = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)
    return [
        Transcript(((0.7, 1),)),
        Transcript(((0.0, 0),)),
        Transcript(((0.4, 1), (0.4, 0), (0.4, 0), (0.4, 1))),
        # 0.0 and -0.0 share a level whose value depends on the prefix
        Transcript(((-0.0, 1), (0.0, 0), (0.0, 1), (-0.0, 0), (1.0, 1))),
        Transcript(((0.0, 1), (-0.0, 1), (-0.0, 0), (0.0, 0), (0.5, 0))),
        Transcript(((0.5, 1), (up, 0), (down, 1), (0.5, 0), (up, 1),
                    (down, 0), (1.0, 0), (0.0, 1))),
    ]


class TestAgreement:
    @pytest.mark.filterwarnings("ignore:grid g=")
    def test_every_joint_measure_on_seeded_transcripts(self, specs):
        for spec in specs:
            oracle = spec.partition(":")[0] in ORACLES
            for transcript in seeded_transcripts(9 if oracle else 40):
                assert hexes(prefix_curve(transcript, spec)) == hexes(
                    per_prefix_curve(transcript, spec)), spec

    @pytest.mark.filterwarnings("ignore:grid g=")
    def test_every_joint_measure_on_hand_built_transcripts(self, specs):
        for spec in specs:
            for transcript in hand_built():
                assert hexes(prefix_curve(transcript, spec)) == hexes(
                    per_prefix_curve(transcript, spec)), spec

    def test_prefix_joints_are_the_from_samples_joints(self, monkeypatch):
        seen = []

        def capture(spec, **kwargs):
            return lambda joint: seen.append(joint.level_sets()) or 0.0

        monkeypatch.setattr(online, "resolve", capture)
        for transcript in hand_built() + seeded_transcripts(60):
            seen.clear()
            prefix_curve(transcript, "ece")
            rounds = transcript.rounds
            for t, got in zip(range(len(rounds), 0, -1), seen):
                want = from_samples(list(rounds[:t])).level_sets()
                for name in ("vals", "m0", "m1", "mass", "mean", "residual"):
                    assert hexes(getattr(got, name)) == hexes(
                        getattr(want, name)), (t, name)
            assert len(seen) == len(rounds)

    def test_long_curve_ends_at_the_sequence_measure(self):
        transcript = run(GridRandomForecaster(20), BernoulliAdversary(0.3),
                         2000, seed=7)
        for spec in ("ece", "cdl"):
            curve = prefix_curve(transcript, spec)
            assert len(curve) == 2000
            assert curve[-1] == sequence_measure(transcript, spec)


class TestNoRebuild:
    @pytest.mark.parametrize("spec", ["ece", "ece2", "tv", "cdl", "smce"])
    def test_curve_makes_at_most_one_joint(self, monkeypatch, spec):
        calls = []
        make = EmpiricalJoint.make

        def counted(atoms):
            calls.append(1)
            return make(atoms)

        monkeypatch.setattr(EmpiricalJoint, "make", staticmethod(counted))
        transcript = run(GridRandomForecaster(20), BernoulliAdversary(0.4),
                         500, seed=0)
        assert len(prefix_curve(transcript, spec)) == 500
        assert len(calls) <= 1

    def test_size_cap_fails_on_the_longest_prefix_first(self, monkeypatch):
        calls = []
        oracle = measures.dce_upper_oracle

        def counted(joint, cap):
            calls.append(len(joint.vals))
            return oracle(joint, cap)

        monkeypatch.setattr(measures, "dce_upper_oracle", counted)
        k = DEFAULT_ORACLE_CAP + 3
        transcript = Transcript(tuple(
            ((i + 0.5) / k, i % 2) for i in range(k)))
        with pytest.raises(OracleSizeError):
            prefix_curve(transcript, "dce_upper")
        assert calls == [k]


class SumRunningMean(Forecaster):
    """The per-round formula: (a + sum(ys)) / (a + b + len(ys))."""

    def __init__(self, a=1.0, b=1.0):
        self.a, self.b = a, b

    def predict(self, ps, ys, rng):
        return (self.a + sum(ys)) / (self.a + self.b + len(ys))


class SumGridRandom(GridRandomForecaster):
    def __init__(self, m):
        super().__init__(m)
        self.base = SumRunningMean()


class TestRunningMean:
    @pytest.mark.parametrize("forecaster, reference, adversary", [
        (RunningMeanForecaster, SumRunningMean, ThresholdAdversary),
        (RunningMeanForecaster, SumRunningMean,
         lambda: BernoulliAdversary(0.3)),
        (lambda: GridRandomForecaster(20), lambda: SumGridRandom(20),
         lambda: BernoulliAdversary(0.3)),
    ])
    def test_transcripts_equal_the_sum_formula(
        self, forecaster, reference, adversary
    ):
        got = run(forecaster(), adversary(), 2000, seed=5)
        want = run(reference(), adversary(), 2000, seed=5)
        assert hexes(p for p, _ in got.rounds) == hexes(
            p for p, _ in want.rounds)
        assert [y for _, y in got.rounds] == [y for _, y in want.rounds]

    def test_grid_random_cannot_face_the_threshold_adversary(self):
        with pytest.raises(ValueError):
            run(GridRandomForecaster(20), ThresholdAdversary(), 10)

    @pytest.mark.parametrize("make", [
        RunningMeanForecaster, lambda: GridRandomForecaster(20)])
    def test_reused_forecaster_plays_as_a_fresh_one(self, make):
        reused = make()
        for seed, T in ((1, 300), (2, 200), (1, 300)):
            assert run(reused, BernoulliAdversary(0.6), T, seed) == run(
                make(), BernoulliAdversary(0.6), T, seed)

    def test_other_or_shorter_lists_are_summed_again(self):
        f = RunningMeanForecaster()
        ys = [1, 1, 1]
        assert f.predict([], ys, None) == 4 / 5
        assert f.predict([], [0, 0, 0], None) == 1 / 5
        ys = [1, 1, 1]
        f.predict([], ys, None)
        del ys[1:]
        assert f.predict([], ys, None) == 2 / 3
        ys.append(0)
        assert f.predict([], ys, None) == 2 / 4

    def test_rounds_read_each_label_once(self):
        class Counted(list):
            read = 0

            def __iter__(self):
                self.read += len(self)
                return super().__iter__()

            def __getitem__(self, index):
                got = super().__getitem__(index)
                self.read += len(got) if isinstance(index, slice) else 1
                return got

        f, ys = RunningMeanForecaster(), Counted()
        for t in range(1000):
            assert f.predict([], ys, None) == (1 + t) / (2 + t)
            ys.append(1)
        assert ys.read <= 1000
