"""Row forms of the measures: ``ece``, ``ece2``, ``ece_q``, ``tv`` and
``cdl`` evaluate a block of prefixes per call.

Each row form must give every row its joint's value, bit for bit: the value
of the joint built by ``from_samples`` from that prefix, with the row's
levels of mass 0.0 left out.  The walk of ``prefix_curves`` is forced into
one-row and few-row blocks by shrinking its cell budget.
"""

import math

import numpy as np
import pytest

from calmeasures import (
    BernoulliAdversary,
    ConstantForecaster,
    EmpiricalJoint,
    GridRandomForecaster,
    RunningMeanForecaster,
    ThresholdAdversary,
    Transcript,
    from_samples,
    online,
    prefix_curve,
    run,
)
from calmeasures.cli import resolve_guarded
from calmeasures.measures import MEASURES, resolve

ROW_SPECS = ("ece", "ece2", "ece_q:3", "tv", "cdl")


def hexes(values):
    return [float(v).hex() for v in values]


def per_prefix_curve(transcript, spec):
    """The reference: one from_samples joint per prefix."""
    f = resolve(spec)
    rounds = transcript.rounds
    return [t * f(from_samples(list(rounds[:t])))
            for t in range(1, len(rounds) + 1)]


def seeded():
    return [
        run(RunningMeanForecaster(), ThresholdAdversary(), 60, seed=1),
        run(RunningMeanForecaster(), BernoulliAdversary(0.7), 70, seed=5),
        run(GridRandomForecaster(7), BernoulliAdversary(0.3), 80, seed=2),
        run(ConstantForecaster(0.3), BernoulliAdversary(0.6), 50, seed=3),
    ]


def hand_built():
    return [
        Transcript(((0.4, 1),)),
        # 0.0 and -0.0 share one level
        Transcript(((-0.0, 1), (0.0, 0), (0.5, 1), (-0.0, 0), (0.0, 1))),
        # a level whose mean equals its value, alone and beside others
        Transcript(((0.5, 1), (0.5, 0), (0.25, 1), (0.5, 1), (0.5, 0))),
        # interval ends tied across levels: (0.25, 0.5], (0.5, 0.75] and
        # (0.5, 0.75] again, from mean above and below the prediction
        Transcript(((0.25, 1), (0.25, 0), (0.5, 1), (0.5, 1), (0.5, 1),
                    (0.5, 0), (0.75, 1), (0.75, 0), (0.0, 0), (1.0, 1))),
        # calibrated prefixes, where cdl is 0 and must not print -0
        Transcript(((0.0, 0), (1.0, 1), (0.0, 0), (0.5, 1), (0.5, 0))),
    ]


@pytest.fixture(params=[1, 5, 40, None], ids=["one-row", "few-rows",
                                              "some-rows", "default"])
def cells(request, monkeypatch):
    """The cell budget of a block of prefixes; 1 makes every block one
    row."""
    if request.param is not None:
        monkeypatch.setattr(online, "_BLOCK_CELLS", request.param)
    return request.param


class TestRowCurves:
    @pytest.mark.parametrize("spec", ROW_SPECS)
    def test_seeded_transcripts(self, cells, spec):
        for transcript in seeded():
            assert hexes(prefix_curve(transcript, spec)) == hexes(
                per_prefix_curve(transcript, spec)), spec

    @pytest.mark.parametrize("spec", ROW_SPECS)
    def test_hand_built_transcripts(self, cells, spec):
        for transcript in hand_built():
            assert hexes(prefix_curve(transcript, spec)) == hexes(
                per_prefix_curve(transcript, spec)), (spec, transcript)

    def test_guarded_rows_walk_like_the_plain_ones(self, cells):
        transcript = seeded()[1]
        guarded = online.prefix_curves(transcript, resolve_guarded(ROW_SPECS))
        for spec in ROW_SPECS:
            assert hexes(guarded[spec]) == hexes(
                per_prefix_curve(transcript, spec)), spec

    def test_mixed_with_joint_measures(self, cells):
        specs = ("cdl", "smce", "ece", "binned:5")
        transcript = seeded()[2]
        curves = online.prefix_curves(
            transcript, {spec: resolve(spec) for spec in specs})
        assert list(curves) == list(specs)
        for spec in specs:
            assert hexes(curves[spec]) == hexes(
                per_prefix_curve(transcript, spec)), spec


def test_row_forms_build_no_joint(monkeypatch):
    built = []
    from_columns = EmpiricalJoint.from_columns

    def counted(*args):
        built.append(1)
        return from_columns(*args)

    monkeypatch.setattr(EmpiricalJoint, "from_columns", staticmethod(counted))
    online.prefix_curves(
        seeded()[2], {spec: resolve(spec) for spec in ROW_SPECS})
    assert built == []


def test_registry_row_forms():
    assert [name for name, m in MEASURES.items() if m.rows] == [
        "ece", "ece2", "ece_q", "tv", "cdl"]
    assert not hasattr(resolve("smce"), "rows")
    assert not hasattr(resolve_guarded(["smce"])["smce"], "rows")


def random_joints():
    rng = np.random.default_rng(11)
    joints = [from_samples(list(t.rounds)) for t in seeded() + hand_built()]
    for k in (1, 2, 9, 300):
        v = np.round(rng.random(k), 2)
        y = rng.integers(0, 2, k)
        joints.append(EmpiricalJoint.make(list(zip(
            v.tolist(), y.tolist(), rng.random(k).tolist()))))
    return joints


@pytest.mark.parametrize("spec", ROW_SPECS)
def test_single_joint_call_is_the_one_row_call(spec):
    f = resolve(spec)
    for joint in random_joints():
        ls = joint.level_sets()
        row = f.rows(ls.vals, ls.m0[None], ls.m1[None])
        assert len(row) == 1
        assert f(joint).hex() == float(row[0]).hex()


@pytest.mark.parametrize("spec", ROW_SPECS)
def test_each_row_is_its_joint(spec):
    """Rows with levels of mass 0.0 give the joint without those levels."""
    f = resolve(spec)
    rng = np.random.default_rng(3)
    for k in (1, 4, 30, 200):
        vals = np.unique(rng.random(k))
        masses = rng.random((2, 8, len(vals))) * rng.integers(0, 2, (2, 8, k))
        # no row without mass
        masses[rng.integers(0, 2), :, rng.integers(0, k)] += 1.0
        m0, m1 = masses / masses.sum(axis=(0, 2))[:, None]
        got = f.rows(vals, m0, m1)
        want = [f(EmpiricalJoint.from_columns(vals, m0[r], m1[r]))
                for r in range(len(got))]
        assert hexes(got) == hexes(want), k


def test_calibrated_rows_are_positive_zero():
    vals = np.array([0.0, 0.5, 1.0])
    m0 = np.array([[0.5, 0.25, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
    m1 = np.array([[0.0, 0.25, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    for spec in ROW_SPECS:
        for value in resolve(spec).rows(vals, m0, m1):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, spec
