import json

import numpy as np
import pytest
from hypothesis import given, settings

import calmeasures
from calmeasures import (
    EmpiricalJoint,
    FiniteInstance,
    ece,
    from_samples,
    project,
    read_csv,
    read_instance_json,
    read_jsonl,
    recalibrate,
    write_instance_json,
)
from calmeasures.empirical import left_sum
from conftest import joints
from oracles import recalibrated_joint


class TestEmpiricalJoint:
    def test_canonical_form(self):
        j = EmpiricalJoint.make([(0.7, 1, 1.0), (0.3, 0, 1.0), (0.7, 1, 2.0)])
        assert j.atoms == ((0.3, 0, 0.25), (0.7, 1, 0.75))

    def test_normalization(self):
        j = EmpiricalJoint.make([(0.5, 1, 10.0)])
        assert left_sum(j.m0, j.m1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_mass_atoms_dropped(self):
        j = EmpiricalJoint.make([(0.5, 1, 1.0), (0.2, 0, 0.0)])
        assert j.vals.tolist() == [0.5]

    @pytest.mark.parametrize(
        "bad",
        [
            [(1.5, 1, 1.0)],
            [(-0.1, 0, 1.0)],
            [(0.5, 2, 1.0)],
            [(0.5, 1, -1.0)],
            [],
            [(0.5, 1, 0.0)],
        ],
    )
    def test_invalid_inputs(self, bad):
        with pytest.raises(ValueError):
            EmpiricalJoint.make(bad)

    def test_near_duplicates_not_merged(self):
        v1 = 0.3
        v2 = np.nextafter(0.3, 1.0)
        j = EmpiricalJoint.make([(v1, 1, 1.0), (v2, 1, 1.0)])
        assert len(j.vals.tolist()) == 2

    def test_level_sets(self):
        j = EmpiricalJoint.make([(0.4, 1, 1.0), (0.4, 0, 3.0), (0.9, 1, 4.0)])
        ls = j.level_sets()
        assert list(zip(ls.vals.tolist(), ls.mass.tolist(), ls.mean.tolist(),
                        strict=True)) == [
            (0.4, pytest.approx(0.5), pytest.approx(0.25)),
            (0.9, pytest.approx(0.5), pytest.approx(1.0)),
        ]


class TestFromSamples:
    def test_uniform_weights(self):
        j = from_samples([(0.2, 1), (0.2, 1), (0.8, 0)])
        assert dict(((v, y), m) for v, y, m in j.atoms) == {
            (0.2, 1): pytest.approx(2 / 3),
            (0.8, 0): pytest.approx(1 / 3),
        }

    def test_weight_scale_invariance(self):
        a = EmpiricalJoint.make([(0.2, 1, 1.0), (0.8, 0, 3.0)])
        b = EmpiricalJoint.make([(0.2, 1, 10.0), (0.8, 0, 30.0)])
        assert a == b

    def test_arrays_and_lists_give_equal_joints(self):
        pairs = [(0.2, 1), (0.4, 0), (0.2, 1), (0.9, 0)]
        atoms = [(v, y, w) for (v, y), w in zip(pairs, [1.0, 3.0, 0.5, 2.0])]
        assert from_samples(np.array(pairs)) == from_samples(pairs)
        assert EmpiricalJoint.make(np.array(atoms)) == EmpiricalJoint.make(
            atoms)
        with pytest.raises(ValueError, match="empty input"):
            from_samples(np.empty((0, 2)))

    def test_errors(self):
        with pytest.raises(ValueError):
            from_samples([])

    def test_takes_no_weights(self):
        # weighted samples are atoms of EmpiricalJoint.make
        with pytest.raises(TypeError):
            from_samples([(0.2, 1), (0.8, 0)], [1.0, 3.0])


class TestRecalibration:
    @settings(max_examples=50, deadline=None)
    @given(joints())
    def test_recalibrated_joint_is_calibrated(self, j):
        assert ece(recalibrated_joint(j)) <= 1e-12

    def test_map_values(self):
        j = EmpiricalJoint.make([(0.4, 1, 1.0), (0.4, 0, 1.0)])
        phat = recalibrate(j)
        assert phat[0.4] == pytest.approx(0.5)
        with pytest.raises(KeyError):
            phat[0.7]

    def test_is_a_plain_dict(self):
        assert not hasattr(calmeasures, "RecalibrationMap")

    @settings(max_examples=50, deadline=None)
    @given(joints())
    def test_is_the_mean_column_keyed_by_value(self, j):
        phat = recalibrate(j)
        assert type(phat) is dict
        assert [(v.hex(), m.hex()) for v, m in phat.items()] == [
            (v.hex(), m.hex()) for v, m in zip(j.vals.tolist(),
                                               j.mean.tolist())]


class TestFiniteInstance:
    def test_projection_splits_mass(self):
        inst = FiniteInstance.make([("a", 1.0, 0.3, 0.25)])
        j = project(inst)
        assert j.atoms == ((0.3, 0, 0.75), (0.3, 1, 0.25))

    def test_make_keeps_read_only_columns(self):
        """The first bad point is refused, by its first bad field; points
        of mass 0 leave with their ids."""
        with pytest.raises(ValueError, match=r"^cond_mean 2.0 outside "
                           r"\[0, 1\] at 'a'$"):
            FiniteInstance.make([("a", 1.0, 0.5, 2.0), ("b", -1.0, 0.5, 0.5)])
        inst = FiniteInstance.make([
            ("a", 0.0, 0.1, 0.5), ("b", 3.0, 0.2, 0.5), ("c", 0.0, 0.3, 0.5),
            ("d", 1.0, 0.4, 1.0)])
        assert inst.ids == ("b", "d")
        assert inst.mass.tolist() == [0.75, 0.25]
        assert inst.pred.tolist() == [0.2, 0.4]
        assert inst.cond_mean.tolist() == [0.5, 1.0]
        for col in (inst.mass, inst.pred, inst.cond_mean):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteInstance.make([("a", -1.0, 0.5, 0.5)])
        with pytest.raises(ValueError):
            FiniteInstance.make([("a", 1.0, 1.5, 0.5)])
        with pytest.raises(ValueError):
            FiniteInstance.make([])


class TestIO:
    def test_csv_round(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("prediction,label,weight\n0.2,1,2.0\n0.8,0,2.0\n")
        j = read_csv(p)
        assert j == from_samples([(0.2, 1), (0.8, 0)])

    def test_csv_missing_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.2,1\n")
        with pytest.raises(ValueError):
            read_csv(p)

    def test_jsonl(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"p": 0.2, "y": 1}\n{"p": 0.8, "y": 0, "w": 1.0}\n')
        j = read_jsonl(p)
        assert set(j.vals.tolist()) == {0.2, 0.8}

    def test_instance_json_round_trip(self, tmp_path):
        inst = FiniteInstance.make(
            [("a", 0.25, 0.1, 0.3), ("b", 0.75, 0.9, 0.8)]
        )
        p = tmp_path / "inst.json"
        write_instance_json(inst, p)
        assert read_instance_json(p) == inst
        data = json.loads(p.read_text())
        assert {row["id"] for row in data} == {"a", "b"}

    def test_instance_json_rejects_non_array(self, tmp_path):
        p = tmp_path / "inst.json"
        p.write_text('{"id": "a"}')
        with pytest.raises(ValueError):
            read_instance_json(p)
