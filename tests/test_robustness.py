"""Inputs that used to be dropped silently or escape as a traceback: every
one exits 2 with a single error line; and the partition oracle's exact
zero on a calibrated instance."""

import json

import pytest

from calmeasures import (
    EmpiricalJoint,
    FiniteInstance,
    dce_oracle,
    from_samples,
)
from calmeasures.cli import main

INSTANCE = [{"id": "a", "mass": 1.0, "pred": 0.2, "cond_mean": 0.3},
            {"id": "b", "mass": 1.0, "pred": 0.6, "cond_mean": 0.5}]


def exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_csv_non_finite_weight_exits_2(tmp_path, capsys, weight):
    p = tmp_path / "d.csv"
    p.write_text(f"prediction,label,weight\n0.4,1,{weight}\n0.5,0,1\n")
    exits_2_with_one_line(capsys, ["report", str(p)])


@pytest.mark.parametrize("weight", ["NaN", "Infinity"])
def test_jsonl_non_finite_weight_exits_2(tmp_path, capsys, weight):
    p = tmp_path / "d.jsonl"
    p.write_text(f'{{"p": 0.4, "y": 1, "w": {weight}}}\n'
                 '{"p": 0.5, "y": 0}\n')
    exits_2_with_one_line(capsys, ["report", str(p)])


@pytest.mark.parametrize("command", ["report", "oracle"])
@pytest.mark.parametrize("mass", ["NaN", "Infinity"])
def test_instance_non_finite_mass_exits_2(tmp_path, capsys, command, mass):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(INSTANCE).replace("1.0", mass, 1))
    exits_2_with_one_line(capsys, [command, str(p)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_masses_rejected_in_the_library(bad):
    with pytest.raises(ValueError):
        FiniteInstance.make([("a", bad, 0.2, 0.3), ("b", 1.0, 0.4, 0.5)])
    with pytest.raises(ValueError):
        EmpiricalJoint.make([(0.2, 1, bad), (0.4, 0, 1.0)])
    with pytest.raises(ValueError):
        from_samples([(0.2, 1), (0.4, 0)], [bad, 1.0])


def test_overflowing_total_weight_exits_2(tmp_path, capsys):
    with pytest.raises(ValueError):
        EmpiricalJoint.make([(0.2, 1, 1e308), (0.4, 0, 1e308)])
    p = tmp_path / "d.csv"
    p.write_text("prediction,label,weight\n0.4,1,1e308\n0.6,0,1e308\n")
    exits_2_with_one_line(capsys, ["report", str(p)])
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(INSTANCE).replace("1.0", "1e308"))
    for command in ("report", "oracle"):
        exits_2_with_one_line(capsys, [command, str(p)])


@pytest.mark.parametrize("name,text", [
    ("d.csv", "prediction,label\n0.4\n0.5,0\n"),
    ("d.jsonl", '{"p": 0.5, "y": 0}\n[0.4, 1]\n'),
    ("d.jsonl", '{"p": null, "y": 0}\n'),
    ("d.json", "[[0.1, 0.2]]"),
])
def test_malformed_row_exits_2(tmp_path, capsys, name, text):
    p = tmp_path / name
    p.write_text(text)
    exits_2_with_one_line(capsys, ["report", str(p)])
    if name.endswith(".json"):
        exits_2_with_one_line(capsys, ["oracle", str(p)])


def test_malformed_transcript_row_exits_2(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text('{"rounds": [[0.4, 1], 0.5]}')
    exits_2_with_one_line(capsys, ["plotdata", "--kind", "transcript", str(p)])


def test_dce_oracle_is_exactly_zero_on_a_calibrated_instance():
    # (mass * cond) / mass is not cond in floating point for these points
    inst = FiniteInstance.make(
        (f"x{i}", m, c, c)
        for i, (m, c) in enumerate(zip([1, 2, 3, 4], [0.1, 0.1, 0.4, 0.7]))
    )
    assert dce_oracle(inst) == 0.0
