"""The measure-id registry and the exit codes of measure failures."""

import json

import pytest

from calmeasures import EmpiricalJoint
from calmeasures.cli import main
from calmeasures.measures import MEASURES, MeasureError, resolve

ROUNDS = [[0.3, 1], [0.3, 0], [0.7, 1], [0.2, 0], [0.7, 1]]
# 14 distinct predictions: more than the default oracle cap of 12
WIDE_ROUNDS = [[i / 13, i % 2] for i in range(14)]


def write_csv(path, rounds):
    path.write_text(
        "prediction,label\n" + "".join(f"{p!r},{y}\n" for p, y in rounds)
    )
    return str(path)


def write_transcript(path, rounds):
    path.write_text(json.dumps({"rounds": rounds}))
    return str(path)


@pytest.fixture
def task_json(tmp_path):
    p = tmp_path / "task.json"
    p.write_text('{"actions": ["l", "h"], "payoff": [[1, 0], [0, 1]]}')
    return str(p)


def sample_spec(name, task_json):
    args = {"ece_q": "3", "binned": "4", "lowdeg": "2", "kernel": "gaussian",
            "cfdl": task_json}
    return f"{name}:{args[name]}" if name in args else name


class TestResolve:
    def test_unknown_and_argument_on_plain_id(self):
        for spec in ("nope", "ece:2", "smce:x"):
            with pytest.raises(MeasureError):
                resolve(spec)

    def test_malformed_argument_is_plain_value_error(self):
        with pytest.raises(ValueError) as info:
            resolve("binned:x")
        assert not isinstance(info.value, MeasureError)

    def test_instance_only_needs_instance(self):
        f = resolve("dce")
        with pytest.raises(MeasureError):
            f(EmpiricalJoint.make([(0.5, 1, 1.0)]))


def test_every_joint_id_agrees_across_report_online_and_plotdata(
    tmp_path, task_json, capsys
):
    """Each id except the instance-only dce gives T times its report value
    as an online sequence measure and as the last point of a plotdata
    prefix curve."""
    T = len(ROUNDS)
    csv = write_csv(tmp_path / "d.csv", ROUNDS)
    transcript = write_transcript(tmp_path / "t.json", ROUNDS)
    specs = [sample_spec(m, task_json) for m in MEASURES if m != "dce"]
    assert main(["report", csv, "--measures", ",".join(specs)]) == 0
    report = json.loads(capsys.readouterr().out)["measures"]
    argv = ["plotdata", "--kind", "transcript", transcript,
            "--measures", ",".join(specs)]
    assert main(argv) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split(",")[3:]
    for spec, value in zip(specs, last):
        assert float(value) == pytest.approx(T * report[spec], abs=1e-12)


def test_online_accepts_every_joint_id(capsys):
    specs = "emd,tv,kernel:laplace,lowdeg:2,intce,dce_upper"
    argv = ["online", "--forecaster", "constant:0.5", "--adversary", "ones",
            "-T", "5", "--measures", specs]
    assert main(argv) == 0
    online = json.loads(capsys.readouterr().out)
    rounds = online["rounds"]
    joint = EmpiricalJoint.make((p, y, 1.0) for p, y in rounds)
    for spec, value in online["sequence_measures"].items():
        assert value == pytest.approx(5 * resolve(spec)(joint), abs=1e-12)
        assert online["prefix_curves"][spec][-1] == value


def bad_task(tmp_path):
    p = tmp_path / "nopayoff.json"
    p.write_text('{"actions": ["l", "h"]}')
    return f"cfdl:{p}"


# (measures, extra report-only flags, rounds, expected exit code)
EXIT_CASES = {
    "unknown_id": ("nope", [], ROUNDS, 3),
    "argument_on_plain_id": ("ece:2", [], ROUNDS, 3),
    "dce_without_instance": ("dce", [], ROUNDS, 3),
    "malformed_argument": ("binned:x", [], ROUNDS, 2),
    "unknown_kernel_argument": ("kernel:foo", [], ROUNDS, 2),
    "unknown_kernel_flag": ("kernel", ["--kernel", "foo"], ROUNDS, 2),
    "task_without_payoff": (bad_task, [], ROUNDS, 2),
    "missing_task_file": ("cfdl:/no/such/task.json", [], ROUNDS, 2),
    "oracle_cap": ("dce_upper", [], WIDE_ROUNDS, 4),
}


@pytest.mark.parametrize(
    "command,case",
    [
        (command, case)
        for command in ("report", "online", "plotdata")
        for case in sorted(EXIT_CASES)
        # --kernel is a report option
        if command == "report" or not EXIT_CASES[case][1]
    ],
)
def test_measure_failures_exit_with_their_code(
    command, case, tmp_path, capsys
):
    measures, flags, rounds, code = EXIT_CASES[case]
    if callable(measures):
        measures = measures(tmp_path)
    if command == "report":
        argv = ["report", write_csv(tmp_path / "d.csv", rounds)] + flags
    elif command == "online":
        # against all-ones outcomes the running mean t/(t+1) takes a new
        # value every round
        argv = ["online", "--forecaster", "running_mean", "--adversary",
                "ones", "-T", str(len(rounds))]
    else:
        transcript = write_transcript(tmp_path / "t.json", rounds)
        argv = ["plotdata", "--kind", "transcript", transcript]
    assert main(argv + ["--measures", measures]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_relations_reuses_reported_values(
    tmp_path, capsys, monkeypatch
):
    calls = []
    level_sets = EmpiricalJoint.level_sets

    def counting(self):
        calls.append(1)
        return level_sets(self)

    monkeypatch.setattr(EmpiricalJoint, "level_sets", counting)
    csv = write_csv(tmp_path / "d.csv", ROUNDS)
    argv = ["report", csv, "--verify-relations", "--measures"]
    assert main(argv + ["ece,ece2,cdl"]) == 0
    assert len(calls) == 3
    out = json.loads(capsys.readouterr().out)
    assert set(out["measures"]) == {"ece", "ece2", "cdl"}
    assert all(out["relation_checks"].values())

    calls.clear()
    assert main(argv + ["ece"]) == 0
    assert len(calls) == 3
    assert set(json.loads(capsys.readouterr().out)["measures"]) == {"ece"}


def test_help_lists_every_id(capsys):
    with pytest.raises(SystemExit):
        main(["report", "--help"])
    out = capsys.readouterr().out
    assert all(name in out for name in MEASURES)


def test_oracle_cap_beyond_enumeration_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "inst.json"
    p.write_text('[{"id": "a", "mass": 1, "pred": 0.4, "cond_mean": 0.5}]')
    assert main(["oracle", str(p), "--cap", "14"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
