"""The measure-id registry and the exit codes of measure failures."""

import json

import numpy as np
import pytest

from calmeasures import EmpiricalJoint, cli, intce_opt, kernel_ce, read_csv
from calmeasures import measures as registry
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


# (measures, rounds, expected exit code)
EXIT_CASES = {
    "unknown_id": ("nope", ROUNDS, 3),
    "argument_on_plain_id": ("ece:2", ROUNDS, 3),
    "dce_without_instance": ("dce", ROUNDS, 3),
    "malformed_argument": ("binned:x", ROUNDS, 2),
    "unknown_kernel_argument": ("kernel:foo", ROUNDS, 2),
    "task_without_payoff": (bad_task, ROUNDS, 2),
    "missing_task_file": ("cfdl:/no/such/task.json", ROUNDS, 2),
    "oracle_cap": ("dce_upper", WIDE_ROUNDS, 4),
    "nan_q": ("ece_q:nan", ROUNDS, 2),
    "infinite_q": ("ece_q:inf", ROUNDS, 2),
}


@pytest.mark.parametrize(
    "command,case",
    [
        (command, case)
        for command in ("report", "online", "plotdata")
        for case in sorted(EXIT_CASES)
    ],
)
def test_measure_failures_exit_with_their_code(
    command, case, tmp_path, capsys
):
    measures, rounds, code = EXIT_CASES[case]
    if callable(measures):
        measures = measures(tmp_path)
    if command == "report":
        argv = ["report", write_csv(tmp_path / "d.csv", rounds)]
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
    # the registry calls these through its own module names: one call per
    # measure computed
    for name in ("ece", "ece_q", "cdl"):
        def counting(*args, _f=getattr(registry, name)):
            calls.append(1)
            return _f(*args)

        monkeypatch.setattr(registry, name, counting)
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


# each argument is out of the range its measure's function takes
BAD_ARGUMENTS = ("binned:0", "lowdeg:-1", "ece_q:0.5", "kernel:foo",
                 "intce:1", f"intce:{2**63}")


def never_called(*args):
    raise AssertionError("called after a bad spec")


@pytest.mark.parametrize("spec", BAD_ARGUMENTS)
def test_a_bad_argument_is_refused_before_any_measure_runs(
    spec, tmp_path, capsys, monkeypatch
):
    csv = write_csv(tmp_path / "d.csv", ROUNDS)
    assert main(["report", csv, "--measures", spec]) == 2
    (alone,) = capsys.readouterr().err.splitlines()
    assert alone.startswith(f"error: measure {spec!r}: ")

    # neither the input is read nor smce computed
    monkeypatch.setattr(cli, "read_csv", never_called)
    monkeypatch.setattr(registry, "smce", never_called)
    assert main(["report", csv, "--measures", f"smce,{spec}"]) == 2
    assert capsys.readouterr().err.splitlines() == [alone]

    transcript = write_transcript(tmp_path / "t.json", ROUNDS)
    monkeypatch.setattr(cli, "prefix_curves", never_called)
    argv = ["plotdata", "--kind", "transcript", transcript,
            "--measures", f"ece,{spec}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [alone]

    monkeypatch.setattr(cli, "run", never_called)
    argv = ["online", "--forecaster", "constant:0.5", "--adversary", "ones",
            "-T", "5", "--measures", f"ece,{spec}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [alone]


# a coarse grid warns that it merges prediction values
@pytest.mark.filterwarnings("ignore:grid g=")
@pytest.mark.parametrize("g", [2, 7, 50, 1000, 12345])
def test_spec_arguments_give_the_library_values_bit_for_bit(
    g, tmp_path, capsys
):
    rng = np.random.default_rng(g)
    p = rng.beta(2.0, 3.0, 300).round(3)
    y = (rng.random(300) < p).astype(int)
    csv = write_csv(tmp_path / "d.csv", zip(p.tolist(), y.tolist()))
    specs = f"intce:{g},kernel:gaussian,intce,intce:1000,kernel,kernel:laplace"
    assert main(["report", csv, "--measures", specs]) == 0
    joint = read_csv(csv)
    want = {f"intce:{g}": intce_opt(joint, g),
            "kernel:gaussian": kernel_ce(joint, "gaussian"),
            "intce": intce_opt(joint, 1000),
            "kernel": kernel_ce(joint, "laplace")}
    got = json.loads(capsys.readouterr().out)["measures"]
    assert {m: got[m].hex() for m in want} == {
        m: v.hex() for m, v in want.items()}
    assert got["intce:1000"] == got["intce"]
    assert got["kernel:laplace"] == got["kernel"]


@pytest.mark.filterwarnings("ignore:grid g=")
def test_intce_grid_reaches_online_and_plotdata(tmp_path, capsys):
    """On 40 rounds of a running mean, intce:50 ends its curve at T times
    its report value and differs from intce at the default g = 1000."""
    argv = ["online", "--forecaster", "running_mean", "--adversary",
            "bernoulli:0.3", "-T", "40", "--seed", "1", "--measures",
            "intce:50,intce"]
    assert main(argv) == 0
    online = json.loads(capsys.readouterr().out)
    rounds = online["rounds"]
    csv = write_csv(tmp_path / "d.csv", rounds)
    assert main(["report", csv, "--measures", "intce:50,intce"]) == 0
    report = json.loads(capsys.readouterr().out)["measures"]
    transcript = write_transcript(tmp_path / "t.json", rounds)
    assert main(["plotdata", "--kind", "transcript", transcript,
                 "--measures", "intce:50,intce"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split(",")[3:]
    assert report["intce:50"] != report["intce"]
    for spec, plotted in zip(("intce:50", "intce"), last):
        want = pytest.approx(40 * report[spec], abs=1e-12)
        assert online["prefix_curves"][spec][-1] == want
        assert online["sequence_measures"][spec] == want
        assert float(plotted) == want
