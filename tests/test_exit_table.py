"""Failures outside a measure or a reader: each maps through the CLI's one
exit-code table to its code, with one error line and no traceback."""

import warnings

import numpy as np
import pytest

from calmeasures import cli, measures
from calmeasures.cli import main


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.fixture
def csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n")
    return str(path)


def test_unwritable_report_output_exits_2(csv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["report", csv, "-o", str(out)]) == 2
    one_error_line(capsys)


def test_unwritable_fixture_emit_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["fixture", "--name", "two_point", "--eps", "0.1", "--emit"]
    assert main(argv + [str(out)]) == 2
    one_error_line(capsys)


def test_overflowing_grid_exits_2(csv, capsys):
    argv = ["report", csv, "--measures", "intce"]
    assert main(argv + ["--grid", "100000000000000000000"]) == 2
    assert one_error_line(capsys).startswith("error: measure 'intce'")


def test_huge_grid_is_refused_before_any_cast(csv, capsys):
    """Refused by name, not after numpy warns of an invalid cast."""
    argv = ["report", csv, "--measures", "intce"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--grid", "100000000000000000000"]) == 2
    err = one_error_line(capsys)
    assert err.startswith("error: measure 'intce': grid resolution g=")


def test_intce_over_its_step_cap_exits_4(tmp_path, capsys):
    """10^5 distinct scores at g = 10^6: the intce DP would take about 10^15
    steps over windows of group starts of tens of GB, and is refused by its
    step count before any of them is built."""
    rng = np.random.default_rng(5)
    p = rng.beta(2.0, 3.0, 10**5)
    y = (rng.random(10**5) < p).astype(np.int64)
    path = tmp_path / "distinct.csv"
    path.write_text("prediction,label\n" + "".join(
        f"{a!r},{b}\n" for a, b in zip(p.tolist(), y.tolist())))
    argv = ["report", str(path), "--measures", "intce", "--grid", "1000000"]
    assert main(argv) == 4
    err = one_error_line(capsys)
    assert err.startswith("error: measure 'intce': grid g=1000000 needs ")


def test_reader_out_of_memory_exits_5(csv, monkeypatch, capsys):
    def read_csv(path):
        raise MemoryError

    monkeypatch.setattr(cli, "read_csv", read_csv)
    assert main(["report", csv]) == 5
    err = one_error_line(capsys)
    assert err.startswith(f"error: input {csv} ran out of memory")


def test_unlisted_exception_in_a_measure_exits_6(csv, monkeypatch, capsys):
    """An exception of a type outside the table is an internal error, not
    the relation-chain failure that exit 1 is kept for."""
    def ece(joint):
        raise RuntimeError("solver\nstate lost")

    monkeypatch.setattr(measures, "ece", ece)
    assert main(["report", csv, "--measures", "ece"]) == 6
    err = one_error_line(capsys)
    assert err == ("error: measure 'ece': internal error "
                   "RuntimeError('solver\\nstate lost')\n")


def test_every_spec_resolves_before_any_is_computed(tmp_path, capsys):
    """dce_upper would exceed the oracle cap on 14 distinct scores (exit
    4), but the unknown id after it is refused first."""
    path = tmp_path / "wide.csv"
    path.write_text("prediction,label\n" + "".join(
        f"{(i + 1) / 16},{i % 2}\n" for i in range(14)))
    argv = ["report", str(path), "--measures", "dce_upper,nope"]
    assert main(argv) == 3
    assert "unknown measure 'nope'" in one_error_line(capsys)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("name,text,argv,label", [
    ("deep.jsonl", DEEP + "\n", ["report", "{path}"], "input"),
    ("deep.json", DEEP, ["report", "{path}"], "input"),
    ("deep.json", DEEP, ["oracle", "{path}"], "input"),
    ("deep.json", '{"rounds": ' + DEEP + "}",
     ["plotdata", "--kind", "transcript", "{path}"], "input"),
    ("task.json", DEEP, ["report", "{csv}", "--measures", "cfdl:{path}"],
     "measure"),
], ids=["report-jsonl", "report-json", "oracle", "plotdata-transcript",
        "cfdl-task"])
def test_too_deeply_nested_json_exits_2(name, text, argv, label, csv,
                                        tmp_path, capsys):
    """A JSON value nested past the recursion limit is malformed input,
    not the relation-chain failure that exit 1 is kept for."""
    path = tmp_path / name
    path.write_text(text)
    assert main([a.format(path=path, csv=csv) for a in argv]) == 2
    err = one_error_line(capsys)
    assert err.startswith(f"error: {label} ")
    assert "maximum recursion depth exceeded" in err
