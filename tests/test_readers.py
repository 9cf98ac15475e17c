"""The columnar CSV and JSONL readers: bit-identical joints to the row-by-row
readers they replaced, the accepted dialect, the rejected inputs (exit 2
with one error line), and the readers' peak memory per row."""

import csv
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from calmeasures import EmpiricalJoint, FiniteInstance
from calmeasures.cli import main
from calmeasures import empirical
from calmeasures.empirical import read_csv, read_instance_json, read_jsonl


def reference_read_csv(path):
    """The DictReader reader, one Python dict per row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "prediction" not in reader.fieldnames:
            raise ValueError(f"{path}: missing header with 'prediction' column")
        atoms = [(float(row["prediction"]), int(row["label"]),
                  float(row.get("weight", 1.0))) for row in reader]
    return EmpiricalJoint.make(atoms)


def reference_read_jsonl(path):
    """The per-line ``json.loads`` reader."""
    atoms = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            atoms.append((float(obj["p"]), int(obj["y"]),
                          float(obj.get("w", 1.0))))
    if not atoms:
        raise ValueError(f"{path}: no records")
    return EmpiricalJoint.make(atoms)


READERS = {"csv": (read_csv, reference_read_csv),
           "jsonl": (read_jsonl, reference_read_jsonl)}


def write_rows(path, p, y, w=None):
    p, y = p.tolist(), y.tolist()
    w = None if w is None else w.tolist()
    if path.suffix == ".csv":
        head = "prediction,label" + ("" if w is None else ",weight") + "\n"
        rows = (f"{a!r},{b}" if w is None else f"{a!r},{b},{w[i]!r}"
                for i, (a, b) in enumerate(zip(p, y)))
        path.write_text(head + "".join(r + "\n" for r in rows))
    else:
        path.write_text("".join(
            json.dumps({"p": a, "y": b} if w is None
                       else {"p": a, "y": b, "w": w[i]}) + "\n"
            for i, (a, b) in enumerate(zip(p, y))))


def random_rows(n, weighted, seed, full_precision=0.5):
    """Scores at 2 decimals (repeated values), except a share at full
    precision; some exact 0 and 1; a few zero weights."""
    rng = np.random.default_rng(seed)
    p = rng.beta(2.0, 3.0, n)
    p = np.where(rng.random(n) < full_precision, p, np.round(p, 2))
    p[:3] = [0.0, 1.0, 0.5]
    y = (rng.random(n) < p).astype(np.int64)
    w = None
    if weighted:
        w = rng.uniform(0.5, 2.0, n)
        w[rng.random(n) < 0.01] = 0.0
    return p, y, w


def assert_bit_identical(joint, ref):
    assert np.array(joint.atoms).tobytes() == np.array(ref.atoms).tobytes()
    a, b = joint.level_sets(), ref.level_sets()
    for col in ("vals", "mass", "mean", "residual"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), col


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n", [10**3, 10**5])
def test_bit_identical_to_the_row_readers(tmp_path, fmt, weighted, n):
    """Half the scores at full precision, then every score on 2 decimals,
    where unweighted lines repeat and are parsed once per block."""
    path = tmp_path / f"d.{fmt}"
    read, reference = READERS[fmt]
    for full_precision in (0.5, 0.0):
        write_rows(path, *random_rows(n, weighted, seed=n + weighted,
                                      full_precision=full_precision))
        assert_bit_identical(read(path), reference(path))


def test_repeated_weighted_lines_are_added_one_by_one(tmp_path):
    """Ten copies of a line of weight 0.1 add up to 0.9999999999999999, as
    the row reader adds them; ten times 0.1 would be 1.0."""
    path = tmp_path / "d.csv"
    path.write_text("prediction,label,weight\n" + "0.5,1,0.1\n" * 10
                    + "0.25,0,3\n")
    total = 0.0
    for _ in range(10):
        total += 0.1
    assert total != 10 * 0.1
    joint = read_csv(path)
    assert_bit_identical(joint, reference_read_csv(path))
    assert joint.m1[joint.vals == 0.5].tolist() == [total / (total + 3.0)]


def test_lines_of_weight_1_after_a_weighted_block(tmp_path, monkeypatch):
    """Counting stops at the first weighted block: 40 lines of weight 1,
    added one by one to the weights before them, give other bits than
    their counts added block by block."""
    monkeypatch.setattr(empirical, "_BLOCK", 64)
    path = tmp_path / "d.csv"
    path.write_text("prediction,label,weight\n0.25,0,1\n"
                    + "0.5,1,0.6576976696095598\n" * 3 + "0.5,1,1\n" * 40)
    assert_bit_identical(read_csv(path), reference_read_csv(path))


def test_jsonl_text_with_brackets_reads_line_by_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"p": 0.4, "y": 1, "id": "a[1]"}\n'
                    '{"p": 0.5, "y": 0, "tags": [1, 2]}\n')
    assert_bit_identical(read_jsonl(path), reference_read_jsonl(path))


def test_jsonl_with_list_fields_is_bit_identical(tmp_path):
    p, y, w = random_rows(10**4, True, seed=7)
    path = tmp_path / "d.jsonl"
    path.write_text("".join(
        json.dumps({"p": a, "y": b, "w": c, "tags": [b, "x"]}) + "\n"
        for a, b, c in zip(p.tolist(), y.tolist(), w.tolist())))
    assert_bit_identical(read_jsonl(path), reference_read_jsonl(path))


EXPECTED = EmpiricalJoint.make([(0.4, 1, 2.0), (0.5, 0, 1.0)])


@pytest.mark.parametrize("text", [
    "label,weight,prediction\n1,2,0.4\n0,1,0.5\n",
    "id,prediction,label,weight\na,0.4,1,2\nb,0.5,0,1\n",
    '"prediction","label","weight"\n"0.4","1","2"\n"0.5",0,"1"\n',
    "prediction,label,weight\r\n0.4,1,2\r\n0.5,0,1\r\n",
    "prediction,label,weight\n\n0.4,1,2\n\n0.5,0,1\n\n",
    "prediction , label, weight\n 0.4 , 1 ,2\n0.5,0 , 1 \n",
    "prediction,label,weight\n0.4,1,2\n0.5,0,1",
], ids=["reordered", "extra-column", "quoted", "crlf", "blank-lines",
        "spaces", "no-final-newline"])
def test_csv_dialect_accepted(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert_bit_identical(read_csv(path), EXPECTED)


@pytest.mark.parametrize("text", [
    '{"y": 1, "w": 2, "p": 0.4}\n{"p": 0.5, "y": 0}\n',
    '{"p": 0.4, "y": 1, "w": 2, "id": "a"}\n{"p": 0.5, "y": 0, "w": 1}\n',
    '{"p": 0.4, "y": 1.0, "w": 2}\r\n{"p": 0.5, "y": 0.0}\r\n',
    '\n{"p": 0.4, "y": 1, "w": 2}\n\n  \n{"p": 0.5, "y": 0}\n\n',
    '  {"p": 0.4 ,"y": 1,"w":2}  \n\t{"p":0.5,"y":0}',
    '{"p": 0.4, "y": 1}\n  \n' * 4 + '{"p": 0.5, "y": 0}\n' * 2,
], ids=["key-order", "extra-key", "crlf-float-labels", "blank-lines",
        "spaces", "repeated-lines-of-spaces"])
def test_jsonl_dialect_accepted(tmp_path, text):
    path = tmp_path / "d.jsonl"
    path.write_bytes(text.encode())
    assert_bit_identical(read_jsonl(path), EXPECTED)


def exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("name,text", [
    ("short-row.csv", "prediction,label,weight\n0.4,1,2\n0.5,0\n"),
    ("float-label.csv", "prediction,label\n0.4,1.0\n0.5,0\n"),
    ("fractional-label.csv", "prediction,label\n0.4,0.5\n"),
    ("comment.csv", "prediction,label\n# a comment\n0.4,1\n"),
    ("header-only.csv", "prediction,label\n"),
    ("header-and-blank-lines.csv", "prediction,label\n\n\n"),
    ("no-label-column.csv", "prediction,weight\n0.4,1\n"),
    ("empty.csv", ""),
    ("empty.jsonl", ""),
    ("blank.jsonl", "\n  \n"),
    ("two-objects.jsonl", '{"p": 0.4, "y": 1} {"p": 0.5, "y": 0}\n'),
    ("two-objects-comma.jsonl", '{"p": 0.4, "y": 1}, {"p": 0.5, "y": 0}\n'),
    ("across-lines.jsonl", '{"p": 0.4,\n "y": 1}\n'),
    ("across-and-two.jsonl",
     '{"p": 0.4\n"y": 1}\n{"p": 0.5, "y": 0}, {"p": 0.6, "y": 1}\n'),
    ("array-across-and-two.jsonl",
     '{"p": 0.4, "y": 1, "v": [{"a": 1}\n{"b": 2}]}\n'
     '{"p": 0.5, "y": 0}, {"p": 0.6, "y": 1}\n'),
    ("array.jsonl", '{"p": 0.5, "y": 0}\n[0.4, 1]\n'),
    ("list-field-and-two.jsonl",
     '{"p": 0.4, "y": 1, "t": [1]}\n{"p": 0.5, "y": 0} {"p": 0.6, "y": 1}\n'),
    ("list-field-and-comment.jsonl",
     '{"p": 0.4, "y": 1, "t": [1]}\n# a comment\n'),
    ("string.jsonl", '"p"\n'),
    ("number.jsonl", '0.4\n'),
    ("fractional-label.jsonl", '{"p": 0.4, "y": 0.7}\n{"p": 0.6, "y": 1}\n'),
    ("label-2.jsonl", '{"p": 0.4, "y": 2}\n'),
    ("huge-label.jsonl", '{"p": 0.4, "y": 1' + "0" * 400 + "}\n"),
    ("missing-key.jsonl", '{"p": 0.4}\n'),
])
def test_rejected_input_exits_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    exits_2_with_one_line(capsys, ["report", str(path)])


def test_csv_label_parsed_through_float_is_refused(tmp_path, capsys,
                                                  monkeypatch):
    """Some numpy versions read "0.5" into an int64 column as 0 with only a
    DeprecationWarning, which numpy turns into a ValueError when warnings
    are errors; this fake loadtxt does the same."""
    def old_loadtxt(fh, dtype, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '0.5' to int64 at "
                             "row 0, column 2.") from exc
        return np.array([(0.4, 0)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    path = tmp_path / "fractional-label.csv"
    path.write_text("prediction,label\n0.4,0.5\n")
    exits_2_with_one_line(capsys, ["report", str(path)])


@pytest.mark.parametrize("label", ["0.7", "-1", "1e400"])
def test_fractional_transcript_label_exits_2(tmp_path, capsys, label):
    path = tmp_path / "t.json"
    path.write_text(f'{{"rounds": [[0.4, {label}], [0.6, 1]]}}')
    exits_2_with_one_line(capsys, ["plotdata", "--kind", "transcript",
                                   str(path)])


def test_float_transcript_labels_read_as_integers(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"rounds": [[0.4, 1.0], [0.6, 0.0]]}')
    assert main(["plotdata", "--kind", "transcript", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["1", "0"]


def test_instance_mass_overflow_is_named(tmp_path, capsys):
    with pytest.raises(ValueError, match="total mass overflows"):
        FiniteInstance.make([("a", 1e308, 0.2, 0.3), ("b", 1e308, 0.6, 0.5)])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps([
        {"id": "a", "mass": 1e308, "pred": 0.2, "cond_mean": 0.3},
        {"id": "b", "mass": 1e308, "pred": 0.6, "cond_mean": 0.5},
    ]))
    for command in ("report", "oracle"):
        err = exits_2_with_one_line(capsys, [command, str(path)])
        assert "total mass overflows" in err


@pytest.mark.parametrize("fmt,weighted,bound", [
    ("csv", True, 120), ("jsonl", True, 120),
    ("csv", False, 15), ("jsonl", False, 15),
], ids=["csv", "jsonl", "csv-unweighted", "jsonl-unweighted"])
def test_reader_peak_memory_per_row(tmp_path, fmt, weighted, bound):
    # At k <= 101 the row readers peaked at about 180 (CSV) and 200
    # (JSONL) bytes per row; the columns and the level-set pass need
    # about 80.  Unweighted lines repeat, and each block keeps only its
    # distinct lines' rows: 7.6 (CSV) and 5.0 (JSONL) bytes per row, where
    # parsing every copy peaked at 66.
    n = 10**5
    path = tmp_path / f"d.{fmt}"
    write_rows(path, *random_rows(n, weighted, seed=7, full_precision=0.0))
    read = READERS[fmt][0]
    read(path)
    tracemalloc.start()
    try:
        read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * n


def refused_at(reader, path, message):
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("name,text,message", [
    ("float-label.csv", "prediction,label\n0.4,1.0\n0.5,0\n", "line 2: "),
    ("short-row-after-blank.csv",
     "prediction,label\n0.4,1\n\n0.5,0\n0.6\n", "line 5: "),
    ("missing-label.jsonl", '{"p": 0.4, "y": 1}\n\n{"p": 0.5}\n',
     "line 3: missing key 'y'"),
    ("true-label.jsonl", '{"p": 0.5, "y": 1}\n{"p": 0.5, "y": true}\n',
     "line 2: 'y' must be a JSON number, not true"),
    ("string-prediction.jsonl",
     '{"p": 0.5, "y": 1}\n{"p": "0.5", "y": 1}\n',
     "line 2: 'p' must be a JSON number, not \"0.5\""),
    ("false-weight.jsonl",
     '{"p": 0.5, "y": 1, "w": false}\n{"p": 0.4, "y": 0}\n',
     "line 1: 'w' must be a JSON number, not false"),
    ("string-weight.jsonl",
     '{"p": 0.5, "y": 1}\n{"p": 0.4, "y": 0, "w": "2"}\n',
     "line 2: 'w' must be a JSON number, not \"2\""),
    ("null-prediction.jsonl", '{"p": 0.5, "y": 1}\n{"p": null, "y": 0}\n',
     "line 2: 'p' must be a JSON number, not null"),
], ids=["float-label-csv", "short-row-after-blank-csv", "missing-key-jsonl",
        "true-label-jsonl", "string-prediction-jsonl", "false-weight-jsonl",
        "string-weight-jsonl", "null-prediction-jsonl"])
def test_row_error_names_the_file_line(tmp_path, capsys, name, text,
                                       message):
    """A value of the wrong type is refused too: a boolean or a string is
    no JSON number, though float() reads true as 1.0 and "0.5" as 0.5, and
    a weight false used to drop its row."""
    path = tmp_path / name
    path.write_text(text)
    refused_at(read_csv if path.suffix == ".csv" else read_jsonl, path,
               message)
    err = exits_2_with_one_line(capsys, ["report", str(path)])
    assert f"input {path}: {message}" in err and " at row " not in err


def test_row_error_in_a_late_block_names_its_line(tmp_path):
    """Lines are counted across the readers' blocks of 64 Ki characters."""
    rows = [f'{{"p": {i / 10**4!r}, "y": {i % 2}}}\n' for i in range(10**4)]
    rows[9000] = '{"p": 0.5, "y": 1,}\n'
    path = tmp_path / "late.jsonl"
    path.write_text("".join(rows))
    refused_at(read_jsonl, path, "line 9001: ")
    path = tmp_path / "late.csv"
    path.write_text("prediction,label\n" + "".join(
        f"{i / 10**4!r},{'x' if i == 9000 else i % 2}\n"
        for i in range(10**4)))
    refused_at(read_csv, path, "line 9002: ")


@pytest.mark.parametrize("name,text,message", [
    ("label-2.csv", "prediction,label\n0.4,1\n0.4,2\n", "line 3: "),
    ("p-above-1.jsonl", '{"p": 0.4, "y": 1}\n\n{"p": 1.5, "y": 1}\n',
     "line 3: "),
    ("negative-weight.csv", "prediction,label,weight\n0.2,1,1\n0.4,0,-1\n",
     "line 3: "),
], ids=["label-2-csv", "p-above-1-jsonl", "negative-weight-csv"])
def test_row_that_is_no_atom_names_its_file_line(tmp_path, capsys, name,
                                                 text, message):
    """A row that parses but breaks the joint's rules is refused by the
    reader, with its file line, and not later by ``make``."""
    path = tmp_path / name
    path.write_text(text)
    refused_at(read_csv if path.suffix == ".csv" else read_jsonl, path,
               message + "invalid atom ")
    err = exits_2_with_one_line(capsys, ["report", str(path)])
    assert f"input {path}: {message}invalid atom " in err


def test_row_that_is_no_atom_in_a_late_block_names_its_line(tmp_path):
    rows = [f'{{"p": {i / 10**4!r}, "y": {i % 2}}}\n' for i in range(10**4)]
    rows[9000] = '{"p": 0.5, "y": 1, "w": -2.0}\n'
    path = tmp_path / "late.jsonl"
    path.write_text("".join(rows))
    refused_at(read_jsonl, path, "line 9001: invalid atom (0.5, 1.0, -2.0)")
    path = tmp_path / "late.csv"
    path.write_text("prediction,label\n" + "".join(
        f"{1.25 if i == 9000 else i / 10**4!r},{i % 2}\n"
        for i in range(10**4)))
    refused_at(read_csv, path, "line 9002: invalid atom (1.25, 0.0, 1.0)")


@pytest.mark.parametrize("name,text,message", [
    ("bad-row.csv", "prediction,label\n0.4,1\n0.4,2\n",
     "line 3: invalid atom "),
    ("bad-line.jsonl", '{"p": 0.4, "y": 1}\n{"p": 0.4, "y": 1,}\n',
     "line 2: "),
    ("inst.json", '[{"id": "a", "mass": 1, "pred": 0.5, "cond_mean": 1}, '
     '{"id": "a", "mass": 1, "pred": 0.2, "cond_mean": 0}]',
     "point 2: 'id' \"a\" is already point 1's"),
], ids=["csv", "jsonl", "instance-json"])
def test_reader_error_names_the_file_once(tmp_path, capsys, name, text,
                                          message):
    """The CLI names the input file; the reader names only the line or
    point."""
    path = tmp_path / name
    path.write_text(text)
    for command in ("report", "oracle")[:1 + (path.suffix == ".json")]:
        err = exits_2_with_one_line(capsys, [command, str(path)])
        assert err.count(str(path)) == 1
        assert err.startswith(f"error: input {path}: {message}")


@pytest.mark.parametrize("name,text,message", [
    ("whitespace-line.csv",
     "prediction,label\n0.4,1\n0.4,1\n0.5,0\n \n0.4,1\n0.5,0\n0.4,1\n",
     "line 5: could not convert string ' ' to float64, column 1."),
    ("bad-row-twice.csv", "prediction,label\n0.4,1\n0.4,x\n0.5,0\n0.4,x\n"
     "0.4,1\n", "line 3: could not convert string 'x' to int64, column 2."),
    ("bad-line-twice.jsonl", '{"p": 0.4, "y": 1}\n{"p": 0.4, "y": 1,}\n'
     '{"p": 0.4, "y": 1}\n{"p": 0.4, "y": 1,}\n',
     "line 2: Expecting property name enclosed in double quotes"),
    ("no-atom-twice.jsonl", '{"p": 0.4, "y": 1}\n{"p": 1.5, "y": 1}\n'
     '{"p": 0.4, "y": 1}\n{"p": 1.5, "y": 1}\n',
     "line 2: invalid atom (1.5, 1.0, 1.0)"),
], ids=["whitespace-line-csv", "bad-row-twice-csv", "bad-line-twice-jsonl",
        "no-atom-twice-jsonl"])
def test_repeated_lines_keep_the_first_error(tmp_path, capsys, name, text,
                                             message):
    """Repeated lines are parsed once per block, but a refused line is
    named where it first occurs; a line of spaces between repeated lines
    is refused, not dropped as the empty line is."""
    path = tmp_path / name
    path.write_text(text)
    refused_at(read_csv if path.suffix == ".csv" else read_jsonl, path,
               message)
    err = exits_2_with_one_line(capsys, ["report", str(path)])
    assert f"input {path}: {message}" in err


def parse_calls(monkeypatch, path):
    """The texts the reader of ``path`` hands its parse callable, and the
    file's blocks."""
    calls, parse_blocks = [], empirical._parse_blocks

    def spy(fh, first, parse, empty):
        def spied(text):
            calls.append(text)
            return parse(text)
        return parse_blocks(fh, first, spied, empty)

    with open(path) as fh:
        if path.suffix == ".csv":
            fh.readline()
        blocks = list(iter(lambda: fh.read(empirical._BLOCK) + fh.readline(),
                           ""))
    monkeypatch.setattr(empirical, "_parse_blocks", spy)
    READERS[path.suffix[1:]][0](path)
    return calls, blocks


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("weighted,full_precision", [
    (False, 1.0), (True, 0.0)], ids=["distinct", "weighted"])
def test_lines_that_do_not_repeat_are_parsed_once(tmp_path, monkeypatch,
                                                  fmt, weighted,
                                                  full_precision):
    """Distinct scores, or 2-decimal scores with weights: after the first
    block, whose lines are counted, each block is parsed as it is, once."""
    monkeypatch.setattr(empirical, "_BLOCK", 2000)
    path = tmp_path / f"d.{fmt}"
    write_rows(path, *random_rows(2000, weighted, seed=3,
                                  full_precision=full_precision))
    calls, blocks = parse_calls(monkeypatch, path)
    assert len(blocks) > 10
    assert len(calls) <= len(blocks) + 1
    assert calls[len(calls) - len(blocks) + 1:] == blocks[1:]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_repeated_lines_are_parsed_once_per_block(tmp_path, monkeypatch,
                                                  fmt):
    """2-decimal unweighted scores: each block is parsed once, as its
    distinct lines (at most 101 scores times 2 labels)."""
    monkeypatch.setattr(empirical, "_BLOCK", 10000)
    path = tmp_path / f"d.{fmt}"
    write_rows(path, *random_rows(10**4, False, seed=4, full_precision=0.0))
    calls, blocks = parse_calls(monkeypatch, path)
    assert len(blocks) > 5 and len(calls) == len(blocks)
    for text, block in zip(calls, blocks):
        lines = text.split("\n")
        assert len(lines) <= 202 and len(set(lines)) == len(lines)
        assert set(lines) == set(block.split("\n")) - {""}


BOM_INPUTS = {
    "d.csv": ("prediction,label,weight\n0.4,1,2\n0.5,0,1\n",
              ["report", "{}", "--measures", "ece,cdl"]),
    "d.jsonl": ('{"p": 0.4, "y": 1, "w": 2}\n{"p": 0.5, "y": 0}\n',
                ["report", "{}", "--measures", "ece,cdl"]),
    "inst.json": (json.dumps([
        {"id": "a", "mass": 2, "pred": 0.4, "cond_mean": 1.0},
        {"id": "b", "mass": 1, "pred": 0.5, "cond_mean": 0.0}]),
        ["oracle", "{}"]),
    "t.json": ('{"rounds": [[0.4, 1], [0.5, 0], [0.4, 0]]}',
               ["plotdata", "--kind", "transcript", "{}", "--measures",
                "ece,cdl"]),
    "task.json": ('{"actions": ["a", "b"], "payoff": [[1, 0], [0, 1]]}',
                  ["report", "{csv}", "--measures", "cfdl:{}"]),
}


@pytest.mark.parametrize("name", sorted(BOM_INPUTS))
def test_utf8_byte_order_mark_is_accepted(tmp_path, capsys, name):
    """A leading UTF-8 byte-order mark, as in a spreadsheet's "CSV UTF-8"
    export, is read past by every input; the input digest still hashes the
    file's bytes."""
    text, argv = BOM_INPUTS[name]
    csv_path = tmp_path / "task-data.csv"
    csv_path.write_text(BOM_INPUTS["d.csv"][0])
    outputs = []
    for stem, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{stem}-{name}"
        path.write_bytes(prefix + text.encode())
        assert main([a.format(path, csv=csv_path) for a in argv]) == 0
        out = capsys.readouterr().out
        if argv[0] == "plotdata":
            outputs.append(out)
            continue
        payload = json.loads(out)
        if argv[1] == "{}":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert payload["meta"]["input_digest"] == digest
        del payload["meta"]
        if "measures" in payload:  # a task's spec names its path
            payload["measures"] = list(payload["measures"].values())
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_csv_block_of_blank_lines(tmp_path):
    """A block of the reader's 64 Ki characters that holds only empty lines
    parses to no rows, without a warning, and lines stay counted past it."""
    blank = "\n" * (1 << 17)
    path = tmp_path / "blank-block.csv"
    path.write_text(f"prediction,label,weight\n0.4,1,2\n{blank}0.5,0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_bit_identical(read_csv(path), EXPECTED)
    path.write_text(f"prediction,label\n0.4,1\n{blank}0.5,0\n0.6\n")
    refused_at(read_csv, path, f"line {4 + len(blank)}: ")


@pytest.mark.parametrize("where", ["first-block", "block-boundary"])
def test_csv_quoted_line_break_is_refused_where_it_opens(tmp_path, capsys,
                                                         where):
    """A quoted field holding a line break is refused whether it sits
    inside one of the reader's blocks or runs across two, naming the line
    where the quote opens."""
    rows = [f"0.{i % 90 + 10},{i % 2},x\n" for i in range(20000)]
    path = tmp_path / "quoted.csv"
    path.write_text("prediction,label,note\n" + "".join(rows))
    with open(path) as fh:
        fh.readline()
        boundary = len(fh.readlines(empirical._BLOCK))  # first block's lines
    at = 10 if where == "first-block" else boundary - 1
    rows[at:at + 2] = ['0.5,1,"a\n', 'b"\n']  # both as long as a row
    path.write_text("prediction,label,note\n" + "".join(rows))
    message = f"line {at + 2}: unclosed quote"
    refused_at(read_csv, path, message)
    assert f"input {path}: {message}" in exits_2_with_one_line(
        capsys, ["report", str(path)])


@pytest.mark.parametrize("header,name", [
    ("prediction,label,prediction", "prediction"),
    ("label,prediction,label", "label"),
    ("prediction,weight,label,weight", "weight"),
    (" prediction ,label,prediction", "prediction"),
])
def test_csv_column_named_twice_is_refused(tmp_path, capsys, header, name):
    """A column the reader uses may be named once; the last of two used to
    win silently (ece 0.1 from the third column of the first case, where
    the first column gives 0.35)."""
    path = tmp_path / "d.csv"
    path.write_text(f"{header}\n0.5,1,0.9\n0.2,0,0.1\n")
    err = exits_2_with_one_line(capsys, ["report", str(path)])
    assert f"column {name!r} appears more than once" in err


def test_csv_other_column_named_twice_is_ignored(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,prediction,id,label,weight\n"
                    "a,0.4,b,1,2\nc,0.5,d,0,1\n")
    assert_bit_identical(read_csv(path), EXPECTED)


@pytest.mark.parametrize("rounds,error", [
    ('[[0.5, true], ["0.25", 0]]', "round 1: 'y' must be a JSON number, "
                                   "not true"),
    ('[[0.5, 1], ["0.25", 0]]', "round 2: 'p' must be a JSON number, "
                                "not \"0.25\""),
    ('[[0.5, 1], [0.25, "0"]]', "round 2: 'y' must be a JSON number, "
                                "not \"0\""),
    ('[[0.5, 1], [false, 0]]', "round 2: 'p' must be a JSON number, "
                               "not false"),
    ('[[0.5, 1], [0.25, 0.5]]', "round 2: 'y' must be 0 or 1, not 0.5"),
    ('[[0.5, 1], [1.5, 0]]', "round 2: 'p' must be in [0, 1], not 1.5"),
], ids=["true-label", "string-prediction", "string-label", "false-prediction",
        "half-label", "prediction-above-1"])
def test_transcript_value_that_is_no_number_exits_2(tmp_path, capsys, rounds,
                                                    error):
    path = tmp_path / "t.json"
    path.write_text(f'{{"rounds": {rounds}}}')
    err = exits_2_with_one_line(capsys, ["plotdata", "--kind", "transcript",
                                         str(path)])
    assert err.endswith(f"{error}\n")


@pytest.mark.parametrize("points,error", [
    ('[{"id": "a", "mass": true, "pred": "0.5", "cond_mean": 1}, '
     '{"id": "b", "mass": "2", "pred": 0.25, "cond_mean": false}]',
     "point 1: 'mass' must be a JSON number, not true"),
    ('[{"id": "a", "mass": 1, "pred": 0.5, "cond_mean": 1}, '
     '{"id": "b", "pred": 0.5, "cond_mean": 0}]',
     "point 2: missing key 'mass'"),
    ('[{"id": "a", "mass": 1, "pred": 0.5, "cond_mean": 1}, [1, 0.5, 0]]',
     "point 2: not a JSON object"),
    ('[{"id": "a", "mass": 1, "pred": 0.5, "cond_mean": null}]',
     "point 1: 'cond_mean' must be a JSON number, not null"),
    ('[{"id": "a", "mass": 1, "pred": 0.5, "cond_mean": 1}, '
     '{"id": null, "mass": 1, "pred": 0.2, "cond_mean": 0}]',
     "point 2: 'id' must be a JSON string, not null"),
    ('[{"id": "a", "mass": 1, "pred": 0.5, "cond_mean": 1}, '
     '{"id": "a", "mass": 1, "pred": 0.2, "cond_mean": 0}]',
     "point 2: 'id' \"a\" is already point 1's"),
], ids=["true-mass", "missing-mass", "list-point", "null-cond-mean",
        "null-id", "repeated-id"])
def test_instance_point_error_names_the_point(tmp_path, capsys, points,
                                              error):
    """A point's error gives its position in the array, 1 for the first,
    as a JSONL error gives the line; float() would read true as 1.0 and
    "0.5" as 0.5."""
    path = tmp_path / "inst.json"
    path.write_text(points)
    refused_at(read_instance_json, path, error)
    for command in ("report", "oracle"):
        err = exits_2_with_one_line(capsys, [command, str(path)])
        assert err.endswith(f"input {path}: {error}\n")


# One JSON input of each kind, with %s in a numeric field, and the argv
# that reads it.
JSON_INPUTS = {
    "jsonl-line": ("d.jsonl", '{"p": 0.5, "y": 1}\n{"p": %s, "y": 0}\n',
                   ["report", "{path}"]),
    "instance-point": ("inst.json", '[{"id": "a", "mass": 1, "pred": %s, '
                       '"cond_mean": 1}]', ["report", "{path}"]),
    "transcript-round": ("t.json", '{"rounds": [[0.5, 1], [%s, 0]]}',
                         ["plotdata", "--kind", "transcript", "{path}"]),
    "task-payoff": ("task.json", '{"actions": ["l", "h"], '
                    '"payoff": [[1, 0], [%s, 1]]}',
                    ["report", "{csv}", "--measures", "cfdl:{path}"]),
}


@pytest.mark.parametrize("value", ["true", '"0.5"', "null"])
@pytest.mark.parametrize("kind", JSON_INPUTS)
def test_every_json_input_takes_only_json_numbers(tmp_path, capsys, kind,
                                                  value):
    name, template, argv = JSON_INPUTS[kind]
    path, csv_path = tmp_path / name, tmp_path / "d.csv"
    path.write_text(template % value)
    csv_path.write_text("prediction,label\n0.4,1\n0.5,0\n")
    err = exits_2_with_one_line(capsys, [
        arg.format(path=path, csv=csv_path) for arg in argv])
    assert f"must be a JSON number, not {value}\n" in err


# Blocks: a block is _BLOCK characters and the rest of its last line.


def write_lines(path, lines, newline="\n"):
    path.write_bytes("".join(line + newline for line in lines).encode())


def record_lines(fmt, n, seed):
    """A header, for CSV, and n weighted records, each ending in a field
    "x" that ``pad`` lengthens."""
    p, y, w = random_rows(n, True, seed)
    rows = zip(p.tolist(), y.tolist(), w.tolist())
    if fmt == "csv":
        return ["prediction,label,weight,note"] + [
            f"{a!r},{b},{c!r},x" for a, b, c in rows]
    return [json.dumps({"p": a, "y": b, "w": c, "id": "x"})
            for a, b, c in rows]


def pad(line, k):
    """``line`` with k more characters in its last field."""
    return line + "x" * k if line.endswith("x") else \
        line[:-2] + "x" * k + line[-2:]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_lines_that_straddle_a_read(tmp_path, monkeypatch, fmt, block):
    """Lines of 20 to 70 characters against reads of ``block``
    characters: most lines straddle a read, and the rows are those of the
    row readers."""
    monkeypatch.setattr(empirical, "_BLOCK", block)
    path = tmp_path / f"d.{fmt}"
    write_lines(path, record_lines(fmt, 300, seed=block))
    read, reference = READERS[fmt]
    assert_bit_identical(read(path), reference(path))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_break_across_two_reads(tmp_path, monkeypatch, fmt, newline):
    """The first record is padded so that a CR is the last byte of the
    text reader's first chunk of 8192 bytes, and a CRLF's LF the first
    byte of the next; and block sizes of 1 to 40 characters end some reads
    between a CR and its LF in the decoded text."""
    lines = record_lines(fmt, 400, seed=len(newline))
    first = int(fmt == "csv")
    path = tmp_path / f"d.{fmt}"
    for k in range(100):
        padded = lines[:first] + [pad(lines[first], k)] + lines[first + 1:]
        write_lines(path, padded, newline)
        if path.read_bytes()[8191:8192] == b"\r":
            break
    else:
        raise AssertionError("no padding puts a CR at byte 8191")
    read, reference = READERS[fmt]
    expected = reference(path)
    for block in [*range(1, 41), 8191, 8192, 8193]:
        monkeypatch.setattr(empirical, "_BLOCK", block)
        assert_bit_identical(read(path), expected)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_line_longer_than_a_block(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(empirical, "_BLOCK", 16)
    lines = record_lines(fmt, 5, seed=5)
    lines[3] = pad(lines[3], 200)
    path = tmp_path / f"d.{fmt}"
    write_lines(path, lines)
    read, reference = READERS[fmt]
    assert_bit_identical(read(path), reference(path))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_malformed_line_in_the_third_block_after_line_separators(
        tmp_path, monkeypatch, fmt):
    """Every record holds "\\u2028" and "\\x85" in a JSON string, or "\\x0c",
    "\\x1c" and "\\u2028" in a CSV field, which ``str.splitlines`` takes
    for line breaks and the file reader does not.  Records of 40
    characters make blocks of three at a _BLOCK of 100, so the malformed
    eighth record is the second of the third block; it is named by its
    file line, as by the reader of blocks of lines."""
    monkeypatch.setattr(empirical, "_BLOCK", 100)
    lines = []
    for i in range(12):
        if fmt == "csv":
            line = f"0.{i + 10},{'x' if i == 7 else i % 2},a\x0cb\x1cc\u2028"
            end = ""
        else:
            line = f'{{"p": 0.{i + 10}, "y": {i % 2}, "s": "\u2028\x85'
            end = '",}' if i == 7 else '"}'
        lines.append(line + "x" * (39 - len(line) - len(end)) + end)
    assert {len(line) for line in lines} == {39}
    path = tmp_path / f"d.{fmt}"
    header = ["prediction,label,note"] if fmt == "csv" else []
    write_lines(path, header + lines)
    if fmt == "csv":
        message = "line 9: could not convert string 'x' to int64"
    else:
        with pytest.raises(ValueError) as info:
            json.loads(lines[7])
        message = f"line 8: {info.value}"
    refused_at(READERS[fmt][0], path, message)
    lines[7] = lines[6]
    write_lines(path, header + lines)
    read, reference = READERS[fmt]
    assert_bit_identical(read(path), reference(path))
