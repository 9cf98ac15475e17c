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

from calmeasures import FiniteInstance, from_samples
from calmeasures.cli import main
from calmeasures import empirical
from calmeasures.empirical import read_csv, read_jsonl


def reference_read_csv(path):
    """The DictReader reader, one Python dict per row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "prediction" not in reader.fieldnames:
            raise ValueError(f"{path}: missing header with 'prediction' column")
        pairs, weights = [], []
        for row in reader:
            pairs.append((float(row["prediction"]), int(row["label"])))
            weights.append(float(row.get("weight", 1.0)))
    return from_samples(pairs, weights)


def reference_read_jsonl(path):
    """The per-line ``json.loads`` reader."""
    pairs, weights = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            pairs.append((float(obj["p"]), int(obj["y"])))
            weights.append(float(obj.get("w", 1.0)))
    if not pairs:
        raise ValueError(f"{path}: no records")
    return from_samples(pairs, weights)


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
    path = tmp_path / f"d.{fmt}"
    write_rows(path, *random_rows(n, weighted, seed=n + weighted))
    read, reference = READERS[fmt]
    assert_bit_identical(read(path), reference(path))


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


EXPECTED = from_samples([(0.4, 1), (0.5, 0)], [2.0, 1.0])


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
], ids=["key-order", "extra-key", "crlf-float-labels", "blank-lines",
        "spaces"])
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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_reader_peak_memory_per_row(tmp_path, fmt):
    # At k <= 101 the row readers peaked at about 180 (CSV) and 200
    # (JSONL) bytes per row; the columns and the level-set pass need
    # about 80.
    n = 10**5
    path = tmp_path / f"d.{fmt}"
    write_rows(path, *random_rows(n, True, seed=7, full_precision=0.0))
    read = READERS[fmt][0]
    read(path)
    tracemalloc.start()
    try:
        read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * n


def refused_at(reader, path, message):
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}, {message}")


@pytest.mark.parametrize("name,text,message", [
    ("float-label.csv", "prediction,label\n0.4,1.0\n0.5,0\n", "line 2: "),
    ("short-row-after-blank.csv",
     "prediction,label\n0.4,1\n\n0.5,0\n0.6\n", "line 5: "),
    ("missing-label.jsonl", '{"p": 0.4, "y": 1}\n\n{"p": 0.5}\n',
     "line 3: missing key 'y'"),
], ids=["float-label-csv", "short-row-after-blank-csv", "missing-key-jsonl"])
def test_row_error_names_the_file_line(tmp_path, capsys, name, text,
                                       message):
    path = tmp_path / name
    path.write_text(text)
    refused_at(read_csv if path.suffix == ".csv" else read_jsonl, path,
               message)
    err = exits_2_with_one_line(capsys, ["report", str(path)])
    assert f"{path}, {message}" in err and " at row " not in err


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
    assert f"{path}, {message}invalid atom " in err


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
    assert f"{path}, {message}" in exits_2_with_one_line(
        capsys, ["report", str(path)])
