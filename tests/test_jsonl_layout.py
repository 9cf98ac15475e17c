"""The JSONL reader's fixed-layout path against its object path.

A block whose lines are all {"p": P, "y": Y} or all {"p": P, "y": Y,
"w": W}, as ``json.dumps`` writes them, is decoded as one flat array of
numbers by ``empirical._fixed_layout_rows``; every other block goes through
``empirical._object_rows``.  The fast path must never accept a block the
object path refuses, and must give the same bits when it accepts one.
"""

import json
import random

import numpy as np
import pytest

from calmeasures import empirical
from calmeasures.empirical import read_jsonl
from test_readers import assert_bit_identical, reference_read_jsonl

FUZZ_SEED = 20261019
FUZZ_CASES = 20000
# Number bytes twice as often as the rest, so that many mutants keep the
# layout and reach the flat decode.
ALPHABET = "0123456789.eE+-" * 2 + '{}":, \npyw[]Na\t'
REFUSED = (KeyError, TypeError, ValueError, OverflowError)


def object_rows(lines):
    """The object path's rows, or None where it refuses the block."""
    try:
        return empirical._object_rows(lines)
    except REFUSED:
        return None


def fast_agrees(lines) -> bool:
    """Whether the fast path took ``lines``; if it did, the object path
    must accept them too and give the same bits."""
    fast = empirical._fixed_layout_rows(lines)
    if fast is None:
        return False
    slow = object_rows(lines)
    assert slow is not None, lines
    assert fast.tobytes() == slow.tobytes(), lines
    return True


def number(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return str(rng.randrange(2))
    if kind == 1:
        return repr(round(rng.random(), 2))
    if kind == 2:
        return repr(rng.random())
    if kind == 3:  # from underflowing to overflowing, "inf" included
        exponent = rng.randrange(-330, 310)
        return repr(float(f"{rng.uniform(-1.0, 2.0):.17f}e{exponent}"))
    if kind == 4:
        return str(rng.randrange(-10**20, 10**20))
    return rng.choice(["-0", "-0.0", "1e400", "2e-400", "1E5", "1e+2",
                       "0.5e-3", "10" * 20, "9" * 400])


def layout_line(rng: random.Random, weighted: bool) -> str:
    if weighted:
        return '{"p": %s, "y": %s, "w": %s}\n' % (
            number(rng), number(rng), number(rng))
    return '{"p": %s, "y": %s}\n' % (number(rng), number(rng))


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(4)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
        elif op == 1:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def test_mutation_fuzz_never_accepts_a_refused_block():
    rng = random.Random(FUZZ_SEED)
    taken = 0
    for _ in range(FUZZ_CASES):
        weighted = rng.random() < 0.5
        text = "".join(
            layout_line(rng, weighted if rng.random() < 0.9 else not weighted)
            for _ in range(rng.randrange(1, 5)))
        taken += fast_agrees(mutate(rng, text).splitlines(keepends=True))
    # many mutants keep the layout, so the bit comparison is exercised
    assert taken > FUZZ_CASES // 10


def test_unmutated_blocks_take_the_fast_path():
    rng = random.Random(FUZZ_SEED + 1)
    for weighted in (False, True):
        lines = [layout_line(rng, weighted) for _ in range(200)]
        lines = [line for line in lines if object_rows([line]) is not None]
        assert fast_agrees(lines)


def refused_the_same_way(tmp_path, monkeypatch, text):
    """read_jsonl's error on ``text``, which must be the error of the
    object path alone."""
    path = tmp_path / "d.jsonl"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as fast:
        read_jsonl(path)
    monkeypatch.setattr(empirical, "_fixed_layout_rows", lambda lines: None)
    with pytest.raises(ValueError) as slow:
        read_jsonl(path)
    assert str(fast.value) == str(slow.value)
    return str(fast.value)


@pytest.mark.parametrize("line", [
    '6{"p": 2e-400, "y": 1}\n',
    '{"p": 0.4, "y": 1}6\n',
    '{"p1": 0.4, "y": 1}\n',
    '{"p": 0.4, "y1": 1}\n',
    '{"p"1: 0.4, "y": 1}\n',
    '{"p":1 0.4, "y": 1}\n',
    '{"p": 0.4,1 "y": 1}\n',
], ids=["digit-before-brace", "digit-after-brace", "digit-in-key-p",
        "digit-in-key-y", "digit-before-colon", "digit-after-colon",
        "digit-after-comma"])
def test_misplaced_digit_is_refused(tmp_path, monkeypatch, line):
    lines = ['{"p": 0.5, "y": 0}\n', line]
    assert empirical._fixed_layout_rows(lines) is None
    assert object_rows(lines) is None
    assert "line 2" in refused_the_same_way(tmp_path, monkeypatch,
                                            "".join(lines))


@pytest.mark.parametrize("key", ["p", "w"])
@pytest.mark.parametrize("value", ["01", ".5", "+1", "1.", "NaN",
                                   "1" + "0" * 400],
                         ids=["01", ".5", "+1", "1.", "NaN", "400-digits"])
def test_numbers_outside_the_json_grammar_are_refused(tmp_path, monkeypatch,
                                                      key, value):
    values = {"p": "0.5", "w": "2", key: value}
    line = '{"p": %s, "y": 1, "w": %s}\n' % (values["p"], values["w"])
    assert empirical._fixed_layout_rows([line]) is None
    assert "line 1" in refused_the_same_way(tmp_path, monkeypatch, line)


def test_minus_zero_integer_reads_as_zero():
    lines = ['{"p": -0, "y": 1}\n', '{"p": -0.0, "y": 0, "w": -0}\n']
    for line in lines:
        assert fast_agrees([line])
    assert empirical._fixed_layout_rows(lines[:1])[0, 0].hex() == "0x0.0p+0"


def write(tmp_path, text):
    path = tmp_path / "d.jsonl"
    path.write_bytes(text.encode())
    return path


def fast_path_only(monkeypatch):
    def refuse(lines):
        raise AssertionError("block left the fast path")
    monkeypatch.setattr(empirical, "_object_rows", refuse)


@pytest.mark.parametrize("text", [
    '{"p": 0.4, "y": 1, "w": 2}\r\n{"p": 0.5, "y": 0, "w": 1}\r\n',
    '{"p": 0.4, "y": 1, "w": 2}\n{"p": 0.5, "y": 0, "w": 1}',
], ids=["crlf", "no-final-newline"])
def test_fixed_layout_variants_take_the_fast_path(tmp_path, monkeypatch,
                                                  text):
    path = write(tmp_path, text)
    expected = reference_read_jsonl(path)
    fast_path_only(monkeypatch)
    assert_bit_identical(read_jsonl(path), expected)


@pytest.mark.parametrize("text", [
    '{"p": 0.4, "y": 1, "w": 2}\n{"p": 0.5, "y": 0}\n',
    '{"y": 1, "p": 0.4}\n{"y": 0, "p": 0.5}\n',
    '{"p":0.4,"y":1}\n{"p":0.5,"y":0}\n',
    '{"p": 0.4, "y": 1}\n\n{"p": 0.5, "y": 0}\n',
    '  {"p": 0.4, "y": 1}\n{"p": 0.5, "y": 0}  \n',
    '{"p": 0.4, "y": 1}\n{"p": 0.5, "y": 0}\n\n',
    '{"p": 0.4, "y": true}\n{"p": 0.5, "y": 0}\n',
    '{"p": 0.4, "y": 1, "w1": 2}\n{"p": 0.5, "y": 0, "w": 1}\n',
], ids=["mixed-weights", "key-order-y-p", "compact", "blank-line",
        "space-padded", "trailing-blank-line", "boolean-label",
        "digit-in-key-w"])
def test_other_layouts_take_the_object_path(tmp_path, text):
    lines = text.splitlines(keepends=True)
    assert empirical._fixed_layout_rows(lines) is None
    path = write(tmp_path, text)
    assert_bit_identical(read_jsonl(path), reference_read_jsonl(path))


def test_blocks_of_either_layout_in_one_file(tmp_path, monkeypatch):
    """Weighted lines filling more than one block, then unweighted ones:
    a block of either layout takes the fast path."""
    rng = np.random.default_rng(3)
    n = 2 * empirical._BLOCK // 30
    p, y = np.round(rng.random(2 * n), 2), rng.integers(0, 2, 2 * n)
    w = rng.uniform(0.5, 2.0, n)
    text = "".join(json.dumps({"p": a, "y": b, "w": c}) + "\n"
                   for a, b, c in zip(p[:n].tolist(), y.tolist(), w.tolist()))
    text += "".join(json.dumps({"p": a, "y": b}) + "\n"
                    for a, b in zip(p[n:].tolist(), y[n:].tolist()))
    path = write(tmp_path, text)
    widths, fast = [], empirical._fixed_layout_rows

    def spy(lines):
        rows = fast(lines)
        if rows is not None:
            widths.append(lines[0].count(":"))
        return rows

    monkeypatch.setattr(empirical, "_fixed_layout_rows", spy)
    assert_bit_identical(read_jsonl(path), reference_read_jsonl(path))
    assert set(widths) == {2, 3}
