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


def object_rows(text):
    """The object path's rows, or None where it refuses the block."""
    try:
        return empirical._object_rows(text)
    except REFUSED:
        return None


def fast_agrees(text) -> bool:
    """Whether the fast path took the block ``text``; if it did, the object
    path must accept it too and give the same bits."""
    fast = empirical._fixed_layout_rows(text)
    if fast is None:
        return False
    slow = object_rows(text)
    assert slow is not None, text
    assert fast.tobytes() == slow.tobytes(), text
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
        taken += fast_agrees(mutate(rng, text))
    # many mutants keep the layout, so the bit comparison is exercised
    assert taken > FUZZ_CASES // 10


def test_unmutated_blocks_take_the_fast_path():
    rng = random.Random(FUZZ_SEED + 1)
    for weighted in (False, True):
        lines = [layout_line(rng, weighted) for _ in range(200)]
        lines = [line for line in lines if object_rows(line) is not None]
        assert fast_agrees("".join(lines))


def read_as_object_path(tmp_path, monkeypatch, text):
    """read_jsonl's joint or error message on ``text``, which must be
    those of the object path alone."""
    path = tmp_path / "d.jsonl"
    path.write_bytes(text.encode())
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(read_jsonl(path))
        except ValueError as exc:
            outcomes.append(str(exc))
        monkeypatch.setattr(empirical, "_fixed_layout_rows",
                            lambda text: None)
    fast, slow = outcomes
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert_bit_identical(fast, slow)
    return fast


def refused_the_same_way(tmp_path, monkeypatch, text):
    """read_jsonl's error on ``text``, which must be the error of the
    object path alone."""
    error = read_as_object_path(tmp_path, monkeypatch, text)
    assert isinstance(error, str)
    return error


# The separators of each layout, in line order, around its numbers.
SEPARATORS = {"unweighted": ('{"p": ', ', "y": ', "}\n"),
              "weighted": ('{"p": ', ', "y": ', ', "w": ', "}\n")}
NUMBERS = ("0.25", "1", "2")


def records(layout, at=None, moved=False):
    """Three records of ``layout``, the second with the digit 7 put into
    gap ``at`` = (separator, offset) of its separators; if ``moved``, the
    number of the next slot after that gap is moved there instead, leaving
    the slot empty."""
    seps = SEPARATORS[layout]
    numbers = NUMBERS[:len(seps) - 1] + ("",)
    parts = [part for sep, number in zip(seps, numbers)
             for part in (sep, number)] * 3  # separators at even indices
    if at is not None:
        i, offset = at
        k, digit = 2 * (len(seps) + i), "7"
        if moved:
            j = next(j for j in range(k + 1, len(parts), 2) if parts[j])
            digit, parts[j] = parts[j], ""
        parts[k] = parts[k][:offset] + digit + parts[k][offset:]
    return "".join(parts)


def gaps(moved=False):
    """Every gap between two bytes of a separator, and the one before a
    line's "{", as (id, text, renamed); a moved number skips the gap just
    before its own slot's space, where it is still only padded by
    whitespace.  ``renamed`` marks a digit put into the key "w", making it
    "7w" or "w7": another key, which the object path ignores."""
    for layout, seps in SEPARATORS.items():
        for i, sep in enumerate(seps):
            name = sep.strip(' ,{}:"\n') or "close"
            last = len(sep) - (moved and sep.endswith(" "))
            for offset in range(0 if i == 0 else 1, last):
                renamed = not moved and name == "w" and offset in (3, 4)
                yield (f"{layout}-{name}-{offset}",
                       records(layout, (i, offset), moved), renamed)


@pytest.mark.parametrize("text,renamed", [
    pytest.param('{"p": 0.5, "y": 0}\n' + line, False, id=name)
    for name, line in [
        ("digit-before-brace", '6{"p": 2e-400, "y": 1}\n'),
        ("digit-after-brace", '{"p": 0.4, "y": 1}6\n'),
        ("digit-in-key-p", '{"p1": 0.4, "y": 1}\n'),
        ("digit-in-key-y", '{"p": 0.4, "y1": 1}\n'),
        ("digit-before-colon", '{"p"1: 0.4, "y": 1}\n'),
        ("digit-after-colon", '{"p":1 0.4, "y": 1}\n'),
        ("digit-after-comma", '{"p": 0.4,1 "y": 1}\n'),
        ("digits-after-brace-at-the-end", '{"p": 0.4, "y": 1}12'),
    ]] + [pytest.param(text, renamed, id=name)
          for name, text, renamed in gaps()])
def test_misplaced_digit_is_refused(tmp_path, monkeypatch, text, renamed):
    """A digit in any gap of a separator, or between "}" and the line
    break, leaves the fixed layout, and the object path refuses the line,
    on line 2; only a digit in the key "w" is read by the object path as
    another key, and line 2 as unweighted."""
    assert empirical._fixed_layout_rows(text) is None
    outcome = read_as_object_path(tmp_path, monkeypatch, text)
    if renamed:
        assert object_rows(text)[1, 2] == 1.0
    else:
        assert object_rows(text) is None
        assert "line 2" in outcome


@pytest.mark.parametrize("text", [
    pytest.param(text, id=name) for name, text, _ in gaps(moved=True)])
def test_number_moved_out_of_its_slot_is_refused(tmp_path, monkeypatch,
                                                 text):
    """A number moved from its slot into a gap before it, such as
    '{"p": 0.25,1 "y": }', leaves the layout's skeleton and a flat array
    of as many numbers, but the object path refuses the line, and so must
    the fixed-layout path."""
    assert empirical._fixed_layout_rows(text) is None
    assert object_rows(text) is None
    assert "line 2" in refused_the_same_way(tmp_path, monkeypatch, text)


def test_unmoved_records_take_the_fast_path():
    for layout in SEPARATORS:
        assert fast_agrees(records(layout))


@pytest.mark.parametrize("key", ["p", "w"])
@pytest.mark.parametrize("value", ["01", ".5", "+1", "1.", "NaN",
                                   "1" + "0" * 400],
                         ids=["01", ".5", "+1", "1.", "NaN", "400-digits"])
def test_numbers_outside_the_json_grammar_are_refused(tmp_path, monkeypatch,
                                                      key, value):
    values = {"p": "0.5", "w": "2", key: value}
    line = '{"p": %s, "y": 1, "w": %s}\n' % (values["p"], values["w"])
    assert empirical._fixed_layout_rows(line) is None
    assert "line 1" in refused_the_same_way(tmp_path, monkeypatch, line)


def test_minus_zero_integer_reads_as_zero():
    lines = ['{"p": -0, "y": 1}\n', '{"p": -0.0, "y": 0, "w": -0}\n']
    for line in lines:
        assert fast_agrees(line)
    assert empirical._fixed_layout_rows(lines[0])[0, 0].hex() == "0x0.0p+0"


def write(tmp_path, text):
    path = tmp_path / "d.jsonl"
    path.write_bytes(text.encode())
    return path


def fast_path_only(monkeypatch):
    def refuse(text):
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


@pytest.mark.parametrize("text,error", [
    ('{"p": 0.4, "y": 1, "w": 2}\n{"p": 0.5, "y": 0}\n', None),
    ('{"y": 1, "p": 0.4}\n{"y": 0, "p": 0.5}\n', None),
    ('{"p":0.4,"y":1}\n{"p":0.5,"y":0}\n', None),
    ('{"p": 0.4, "y": 1}\n\n{"p": 0.5, "y": 0}\n', None),
    ('  {"p": 0.4, "y": 1}\n{"p": 0.5, "y": 0}  \n', None),
    ('{"p": 0.4, "y": 1}\n{"p": 0.5, "y": 0}\n\n', None),
    ('{"p": 0.4, "y": true}\n{"p": 0.5, "y": 0}\n',
     "line 1: 'y' must be a JSON number, not true"),
    ('{"p": 0.4, "y": 1, "w1": 2}\n{"p": 0.5, "y": 0, "w": 1}\n', None),
], ids=["mixed-weights", "key-order-y-p", "compact", "blank-line",
        "space-padded", "trailing-blank-line", "boolean-label",
        "digit-in-key-w"])
def test_other_layouts_take_the_object_path(tmp_path, text, error):
    """Blocks outside the two layouts go to the object path, which reads
    them as the row reader did, or refuses them, a boolean label too."""
    assert empirical._fixed_layout_rows(text) is None
    path = write(tmp_path, text)
    if error is None:
        assert_bit_identical(read_jsonl(path), reference_read_jsonl(path))
    else:
        with pytest.raises(ValueError, match=f"^{error}$"):
            read_jsonl(path)


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

    def spy(text):
        rows = fast(text)
        if rows is not None:
            widths.append(text[:text.index("\n")].count(":"))
        return rows

    monkeypatch.setattr(empirical, "_fixed_layout_rows", spy)
    assert_bit_identical(read_jsonl(path), reference_read_jsonl(path))
    assert set(widths) == {2, 3}
