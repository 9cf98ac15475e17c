"""Empirical data model shared by every calibration measure.

Everything downstream works on finitely supported joints over
(prediction, label) pairs.  Measures that genuinely depend on the feature
space (the distance-to-calibration oracles) consume a ``FiniteInstance``,
which carries point masses and conditional label means per feature point.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np


def left_sum(*cols: np.ndarray):
    """cols[0][..., 0] + cols[1][..., 0] + cols[0][..., 1] + ... from the
    left by one ``cumsum``, as Python 3.11's ``sum`` adds the same floats,
    on every Python (3.12's ``sum`` compensates); the + 0.0 makes a -0.0 sum
    0.0, as ``sum`` does.  1-D columns give a float, 2-D ones a row's sum.
    The library's one way to add level terms: no measure adds them by a
    BLAS matrix or dot product, whose order of additions depends on the
    CPU.  One column is summed as it is, with no interleaving copy."""
    terms = cols[0] if len(cols) == 1 else np.stack(cols, axis=-1).reshape(
        *cols[0].shape[:-1], -1)
    with np.errstate(over="ignore"):  # an overflow is inf, as in ``sum``
        total = terms.cumsum(axis=-1)[..., -1] + 0.0
    return total if total.ndim else float(total)


def grid_cell(v, g: int):
    """Index of v's cell (or of each of an array of v's) in the g-way
    equal partition of [0, 1], as an integer-valued float: the one cell
    rule of ``binned:<b>``'s buckets and ``intce:<g>``'s grid.

    Cell j is [j/g, (j+1)/g), the last one closed, with v compared to the
    edges j/g as doubles, as in ``IntervalPartition.uniform(g)``: v*g can
    round across an edge (0.29*100 is 28.999999999999996), so its floor
    is moved down where j/g > v and up where (j+1)/g <= v.
    """
    j = np.floor(np.multiply(v, g))
    j -= j / g > v
    j += (j + 1) / g <= v
    return np.minimum(j, g - 1)


def _check_atoms(rows: np.ndarray) -> None:
    """Raise a ValueError naming the first of the (v, y, m) ``rows`` that is
    not an atom: a prediction outside [0, 1], a label other than 0 or 1, or
    a mass that is negative, infinite or NaN."""
    v, y, m = rows.T
    ok = (v >= 0.0) & (v <= 1.0) & ((y == 0.0) | (y == 1.0))
    bad = ~(ok & (m >= 0.0) & (m < math.inf))
    if bad.any():
        raise ValueError(
            f"invalid atom {tuple(rows[bad][0].tolist())}: need "
            "prediction in [0, 1], label 0 or 1 and finite mass >= 0"
        )


def _label_rows(v: np.ndarray, labels: tuple, masses: tuple) -> np.ndarray:
    """Atom rows (v[i], labels[j], masses[j][i]), ordered by i, then j."""
    rows = np.empty((len(v), len(labels), 3))
    rows[..., 0], rows[..., 1] = v[:, None], labels
    rows[..., 2] = np.column_stack(masses)
    return rows.reshape(-1, 3)


def _group_levels(
    v: np.ndarray, y: np.ndarray, m: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The library's one grouping of atoms (v[i], y[i], m[i]) by prediction
    value: the k sorted distinct values, exact-equal ones merged and 0.0
    and -0.0 one level stored as 0.0; each atom's cell y k + level; and
    the (2, k) masses of the cells, each summed in input order (counts of
    the atoms when m is None)."""
    vals, level = np.unique(v, return_inverse=True)
    cell = y.astype(np.intp) * len(vals) + level
    masses = np.bincount(cell, m, 2 * len(vals)).reshape(2, -1)
    return vals + 0.0, cell, masses


@dataclass(frozen=True, eq=False)
class EmpiricalJoint:
    """Finitely supported distribution over (prediction, label) pairs,
    stored as its level sets only: sorted, read-only float64 columns.

    Per distinct prediction ``vals[i]``: the masses ``m0[i]``, ``m1[i]`` of
    its atoms with label 0 and 1 (0.0 if absent), and the level set's
    ``mass`` m0 + m1, ``mean`` label m1 / mass and ``residual`` m1 (1 - v) -
    m0 v.  Joints are equal when vals, m0 and m1 are.  Level terms are added
    by :func:`left_sum`.

    Canonical form: exact-equal (v, y) merged, masses normalized to sum to
    1, and a level of -0.0 stored as 0.0.  Values differing in the last
    float bit are deliberately NOT merged; measures must tolerate
    near-duplicate prediction values.
    :meth:`make` groups atoms by prediction value through ``_group_levels``,
    which the prefix walk of ``online.prefix_curves`` also uses; measures
    read these columns directly.
    """

    vals: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    mass: np.ndarray
    mean: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        for col in vars(self).values():
            col.flags.writeable = False

    def __eq__(self, other) -> bool:
        return isinstance(other, EmpiricalJoint) and all(map(
            np.array_equal, (self.vals, self.m0, self.m1),
            (other.vals, other.m0, other.m1)))

    @staticmethod
    def make(atoms: Iterable[tuple[float, int, float]]) -> "EmpiricalJoint":
        if not isinstance(atoms, np.ndarray):
            atoms = list(atoms)
        rows = np.asarray(atoms, dtype=float).reshape(len(atoms), 3)
        _check_atoms(rows)
        v, y, m = rows.T
        positive = m > 0.0
        if not positive.all():
            v, y, m = rows[positive].T
        if not len(v):
            raise ValueError("empty joint: no atoms with positive mass")
        vals, cell, masses = _group_levels(v, y, m)
        # the total adds the (v, y) groups in order of first occurrence
        first = np.full(masses.size, len(cell))
        np.minimum.at(first, cell, np.arange(len(cell)))
        first = np.sort(first[first < len(cell)])
        total = left_sum(masses.ravel()[cell[first]])
        if total == math.inf:
            raise ValueError("total mass overflows")
        return EmpiricalJoint.from_columns(vals, *(masses / total))

    @staticmethod
    def from_columns(
        vals: np.ndarray, m0: np.ndarray, m1: np.ndarray
    ) -> "EmpiricalJoint":
        """The joint whose level i is prediction vals[i] with label masses
        m0[i] and m1[i], taken as given: vals strictly increasing, masses
        normalized.  The one place that derives mass, mean and residual.
        Levels of mass 0.0 are dropped: a level of a prefix without rounds
        left, or one whose normalized mass underflowed."""
        mass = m0 + m1
        if not mass.all():
            keep = mass > 0.0
            vals, m0, m1, mass = vals[keep], m0[keep], m1[keep], mass[keep]
        return EmpiricalJoint(
            vals, m0, m1, mass, m1 / mass, m1 * (1.0 - vals) - m0 * vals
        )

    @staticmethod
    def row_mass_mean(
        m0: np.ndarray, m1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The mass and mean label of each level of each row of label masses
        m0, m1, as :meth:`from_columns` derives them: the row forms' one
        place for it.  A level of mass 0.0, absent from its row's joint,
        gets mean 0.0."""
        mass = m0 + m1
        return mass, m1 / np.where(mass > 0.0, mass, 1.0)

    @property
    def atoms(self) -> tuple[tuple[float, int, float], ...]:
        """The canonical (v, y, m) atoms in (v, y) order, rebuilt on access."""
        rows = _label_rows(self.vals, (0, 1), (self.m0, self.m1)).tolist()
        return tuple((v, int(y), m) for v, y, m in rows if m > 0.0)

    def level_sets(self) -> "EmpiricalJoint":
        """The joint itself, for callers of the older name: measures read
        its columns directly."""
        return self

    def with_values(self, values: np.ndarray) -> "EmpiricalJoint":
        """The joint with level i's atoms moved to values[i], re-merged."""
        return self.make(_label_rows(values, (0, 1), (self.m0, self.m1)))


@dataclass(frozen=True, eq=False)
class FiniteInstance:
    """Finite feature space: point i has id ``ids[i]``, mass ``mass[i]``,
    prediction ``pred[i]`` and conditional label mean ``cond_mean[i]``, in
    read-only float64 columns, masses normalized; instances are equal when
    all four are.  Only the measures that depend on the feature space read
    it; everything else consumes its projection to an EmpiricalJoint."""

    ids: tuple[str, ...]
    mass: np.ndarray
    pred: np.ndarray
    cond_mean: np.ndarray

    def __post_init__(self):
        for col in (self.mass, self.pred, self.cond_mean):
            col.flags.writeable = False

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteInstance) and self.ids == other.ids \
            and all(map(np.array_equal, (self.mass, self.pred, self.cond_mean),
                        (other.mass, other.pred, other.cond_mean)))

    @staticmethod
    def make(
        points: Iterable[tuple[str, float, float, float]]
    ) -> "FiniteInstance":
        """Refuses the first point out of range by its first bad field (mass,
        pred, then cond_mean); drops points of mass 0, normalizes the rest."""
        points = [(pid, float(m), float(p), float(c))
                  for pid, m, p, c in points]
        cols = np.array([point[1:] for point in points]).reshape(-1, 3)
        bad = ~((cols >= 0.0) & (cols <= (np.finfo(float).max, 1.0, 1.0)))
        if bad.any():
            i, j = divmod(int(bad.argmax()), 3)
            pid, value = points[i][0], points[i][j + 1]
            bound = "[0, 1]" if j else "[0, inf)"
            raise ValueError(f"{('mass', 'pred', 'cond_mean')[j]} {value} "
                             f"outside {bound} at {pid!r}")
        keep = cols[:, 0] > 0.0
        if not keep.any():
            raise ValueError("empty instance: no points with positive mass")
        mass, pred, cond_mean = cols[keep].T.copy()
        total = left_sum(mass)
        if total == math.inf:
            raise ValueError("total mass overflows")
        ids = tuple(str(point[0]) for point in compress(points, keep))
        return FiniteInstance(ids, mass / total, pred, cond_mean)


def from_samples(pairs: Sequence[tuple[float, int]]) -> EmpiricalJoint:
    """Build a canonical joint from (prediction, label) samples, given as
    pairs or as an (n, 2) array, each of mass 1/n.  Weighted samples are
    (v, y, w) atoms of :meth:`EmpiricalJoint.make`."""
    if not len(pairs):
        raise ValueError("empty input")
    rows = np.ones((len(pairs), 3))
    rows[:, :2] = pairs
    return EmpiricalJoint.make(rows)


def recalibrate(joint: EmpiricalJoint) -> dict[float, float]:
    """E[y | v] for each distinct prediction value v of the joint: its
    ``mean`` column keyed by ``vals``."""
    return dict(zip(joint.vals.tolist(), joint.mean.tolist()))


def project(instance: FiniteInstance) -> EmpiricalJoint:
    """Project a finite instance to its (prediction, label) joint.

    Each point's mass splits cond_mean : (1 - cond_mean) between labels 1
    and 0 at its predicted value.
    """
    mass, cond = instance.mass, instance.cond_mean
    return EmpiricalJoint.make(_label_rows(
        instance.pred, (1, 0), (mass * cond, mass * (1.0 - cond))))


# ---------------------------------------------------------------------------
# ingestion / emission


def read_csv(path: str | Path) -> EmpiricalJoint:
    """Columns prediction,label[,weight], found by name in the header, in
    any order and among any others; none of the three may be named twice.
    The label must be the integer 0 or 1.  The body is parsed by one
    ``np.loadtxt`` call per block of text (see ``_parse_blocks``), as
    JSONL is, given the block split at "\\n"; a repeated line, such as a
    2-decimal score's with no weight or a weight of 1, is parsed once per
    block and carries its count, while a file of distinct or weighted lines
    pays one block's count.  Errors name the file line, not the file."""
    with open(path, encoding="utf-8-sig") as fh:
        names = [name.strip() for name in next(csv.reader([fh.readline()]))]
        col = {name: i for i, name in enumerate(names)}
        if "prediction" not in col or "label" not in col:
            raise ValueError(
                "missing header with 'prediction' and 'label' columns"
            )
        for name in ("prediction", "label", "weight"):
            if names.count(name) > 1:
                raise ValueError(f"column {name!r} appears more than once")
        fields = [("prediction", np.float64), ("label", np.int64)]
        if "weight" in col:
            fields.append(("weight", np.float64))
        load = partial(
            np.loadtxt, dtype=fields, delimiter=",", comments=None,
            quotechar='"', usecols=[col[name] for name, _ in fields], ndmin=1,
        )

        def parse(text: str) -> np.ndarray:
            lines = text.split("\n")
            # an odd number of quotes opens a field that runs past its line
            if '"' in text and any(s.count('"') % 2 for s in lines):
                raise ValueError("unclosed quote: a field holds a line break")
            body = load(lines)
            rows = np.ones((len(body), 3))
            for j, (name, _) in enumerate(fields):
                rows[:, j] = body[name]
            _check_atoms(rows)
            return rows

        # Some numpy versions parse "0.5" into an int64 column through
        # float, truncating it, with only a DeprecationWarning; as an error
        # it becomes the ValueError that later versions raise.  np.loadtxt
        # skips empty lines, and warns when a block holds nothing else.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)
            rows = _parse_blocks(fh, 2, parse, "no rows")
    return EmpiricalJoint.make(rows)


# Characters read per block by ``_parse_blocks``, before the rest of the
# line they end in.
_BLOCK = 1 << 16
# The record layouts ``json.dumps`` writes, unweighted and weighted, each as
# the skeleton of a line: its bytes but the numbers.
_LAYOUTS = (b'{"p": , "y": }\n', b'{"p": , "y": , "w": }\n')
_NUMBER_BYTES = b"0123456789.eE+-"
# With the bytes of _KEY_BYTES deleted and "}" made a comma, a layout line
# is " P,  Y," or " P,  Y,  W,": each number after a space, before a comma.
_CLOSE_TO_COMMA = bytes.maketrans(b"}", b",")
_KEY_BYTES = b'{"pyw:\n'
_NUMBER_TYPES = {int, float}


def read_jsonl(path: str | Path) -> EmpiricalJoint:
    """One object {"p": float, "y": 0|1, "w": float?} per line, each value
    a JSON number; blank lines are skipped.  A block of text (see
    ``_parse_blocks``) whose lines are all in the layout ``json.dumps``
    writes, {"p": P, "y": Y} or {"p": P, "y": Y, "w": W}, is decoded as
    one flat JSON array of numbers (see ``_fixed_layout_rows``); any other
    block by one ``json.loads`` call when it has no "[" (see
    ``_json_objects``), else line by line.  Each block is copied into
    columns, so only one block's values are alive.  A repeated line, as
    in a file of 2-decimal unweighted scores, is parsed once per block and
    carries its count; weights are never multiplied by a count, so a
    weighted file is parsed line for line after one block's count (see
    ``_parse_blocks``).  Errors name the file line, not the file."""
    with open(path, encoding="utf-8-sig") as fh:
        rows = _parse_blocks(fh, 1, _jsonl_block, "no records")
    return EmpiricalJoint.make(rows)


def _jsonl_block(text: str) -> np.ndarray:
    """The (n, 3) rows of the objects on the lines of ``text``, each one an
    atom; blank lines skipped."""
    rows = _fixed_layout_rows(text)
    if rows is None:
        rows = _object_rows(text)
    _check_atoms(rows)
    return rows


def json_number(key: str, v) -> float:
    """The decoded JSON value ``v`` of ``key`` as a float if it is a JSON
    number, an int or a float; a boolean or a string, which float() would
    take, is refused with a TypeError naming ``key``."""
    if type(v) not in _NUMBER_TYPES:
        raise TypeError(f"{key!r} must be a JSON number, not {json.dumps(v)}")
    return float(v)


def _object_rows(text: str) -> np.ndarray:
    """The (n, 3) rows (p, y, w or 1.0) of the JSON objects on the lines
    of ``text``, blank lines skipped: the path of a JSONL block that
    ``_fixed_layout_rows`` does not take.  Each value must be a JSON
    number (see ``json_number``)."""
    objs = _json_objects(list(filter(None, map(str.strip, text.split("\n")))))

    def column(key: str, values) -> np.ndarray:
        values = list(values)
        if not set(map(type, values)) <= _NUMBER_TYPES:
            for v in values:
                json_number(key, v)  # refuses the first that is no number
        return np.fromiter(values, float, len(values))

    return np.column_stack([
        column("p", map(itemgetter("p"), objs)),
        column("y", map(itemgetter("y"), objs)),
        column("w", map(dict.get, objs, repeat("w"), repeat(1.0))),
    ])


def _fixed_layout_rows(text: str) -> np.ndarray | None:
    """The rows ``_object_rows`` gives for ``text`` when every line is in
    one of the ``_LAYOUTS``, without building a string or a dict per line;
    else None, also on any failure, which ``_object_rows`` then meets
    again.

    Three conditions make the two paths agree bit for bit.  First, the
    text with the bytes of ``_NUMBER_BYTES`` deleted must be the layout's
    skeleton n times, so number bytes stand only in the gaps between its
    bytes.  With the keys and line breaks deleted and each "}" made a
    comma, a layout line is " P,  Y," and, second, the text must then end
    in a comma and hold no space before a comma: no number slot (from a
    separator's last space to the next "," or "}") is empty.  Third, it
    must decode by ``json.loads`` as one flat array.  A number byte in any
    other gap, in '{"p": ', ', "y": ' or ', "w": ', or between "}" and the
    line break, is cut off from the next slot's number by that slot's
    space, so the two make no JSON array; or, if the slot is empty, the
    space stands before a comma; or, after the last "}", the text ends in
    no comma.  So every value is a line's own P, Y or W, and the number
    grammar and every value are those of the object path: 01, .5, +1 and
    1. fail, and NaN never passes the skeleton.  The numbers become floats
    by the same ``np.fromiter``, so a 400-digit integer still overflows.
    """
    if not text.endswith("\n"):
        text += "\n"
    body = text.encode()
    skeleton = body.translate(None, _NUMBER_BYTES)
    for layout in _LAYOUTS:
        if skeleton == layout * (len(skeleton) // len(layout)):
            break
    else:
        return None
    flat = body.translate(_CLOSE_TO_COMMA, _KEY_BYTES)
    if b" ," in flat or not flat.endswith(b","):
        return None
    try:
        values = json.loads(b"[" + flat[:-1] + b"]")
        width = layout.count(b":")
        rows = np.ones((len(values) // width, 3))
        rows[:, :width] = np.fromiter(
            values, float, len(values)).reshape(-1, width)
    except (ValueError, OverflowError):
        return None
    return rows


def _parse_blocks(fh, first: int, parse, empty: str) -> np.ndarray:
    """The (n, 3) atom rows that ``parse`` gives for the blocks of text
    from ``fh`` on, file line ``first`` on, joined; a body without rows is
    refused with the message ``empty``.  A block is one string: ``_BLOCK``
    characters and the rest of the line the last of them is in, so it
    ends at a line break or at the end of the file, and no string is built
    per line.  Lines are split at "\\n" alone, where the file reader puts
    every line break: ``str.splitlines`` would also split at "\\x0c",
    "\\x1c" or "\\u2028" inside a line.

    Repeated lines are parsed once.  A block's lines are counted, the
    empty line "" dropped, and when at most half of them are distinct,
    only the distinct ones are parsed (see ``_counted_rows``): each is one
    row whose mass is its count.  Such rows give the joint of the rows of
    every copy bit for bit.  Their masses are integers below 2**53, which
    ``make`` adds exactly in any grouping, as it adds 1.0 per row; and a
    row first seen in the block comes first, so the cells' order of first
    occurrence stays.  A weight is never multiplied by its count: ten
    additions of 0.1 give 0.9999999999999999, not 1.0.  Counting stops for
    the rest of the file at the first block that is mostly distinct lines
    or not one row of mass 1.0 per distinct line (a weighted block), so
    the counted blocks are a prefix of the file, whose per-cell sums are
    exact integers before the first row of another mass is added.  A file
    of distinct or weighted scores pays one block's count and nothing
    more.

    A block that is not counted is parsed as it is.  One that ``parse``
    refuses (a missing key, a value of the wrong type, a malformed value, a
    JSON integer too large for a float, a row that is not an atom) is
    parsed again line by line, for an error naming the file line of the
    first refused; a refused count falls back to the block's own text,
    so its error is that of the block."""
    blocks = [np.empty((0, 3))]
    counting = True
    for text in iter(lambda: fh.read(_BLOCK) + fh.readline(), ""):
        rows = None
        if counting:
            counts = Counter(text.split("\n"))
            del counts[""]
            if 2 * len(counts) <= counts.total():
                rows = _counted_rows(parse, counts)
            counting = rows is not None
        blocks.append(_text_rows(parse, text, first) if rows is None
                      else rows)
        first += text.count("\n")
    rows = np.concatenate(blocks)
    if not len(rows):
        raise ValueError(empty)
    return rows


_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _counted_rows(parse, counts: Counter) -> np.ndarray | None:
    """The rows ``parse`` gives for the distinct lines that ``counts``
    counts, each with its count for mass, when it gives one row of mass
    1.0 per line; else None, also when it refuses them."""
    try:
        rows = parse("\n".join(counts))
    except _PARSE_ERRORS:
        return None
    if len(rows) != len(counts) or not (rows[:, 2] == 1.0).all():
        return None
    rows[:, 2] = np.fromiter(counts.values(), float, len(counts))
    return rows


def _text_rows(parse, text: str, first: int) -> np.ndarray:
    """The rows ``parse`` gives for ``text``, the block that starts at
    file line ``first``; when it refuses them, the error of its first line
    that it refuses, naming that line, else its error on the block."""
    try:
        return parse(text)
    except _PARSE_ERRORS:
        for n, line in enumerate(text.split("\n"), first):
            try:
                parse(line)
            except _PARSE_ERRORS as exc:
                # numpy counts rows from the start of what it parsed
                what = re.sub(r" at row \d+", "", str(exc))
                if isinstance(exc, KeyError):
                    what = f"missing key {what}"
                raise ValueError(f"line {n}: {what}") from exc
        raise


def _json_objects(lines: list[str]) -> list[dict]:
    """The JSON object on each of ``lines``: the object path, for a block
    that ``_fixed_layout_rows`` did not take.

    All lines are decoded in one call, joined by a comma and a newline.  A
    raw newline cannot sit inside a JSON string, so a value could only run
    across a line break inside an array or before an object member's key.
    With no "[" in the text and every line starting with "{", neither can
    happen, and n values from n lines are one object per line.  Other text
    is decoded by one ``json.loads`` call per line.
    """
    body = ",\n".join(lines)
    if "[" not in body and all(map(str.startswith, lines, repeat("{"))):
        try:
            objs = json.loads(f"[{body}]")
        except ValueError:
            objs = []
        if len(objs) == len(lines):
            return objs
    objs = list(map(json.loads, lines))
    if not all(isinstance(obj, dict) for obj in objs):
        raise ValueError("every line must hold one JSON object")
    return objs


def read_instance_json(path: str | Path) -> FiniteInstance:
    """Array of {"id": str, "mass": float, "pred": float, "cond_mean": float},
    the ids distinct JSON strings and the other values JSON numbers (see
    ``json_number``); an error in a point names its position in the array,
    1 for the first, as a JSONL error names the line, and not the file."""
    with open(path, encoding="utf-8-sig") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of points")
    points, first = [], {}
    for i, obj in enumerate(data, 1):
        try:
            if not isinstance(obj, dict):
                raise TypeError("not a JSON object")
            if not isinstance(pid := obj["id"], str):
                raise TypeError(f"'id' must be a JSON string, not "
                                f"{json.dumps(pid)}")
            if first.setdefault(pid, i) != i:
                raise TypeError(f"'id' {json.dumps(pid)} is already point "
                                f"{first[pid]}'s")
            points.append((pid, *(json_number(key, obj[key]) for key
                                  in ("mass", "pred", "cond_mean"))))
        except (KeyError, TypeError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"point {i}: {what}") from None
    return FiniteInstance.make(points)


def write_instance_json(instance: FiniteInstance, path: str | Path) -> None:
    data = [
        {"id": pid, "mass": m, "pred": p, "cond_mean": c}
        for pid, m, p, c in zip(instance.ids, instance.mass.tolist(),
                                instance.pred.tolist(),
                                instance.cond_mean.tolist())
    ]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
