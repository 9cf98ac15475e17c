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


@dataclass(frozen=True)
class RecalibrationMap:
    """Conditional label mean per distinct prediction value of a joint,
    looked up in its level-set columns by binary search."""

    levels: EmpiricalJoint

    def __call__(self, v: float) -> float:
        i = int(np.searchsorted(self.levels.vals, v))
        if i == len(self.levels.vals) or self.levels.vals[i] != v:
            raise KeyError(v)
        return float(self.levels.mean[i])

    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.levels.vals.tolist(), self.levels.mean.tolist()))


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


def from_samples(
    pairs: Sequence[tuple[float, int]],
    weights: Sequence[float] | None = None,
) -> EmpiricalJoint:
    """Build a canonical joint from (prediction, label) samples, given as
    pairs or as an (n, 2) array.

    Unweighted input gets uniform mass 1/n; weights are normalized by their
    sum, so they are scale invariant.
    """
    if not len(pairs):
        raise ValueError("empty input")
    rows = np.ones((len(pairs), 3))
    rows[:, :2] = pairs
    if weights is not None:
        if len(weights) != len(pairs):
            raise ValueError("weights length must match pairs length")
        rows[:, 2] = weights
    return EmpiricalJoint.make(rows)


def recalibrate(joint: EmpiricalJoint) -> RecalibrationMap:
    """Map each distinct prediction value v to E[y | v] under the joint."""
    return RecalibrationMap(joint)


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
    any order and among any others.  The label must be the integer 0 or 1.
    The body is parsed by one ``np.loadtxt`` call per block of lines (see
    ``_parse_blocks``), as JSONL is."""
    with open(path, encoding="utf-8-sig") as fh:
        names = [name.strip() for name in next(csv.reader([fh.readline()]))]
        col = {name: i for i, name in enumerate(names)}
        if "prediction" not in col or "label" not in col:
            raise ValueError(
                f"{path}: missing header with 'prediction' and 'label' columns"
            )
        fields = [("prediction", np.float64), ("label", np.int64)]
        if "weight" in col:
            fields.append(("weight", np.float64))
        load = partial(
            np.loadtxt, dtype=fields, delimiter=",", comments=None,
            quotechar='"', usecols=[col[name] for name, _ in fields], ndmin=1,
        )

        def parse(lines: list[str]) -> np.ndarray:
            # an odd number of quotes opens a field that runs past its line
            if '"' in "".join(lines) and any(s.count('"') % 2 for s in lines):
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
            rows = _parse_blocks(path, fh, 2, parse, "no rows")
    return EmpiricalJoint.make(rows)


# Lines parsed per call by ``_parse_blocks``, by size in characters.
_BLOCK = 1 << 16
# The record layouts ``json.dumps`` writes, unweighted and weighted, each as
# the separators that every line holds once, the first one anchored to the
# line start: a line is its separators with a JSON number between each two.
_LAYOUTS = ((b'\n{"p": ', b', "y": ', b"}\n"),
            (b'\n{"p": ', b', "y": ', b', "w": ', b"}\n"))
_NUMBER_BYTES = b"0123456789.eE+-"
_COMMAS = bytes.maketrans(b"\n", b",")


def read_jsonl(path: str | Path) -> EmpiricalJoint:
    """One object {"p": float, "y": 0|1, "w": float?} per line; blank lines
    are skipped.  A block of lines all in the layout ``json.dumps`` writes,
    {"p": P, "y": Y} or {"p": P, "y": Y, "w": W}, is decoded as one flat
    JSON array of numbers (see ``_fixed_layout_rows``); any other block by
    one ``json.loads`` call when it has no "[" (see ``_json_objects``), else
    line by line.  Each block is copied into columns, so only one block's
    values are alive."""
    with open(path, encoding="utf-8-sig") as fh:
        rows = _parse_blocks(path, fh, 1, _jsonl_block, "no records")
    return EmpiricalJoint.make(rows)


def _jsonl_block(lines: list[str]) -> np.ndarray:
    """The (n, 3) rows of the objects on ``lines``, each one an atom; blank
    lines skipped."""
    rows = _fixed_layout_rows(lines)
    if rows is None:
        rows = _object_rows(lines)
    _check_atoms(rows)
    return rows


def _object_rows(lines: list[str]) -> np.ndarray:
    """The (n, 3) rows (p, y, w or 1.0) of the JSON objects on ``lines``,
    blank lines skipped: the path of a JSONL block that
    ``_fixed_layout_rows`` does not take."""
    objs = _json_objects(list(filter(None, map(str.strip, lines))))
    return np.column_stack([
        np.fromiter(map(itemgetter("p"), objs), float, len(objs)),
        np.fromiter(map(itemgetter("y"), objs), float, len(objs)),
        np.fromiter(map(dict.get, objs, repeat("w"), repeat(1.0)),
                    float, len(objs)),
    ])


def _fixed_layout_rows(lines: list[str]) -> np.ndarray | None:
    """The rows ``_object_rows`` gives for ``lines`` when every line is
    in one of the ``_LAYOUTS``, without building a dict per line; else
    None, also on any failure, which ``_object_rows`` then meets again.

    Four conditions make the two paths agree bit for bit.  The text with
    the bytes of ``_NUMBER_BYTES`` deleted must be the layout's skeleton n
    times.  Each separator must occur n times in the text after a leading
    line break, so no number byte sits before a line's "{", inside a key
    or after its "}" (where it would merge into a neighbouring number).
    The keys deleted and the line breaks made commas, the text is then
    decoded by ``json.loads`` as one flat array, so the number grammar and
    every value are those of the object path: 01, .5, +1 and 1. fail, and
    NaN never passes the skeleton.  The numbers become floats by the same
    ``np.fromiter``, so a 400-digit integer still overflows.
    """
    text = "\n" + "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    body, n = text.encode(), len(lines)
    skeleton = body.translate(None, _NUMBER_BYTES)
    for seps in _LAYOUTS:
        if skeleton[1:] == b"".join(seps)[1:] * n and all(
                body.count(sep) == n for sep in seps):
            break
    else:
        return None
    try:
        flat = body[1:-1].translate(_COMMAS, b'{"pyw: }')
        values = json.loads(b"[" + flat + b"]")
        rows, width = np.ones((n, 3)), len(seps) - 1
        rows[:, :width] = np.fromiter(
            values, float, len(values)).reshape(n, width)
    except (ValueError, OverflowError):
        return None
    return rows


def _parse_blocks(path: str | Path, fh, first: int, parse,
                  empty: str) -> np.ndarray:
    """The (n, 3) atom rows that ``parse`` gives for the blocks of 64 Ki
    characters of lines from ``fh`` on, file line ``first`` on, joined; a
    body without rows is refused with the message ``empty``.  A block
    ``parse`` refuses (a missing key, a value of the wrong type, a
    malformed value, a JSON integer too large for a float, a row that is
    not an atom) is parsed again line by line, for an error naming the
    file line of the first refused."""
    errors = (KeyError, TypeError, ValueError, OverflowError)
    blocks = [np.empty((0, 3))]
    for lines in iter(partial(fh.readlines, _BLOCK), []):
        try:
            blocks.append(parse(lines))
        except errors:
            for n, line in enumerate(lines, first):
                try:
                    parse([line])
                except errors as exc:
                    # numpy counts rows from the start of what it parsed
                    what = re.sub(r" at row \d+", "", str(exc))
                    if isinstance(exc, KeyError):
                        what = f"missing key {what}"
                    raise ValueError(f"{path}, line {n}: {what}") from exc
            raise
        first += len(lines)
    rows = np.concatenate(blocks)
    if not len(rows):
        raise ValueError(f"{path}: {empty}")
    return rows


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
    """Array of {"id": str, "mass": float, "pred": float, "cond_mean": float}."""
    with open(path, encoding="utf-8-sig") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of points")
    return FiniteInstance.make(
        (obj["id"], obj["mass"], obj["pred"], obj["cond_mean"]) for obj in data
    )


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
