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
import warnings
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class LevelSets(Mapping):
    """The level sets of a joint as sorted float64 columns: the whole joint.

    Per distinct prediction ``vals[i]``: the masses ``m0[i]``, ``m1[i]`` of
    its atoms with label 0 and 1 (0.0 if absent), and the level set's
    ``mass`` m0 + m1, ``mean`` label m1 / mass and ``residual`` m1 (1 - v) -
    m0 v.  The columns are read-only, and equal when vals, m0 and m1 are.
    As a Mapping it sends each v, in increasing order, to (mass, mean).
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
        return isinstance(other, LevelSets) and all(map(
            np.array_equal, (self.vals, self.m0, self.m1),
            (other.vals, other.m0, other.m1)))

    def __hash__(self) -> int:  # masses are never -0.0 or NaN
        return hash((self.m0.tobytes(), self.m1.tobytes()))

    def __getitem__(self, v: float) -> tuple[float, float]:
        i = int(np.searchsorted(self.vals, v))
        if i == len(self.vals) or self.vals[i] != v:
            raise KeyError(v)
        return float(self.mass[i]), float(self.mean[i])

    def __iter__(self) -> Iterator[float]:
        return iter(self.vals.tolist())

    def __len__(self) -> int:
        return len(self.vals)


def atom_sum(first: np.ndarray, second: np.ndarray) -> float:
    """first[0] + second[0] + first[1] + ... from the left, the order of the
    atoms (v, 0), (v, 1); an absent atom's +-0.0 leaves the sum unchanged."""
    return sum(np.column_stack((first, second)).ravel().tolist())


def _label_rows(v: np.ndarray, labels: tuple, masses: tuple) -> np.ndarray:
    """Atom rows (v[i], labels[j], masses[j][i]), ordered by i, then j."""
    rows = np.empty((len(v), len(labels), 3))
    rows[..., 0], rows[..., 1] = v[:, None], labels
    rows[..., 2] = np.column_stack(masses)
    return rows.reshape(-1, 3)


@dataclass(frozen=True)
class EmpiricalJoint:
    """Finitely supported distribution over (prediction, label) pairs,
    stored as its level-set columns only.

    Canonical form: exact-equal (v, y) merged, masses normalized to sum to
    1.  Values differing in the last float bit are deliberately NOT
    merged; measures must tolerate near-duplicate prediction values.
    :meth:`make` is the one place that groups atoms by prediction value;
    measures read its columns through :meth:`level_sets`.
    """

    _levels: LevelSets

    @staticmethod
    def make(atoms: Iterable[tuple[float, int, float]]) -> "EmpiricalJoint":
        if not isinstance(atoms, np.ndarray):
            atoms = list(atoms)
        rows = np.asarray(atoms, dtype=float).reshape(len(atoms), 3)
        v, y, m = rows.T
        ok = (v >= 0.0) & (v <= 1.0) & ((y == 0.0) | (y == 1.0))
        bad = ~(ok & (m >= 0.0) & (m < math.inf))
        if bad.any():
            raise ValueError(
                f"invalid atom {tuple(rows[bad][0].tolist())}: need "
                "prediction in [0, 1], label 0 or 1 and finite mass >= 0"
            )
        positive = m > 0.0
        if not positive.all():
            v, y, m = rows[positive].T
        if not len(v):
            raise ValueError("empty joint: no atoms with positive mass")
        # The stable sort keeps each (v, y) group in input order, so the
        # merged masses are sequential sums in input order, and the total
        # adds the groups in order of first occurrence.
        order = np.lexsort((y, v))
        v, y, m = v[order], y[order], m[order]
        vnew = np.concatenate(([True], v[1:] != v[:-1]))
        first = vnew | np.concatenate(([True], y[1:] != y[:-1]))
        group = first.cumsum()
        group -= 1
        merged = np.bincount(group, weights=m)
        total = sum(merged[np.argsort(order[first])].tolist())
        if total == math.inf:
            raise ValueError("total mass overflows")
        starts = vnew[first]
        level = starts.cumsum() - 1
        masses = np.zeros((2, level[-1] + 1))
        masses[y[first].astype(np.intp), level] = merged / total
        return EmpiricalJoint.from_columns(v[first][starts], *masses)

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
        return EmpiricalJoint(LevelSets(
            vals, m0, m1, mass, m1 / mass, m1 * (1.0 - vals) - m0 * vals
        ))

    @property
    def atoms(self) -> tuple[tuple[float, int, float], ...]:
        """The canonical (v, y, m) atoms in (v, y) order, rebuilt on access."""
        ls = self._levels
        rows = _label_rows(ls.vals, (0, 1), (ls.m0, ls.m1)).tolist()
        return tuple((v, int(y), m) for v, y, m in rows if m > 0.0)

    @property
    def total_mass(self) -> float:
        return atom_sum(self._levels.m0, self._levels.m1)

    def distinct_values(self) -> list[float]:
        return self.level_sets().vals.tolist()

    def level_sets(self) -> LevelSets:
        """Per distinct prediction v: (mass of the level set, mean label),
        with the columns built by :meth:`make`."""
        return self._levels

    def with_values(self, values: np.ndarray) -> "EmpiricalJoint":
        """The joint with level i's atoms moved to values[i], re-merged."""
        ls = self._levels
        return EmpiricalJoint.make(_label_rows(values, (0, 1), (ls.m0, ls.m1)))


@dataclass(frozen=True)
class RecalibrationMap:
    """Conditional label mean per distinct prediction value of a joint,
    looked up in its level-set columns by binary search."""

    levels: LevelSets

    def __call__(self, v: float) -> float:
        return self.levels[v][1]

    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.levels.vals.tolist(), self.levels.mean.tolist()))


@dataclass(frozen=True)
class FiniteInstance:
    """Finite feature space with point masses, predictions and conditional
    label means.  Exists only for measures that depend on the feature space;
    everything else consumes the projection to an EmpiricalJoint.
    """

    points: tuple[tuple[str, float, float, float], ...]

    @staticmethod
    def make(
        points: Iterable[tuple[str, float, float, float]]
    ) -> "FiniteInstance":
        rows = []
        for pid, mass, pred, cond_mean in points:
            mass = float(mass)
            pred = float(pred)
            cond_mean = float(cond_mean)
            if not 0.0 <= mass < math.inf:
                raise ValueError(f"mass {mass} outside [0, inf) at {pid!r}")
            if not 0.0 <= pred <= 1.0:
                raise ValueError(f"pred {pred} outside [0, 1] at {pid!r}")
            if not 0.0 <= cond_mean <= 1.0:
                raise ValueError(
                    f"cond_mean {cond_mean} outside [0, 1] at {pid!r}"
                )
            if mass > 0.0:
                rows.append((str(pid), mass, pred, cond_mean))
        if not rows:
            raise ValueError("empty instance: no points with positive mass")
        total = sum(m for _, m, _, _ in rows)
        if total == math.inf:
            raise ValueError("total mass overflows")
        return FiniteInstance(
            tuple((pid, m / total, p, c) for pid, m, p, c in rows)
        )

    def perturb_preds(self, deltas: Sequence[float]) -> "FiniteInstance":
        """New instance with each pred shifted by deltas[i], clipped to [0,1]."""
        if len(deltas) != len(self.points):
            raise ValueError("one delta per point required")
        return FiniteInstance.make(
            (pid, m, min(1.0, max(0.0, p + d)), c)
            for (pid, m, p, c), d in zip(self.points, deltas)
        )


def from_samples(
    pairs: Sequence[tuple[float, int]],
    weights: Sequence[float] | None = None,
) -> EmpiricalJoint:
    """Build a canonical joint from (prediction, label) samples.

    Unweighted input gets uniform mass 1/n; weights are normalized by their
    sum, so they are scale invariant.
    """
    if not pairs:
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
    return RecalibrationMap(joint.level_sets())


def recalibrated_joint(joint: EmpiricalJoint) -> EmpiricalJoint:
    """Replace each atom's prediction by its recalibrated value and re-merge."""
    return joint.with_values(joint.level_sets().mean)


def project(instance: FiniteInstance) -> EmpiricalJoint:
    """Project a finite instance to its (prediction, label) joint.

    Each point's mass splits cond_mean : (1 - cond_mean) between labels 1
    and 0 at its predicted value.
    """
    _, mass, pred, cond = map(np.array, zip(*instance.points))
    return EmpiricalJoint.make(
        _label_rows(pred, (1, 0), (mass * cond, mass * (1.0 - cond)))
    )


# ---------------------------------------------------------------------------
# ingestion / emission


def read_csv(path: str | Path) -> EmpiricalJoint:
    """Columns prediction,label[,weight], found by name in the header, in
    any order and among any others.  The label must be the integer 0 or 1.
    The body is parsed by one ``np.loadtxt`` call."""
    return EmpiricalJoint.make(_csv_rows(path))


def _csv_rows(path: str | Path) -> np.ndarray:
    """The (n, 3) rows of a CSV file; the parsed body is freed on return,
    before ``make`` runs."""
    with open(path) as fh:
        names = [name.strip() for name in next(csv.reader([fh.readline()]))]
        col = {name: i for i, name in enumerate(names)}
        if "prediction" not in col or "label" not in col:
            raise ValueError(
                f"{path}: missing header with 'prediction' and 'label' columns"
            )
        fields = [("prediction", np.float64), ("label", np.int64)]
        if "weight" in col:
            fields.append(("weight", np.float64))
        # np.loadtxt skips empty lines, and warns when nothing is left
        body_start = fh.tell()
        if all(line == "\n" for line in fh):
            raise ValueError(f"{path}: no rows")
        fh.seek(body_start)
        # Some numpy versions parse "0.5" into an int64 column through
        # float, truncating it, with only a DeprecationWarning; as an error
        # it becomes the ValueError that later versions raise
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            body = np.loadtxt(
                fh, dtype=fields, delimiter=",", comments=None,
                quotechar='"', usecols=[col[name] for name, _ in fields],
                ndmin=1,
            )
    rows = np.ones((len(body), 3))
    for j, (name, _) in enumerate(fields):
        rows[:, j] = body[name]
    return rows


# Lines of a JSONL file decoded per call, by size in characters.
_JSONL_BLOCK = 1 << 16
_scan_json = json.JSONDecoder().scan_once


def read_jsonl(path: str | Path) -> EmpiricalJoint:
    """One object {"p": float, "y": 0|1, "w": float?} per line; blank lines
    are skipped.  Each block of lines is decoded by one ``json.loads`` call
    when it has no "[" (see ``_json_objects``), else line by line, and
    copied into columns, so only one block's objects are alive."""
    return EmpiricalJoint.make(_jsonl_rows(path))


def _jsonl_rows(path: str | Path) -> np.ndarray:
    """The (n, 3) rows of a JSONL file, one block of lines at a time."""
    blocks = []
    with open(path) as fh:
        for lines in iter(partial(fh.readlines, _JSONL_BLOCK), []):
            lines = list(filter(None, map(str.strip, lines)))
            if not lines:
                continue
            objs = _json_objects(lines)
            blocks.append(np.column_stack([
                np.fromiter(map(itemgetter("p"), objs), float, len(objs)),
                np.fromiter(map(itemgetter("y"), objs), float, len(objs)),
                np.fromiter(map(dict.get, objs, repeat("w"), repeat(1.0)),
                            float, len(objs)),
            ]))
    if not blocks:
        raise ValueError(f"{path}: no records")
    return np.concatenate(blocks)


def _json_objects(lines: list[str]) -> list[dict]:
    """The JSON object on each of ``lines``.

    All lines are decoded in one call, joined by a comma and a newline.  A
    raw newline cannot sit inside a JSON string, so a value could only run
    across a line break inside an array or before an object member's key.
    With no "[" in the text and every line starting with "{", neither can
    happen, and n values from n lines are one object per line.  Other text
    is decoded line by line by the same C scanner; a line that does not
    hold exactly one object is decoded again by ``json.loads``, for the
    error of the bad line.
    """
    body = ",\n".join(lines)
    if "[" not in body and all(map(str.startswith, lines, repeat("{"))):
        try:
            objs = json.loads(f"[{body}]")
        except ValueError:
            objs = []
        if len(objs) == len(lines):
            return objs
    objs = []
    for line in lines:
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError):
            obj, end = None, 0
        if end != len(line) or not isinstance(obj, dict):
            json.loads(line)  # raises the error of a malformed line
            raise ValueError("every line must hold one JSON object")
        objs.append(obj)
    return objs


def read_instance_json(path: str | Path) -> FiniteInstance:
    """Array of {"id": str, "mass": float, "pred": float, "cond_mean": float}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of points")
    return FiniteInstance.make(
        (obj["id"], obj["mass"], obj["pred"], obj["cond_mean"]) for obj in data
    )


def write_instance_json(instance: FiniteInstance, path: str | Path) -> None:
    data = [
        {"id": pid, "mass": m, "pred": p, "cond_mean": c}
        for pid, m, p, c in instance.points
    ]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
