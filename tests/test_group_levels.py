"""``EmpiricalJoint.make`` groups atoms by one ``np.unique`` and one
``np.bincount``: the joints it builds are bit-identical to those of the
lexsort grouping it replaced, kept here as the reference."""

import math
import operator
from functools import reduce

import numpy as np
import pytest

from calmeasures import EmpiricalJoint


def reference_make(atoms):
    """The lexsort ``make``: a stable sort by (v, y), masses merged per
    (v, y) group in input order, and the total added over the groups in
    order of first occurrence."""
    rows = np.asarray(atoms, dtype=float).reshape(len(atoms), 3)
    v, y, m = rows[rows[:, 2] > 0.0].T
    order = np.lexsort((y, v))
    v, y, m = v[order], y[order], m[order]
    vnew = np.concatenate(([True], v[1:] != v[:-1]))
    first = vnew | np.concatenate(([True], y[1:] != y[:-1]))
    group = first.cumsum() - 1
    merged = np.bincount(group, weights=m)
    total = reduce(operator.add, merged[np.argsort(order[first])].tolist(), 0)
    starts = vnew[first]
    level = starts.cumsum() - 1
    masses = np.zeros((2, level[-1] + 1))
    masses[y[first].astype(np.intp), level] = merged / total
    return EmpiricalJoint.from_columns(v[first][starts] + 0.0, *masses)


def hex_columns(joint):
    ls = joint.level_sets()
    return {col: [float.hex(x) for x in getattr(ls, col).tolist()]
            for col in ("vals", "m0", "m1", "mass", "mean", "residual")}


def random_atoms(n, k, seed):
    """n weighted atoms on k values, shuffled so that first occurrences are
    out of sorted order: 0.0 and -0.0, a value and its float neighbours,
    and about 5% zero masses; weights span several binades so that the
    order of the sums shows in the last bits."""
    rng = np.random.default_rng(seed)
    base = rng.random(k)
    values = np.concatenate((
        base, [0.0, -0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
               1.0, np.nextafter(1.0, 0.0)]))
    v = rng.choice(values, n)
    y = rng.integers(0, 2, n)
    m = rng.random(n) * 10.0 ** rng.integers(-6, 7, n)
    m[rng.random(n) < 0.05] = 0.0
    return np.column_stack((v, y, m))


@pytest.mark.parametrize("n,k,seed", [
    (7, 3, 0), (50, 5, 1), (200, 40, 2), (1000, 20, 3), (5000, 4000, 4),
])
def test_make_is_bit_identical_to_the_lexsort_grouping(n, k, seed):
    atoms = random_atoms(n, k, seed)
    joint = EmpiricalJoint.make(atoms)
    assert hex_columns(joint) == hex_columns(reference_make(atoms))
    assert math.copysign(1.0, joint.level_sets().vals[0]) == 1.0


def test_total_adds_groups_in_order_of_first_occurrence():
    """1 + 2**-53 + 2**-53 is 1 from the left, but 2**-53 + 2**-53 + 1 is
    1 + 2**-52: with the tiny groups seen first, the total is the larger
    one, though the group of 1.0 sorts first."""
    atoms = [(0.7, 1, 2.0**-53), (0.9, 0, 2.0**-53), (0.1, 0, 1.0),
             (0.7, 1, 0.0), (-0.0, 0, 0.0)]
    joint = EmpiricalJoint.make(atoms)
    assert hex_columns(joint) == hex_columns(reference_make(atoms))
    assert joint.level_sets().m0[0] == 1.0 / (1.0 + 2.0**-52)
