"""The level-set columns that EmpiricalJoint.make builds once: checked
against plain-Python aggregation at k = 10^2 and 10^3 distinct predictions,
near-duplicates included, and the relation chain at those sizes."""

import warnings

import numpy as np
import pytest

from calmeasures import (
    EmpiricalJoint,
    LevelSets,
    cdl,
    ece,
    ece_q,
    from_samples,
    residuals,
)


def wide_atoms(k, seed):
    """Raw atoms over k distinct predictions, a quarter of them one float
    step above another, with repeated (v, y) pairs in shuffled order."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 0.999, k - k // 4)
    vals = np.concatenate([base, np.nextafter(base[: k // 4], 1.0)])
    atoms = [
        (float(v), int(rng.integers(0, 2)), float(rng.uniform(0.0, 2.0)))
        for v in vals
        for _ in range(int(rng.integers(1, 4)))
    ]
    return [atoms[i] for i in rng.permutation(len(atoms))]


def reference_atoms(raw):
    """Canonical atoms by plain dict merging, summing in input order."""
    merged = {}
    for v, y, m in raw:
        if m > 0.0:
            merged[(v, y)] = merged.get((v, y), 0.0) + m
    total = sum(merged.values())
    return tuple((v, y, m / total) for (v, y), m in sorted(merged.items()))


def reference_levels(atoms):
    """Per distinct v of canonical atoms: mass, mean label, residual."""
    acc = {}
    for v, y, m in atoms:
        mass, ymass, res = acc.get(v, (0.0, 0.0, 0.0))
        acc[v] = (mass + m, ymass + m * y, res + m * (y - v))
    vals = sorted(acc)
    return (
        vals,
        [acc[v][0] for v in vals],
        [acc[v][1] / acc[v][0] for v in vals],
        [acc[v][2] for v in vals],
    )


@pytest.mark.parametrize("k", [100, 1000])
@pytest.mark.parametrize("seed", [0, 1])
def test_columns_match_plain_python_aggregation(k, seed):
    raw = wide_atoms(k, seed)
    j = EmpiricalJoint.make(raw)
    assert j.atoms == reference_atoms(raw)
    ls = j.level_sets()
    assert len(ls) == k
    vals, mass, mean, res = reference_levels(j.atoms)
    assert ls.vals.tolist() == vals
    assert ls.mass.tolist() == mass
    assert ls.mean.tolist() == mean
    assert ls.residual.tolist() == res
    assert all(c.dtype == np.float64 for c in (ls.mass, ls.mean, ls.vals))


def test_near_duplicates_stay_distinct_in_columns():
    v = 0.3
    w = float(np.nextafter(v, 1.0))
    j = EmpiricalJoint.make([(w, 1, 1.0), (v, 0, 1.0), (v, 1, 2.0)])
    ls = j.level_sets()
    assert ls.vals.tolist() == [v, w]
    assert ls.mass.tolist() == [0.75, 0.25]
    assert ls.mean.tolist() == [0.5 / 0.75, 1.0]


def test_level_sets_is_a_read_only_mapping():
    j = from_samples([(0.4, 1), (0.4, 0), (0.9, 1), (0.4, 0)])
    ls = j.level_sets()
    assert isinstance(ls, LevelSets)
    assert list(ls) == [0.4, 0.9]
    assert dict(ls) == {0.4: (0.75, 1 / 3), 0.9: (0.25, 1.0)}
    assert 0.9 in ls and 0.5 not in ls
    with pytest.raises(KeyError):
        ls[0.5]
    with pytest.raises(ValueError):
        ls.mass[0] = 1.0
    vals, cs = residuals(j)
    assert vals is ls.vals and cs is ls.residual
    assert j.level_sets() is ls


@pytest.mark.parametrize("k", [100, 1000])
def test_relation_chain_at_scale(k):
    rng = np.random.default_rng(k)
    for raw in (wide_atoms(k, k), [
        (float(v), int(rng.random() < v), 1.0)
        for v in rng.uniform(0.0, 1.0, k)
    ]):
        j = EmpiricalJoint.make(raw)
        assert len(j.level_sets()) == k
        e1, e2, c = ece(j), ece_q(j, 2.0), cdl(j)
        assert e1**2 <= e2**2 + 1e-9
        assert e2**2 <= c + 1e-9
        assert c <= 2.0 * e1 + 1e-9


def test_level_whose_mass_underflows_is_dropped():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = EmpiricalJoint.make([(0.3, 1, 5e-324), (0.5, 0, 1e300)])
        ls = j.level_sets()
        assert ls.vals.tolist() == [0.5]
        assert ls.mass.tolist() == [1.0] and ls.mean.tolist() == [0.0]
        assert ece(j) == 0.5
    assert j.atoms == ((0.5, 0, 1.0),)
    assert j == EmpiricalJoint.make([(0.5, 0, 2.0)])
