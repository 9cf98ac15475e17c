"""The level-set columns as the joint's only stored form: every path that
moves or weighs atoms agrees bit for bit with the per-atom Python code it
replaced, at k = 10^3 levels with float-step neighbours, one-label levels
and zero weights, and keeps its bits under Python 3.12's compensated
``sum``; the joint read from a CSV of distinct scores stays small;
recalibration lookups use the columns."""

import builtins
import math
import operator
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from calmeasures import (
    EmpiricalJoint,
    FiniteInstance,
    IntervalPartition,
    best_response,
    binned_ece,
    cfdl,
    ece,
    project,
    quadratic_task,
    read_csv,
    recalibrate,
    threshold_task,
    tv_characterization,
)
from calmeasures.empirical import left_sum
from oracles import canonical_predictor, expected_payoff, recalibrated_joint

K = 1000


def wide_joint(seed):
    """K levels: a quarter one float step above another, 0 and 1 among
    them; a third with label 0 only, a third with label 1 only; repeated
    atoms, and a share of zero weights."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, K - K // 4)
    base[:2] = [0.0, 1.0]
    vals = np.concatenate([base, np.nextafter(base[2 : 2 + K // 4], 1.0)])
    raw = []
    for i, v in enumerate(vals.tolist()):
        labels = ((0,), (1,), (0, 1))[i % 3]
        for _ in range(int(rng.integers(1, 4))):
            for y in labels:
                raw.append((v, y, float(rng.uniform(0.0, 2.0))))
    raw.extend((v, 1, 0.0) for v in vals[::5].tolist())
    joint = EmpiricalJoint.make([raw[i] for i in rng.permutation(len(raw))])
    assert len(joint.vals) == K
    return joint


@pytest.fixture(scope="module", params=[0, 1])
def joint(request):
    return wide_joint(request.param)


def same(a, b):
    """Equal to the last bit (and in sign)."""
    return float(a).hex() == float(b).hex()


def same_joint(a, b):
    assert a.atoms == b.atoms
    la, lb = a.level_sets(), b.level_sets()
    for col in ("vals", "m0", "m1", "mass", "mean", "residual"):
        assert getattr(la, col).tobytes() == getattr(lb, col).tobytes(), col
    return True


# The per-atom code that the column paths replaced, kept as references.


def atom_tv(joint):
    obs = {(v, y): m for v, y, m in joint.atoms}
    ls = joint.level_sets()
    pairs = []
    for v, mass in zip(ls.vals.tolist(), ls.mass.tolist()):
        for y, share in ((1, v), (0, 1.0 - v)):
            pairs.append((obs.get((v, y), 0.0), mass * share))
    return 0.5 * reduce(operator.add, (abs(a - b) for a, b in pairs), 0)


def atom_midpoint(v, b):
    j = min(int(v * b), b - 1)
    return (j + 0.5) / b


def atom_binned(joint, b):
    return ece(EmpiricalJoint.make(
        (atom_midpoint(v, b), y, m) for v, y, m in joint.atoms
    ))


def atom_payoff(joint, task, policy):
    u = task.payoff_matrix()
    total = 0.0
    for v, y, m in joint.atoms:
        a = policy(v) if callable(policy) else policy[v]
        total += m * u[a, y]
    return total


def atom_cfdl(joint, task):
    phat = recalibrate(joint).as_dict()
    u = task.payoff_matrix()
    total = 0.0
    for v, y, m in joint.atoms:
        a_hat = best_response(task, phat[v])
        total += m * (u[a_hat, y] - u[best_response(task, v), y])
    return total


def atom_recalibrated(joint):
    phat = recalibrate(joint).as_dict()
    return EmpiricalJoint.make((phat[v], y, m) for v, y, m in joint.atoms)


def atom_project(instance):
    atoms = []
    for mass, pred, cond_mean in zip(instance.mass.tolist(),
                                     instance.pred.tolist(),
                                     instance.cond_mean.tolist()):
        atoms.append((pred, 1, mass * cond_mean))
        atoms.append((pred, 0, mass * (1.0 - cond_mean)))
    return EmpiricalJoint.make(atoms)


def test_tv_characterization(joint):
    assert same(tv_characterization(joint), atom_tv(joint))


@pytest.mark.parametrize("b", [1, 7, 15])
def test_binned_ece(joint, b):
    assert same(binned_ece(joint, b), atom_binned(joint, b))


@pytest.mark.parametrize("task", [threshold_task(0.37), quadratic_task()],
                         ids=["threshold", "quadratic"])
def test_cfdl(joint, task):
    assert same(cfdl(joint, task), atom_cfdl(joint, task))


def test_expected_payoff(joint):
    task = quadratic_task(50)
    vals = joint.level_sets().vals.tolist()
    policy = {v: best_response(task, 1.0 - v) for v in vals}
    assert same(expected_payoff(joint, task, policy),
                atom_payoff(joint, task, policy))
    assert same(expected_payoff(joint, task, policy.__getitem__),
                atom_payoff(joint, task, policy.__getitem__))


def test_recalibrated_joint(joint):
    assert same_joint(recalibrated_joint(joint), atom_recalibrated(joint))


@pytest.mark.parametrize("breakpoints", [
    IntervalPartition.uniform(7).breakpoints,
    (0.0, 0.1, 0.35, 0.5, 0.500001, 0.9, 1.0),
])
def test_canonical_predictor(joint, breakpoints):
    q = canonical_predictor(joint, IntervalPartition(breakpoints))
    ref = EmpiricalJoint.make((q(v), y, m) for v, y, m in joint.atoms)
    assert same_joint(q.apply(joint), ref)
    shift = reduce(operator.add,
                   (m * abs(v - q(v)) for v, _, m in joint.atoms), 0)
    assert same(q.l1_shift(joint), shift)


def test_project():
    rng = np.random.default_rng(5)
    preds = rng.uniform(0.0, 1.0, K)
    preds[1::4] = np.nextafter(preds[::4], 1.0)
    preds[2::4] = preds[::4]
    cond = rng.uniform(0.0, 1.0, K)
    cond[::3] = rng.integers(0, 2, len(cond[::3]))
    instance = FiniteInstance.make(
        (f"x{i}", m, p, c) for i, (m, p, c) in enumerate(zip(
            rng.uniform(0.0, 2.0, K).tolist(), preds.tolist(), cond.tolist()
        ))
    )
    assert same_joint(project(instance), atom_project(instance))


def test_total_mass(joint):
    assert same(left_sum(joint.m0, joint.m1),
                reduce(operator.add, (m for _, _, m in joint.atoms), 0))


PLAIN_SUM = builtins.sum


def neumaier_sum(xs, start=0):
    """CPython 3.12's ``sum`` of floats: Neumaier-compensated, with the
    compensation added at the end only when it is nonzero and finite."""
    xs = list(xs)
    if not all(type(x) is float for x in xs):
        return PLAIN_SUM(xs, start)
    total, c = float(start), 0.0
    for x in xs:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_level_sums_keep_their_bits_under_a_compensated_sum(
        joint, monkeypatch):
    """The level terms are added from the left by ``left_sum``, not by the
    builtin ``sum``, so Python 3.12's compensated ``sum`` changes no bit."""
    rng = np.random.default_rng(7)
    atoms = joint.atoms
    weights = rng.uniform(0.5, 3.0, len(atoms)).tolist()
    weighted = [(v, y, m * w) for (v, y, m), w in zip(atoms, weights)]
    points = [(f"x{i}", w, v, float(y))
              for i, ((v, y, _), w) in enumerate(zip(atoms, weights))]
    vals = joint.level_sets().vals.tolist()
    task = quadratic_task(50)
    policy = {v: best_response(task, 1.0 - v) for v in vals}
    q = canonical_predictor(joint, IntervalPartition.uniform(7))

    def values():
        made = [EmpiricalJoint.make(weighted),
                project(FiniteInstance.make(points))]
        return [getattr(j, col).tobytes() for j in made
                for col in ("vals", "m0", "m1", "mass", "mean", "residual")
                ] + [float(x).hex() for x in (
            left_sum(joint.m0, joint.m1), cfdl(joint, threshold_task(0.37)),
            cfdl(joint, quadratic_task()),
            expected_payoff(joint, task, policy), q.l1_shift(joint),
            tv_characterization(joint), ece(joint))]

    want = values()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0
    assert values() == want


def test_left_sum_adds_from_the_left():
    assert left_sum(np.array([1e16, 1.0, -1e16])) == 0.0
    for total in (left_sum(np.full(3, -0.0)),
                  left_sum(np.full(3, -0.0), np.full(3, -0.0))):
        assert total == 0.0 and math.copysign(1.0, total) == 1.0
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-1.0, 1.0, (2, 50)) * 10.0 ** rng.integers(-8, 9, 50)
    total = left_sum(a, b)
    assert type(total) is float
    assert same(total, reduce(operator.add, np.column_stack(
        (a, b)).ravel().tolist(), 0))
    assert same(left_sum(a[None], b[None])[0], total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert left_sum(np.array([1e308, 1e308])) == math.inf


def test_atoms_view_is_canonical(joint):
    atoms = joint.atoms
    assert list(atoms) == sorted(atoms)
    assert all(m > 0.0 for _, _, m in atoms)
    assert all(type(y) is int for _, y, _ in atoms)


def test_recalibration_lookup_uses_the_columns():
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.0, 1.0, 10**4).tolist()
    joint = EmpiricalJoint.make([(0.0, 1, 1.0)] + [
        (v, y, 1.0) for v in vals for y in (0, 1) if rng.random() < 0.7
    ])
    phat = recalibrate(joint)
    table = phat.as_dict()
    assert len(table) == len(joint.vals)
    assert all(phat(v) == mean for v, mean in table.items())
    assert phat(-0.0) == table[0.0] == 1.0
    for v in (math.nextafter(vals[0], 1.0), math.nextafter(0.0, -1.0),
              math.nextafter(float(joint.vals[-1]), 2.0)):
        with pytest.raises(KeyError):
            phat(v)


def test_read_csv_joint_is_small_per_row(tmp_path):
    """The joint of a CSV of distinct full-precision scores holds its six
    level-set columns, 48 bytes per level, and no per-atom objects."""
    n = 10**5
    rng = np.random.default_rng(11)
    p = rng.beta(2.0, 3.0, n)
    y = (rng.random(n) < p).astype(np.int64)
    path = tmp_path / "distinct.csv"
    path.write_text("prediction,label\n" + "".join(
        f"{a!r},{b}\n" for a, b in zip(p.tolist(), y.tolist())))
    tracemalloc.start()
    try:
        joint = read_csv(path)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(joint.vals) == n
    assert current <= 64 * n
