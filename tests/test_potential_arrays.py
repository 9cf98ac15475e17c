"""Convex potentials on arrays: bit-identical to the segment walks they
replaced, refusing the same arguments, and the Bregman route to the fixed
decision loss agreeing with the payoff route at kinks and at scale."""

import numpy as np
import pytest

from calmeasures import (
    ConvexPotential,
    DecisionTask,
    cfdl,
    cfdl_bregman,
    from_samples,
    quadratic_task,
    task_potential,
    threshold_task,
)
from conftest import random_task


def walk_value(phi, v):
    """The segment walk: value0 plus slope times width, segment by segment,
    up to v."""
    acc = phi.value0
    bs, ss = phi.breakpoints, phi.slopes
    for i, s in enumerate(ss):
        hi = min(v, bs[i + 1])
        if hi <= bs[i]:
            break
        acc += s * (hi - bs[i])
    return acc


def walk_subgradient(phi, v):
    """The slope of the first segment that ends past v, else the last."""
    bs = phi.breakpoints
    for i in range(len(bs) - 1):
        if v < bs[i + 1]:
            return phi.slopes[i]
    return phi.slopes[-1]


def random_potentials(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield task_potential(random_task(rng, max_actions=40)), rng
    yield task_potential(quadratic_task(50)), rng
    yield task_potential(threshold_task(0.5)), rng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arrays_match_the_segment_walks_bit_for_bit(seed):
    for phi, rng in random_potentials(seed, 100):
        points = np.concatenate(
            (rng.uniform(size=50), phi.breakpoints, [0.0, 1.0]))
        for method, walk in ((phi.value, walk_value),
                             (phi.subgradient, walk_subgradient)):
            got = method(points)
            assert got.shape == points.shape
            for x, a in zip(points.tolist(), got.tolist()):
                want = float(walk(phi, x)).hex()
                assert a.hex() == want
                assert method(x).hex() == want  # the scalar call


def test_hand_built_potential_on_an_array():
    phi = ConvexPotential((0.0, 0.5, 1.0), (-1.0, 1.0), value0=0.5)
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert phi.value(x).tolist() == [0.5, 0.25, 0.0, 0.25, 0.5]
    assert phi.subgradient(x).tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0]
    assert isinstance(phi.value(0.25), float)
    assert isinstance(phi.subgradient(0.25), float)


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, -np.inf])
def test_an_argument_outside_the_unit_interval_is_refused(bad):
    phi = task_potential(threshold_task(0.3))
    for arg in (bad, np.array([0.2, bad, 0.9]), [[0.5], [bad]]):
        for method in (phi.value, phi.subgradient):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                method(arg)


def kink_cases():
    """(task, atoms) pairs whose predictions sit at a kink of the task
    potential, where the best response's slope is not the envelope's
    right-hand one."""
    half = threshold_task(0.5)
    yield half, [(0.5, 1), (0.5, 1), (0.5, 0)]  # mean 2/3
    yield half, [(0.5, 0), (0.5, 0), (0.5, 1), (0.2, 1), (0.9, 0)]
    # two identical rows, the lower-index best response at 0.5
    twin = DecisionTask(("a", "b", "c"), ((1.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    yield twin, [(0.5, 1), (0.5, 1), (0.5, 0), (0.25, 1)]
    # the constant line covers the envelope; at 0 the best response is
    # "low" (slope -1) and at 1 "high" (slope 1)
    ends = DecisionTask(("low", "high", "flat"),
                        ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    yield ends, [(0.0, 1), (0.0, 0), (1.0, 0), (1.0, 1), (1.0, 1)]


@pytest.mark.parametrize("case", range(4))
def test_routes_agree_at_kinks(case):
    task, atoms = list(kink_cases())[case]
    j = from_samples(atoms)
    want = cfdl(j, task)
    assert want > 0.1
    assert abs(cfdl_bregman(j, task) - want) <= 1e-15


def test_routes_agree_on_many_distinct_scores():
    rng = np.random.default_rng(7)
    p = rng.beta(2.0, 3.0, 2 * 10**4)
    y = (rng.random(len(p)) < p).astype(int)
    j = from_samples(list(zip(p.tolist(), y.tolist())))
    assert len(j.level_sets().vals) == 2 * 10**4
    task = quadratic_task(1000)
    assert abs(cfdl(j, task) - cfdl_bregman(j, task)) <= 1e-12
