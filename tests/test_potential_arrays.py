"""The Bregman route to the fixed decision loss (``oracles.cfdl_bregman``,
the task potential the max of its payoff lines) agrees with the payoff
route, ``cfdl``, at the kinks of the potential and at scale."""

import numpy as np
import pytest

from calmeasures import (
    DecisionTask,
    cfdl,
    from_samples,
    quadratic_task,
    threshold_task,
)
from oracles import cfdl_bregman


def kink_cases():
    """(task, atoms) pairs whose predictions sit at a kink of the task
    potential, where the best response's slope is not the potential's
    right-hand one."""
    half = threshold_task(0.5)
    yield half, [(0.5, 1), (0.5, 1), (0.5, 0)]  # mean 2/3
    yield half, [(0.5, 0), (0.5, 0), (0.5, 1), (0.2, 1), (0.9, 0)]
    # two identical rows, the lower-index best response at 0.5
    twin = DecisionTask(("a", "b", "c"), ((1.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    yield twin, [(0.5, 1), (0.5, 1), (0.5, 0), (0.25, 1)]
    # the constant line is the whole potential; at 0 the best response is
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
