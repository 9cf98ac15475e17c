"""The exact solvers behind the distance measures: the subset DP of the
partition oracles against a brute-force enumeration and against its own
per-call build of the block plan, and the chain DP of emd_joints against
the dense transport LP."""

import json
import time

import numpy as np
import pytest

from calmeasures import (
    EmpiricalJoint,
    FiniteInstance,
    dce_oracle,
    dce_upper_oracle,
    emd_joints,
    from_samples,
    project,
    smce,
)
from calmeasures.cli import main
from calmeasures.distance import _min_partition_cost

from conftest import random_joint
from oracles import emd_lp_oracle, restricted_growth_strings


def enumerated_min_cost(mass, pred, cond):
    """Min over every set partition of sum mass |pred - block mean of cond|,
    one restricted growth string at a time."""
    n = len(mass)
    best = np.inf
    for a in restricted_growth_strings(n):
        bmass = [0.0] * n
        bcond = [0.0] * n
        for i, b in enumerate(a):
            bmass[b] += mass[i]
            bcond[b] += mass[i] * cond[i]
        cost = sum(
            mass[i] * abs(pred[i] - bcond[b] / bmass[b])
            for i, b in enumerate(a)
        )
        best = min(best, cost)
    return best


def per_call_min_cost(mass, pred, cond):
    """The subset DP with its block plan built on every call."""
    n = len(mass)
    sums = np.zeros((1, 2))
    for row in np.stack([mass, mass * cond], axis=1):
        sums = np.concatenate([sums, sums + row])
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    value = np.concatenate([[0.0], sums[1:, 1] / sums[1:, 0]])
    value[1 << np.arange(n)] = cond
    cost = (member * mass * np.abs(pred - value[:, None])).sum(axis=1)
    f = np.zeros(1 << n)
    popcount = member.sum(axis=1)
    for p in range(1, n + 1):
        layer = np.flatnonzero(popcount == p)
        bits = np.nonzero(member[layer])[1].reshape(-1, p)
        pick = (np.arange(1 << (p - 1))[:, None] >> np.arange(p - 1)) & 1
        blocks = (1 << bits[:, :1]) | ((1 << bits[:, 1:]) @ pick.T)
        f[layer] = (cost[blocks] + f[layer[:, None] ^ blocks]).min(axis=1)
    return float(f[-1])


def seeded_points(n, seed):
    """Masses, predictions and conditional means of n points; a seed of
    1 mod 3 ties the predictions, 2 mod 3 calibrates half the points."""
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 1.0, n)
    if seed % 3 == 1:
        pred = rng.choice([0.2, 0.5, 0.9], n)
    cond = np.clip(pred + rng.normal(0.0, 0.2, n), 0.0, 1.0)
    if seed % 3 == 2:
        cond[: (n + 1) // 2] = pred[: (n + 1) // 2]
    return rng.uniform(0.05, 1.0, n), pred, cond


@pytest.mark.parametrize("n", range(1, 11))
def test_planned_subset_dp_matches_per_call_build_bit_for_bit(n):
    for seed in range(6):
        points = seeded_points(n, seed)
        assert (_min_partition_cost(*points).hex()
                == per_call_min_cost(*points).hex())


def test_subset_plan_keeps_no_state_between_sizes():
    cases = [seeded_points(n, 100 + n) for n in (8, 6)]
    expected = [per_call_min_cost(*points).hex() for points in cases]
    for i in (0, 1, 0, 1, 0):
        assert _min_partition_cost(*cases[i]).hex() == expected[i]


def instance_cases():
    """Seeded instances with n = 1..8 points, some with tied predictions
    and some with calibrated points (cond_mean equal to pred)."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in range(1, 9):
        for variant in ("plain", "ties", "calibrated"):
            mass = rng.uniform(0.05, 1.0, n)
            pred = rng.uniform(0.0, 1.0, n)
            cond = rng.uniform(0.0, 1.0, n)
            if variant == "ties":
                pred = rng.choice([0.2, 0.5, 0.9], n)
            elif variant == "calibrated":
                cond[: (n + 1) // 2] = pred[: (n + 1) // 2]
            cases.append(pytest.param(mass, pred, cond, id=f"{variant}-{n}"))
    return cases


@pytest.mark.parametrize("mass,pred,cond", instance_cases())
def test_subset_dp_matches_enumeration(mass, pred, cond):
    inst = FiniteInstance.make(
        (f"x{i}", m, p, c) for i, (m, p, c) in enumerate(zip(mass, pred, cond))
    )
    m, p, c = (col.tolist() for col in (inst.mass, inst.pred, inst.cond_mean))
    assert dce_oracle(inst) == pytest.approx(
        enumerated_min_cost(m, p, c), abs=1e-12
    )
    levels = project(inst)
    assert dce_upper_oracle(levels) == pytest.approx(
        enumerated_min_cost(*(col.tolist() for col in (
            levels.mass, levels.vals, levels.mean))),
        abs=1e-12,
    )


def emd_cases():
    rng = np.random.default_rng(77)
    cases = [random_joint(rng, max_values=40) for _ in range(40)]
    # a single prediction value, with one or both labels
    cases.append(EmpiricalJoint.make([(0.3, 1, 1.0)]))
    cases.append(EmpiricalJoint.make([(0.3, 1, 0.2), (0.3, 0, 0.8)]))
    cases.append(EmpiricalJoint.make([(0.0, 1, 0.5), (0.0, 0, 0.5)]))
    # predictions one float step apart stay distinct: d ~ 0 DP steps
    for _ in range(6):
        vs = rng.uniform(0.05, 0.95, int(rng.integers(1, 20)))
        vs = np.concatenate([vs, np.nextafter(vs, 1.0)])
        labels = rng.integers(0, 2, len(vs))
        weights = rng.uniform(0.1, 1.0, len(vs))
        cases.append(EmpiricalJoint.make(list(zip(vs, labels, weights))))
    return cases


@pytest.mark.parametrize("joint", emd_cases())
def test_emd_chain_dp_matches_transport_lp(joint):
    assert emd_joints(joint) == pytest.approx(emd_lp_oracle(joint), abs=1e-12)


def test_emd_smce_sandwich_at_a_thousand_values():
    rng = np.random.default_rng(5)
    vs = rng.uniform(0.0, 1.0, 1000)
    labels = (rng.uniform(0.0, 1.0, 1000) < vs**1.5).astype(int)
    joint = from_samples(list(zip(vs, labels)))
    d, s = emd_joints(joint), smce(joint)
    assert d / 2.0 - 1e-12 <= s <= d + 1e-12


def test_report_refuses_a_bad_grid_before_an_over_cap_oracle(
        tmp_path, capsys):
    """dce_upper on 14 distinct predictions would exit 4; intce:1 is
    refused first, when the specs are resolved."""
    csv = tmp_path / "d.csv"
    rows = "".join(f"{i / 13!r},{i % 2}\n" for i in range(14))
    csv.write_text("prediction,label\n" + rows)
    argv = ["report", str(csv), "--measures", "dce_upper,intce:1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: measure 'intce:1': grid resolution must be >= 2\n")


def test_transcript_dce_upper_curve_with_twelve_distinct_predictions(
    tmp_path, capsys
):
    rounds = [[(i + 1) / 13, i % 2] for i in range(12)]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rounds": rounds}))
    start = time.perf_counter()
    argv = ["plotdata", "--kind", "transcript", str(path),
            "--measures", "dce_upper"]
    assert main(argv) == 0
    assert time.perf_counter() - start < 10.0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
