"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line on success (run
with -s to see them alongside pytest's own verdicts).  Tolerances are the
contract; do not loosen them.
"""

import itertools
import json
import math

import numpy as np
import pytest

from calmeasures import (
    EmpiricalJoint,
    best_response,
    cdl,
    cfdl,
    dce_oracle,
    dce_upper_oracle,
    ece,
    ece_q,
    emd_joints,
    from_samples,
    intce_opt,
    project,
    quadratic_task,
    random_grid_intce,
    smce,
    tv_characterization,
)
from calmeasures.cli import main
from calmeasures.fixtures import (
    cdl_example_1,
    cdl_example_2,
    evaluate,
    quadratic_gap,
    two_point,
)
from conftest import (
    random_calibrated_joint,
    random_instance,
    random_joint,
    random_task,
)
from oracles import cfdl_bregman, expected_payoff, smce_lp_oracle


@pytest.fixture(scope="module")
def joint_pool():
    rng = np.random.default_rng(20240810)
    return [random_joint(rng, max_values=10) for _ in range(1000)]


def test_criterion_01_fixture_golden_values():
    fix = two_point(0.1)
    assert evaluate(fix, "ece") == pytest.approx(0.4, abs=1e-12)

    fix = cdl_example_1(0.05)
    assert evaluate(fix, "cdl") == pytest.approx(0.1, abs=1e-9)
    assert evaluate(fix, "ece2") == pytest.approx(0.05, abs=1e-12)

    fine, coarse = quadratic_gap(0.1)
    assert dce_oracle(fine.instance) == pytest.approx(0.025, abs=1e-12)
    assert project(fine.instance).atoms == project(coarse.instance).atoms

    fix = cdl_example_2(0.05)
    assert evaluate(fix, "ece") == pytest.approx(0.05, abs=1e-12)
    c = evaluate(fix, "cdl")
    assert 0.0025 <= c <= 0.05**2 / 0.95 + 5e-4
    print("PASS criterion 1: fixture golden values")


def test_criterion_02_relation_chain(joint_pool):
    worst = math.inf
    for j in joint_pool:
        e1, e2, c = ece(j), ece_q(j, 2.0), cdl(j)
        worst = min(worst, e2**2 - e1**2, c - e2**2, 2.0 * e1 - c)
    assert worst >= -1e-9
    print(f"PASS criterion 2: relation chain on 1000 joints "
          f"(min slack {worst:+.2e})")


def test_criterion_03_tv_identity(joint_pool):
    worst = max(abs(ece(j) - tv_characterization(j)) for j in joint_pool)
    assert worst <= 1e-12
    print(f"PASS criterion 3: TV identity (max gap {worst:.2e})")


def test_criterion_04_emd_sandwich(joint_pool):
    worst = math.inf
    for j in joint_pool:
        d, s = emd_joints(j), smce(j)
        worst = min(worst, s - d / 2.0, d - s)
    assert worst >= -1e-9

    rng = np.random.default_rng(4)
    gap = max(
        abs(smce(j) - smce_lp_oracle(j))
        for j in (random_joint(rng, max_values=8) for _ in range(100))
    )
    assert gap <= 1e-6
    print(f"PASS criterion 4: EMD sandwich (min slack {worst:+.2e}), "
          f"LP oracle match (max gap {gap:.2e})")


def test_criterion_05_cfdl_route_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        j = random_joint(rng)
        task = random_task(rng, max_actions=5)
        worst = max(worst, abs(cfdl(j, task) - cfdl_bregman(j, task)))
    assert worst <= 1e-9

    task = quadratic_task(1000)
    gap = 0.0
    for _ in range(20):
        j = random_joint(rng)
        gap = max(gap, abs(cfdl(j, task) - ece_q(j, 2.0) ** 2))
    assert gap <= 2.0 / 1000
    print(f"PASS criterion 5: CFDL routes agree (max gap {worst:.2e}), "
          f"quadratic task matches squared error (max gap {gap:.2e})")


def test_criterion_06_trustworthiness():
    # expected payoff decomposes over level sets, so when the full policy
    # product is too large the exhaustive max equals the per-value max
    rng = np.random.default_rng(6)
    worst = -math.inf
    for _ in range(200):
        j = random_calibrated_joint(rng, max_values=10)
        task = random_task(rng, max_actions=4)
        vals = j.vals.tolist()
        n = len(task.actions)
        br = expected_payoff(
            j, task, {v: best_response(task, v) for v in vals}
        )
        if n ** len(vals) <= 4096:
            best = max(
                expected_payoff(j, task, dict(zip(vals, assignment)))
                for assignment in itertools.product(range(n), repeat=len(vals))
            )
        else:
            u = task.payoff_matrix()
            best = sum(
                mass * max(mean * u[a, 1] + (1.0 - mean) * u[a, 0]
                           for a in range(n))
                for mass, mean in zip(j.mass.tolist(), j.mean.tolist())
            )
        worst = max(worst, best - br)
    assert worst <= 1e-12
    print(f"PASS criterion 6: calibrated best response is optimal "
          f"(max policy gain {worst:+.2e})")


def test_criterion_07_distance_sandwiches():
    rng = np.random.default_rng(7)
    slacks = [math.inf] * 5
    # some seeded instances put two predictions in one grid cell
    with pytest.warns(UserWarning, match="too coarse"):
        for _ in range(200):
            inst = random_instance(rng, max_points=9)
            joint = project(inst)
            d = dce_oracle(inst)
            up = dce_upper_oracle(joint)
            slacks[0] = min(slacks[0], d + 1e-9 - smce(joint) / 2.0)
            slacks[1] = min(slacks[1], up + 1e-12 - d)
            slacks[2] = min(slacks[2], 4.0 * math.sqrt(d) + 1e-9 - up)
            slacks[3] = min(slacks[3], intce_opt(joint, 1000) + 2e-3 - up)
            slacks[4] = min(slacks[4], ece(joint) + 1e-12 - up)
    assert all(s >= 0.0 for s in slacks), slacks
    print(f"PASS criterion 7: distance sandwiches on 200 instances "
          f"(min slack {min(slacks):+.2e})")


def test_criterion_08_randomized_bucketing():
    rng = np.random.default_rng(8)
    checked = 0
    worst = -math.inf
    while checked < 50:
        inst = random_instance(rng, max_points=8)
        delta = dce_oracle(inst)
        if delta < 1e-9:
            continue
        joint = project(inst)
        beta = min(math.sqrt(2.0 * delta), 1.0)
        mean = float(np.mean(
            [random_grid_intce(joint, beta, seed) for seed in range(100)]
        ))
        worst = max(worst, mean - 4.0 * math.sqrt(delta))
        checked += 1
    assert worst <= 1e-9
    print(f"PASS criterion 8: randomized bucketing below 4 sqrt(delta) "
          f"(max excess {worst:+.2e})")


def test_criterion_09_smooth_stability():
    rng = np.random.default_rng(9)
    worst = -math.inf
    for _ in range(500):
        j = random_joint(rng)
        eta = float(rng.uniform(0.0, 0.25))
        shifted = EmpiricalJoint.make(
            (min(1.0, max(0.0, v + rng.uniform(-eta, eta))), y, m)
            for v, y, m in j.atoms
        )
        worst = max(worst, abs(smce(j) - smce(shifted)) - 2.0 * eta)
    assert worst <= 1e-9

    # discontinuity exhibit: the same eta = 0.1 move jumps ECE by ~0.4
    near = project(two_point(0.1).instance)
    exact = from_samples([(0.5, 0), (0.5, 1)])
    jump = abs(ece(near) - ece(exact))
    assert jump == pytest.approx(0.4, abs=1e-12)
    print(f"PASS criterion 9: smCE 2-Lipschitz under shifts "
          f"(max excess {worst:+.2e}), ECE jump {jump:.3f}")


def test_criterion_10_online_rates():
    from calmeasures import (
        BernoulliAdversary,
        ConstantForecaster,
        RunningMeanForecaster,
        ThresholdAdversary,
        run,
        sequence_measure,
    )

    T = 1000
    lows = []
    for f in (ConstantForecaster(0.5), ConstantForecaster(0.3),
              RunningMeanForecaster()):
        t = run(f, ThresholdAdversary(), T, seed=10)
        lows.append(sequence_measure(t, "ece"))
    assert min(lows) >= 0.4 * T

    T = 10**4
    highs = []
    for seed in range(20):
        t = run(ConstantForecaster(0.3), BernoulliAdversary(0.3), T, seed=seed)
        highs.append(sequence_measure(t, "ece"))
    assert max(highs) <= 3.0 * math.sqrt(T)
    print(f"PASS criterion 10: threshold adversary forces >= 0.4 T "
          f"(min {min(lows):.0f}), matched Bernoulli stays <= 3 sqrt(T) "
          f"(max {max(highs):.1f})")


def test_criterion_11_cli_determinism(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n")
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(
        [{"id": "a", "mass": 0.5, "pred": 0.4, "cond_mean": 0.0},
         {"id": "b", "mass": 0.5, "pred": 0.6, "cond_mean": 1.0}]
    ))
    invocations = [
        ["report", str(csv), "--verify-relations"],
        ["oracle", str(inst)],
        ["online", "--forecaster", "grid_random:10", "--adversary",
         "bernoulli:0.4", "-T", "50", "--seed", "3"],
        ["fixture", "--name", "two_point", "--eps", "0.1"],
        ["plotdata", "--kind", "reliability", str(csv)],
    ]
    for k, args in enumerate(invocations):
        a, b = tmp_path / f"a{k}.out", tmp_path / f"b{k}.out"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), args
    print("PASS criterion 11: repeated CLI invocations are byte-identical")
