"""The relation table ``measures.RELATIONS``.

Each entry has a test named after it whose docstring is the entry's proof.
Masses are normalized to 1, c_v = m_v (ybar_v - v) is the residual mass at
the prediction v, and ybar_v is the mean label there, so ece = sum |c_v|.
Each test checks its entry on seeded random joints of up to 10^3 distinct
predictions or, for an entry with ``dce`` or ``dce_upper``, on seeded random
instances of at most 8 points.  Every entry must also be wired into
``report --verify-relations``, which exits 1 naming it when it breaks.
"""

import json

import numpy as np
import pytest

from calmeasures import EmpiricalJoint, FiniteInstance, project
from calmeasures import write_instance_json
from calmeasures.cli import main
from calmeasures.measures import MEASURES, RELATIONS, TOL, relation_checks
from calmeasures.measures import resolve

from conftest import random_calibrated_joint, random_instance

# the specs that stand for an id, some with several arguments
SPECS = {"lowdeg": ("lowdeg:0", "lowdeg:3"),
         "kernel": ("kernel:laplace", "kernel:gaussian"),
         "intce": ("intce", "intce:50")}


def joint_of(rng, k, labels=None):
    """k distinct uniform predictions with random masses, and each
    prediction's mean label random, or ``labels`` if given."""
    v = rng.uniform(0.0, 1.0, k)
    m = rng.uniform(0.1, 1.0, k)
    mu = rng.uniform(0.0, 1.0, k) if labels is None else np.full(k, labels)
    atoms = np.concatenate([np.stack([v, np.ones(k), m * mu], axis=1),
                            np.stack([v, np.zeros(k), m * (1 - mu)], axis=1)])
    return EmpiricalJoint.make(atoms)


def seeded_joints():
    rng = np.random.default_rng(11)
    for k in (*rng.integers(1, 11, 150), 30, 100, 1000):
        yield joint_of(rng, int(k)), None
    for k in (1, 5, 300):
        yield joint_of(rng, k, labels=1.0), None
        yield joint_of(rng, k, labels=0.0), None
    for _ in range(20):
        yield random_calibrated_joint(rng), None


def seeded_instances():
    rng = np.random.default_rng(12)
    for _ in range(120):
        instance = random_instance(rng, max_points=8)
        yield project(instance), instance


def check(name):
    """The entry ``name`` holds on every seeded case, for every pair of the
    specs that stand for its two ids."""
    left, right, _ = RELATIONS[name]
    oracle = {"dce", "dce_upper"} & {left, right}
    specs = [*SPECS.get(left, (left,)), *SPECS.get(right, (right,))]
    measures = {spec: resolve(spec) for spec in specs}
    for joint, instance in (seeded_instances() if oracle else seeded_joints()):
        values = {spec: f(joint, instance) for spec, f in measures.items()}
        assert relation_checks(values)[name], values


def test_ece_sq_le_ece2_sq():
    """ece^2 <= ece2^2.  ece = E|b| and ece2^2 = E[b^2] for the bias
    b(v) = ybar_v - v under the masses, and (E|b|)^2 <= E[b^2] by Jensen's
    inequality (Cauchy-Schwarz against the constant 1)."""
    check("ece_sq_le_ece2_sq")


def test_ece2_sq_le_cdl():
    """ece2^2 <= cdl.  cdl is the sup over thresholds t in [0, 1] of
    sum_v 2 m_v |ybar_v - t| over the levels whose t lies between v and
    ybar_v (``decision.cdl_rows``).  A sup is at least the mean over t
    uniform on [0, 1], and a level adds to that mean the integral of
    2 m_v |ybar_v - t| over t between v and ybar_v, which is
    m_v (ybar_v - v)^2.  Summed over levels that is ece2^2."""
    check("ece2_sq_le_cdl")


def test_cdl_le_2ece():
    """cdl <= 2 ece.  At every threshold t, a level whose t lies between v
    and ybar_v adds 2 m_v |ybar_v - t| <= 2 m_v |ybar_v - v|, and the other
    levels add nothing; so every t gives at most 2 sum_v m_v |ybar_v - v|
    = 2 ece."""
    check("cdl_le_2ece")


def test_2ece_le_2ece2():
    """2 ece <= 2 ece2: ece = E|b| <= sqrt(E[b^2]) = ece2 by Jensen's
    inequality, as for ece_sq_le_ece2_sq, doubled."""
    check("2ece_le_2ece2")


def test_smce_half_le_dce():
    """smce / 2 <= dce.  Let q be a calibrated predictor on the instance's
    points with E|q - v| = dce, and c the conditional mean label.  For a
    1-Lipschitz w: [0, 1] -> [-1, 1],
    E[w(v)(c - v)] = E[w(v)(c - q)] + E[w(v)(q - v)].  Calibration of q
    gives E[w(q)(c - q)] = 0, so the first term is
    E[(w(v) - w(q))(c - q)] <= E|v - q|, as |c - q| <= 1; the second is at
    most E|q - v|.  So smce <= 2 dce."""
    check("smce_half_le_dce")


def test_dce_le_dce_upper():
    """dce <= dce_upper.  dce_upper is the least E|k(v) - v| over the
    calibrated post-processings k of the predictions, and each k(v) is a
    calibrated predictor on the instance's points; dce is the least over
    all of them."""
    check("dce_le_dce_upper")


def test_dce_upper_le_4_sqrt_dce():
    """dce_upper <= 4 sqrt(dce).  Blasiok, Gopalan, Hu and Nakkiran, "A
    Unifying Theory of Distance from Calibration" (STOC 2023), cited from
    memory: the upper distance is at most 4 sqrt of the lower distance,
    which is at most the distance dce on any feature space.  The proof
    post-processes by the intervals of a randomly shifted grid of width
    sqrt(2 dce), a bound that ``scripts/bucketing_sweep.py`` also checks."""
    check("dce_upper_le_4_sqrt_dce")


def test_dce_upper_le_intce():
    """dce_upper <= intce:<g>, at every grid g.  Take the partition of
    intce's grid that attains it, and let k(v) be the mean label of v's
    interval B: it is a calibrated post-processing.  With vbar_B the mean
    prediction on B,
    E|k(v) - v| <= sum_B sum_(v in B) m_v (|v - vbar_B| + |vbar_B - ybar_B|)
    <= max width + sum_B |sum_(v in B) c_v|, which is intce's objective.
    So dce_upper <= intce.  Some seeded instances put two predictions in
    one cell of the grid g = 50, which intce warns of."""
    with pytest.warns(UserWarning, match="too coarse"):
        check("dce_upper_le_intce")


def test_dce_upper_le_ece():
    """dce_upper <= ece.  k(v) = ybar_v is a calibrated post-processing,
    and E|k(v) - v| = sum_v m_v |ybar_v - v| = ece."""
    check("dce_upper_le_ece")


def test_smce_le_ece():
    """smce <= ece.  A weight w with |w| <= 1 gives
    |sum_v w(v) c_v| <= sum_v |c_v| = ece, Lipschitz or not."""
    check("smce_le_ece")


def test_emd_half_le_smce():
    """emd / 2 <= smce.  emd is the max of sum_v w(v) c_v over 2-Lipschitz
    w: [0, 1] -> [-1, 1] (``lipschitz.emd_joints``).  For such a w, w / 2
    is 1-Lipschitz with |w / 2| <= 1, so sum_v w(v) c_v
    = 2 sum_v (w(v) / 2) c_v <= 2 smce."""
    check("emd_half_le_smce")


def test_smce_le_emd():
    """smce <= emd.  A 1-Lipschitz weight is 2-Lipschitz, so the max that
    gives smce is over a subset of the weights that give emd."""
    check("smce_le_emd")


def test_tv_le_ece():
    """tv <= ece.  At the level v, the joint and its Bernoulli surrogate
    put m_v ybar_v and m_v v on (v, 1), and m_v (1 - ybar_v) and
    m_v (1 - v) on (v, 0).  The total variation is half the sum of the
    differences, sum_v m_v |ybar_v - v| = ece: the two agree up to
    rounding, and tv is computed from the label masses, not the means."""
    check("tv_le_ece")


def test_ece_le_tv():
    """ece <= tv: tv = ece, as for tv_le_ece."""
    check("ece_le_tv")


def test_lowdeg_le_ece():
    """lowdeg:<d> <= ece.  lowdeg is the max over 0 <= j <= d of
    |sum_v v^j c_v| (``lipschitz.low_degree_ce``), and |v^j| <= 1 on
    [0, 1], so each is at most sum_v |c_v| = ece."""
    check("lowdeg_le_ece")


def test_kernel_le_ece():
    """kernel <= ece.  kernel CE is the RKHS norm of sum_v c_v K(v, .), by
    the reproducing property.  The triangle inequality bounds it by
    sum_v |c_v| ||K(v, .)|| = sum_v |c_v| sqrt(K(v, v)), and both kernels
    have K(v, v) = exp(0) = 1, so it is at most ece."""
    check("kernel_le_ece")


def test_every_relation_has_its_proof():
    for name in RELATIONS:
        assert globals()[f"test_{name}"].__doc__


@pytest.fixture
def instance_json(tmp_path):
    path = tmp_path / "inst.json"
    write_instance_json(FiniteInstance.make(
        [("a", 0.3, 0.2, 0.1), ("b", 0.2, 0.45, 0.7), ("c", 0.5, 0.8, 0.6)]),
        path)
    return str(path)


def spec_of(name):
    return SPECS.get(name, (name,))[0]


@pytest.mark.parametrize("name", RELATIONS)
def test_report_names_a_broken_relation(name, instance_json, capsys,
                                        monkeypatch):
    """Every entry's right side is at most 4 (4 sqrt(dce), dce <= 1) and
    its left side at least 5 when the left measure reads 10, so a left
    value of 10 breaks each entry; report must check it and name it."""
    left, right, _ = RELATIONS[name]
    monkeypatch.setitem(MEASURES, left,
                        MEASURES[left]._replace(compute=lambda j, i, a: 10.0))
    argv = ["report", instance_json, "--verify-relations", "--measures",
            f"{spec_of(left)},{spec_of(right)}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "error: relation violated: "
    assert captured.err.startswith(prefix)
    assert name in captured.err[len(prefix):].rstrip("\n").split(", ")


def test_report_checks_every_relation_of_its_specs(instance_json, capsys):
    specs = "ece,ece2,cdl,smce,emd,tv,lowdeg:3,kernel,intce:500,dce,dce_upper"
    argv = ["report", instance_json, "--verify-relations", "--measures", specs]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["relation_checks"] == {
        name: True for name in RELATIONS}


def test_oracle_checks_the_relations_of_its_values(instance_json, capsys):
    assert main(["oracle", instance_json]) == 0
    assert json.loads(capsys.readouterr().out)["sandwich_checks"] == {
        "smce_half_le_dce": True, "dce_le_dce_upper": True,
        "dce_upper_le_4_sqrt_dce": True, "dce_upper_le_intce": True,
        "dce_upper_le_ece": True, "smce_le_ece": True}


def test_an_id_of_several_specs_holds_only_at_every_pair():
    values = {"lowdeg:2": 0.1, "lowdeg:3": 0.2, "ece": 0.3}
    assert relation_checks(values) == {"lowdeg_le_ece": True}
    values["lowdeg:3"] = 0.4
    assert relation_checks(values) == {"lowdeg_le_ece": False}


def test_report_checks_each_spec_of_an_id(tmp_path, capsys, monkeypatch):
    """lowdeg:3 alone breaks lowdeg_le_ece; lowdeg:2 holds."""
    entry = MEASURES["lowdeg"]
    monkeypatch.setitem(MEASURES, "lowdeg", entry._replace(
        compute=lambda j, i, a: 10.0 if a == 3 else entry.compute(j, i, a)))
    csv = tmp_path / "d.csv"
    csv.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n")
    argv = ["report", str(csv), "--verify-relations", "--measures"]
    assert main(argv + ["lowdeg:2,ece"]) == 0
    capsys.readouterr()
    assert main(argv + ["lowdeg:2,lowdeg:3,ece"]) == 1
    assert capsys.readouterr().err == (
        "error: relation violated: lowdeg_le_ece\n")


def test_intce_500_two_tol_below_dce_upper_breaks_the_entry():
    """dce_upper_le_intce reads no grid: it holds with intce:500 within TOL
    below dce_upper and breaks at 2 TOL below."""
    _, _, slack = RELATIONS["dce_upper_le_intce"]
    assert slack(0.5, 0.25) == 0.25 + TOL - 0.5
    values = {"dce_upper": 0.5, "intce:500": 0.5 - 0.5 * TOL}
    assert relation_checks(values) == {"dce_upper_le_intce": True}
    values["intce:500"] = 0.5 - 2 * TOL
    assert relation_checks(values) == {"dce_upper_le_intce": False}


def test_a_relation_holds_within_the_tolerance():
    assert TOL == 1e-9
    values = {"smce": 0.3 + 0.5 * TOL, "ece": 0.3}
    assert relation_checks(values) == {"smce_le_ece": True}
    values["smce"] = 0.3 + 2 * TOL
    assert relation_checks(values) == {"smce_le_ece": False}


def test_a_spec_argument_is_read_once_for_the_relations(tmp_path, capsys,
                                                        monkeypatch):
    """report resolves each spec once, so a task file is read once, with
    --verify-relations too."""
    task = tmp_path / "task.json"
    task.write_text('{"actions": ["l", "h"], "payoff": [[1, 0], [0, 1]]}')
    reads = []
    entry = MEASURES["cfdl"]

    def parse(raw):
        reads.append(raw)
        return entry.parse(raw)

    monkeypatch.setitem(MEASURES, "cfdl", entry._replace(parse=parse))
    csv = tmp_path / "d.csv"
    csv.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n")
    argv = ["report", str(csv), "--verify-relations", "--measures",
            f"cfdl:{task},ece"]
    assert main(argv) == 0
    assert reads == [str(task)]
