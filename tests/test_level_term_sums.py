"""Every measure adds its level terms by ``empirical.left_sum``: a left fold
in level order, the same on every CPU.

A BLAS matrix or dot product (``@``, ``np.dot``) adds in an order that
depends on the kernel OpenBLAS picks for the CPU, so the same report could
print different last digits on different machines.  The fold tests below
compare each measure, bit for bit, with ``functools.reduce`` over its
terms; the subprocess test runs ``report`` under two OpenBLAS core types.
"""

import math
import operator
import os
import platform
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from calmeasures import (
    from_samples,
    gaussian_kernel,
    kernel_ce,
    laplace_kernel,
    low_degree_ce,
)
from calmeasures.empirical import left_sum
from oracles import WeightFunction, weighted_ce

SRC = Path(__file__).resolve().parents[1] / "src"


def fold(terms):
    """The terms added from the left, starting at +0.0."""
    return reduce(operator.add, terms, 0.0)


def seeded_joints(seed, sizes=(1, 2, 7, 40, 300)):
    """Joints of k distinct Beta(2, 3) scores, near-duplicates included."""
    rng = np.random.default_rng(seed)
    for k in sizes:
        p = rng.beta(2.0, 3.0, k)
        p[: k // 4] = np.nextafter(p[k - k // 4:], 1.0)
        yield from_samples(np.column_stack((p, rng.random(k) < p)))


def test_left_sum_of_one_column_folds_each_row():
    rng = np.random.default_rng(4)
    a = rng.uniform(-1.0, 1.0, (5, 60)) * 10.0 ** rng.integers(-8, 9, 60)
    assert left_sum(a[0]).hex() == fold(a[0].tolist()).hex()
    for rows in (a, np.asfortranarray(a), a[:, ::3]):
        got = left_sum(rows)
        assert got.shape == (5,)
        assert [x.hex() for x in got.tolist()] == [
            fold(row).hex() for row in rows.tolist()]


@pytest.mark.parametrize("d", [0, 1, 3, 6])
def test_low_degree_ce_is_a_left_fold(d):
    for joint in seeded_joints(d):
        want = max(abs(fold((joint.vals**k * joint.residual).tolist()))
                   for k in range(d + 1))
        assert low_degree_ce(joint, d).hex() == want.hex()


@pytest.mark.parametrize("kernel", ["laplace", "gaussian"])
def test_kernel_ce_is_a_left_fold(kernel):
    kfun = {"laplace": laplace_kernel, "gaussian": gaussian_kernel}[kernel]
    for joint in seeded_joints(5):
        vs, rs = joint.vals, joint.residual.tolist()
        gram = kfun(vs[:, None], vs[None, :]).tolist()
        inner = [fold(map(operator.mul, row, rs)) for row in gram]
        want = math.sqrt(max(fold(map(operator.mul, rs, inner)), 0.0))
        assert kernel_ce(joint, kernel).hex() == want.hex()


def test_weighted_ce_is_a_left_fold():
    ws = (WeightFunction(lambda v: math.sin(7.0 * v)),
          WeightFunction(lambda v: 1 if v < 0.4 else -1),
          WeightFunction(lambda v: 2.0 * v - 1.0, lipschitz=2.0))
    for joint in seeded_joints(6):
        for w in ws:
            terms = [w(v) * r for v, r in zip(joint.vals.tolist(),
                                              joint.residual.tolist())]
            assert weighted_ce(joint, w).hex() == abs(fold(terms)).hex()


def uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or not uses_openblas(),
    reason="OPENBLAS_CORETYPE selects kernels of an x86-64 OpenBLAS only")
def test_report_prints_the_same_bytes_under_two_blas_core_types(tmp_path):
    """Prescott and Nehalem are SSE-only kernels, so both run on any
    x86-64 CPU.  On this input, BLAS products in place of the folds print
    different lowdeg:3 and kernel:gaussian values under the two."""
    rng = np.random.default_rng(0)
    p = rng.beta(2.0, 3.0, 200)
    y = (rng.random(200) < p).astype(int)
    data = tmp_path / "scores.csv"
    data.write_text("prediction,label\n" + "".join(
        f"{a!r},{b}\n" for a, b in zip(p.tolist(), y.tolist())))
    outs = []
    for core in ("Prescott", "Nehalem"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "calmeasures.cli", "report", str(data),
             "--measures", "lowdeg:3,kernel:laplace,kernel:gaussian"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
