"""A measure that runs out of memory exits 5 with one error line.

The child process gets its own address-space limit (``RLIMIT_AS``), set
between fork and exec, so the allocation fails there and nowhere else.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calmeasures

LIMIT_BYTES = 2 * 1024**3


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"),
                    reason="needs RLIMIT_AS")
def test_kernel_gram_matrix_over_the_limit_exits_5(tmp_path):
    """kernel:laplace at k = 2e4 asks for a 3.2 GB Gram matrix."""
    k = 2 * 10**4
    rng = np.random.default_rng(0)
    p = rng.random(k)
    y = (rng.random(k) < p).astype(int)
    path = tmp_path / "distinct.csv"
    path.write_text("prediction,label\n" + "".join(
        f"{a!r},{b}\n" for a, b in zip(p.tolist(), y.tolist())))
    src = str(Path(calmeasures.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "calmeasures.cli", "report", str(path),
         "--measures", "kernel:laplace"],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: measure 'kernel:laplace'")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_verify_relations_measure_out_of_memory_exits_5(
        tmp_path, monkeypatch, capsys):
    """--verify-relations computes the cdl it needs itself; its MemoryError
    maps to exit 5 like a requested measure's."""
    from calmeasures import measures
    from calmeasures.cli import main

    def cdl(joint):
        raise MemoryError("no room for cdl")

    monkeypatch.setattr(measures, "cdl", cdl)
    path = tmp_path / "data.csv"
    path.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n")
    code = main(["report", str(path), "--measures", "ece",
                 "--verify-relations"])
    err = capsys.readouterr().err
    assert code == 5
    assert "Traceback" not in err
    assert err.startswith("error: measure 'cdl' ran out of memory")
    assert err.count("\n") == 1
