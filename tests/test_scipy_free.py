"""No measure id or subcommand loads scipy; only the two LP cross-check
oracles do, on their first call.  Each run check uses a fresh interpreter,
so that no other test has imported scipy before it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calmeasures

SRC = str(Path(calmeasures.__file__).resolve().parent.parent)

# every registry id but cfdl, whose argument is a decision-task JSON;
# dce needs the instance, so these run on an instance JSON
ALL_IDS = ("ece,ece2,ece_q:3,tv,binned:5,smce,lowdeg:2,kernel,emd,cdl,"
           "intce,dce_upper,dce")

COMMANDS = """
import json, sys
import calmeasures
from calmeasures import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""

ORACLES = """
import json, sys
from calmeasures import (emd_joints, emd_lp_oracle, from_samples, smce,
                         smce_lp_oracle)
j = from_samples([(0.3, 1), (0.3, 0), (0.7, 1), (0.2, 0), (0.9, 1)],
                 [1.0, 2.0, 1.5, 0.5, 1.0])
before = "scipy" in sys.modules
print(json.dumps({"before": before,
                  "smce": [smce(j), smce_lp_oracle(j)],
                  "emd": [emd_joints(j), emd_lp_oracle(j)],
                  "after": "scipy.optimize" in sys.modules}))
"""


def fresh_python(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def inputs(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n0.9,1\n")
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps([
        {"id": "a", "mass": 0.5, "pred": 0.4, "cond_mean": 0.0},
        {"id": "b", "mass": 0.25, "pred": 0.6, "cond_mean": 1.0},
        {"id": "c", "mass": 0.25, "pred": 0.8, "cond_mean": 0.5},
    ]))
    return str(csv), str(inst), str(tmp_path / "out")


def test_import_and_every_subcommand_leave_scipy_unloaded(inputs):
    csv, inst, out = inputs
    runs = [
        ["report", csv, "--verify-relations", "-o", out],
        ["report", csv, "--measures", "ece,smce,emd,intce,cdl,kernel:gaussian",
         "-o", out],
        ["report", inst, "--measures", ALL_IDS, "-o", out],
        ["oracle", inst, "-o", out],
        ["online", "--forecaster", "running_mean", "--adversary",
         "bernoulli:0.3", "-T", "50", "--seed", "1", "--measures", "ece,cdl",
         "-o", out],
        ["plotdata", "--kind", "reliability", csv, "-o", out],
        ["fixture", "--name", "two_point", "--eps", "0.1", "-o", out],
    ]
    result = fresh_python(COMMANDS, json.dumps(runs))
    assert result["codes"] == [0] * len(runs)
    assert result["scipy"] == []


def test_lp_oracles_load_scipy_themselves_and_still_match():
    result = fresh_python(ORACLES)
    assert not result["before"] and result["after"]
    s, s_lp = result["smce"]
    assert s == pytest.approx(s_lp, abs=1e-6)
    d, d_lp = result["emd"]
    assert d == pytest.approx(d_lp, abs=1e-12)


def scipy_imports(tree: ast.AST):
    """(line, inside a function body) of each import of scipy in ``tree``."""
    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                yield child.lineno, in_function
            yield from walk(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    return list(walk(tree, False))


def test_only_the_oracles_module_imports_scipy_and_only_in_functions():
    found = {
        path.name: scipy_imports(ast.parse(path.read_text(), str(path)))
        for path in sorted(Path(calmeasures.__file__).parent.glob("*.py"))
    }
    assert {name for name, imports in found.items() if imports} == {
        "oracles.py"}
    assert all(in_function for _, in_function in found["oracles.py"])
