"""The package needs numpy alone: no module under ``src/calmeasures``
imports scipy, and every subcommand exits 0 in a fresh interpreter where a
``sys.meta_path`` finder makes every import of scipy fail."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calmeasures
from calmeasures.measures import MEASURES

PACKAGE = Path(calmeasures.__file__).resolve().parent
SRC = str(PACKAGE.parent)

# the argument each registry id that needs one is given
ARGS = {"ece_q": "3", "binned": "5", "lowdeg": "2", "kernel": "gaussian"}

BLOCKED = """
import importlib.abc, json, sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
from calmeasures import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"blocked": blocked, "codes": codes}))
"""


def scipy_imports(tree: ast.AST) -> list[int]:
    """The line of each import of scipy in ``tree``, at any depth."""
    lines = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    found = {
        path.name: scipy_imports(ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert "cli.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.fixture
def inputs(tmp_path):
    rows = [(0.3, 1), (0.3, 0), (0.7, 1), (0.2, 0), (0.9, 1)]
    csv = tmp_path / "d.csv"
    csv.write_text("prediction,label\n"
                   + "".join(f"{p},{y}\n" for p, y in rows))
    jsonl = tmp_path / "d.jsonl"
    jsonl.write_text("".join(json.dumps({"p": p, "y": y}) + "\n"
                             for p, y in rows))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps([
        {"id": "a", "mass": 0.5, "pred": 0.4, "cond_mean": 0.0},
        {"id": "b", "mass": 0.25, "pred": 0.6, "cond_mean": 1.0},
        {"id": "c", "mass": 0.25, "pred": 0.8, "cond_mean": 0.5},
    ]))
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"actions": ["l", "h"],
                                "payoff": [[1, 0], [0, 1]]}))
    transcript = tmp_path / "t.json"
    transcript.write_text(json.dumps({"rounds": rows}))
    return {name: str(path) for name, path in (
        ("csv", csv), ("jsonl", jsonl), ("inst", inst), ("task", task),
        ("transcript", transcript), ("out", tmp_path / "out"))}


def test_import_and_every_subcommand_leave_scipy_unloaded(inputs):
    args = dict(ARGS, cfdl=inputs["task"])
    specs = [f"{name}:{args[name]}" if name in args else name
             for name in MEASURES]
    joint_ids = ",".join(spec for spec, entry in zip(specs, MEASURES.values())
                         if not entry.instance_only)
    out = ["-o", inputs["out"]]
    online = ["online", "--forecaster", "running_mean", "--adversary",
              "bernoulli:0.3", "-T", "50", "--seed", "1", "--measures",
              "ece,smce,emd,cdl"]
    runs = [
        ["report", inputs["csv"], "--measures", joint_ids,
         "--verify-relations", *out],
        ["report", inputs["jsonl"], "--measures", joint_ids, *out],
        ["report", inputs["inst"], "--measures", ",".join(specs), *out],
        ["oracle", inputs["inst"], *out],
        [*online, *out],
        [*online, "--no-curves", *out],
        ["plotdata", "--kind", "reliability", inputs["csv"], *out],
        ["plotdata", "--kind", "transcript", inputs["transcript"],
         "--measures", "ece,smce,cdl", *out],
        ["fixture", "--name", "two_point", "--eps", "0.1", *out],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED, json.dumps(runs)], env=env,
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["blocked"]
    assert result["codes"] == [0] * len(runs), done.stderr
