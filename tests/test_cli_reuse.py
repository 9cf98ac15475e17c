"""Several ``main`` calls in one process share one argument parser, and no
call's arguments leak into the next; and the flat-float path of the JSON
renderer writes what the per-value path writes."""

import json

import numpy as np
import pytest

from calmeasures import cli
from calmeasures.cli import build_parser, main


@pytest.fixture
def data_csv(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n")
    return str(p)


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_a_flag_does_not_stick_to_the_next_call(data_csv, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", data_csv, "--verify-relations",
                 "-o", str(first)]) == 0
    assert main(["report", data_csv, "-o", str(second)]) == 0
    assert "relation_checks" in json.loads(first.read_text())
    assert "relation_checks" not in json.loads(second.read_text())


def per_value(obj) -> str:
    """The renderer with one call per list item, as before the flat path."""
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(per_value(v) for v in obj) + "]"
    return cli._render(obj)


@pytest.mark.parametrize("obj", [
    [-0.0, 5e-324, 1e308],
    [0.1, -2.5, float("inf"), float("nan")],
    (1e-300, 0.30000000000000004),
    [],
    [1, 2, -3],
    [True, False],
    [-0.0, 1, True, 5e-324, 1e308, False],
    [0.5, np.float64(0.1)],
    [[-0.0, 5e-324], [1, True], [1e308]],
    {"curve": [0.25, -0.0], "rounds": [[0.5, 1], [5e-324, 0]]},
])
def test_flat_float_lists_render_as_per_value(obj):
    assert cli._render(obj) == per_value(obj)


@pytest.mark.parametrize("obj", [
    [[0.5, 1], [5e-324, 0], [-0.0, 1], [float("nan"), 0]],
    [(0.25, 0), (1e308, 1)],
    [[0.5, 10**20], [float("inf"), -3]],
    [[0.5, True]],
    [[1, 0.5]],
    [[0.5, 1.0]],
    [[np.float64(0.5), 1]],
    [[0.5, 1, 2], [0.5, 1]],
    [[0.5, 1], 0.25],
])
def test_float_int_pairs_render_as_per_value(obj):
    assert cli._render(obj) == per_value(obj)
