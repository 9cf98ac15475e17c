from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from calmeasures import EmpiricalJoint, FiniteInstance


def pytest_collection_modifyitems(items):
    """A UserWarning fails the test of tests/ that raises it, unless the
    test expects it (``pytest.warns``) or filters it by its own mark, which
    is applied after this one."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"),
                            append=False)


def random_joint(rng, max_values=10):
    """Random finitely supported joint with at most max_values distinct
    prediction values and both labels present per value."""
    k = int(rng.integers(1, max_values + 1))
    vs = rng.uniform(0.0, 1.0, size=k)
    atoms = []
    for v in vs:
        mu = rng.uniform(0.0, 1.0)
        m = rng.uniform(0.1, 1.0)
        atoms.extend([(float(v), 1, m * mu), (float(v), 0, m * (1.0 - mu))])
    return EmpiricalJoint.make(atoms)


def random_calibrated_joint(rng, max_values=10):
    """Random joint that is perfectly calibrated: each level set's mean
    label equals its prediction value exactly (rationals v = a/b)."""
    k = int(rng.integers(1, max_values + 1))
    atoms = []
    for _ in range(k):
        b = int(rng.integers(1, 9))
        a = int(rng.integers(0, b + 1))
        v = a / b
        m = float(rng.uniform(0.1, 1.0))
        atoms.append((v, 1, m * v))
        atoms.append((v, 0, m * (1.0 - v)))
    atoms = [(v, y, m) for v, y, m in atoms if m > 0.0]
    return EmpiricalJoint.make(atoms)


def random_instance(rng, max_points=9):
    n = int(rng.integers(1, max_points + 1))
    return FiniteInstance.make(
        (
            f"x{i}",
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        for i in range(n)
    )


def random_task(rng, max_actions=5):
    from calmeasures import DecisionTask

    n = int(rng.integers(1, max_actions + 1))
    u = rng.uniform(0.0, 1.0, size=(n, 2))
    return DecisionTask(
        tuple(f"a{i}" for i in range(n)),
        tuple((float(r[0]), float(r[1])) for r in u),
    )


# hypothesis strategies


@st.composite
def joints(draw, max_values=8):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_joint(np.random.default_rng(seed), max_values)


@st.composite
def instances(draw, max_points=7):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_instance(np.random.default_rng(seed), max_points)
