"""The measure-id registry: one :data:`MEASURES` entry per id, holding an
argument parser (None when the id takes no argument), a compute function
``(joint, instance, arg, settings)`` and an instance-only flag.

Entries call the measure functions through this module's global names at
call time, so a wrapper installed on a module attribute (as the
benchmark's span tracer does) also sees the calls made from here.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple

from .basic import binned_ece, ece, ece_q, tv_characterization
from .decision import DecisionTask, cdl, cfdl
from .distance import DEFAULT_ORACLE_CAP, dce_oracle, dce_upper_oracle
from .distance import intce_opt
from .empirical import EmpiricalJoint, FiniteInstance
from .lipschitz import emd_joints, kernel_ce, low_degree_ce, smce


class MeasureError(ValueError):
    """Unknown measure id, an argument on an id that takes none, or an
    instance-only measure applied without an instance."""


class Measure(NamedTuple):
    parse: Callable[[str], object] | None
    compute: Callable[..., float]
    instance_only: bool = False


MEASURES: dict[str, Measure] = {
    "ece": Measure(None, lambda j, i, a, s: ece(j)),
    "ece2": Measure(None, lambda j, i, a, s: ece_q(j, 2.0)),
    "ece_q": Measure(float, lambda j, i, a, s: ece_q(j, a)),
    "tv": Measure(None, lambda j, i, a, s: tv_characterization(j)),
    "binned": Measure(int, lambda j, i, a, s: binned_ece(j, a)),
    "smce": Measure(None, lambda j, i, a, s: smce(j)),
    "lowdeg": Measure(int, lambda j, i, a, s: low_degree_ce(j, a)),
    "kernel": Measure(str, lambda j, i, a, s: kernel_ce(j, a or s.kernel)),
    "emd": Measure(None, lambda j, i, a, s: emd_joints(j)),
    "cdl": Measure(None, lambda j, i, a, s: cdl(j)),
    "cfdl": Measure(DecisionTask.from_json, lambda j, i, a, s: cfdl(j, a)),
    "intce": Measure(None, lambda j, i, a, s: intce_opt(j, s.grid)),
    "dce_upper": Measure(None, lambda j, i, a, s: dce_upper_oracle(j, s.cap)),
    "dce": Measure(None, lambda j, i, a, s: dce_oracle(i, s.cap), True),
}


def resolve(
    spec: str,
    grid: int = 1000,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    kernel: str = "laplace",
) -> Callable[..., float]:
    """Parse ``<id>[:<arg>]`` once into ``f(joint, instance=None)``.

    An unknown id, an argument on an id that takes none, or an instance-only
    id called without an instance raises MeasureError; a malformed argument
    raises the parser's ValueError or OSError."""
    name, _, raw = spec.partition(":")
    entry = MEASURES.get(name)
    if entry is None or (entry.parse is None and raw):
        raise MeasureError(f"unknown measure {spec!r}")
    arg = entry.parse(raw) if entry.parse else None
    settings = SimpleNamespace(grid=grid, cap=oracle_cap, kernel=kernel)

    def measure(joint: EmpiricalJoint, instance: FiniteInstance | None = None):
        if entry.instance_only and instance is None:
            raise MeasureError(f"measure {name!r} needs a FiniteInstance JSON")
        return entry.compute(joint, instance, arg, settings)

    return measure
