"""The measure-id registry: one :data:`MEASURES` entry per id, holding an
argument parser (None when the id takes no argument, wrapped in
:func:`required` when the argument must be given), a compute function
``(joint, instance, arg, settings)``, an instance-only flag and, for the
ids whose measure has one, a row form ``(vals, m0, m1, arg, settings)``
that returns the measure of each row's joint (see ``basic.ece_q_rows``).

Entries call the measure functions through this module's global names at
call time, so a wrapper installed on a module attribute (as the
benchmark's span tracer does) also sees the calls made from here.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple

from .basic import binned_ece, ece, ece_q, ece_q_rows, tv_characterization
from .basic import tv_rows
from .decision import DecisionTask, cdl, cdl_rows, cfdl
from .distance import DEFAULT_ORACLE_CAP, dce_oracle, dce_upper_oracle
from .distance import intce_opt
from .empirical import EmpiricalJoint, FiniteInstance
from .lipschitz import emd_joints, kernel_ce, low_degree_ce, smce


class MeasureError(ValueError):
    """Unknown measure id, an argument on an id that takes none, or an
    instance-only measure applied without an instance."""


def required(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` for an argument that must be given: an empty one is refused
    as missing, not by the message ``parse`` gives for ""."""
    def parse_given(raw: str):
        if not raw:
            raise ValueError("needs an argument")
        return parse(raw)

    return parse_given


def lookup(spec: str, table: Mapping) -> tuple | None:
    """``(entry, arg)`` for the entry of ``table`` that ``spec``,
    ``<name>[:<arg>]``, names, with ``arg`` the text after the colon ("" if
    none) parsed by the entry's ``parse``, or None when ``parse`` is None;
    None when the name is not in ``table``, or takes no argument but has
    one.  ``parse`` raises on a malformed argument."""
    name, _, raw = spec.partition(":")
    entry = table.get(name)
    if entry is None or (entry.parse is None and raw):
        return None
    return entry, entry.parse(raw) if entry.parse else None


class Measure(NamedTuple):
    parse: Callable[[str], object] | None
    compute: Callable[..., float]
    instance_only: bool = False
    rows: Callable[..., object] | None = None


MEASURES: dict[str, Measure] = {
    "ece": Measure(None, lambda j, i, a, s: ece(j),
                   rows=lambda v, m0, m1, a, s: ece_q_rows(v, m0, m1, 1.0)),
    "ece2": Measure(None, lambda j, i, a, s: ece_q(j, 2.0),
                    rows=lambda v, m0, m1, a, s: ece_q_rows(v, m0, m1, 2.0)),
    "ece_q": Measure(required(float), lambda j, i, a, s: ece_q(j, a),
                     rows=lambda v, m0, m1, a, s: ece_q_rows(v, m0, m1, a)),
    "tv": Measure(None, lambda j, i, a, s: tv_characterization(j),
                  rows=lambda v, m0, m1, a, s: tv_rows(v, m0, m1)),
    "binned": Measure(required(int), lambda j, i, a, s: binned_ece(j, a)),
    "smce": Measure(None, lambda j, i, a, s: smce(j)),
    "lowdeg": Measure(required(int), lambda j, i, a, s: low_degree_ce(j, a)),
    "kernel": Measure(str, lambda j, i, a, s: kernel_ce(j, a or s.kernel)),
    "emd": Measure(None, lambda j, i, a, s: emd_joints(j)),
    "cdl": Measure(None, lambda j, i, a, s: cdl(j),
                   rows=lambda v, m0, m1, a, s: cdl_rows(v, m0, m1)),
    "cfdl": Measure(required(DecisionTask.from_json),
                    lambda j, i, a, s: cfdl(j, a)),
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
    """Parse ``<id>[:<arg>]`` once into ``f(joint, instance=None)``; for an
    id with a row form, ``f.rows(vals, m0, m1)`` is that form.

    An unknown id, an argument on an id that takes none, or an instance-only
    id called without an instance raises MeasureError; a missing required
    or malformed argument raises the parser's ValueError or OSError."""
    found = lookup(spec, MEASURES)
    if found is None:
        raise MeasureError(f"unknown measure {spec!r}")
    entry, arg = found
    settings = SimpleNamespace(grid=grid, cap=oracle_cap, kernel=kernel)

    def measure(joint: EmpiricalJoint, instance: FiniteInstance | None = None):
        if entry.instance_only and instance is None:
            raise MeasureError(f"measure {spec!r} needs a FiniteInstance JSON")
        return entry.compute(joint, instance, arg, settings)

    if entry.rows is not None:
        measure.rows = lambda vals, m0, m1: entry.rows(
            vals, m0, m1, arg, settings)
    return measure
