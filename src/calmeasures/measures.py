"""The measure-id registry: one :data:`MEASURES` entry per id, holding an
argument parser (None when the id takes no argument, wrapped in
:func:`required` when the argument must be given), a compute function
``(joint, instance, arg)``, an instance-only flag and, for the ids whose
measure has one, a row form ``(vals, m0, m1, arg)`` that returns the
measure of each row's joint (see ``basic.ece_q_rows``).  A measure's one
parameter lives in its spec's argument: the grid of ``intce:<g>``, the
kernel of ``kernel:<name>``.  The parsers range-check their argument by
the check the measure's function runs, so a spec is refused when it is
resolved, before any measure is computed.

:data:`RELATIONS` holds the proven inequalities between the measures'
values, each between two ids; :func:`relation_checks` checks those whose
ids a report has, and ``tests/test_relations.py`` gives each its proof.

Entries call the measure functions through this module's global names at
call time, so a wrapper installed on a module attribute (as the
benchmark's span tracer does) also sees the calls made from here.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .basic import binned_ece, check_buckets, check_q, ece, ece_q
from .basic import ece_q_rows, tv_characterization, tv_rows
from .decision import DecisionTask, cdl, cdl_rows, cfdl
from .distance import DEFAULT_GRID, check_grid, dce_oracle, dce_upper_oracle
from .distance import intce_opt
from .empirical import EmpiricalJoint, FiniteInstance
from .lipschitz import check_degree, check_kernel, emd_joints, kernel_ce
from .lipschitz import low_degree_ce, smce


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
    "ece": Measure(None, lambda j, i, a: ece(j),
                   rows=lambda v, m0, m1, a: ece_q_rows(v, m0, m1, 1.0)),
    "ece2": Measure(None, lambda j, i, a: ece_q(j, 2.0),
                    rows=lambda v, m0, m1, a: ece_q_rows(v, m0, m1, 2.0)),
    "ece_q": Measure(required(lambda raw: check_q(float(raw))),
                     lambda j, i, a: ece_q(j, a),
                     rows=lambda v, m0, m1, a: ece_q_rows(v, m0, m1, a)),
    "tv": Measure(None, lambda j, i, a: tv_characterization(j),
                  rows=lambda v, m0, m1, a: tv_rows(v, m0, m1)),
    "binned": Measure(required(lambda raw: check_buckets(int(raw))),
                      lambda j, i, a: binned_ece(j, a)),
    "smce": Measure(None, lambda j, i, a: smce(j)),
    "lowdeg": Measure(required(lambda raw: check_degree(int(raw))),
                      lambda j, i, a: low_degree_ce(j, a)),
    "kernel": Measure(lambda raw: check_kernel(raw or "laplace"),
                      lambda j, i, a: kernel_ce(j, a)),
    "emd": Measure(None, lambda j, i, a: emd_joints(j)),
    "cdl": Measure(None, lambda j, i, a: cdl(j),
                   rows=lambda v, m0, m1, a: cdl_rows(v, m0, m1)),
    "cfdl": Measure(required(DecisionTask.from_json),
                    lambda j, i, a: cfdl(j, a)),
    "intce": Measure(lambda raw: check_grid(int(raw or DEFAULT_GRID)),
                     lambda j, i, a: intce_opt(j, a)),
    "dce_upper": Measure(None, lambda j, i, a: dce_upper_oracle(j)),
    "dce": Measure(None, lambda j, i, a: dce_oracle(i), True),
}


def resolve(spec: str) -> Callable[..., float]:
    """Parse ``<id>[:<arg>]`` once into ``f(joint, instance=None)``; for an
    id with a row form, ``f.rows(vals, m0, m1)`` is that form.

    An unknown id, an argument on an id that takes none, or an instance-only
    id called without an instance raises MeasureError; a missing required,
    malformed or out-of-range argument raises the parser's ValueError or
    OSError, from the check the measure's own function runs."""
    found = lookup(spec, MEASURES)
    if found is None:
        raise MeasureError(f"unknown measure {spec!r}")
    entry, arg = found

    def measure(joint: EmpiricalJoint, instance: FiniteInstance | None = None):
        if entry.instance_only and instance is None:
            raise MeasureError(f"measure {spec!r} needs a FiniteInstance JSON")
        return entry.compute(joint, instance, arg)

    if entry.rows is not None:
        measure.rows = lambda vals, m0, m1: entry.rows(vals, m0, m1, arg)
    return measure


# The tolerance of the relations, and of the values that report prints.
TOL = 1e-9

# The proven inequalities between measures: name -> (left id, right id,
# slack).  ``left`` <= ``right`` holds when ``slack(x, y)`` is >= 0, the
# right side minus the left at the left id's value x and the right id's
# value y.  For finite floats, y + TOL - x is >= 0 exactly when
# x <= y + TOL.  Each relation's proof is in the docstring of its test in
# tests/test_relations.py.
RELATIONS: dict[str, tuple[str, str, Callable[[float, float], float]]] = {
    "ece_sq_le_ece2_sq": ("ece", "ece2", lambda x, y: y**2 + TOL - x**2),
    "ece2_sq_le_cdl": ("ece2", "cdl", lambda x, y: y + TOL - x**2),
    "cdl_le_2ece": ("cdl", "ece", lambda x, y: 2.0 * y + TOL - x),
    "2ece_le_2ece2": ("ece", "ece2", lambda x, y: 2.0 * y + TOL - 2.0 * x),
    "smce_half_le_dce": ("smce", "dce", lambda x, y: y + TOL - x / 2.0),
    "dce_le_dce_upper": ("dce", "dce_upper", lambda x, y: y + TOL - x),
    "dce_upper_le_4_sqrt_dce": ("dce_upper", "dce",
                                lambda x, y: 4.0 * y**0.5 + TOL - x),
    "dce_upper_le_intce": ("dce_upper", "intce", lambda x, y: y + TOL - x),
    "dce_upper_le_ece": ("dce_upper", "ece", lambda x, y: y + TOL - x),
    "smce_le_ece": ("smce", "ece", lambda x, y: y + TOL - x),
    "emd_half_le_smce": ("emd", "smce", lambda x, y: y + TOL - x / 2.0),
    "smce_le_emd": ("smce", "emd", lambda x, y: y + TOL - x),
    "tv_le_ece": ("tv", "ece", lambda x, y: y + TOL - x),
    "ece_le_tv": ("ece", "tv", lambda x, y: y + TOL - x),
    "lowdeg_le_ece": ("lowdeg", "ece", lambda x, y: y + TOL - x),
    "kernel_le_ece": ("kernel", "ece", lambda x, y: y + TOL - x),
}


def relation_checks(values: Mapping) -> dict[str, bool]:
    """Whether each relation whose two ids are among the specs of
    ``values`` holds, in table order: at every pair of a left and a right
    spec, when an id is given by several (``lowdeg:2,lowdeg:3``)."""
    ids = {spec: spec.partition(":")[0] for spec in values}
    return {name: all(slack(values[s], values[t]) >= 0.0
                      for s in values if ids[s] == left
                      for t in values if ids[t] == right)
            for name, (left, right, slack) in RELATIONS.items()
            if left in ids.values() and right in ids.values()}
