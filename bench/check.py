"""Per-op output checks of the calmeasures benchmark.

``check_op(op, record)`` returns None when the op succeeded and a one-line
reason when it failed.  An op fails when ``cli.main`` raised, returned a
nonzero exit code, wrote no parseable output, or wrote values that break a
check below.
"""

from __future__ import annotations

import json

from gen import level_set_errors

TOL = 1e-9


def _report(op, out) -> str | None:
    m = out["measures"]
    for name, want in op.ref.items():
        if abs(m[name] - want) > TOL:
            return f"{name} {m[name]!r} differs from reference {want!r}"
    if "--verify-relations" in op.argv and not all(
        out["relation_checks"].values()
    ):
        return f"relation_checks {out['relation_checks']}"
    if m["smce"] > m["ece"] + TOL:
        return f"smce {m['smce']!r} > ece {m['ece']!r}"
    if "emd" in m and not m["emd"] / 2 - TOL <= m["smce"] <= m["emd"] + TOL:
        return f"smce {m['smce']!r} outside [emd/2, emd], emd {m['emd']!r}"
    return None


def _oracle(op, out) -> str | None:
    if not all(out["sandwich_checks"].values()):
        return f"sandwich_checks {out['sandwich_checks']}"
    return None


def _online(op, out) -> str | None:
    T = op.ref["T"]
    rounds = out["rounds"]
    if len(rounds) != T:
        return f"{len(rounds)} rounds, expected {T}"
    seq = out["sequence_measures"]
    for name, curve in out["prefix_curves"].items():
        if len(curve) != T or abs(curve[-1] - seq[name]) > TOL * T:
            return f"prefix curve of {name} does not end at {seq[name]!r}"
    ps, ys = zip(*rounds)
    want = T * level_set_errors(ps, ys)["ece"]
    if abs(seq["ece"] - want) > TOL * T:
        return f"sequence ece {seq['ece']!r} differs from reference {want!r}"
    return None


CHECKS = {"report": _report, "oracle": _oracle, "online": _online}


def check_op(op, record: dict) -> str | None:
    if record["error"] is not None:
        return f"raised {record['error']}"
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    try:
        out = json.loads(record["output"])
    except (TypeError, ValueError):
        return "no parseable output"
    try:
        return CHECKS[op.kind](op, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
