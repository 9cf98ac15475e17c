"""Command-line front end.

Subcommands: report (measure values for a dataset), oracle (distance
oracles for a finite instance), online (sequential episodes), fixture
(worked-example emission), plotdata (reliability diagrams and prefix
curves).  A measure's parameter is the argument of its spec, such as
``intce:<g>`` or ``kernel:<name>``, in every command that takes
--measures.  All outputs are deterministic, online's given its --seed, the
only seed any command takes; floats are printed with 17 significant digits
so regression diffs are exact.

report --verify-relations and oracle check the relations of
``measures.RELATIONS`` between the values they compute; oracle computes
intce at its default grid.

Exit codes, by :data:`EXIT_CODES`: 0 ok, 1 a relation violated (report
--verify-relations, naming each), 2 malformed input, argument or output path,
3 unknown or inapplicable measure, 4 a solve over its size cap, 5 out of
memory, 6 internal error (any other exception).  A command resolves all its
measure ids, range-checking their arguments, before it reads its input or
computes any measure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from . import __version__
from .basic import ece
from .distance import (
    DEFAULT_GRID,
    OracleSizeError,
    dce_oracle,
    dce_upper_oracle,
    intce_opt,
)
from .empirical import (
    EmpiricalJoint,
    FiniteInstance,
    project,
    read_csv,
    read_instance_json,
    read_jsonl,
    write_instance_json,
)
from .fixtures import FIXTURES, Fixture, verify
from .lipschitz import smce
from .measures import MEASURES, TOL, MeasureError, lookup, relation_checks
from .measures import resolve
from .online import ADVERSARIES, FORECASTERS, Transcript, prefix_curves, run


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# Each failure type with its exit code, the first match wins: OracleSizeError
# and MeasureError are ValueErrors.  Exit 1 is left to a violated relation.
EXIT_CODES: dict[type[Exception], int] = {
    OracleSizeError: 4, MeasureError: 3, MemoryError: 5,
    OSError: 2, ValueError: 2, KeyError: 2, TypeError: 2, OverflowError: 2,
    RecursionError: 2, Exception: 6,
}


@contextmanager
def failures(label: str):
    """Re-raise any failure but a CliError as a CliError with its code in
    EXIT_CODES, prefixed by ``label``, what failed; the innermost label wins.
    An internal error shows its repr: its type, and its message on one line."""
    try:
        yield
    except CliError:
        raise
    except Exception as exc:
        code = next(c for t, c in EXIT_CODES.items() if isinstance(exc, t))
        if isinstance(exc, MemoryError):
            label += " ran out of memory"
        what = str(exc) or type(exc).__name__
        if code == 6:
            what = f"internal error {exc!r}"
        raise CliError(f"{label}: {what}", code)


# ---------------------------------------------------------------------------
# deterministic JSON emission (17 significant digits for floats)


def _render(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{_render(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        # flat float lists (prefix curves) and [float, int] pairs (online
        # rounds) are rendered by one % format per list
        if all(type(v) is float for v in obj):
            return ("[" + ",".join(["%.17g"] * len(obj)) + "]") % tuple(obj)
        if all(type(v) in (list, tuple) and len(v) == 2
               and type(v[0]) is float and type(v[1]) is int for v in obj):
            return ("[" + ",".join(["[%.17g,%d]"] * len(obj)) + "]") % tuple(
                chain.from_iterable(obj))
        return "[" + ",".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def emit(obj, out: str | None) -> None:
    write(_render(obj) + "\n", out)


def write(text: str, out: str | None) -> None:
    """``text`` to the file ``out``, or to stdout if ``out`` is not given."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# ingestion


def parse_label(y) -> int:
    """A JSON label as 0 or 1: 0, 1, 0.0 and 1.0 pass, anything else is
    malformed rather than truncated."""
    if float(y) not in (0.0, 1.0):
        raise ValueError(f"label {y!r} is not 0 or 1")
    return int(y)


def load_joint(
    path: str, formats: tuple[str, ...] = (".csv", ".jsonl", ".json")
) -> tuple[EmpiricalJoint, FiniteInstance | None]:
    """The joint of the file ``path``, and its instance if it is a
    FiniteInstance JSON; exit 2 unless its suffix is one of ``formats``."""
    suffix = Path(path).suffix.lower()
    if suffix not in formats:
        raise CliError(f"unsupported input format {suffix!r} "
                       f"(use {', '.join(formats)})", 2)
    with failures(f"input {path}"):
        if suffix == ".csv":
            return read_csv(path), None
        if suffix == ".jsonl":
            return read_jsonl(path), None
        inst = read_instance_json(path)
        return project(inst), inst


def input_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands


def split_specs(measures: str) -> list[str]:
    return [m.strip() for m in measures.split(",") if m.strip()]


def resolve_guarded(specs: list[str]) -> dict:
    """Each spec resolved, in order and all before any is computed, to a
    measure whose failures name that spec wherever it is called; so is its
    row form ``rows``, if it has one."""
    guarded = {}
    for spec in specs:
        label = f"measure {spec!r}"
        with failures(label):
            f = resolve(spec)
        guarded[spec] = _guard(label, f)
        if hasattr(f, "rows"):
            guarded[spec].rows = _guard(label, f.rows)
    return guarded


def _guard(label: str, f):
    """``f`` with its failures re-raised by ``failures(label)``."""
    def call(*args):
        with failures(label):
            return f(*args)

    return call


def cmd_report(args) -> None:
    guarded = resolve_guarded(split_specs(args.measures))
    joint, instance = load_joint(args.input)
    measures = {spec: f(joint, instance) for spec, f in guarded.items()}
    meta = {
        "version": __version__,
        "input": args.input,
        "input_digest": input_digest(args.input),
        "tolerance": TOL,
    }
    obj = {"schema": 1, "measures": measures, "meta": meta}
    if args.verify_relations:
        # reuse the values already reported; compute only the missing ones
        guarded.update(resolve_guarded(
            [m for m in ("ece", "ece2", "cdl") if m not in measures]))
        values = {spec: measures[spec] if spec in measures else f(joint)
                  for spec, f in guarded.items()}
        obj["relation_checks"] = checks = relation_checks(values)
        violated = [name for name, ok in checks.items() if not ok]
        if violated:
            raise CliError("relation violated: " + ", ".join(violated), 1)
    emit(obj, args.output)


def cmd_oracle(args) -> None:
    joint, instance = load_joint(args.input, (".json",))
    values = dict(dce=dce_oracle(instance), dce_upper=dce_upper_oracle(joint),
                  intce=intce_opt(joint, DEFAULT_GRID), smce=smce(joint))
    obj = {
        "schema": 1,
        **values,
        "sandwich_checks": relation_checks({**values, "ece": ece(joint)}),
        "meta": {
            "version": __version__,
            "input_digest": input_digest(args.input),
            "tolerance": TOL,
        },
    }
    emit(obj, args.output)


def strategy(kind: str, table: dict, spec: str):
    """The ``kind`` of strategy that ``spec``, ``<name>[:<arg>]``, names in
    ``table``; its failures name ``kind`` and ``spec``."""
    with failures(f"{kind} {spec!r}"):
        found = lookup(spec, table)
        if found is None:
            raise CliError(f"unknown {kind} {spec!r}", 2)
        entry, arg = found
        return entry.make(arg)


def cmd_online(args) -> None:
    forecaster = strategy("forecaster", FORECASTERS, args.forecaster)
    adversary = strategy("adversary", ADVERSARIES, args.adversary)
    guarded = resolve_guarded(split_specs(args.measures))
    transcript = run(forecaster, adversary, args.rounds, args.seed)
    if args.curves:
        # the last point of a curve is the sequence measure, bit for bit
        curves = prefix_curves(transcript, guarded)
        measures = {m: curve[-1] for m, curve in curves.items()}
    else:
        # as online.sequence_measure computes it, bit for bit
        joint, curves = transcript.joint(), {}
        measures = {m: len(transcript) * f(joint) for m, f in guarded.items()}
    obj = {
        "schema": 1,
        "rounds": [[p, y] for p, y in transcript.rounds],
        "sequence_measures": measures,
        "prefix_curves": curves,
        "meta": {
            "version": __version__,
            "forecaster": args.forecaster,
            "adversary": args.adversary,
            "T": args.rounds,
            "seed": args.seed,
        },
    }
    emit(obj, args.output)


def build_fixture(name: str, eps: float, n: int | None) -> list[Fixture]:
    """The fixtures that ``name`` makes, with ``n`` points if ``n`` is given:
    a fixture that takes no size refuses one."""
    make = FIXTURES[name]
    made = make(eps) if n is None else make(eps, n=n)
    return list(made) if isinstance(made, tuple) else [made]


def cmd_fixture(args) -> None:
    fixtures = build_fixture(args.name, args.eps, args.n)
    if args.emit:
        base = Path(args.emit)
        if len(fixtures) == 1:
            write_instance_json(fixtures[0].instance, base)
        else:
            for fix in fixtures:
                write_instance_json(
                    fix.instance,
                    base.with_name(f"{base.stem}_{fix.name}{base.suffix}"),
                )
    obj = {"schema": 1, "fixtures": []}
    for fix in fixtures:
        checks = verify(fix)
        obj["fixtures"].append(
            {
                "name": fix.name,
                "expected": {
                    k: {"value": v, "tolerance": t, "provenance": p}
                    for k, (v, t, p) in fix.expected.items()
                },
                "bounds": {
                    k: {"lower": lo, "upper": hi, "provenance": p}
                    for k, (lo, hi, p) in fix.bounds.items()
                },
                "computed": {k: v for k, (v, _) in checks.items()},
                "ok": all(ok for _, ok in checks.values()),
            }
        )
    emit(obj, args.output)


def cmd_plotdata(args) -> None:
    measures = split_specs(args.measures)
    guarded = resolve_guarded(measures)
    lines: list[str] = []
    if args.kind == "reliability":
        joint, _ = load_joint(args.input)
        lines.append("prediction,conditional_mean,mass")
        for v, mean, mass in zip(
            joint.vals.tolist(), joint.mean.tolist(), joint.mass.tolist()
        ):
            lines.append(f"{v:.17g},{mean:.17g},{mass:.17g}")
    elif args.kind == "transcript":
        with failures(f"input {args.input}"):
            data = json.loads(Path(args.input).read_text("utf-8-sig"))
            transcript = Transcript(
                tuple((float(p), parse_label(y)) for p, y in data["rounds"])
            )
        curves = prefix_curves(transcript, guarded)
        lines.append("t,p,y," + ",".join(f"prefix_{m}" for m in measures))
        for t, (p, y) in enumerate(transcript.rounds, start=1):
            vals = ",".join(f"{curves[m][t - 1]:.17g}" for m in measures)
            row = f"{t},{p:.17g},{y}"
            lines.append(row + ("," + vals if vals else ""))
    write("\n".join(lines) + "\n", args.output)


# ---------------------------------------------------------------------------


MEASURES_HELP = "comma list of <id>[:<arg>], ids: " + ", ".join(MEASURES)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it depends only on static tables."""
    parser = argparse.ArgumentParser(
        prog="calmeasure",
        description="calibration error measures for binary predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="measure values for a dataset")
    p.add_argument("input", help="CSV, JSONL, or FiniteInstance JSON")
    p.add_argument("--measures", default="ece,ece2,smce,cdl",
                   help=MEASURES_HELP)
    p.add_argument("--verify-relations", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("oracle", help="distance oracles for a finite instance")
    p.add_argument("input", help="FiniteInstance JSON")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("online", help="run a sequential prediction episode")
    p.add_argument("--forecaster", required=True)
    p.add_argument("--adversary", required=True)
    p.add_argument("-T", "--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measures", default="ece", help=MEASURES_HELP)
    p.add_argument(
        "--no-curves", dest="curves", action="store_false",
        help="skip per-round prefix curves",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("fixture", help="emit a worked-example instance")
    p.add_argument("--name", required=True, choices=sorted(FIXTURES))
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--emit", default=None, help="write instance JSON here; "
                   "a fixture of several instances writes each to "
                   "<stem>_<fixture name><suffix> instead")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("plotdata", help="CSV for diagrams and regret curves")
    p.add_argument("--kind", choices=("reliability", "transcript"),
                   default="reliability")
    p.add_argument("input")
    p.add_argument("--measures", default="ece", help=MEASURES_HELP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with failures(args.command):
            args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
