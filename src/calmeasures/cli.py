"""Command-line front end.

Subcommands: report (measure values for a dataset), oracle (distance
oracles for a finite instance), online (sequential episodes), fixture
(worked-example emission), plotdata (reliability diagrams and prefix
curves).  All outputs are deterministic given --seed; floats are printed
with 17 significant digits so regression diffs are exact.

Exit codes: 0 ok, 1 relation chain violated (report --verify-relations),
2 malformed input or argument, 3 unknown or inapplicable measure, 4 oracle
size cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .basic import ece
from .distance import (
    DEFAULT_ORACLE_CAP,
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
from .measures import MEASURES, MeasureError, resolve
from .online import (
    BernoulliAdversary,
    ConstantAdversary,
    ConstantForecaster,
    GridRandomForecaster,
    RunningMeanForecaster,
    ThresholdAdversary,
    Transcript,
    prefix_curve,
    run,
    sequence_measure,
)

EXIT_BAD_INPUT = 2
EXIT_BAD_MEASURE = 3
EXIT_ORACLE_CAP = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


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
        return "[" + ",".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def emit(obj, out: str | None) -> None:
    text = _render(obj) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# ingestion


def load_joint(path: str) -> tuple[EmpiricalJoint, FiniteInstance | None]:
    try:
        suffix = Path(path).suffix.lower()
        if suffix == ".csv":
            return read_csv(path), None
        if suffix == ".jsonl":
            return read_jsonl(path), None
        if suffix == ".json":
            inst = read_instance_json(path)
            return project(inst), inst
        raise CliError(
            f"unsupported input format {suffix!r} (use .csv, .jsonl, .json)",
            EXIT_BAD_INPUT,
        )
    except CliError:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed input {path}: {exc}", EXIT_BAD_INPUT)


def input_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# measure errors


@contextmanager
def measure_errors(spec: str):
    """Map the failure of resolving or computing a measure to its exit
    code: unknown or inapplicable id 3, oracle cap 4, malformed argument 2."""
    try:
        yield
    except OracleSizeError as exc:
        raise CliError(str(exc), EXIT_ORACLE_CAP)
    except MeasureError as exc:
        raise CliError(str(exc), EXIT_BAD_MEASURE)
    except (OSError, ValueError) as exc:
        raise CliError(f"measure {spec!r}: {exc}", EXIT_BAD_INPUT)


# ---------------------------------------------------------------------------
# subcommands


def cmd_report(args) -> None:
    joint, instance = load_joint(args.input)
    measures = {}
    for spec in [m.strip() for m in args.measures.split(",") if m.strip()]:
        with measure_errors(spec):
            f = resolve(spec, args.grid, args.oracle_cap, args.kernel)
            measures[spec] = f(joint, instance)
    meta = {
        "version": __version__,
        "input": args.input,
        "input_digest": input_digest(args.input),
        "grid": args.grid,
        "oracle_cap": args.oracle_cap,
        "kernel": args.kernel,
        "seed": args.seed,
        "tolerance": 1e-9,
    }
    obj = {"schema": 1, "measures": measures, "meta": meta}
    if args.verify_relations:
        # reuse the values already reported; compute only the missing ones
        e1, e2, c = (
            measures[m] if m in measures else resolve(m)(joint)
            for m in ("ece", "ece2", "cdl")
        )
        checks = {
            "ece_sq_le_ece2_sq": e1**2 <= e2**2 + 1e-9,
            "ece2_sq_le_cdl": e2**2 <= c + 1e-9,
            "cdl_le_2ece": c <= 2.0 * e1 + 1e-9,
            "2ece_le_2ece2": 2.0 * e1 <= 2.0 * e2 + 1e-9,
        }
        obj["relation_checks"] = checks
        if not all(checks.values()):
            raise CliError("relation chain violated", 1)
    emit(obj, args.output)


def cmd_oracle(args) -> None:
    try:
        instance = read_instance_json(args.input)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed input {args.input}: {exc}", EXIT_BAD_INPUT)
    joint = project(instance)
    with measure_errors("dce"):
        dce = dce_oracle(instance, args.cap)
        upper = dce_upper_oracle(joint, args.cap)
    s = smce(joint)
    intce = intce_opt(joint, args.grid)
    tol = 1e-9
    obj = {
        "schema": 1,
        "dce": dce,
        "dce_upper": upper,
        "intce": intce,
        "smce": s,
        "sandwich_checks": {
            "smce_half_le_dce": s / 2.0 <= dce + tol,
            "dce_le_dce_upper": dce <= upper + 1e-12,
            "dce_upper_le_4_sqrt_dce": upper <= 4.0 * dce**0.5 + tol,
            "dce_upper_le_intce": upper <= intce + 2.0 / args.grid,
            "dce_upper_le_ece": upper <= ece(joint) + 1e-12,
        },
        "meta": {
            "version": __version__,
            "input_digest": input_digest(args.input),
            "grid": args.grid,
            "oracle_cap": args.cap,
            "tolerance": tol,
        },
    }
    emit(obj, args.output)


def parse_forecaster(spec: str):
    name, _, arg = spec.partition(":")
    try:
        if name == "constant":
            return ConstantForecaster(float(arg))
        if name == "running_mean":
            if arg:
                a, b = (float(x) for x in arg.split(","))
                return RunningMeanForecaster(a, b)
            return RunningMeanForecaster()
        if name == "grid_random":
            return GridRandomForecaster(int(arg))
    except ValueError as exc:
        raise CliError(f"bad forecaster spec {spec!r}: {exc}", EXIT_BAD_INPUT)
    raise CliError(f"unknown forecaster {spec!r}", EXIT_BAD_INPUT)


def parse_adversary(spec: str):
    name, _, arg = spec.partition(":")
    try:
        if name == "bernoulli":
            return BernoulliAdversary(float(arg))
        if name == "ones":
            return ConstantAdversary(1)
        if name == "zeros":
            return ConstantAdversary(0)
        if name == "threshold":
            return ThresholdAdversary()
    except ValueError as exc:
        raise CliError(f"bad adversary spec {spec!r}: {exc}", EXIT_BAD_INPUT)
    raise CliError(f"unknown adversary {spec!r}", EXIT_BAD_INPUT)


def cmd_online(args) -> None:
    forecaster = parse_forecaster(args.forecaster)
    adversary = parse_adversary(args.adversary)
    try:
        transcript = run(forecaster, adversary, args.rounds, args.seed)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    measures = {}
    curves = {}
    for m in [s.strip() for s in args.measures.split(",") if s.strip()]:
        with measure_errors(m):
            measures[m] = sequence_measure(transcript, m)
            if args.curves:
                curves[m] = prefix_curve(transcript, m)
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


def build_fixture(name: str, eps: float, n: int) -> list[Fixture]:
    if name not in FIXTURES:
        raise CliError(f"unknown fixture {name!r}", EXIT_BAD_INPUT)
    try:
        if name == "cdl_example_2":
            made = FIXTURES[name](eps, n)
        else:
            made = FIXTURES[name](eps)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
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
    lines: list[str] = []
    if args.kind == "reliability":
        joint, _ = load_joint(args.input)
        lines.append("prediction,conditional_mean,mass")
        for v, (mass, mean) in sorted(joint.level_sets().items()):
            lines.append(
                f"{v:.17g},{mean:.17g},{mass:.17g}"
            )
    elif args.kind == "transcript":
        try:
            data = json.loads(Path(args.input).read_text())
            transcript = Transcript(
                tuple((float(p), int(y)) for p, y in data["rounds"])
            )
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError) as exc:
            raise CliError(
                f"malformed transcript {args.input}: {exc}", EXIT_BAD_INPUT
            )
        measures = [m.strip() for m in args.measures.split(",") if m.strip()]
        curves = {}
        for m in measures:
            with measure_errors(m):
                curves[m] = prefix_curve(transcript, m)
        lines.append("t,p,y," + ",".join(f"prefix_{m}" for m in measures))
        for t, (p, y) in enumerate(transcript.rounds, start=1):
            vals = ",".join(f"{curves[m][t - 1]:.17g}" for m in measures)
            row = f"{t},{p:.17g},{y}"
            lines.append(row + ("," + vals if vals else ""))
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------


def default_seed() -> int:
    return int(os.environ.get("CALIB_SEED", "0"))


MEASURES_HELP = "comma list of <id>[:<arg>], ids: " + ", ".join(MEASURES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calmeasure",
        description="calibration error measures for binary predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="measure values for a dataset")
    p.add_argument("input", help="CSV, JSONL, or FiniteInstance JSON")
    p.add_argument("--measures", default="ece,ece2,smce,cdl",
                   help=MEASURES_HELP)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--kernel", default="laplace")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verify-relations", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("oracle", help="distance oracles for a finite instance")
    p.add_argument("input", help="FiniteInstance JSON")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("online", help="run a sequential prediction episode")
    p.add_argument("--forecaster", required=True)
    p.add_argument("--adversary", required=True)
    p.add_argument("-T", "--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--emit", default=None, help="write instance JSON here")
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
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = default_seed()
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
