"""The timed process of the calmeasures benchmark.

bench/run.py starts it in a work directory that holds the generated inputs
and ``ops.json`` (one argv list per op):

    python3 workload.py --probe
    python3 workload.py --seconds S --min-ops N [--trace]

It times ``import calmeasures.cli`` (``--probe`` stops there), then calls
``cli.main(argv)`` op after op, cycling through ``ops.json``: a closed loop
with one client.  Only the ``cli.main`` call is timed.  It writes
``results.jsonl`` (one record per op, with the output file's text),
``summary.json`` and, with ``--trace``, ``spans.jsonl``.

With ``--trace`` every op runs twice, untraced and then traced, so the
two phases compare like with like under the same machine state.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = Path("out.json")
# Hard stop, so that even a much slower program ends within the time limit.
MAX_LOOP_S = 110.0


def run_op(main, argv: list[str], output: Path = OUTPUT) -> dict:
    """Time one ``main(argv)`` call; any exception escaping it is recorded."""
    output.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc, error = main(argv), None
    except (Exception, SystemExit) as exc:
        rc, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        text = output.read_text()
    except FileNotFoundError:
        text = None
    return {"rc": rc, "error": error, "latency_s": latency, "output": text}


def run_loop(cli, ops, sink, keep_going, tracer=None):
    """Run ops in order while ``keep_going(ops_done, elapsed_s)``; return
    the op count and the loop's wall time.  With a tracer, each op runs
    untraced and then traced, so that both see the same machine state."""
    start = time.perf_counter()
    done = 0
    while keep_going(done, time.perf_counter() - start):
        argv = ops[done % len(ops)]
        records = [dict(run_op(cli.main, argv), phase="plain")]
        if tracer is not None:
            tracer.op = done
            tracer.install()
            try:
                records.append(dict(run_op(cli.main, argv), phase="traced"))
            finally:
                tracer.uninstall()
        for rec in records:
            sink.write(json.dumps(dict(rec, op=done % len(ops))) + "\n")
        done += 1
    return done, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import calmeasures.cli as cli
    setup_s = time.perf_counter() - t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = json.loads(Path("ops.json").read_text())
    tracer = Tracer() if args.trace else None

    def keep_going(done, elapsed):
        return elapsed < MAX_LOOP_S and (
            done < args.min_ops or elapsed < args.seconds)

    with open("results.jsonl", "w") as sink:
        _, wall = run_loop(cli, ops, sink, keep_going, tracer)
    summary = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        with open("spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path("summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
