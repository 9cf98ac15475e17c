"""Benchmark of the calmeasures command line, driven in process.

    python3 bench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One run generates the workload's inputs from the seed, times
``import calmeasures.cli`` in fresh processes, then starts one workload
process that calls ``calmeasures.cli.main(argv)`` op after op for the given
seconds (a closed loop with one client), and checks every op's output.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--workload all`` runs every workload untraced and prints
a table instead.  bench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import gen
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Import time varies ~10% between processes and drifts with the machine's
# speed, so half the probes run before the op loop and half after it.
SETUP_PROBES = 8
MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}
INPUT_SIZES = ("rows", "distinct_k", "points", "rounds", "partitions")


def spawn(work: Path, *args: str, timeout: float) -> str:
    """Run workload.py in ``work`` with BLAS/OpenMP pinned to one thread."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=work, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=True,
    )
    return proc.stdout


def probe_setup(work: Path, count: int) -> list[float]:
    """``import calmeasures.cli`` wall time in ``count`` fresh processes."""
    return [json.loads(spawn(work, "--probe", timeout=60))["setup_s"]
            for _ in range(count)]


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def layer_metrics(ops, plain, traced, span_list) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether the module self times
    account for the traced op wall time."""
    metrics = spanlib.summarize(span_list)
    op_s = sum(r["latency_s"] for r in traced)
    metrics["trace.op_s"] = op_s
    metrics["trace.overhead"] = (
        statistics.median(r["latency_s"] for r in traced)
        / statistics.median(r["latency_s"] for r in plain)
    )
    for size in INPUT_SIZES:
        metrics[f"input.{size}"] = sum(
            ops[r["op"]].sizes.get(size, 0) for r in traced
        )
    self_total = sum(metrics[f"{mod}.self_s"] for mod in spanlib.MODULES)
    return metrics, abs(self_total - op_s) <= 0.01 * op_s


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        ops = gen.generate(workload, seed, work)
        (work / "ops.json").write_text(json.dumps([op.argv for op in ops]))
        spawn(work, "--probe", timeout=60)  # writes bytecode caches; untimed
        # A traced run reports no setup_s, so it skips the probes.
        probes = 0 if trace else SETUP_PROBES
        setups = probe_setup(work, probes // 2)
        spawn(work, "--seconds", str(seconds), "--min-ops", str(MIN_OPS),
              *(["--trace"] if trace else []), timeout=TIMEOUT_S - 30)
        setups += probe_setup(work, probes - probes // 2)
        summary = json.loads((work / "summary.json").read_text())
        with open(work / "results.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        span_list = []
        if trace:
            with open(work / "spans.jsonl") as fh:
                span_list = [json.loads(line) for line in fh]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [check.check_op(ops[r["op"]], r) for r in records]
    for reason in [f for f in failures if f][:5]:
        print(f"{workload}: failed op: {reason}", file=sys.stderr)
    failed = sum(f is not None for f in failures)
    plain = [r for r in records if r["phase"] == "plain"]
    correct = failed == 0
    if trace:
        traced = [r for r in records if r["phase"] == "traced"]
        metrics, accounted = layer_metrics(ops, plain, traced, span_list)
        correct = correct and accounted
    else:
        latencies = [r["latency_s"] for r in plain]
        metrics = {
            "setup_s": statistics.median(setups + [summary["setup_s"]]),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "ops_per_s": (len(plain) - failed) / summary["wall_s"],
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }


def print_table(seed: int, seconds: float) -> bool:
    """Run every workload untraced and print its metrics; True if no op
    failed."""
    print(f"{'workload':<14} {'metric':<12} {'value':>12}  unit")
    ok = True
    for workload in gen.WORKLOADS:
        result = run_workload(workload, seed, seconds, trace=False)
        rows = {k: (m["value"], m["unit"])
                for k, m in result["metrics"].items()}
        rows["error_rate"] = (result["failed"] / result["attempted"], "ratio")
        rows["ops"] = (result["attempted"], "count")
        for name, (value, u) in rows.items():
            print(f"{workload:<14} {name:<12} {value:>12.6g}  {u}")
        ok = ok and result["correct"]
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "calmeasures" / "cli.py").is_file():
        print(f"error: no calmeasures sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if print_table(args.seed, args.seconds) else 1
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
