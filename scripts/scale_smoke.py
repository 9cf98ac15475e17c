"""Run `report --verify-relations` on a large CSV and a large JSONL file.

Usage: python scripts/scale_smoke.py

Writes a CSV and a JSONL file of ROWS Beta(2, 3) scores rounded to 2
decimals, with Bernoulli labels, to a temporary directory, and runs the
default report with --verify-relations on each through calmeasures.cli.
Prints the wall time of each run and exits 1 if either run fails.  The
times are printed, not gated.
"""

import json
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from calmeasures.cli import main as calmeasure

ROWS = 10**6
SEED = 0


def write_inputs(work: Path) -> list[Path]:
    rng = np.random.default_rng(SEED)
    p = np.round(rng.beta(2.0, 3.0, ROWS), 2)
    y = (rng.random(ROWS) < p).astype(np.int64)
    csv_path, jsonl_path = work / "scores.csv", work / "scores.jsonl"
    pairs = list(zip(p.tolist(), y.tolist()))
    csv_path.write_text(
        "prediction,label\n" + "".join(f"{a!r},{b}\n" for a, b in pairs)
    )
    jsonl_path.write_text(
        "".join(f'{{"p": {a!r}, "y": {b}}}\n' for a, b in pairs)
    )
    return [csv_path, jsonl_path]


def run(path: Path) -> bool:
    out = path.with_suffix(".out.json")
    start = time.perf_counter()
    try:
        code = calmeasure(["report", str(path), "--verify-relations",
                           "-o", str(out)])
    except Exception:  # report every failure, then exit 1
        print(f"{path.name}: failed")
        traceback.print_exc()
        return False
    seconds = time.perf_counter() - start
    ok = code == 0 and all(json.loads(out.read_text())["relation_checks"]
                           .values())
    print(f"{path.name}: exit {code}, {seconds:.2f} s")
    return ok


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        ok = all([run(path) for path in paths])
    if not ok:
        print("FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
