"""Run `report` on large CSV and JSONL files, and one long `online` episode.

Usage: python scripts/scale_smoke.py

Writes, to a temporary directory, a CSV and a JSONL file of ROWS Beta(2, 3)
scores rounded to 2 decimals, and a CSV of ROWS distinct full-precision
Beta(2, 3) scores, all with Bernoulli labels, and runs them through
calmeasures.cli.  The 2-decimal files get the default report with
--verify-relations.  The distinct-score file gets DISTINCT_MEASURES, the
measures that are near-linear in the number of distinct predictions, with
--verify-relations too, and must report finite values and tv equal to ece.
A CSV of CHAIN_ROWS distinct Beta(2, 3) scores gets CHAIN_MEASURES, the
chain-DP measures smce and emd and the grid DP intce, and must report
finite values with emd/2 <= smce <= emd within 1e-9.
Every run with --verify-relations must pass every check.  Then ONLINE_ARGS
plays ROUNDS rounds with prefix curves, each of which must have ROUNDS
points and end at its sequence measure within 1e-9 * ROUNDS.  LARGE_K_ARGS
plays an episode whose predictions are nearly all distinct (k close to T)
with prefix curves, and again with --no-curves: each curve's last point
must equal the --no-curves sequence measure bit for bit.  Prints the wall
time of each run and exits 1 if any run fails.  The times are printed, not
gated.
"""

import json
import math
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from calmeasures.cli import main as calmeasure

ROWS = 10**6
SEED = 0
DISTINCT_MEASURES = "ece,ece2,tv,binned:10,lowdeg:3,cdl"
CHAIN_ROWS = 10**5
CHAIN_MEASURES = "smce,emd,intce"
ROUNDS = 20000
ONLINE_ARGS = ["--forecaster", "grid_random:20", "--adversary",
               "bernoulli:0.3", "--measures", "ece,cdl"]
LARGE_K_ARGS = ["online", "--forecaster", "running_mean", "--adversary",
                "bernoulli:0.7", "-T", "6000", "--measures", "ece,ece2,tv,cdl"]


def write_rows(path: Path, p: np.ndarray, y: np.ndarray) -> None:
    pairs = list(zip(p.tolist(), y.tolist()))
    if path.suffix == ".csv":
        text = "prediction,label\n" + "".join(f"{a!r},{b}\n" for a, b in pairs)
    else:
        text = "".join(f'{{"p": {a!r}, "y": {b}}}\n' for a, b in pairs)
    path.write_text(text)


def write_inputs(work: Path) -> list[tuple[Path, list[str]]]:
    """The input files, each with the report options it is run with."""
    rng = np.random.default_rng(SEED)
    runs = []
    p = np.round(rng.beta(2.0, 3.0, ROWS), 2)
    y = (rng.random(ROWS) < p).astype(np.int64)
    for name in ("scores.csv", "scores.jsonl"):
        write_rows(work / name, p, y)
        runs.append((work / name, ["--verify-relations"]))
    p = rng.beta(2.0, 3.0, ROWS)
    y = (rng.random(ROWS) < p).astype(np.int64)
    write_rows(work / "distinct.csv", p, y)
    runs.append((work / "distinct.csv",
                 ["--measures", DISTINCT_MEASURES, "--verify-relations"]))
    p = rng.beta(2.0, 3.0, CHAIN_ROWS)
    y = (rng.random(CHAIN_ROWS) < p).astype(np.int64)
    write_rows(work / "chain.csv", p, y)
    runs.append((work / "chain.csv", ["--measures", CHAIN_MEASURES]))
    return runs


def passed(report: dict) -> bool:
    if "prefix_curves" in report:
        ends, T = report["sequence_measures"], len(report["rounds"])
        return all(len(curve) == T and abs(curve[-1] - ends[m]) <= 1e-9 * T
                   for m, curve in report["prefix_curves"].items())
    if not all(report.get("relation_checks", {}).values()):
        return False
    values = report["measures"]
    if not all(map(math.isfinite, values.values())):
        return False
    if "tv" in values and abs(values["tv"] - values["ece"]) > 1e-9:
        return False
    emd = values.get("emd")
    return emd is None or emd / 2.0 - 1e-9 <= values["smce"] <= emd + 1e-9


def run(name: str, argv: list[str], out: Path) -> bool:
    start = time.perf_counter()
    try:
        code = calmeasure([*argv, "-o", str(out)])
    except Exception:  # report every failure, then exit 1
        print(f"{name}: failed")
        traceback.print_exc()
        return False
    seconds = time.perf_counter() - start
    ok = code == 0 and passed(json.loads(out.read_text()))
    print(f"{name}: exit {code}, {seconds:.2f} s")
    return ok


def curves_end_at_no_curves(work: Path) -> bool:
    """LARGE_K_ARGS with curves and with --no-curves; each curve's last
    point must be the sequence measure, bit for bit."""
    with_curves, without = work / "large-k.out.json", work / "seq.out.json"
    ok = run("online large k", LARGE_K_ARGS, with_curves)
    ok &= run("online large k --no-curves", [*LARGE_K_ARGS, "--no-curves"],
              without)
    if not ok:
        return False
    curves = json.loads(with_curves.read_text())["prefix_curves"]
    ends = json.loads(without.read_text())["sequence_measures"]
    return list(curves) == list(ends) and all(
        curves[m][-1] == ends[m] for m in ends)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = write_inputs(Path(tmp))
        ok = all([
            run(path.name, ["report", str(path), *options],
                path.with_suffix(".out.json"))
            for path, options in runs
        ])
        ok &= run(f"online -T {ROUNDS}",
                  ["online", "-T", str(ROUNDS), *ONLINE_ARGS],
                  Path(tmp) / "online.out.json")
        ok &= curves_end_at_no_curves(Path(tmp))
    if not ok:
        print("FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
