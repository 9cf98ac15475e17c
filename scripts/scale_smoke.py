"""Run `report` on large CSV and JSONL files, and one long `online` episode.

Usage: python scripts/scale_smoke.py

Writes, to a temporary directory, a CSV and two JSONL files of ROWS
Beta(2, 3) scores rounded to 2 decimals, and a CSV of ROWS distinct
full-precision Beta(2, 3) scores, all with Bernoulli labels, and runs them
through calmeasures.cli.  One JSONL file is in the layout ``json.dumps``
writes, {"p": 0.42, "y": 1}, which the reader decodes as one flat array of
numbers per block; the other is compact, {"p":0.42,"y":1}, which takes the
reader's object path.  The 2-decimal files get the default report with
--verify-relations, and must report the same values, bit for bit; the read
time of each JSONL file is printed.  The distinct-score file gets
DISTINCT_MEASURES, the measures that are near-linear in the number of
distinct predictions, with --verify-relations too.  A CSV of CHAIN_ROWS
distinct Beta(2, 3) scores gets CHAIN_MEASURES, the chain-DP measures smce
and emd and the grid DP intce, with --verify-relations; the same file with
intce:<g> at each g of HUGE_GRIDS, whose DP is over its step cap, must
exit 4.
A CSV of CHAIN_ROWS uniform scores, every label 1, gets intce alone: its
worst case, where about half the width caps and a window of half the grid
remain.
Every report must give finite values, and every run with
--verify-relations must pass each relation of calmeasures.measures.RELATIONS
between its measures (tv = ece, emd/2 <= smce <= emd and the others).
Then ONLINE_ARGS
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
from calmeasures.empirical import read_jsonl

ROWS = 10**6
SEED = 0
DISTINCT_MEASURES = "ece,ece2,tv,binned:10,lowdeg:3,cdl,intce"
CHAIN_ROWS = 10**5
CHAIN_MEASURES = "smce,emd,intce"
HUGE_GRIDS = (20000, 10**6)
ROUNDS = 20000
ONLINE_ARGS = ["--forecaster", "grid_random:20", "--adversary",
               "bernoulli:0.3", "--measures", "ece,cdl"]
LARGE_K_ARGS = ["online", "--forecaster", "running_mean", "--adversary",
                "bernoulli:0.7", "-T", "6000", "--measures", "ece,ece2,tv,cdl"]


# The 2-decimal files, which must give the same report.
SAME_VALUES = ("scores.csv", "scores.jsonl", "scores-compact.jsonl")


def write_rows(path: Path, p: np.ndarray, y: np.ndarray) -> None:
    pairs = list(zip(p.tolist(), y.tolist()))
    if path.suffix == ".csv":
        text = "prediction,label\n" + "".join(f"{a!r},{b}\n" for a, b in pairs)
    elif path.stem.endswith("-compact"):
        text = "".join(f'{{"p":{a!r},"y":{b}}}\n' for a, b in pairs)
    else:
        text = "".join(f'{{"p": {a!r}, "y": {b}}}\n' for a, b in pairs)
    path.write_text(text)


def write_inputs(work: Path) -> list[tuple[Path, list[str]]]:
    """The input files, each with the report options it is run with."""
    rng = np.random.default_rng(SEED)
    runs = []
    p = np.round(rng.beta(2.0, 3.0, ROWS), 2)
    y = (rng.random(ROWS) < p).astype(np.int64)
    for name in SAME_VALUES:
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
    runs.append((work / "chain.csv",
                 ["--measures", CHAIN_MEASURES, "--verify-relations"]))
    p = rng.random(CHAIN_ROWS)
    write_rows(work / "ones.csv", p, np.ones(CHAIN_ROWS, dtype=np.int64))
    runs.append((work / "ones.csv", ["--measures", "intce"]))
    return runs


def passed(report: dict) -> bool:
    if "prefix_curves" in report:
        ends, T = report["sequence_measures"], len(report["rounds"])
        return all(len(curve) == T and abs(curve[-1] - ends[m]) <= 1e-9 * T
                   for m, curve in report["prefix_curves"].items())
    return all(report.get("relation_checks", {}).values()) and all(
        map(math.isfinite, report["measures"].values()))


def run(name: str, argv: list[str], out: Path,
        over_cap: bool = False) -> bool:
    """Run one command; it passes on exit 0 with an output that passes
    the checks, or, if ``over_cap``, only on exit 4."""
    start = time.perf_counter()
    try:
        code = calmeasure([*argv, "-o", str(out)])
    except Exception:  # report every failure, then exit 1
        print(f"{name}: failed")
        traceback.print_exc()
        return False
    seconds = time.perf_counter() - start
    print(f"{name}: exit {code}, {seconds:.2f} s")
    if over_cap:
        return code == 4
    return code == 0 and passed(json.loads(out.read_text()))


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


def output(path: Path) -> Path:
    """Where the report on the input ``path`` is written."""
    return path.with_name(path.name + ".out.json")


def same_values(work: Path) -> bool:
    """Whether the SAME_VALUES files reported the same values, bit for bit,
    after printing the read time of each JSONL file."""
    for name in SAME_VALUES[1:]:
        start = time.perf_counter()
        read_jsonl(work / name)
        print(f"read_jsonl {name}: {time.perf_counter() - start:.2f} s")
    reports = [json.loads(output(work / name).read_text())
               for name in SAME_VALUES]
    values = [{m: v.hex() for m, v in r["measures"].items()} for r in reports]
    return all(v == values[0] for v in values)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = write_inputs(Path(tmp))
        ok = all([
            run(path.name, ["report", str(path), *options], output(path))
            for path, options in runs
        ])
        ok = ok and same_values(Path(tmp))
        chain = Path(tmp) / "chain.csv"
        for grid in HUGE_GRIDS:
            ok &= run(f"chain.csv intce:{grid}",
                      ["report", str(chain), "--measures", f"intce:{grid}"],
                      Path(tmp) / "huge-grid.out.json", over_cap=True)
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
