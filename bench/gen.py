"""Seeded input generation for the calmeasures benchmark.

``generate(workload, seed, work)`` writes every input file of a workload
into ``work`` and returns the op list.  Each op carries the argv passed to
``calmeasures.cli.main`` (paths relative to ``work``), the reference values
the checker compares against, and the input sizes that give the base for
per-layer ratios.  Equal seeds give byte-identical files and op lists.

Input sizes sit on fixed grids over the stated ranges and are visited in an
order whose every prefix covers the range evenly.  The seed draws the
values, labels and episode seeds, so it changes the data but not the mix
of sizes, which keeps runs of different seeds comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUTPUT = "out.json"

INGEST_MEASURES = "ece,ece2,smce,cdl,tv,binned:15,lowdeg:3"
EXACT_MEASURES = "ece,smce,emd,intce,cdl,kernel:gaussian"
ONLINE_MEASURES = "ece,cdl"
MATCHUPS = (
    ("running_mean", "threshold"),
    ("constant:0.3", "bernoulli:0.3"),
    ("grid_random:20", "bernoulli:0.3"),
    ("running_mean", "bernoulli:0.7"),
)

@dataclass
class Op:
    kind: str  # "report", "oracle" or "online"
    argv: list[str]
    ref: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def bell(n: int) -> int:
    """Number of set partitions of n items (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def level_set_errors(p, y, w=None) -> dict:
    """Reference ece and ece2 from raw arrays, grouped by distinct value."""
    w = np.ones(len(p)) if w is None else np.asarray(w, dtype=float)
    vals, inv = np.unique(np.asarray(p, dtype=float), return_inverse=True)
    mass = np.bincount(inv, weights=w)
    ymass = np.bincount(inv, weights=w * np.asarray(y, dtype=float))
    share = mass / mass.sum()
    gap = np.abs(ymass / mass - vals)
    return {
        "ece": float(np.sum(share * gap)),
        "ece2": float(np.sum(share * gap**2) ** 0.5),
    }


def _spread(n: int) -> list[int]:
    """0..n-1, n a power of two, in bit-reversed order, so that every prefix
    of the order is spread evenly over the range."""
    bits = n.bit_length() - 1
    return [int(f"{j:0{bits}b}"[::-1], 2) for j in range(n)]


def _write_rows(path: Path, p, y, w, fmt: str) -> None:
    p, y = p.tolist(), y.tolist()
    if fmt == "csv":
        if w is None:
            head = "prediction,label\n"
            body = "".join(f"{a!r},{b}\n" for a, b in zip(p, y))
        else:
            head = "prediction,label,weight\n"
            body = "".join(
                f"{a!r},{b},{c!r}\n" for a, b, c in zip(p, y, w.tolist())
            )
        path.write_text(head + body)
    elif w is None:
        path.write_text("".join(f'{{"p": {a!r}, "y": {b}}}\n'
                                for a, b in zip(p, y)))
    else:
        path.write_text("".join(f'{{"p": {a!r}, "y": {b}, "w": {c!r}}}\n'
                                for a, b, c in zip(p, y, w.tolist())))


def _ingest(rng, work: Path) -> list[Op]:
    # Files alternate CSV/JSONL and every fourth is weighted.  Row counts
    # sit on a 32-point log-uniform grid over [1e4, 1e5]; each of the four
    # classes covers the whole grid, visited in spread order.
    classes = (("csv", False), ("jsonl", False), ("csv", False),
               ("jsonl", True))
    order = _spread(8)
    ops = []
    for j in range(32):
        c = j % 4
        fmt, weighted = classes[c]
        n = int(round(10.0 ** (4.0 + (4 * order[j // 4] + c + 0.5) / 32)))
        p = np.round(rng.beta(2.0, 3.0, n), 2)
        y = (rng.random(n) < np.clip(1.1 * p, 0.0, 1.0)).astype(np.int64)
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        name = f"in{j:02d}.{fmt}"
        _write_rows(work / name, p, y, w, fmt)
        ops.append(Op(
            "report",
            ["report", name, "--measures", INGEST_MEASURES,
             "--verify-relations", "-o", OUTPUT],
            ref=level_set_errors(p, y, w),
            sizes={"rows": n, "distinct_k": int(np.unique(p).size)},
        ))
    return ops


def _exact(rng, work: Path) -> list[Op]:
    # Reports and oracles alternate.  k cycles through 14..22 and the point
    # count through 6..8, since cost grows exponentially in both.  Cost
    # also depends on the gaps between scores, so scores are one jittered
    # point per 1/k stratum, and the pool is large.
    ops = []
    for j in range(180):
        k, n = 14 + j % 9, 6 + j % 3
        vals = (np.arange(k) + rng.random(k)) / k
        counts = 1 + rng.poisson(4.0, k)
        p = np.repeat(vals, counts)
        q = np.clip(vals + rng.normal(0.0, 0.15, k), 0.0, 1.0)
        y = (rng.random(p.size) < np.repeat(q, counts)).astype(np.int64)
        name = f"rep{j:03d}.csv"
        _write_rows(work / name, p, y, None, "csv")
        ops.append(Op(
            "report",
            ["report", name, "--measures", EXACT_MEASURES, "-o", OUTPUT],
            ref={"ece": level_set_errors(p, y)["ece"]},
            sizes={"rows": int(p.size), "distinct_k": k},
        ))

        preds = rng.permutation((np.arange(n) + rng.random(n)) / n)
        points = [
            {"id": f"x{i}", "mass": m, "pred": a, "cond_mean": c}
            for i, (m, a, c) in enumerate(zip(
                rng.uniform(0.1, 1.0, n).tolist(), preds.tolist(),
                np.clip(preds + rng.normal(0.0, 0.2, n), 0.0, 1.0).tolist(),
            ))
        ]
        name = f"inst{j:03d}.json"
        (work / name).write_text(json.dumps(points) + "\n")
        # The n predictions are distinct, so dce_oracle and
        # dce_upper_oracle each enumerate Bell(n) partitions.
        ops.append(Op(
            "oracle",
            ["oracle", name, "-o", OUTPUT],
            sizes={"points": n, "distinct_k": n, "partitions": 2 * bell(n)},
        ))
    return ops


def _online(rng, work: Path) -> list[Op]:
    # Matchups cycle.  T sits on a 64-point grid over [100, 300]; each
    # matchup covers the whole grid, visited in spread order.
    order = _spread(16)
    ops = []
    for j in range(64):
        c = j % 4
        forecaster, adversary = MATCHUPS[c]
        T = 100 + int(round(200 * (4 * order[j // 4] + c + 0.5) / 64))
        seed = int(rng.integers(2**31))
        ops.append(Op(
            "online",
            ["online", "--forecaster", forecaster, "--adversary", adversary,
             "-T", str(T), "--seed", str(seed), "--measures", ONLINE_MEASURES,
             "-o", OUTPUT],
            ref={"T": T},
            sizes={"rounds": T},
        ))
    return ops


GENERATORS = {"ingest": _ingest, "exact": _exact, "online-curves": _online}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the inputs of ``workload`` into ``work``; return its op list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng, Path(work))

