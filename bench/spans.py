"""Span tracing of calmeasures from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` wherever a
``calmeasures`` module holds a reference to it, so a call made through any
module's imported name records a span, and nested calls become child spans.
``Tracer.uninstall`` puts the original functions back.
Spans stay in memory, tagged with the current op id, until the benchmark
writes them out.  ``summarize`` turns a span list into per-function and
per-module self times, where a span's self time is its duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "calmeasures"

# module -> traced public functions.  ``fixtures`` is left out: no
# benchmark workload spends time there.
TRACED = {
    "cli": ("main", "load_joint", "emit"),
    "empirical": ("read_csv", "read_jsonl", "read_instance_json",
                  "from_samples", "EmpiricalJoint.level_sets", "recalibrate",
                  "project"),
    "basic": ("ece", "ece_q", "tv_characterization", "binned_ece"),
    "lipschitz": ("smce", "emd_joints", "kernel_ce", "low_degree_ce",
                  "residuals"),
    "decision": ("cdl",),
    "distance": ("dce_oracle", "dce_upper_oracle", "intce_opt"),
    "online": ("run", "sequence_measure", "prefix_curve"),
}
MODULES = tuple(TRACED)
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Field order of one span record.
OP, SID, PARENT, NAME, START, END, ERROR = range(7)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (namespace, attribute, original, wrapped) for every reference
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [self.op, sid, stack[-1] if stack else None, name,
                   clock(), 0.0, False]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function in the package."""
        if not self._patches:
            self._find_patches()
        for namespace, key, _, wrapped in self._patches:
            setattr(namespace, key, wrapped)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for namespace, key, orig, _ in self._patches:
            setattr(namespace, key, orig)

    def _find_patches(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod, names in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    orig = owner.__dict__[attr]
                    self._patches.append(
                        (owner, attr, orig, self.wrap(f"{mod}.{qual}", orig)))
                    continue
                orig = getattr(module, attr)
                wrapped = self.wrap(f"{mod}.{qual}", orig)
                self._patches.extend(
                    (m, key, orig, wrapped)
                    for m in modules
                    for key, value in vars(m).items()
                    if value is orig
                )


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered(s[START], s[END], children[s[SID]])
        for s in spans
    ]


def summarize(spans) -> dict[str, float]:
    """Per-function ``.self_s`` and ``.calls``, per-module ``.self_s`` and
    ``.errors``, for every traced name (zero when never called)."""
    out: dict[str, float] = {}
    for fn in FUNCTIONS:
        out[f"{fn}.self_s"] = 0.0
        out[f"{fn}.calls"] = 0
    for mod in MODULES:
        out[f"{mod}.self_s"] = 0.0
        out[f"{mod}.errors"] = 0
    for s, own in zip(spans, self_times(spans)):
        name = s[NAME]
        mod = name.split(".", 1)[0]
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
        out[f"{mod}.self_s"] += own
        out[f"{mod}.errors"] += int(s[ERROR])
    return out
