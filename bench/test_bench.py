"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import spans
from workload import ROOT, run_op


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def _op_list(ops) -> str:
    return json.dumps([op.__dict__ for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_equal_seeds(tmp_path, workload):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    ops_a = gen.generate(workload, 7, a)
    ops_b = gen.generate(workload, 7, b)
    ops_c = gen.generate(workload, 8, c)
    assert _files(a) == _files(b)
    assert _op_list(ops_a) == _op_list(ops_b)
    assert (_files(a), _op_list(ops_a)) != (
        _files(c), _op_list(ops_c))


def test_self_time_on_synthetic_span_tree():
    def span(sid, parent, name, start, end, error=False):
        return [0, sid, parent, name, start, end, error]

    tree = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "empirical.read_csv", 1.0, 4.0),
        span(2, 1, "empirical.from_samples", 2.0, 3.0),
        span(3, 0, "lipschitz.smce", 3.5, 6.0, error=True),  # overlaps 1
        span(4, 0, "basic.ece", 9.0, 12.0),  # runs past its parent
    ]
    # root: 10 minus the union [1, 6] + [9, 10]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 2.5, 3.0]
    out = spans.summarize(tree)
    assert out["cli.main.self_s"] == 4.0
    assert out["empirical.self_s"] == 3.0
    assert out["empirical.from_samples.calls"] == 1
    assert out["lipschitz.errors"] == 1 and out["empirical.errors"] == 0
    assert out["distance.dce_oracle.calls"] == 0


def test_nested_spans_partition_the_root_duration():
    tracer = spans.Tracer()
    leaf = tracer.wrap("basic.ece", lambda: sum(range(1000)))
    mid = tracer.wrap("lipschitz.smce", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("cli.main", lambda: (mid(), leaf()))
    root()
    rec = tracer.spans[0]
    assert [s[spans.PARENT] for s in tracer.spans] == [None, 0, 1, 1, 1, 0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(
        rec[spans.END] - rec[spans.START], rel=1e-9)


@pytest.fixture
def exact_ops(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    return gen.generate("exact", 3, tmp_path)


def test_checker_fails_tampered_output_and_raised_exception(exact_ops):
    import calmeasures.cli as cli

    report, oracle = exact_ops[0], exact_ops[1]
    for op in (report, oracle):
        rec = run_op(cli.main, op.argv)
        assert check.check_op(op, rec) is None

    rec = run_op(cli.main, report.argv)
    out = json.loads(rec["output"])
    out["measures"]["ece"] += 1e-6
    assert "reference" in check.check_op(
        report, dict(rec, output=json.dumps(out)))

    rec = run_op(cli.main, oracle.argv)
    out = json.loads(rec["output"])
    out["sandwich_checks"]["dce_le_dce_upper"] = False
    assert check.check_op(oracle, dict(rec, output=json.dumps(out)))

    def boom(argv):
        raise MemoryError("simulated")

    rec = run_op(boom, report.argv)
    assert rec["output"] is None
    assert "MemoryError" in check.check_op(report, rec)

    rec = run_op(cli.main, ["report", "missing.csv", "-o", "out.json"])
    assert check.check_op(report, rec) == "exit code 2"


def test_checker_fails_prefix_curve_off_its_sequence_measure(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import calmeasures.cli as cli

    op = gen.generate("online-curves", 3, tmp_path)[0]
    rec = run_op(cli.main, op.argv)
    assert check.check_op(op, rec) is None
    out = json.loads(rec["output"])
    out["prefix_curves"]["cdl"][-1] += 1e-3
    assert "prefix curve" in check.check_op(
        op, dict(rec, output=json.dumps(out)))


def test_traced_workload_accounts_for_op_time(exact_ops, tmp_path):
    (tmp_path / "ops.json").write_text(
        json.dumps([op.argv for op in exact_ops]))
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("workload.py")),
         "--seconds", "0", "--min-ops", "4", "--trace"],
        cwd=tmp_path, check=True, timeout=120,
    )
    with open(tmp_path / "results.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["phase"] for r in records] == ["plain", "traced"] * 4
    assert all(check.check_op(exact_ops[r["op"]], r) is None
               for r in records)
    with open(tmp_path / "spans.jsonl") as fh:
        span_list = [json.loads(line) for line in fh]
    out = spans.summarize(span_list)
    assert out["cli.main.calls"] == 4
    assert out["distance.dce_oracle.calls"] == 2
    # cli.smce and distance's reference to residuals are wrapped too
    assert out["lipschitz.smce.calls"] == 4
    assert out["lipschitz.residuals.calls"] == 8
    op_s = sum(r["latency_s"] for r in records if r["phase"] == "traced")
    self_s = sum(out[f"{m}.self_s"] for m in spans.MODULES)
    assert self_s == pytest.approx(op_s, rel=0.01)


def test_uninstall_restores_every_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import calmeasures.cli as cli
    from calmeasures import empirical, lipschitz

    before = (cli.smce, lipschitz.residuals,
              empirical.EmpiricalJoint.__dict__["level_sets"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.smce is not before[0] and cli.smce is lipschitz.smce
    finally:
        tracer.uninstall()
    assert (cli.smce, lipschitz.residuals,
            empirical.EmpiricalJoint.__dict__["level_sets"]) == before
