"""One prefix walk for every measure of an online run, and the canonical
zero of a level's value.

``prefix_curves`` builds each prefix's joint once and runs every measure
without a row form on it, and runs the row forms once per block of
prefixes; ``online`` takes each sequence measure from the last point of its
curve instead of solving the whole transcript again.  ``EmpiricalJoint``
stores a level of 0.0 and -0.0 as 0.0, so equal joints print equally.
"""

import json

import pytest

from calmeasures import (
    BernoulliAdversary,
    EmpiricalJoint,
    GridRandomForecaster,
    RunningMeanForecaster,
    ThresholdAdversary,
    Transcript,
    from_samples,
    measures,
    prefix_curve,
    prefix_curves,
    run,
    sequence_measure,
)
from calmeasures.cli import main
from calmeasures.measures import resolve

SPECS = ("ece", "cdl", "tv", "smce", "binned:5")


def hexes(values):
    return [float(v).hex() for v in values]


def transcripts():
    return [
        run(RunningMeanForecaster(), ThresholdAdversary(), 60, seed=1),
        run(GridRandomForecaster(7), BernoulliAdversary(0.3), 80, seed=2),
        Transcript(((-0.0, 1), (0.0, 0), (0.5, 1), (-0.0, 0))),
        Transcript(((0.4, 1),)),
    ]


class TestPrefixCurves:
    def test_each_curve_equals_its_own_walk(self):
        for transcript in transcripts():
            curves = prefix_curves(
                transcript, {spec: resolve(spec) for spec in SPECS})
            assert list(curves) == list(SPECS)
            for spec in SPECS:
                assert hexes(curves[spec]) == hexes(
                    prefix_curve(transcript, spec)), spec

    def test_one_joint_per_prefix(self, monkeypatch):
        built = []
        from_columns = EmpiricalJoint.from_columns

        def counted(*args):
            built.append(1)
            return from_columns(*args)

        monkeypatch.setattr(EmpiricalJoint, "from_columns",
                            staticmethod(counted))
        transcript = transcripts()[1]
        # binned moves predictions to bucket midpoints, a joint of its own
        specs = ("ece", "cdl", "tv", "smce")
        prefix_curves(transcript, {spec: resolve(spec) for spec in specs})
        assert len(built) == len(transcript)

    def test_measures_run_in_order_longest_prefix_first(self):
        calls = []
        fs = {name: (lambda joint, name=name: calls.append(
            (name, len(joint.vals))) or 0.0) for name in ("a", "b")}
        prefix_curves(Transcript(((0.2, 1), (0.3, 0), (0.4, 0))), fs)
        assert calls == [("a", 3), ("b", 3), ("a", 2), ("b", 2), ("a", 1),
                         ("b", 1)]

    def test_last_point_is_the_sequence_measure(self):
        for transcript in transcripts():
            curves = prefix_curves(
                transcript, {spec: resolve(spec) for spec in SPECS})
            for spec in SPECS:
                assert curves[spec][-1] == sequence_measure(transcript, spec)


def online_argv(*extra):
    return ["online", "--forecaster", "running_mean", "--adversary",
            "threshold", "-T", "40", "--seed", "3", "--measures", "ece,cdl",
            *extra]


class TestOnlineCommand:
    def test_no_second_solve(self, monkeypatch, capsys):
        """With curves on, cdl's row form evaluates each of the 40 prefixes
        once and cdl runs on no whole transcript; with --no-curves cdl runs
        once."""
        rows, calls = [], []
        cdl, cdl_rows = measures.cdl, measures.cdl_rows
        monkeypatch.setattr(measures, "cdl",
                            lambda joint: calls.append(1) or cdl(joint))
        monkeypatch.setattr(measures, "cdl_rows", lambda vals, m0, m1: (
            rows.append(len(m0)) or cdl_rows(vals, m0, m1)))
        assert main(online_argv()) == 0
        out = json.loads(capsys.readouterr().out)
        assert sum(rows) == 40 and calls == []
        for spec, curve in out["prefix_curves"].items():
            assert out["sequence_measures"][spec] == curve[-1]
        rows.clear()
        assert main(online_argv("--no-curves")) == 0
        assert rows == [] and len(calls) == 1
        assert json.loads(capsys.readouterr().out)["prefix_curves"] == {}

    def test_sequence_measures_match_no_curves(self, capsys):
        assert main(online_argv()) == 0
        with_curves = json.loads(capsys.readouterr().out)
        assert main(online_argv("--no-curves")) == 0
        without = json.loads(capsys.readouterr().out)
        assert with_curves["sequence_measures"] == without["sequence_measures"]

    @pytest.mark.parametrize("command", ["online", "plotdata"])
    def test_failure_inside_the_walk_keeps_its_exit_code(
        self, command, monkeypatch, tmp_path, capsys
    ):
        def no_memory(vals, m0, m1):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(measures, "cdl_rows", no_memory)
        if command == "online":
            argv = online_argv()
        else:
            path = tmp_path / "t.json"
            path.write_text('{"rounds": [[0.2, 1], [0.7, 0]]}')
            argv = ["plotdata", "--kind", "transcript", str(path),
                    "--measures", "ece,cdl"]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: measure 'cdl'")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCanonicalZero:
    def test_from_samples_stores_zero(self):
        a = from_samples([(-0.0, 1)]).level_sets()
        b = from_samples([(0.0, 1)]).level_sets()
        for name in ("vals", "m0", "m1", "mass", "mean", "residual"):
            assert hexes(getattr(a, name)) == hexes(getattr(b, name)), name

    @pytest.mark.parametrize("rows", [
        ["-0.0,1", "-0.0,1"],
        ["-0.0,1", "-0.0,1", "0.0,0"],
    ])
    def test_reliability_prints_zero(self, rows, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("prediction,label\n" + "\n".join(rows) + "\n")
        assert main(["plotdata", "--kind", "reliability", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0"]
