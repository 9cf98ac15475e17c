import json

import pytest

from calmeasures import (
    Adversary,
    ConstantAdversary,
    ConstantForecaster,
    Forecaster,
    cdl,
    cli,
    ece,
    measures,
    read_csv,
    run,
    smce,
    verify,
)
from calmeasures.cli import main
from calmeasures.fixtures import cdl_example_2

CSV = "prediction,label\n0.3,1\n0.3,0\n0.7,1\n0.2,0\n"


@pytest.fixture
def data_csv(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text(CSV)
    return str(p)


@pytest.fixture
def instance_json(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(
        json.dumps(
            [
                {"id": "a", "mass": 0.5, "pred": 0.4, "cond_mean": 0.0},
                {"id": "b", "mass": 0.5, "pred": 0.6, "cond_mean": 1.0},
            ]
        )
    )
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestReport:
    def test_values_match_library(self, data_csv, capsys):
        code, out = run_cli(
            ["report", data_csv, "--measures", "ece,smce,cdl"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        j = read_csv(data_csv)
        assert obj["measures"]["ece"] == pytest.approx(ece(j), abs=1e-15)
        assert obj["measures"]["smce"] == pytest.approx(smce(j), abs=1e-15)
        assert obj["measures"]["cdl"] == pytest.approx(cdl(j), abs=1e-15)

    def test_verify_relations_flag(self, data_csv, capsys):
        code, out = run_cli(["report", data_csv, "--verify-relations"], capsys)
        assert code == 0
        checks = json.loads(out)["relation_checks"]
        assert all(checks.values())
        # an option is spelled in full: a prefix of it is no option
        with pytest.raises(SystemExit) as exc:
            main(["report", data_csv, "--verify", "--measures", "ece"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --verify\n")

    def test_parameterized_measures(self, data_csv, capsys):
        code, out = run_cli(
            [
                "report",
                data_csv,
                "--measures",
                "ece_q:3,binned:10,lowdeg:2,kernel:gaussian",
            ],
            capsys,
        )
        assert code == 0
        assert set(json.loads(out)["measures"]) == {
            "ece_q:3",
            "binned:10",
            "lowdeg:2",
            "kernel:gaussian",
        }

    def test_cfdl_with_task_file(self, data_csv, tmp_path, capsys):
        task = tmp_path / "task.json"
        task.write_text('{"actions": ["l", "h"], "payoff": [[1, 0], [0, 1]]}')
        code, out = run_cli(
            ["report", data_csv, "--measures", f"cfdl:{task}"], capsys
        )
        assert code == 0
        assert json.loads(out)["measures"][f"cfdl:{task}"] >= 0.0

    @pytest.mark.parametrize("task_text", [
        '{"actions": "lh", "payoff": [[1, 0], [0, 1]]}',
        '{"actions": ["l", "h"], "payoff": [[1, 0, 7], [0, 1]]}',
        '{"actions": ["l", "h"], "payoff": [[1], [0, 1]]}',
        '{"actions": ["l", "h"], "payoff": [[1, 0], ["0", 1]]}',
        '{"actions": ["l", "h"], "payoff": {"l": [1, 0], "h": [0, 1]}}',
        '{"actions": [null, {"a": 1}], "payoff": [[1, 0], [0, 1]]}',
        '{"actions": ["l", "l"], "payoff": [[1, 0], [0, 1]]}',
    ], ids=["actions-string", "three-payoffs", "one-payoff", "string-payoff",
            "payoff-object", "non-string-names", "repeated-names"])
    def test_a_task_file_of_the_wrong_shape_exits_2(self, data_csv, tmp_path,
                                                     task_text, capsys):
        """actions is a list of distinct strings, and each payoff row a
        list of two numbers: a string of actions, a null or repeated name or
        a third payoff is refused, not read past."""
        task = tmp_path / "task.json"
        task.write_text(task_text)
        assert main(["report", data_csv, "--measures", f"cfdl:{task}"]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: measure 'cfdl:{task}': malformed task "
                              f"file {task}")

    @pytest.mark.parametrize("spec", ["cfdl", "binned", "ece_q", "lowdeg"])
    def test_an_id_without_its_argument_says_so(self, data_csv, spec,
                                                capsys):
        assert main(["report", data_csv, "--measures", spec]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"error: measure {spec!r}: needs an argument"

    def test_unknown_measure_exit_3(self, data_csv, capsys):
        assert main(["report", data_csv, "--measures", "nope"]) == 3

    def test_missing_file_exit_2(self, capsys):
        assert main(["report", "/no/such/file.csv"]) == 2

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("nonsense\n1,2\n")
        assert main(["report", str(p)]) == 2

    def test_dce_needs_instance_exit_3(self, data_csv, capsys):
        assert main(["report", data_csv, "--measures", "dce"]) == 3

    def test_unsupported_suffix_exit_2(self, tmp_path, capsys):
        p = tmp_path / "data.txt"
        p.write_text(CSV)
        assert main(["report", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unsupported input format '.txt'" in err

    def test_violated_relation_chain_exit_1(self, data_csv, capsys,
                                            monkeypatch):
        monkeypatch.setattr(measures, "cdl", lambda joint: 10.0)
        argv = ["report", data_csv, "--verify-relations"]
        assert main(argv + ["--measures", "ece,cdl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relation violated: cdl_le_2ece\n"

    def test_dce_of_an_instance_equals_the_oracle(self, instance_json,
                                                  capsys):
        """dce and the other three distances that oracle prints, bit for
        bit."""
        distances = ["dce", "dce_upper", "intce", "smce"]
        code, out = run_cli(["report", instance_json, "--measures",
                             ",".join(distances)], capsys)
        assert code == 0
        code, oracle = run_cli(["oracle", instance_json], capsys)
        assert code == 0
        reported, oracle = json.loads(out)["measures"], json.loads(oracle)
        assert [float.hex(reported[m]) for m in distances] == [
            float.hex(oracle[m]) for m in distances]

    def test_determinism_byte_identical(self, data_csv, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["report", data_csv, "--measures", "ece,smce"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_precision_17_digits(self, data_csv, capsys):
        code, out = run_cli(["report", data_csv, "--measures", "ece"], capsys)
        obj = json.loads(out)
        # round-trips exactly through the printed representation
        assert obj["measures"]["ece"] == ece(read_csv(data_csv))


class TestOracle:
    def test_sandwich_checks_pass(self, instance_json, capsys):
        code, out = run_cli(["oracle", instance_json], capsys)
        assert code == 0
        obj = json.loads(out)
        assert all(obj["sandwich_checks"].values())
        assert obj["dce"] <= obj["dce_upper"] + 1e-12

    def test_cap_exceeded_exit_4(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text(
            json.dumps(
                [
                    {"id": f"x{i}", "mass": 1.0, "pred": i / 13, "cond_mean": 0.5}
                    for i in range(14)
                ]
            )
        )
        assert main(["oracle", str(p)]) == 4
        assert capsys.readouterr().err == (
            "error: measure 'dce': 14 points exceed the oracle cap 12\n")

    def test_solves_through_the_registry(self, instance_json, monkeypatch,
                                         capsys):
        """A wrapper on the registry's dce_oracle sees oracle's one call."""
        calls, solve = [], measures.dce_oracle
        monkeypatch.setattr(measures, "dce_oracle",
                            lambda inst: calls.append(inst) or solve(inst))
        assert main(["oracle", instance_json]) == 0
        assert len(calls) == 1

    def test_malformed_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["oracle", str(p)]) == 2

    def test_takes_no_grid(self, instance_json, capsys):
        """intce's grid is the registry's default: ``report --measures
        intce:<g>`` sets it."""
        with pytest.raises(SystemExit) as exc:
            main(["oracle", instance_json, "--grid", "500"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --grid 500\n")

    def test_non_json_input_is_refused_by_its_suffix(self, data_csv, capsys):
        assert main(["oracle", data_csv]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == "error: unsupported input format '.csv' (use .json)"


class TestOnline:
    def test_threshold_episode(self, capsys):
        code, out = run_cli(
            [
                "online",
                "--forecaster",
                "running_mean",
                "--adversary",
                "threshold",
                "-T",
                "50",
                "--seed",
                "1",
                "--measures",
                "ece",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rounds"]) == 50
        assert obj["sequence_measures"]["ece"] >= 0.4 * 50
        assert len(obj["prefix_curves"]["ece"]) == 50

    def test_determinism(self, tmp_path, capsys):
        args = [
            "online",
            "--forecaster",
            "grid_random:10",
            "--adversary",
            "bernoulli:0.4",
            "-T",
            "30",
            "--seed",
            "2",
            "--no-curves",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threshold_adversary_refuses_a_randomized_forecaster(self,
                                                                 capsys):
        argv = ["online", "--forecaster", "grid_random:10", "--adversary",
                "threshold", "-T", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: online: threshold adversary requires a deterministic "
            "forecaster\n")

    def test_bad_specs_exit_2(self, capsys):
        base = ["online", "-T", "5"]
        assert main(base + ["--forecaster", "wat", "--adversary", "ones"]) == 2
        assert (
            main(base + ["--forecaster", "constant:0.5", "--adversary", "wat"])
            == 2
        )

    @pytest.mark.parametrize("spec,code", [
        ("ones", 0), ("zeros", 0), ("threshold", 0),
        ("ones:5", 2), ("zeros:x", 2), ("threshold:0.3", 2),
    ])
    def test_adversary_without_parameters_refuses_one(self, spec, code,
                                                      capsys):
        argv = ["online", "--forecaster", "constant:0.5", "--adversary",
                spec, "-T", "5", "--no-curves"]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert err == ([f"error: unknown adversary {spec!r}"] if code else [])

    @pytest.mark.parametrize("spec", ["running_mean:2", "running_mean:1,2,3"])
    def test_running_mean_takes_no_argument(self, spec, capsys):
        argv = ["online", "--forecaster", spec, "--adversary", "ones",
                "-T", "3"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown forecaster {spec!r}"]

    @pytest.mark.parametrize("prior", ["1e308,1e308", "nan,1", "inf,1"])
    def test_a_non_finite_prior_is_refused_before_the_episode(
            self, prior, capsys, monkeypatch):
        """running_mean takes no prior pseudocounts, finite or not."""
        def no_episode(*args):
            raise AssertionError("the episode was played")

        monkeypatch.setattr(cli, "run", no_episode)
        spec = f"running_mean:{prior}"
        argv = ["online", "--forecaster", spec, "--adversary", "ones",
                "-T", "3"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown forecaster {spec!r}"]

    @pytest.mark.parametrize("forecaster,adversary,missing", [
        ("constant", "ones", "forecaster 'constant'"),
        ("grid_random", "ones", "forecaster 'grid_random'"),
        ("running_mean", "bernoulli", "adversary 'bernoulli'"),
    ])
    def test_a_strategy_without_its_argument_says_so(
            self, forecaster, adversary, missing, capsys):
        argv = ["online", "--forecaster", forecaster, "--adversary",
                adversary, "-T", "3"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {missing}: needs an argument"]

    def test_unknown_measure_exit_3(self, capsys):
        assert (
            main(
                [
                    "online",
                    "--forecaster",
                    "constant:0.5",
                    "--adversary",
                    "ones",
                    "-T",
                    "5",
                    "--measures",
                    "nope",
                ]
            )
            == 3
        )

    def test_measure_ids_resolved_before_the_episode(self, capsys,
                                                      monkeypatch):
        def no_episode(*args):
            raise AssertionError("the episode was played")

        monkeypatch.setattr(cli, "run", no_episode)
        argv = ["online", "--forecaster", "running_mean", "--adversary",
                "bernoulli:0.3", "-T", "300000", "--measures", "nope",
                "--no-curves"]
        assert main(argv) == 3
        assert "measure 'nope'" in capsys.readouterr().err

    def test_run_refuses_an_out_of_range_move(self):
        class TooHigh(Forecaster):
            def predict(self, ps, ys, rng):
                return 1.5

        class Two(Adversary):
            def outcome(self, ps, ys, p, rng):
                return 2

        with pytest.raises(ValueError, match="forecaster emitted 1.5 outside"):
            run(TooHigh(), ConstantAdversary(1), 3)
        with pytest.raises(ValueError, match="adversary emitted 2 outside"):
            run(ConstantForecaster(0.5), Two(), 3)


class TestFixtureCommand:
    def test_emit_and_reuse(self, tmp_path, capsys):
        emitted = tmp_path / "tp.json"
        code, out = run_cli(
            [
                "fixture",
                "--name",
                "two_point",
                "--eps",
                "0.1",
                "--emit",
                str(emitted),
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["fixtures"][0]["ok"] is True
        assert emitted.exists()
        assert main(["oracle", str(emitted)]) == 0

    def test_pair_fixture_emits_both(self, tmp_path, capsys):
        base = tmp_path / "qg.json"
        code, out = run_cli(
            [
                "fixture",
                "--name",
                "quadratic_gap",
                "--eps",
                "0.1",
                "--emit",
                str(base),
            ],
            capsys,
        )
        assert code == 0
        names = [f["name"] for f in json.loads(out)["fixtures"]]
        for name in names:
            assert (tmp_path / f"qg_{name}.json").exists()

    def test_pair_fixture_never_writes_the_emit_path(self, tmp_path, capsys):
        argv = ["fixture", "--name", "quadratic_gap", "--eps", "0.05",
                "--emit", str(tmp_path / "qg.json")]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "qg_quadratic_gap_coarse.json", "qg_quadratic_gap_fine.json"]

    def test_eps_out_of_range_exit_2(self, capsys):
        assert main(["fixture", "--name", "two_point", "--eps", "0.9"]) == 2

    def test_unknown_name_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fixture", "--name", "nope", "--eps", "0.1"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["two_point", "quadratic_gap",
                                      "cdl_example_1", "cdl_example_2"])
    def test_unsized_fixture_refuses_a_size(self, name, capsys):
        argv = ["fixture", "--name", name, "--eps", "0.05", "--n", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # --n is no prefix of --name
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --n 5\n")

    def test_sized_fixture_defaults_to_1000_points(self, capsys):
        argv = ["fixture", "--name", "cdl_example_2", "--eps", "0.05"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        fix = cdl_example_2(0.05)
        assert len(fix.instance.ids) == 1000
        assert json.loads(out)["fixtures"] == [{
            "name": "cdl_example_2",
            "expected": {k: {"value": v, "tolerance": t, "provenance": p}
                         for k, (v, t, p) in fix.expected.items()},
            "bounds": {k: {"lower": lo, "upper": hi, "provenance": p}
                       for k, (lo, hi, p) in fix.bounds.items()},
            "computed": {k: v for k, (v, _) in verify(fix).items()},
            "ok": True,
        }]

    def test_sized_fixture_prints_its_bounds(self, capsys):
        code, out = run_cli(["fixture", "--name", "cdl_example_2", "--eps",
                             "0.05"], capsys)
        assert code == 0
        (fix,) = json.loads(out)["fixtures"]
        assert fix["ok"] is True
        assert fix["bounds"]
        for bound in fix["bounds"].values():
            assert set(bound) == {"lower", "upper", "provenance"}


class TestPlotdata:
    def test_reliability_rows(self, data_csv, capsys):
        code, out = run_cli(
            ["plotdata", "--kind", "reliability", data_csv], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "prediction,conditional_mean,mass"
        assert len(lines) == 4  # header + 3 distinct values

    @pytest.mark.parametrize("specs,code", [("nope,binned:0", 3),
                                            ("binned:0", 2)])
    def test_reliability_resolves_its_measures(self, data_csv, specs, code,
                                               capsys):
        """As report does, before the input is read: the CSV is not
        printed."""
        argv = ["plotdata", "--kind", "reliability", data_csv, "--measures"]
        assert main(argv + [specs]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith(f"error: measure {specs.split(',')[0]!r}: ")

    def test_transcript_rows(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"rounds": [[0.5, 1]] * 10}))
        code, out = run_cli(
            [
                "plotdata",
                "--kind",
                "transcript",
                str(p),
                "--measures",
                "ece,smce",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,p,y,prefix_ece,prefix_smce"
        assert len(lines) == 11

    @pytest.mark.parametrize("specs,text", [
        ("", "t,p,y\n1,0.25,1\n2,0.75,0\n3,0.25,0\n4,0.5,1\n"),
        ("ece,cdl", "t,p,y,prefix_ece,prefix_cdl\n1,0.25,1,0.75,1.5\n"
         "2,0.75,0,1.5,2\n3,0.25,0,1.25,1.5\n4,0.5,1,1.75,2\n"),
    ])
    def test_transcript_header_has_one_field_per_column(self, tmp_path,
                                                        specs, text, capsys):
        """The header joins its fields as the rows do: without measures it
        is t,p,y, not t,p,y, with an empty fourth field."""
        p = tmp_path / "t.json"
        p.write_text(json.dumps(
            {"rounds": [[0.25, 1], [0.75, 0], [0.25, 0], [0.5, 1]]}))
        code, out = run_cli(["plotdata", "--kind", "transcript", str(p),
                             "--measures", specs], capsys)
        assert code == 0
        assert out == text

    def test_malformed_transcript_exit_2(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text("[]")
        assert main(["plotdata", "--kind", "transcript", str(p)]) == 2
