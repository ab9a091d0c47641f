import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from hybridproj import cli
from hybridproj.cli import (
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    EXIT_VALIDATION_FAILURE,
    BENCH_ROUNDS,
    HISTORY_COLUMNS,
    ConfigError,
    RunConfig,
    load_config,
    main,
)
from hybridproj.geometry import ProjectionFailure
from hybridproj.problems import build_section4
from hybridproj.solver import ParamSchedule, SolverConfig, solve


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_benchmark_config(**overrides):
    data = {
        "problem": {"preset": "section4", "N": 20, "M": 30},
        "x0": [1.0],
        "stop": {"rule": "tol_to_reference", "l": 6},
        "max_iter": 30,
        "record_history": True,
    }
    data.update(overrides)
    return data


def affine_vi_config(**overrides):
    data = {
        "problem": {
            "preset": "cor2",
            "base": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
            "operators": [{"variant": "affine", "gain": 1.0, "root": [0.5]}],
            "maps": [{"variant": "identity"}],
            "known_solution": {"kind": "point", "value": [0.5]},
        },
        "x0": [1.0],
        "stop": {"rule": "tol_to_reference", "l": 6},
        "max_iter": 300,
    }
    data.update(overrides)
    return data


COR5_PROBLEM = {
    "preset": "cor5",
    "base": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    "bifunctions": [{"variant": "section4", "xi": -0.5}],
    "maps": [{"variant": "section4", "c": 1.5}],
    "known_solution": {"kind": "interval", "lo": -1.0, "hi": -0.5},
}


def ball_vi_config():
    """cor2 on the unit disc: two affine operators share the root (0.5, 0.2).

    Ten iterations stay short of the false InfeasibleSetError that stops
    this run at iteration 14 (ROADMAP item 2).
    """
    return {
        "problem": {
            "preset": "cor2",
            "base": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "operators": [
                {"variant": "affine", "gain": 1.0, "root": [0.5, 0.2]},
                {"variant": "affine", "gain": 2.0, "root": [0.5, 0.2]},
            ],
            "maps": [{"variant": "identity"}],
        },
        "x0": [0.6, -0.5],
        "stop": {"rule": "tol_to_reference", "tol": 1e-6, "reference": [0.5, 0.2]},
        "max_iter": 10,
    }


def scalar_monotone(**profile):
    """A scalar_monotone bifunction with an affine profile of extra keys."""
    return {"variant": "scalar_monotone", "profile": {"kind": "affine", **profile},
            "lo": -1.0, "hi": 1.0}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRunConfig:
    def test_round_trip_identity(self):
        cfg = RunConfig.from_dict(small_benchmark_config(workers=4, seed=7))
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg == again

    def test_scalar_anchor_promoted(self):
        cfg = RunConfig.from_dict(small_benchmark_config(x0=1.0))
        assert cfg.x0 == (1.0,)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(small_benchmark_config(typo_field=1))

    def test_missing_problem_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"x0": [1.0]})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text("[1.0]")
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"x0": "1.0"}, "x0"),
            ({"x0": None}, "x0"),
            ({"max_iter": "5"}, "max_iter"),
            ({"workers": "2"}, "workers"),
            ({"projection_tol": "x"}, "projection_tol"),
            ({"x0": [1e400]}, "x0"),
            ({"x0": [math.nan]}, "x0"),
            ({"stop": "budget"}, "stop"),
            ({"stop": {"rule": "residual"}}, "tol"),
            ({"stop": {"rule": "tol_to_reference"}}, "tol"),
            ({"stop": {"rule": "residual", "tol": 0}}, "tol"),
            ({"schedule": {"alpha": 0.5}}, "alpha"),
            ({"schedule": {"beta": {"kind": "constant"}}}, "value"),
            ({"schedule": {"b": "x"}}, "b"),
            ({"problem": dict(COR5_PROBLEM, base=[1, 2])}, "base"),
            ({"problem": dict(COR5_PROBLEM, bifunctions=[
                {"variant": "section4", "xi": [0.1]}])}, "xi"),
            ({"mode": "algorithm2"}, "mode"),
            ({"problem": dict(COR5_PROBLEM, bifunctions=[
                {"variant": "section4", "xi": math.nan}])}, "xi"),
            ({"schedule": {"omega": math.inf}}, "omega"),
            ({"problem": dict(COR5_PROBLEM, known_solution={
                "kind": "interval", "lo": math.nan, "hi": 0.0})}, "lo"),
            ({"problem": {"preset": "section4", "N": "20", "M": 30}}, "N"),
            ({"problem": {"preset": "section4", "N": 20, "M": 30.9}}, "M"),
            ({"problem": {"preset": "section4", "N": 2e3, "M": 30}}, "N"),
            ({"problem": dict(COR5_PROBLEM, bifunctions=[
                {"variant": "section4", "xi": "0.25"}])}, "xi"),
            ({"problem": dict(COR5_PROBLEM, maps=[
                {"variant": "section4", "c": "1.5"}])}, "c"),
            ({"problem": dict(COR5_PROBLEM, base={
                "kind": "box", "lo": [-1.0], "hi": [True]})}, "hi"),
            ({"stop": {"rule": "tol_to_reference", "l": True}}, "l"),
            ({"record_history": "no"}, "record_history"),
            ({"out": 5}, "out"),
            ({"problem": dict(COR5_PROBLEM, operators={})}, "operators"),
            ({"seed": -1}, "seed"),
            ({"projection_tol": 0.0}, "projection_tol"),
            ({"projection_max_sweeps": 0}, "projection_max_sweeps"),
            # Retired keys, with b-string above: b, d and e are the extremes
            # of the sequences, and k_n is the family's.
            ({"schedule": {"k": {"kind": "constant", "value": 1.5}}}, "k"),
            ({"schedule": {"d": 1.0}}, "d"),
            ({"schedule": {"e": 1.0}}, "e"),
            # An object below the root refuses a key its kind does not hold.
            ({"problem": {**{k: v for k, v in COR5_PROBLEM.items() if k != "maps"},
                          "mapz": COR5_PROBLEM["maps"]}}, "mapz"),
            ({"problem": {"preset": "section4", "N": 20, "M": 30, "omega": 1.0}},
             "omega"),
            ({"problem": {"preset": "section4", "N": 20, "M": 30,
                          "base": COR5_PROBLEM["base"]}}, "base"),
            ({"problem": dict(COR5_PROBLEM, omega=1.0)}, "omega"),
            ({"problem": dict(COR5_PROBLEM, base={
                "kind": "box", "lo": [-1.0], "hi": [1.0], "radius": 1.0})}, "radius"),
            ({"stop": {"rule": "budget", "tol": 1}}, "tol"),
            ({"stop": {"rule": "tol_to_reference", "l": 6, "tol": 1e-6}}, "l"),
            ({"problem": dict(COR5_PROBLEM, bifunctions=[
                scalar_monotone(slop=1.0)])}, "slop"),
            ({"problem": dict(COR5_PROBLEM, bifunctions=[
                scalar_monotone(shfit=0.0)])}, "shfit"),
            ({"schedule": {"alpha": {"kind": "inverse_offset", "ofset": 3}}}, "ofset"),
            ({"schedule": {"alpha": {"kind": "inverse_offset", "scael": 2}}}, "scael"),
        ],
        ids=[
            "x0-1.0", "x0-None", "max_iter-5", "workers-2", "projection_tol-x",
            "x0-inf", "x0-nan", "stop-string", "residual-without-tol",
            "tol_to_reference-without-tol", "tol-zero", "alpha-number",
            "constant-without-value", "b-string", "base-list", "xi-list",
            "mode", "xi-nan", "omega-inf", "interval-lo-nan", "N-string",
            "M-fraction", "N-float", "xi-string", "c-string", "hi-bool",
            "l-bool", "record_history-string", "out-number", "operators-object",
            "seed-negative", "projection_tol-zero", "projection_max_sweeps-zero",
            "k-retired", "d-retired", "e-retired", "problem-mapz",
            "section4-omega", "section4-base", "cor5-omega", "box-radius",
            "budget-tol", "l-and-tol", "profile-slop", "profile-shfit",
            "offset-typo", "scale-typo",
        ],
    )
    def test_malformed_value_is_invalid_config(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, small_benchmark_config(**overrides))
        assert main(["run", "--config", cfg]) == EXIT_INVALID_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "invalid-config"
        assert f"'{key}'" in error["detail"]

    @pytest.mark.parametrize(
        "overrides, spelled",
        [
            ({"problem": dict(COR5_PROBLEM, base={
                "kind": "box", "lo": [-1.0], "hi": [True]})}, "got [true]"),
            ({"x0": None}, "got null"),
            ({"problem": dict(COR5_PROBLEM, operators={"variant": "zero"})},
             'got {"variant": "zero"}'),
            ({"problem": dict(COR5_PROBLEM, base="box")}, 'got "box"'),
            ({"problem": dict(COR5_PROBLEM, maps=[{"c": 1.5}])},
             "unknown variant null"),
            ({"stop": {"rule": "fixed"}}, 'unknown stop rule "fixed"'),
        ],
        ids=["list-of-true", "null", "object", "string", "missing-tag",
             "unknown-rule"],
    )
    def test_refused_value_is_spelled_as_json(self, tmp_path, capsys, overrides,
                                              spelled):
        cfg = write_config(tmp_path, small_benchmark_config(**overrides))
        assert main(["run", "--config", cfg]) == EXIT_INVALID_CONFIG
        assert spelled in json.loads(capsys.readouterr().err.strip())["detail"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"x0": [0.5]},
            {"stop": {"rule": "tol_to_reference", "tol": 1e-6, "reference": [0.5]}},
        ],
        ids=["anchor", "reference"],
    )
    def test_dimension_mismatch_is_invalid_config(self, tmp_path, capsys, overrides):
        assert main(["run", "--config", write_config(tmp_path, ball_vi_config())]) == EXIT_OK
        capsys.readouterr()
        data = dict(ball_vi_config(), **overrides)
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_INVALID_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "invalid-config"
        assert "dimension 2" in error["detail"]

    @pytest.mark.parametrize(
        "solution",
        [{"kind": "interval", "lo": -0.5, "hi": 0.5},
         {"kind": "point", "value": [0.1, 0.2, 0.3]}],
        ids=["interval", "point-3d"],
    )
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_known_solution_of_wrong_dimension_is_invalid_config(
            self, tmp_path, capsys, monkeypatch, command, solution):
        monkeypatch.setattr(cli, "_solve", None)  # refused before any solve
        data = ball_vi_config()
        data["problem"] = dict(
            data["problem"], known_solution=solution,
            base={"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        )
        data.update(x0=[0.9, 0.9], stop={"rule": "budget"})
        assert main([command, "--config", write_config(tmp_path, data)]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.strip())
        assert error["error"] == "invalid-config"
        assert "'known_solution'" in error["detail"]
        assert "the base set has dimension 2" in error["detail"]

    def test_anchor_outside_base_is_invalid_config(self, tmp_path, capsys):
        data = dict(ball_vi_config(), x0=[0.9, 0.9])
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_INVALID_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "invalid-config"
        assert "outside the base set" in error["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--samples", "0"],
        ["validate", "--samples", "-3"],
        ["run", "--out", "{file}"],
        ["bench", "--workers-list", "1", "--out", "{file}"],
    ],
    ids=["samples-zero", "samples-negative", "run-out-file", "bench-out-file"],
)
def test_bad_flag_is_invalid_config(tmp_path, capsys, argv):
    # Refused before any solve: nothing on stdout, one error line on stderr.
    cfg = write_config(tmp_path, small_benchmark_config(max_iter=2))
    existing = tmp_path / "existing.txt"
    existing.write_text("keep")
    args = [arg.format(file=existing) for arg in argv]
    assert main(args[:1] + ["--config", cfg] + args[1:]) == EXIT_INVALID_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-config"
    assert existing.read_text() == "keep"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{cfg}", "--history", "on"],
        ["run", "--config", "{cfg}", "--workers", "abc"],
        ["run", "--workers", "2"],
    ],
    ids=["unknown-flag", "non-integer-workers", "missing-config"],
)
def test_parse_error_is_invalid_config(tmp_path, capsys, argv):
    # argparse's own errors get the one JSON line and exit 1, not a usage
    # text and exit 2 (the solver-failure code).
    cfg = write_config(tmp_path, small_benchmark_config(max_iter=2))
    assert main([arg.format(cfg=cfg) for arg in argv]) == EXIT_INVALID_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-config"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["run", "--help"])
    assert stop.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, overrides, setting",
    [
        (["run", "--workers", "0"], {}, "workers"),
        (["bench", "--workers-list", "0,1"], {}, "workers"),
        (["bench", "--workers-list", "1,0"], {}, "workers"),
        (["run"], {"max_iter": -1}, "max_iter"),
        (["run"], {"projection_tol": 0}, "projection_tol"),
        (["run"], {"projection_max_sweeps": 0}, "projection_max_sweeps"),
    ],
    ids=["run-workers-0", "bench-workers-0-first", "bench-workers-0-later",
         "max_iter-negative", "projection_tol-zero", "projection_max_sweeps-zero"],
)
def test_solver_config_refusal_names_its_setting(tmp_path, capsys, monkeypatch,
                                                  argv, overrides, setting):
    monkeypatch.setattr(cli, "_solve", None)  # refused before any solve
    cfg = write_config(tmp_path, small_benchmark_config(**{"max_iter": 2, **overrides}))
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == EXIT_INVALID_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "invalid-config"
    assert f"'{setting}'" in error["detail"]


class TestRun:
    def test_benchmark_run_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main([
            "run",
            "--config", write_config(tmp_path, small_benchmark_config()),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["iterations"] == 30
        assert summary["stop_reason"] == "budget"
        assert summary["workers"] == 1
        assert "reference_gap" in summary

        saved = json.loads((out / "summary.json").read_text())
        assert saved == summary

        with (out / "history.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == HISTORY_COLUMNS
        assert len(rows) == 1 + 30
        assert float(rows[1][1]) == 1.0  # starting iterate norm
        for row in rows[1:]:
            assert float(row[3]) >= 0.0  # res_y
            assert float(row[2]) == 0.0  # plain maps: k_n = 1, exact cuts

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "r"
        main([
            "run",
            "--config", write_config(tmp_path, small_benchmark_config(max_iter=5)),
            "--out", str(out),
        ])
        with (out / "history.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        # %.17g survives a parse/print cycle bit for bit
        for row in rows:
            for column in ("res_y", "res_z", "res_S"):
                value = float(row[column])
                assert float("%.17g" % value) == value

    def test_record_history_false_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "nohist"
        code = main([
            "run",
            "--config",
            write_config(tmp_path, small_benchmark_config(record_history=False)),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "summary.json").exists()
        assert not (out / "history.csv").exists()

    def test_affine_vi_reaches_solution(self, tmp_path, capsys):
        code = main(["run", "--config", write_config(tmp_path, affine_vi_config())])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["stop_reason"] == "tol_to_reference"
        assert summary["reference_gap"] <= 1e-6

    def test_empty_interval_solution_is_invalid_config(self, tmp_path, capsys):
        problem = dict(affine_vi_config()["problem"],
                       known_solution={"kind": "interval", "lo": 0.6, "hi": 0.2})
        data = affine_vi_config(problem=problem)
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_INVALID_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "invalid-config"
        assert "lo <= hi" in error["detail"]

    def test_unknown_preset_is_invalid_config(self, tmp_path, capsys):
        bad = small_benchmark_config()
        bad["problem"] = {"preset": "cor9"}
        code = main(["run", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_INVALID_CONFIG
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "invalid-config"

    def test_schedule_violation_is_invalid_config(self, tmp_path):
        bad = small_benchmark_config(
            schedule={"beta": {"kind": "constant", "value": 0.1}}
        )
        code = main(["run", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_INVALID_CONFIG

    def test_projection_budget_failure_is_solver_failure(self, tmp_path, capsys):
        bad = small_benchmark_config(projection_max_sweeps=1)
        code = main(["run", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_SOLVER_FAILURE
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "solver-failure"

    def test_workers_flag_beats_config(self, tmp_path, capsys, monkeypatch):
        # The environment is no source of the worker count.
        monkeypatch.setenv("HYBRIDPROJ_WORKERS", "3")
        default = write_config(tmp_path, small_benchmark_config(max_iter=3), "a.json")
        two = write_config(tmp_path, small_benchmark_config(max_iter=3, workers=2))
        for argv, workers in (
            (["--config", default], 1),
            (["--config", two], 2),
            (["--config", two, "--workers", "3"], 3),
        ):
            assert main(["run", *argv]) == EXIT_OK
            assert json.loads(capsys.readouterr().out.strip())["workers"] == workers

class TestValidate:
    def test_benchmark_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_benchmark_config())
        code = main(["validate", "--config", cfg, "--samples", "150"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out.strip())
        assert report["passed"] is True
        assert report["schedule_violations"] == []
        assert report["member_failures"] == []
        assert report["solution_fixed_point_max_gap"] <= 1e-10

    def test_beta_below_kappa_reported(self, tmp_path, capsys):
        kappa = 30 / 61
        bad = small_benchmark_config(
            schedule={"beta": {"kind": "constant", "value": kappa / 2}}
        )
        code = main(["validate", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_VALIDATION_FAILURE
        report = json.loads(capsys.readouterr().out.strip())
        assert any("beta" in v for v in report["schedule_violations"])

    def test_step_outside_modulus_window_reported(self, tmp_path, capsys):
        bad = affine_vi_config(
            schedule={"r": {"kind": "constant", "value": 3.0}}
        )
        code = main(["validate", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_VALIDATION_FAILURE
        report = json.loads(capsys.readouterr().out.strip())
        assert any("modulus" in v for v in report["schedule_violations"])

    @pytest.mark.parametrize("index", [0, 50])
    def test_every_map_is_checked(self, tmp_path, capsys, index):
        # x -> x - 1.5 x^2 moves the solution 0.5 to 0.125, wherever it sits.
        maps = [{"variant": "identity"}] * 50
        maps.insert(index, {"variant": "section4", "c": 1.5})
        data = affine_vi_config()
        data["problem"]["maps"] = maps
        code = main(["validate", "--config", write_config(tmp_path, data),
                     "--samples", "20"])
        assert code == EXIT_VALIDATION_FAILURE
        report = json.loads(capsys.readouterr().out.strip())
        assert report["solution_fixed_point_max_gap"] == pytest.approx(0.375)
        assert report["passed"] is False

    def test_kernel_error_is_solver_failure(self, tmp_path, capsys):
        # The closed-form section4 kernel takes unit steps only, as in run.
        data = small_benchmark_config(
            schedule={"r": {"kind": "constant", "value": 0.5}}
        )
        cfg = write_config(tmp_path, data)
        assert main(["validate", "--config", cfg]) == EXIT_SOLVER_FAILURE
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "solver-failure"
        assert main(["run", "--config", cfg]) == EXIT_SOLVER_FAILURE

    def test_audit_error_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        def failing_audit(*args, **kwargs):
            raise RuntimeError("audit failed")

        monkeypatch.setattr(cli, "verify_family", failing_audit)
        cfg = write_config(tmp_path, small_benchmark_config())
        assert main(["validate", "--config", cfg]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip()) == {
            "error": "solver-failure", "detail": "audit failed"}

    def test_anchor_outside_base_is_invalid_config(self, tmp_path, capsys):
        data = dict(ball_vi_config(), x0=[0.9, 0.9])
        assert main(["validate", "--config", write_config(tmp_path, data)]) == (
            EXIT_INVALID_CONFIG)
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.strip())
        assert error["error"] == "invalid-config"
        assert "outside the base set" in error["detail"]


class TestBench:
    def test_rows_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=20))
        code = main([
            "bench", "--config", cfg, "--workers-list", "1,2", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert "workers" in lines[0]
        assert len(lines) == 3
        with (out / "bench.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["workers"]) for r in rows] == [1, 2]
        assert float(rows[0]["speedup"]) == 1.0

    def test_rows_report_median_of_interleaved_rounds(self, tmp_path, monkeypatch):
        # Solves alternate workers=1, workers=2 each round; the wall times
        # below give medians 3.0 and 4.0.
        walls = iter([5.0, 8.0, 1.0, 4.0, 3.0, 2.0, 2.0, 6.0, 4.0, 1.0])
        real_solve = cli._solve

        def fake_solve(*args):
            return replace(real_solve(*args), wall_time_s=next(walls))

        monkeypatch.setattr(cli, "_solve", fake_solve)
        assert BENCH_ROUNDS == 5
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=5))
        assert main(["bench", "--config", cfg, "--workers-list", "1,2",
                     "--out", str(out)]) == EXIT_OK
        with (out / "bench.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [float(r["wall_time_s"]) for r in rows] == [3.0, 4.0]
        assert [float(r["speedup"]) for r in rows] == [1.0, 0.75]
        assert all(float(r["t_residual_ms"]) > 0.0 for r in rows)

    def test_every_solve_checked_for_determinism(self, tmp_path, monkeypatch, capsys):
        calls = []
        real_solve = cli._solve

        def fake_solve(*args):
            report = real_solve(*args)
            calls.append(report)
            if len(calls) == 3:  # the second solve at one worker drifts
                report = replace(report, final_x=report.final_x + 1e-15)
            return report

        monkeypatch.setattr(cli, "_solve", fake_solve)
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=5))
        code = main(["bench", "--config", cfg, "--workers-list", "1,2"])
        assert code == EXIT_SOLVER_FAILURE
        assert "determinism-violation" in capsys.readouterr().err

    def test_projection_budget_failure_is_solver_failure(self, tmp_path, capsys):
        bad = small_benchmark_config(projection_max_sweeps=1)
        code = main(["bench", "--config", write_config(tmp_path, bad),
                     "--workers-list", "1,2"])
        assert code == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.strip())
        assert error["error"] == "solver-failure"
        assert error["detail"].startswith("iteration 0: projection did not reach")

    @pytest.mark.parametrize(
        "drift",
        [lambda h: h[:-1],
         lambda h: h[:-1] + (replace(h[-1], j_far=h[-1].j_far + 1),),
         lambda h: h[:-1] + (replace(h[-1], z_far=h[-1].z_far + 1e-15),),
         lambda h: h[:-1] + (replace(h[-1], res_s=h[-1].res_s + 1e-15),)],
        ids=["length", "index", "point", "residual"],
    )
    def test_history_drift_is_a_determinism_violation(self, tmp_path, monkeypatch,
                                                     capsys, drift):
        calls = []
        real_solve = cli._solve

        def fake_solve(*args):
            report = real_solve(*args)
            calls.append(report)
            if len(calls) == 4:  # the second solve at two workers drifts
                report = replace(report, history=drift(report.history))
            return report

        monkeypatch.setattr(cli, "_solve", fake_solve)
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=5))
        assert main(["bench", "--config", cfg, "--workers-list", "1,2"]) == (
            EXIT_SOLVER_FAILURE)
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "determinism-violation",
            "detail": "histories differ between workers=1 and workers=2"}

    @pytest.mark.parametrize(
        "overrides",
        [{"schedule": {"beta": {"kind": "constant", "value": 0.1}}}, {"x0": [2.0]}],
        ids=["schedule", "anchor"],
    )
    def test_inadmissible_run_is_invalid_config(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=5, **overrides))
        code = main(["bench", "--config", cfg, "--workers-list", "1,2"])
        assert code == EXIT_INVALID_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid-config"

    def test_empty_worker_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=2))
        assert main(["bench", "--config", cfg, "--workers-list", ""]) == EXIT_INVALID_CONFIG

    def test_malformed_worker_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=2))
        assert main(["bench", "--config", cfg, "--workers-list", "a,b"]) == EXIT_INVALID_CONFIG


class TestInlineParts:
    def test_scalar_monotone_profile(self, tmp_path, capsys):
        data = affine_vi_config()
        data["problem"] = {
            "preset": "cor5",
            "base": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
            "bifunctions": [
                {
                    "variant": "scalar_monotone",
                    "profile": {"kind": "affine", "slope": 1.0, "shift": 0.0},
                    "lo": -1.0,
                    "hi": 1.0,
                }
            ],
            "maps": [{"variant": "identity"}],
            "known_solution": {"kind": "interval", "lo": -1.0, "hi": 0.0},
        }
        data["max_iter"] = 200
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip())
        # the affine profile has its equilibrium set at the origin
        assert summary["reference_gap"] <= 1e-6 or summary["stop_reason"] == "budget"

    def test_section4_variant_tags(self, tmp_path, capsys):
        data = affine_vi_config()
        data["problem"] = {
            "preset": "cor5",
            "base": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
            "bifunctions": [{"variant": "section4", "xi": -0.5}],
            "maps": [{"variant": "section4", "c": 1.5}],
            "known_solution": {"kind": "interval", "lo": -1.0, "hi": -0.5},
        }
        data["max_iter"] = 50
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_OK
        json.loads(capsys.readouterr().out.strip())

    def test_negative_slope_rejected(self, tmp_path):
        data = affine_vi_config()
        data["problem"]["operators"] = []
        data["problem"]["bifunctions"] = [
            {
                "variant": "scalar_monotone",
                "profile": {"kind": "affine", "slope": -1.0, "shift": 0.0},
                "lo": -1.0,
                "hi": 1.0,
            }
        ]
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_INVALID_CONFIG


@pytest.mark.parametrize(
    "call, error",
    [(cli.run, ProjectionFailure),
     (lambda config: cli.bench(config, [1]), ProjectionFailure),
     (lambda config: cli.validate(replace(
         config, schedule={"r": {"kind": "constant", "value": 0.5}})), ValueError)],
    ids=["run", "bench", "validate"],
)
def test_subcommand_called_as_a_function_raises_a_solver_failure(capsys, call, error):
    # main alone turns a solver failure into its line and exit code 2.
    config = RunConfig.from_dict(small_benchmark_config(projection_max_sweeps=1))
    with pytest.raises(error):
        call(config)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "bench", "validate", "solve"])
def test_one_schedule_scan_per_invocation(tmp_path, monkeypatch, capsys, command):
    scans = []
    violations = ParamSchedule.violations

    def counted(self, *args):
        scans.append(args)
        return violations(self, *args)

    monkeypatch.setattr(ParamSchedule, "violations", counted)
    if command == "solve":
        family, sched, _ = build_section4(20, 30)
        solve(family, sched, SolverConfig(max_iter=5), [1.0])
    else:
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=5))
        flags = {"bench": ["--workers-list", "1,2"], "validate": ["--samples", "20"]}
        assert main([command, "--config", cfg, *flags.get(command, [])]) == EXIT_OK
    assert len(scans) == 1


@pytest.mark.parametrize(
    "path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name
)
def test_shipped_config_builds(path):
    config = load_config(path)
    built = cli.build_inputs(config, cli.resolve_workers(None, config))
    assert built.x0.size == built.family.base.dim


class Recording(dict):
    """A config object that records every key read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# One valid object per kind of every builder table, holding all its keys.
FULL_PARTS = {
    "_BASES": [{"kind": "box", "lo": [-1.0], "hi": [1.0]},
               {"kind": "ball", "center": [0.0], "radius": 1.0}],
    "_PROFILES": [{"kind": "affine", "slope": 1.0, "shift": 0.0}],
    "_BIFUNCTIONS": [{"variant": "zero"}, {"variant": "section4", "xi": 0.0},
                     scalar_monotone()],
    "_OPERATORS": [{"variant": "zero"},
                   {"variant": "affine", "gain": 1.0, "root": [0.5]}],
    "_MAPS": [{"variant": "identity"}, {"variant": "section4", "c": 1.5}],
    "_SOLUTIONS": [{"kind": "interval", "lo": -1.0, "hi": 0.0},
                   {"kind": "point", "value": [0.5]}],
    "_SEQUENCES": [{"kind": "constant", "value": 0.5},
                   {"kind": "inverse_offset", "offset": 2, "scale": 1.0}],
}


class TestKeyTables:
    """Each kind's keys are written twice, in its frozenset and in the
    reads of its builder; these tests keep the two the same."""

    @pytest.mark.parametrize("table", FULL_PARTS)
    def test_builders_read_exactly_their_keys(self, table):
        builders = getattr(cli, table)
        tag = "variant" if "variant" in FULL_PARTS[table][0] else "kind"
        assert sorted(part[tag] for part in FULL_PARTS[table]) == sorted(builders)
        for part in FULL_PARTS[table]:
            spec = Recording(part)
            cli._build(builders, spec, table, tag)
            assert spec.read == builders[part[tag]][1], part[tag]

    def test_root_reads_exactly_its_fields(self):
        raw = Recording(RunConfig(problem={}, x0=(1.0,)).to_dict())
        RunConfig.from_dict(raw)
        assert raw.read == set(RunConfig.__dataclass_fields__)

    @pytest.mark.parametrize("preset", cli.PRESET_NAMES)
    def test_problem_schedule_and_stop_read_exactly_their_keys(self, preset):
        if preset == "section4":
            problem = {"preset": preset, "N": 4, "M": 4}
        else:
            problem = {"preset": preset, "base": FULL_PARTS["_BASES"][0],
                       "bifunctions": [] if preset == "cor2" else [{"variant": "zero"}],
                       "operators": [{"variant": "zero"}],
                       "maps": [{"variant": "identity"}],
                       "known_solution": {"kind": "point", "value": [0.0]}}
        stops = [{"rule": "budget"}, {"rule": "residual", "tol": 1e-3},
                 {"rule": "tol_to_reference", "l": 6, "reference": [0.0]},
                 {"rule": "tol_to_reference", "tol": 1e-6, "reference": [0.0]}]
        for stop in stops:
            config = RunConfig(
                problem=Recording(problem), x0=(0.5,), stop=Recording(stop),
                schedule=Recording({"alpha": FULL_PARTS["_SEQUENCES"][1],
                                    "beta": FULL_PARTS["_SEQUENCES"][0],
                                    "r": FULL_PARTS["_SEQUENCES"][0], "omega": 1.0}),
            )
            cli._assemble(config, 1)
            assert config.problem.read == cli._PROBLEM_KEYS[preset]
            assert config.schedule.read == cli._SCHEDULE_KEYS
            assert config.stop.read == cli._STOP_KEYS[stop["rule"]]
