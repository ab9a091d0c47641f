import csv
import json
import math
from dataclasses import replace

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
        ],
        ids=[
            "x0-1.0", "x0-None", "max_iter-5", "workers-2", "projection_tol-x",
            "x0-inf", "x0-nan", "stop-string", "residual-without-tol",
            "tol_to_reference-without-tol", "tol-zero", "alpha-number",
            "constant-without-value", "b-string", "base-list", "xi-list",
        ],
    )
    def test_malformed_value_is_invalid_config(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, small_benchmark_config(**overrides))
        assert main(["run", "--config", cfg]) == EXIT_INVALID_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "invalid-config"
        assert f"'{key}'" in error["detail"]

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
            assert float(row[2]) == 0.0  # exact cuts in algorithm2

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

    def test_history_flag_off(self, tmp_path, capsys):
        out = tmp_path / "nohist"
        code = main([
            "run",
            "--config", write_config(tmp_path, small_benchmark_config()),
            "--out", str(out),
            "--history", "off",
        ])
        assert code == EXIT_OK
        assert not (out / "history.csv").exists()

    def test_affine_vi_reaches_solution(self, tmp_path, capsys):
        code = main(["run", "--config", write_config(tmp_path, affine_vi_config())])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["stop_reason"] == "tol_to_reference"
        assert summary["reference_gap"] <= 1e-6

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

    def test_workers_flag_beats_config_and_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDPROJ_WORKERS", "3")
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=3))
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.strip())["workers"] == 3
        assert main(["run", "--config", cfg, "--workers", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.strip())["workers"] == 2

    def test_bad_env_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYBRIDPROJ_WORKERS", "many")
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=1))
        assert main(["run", "--config", cfg]) == EXIT_INVALID_CONFIG


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
            schedule={"r": {"kind": "constant", "value": 3.0}, "d": 3.0, "e": 3.0}
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
            schedule={"r": {"kind": "constant", "value": 0.5}, "d": 0.5, "e": 0.5}
        )
        cfg = write_config(tmp_path, data)
        assert main(["validate", "--config", cfg]) == EXIT_SOLVER_FAILURE
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "solver-failure"
        assert main(["run", "--config", cfg]) == EXIT_SOLVER_FAILURE


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
        real_solve = cli.solve

        def fake_solve(*args):
            return replace(real_solve(*args), wall_time_s=next(walls))

        monkeypatch.setattr(cli, "solve", fake_solve)
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
        real_solve = cli.solve

        def fake_solve(*args):
            report = real_solve(*args)
            calls.append(report)
            if len(calls) == 3:  # the second solve at one worker drifts
                report = replace(report, final_x=report.final_x + 1e-15)
            return report

        monkeypatch.setattr(cli, "solve", fake_solve)
        cfg = write_config(tmp_path, small_benchmark_config(max_iter=5))
        code = main(["bench", "--config", cfg, "--workers-list", "1,2"])
        assert code == EXIT_SOLVER_FAILURE
        assert "determinism-violation" in capsys.readouterr().err

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
