"""Batch front-end: config ingestion and the run, validate, and bench
subcommands.

A run is described by one JSON config file. The problem is either the
built-in benchmark preset ("section4" with sizes N and M) or a reduced-scheme
preset ("cor1" .. "cor5") with inline parts built from variant tags. Exit
codes: 0 success, 1 invalid config, 2 solver failure, 3 validation failure.
The subcommands raise ConfigError for a bad config; ``main`` reports it.
Worker-count precedence: --workers flag, then the config field, then the
HYBRIDPROJ_WORKERS environment variable, then 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .geometry import Ball, Box, InfeasibleSetError, ProjectionFailure, as_vector
from .operators import (
    ScalarMonotoneBifunction,
    ZeroBifunction,
    affine_operator,
    gep_chunk_evaluator,
    identity_map,
    map_chunk_evaluator,
    verify_family,
    zero_operator,
)
from .parallel import furthest_candidate
from .problems import (
    PRESET_NAMES,
    IntervalSolution,
    PointSolution,
    build_section4,
    preset,
    section4_bifunction,
    section4_map,
)
from .solver import (
    ParamSchedule,
    Report,
    ResidualBelow,
    SolverConfig,
    ToleranceToReference,
    solve,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "load_config",
    "build_inputs",
    "run",
    "validate",
    "bench",
    "main",
]

WORKERS_ENV_VAR = "HYBRIDPROJ_WORKERS"
# Solves per worker count in ``bench``; odd, so the median is one solve.
BENCH_ROUNDS = 5
HISTORY_COLUMNS = (
    "n",
    "x_norm",
    "eps_n",
    "res_y",
    "res_z",
    "res_S",
    "t_phase1_ms",
    "t_phase3_ms",
    "t_project_ms",
)
EXIT_OK = 0
EXIT_INVALID_CONFIG = 1
EXIT_SOLVER_FAILURE = 2
EXIT_VALIDATION_FAILURE = 3


class ConfigError(ValueError):
    """The config file is malformed or describes an inadmissible run."""


def _is_number(value, integer: bool = False) -> bool:
    """A number that converts to a finite float; bools are not numbers."""
    kinds = int if integer else (int, float)
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class RunConfig:
    """Normalized run description; serializes losslessly to JSON."""

    problem: dict
    x0: tuple[float, ...]
    mode: str | None = None
    schedule: dict | None = None
    stop: dict | None = None
    max_iter: int = 1000
    workers: int | None = None
    projection_tol: float = 1e-12
    projection_max_sweeps: int = 10_000
    record_history: bool = False
    seed: int = 0
    out: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in raw or not isinstance(raw["problem"], dict):
            raise ConfigError("config requires a 'problem' object")
        if "x0" not in raw:
            raise ConfigError("config requires the anchor 'x0'")
        x0 = raw["x0"]
        if _is_number(x0):
            x0 = [x0]
        if not isinstance(x0, (list, tuple)) or not x0 or not all(map(_is_number, x0)):
            raise ConfigError(
                f"'x0' must be a number or a nonempty list of them, got {raw['x0']!r}"
            )
        for key in ("schedule", "stop"):
            if not isinstance(raw.get(key, {}), (dict, type(None))):
                raise ConfigError(f"{key!r} must be an object, got {raw[key]!r}")
        for key in ("max_iter", "workers", "projection_max_sweeps", "seed",
                    "projection_tol"):
            value = raw.get(key, 0)
            integer = key != "projection_tol"
            if not (_is_number(value, integer) or key == "workers" and value is None):
                kind = "an integer" if integer else "a number"
                raise ConfigError(f"{key!r} must be {kind}, got {value!r}")
        data = dict(raw)
        data["x0"] = tuple(float(v) for v in x0)
        try:
            cfg = cls(**data)
        except TypeError as err:
            raise ConfigError(str(err)) from err
        if cfg.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if cfg.workers is not None and cfg.workers < 1:
            raise ConfigError("workers must be positive")
        return cfg

    def to_dict(self) -> dict:
        data = asdict(self)
        data["x0"] = list(self.x0)
        return data


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return RunConfig.from_dict(raw)


def _read(spec: dict, key: str, convert=float, default=None):
    """``convert(spec[key])``, or ``default`` when ``key`` is absent.

    Without a default the entry is required. A missing entry or a failed
    conversion is a ConfigError that names ``key``.
    """
    if key not in spec:
        if default is None:
            raise ConfigError(f"missing {key!r}")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"{key!r}: {err}") from err


def _positive(value) -> float:
    if not float(value) > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return float(value)


def _build(builders: dict, spec, key: str, tag: str = "variant"):
    """Build config part ``key`` from its object with the builder its tag names."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{key!r} must be an object, got {spec!r}")
    kind = spec.get(tag)
    if kind not in builders:
        raise ConfigError(f"{key!r} has unknown {tag} {kind!r}")
    return builders[kind](spec)


def _affine_profile(spec: dict):
    slope = _read(spec, "slope", float, 1.0)
    shift = _read(spec, "shift", float, 0.0)
    if slope < 0:
        raise ConfigError("affine profile must be nondecreasing (slope >= 0)")
    return lambda z: slope * z + shift


def _constant(spec: dict):
    value = _read(spec, "value")
    return lambda n: value


def _inverse_offset(spec: dict):
    offset = _read(spec, "offset", _positive, 2.0)
    scale = _read(spec, "scale", float, 1.0)
    return lambda n: scale / (n + offset)


# Builders of the inline parts, by the value of their tag.
_BASES = {
    "box": lambda s: Box(lo=_read(s, "lo", as_vector), hi=_read(s, "hi", as_vector)),
    "ball": lambda s: Ball(center=_read(s, "center", as_vector),
                           radius=_read(s, "radius")),
}
_BIFUNCTIONS = {
    "zero": lambda s: ZeroBifunction(),
    "section4": lambda s: section4_bifunction(_read(s, "xi")),
    "scalar_monotone": lambda s: ScalarMonotoneBifunction(
        profile=_build({"affine": _affine_profile}, s.get("profile", {}),
                       "profile", "kind"),
        lo=_read(s, "lo"), hi=_read(s, "hi"),
    ),
}
_OPERATORS = {
    "zero": lambda s: zero_operator(),
    "affine": lambda s: affine_operator(_read(s, "gain"), _read(s, "root", as_vector)),
}
_MAPS = {
    "identity": lambda s: identity_map(),
    "section4": lambda s: section4_map(_read(s, "c")),
}
_SOLUTIONS = {
    "interval": lambda s: IntervalSolution(lo=_read(s, "lo"), hi=_read(s, "hi")),
    "point": lambda s: PointSolution(point=_read(s, "value", as_vector)),
}
_SEQUENCES = {"constant": _constant, "inverse_offset": _inverse_offset}


def _apply_schedule_overrides(sched: ParamSchedule, overrides: dict) -> ParamSchedule:
    """Replace the schedule fields the config names.

    ``"k"`` is the sequence of the pseudocontraction inequality, which the
    cut slack uses; for cor4 that is the squared sequence.
    """
    unknown = set(overrides) - {"alpha", "beta", "r", "k", "omega", "b", "d", "e"}
    if unknown:
        raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
    updates: dict[str, Any] = {}
    for name, field in (("alpha", "alpha_fn"), ("beta", "beta_fn"),
                        ("r", "r_fn"), ("k", "k_fn")):
        if name in overrides:
            updates[field] = _build(_SEQUENCES, overrides[name], name, "kind")
    for name in ("omega", "b", "d", "e"):
        if name in overrides:
            updates[name] = _read(overrides, name)
    return replace(sched, **updates)


@dataclass(frozen=True)
class BuildResult:
    family: Any
    schedule: ParamSchedule
    solver_config: SolverConfig
    x0: np.ndarray
    reference: np.ndarray | None


def build_inputs(config: RunConfig, workers: int,
                 check_schedule: bool = True) -> BuildResult:
    """Turn a config into solver inputs; raises ConfigError on bad data.

    This is where reading a config fails: a malformed entry, a dimension
    mismatch, an anchor outside the base set or an inadmissible run is a
    ConfigError that names its cause.
    With ``check_schedule=False`` the admissibility conditions are left to
    the caller (the validate subcommand reports them instead of refusing to
    build).
    """
    problem = config.problem
    name = problem.get("preset")
    try:
        if name == "section4":
            family, sched, _ = build_section4(
                _read(problem, "N", int), _read(problem, "M", int)
            )
            solver_cfg = SolverConfig(mode="algorithm2")
        elif name in PRESET_NAMES:
            parts = {
                key: [_build(builders, s, key) for s in _read(problem, key, list, [])]
                for key, builders in (("bifunctions", _BIFUNCTIONS),
                                      ("operators", _OPERATORS), ("maps", _MAPS))
            }
            solution = problem.get("known_solution")
            family, solver_cfg, sched = preset(
                name,
                base=_build(_BASES, problem.get("base", {}), "base", "kind"),
                known_solution=None if solution is None else _build(
                    _SOLUTIONS, solution, "known_solution", "kind"),
                omega=_read(problem, "omega") if "omega" in problem else None,
                **parts,
            )
        else:
            raise ConfigError(f"unknown problem preset {name!r}")
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"invalid problem description: {err}") from err

    if config.schedule:
        sched = _apply_schedule_overrides(sched, config.schedule)

    x0 = as_vector(list(config.x0))
    if x0.size != family.base.dim:
        raise ConfigError(
            f"'x0' has dimension {x0.size}; "
            f"the base set has dimension {family.base.dim}"
        )
    if not family.base.contains(x0, 1e-9):
        raise ConfigError(f"anchor 'x0' {list(config.x0)} lies outside the base set")
    reference = None
    if family.known_solution is not None:
        reference = family.known_solution.project(x0)

    stop = None
    spec = config.stop or {"rule": "budget"}
    rule = spec.get("rule")
    if rule == "tol_to_reference":
        if "l" in spec:
            tol = _read(spec, "l", lambda digits: _positive(10.0 ** -float(digits)))
        else:
            tol = _read(spec, "tol", _positive)
        # Without a known solution the reference is required.
        ref_v = _read(spec, "reference", as_vector, reference)
        stop = ToleranceToReference(reference=ref_v, tol=tol)
    elif rule == "residual":
        stop = ResidualBelow(tol=_read(spec, "tol", _positive))
    elif rule != "budget":
        raise ConfigError(f"unknown stop rule {rule!r}")

    try:
        solver_cfg = replace(
            solver_cfg,
            mode=config.mode or solver_cfg.mode,
            stop=stop,
            max_iter=config.max_iter,
            projection_tol=config.projection_tol,
            projection_max_sweeps=config.projection_max_sweeps,
            workers=workers,
            record_history=config.record_history,
        )
        solver_cfg.check_against(family)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if check_schedule:
        issues = sched.violations(family.kappa, family.alpha, max(config.max_iter, 1))
        if issues:
            raise ConfigError("inadmissible schedule: " + "; ".join(issues))
    return BuildResult(
        family=family, schedule=sched, solver_config=solver_cfg, x0=x0,
        reference=reference,
    )


def resolve_workers(flag: int | None, config: RunConfig) -> int:
    if flag is not None:
        return flag
    if config.workers is not None:
        return config.workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError as err:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer") from err
        if value < 1:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be positive")
        return value
    return 1


def _summary(report: Report, reference: np.ndarray | None) -> dict:
    summary = {
        "final_x": report.final_x.tolist(),
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "wall_time_s": report.wall_time_s,
        "workers": report.workers,
    }
    if reference is not None:
        summary["reference_gap"] = float(
            np.linalg.norm(report.final_x - reference)
        )
    return summary


def _write_history_csv(path: Path, report: Report) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_COLUMNS)
        for rec in report.history:
            writer.writerow(
                [rec.n]
                + [
                    "%.17g" % value
                    for value in (
                        float(np.linalg.norm(rec.x_prev)),
                        rec.eps,
                        rec.res_y,
                        rec.res_z,
                        rec.res_s if rec.res_s is not None else math.nan,
                        rec.t_phase1_ms,
                        rec.t_phase3_ms,
                        rec.t_project_ms,
                    )
                ]
            )


def _emit_error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def run(config: RunConfig, *, workers: int | None = None,
        out: str | None = None, history: bool | None = None) -> int:
    """Execute one solve and write the summary (and optional history CSV)."""
    if history is not None:
        config = replace(config, record_history=history)
    built = build_inputs(config, resolve_workers(workers, config))
    try:
        report = solve(built.family, built.schedule, built.solver_config, built.x0)
    except (ProjectionFailure, InfeasibleSetError, ValueError, RuntimeError) as err:
        _emit_error("solver-failure", str(err))
        return EXIT_SOLVER_FAILURE

    summary = _summary(report, built.reference)
    print(json.dumps(summary))
    out_dir = out if out is not None else config.out
    if out_dir:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        if built.solver_config.record_history:
            _write_history_csv(target / "history.csv", report)
    return EXIT_OK


def validate(config: RunConfig, *, samples: int = 200) -> int:
    """Run the model audits for the configured problem.

    Checks the schedule admissibility conditions, every member inequality
    via the family audit, and (when an analytic solution is attached)
    that sampled solution points are fixed by every resolvent and mapping,
    evaluated through the family kernels. A kernel error is a solver
    failure, as in ``run``.
    """
    built = build_inputs(config, resolve_workers(None, config), check_schedule=False)

    family = built.family
    schedule_issues = built.schedule.violations(
        family.kappa, family.alpha, max(config.max_iter, 1)
    )
    report = verify_family(family, samples=samples, rng_seed=config.seed)
    failures = [asdict(e) for e in report.failures()]

    # The solver's res_y / res_S reduction, taken at solution points.
    solution_gap = 0.0
    if family.known_solution is not None:
        rng = np.random.default_rng(config.seed)
        r0 = built.schedule.r_fn(0)
        try:
            for _ in range(10):
                u = family.known_solution.project(family.base.sample(rng))
                for evaluate, count, moved in (
                    (gep_chunk_evaluator(family, r0, u), family.n_geps,
                     family.gep_moved(r0, u)),
                    (map_chunk_evaluator(family, 1, u), family.n_maps,
                     family.map_moved(1, u)),
                ):
                    if count:
                        far = furthest_candidate(evaluate, count, u, fixed=u,
                                                 moved=moved)
                        solution_gap = max(solution_gap, far.distance)
        except (ValueError, RuntimeError) as err:
            _emit_error("solver-failure", str(err))
            return EXIT_SOLVER_FAILURE

    output = {
        "schedule_violations": schedule_issues,
        "members_checked": report.members_checked,
        "members_total": report.members_total,
        "member_failures": failures,
        "solution_fixed_point_max_gap": solution_gap,
        "passed": not schedule_issues and report.ok and solution_gap <= 1e-10,
    }
    print(json.dumps(output))
    return EXIT_OK if output["passed"] else EXIT_VALIDATION_FAILURE


def _history_rows_match(a: Report, b: Report) -> bool:
    if len(a.history) != len(b.history):
        return False
    for ra, rb in zip(a.history, b.history):
        if ra.n != rb.n or ra.i_far != rb.i_far or ra.j_far != rb.j_far:
            return False
        for field in ("x_prev", "x_new", "y_far", "z_far"):
            if not np.array_equal(getattr(ra, field), getattr(rb, field)):
                return False
        for field in ("eps", "res_y", "res_z", "res_s"):
            if getattr(ra, field) != getattr(rb, field):
                return False
    return True


def bench(config: RunConfig, worker_list: Sequence[int],
          *, out: str | None = None) -> int:
    """Repeat the configured run per worker count and tabulate timings.

    Each worker count is solved ``BENCH_ROUNDS`` times, the counts taking
    turns round by round, and its row reports the solve with the median
    wall time; ``speedup`` divides the first row's median by each row's.
    Final iterates (and histories, when recorded) must be identical across
    every solve; timing columns are measured, never compared.
    """
    worker_list = list(worker_list)
    if not worker_list:
        raise ConfigError("bench needs a nonempty worker list")
    if any(w < 1 for w in worker_list):
        raise ConfigError("worker counts must be positive")

    built = build_inputs(config, worker_list[0])
    configs = [replace(built.solver_config, workers=w) for w in worker_list]
    runs: list[list[Report]] = [[] for _ in worker_list]
    for _ in range(BENCH_ROUNDS):
        for solver_cfg, solves in zip(configs, runs):
            try:
                solves.append(solve(built.family, built.schedule, solver_cfg,
                                    built.x0))
            except (ProjectionFailure, InfeasibleSetError, ValueError,
                    RuntimeError) as err:
                _emit_error("solver-failure", str(err))
                return EXIT_SOLVER_FAILURE

    head = runs[0][0]
    for other in (report for solves in runs for report in solves):
        if not np.array_equal(head.final_x, other.final_x):
            _emit_error(
                "determinism-violation",
                f"final iterates differ between workers={head.workers} "
                f"and workers={other.workers}",
            )
            return EXIT_SOLVER_FAILURE
        if config.record_history and not _history_rows_match(head, other):
            _emit_error(
                "determinism-violation",
                f"histories differ between workers={head.workers} "
                f"and workers={other.workers}",
            )
            return EXIT_SOLVER_FAILURE

    reports = [sorted(solves, key=lambda r: r.wall_time_s)[BENCH_ROUNDS // 2]
               for solves in runs]
    rows = []
    for report in reports:
        rows.append(
            {
                "workers": report.workers,
                "iterations": report.iterations,
                "wall_time_s": report.wall_time_s,
                "t_phase1_ms": sum(r.t_phase1_ms for r in report.history),
                "t_phase3_ms": sum(r.t_phase3_ms for r in report.history),
                "t_project_ms": sum(r.t_project_ms for r in report.history),
                "t_residual_ms": sum(r.t_residual_ms for r in report.history),
                "speedup": reports[0].wall_time_s / report.wall_time_s,
            }
        )
    header = f"{'workers':>8} {'iters':>8} {'wall_s':>12} {'speedup':>9}"
    print(header)
    for row in rows:
        print(
            f"{row['workers']:>8} {row['iterations']:>8} "
            f"{row['wall_time_s']:>12.6f} {row['speedup']:>9.3f}"
        )
    if out:
        target = Path(out)
        target.mkdir(parents=True, exist_ok=True)
        with (target / "bench.csv").open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK


def _parse_worker_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad worker list {text!r}") from err


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridproj",
        description="Parallel hybrid-projection solver for common solutions "
        "of equilibrium and fixed-point problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured solve")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--history", choices=("on", "off"), default=None)

    p_val = sub.add_parser("validate", help="audit the configured problem")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--samples", type=int, default=200)

    p_bench = sub.add_parser("bench", help="time the run across worker counts")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--workers-list", required=True)
    p_bench.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "run":
            history = None if args.history is None else args.history == "on"
            return run(config, workers=args.workers, out=args.out, history=history)
        if args.command == "validate":
            return validate(config, samples=args.samples)
        worker_list = _parse_worker_list(args.workers_list)
        return bench(config, worker_list, out=args.out)
    except ConfigError as err:
        _emit_error("invalid-config", str(err))
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
