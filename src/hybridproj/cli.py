"""Batch front-end: config ingestion and the run, validate, and bench
subcommands.

A run is described by one JSON config file. The problem is either the
built-in benchmark preset ("section4" with sizes N and M) or a reduced-scheme
preset ("cor1" .. "cor5") with inline parts built from variant tags. Exit
codes: 0 success, 1 invalid config, 2 solver failure, 3 validation failure.
Every config value, at any depth, is read by ``_read``, which names its key
in each refusal, spelling the refused value as JSON; every config object
refuses a key outside the frozenset of its kind. ``run`` and ``bench`` pass
``checked_inputs``, the gate of ``solve``, once; ``validate`` reports the
schedule's violations instead. The subcommands raise ConfigError for a bad
config or flag, and let a solver failure (any other ValueError or
RuntimeError) propagate; ``main`` reports both. Each run setting has one
source: workers come from --workers, then the config's ``workers``, then 1;
history from the config's ``record_history``; the output directory from
--out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .geometry import Ball, Box, as_vector
from .operators import (
    ScalarMonotoneBifunction,
    ZeroBifunction,
    affine_operator,
    identity_map,
    verify_family,
    zero_operator,
)
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
    _solve,
    checked_anchor,
    checked_inputs,
    mapping_phase,
    resolvent_phase,
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


def _json(value) -> str:
    """A refused value as JSON spells it (by repr where JSON has no form)."""
    return json.dumps(value, default=repr)


# The kinds of config value. JSON has ints, floats, bools, strings, lists,
# objects and null. Numbers are tested by exact type, so a bool (an int
# subclass) is never a number and a float never an integer.
def _number(value) -> float:
    """A JSON int or float, finite (the NaN and Infinity of JSON readers fail)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {_json(value)}")
    return float(value)


def _positive(value) -> float:
    if not _number(value) > 0:
        raise ValueError(f"must be positive, got {_json(value)}")
    return float(value)


def _integer(value, least: float = -math.inf) -> int:
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {_json(value)}")
    if value < least:
        raise ValueError(f"must be at least {least}, got {value}")
    return value


def _vector(value) -> np.ndarray:
    """A number or a nonempty list of numbers, as a float64 vector."""
    items = value if isinstance(value, list) else [value]
    try:
        return as_vector([_number(item) for item in items])
    except ValueError:
        raise ValueError("must be a number or a nonempty list of numbers, "
                         f"got {_json(value)}") from None


def _kind(kind: type, name: str):
    def check(value):
        if not isinstance(value, kind):
            raise ValueError(f"must be {name}, got {_json(value)}")
        return value
    return check


def _or_none(convert):
    return lambda value: None if value is None else convert(value)


_flag = _kind(bool, "true or false")
_list = _kind(list, "a list")
_object = _kind(dict, "an object")


def _read(spec: dict, key: str, convert=_number, default=MISSING):
    """``convert(spec[key])``, or ``default`` when ``key`` is absent.

    Without a default the entry is required. A missing entry or a failed
    conversion is a ConfigError that names ``key``.
    """
    if key not in spec:
        if default is MISSING:
            raise ConfigError(f"missing {key!r}")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"{key!r}: {err}") from err


# How ``RunConfig.from_dict`` reads each field; ``SolverConfig`` owns its ranges.
_FIELD_READERS = {
    "problem": _object,
    "x0": lambda value: tuple(_vector(value).tolist()),
    "schedule": _or_none(_object),
    "stop": _or_none(_object),
    "max_iter": _integer,
    # bench never builds a SolverConfig from this count.
    "workers": _or_none(lambda value: _integer(value, 1)),
    "projection_tol": _number,
    "projection_max_sweeps": _integer,
    "record_history": _flag,
    "seed": lambda value: _integer(value, 0),
}


@dataclass(frozen=True)
class RunConfig:
    """Normalized run description; serializes losslessly to JSON."""

    problem: dict
    x0: tuple[float, ...]
    schedule: dict | None = None
    stop: dict | None = None
    max_iter: int = SolverConfig.max_iter
    workers: int | None = None
    projection_tol: float = SolverConfig.projection_tol
    projection_max_sweeps: int = SolverConfig.projection_max_sweeps
    record_history: bool = SolverConfig.record_history
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        fields = cls.__dataclass_fields__
        if not raw.keys() <= fields.keys():
            raise _unknown(raw, fields.keys(), "config")
        return cls(**{key: _read(raw, key, _FIELD_READERS[key], field.default)
                      for key, field in fields.items()})

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


def _unknown(spec: dict, keys, name: str) -> ConfigError:
    """The refusal of ``spec``'s keys outside ``keys``."""
    return ConfigError(f"unknown {name} keys: {sorted(spec.keys() - keys)}")


def _build(builders: dict, spec, key: str, tag: str = "variant"):
    """Build config part ``key`` from its object with the builder its tag
    names, once every key of the object is one of that kind's."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{key!r} must be an object, got {_json(spec)}")
    kind = spec.get(tag)
    if kind not in builders:
        raise ConfigError(f"{key!r} has unknown {tag} {_json(kind)}")
    build, keys = builders[kind]
    if not keys.issuperset(spec):
        raise _unknown(spec, keys, key)
    return build(spec)


def _affine_profile(spec: dict):
    slope = _read(spec, "slope", default=1.0)
    shift = _read(spec, "shift", default=0.0)
    if slope < 0:
        raise ConfigError("affine profile must be nondecreasing (slope >= 0)")
    return lambda z: slope * z + shift


def _constant(spec: dict):
    value = _read(spec, "value")
    return lambda n: value


def _inverse_offset(spec: dict):
    offset = _read(spec, "offset", _positive, 2.0)
    scale = _read(spec, "scale", default=1.0)
    return lambda n: scale / (n + offset)


# Builders of the inline parts, by the value of their tag, each with the
# keys its object may hold, tag included.
_BASES = {
    "box": (lambda s: Box(lo=_read(s, "lo", _vector), hi=_read(s, "hi", _vector)),
            frozenset({"kind", "lo", "hi"})),
    "ball": (lambda s: Ball(center=_read(s, "center", _vector),
                            radius=_read(s, "radius")),
             frozenset({"kind", "center", "radius"})),
}
_PROFILES = {"affine": (_affine_profile, frozenset({"kind", "slope", "shift"}))}
_BIFUNCTIONS = {
    "zero": (lambda s: ZeroBifunction(), frozenset({"variant"})),
    "section4": (lambda s: section4_bifunction(_read(s, "xi")),
                 frozenset({"variant", "xi"})),
    "scalar_monotone": (lambda s: ScalarMonotoneBifunction(
        profile=_build(_PROFILES, s.get("profile", {}), "profile", "kind"),
        lo=_read(s, "lo"), hi=_read(s, "hi"),
    ), frozenset({"variant", "profile", "lo", "hi"})),
}
_OPERATORS = {
    "zero": (lambda s: zero_operator(), frozenset({"variant"})),
    "affine": (lambda s: affine_operator(_read(s, "gain"), _read(s, "root", _vector)),
               frozenset({"variant", "gain", "root"})),
}
_MAPS = {
    "identity": (lambda s: identity_map(), frozenset({"variant"})),
    "section4": (lambda s: section4_map(_read(s, "c")), frozenset({"variant", "c"})),
}
_SOLUTIONS = {
    "interval": (lambda s: IntervalSolution(lo=_read(s, "lo"), hi=_read(s, "hi")),
                 frozenset({"kind", "lo", "hi"})),
    "point": (lambda s: PointSolution(point=_read(s, "value", _vector)),
              frozenset({"kind", "value"})),
}
_SEQUENCES = {
    "constant": (_constant, frozenset({"kind", "value"})),
    "inverse_offset": (_inverse_offset, frozenset({"kind", "offset", "scale"})),
}
# The keys of the objects that ``_assemble`` reads itself: the schedule, the
# problem by preset and the stop by rule.
_SCHEDULE_KEYS = frozenset({"alpha", "beta", "r", "omega"})
_PROBLEM_KEYS = {
    name: frozenset({"preset", "N", "M"} if name == "section4" else
                    {"preset", "base", "bifunctions", "operators", "maps",
                     "known_solution"})
    for name in PRESET_NAMES
}
_STOP_KEYS = {
    "tol_to_reference": frozenset({"rule", "l", "tol", "reference"}),
    "residual": frozenset({"rule", "tol"}),
    "budget": frozenset({"rule"}),
}


def _apply_schedule_overrides(sched: ParamSchedule, overrides: dict) -> ParamSchedule:
    """Replace the schedule fields the config names; ``k_n`` is the
    family's own and cannot be overridden."""
    if not _SCHEDULE_KEYS.issuperset(overrides):
        raise _unknown(overrides, _SCHEDULE_KEYS, "schedule")
    updates: dict[str, Any] = {}
    for name in ("alpha", "beta", "r"):
        if name in overrides:
            updates[f"{name}_fn"] = _build(_SEQUENCES, overrides[name], name, "kind")
    if "omega" in overrides:
        updates["omega"] = _read(overrides, "omega")
    return replace(sched, **updates)


@dataclass(frozen=True)
class BuildResult:
    family: Any
    schedule: ParamSchedule
    solver_config: SolverConfig
    x0: np.ndarray
    reference: np.ndarray | None


def _assemble(config: RunConfig, workers: int) -> BuildResult:
    """Turn a config into solver inputs that have not passed a gate yet;
    a malformed entry is a ConfigError that names its cause."""
    problem = config.problem
    name = problem.get("preset")
    if name not in _PROBLEM_KEYS:
        raise ConfigError(f"unknown problem preset {_json(name)}")
    if not _PROBLEM_KEYS[name].issuperset(problem):
        raise _unknown(problem, _PROBLEM_KEYS[name], "problem")
    try:
        if name == "section4":
            family, sched, _ = build_section4(
                _read(problem, "N", _integer), _read(problem, "M", _integer)
            )
        else:
            parts = {
                key: [_build(builders, s, key) for s in _read(problem, key, _list, [])]
                for key, builders in (("bifunctions", _BIFUNCTIONS),
                                      ("operators", _OPERATORS), ("maps", _MAPS))
            }
            solution = problem.get("known_solution")
            family, _, sched = preset(
                name,
                base=_build(_BASES, problem.get("base", {}), "base", "kind"),
                known_solution=None if solution is None else _build(
                    _SOLUTIONS, solution, "known_solution", "kind"),
                **parts,
            )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"invalid problem description: {err}") from err

    if config.schedule:
        sched = _apply_schedule_overrides(sched, config.schedule)

    x0 = as_vector(list(config.x0))
    reference = None
    if family.known_solution is not None:
        reference = family.known_solution.project(x0)
        if reference.size != family.base.dim:
            raise ConfigError(f"'known_solution' has dimension {reference.size}; "
                              f"the base set has dimension {family.base.dim}")

    stop = None
    spec = config.stop or {"rule": "budget"}
    rule = spec.get("rule")
    if rule not in _STOP_KEYS:
        raise ConfigError(f"unknown stop rule {_json(rule)}")
    if not _STOP_KEYS[rule].issuperset(spec):
        raise _unknown(spec, _STOP_KEYS[rule], "stop")
    if rule == "tol_to_reference":
        if "l" in spec and "tol" in spec:
            raise ConfigError("stop: 'l' and 'tol' exclude each other")
        if "l" in spec:
            tol = _read(spec, "l", lambda digits: _positive(10.0 ** -_number(digits)))
        else:
            tol = _read(spec, "tol", _positive)
        # Without a known solution the reference is required.
        ref_v = _read(spec, "reference", _vector,
                      MISSING if reference is None else reference)
        stop = ToleranceToReference(reference=ref_v, tol=tol)
    elif rule == "residual":
        stop = ResidualBelow(tol=_read(spec, "tol", _positive))

    try:
        solver_cfg = SolverConfig(
            stop=stop,
            max_iter=config.max_iter,
            projection_tol=config.projection_tol,
            projection_max_sweeps=config.projection_max_sweeps,
            workers=workers,
            record_history=config.record_history,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return BuildResult(
        family=family, schedule=sched, solver_config=solver_cfg, x0=x0,
        reference=reference,
    )


def build_inputs(config: RunConfig, workers: int) -> BuildResult:
    """Turn a config into solver inputs that passed ``checked_inputs``, the
    gate of ``solve``; a refusal is a ConfigError that names its cause."""
    built = _assemble(config, workers)
    try:
        checked_inputs(built.family, built.schedule, built.solver_config, built.x0)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return built


def resolve_workers(flag: int | None, config: RunConfig) -> int:
    """The --workers flag, then the config's ``workers``, then 1."""
    return next(w for w in (flag, config.workers, 1) if w is not None)


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
            res_s = math.nan if rec.res_s is None else rec.res_s
            values = (float(np.linalg.norm(rec.x_prev)), rec.eps, rec.res_y,
                      rec.res_z, res_s, rec.t_phase1_ms, rec.t_phase3_ms,
                      rec.t_project_ms)
            writer.writerow([rec.n] + ["%.17g" % value for value in values])


def _emit_error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _out_dir(out: str | None) -> Path | None:
    """Create the output directory before any solve; None without one."""
    if not out:
        return None
    target = Path(out)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot use output directory {out!r}: {err}") from err
    return target


def run(config: RunConfig, *, workers: int | None = None, out: str | None = None) -> int:
    """Execute one solve and write the summary (and optional history CSV)."""
    built = build_inputs(config, resolve_workers(workers, config))
    target = _out_dir(out)
    report = _solve(built.family, built.schedule, built.solver_config, built.x0)
    summary = _summary(report, built.reference)
    print(json.dumps(summary))
    if target is not None:
        (target / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        if built.solver_config.record_history:
            _write_history_csv(target / "history.csv", report)
    return EXIT_OK


def validate(config: RunConfig, *, samples: int = 200) -> int:
    """Run the model audits for the configured problem.

    Checks the schedule admissibility conditions, every member inequality
    via the family audit, and (when an analytic solution is attached)
    that sampled solution points are fixed by every resolvent and mapping,
    evaluated through the family kernels. An error in an audit or a kernel
    propagates as a solver failure, as in ``run``.
    """
    if samples < 1:
        raise ConfigError(f"--samples must be positive, got {samples}")
    built = _assemble(config, resolve_workers(None, config))
    family = built.family
    try:
        checked_anchor(family, built.solver_config, built.x0)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    schedule_issues = built.schedule.violations(
        family.kappa, family.alpha, max(config.max_iter, 1), family.k_seq
    )
    report = verify_family(family, samples=samples, rng_seed=config.seed)
    failures = [asdict(e) for e in report.failures()]

    # The solver's res_y / res_S reduction, taken at solution points.
    gaps = [0.0]
    if family.known_solution is not None:
        rng = np.random.default_rng(config.seed)
        r0 = built.schedule.r_fn(0)
        for _ in range(10):
            u = family.known_solution.project(family.base.sample(rng))
            gaps.append(resolvent_phase(family, r0, u).distance)
            gaps.append(mapping_phase(family, 1, u, u).distance)

    output = {
        "schedule_violations": schedule_issues,
        "members_checked": report.members_checked,
        "members_total": report.members_total,
        "member_failures": failures,
        "solution_fixed_point_max_gap": max(gaps),
        "passed": not schedule_issues and report.ok and max(gaps) <= 1e-10,
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

    built = build_inputs(config, worker_list[0])
    try:
        configs = [replace(built.solver_config, workers=w) for w in worker_list]
    except ValueError as err:
        raise ConfigError(str(err)) from err
    target = _out_dir(out)
    runs: list[list[Report]] = [[] for _ in worker_list]
    for _ in range(BENCH_ROUNDS):
        for solver_cfg, solves in zip(configs, runs):
            solves.append(_solve(built.family, built.schedule, solver_cfg, built.x0))

    head = runs[0][0]
    for other in (report for solves in runs for report in solves):
        if not np.array_equal(head.final_x, other.final_x):
            differ = "final iterates"
        elif config.record_history and not _history_rows_match(head, other):
            differ = "histories"
        else:
            continue
        _emit_error("determinism-violation", f"{differ} differ between "
                    f"workers={head.workers} and workers={other.workers}")
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
    if target is not None:
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


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors are config errors: one JSON line, exit 1."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="hybridproj",
        description="Parallel hybrid-projection solver for common solutions "
        "of equilibrium and fixed-point problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured solve")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="audit the configured problem")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--samples", type=int, default=200)

    p_bench = sub.add_parser("bench", help="time the run across worker counts")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--workers-list", required=True)
    p_bench.add_argument("--out", default=None)

    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.command == "run":
            return run(config, workers=args.workers, out=args.out)
        if args.command == "validate":
            return validate(config, samples=args.samples)
        worker_list = _parse_worker_list(args.workers_list)
        return bench(config, worker_list, out=args.out)
    except ConfigError as err:
        _emit_error("invalid-config", str(err))
        return EXIT_INVALID_CONFIG
    except (ValueError, RuntimeError) as err:
        _emit_error("solver-failure", str(err))
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
