"""Outer hybrid-projection loop.

One iteration runs two parallel candidate phases (resolvent steps over the
bifunction/operator pairs, then relaxed mapping steps over the family of
mappings), selects the candidate furthest from the current iterate in each
phase, appends the halfspace cut that separates the next approximation from
the current one, and projects the fixed anchor point onto the accumulated
intersection. Two modes are supported: ``algorithm1`` relaxes each cut by a
slack computed from the asymptotic sequence, and applies asymptotic mappings
at power ``n``; ``algorithm2`` uses exact cuts and single applications, and
requires all mappings to be plain (non-asymptotic) pseudocontractions.

Both parallel phases reduce in fixed index order, so every result is
independent of the worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import (
    InfeasibleSetError,
    NestedSet,
    ProjectionFailure,
    as_vector,
    halfspace_from_iterate,
    project_nested,
)
from .operators import ProblemFamily, gep_chunk_evaluator, map_chunk_evaluator
from .parallel import furthest_candidate, squared_distances

__all__ = [
    "ParamSchedule",
    "ToleranceToReference",
    "ResidualBelow",
    "SolverConfig",
    "IterationRecord",
    "SolverState",
    "Report",
    "cut_relaxation",
    "iterate",
    "solve",
]

SCHEDULE_PREFIX_CAP = 100_000


@dataclass(frozen=True)
class ParamSchedule:
    """Control sequences of the outer loop and their admissibility bounds.

    Requirements, checked on a finite prefix by :meth:`violations`:
    the averaging weights satisfy ``0 < alpha_n < 1``; the mapping
    relaxation satisfies ``kappa <= beta_n <= b < 1``; the resolvent steps
    satisfy ``0 < d <= r_n <= e < 2 * alpha``; the asymptotic sequence stays
    at or above one. ``omega`` bounds the norm of every common solution.
    """

    alpha_fn: Callable[[int], float]
    beta_fn: Callable[[int], float]
    r_fn: Callable[[int], float]
    k_fn: Callable[[int], float]
    omega: float
    b: float
    d: float
    e: float

    def violations(self, kappa: float, ism_alpha: float, count: int) -> list[str]:
        """Condition violations over iterations ``0 .. count-1`` (capped)."""
        problems: list[str] = []
        if not self.omega >= 0:
            problems.append(f"omega={self.omega!r} must be nonnegative")
        if not (self.b < 1.0):
            problems.append(f"b={self.b!r} must be below 1")
        if self.b < kappa:
            problems.append(f"b={self.b!r} must be at least kappa={kappa!r}")
        if not (0.0 < self.d <= self.e):
            problems.append(f"need 0 < d <= e, got d={self.d!r}, e={self.e!r}")
        if math.isfinite(ism_alpha) and not (self.e < 2.0 * ism_alpha):
            problems.append(
                f"e={self.e!r} must stay below twice the modulus {ism_alpha!r}"
            )
        prefixes = (
            ("alpha", self.alpha_fn, lambda v: 0.0 < v < 1.0, "outside (0, 1)"),
            ("beta", self.beta_fn, lambda v: kappa <= v <= self.b,
             f"outside [kappa={kappa!r}, b={self.b!r}]"),
            ("r", self.r_fn, lambda v: self.d <= v <= self.e,
             f"outside [d={self.d!r}, e={self.e!r}]"),
            ("k", self.k_fn, lambda v: v >= 1.0, "below 1"),
        )
        for name, fn, admissible, bounds in prefixes:
            for n in range(min(count, SCHEDULE_PREFIX_CAP)):
                value = fn(n)
                if not admissible(value):
                    problems.append(f"{name}_{n}={value!r} {bounds}")
                    break
        return problems


@dataclass(frozen=True)
class ToleranceToReference:
    """Stop once ``||x_n - reference|| <= tol`` (known-solution problems)."""

    reference: np.ndarray
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "reference", as_vector(self.reference))
        if not self.tol > 0:
            raise ValueError("stop tolerance must be positive")


@dataclass(frozen=True)
class ResidualBelow:
    """Stop once all three phase residuals fall to ``tol`` or below."""

    tol: float

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("stop tolerance must be positive")


StopRule = ToleranceToReference | ResidualBelow


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "algorithm2"
    stop: StopRule | None = None
    max_iter: int = 1000
    projection_tol: float = 1e-12
    projection_max_sweeps: int = 10_000
    workers: int = 1
    record_history: bool = False

    def __post_init__(self):
        if self.mode not in ("algorithm1", "algorithm2"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.workers < 1:
            raise ValueError("need at least one worker")

    @property
    def needs_map_residual(self) -> bool:
        return self.record_history or isinstance(self.stop, ResidualBelow)

    def check_against(self, problem: ProblemFamily) -> None:
        if self.mode == "algorithm2" and problem.has_asymptotic_maps:
            raise ValueError(
                "algorithm2 handles plain pseudocontractions only; "
                "use algorithm1 for asymptotic mappings"
            )
        if (isinstance(self.stop, ToleranceToReference)
                and self.stop.reference.size != problem.base.dim):
            raise ValueError(
                f"stop reference has dimension {self.stop.reference.size}; "
                f"the base set has dimension {problem.base.dim}"
            )


@dataclass(frozen=True)
class IterationRecord:
    """Everything iteration ``n`` produced, timings in milliseconds."""

    n: int
    x_prev: np.ndarray
    x_new: np.ndarray
    y_far: np.ndarray
    z_far: np.ndarray
    i_far: int
    j_far: int
    eps: float
    res_y: float
    res_z: float
    res_s: float | None
    t_phase1_ms: float
    t_phase3_ms: float
    t_project_ms: float
    # The mapping residual pass; 0.0 when it is skipped.
    t_residual_ms: float


@dataclass(frozen=True)
class SolverState:
    n: int
    x: np.ndarray
    x0: np.ndarray
    nested: NestedSet
    last: IterationRecord | None = None


@dataclass(frozen=True)
class Report:
    final_x: np.ndarray
    iterations: int
    stop_reason: str  # "tol_to_reference", "residual", or "budget"
    history: tuple[IterationRecord, ...]
    workers: int
    wall_time_s: float


def cut_relaxation(k_n: float, x, omega: float) -> float:
    """Slack ``(k_n - 1) * (||x|| + omega)^2`` added to an asymptotic cut.

    ``k_n`` is the sequence of the pseudocontraction inequality (for cor4,
    the largest squared constant of its maps); the slack vanishes at 1.
    """
    if k_n < 1.0:
        raise ValueError("asymptotic constant must be at least 1")
    if omega < 0.0:
        raise ValueError("solution norm bound must be nonnegative")
    reach = float(np.linalg.norm(as_vector(x))) + omega
    return (k_n - 1.0) * reach * reach


def iterate(
    state: SolverState,
    problem: ProblemFamily,
    sched: ParamSchedule,
    cfg: SolverConfig,
    pool: ThreadPoolExecutor | None = None,
) -> SolverState:
    """Run one full outer iteration and return the advanced state.

    The two candidate phases evaluate their members in parallel chunks with
    a deterministic index-ordered reduction, so the output is identical for
    any worker count. Projection failures propagate with the iteration
    index in their message and in their ``iteration`` attribute.
    """
    n = state.n
    x = state.x
    alpha_n = sched.alpha_fn(n)
    beta_n = sched.beta_fn(n)
    r_n = sched.r_fn(n)

    t0 = time.perf_counter()
    if problem.n_geps > 0:
        y_sel = furthest_candidate(
            gep_chunk_evaluator(problem, r_n, x),
            problem.n_geps,
            x,
            fixed=x,
            pool=pool,
            workers=cfg.workers,
        )
        y_far, i_far, res_y = y_sel.point, y_sel.index, y_sel.distance
    else:
        y_far, i_far, res_y = x, -1, 0.0
    t1 = time.perf_counter()

    nominal_power = n if cfg.mode == "algorithm1" else 1
    if problem.n_maps > 0:
        mix = alpha_n * x + (1.0 - alpha_n) * beta_n * y_far
        scale = (1.0 - alpha_n) * (1.0 - beta_n)
        # Candidate j is scale * s_j + mix with scale > 0, so its distance
        # to x is scale * ||s_j - c||: rank the mapped points against c and
        # combine only the winner.
        c = (x - mix) / scale
        s_sel = furthest_candidate(
            map_chunk_evaluator(problem, nominal_power, y_far),
            problem.n_maps,
            c,
            fixed=y_far,
            pool=pool,
            workers=cfg.workers,
        )
        z_far = s_sel.point * scale + mix
        j_far = s_sel.index
        res_z = math.sqrt(squared_distances(z_far[np.newaxis], x)[0])
    else:
        z_far = alpha_n * x + (1.0 - alpha_n) * y_far
        j_far = -1
        res_z = float(np.linalg.norm(z_far - x))
    t2 = time.perf_counter()

    if cfg.mode == "algorithm1":
        eps = cut_relaxation(sched.k_fn(n), x, sched.omega)
    else:
        eps = 0.0
    state.nested.add_cut(halfspace_from_iterate(x, z_far, eps))

    try:
        x_new = project_nested(
            state.nested, state.x0, cfg.projection_tol, cfg.projection_max_sweeps
        )
    except ProjectionFailure as err:
        raise ProjectionFailure(
            f"iteration {n}: {err}", err.best, err.residual,
            iteration=n, cuts=err.cuts, sweeps=err.sweeps,
        ) from err
    except InfeasibleSetError as err:
        raise InfeasibleSetError(
            f"iteration {n}: {err}", iteration=n, cuts=err.cuts, sweeps=err.sweeps
        ) from err
    t3 = time.perf_counter()

    res_s: float | None = None
    if cfg.needs_map_residual:
        if problem.n_maps > 0:
            res_s = furthest_candidate(
                map_chunk_evaluator(problem, 1, x),
                problem.n_maps,
                x,
                fixed=x,
                pool=pool,
                workers=cfg.workers,
            ).distance
        else:
            res_s = 0.0
        t_residual_ms = (time.perf_counter() - t3) * 1e3
    else:
        t_residual_ms = 0.0

    record = IterationRecord(
        n=n,
        x_prev=x,
        x_new=x_new,
        y_far=y_far,
        z_far=z_far,
        i_far=i_far,
        j_far=j_far,
        eps=eps,
        res_y=res_y,
        res_z=res_z,
        res_s=res_s,
        t_phase1_ms=(t1 - t0) * 1e3,
        t_phase3_ms=(t2 - t1) * 1e3,
        t_project_ms=(t3 - t2) * 1e3,
        t_residual_ms=t_residual_ms,
    )
    return replace(state, n=n + 1, x=x_new, last=record)


def solve(
    problem: ProblemFamily,
    sched: ParamSchedule,
    cfg: SolverConfig,
    x0,
) -> Report:
    """Iterate from the anchor ``x0`` until the stop rule or budget fires.

    The anchor must belong to the base set. With a reference or residual
    stop rule and a small tolerance, the final iterate approximates the
    projection of the anchor onto the common solution set. Exhausting
    ``max_iter`` is a normal outcome reported as reason ``"budget"``.
    """
    start_v = as_vector(x0)
    if start_v.size != problem.base.dim:
        raise ValueError(
            f"anchor x0 has dimension {start_v.size}; "
            f"the base set has dimension {problem.base.dim}"
        )
    if not problem.base.contains(start_v, 1e-9):
        raise ValueError("anchor x0 must belong to the base set")
    cfg.check_against(problem)
    issues = sched.violations(problem.kappa, problem.alpha, max(cfg.max_iter, 1))
    if issues:
        raise ValueError("inadmissible schedule: " + "; ".join(issues))

    state = SolverState(
        n=0, x=start_v, x0=start_v, nested=NestedSet(base=problem.base)
    )
    history: list[IterationRecord] = []
    reason = "budget"
    began = time.perf_counter()
    pool = ThreadPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        for _ in range(cfg.max_iter):
            state = iterate(state, problem, sched, cfg, pool=pool)
            if cfg.record_history:
                history.append(state.last)
            stop = cfg.stop
            if isinstance(stop, ToleranceToReference):
                if float(np.linalg.norm(state.x - stop.reference)) <= stop.tol:
                    reason = "tol_to_reference"
                    break
            elif isinstance(stop, ResidualBelow):
                r = state.last
                if max(r.res_y, r.res_z, r.res_s) <= stop.tol:
                    reason = "residual"
                    break
    finally:
        if pool is not None:
            pool.shutdown(wait=True)

    return Report(
        final_x=state.x,
        iterations=state.n,
        stop_reason=reason,
        history=tuple(history),
        workers=cfg.workers,
        wall_time_s=time.perf_counter() - began,
    )
