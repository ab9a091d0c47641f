"""Outer hybrid-projection loop.

One iteration runs two parallel candidate phases (resolvent steps over the
bifunction/operator pairs, then relaxed mapping steps over the family of
mappings), selects the candidate furthest from the current iterate in each
phase, appends the halfspace cut that separates the next approximation from
the current one, and projects the fixed anchor point onto the accumulated
intersection. Asymptotic mappings are applied at power ``n`` and each cut is
relaxed by the slack ``(k_n - 1) * (||x_n|| + omega)^2``. A plain strict
pseudocontraction is an asymptotic one with ``k_n = 1`` applied once, so for
a family of plain mappings the slack is zero and the same loop runs the
paper's exact-cut method.

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
    DEFAULT_MAX_SWEEPS,
    DEFAULT_PROJECTION_TOL,
    InfeasibleSetError,
    NestedSet,
    ProjectionFailure,
    as_vector,
    halfspace_from_iterate,
    project_nested,
)
from .operators import ProblemFamily, gep_chunk_evaluator, map_chunk_evaluator
from .parallel import Furthest, furthest_candidate, squared_distances

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
    """The method's control sequences and ``omega``, a bound on every
    solution's norm; ``kappa``, the modulus ``alpha`` and ``k_n`` are the
    family's. :meth:`violations` checks ``0 < alpha_n < 1``,
    ``kappa <= beta_n < 1`` and ``0 < r_n < 2 * alpha`` (``r_n`` finite when
    every operator is zero) on a finite prefix, whose extremes serve as the
    paper's bounds ``b``, ``d`` and ``e``.
    """

    alpha_fn: Callable[[int], float]
    beta_fn: Callable[[int], float]
    r_fn: Callable[[int], float]
    omega: float

    def violations(self, kappa: float, ism_alpha: float, count: int,
                   k_seq: Callable[[int], float] = lambda n: 1) -> list[str]:
        """Condition violations over iterations ``0 .. count-1`` (capped);
        ``k_seq`` is the family's ``k_n``, which must stay at or above 1."""
        problems: list[str] = []
        if not 0 <= self.omega < math.inf:
            problems.append(f"omega={self.omega!r} must be nonnegative and finite")
        if math.isinf(ism_alpha):  # every operator is zero: any finite step
            step = (lambda v: 0.0 < v < math.inf, "must be positive and finite")
        else:
            step = (lambda v: 0.0 < v < 2.0 * ism_alpha,
                    f"must be positive and below twice the modulus {ism_alpha!r}")
        prefixes = (
            ("alpha", self.alpha_fn, lambda v: 0.0 < v < 1.0, "outside (0, 1)"),
            ("beta", self.beta_fn, lambda v: kappa <= v < 1.0,
             f"outside [kappa={kappa!r}, 1)"),
            ("r", self.r_fn, *step),
            ("k", k_seq, lambda v: v >= 1, "below 1"),
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
    stop: StopRule | None = None
    max_iter: int = 1000
    projection_tol: float = DEFAULT_PROJECTION_TOL
    projection_max_sweeps: int = DEFAULT_MAX_SWEEPS
    workers: int = 1
    record_history: bool = False

    def __post_init__(self):
        # The only home of these ranges; a refusal names its field.
        for key in ("max_iter", "workers", "projection_max_sweeps"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key!r}: must be an integer, got {value!r}")
        for key, holds, rule in (
            ("max_iter", self.max_iter >= 0, "at least 0"),
            ("workers", self.workers >= 1, "at least 1"),
            ("projection_tol", 0 < self.projection_tol < math.inf, "positive, finite"),
            ("projection_max_sweeps", self.projection_max_sweeps >= 1, "at least 1"),
        ):
            if not holds:
                raise ValueError(f"{key!r}: must be {rule}, got {getattr(self, key)!r}")

    @property
    def needs_map_residual(self) -> bool:
        return self.record_history or isinstance(self.stop, ResidualBelow)


def checked_anchor(problem: ProblemFamily, cfg: SolverConfig, x0) -> np.ndarray:
    """The anchor ``x0`` as a vector, refused with ``ValueError`` unless it
    lies in the base set and a stop reference has the base set's dimension."""
    dim = problem.base.dim
    start_v = as_vector(x0)
    if start_v.size != dim:
        raise ValueError(f"anchor x0 has dimension {start_v.size}; "
                         f"the base set has dimension {dim}")
    if not problem.base.contains(start_v, 1e-9):
        raise ValueError(f"anchor x0 {start_v.tolist()} lies outside the base set")
    stop = cfg.stop
    if isinstance(stop, ToleranceToReference) and stop.reference.size != dim:
        raise ValueError(f"stop reference has dimension {stop.reference.size}; "
                         f"the base set has dimension {dim}")
    return start_v


def checked_inputs(problem: ProblemFamily, sched: ParamSchedule,
                   cfg: SolverConfig, x0) -> np.ndarray:
    """The gate of a run: ``checked_anchor``, then the schedule's admissibility
    over the run's budget (the only scan of a ``solve``)."""
    start_v = checked_anchor(problem, cfg, x0)
    violations = sched.violations(problem.kappa, problem.alpha, max(cfg.max_iter, 1),
                                  problem.k_seq)
    if violations:
        raise ValueError("inadmissible schedule: " + "; ".join(violations))
    return start_v


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
    # Blocks each phase evaluated (0 when it had no moved member).
    blocks_y: int
    blocks_z: int
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
    """Slack ``(k_n - 1) * (||x|| + omega)^2`` added to the cut of iteration n.

    ``k_n`` is the sequence of the pseudocontraction inequality (for cor4,
    the largest squared constant of its maps). A family of plain mappings
    has ``k_n = 1``, where the slack is exactly 0.0 and the cut is exact.
    """
    if k_n < 1.0:
        raise ValueError("asymptotic constant must be at least 1")
    if not 0.0 <= omega < math.inf:
        raise ValueError("solution norm bound must be nonnegative and finite")
    reach = float(np.linalg.norm(as_vector(x))) + omega
    return (k_n - 1.0) * reach * reach


def resolvent_phase(problem: ProblemFamily, r: float, x: np.ndarray,
                    pool: ThreadPoolExecutor | None = None,
                    workers: int = 1) -> Furthest:
    """The resolvent step ``T_r(x - r A_i x)`` furthest from ``x``; without
    pairs, ``x`` itself at index -1."""
    if not problem.n_geps:
        return Furthest(-1, x, 0.0)
    hook, moved = problem.gep_bound, problem.gep_moved
    return furthest_candidate(gep_chunk_evaluator(problem, r, x), problem.n_geps, x,
                              fixed=x, pool=pool, workers=workers,
                              moved=moved and moved(r, x),
                              bound=hook and (lambda lo, hi: hook(lo, hi, r, x)))


def mapping_phase(problem: ProblemFamily, n: int, y: np.ndarray, reference: np.ndarray,
                  pool: ThreadPoolExecutor | None = None,
                  workers: int = 1) -> Furthest:
    """The mapped point ``S_j^n y`` furthest from ``reference``; without
    mappings, ``y`` itself at index -1."""
    if not problem.n_maps:
        return Furthest(-1, y, float(squared_distances(y[np.newaxis], reference)[0]))
    hook, moved = problem.map_bound, problem.map_moved
    return furthest_candidate(map_chunk_evaluator(problem, n, y), problem.n_maps,
                              reference, fixed=y, pool=pool, workers=workers,
                              moved=moved and moved(n, y),
                              bound=hook and (lambda lo, hi: hook(lo, hi, n, y, reference)))


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

    t0 = time.perf_counter()
    y_sel = resolvent_phase(problem, sched.r_fn(n), x, pool, cfg.workers)
    y_far, i_far, res_y = y_sel.point, y_sel.index, y_sel.distance
    t1 = time.perf_counter()

    mix = alpha_n * x + (1.0 - alpha_n) * beta_n * y_far
    scale = (1.0 - alpha_n) * (1.0 - beta_n)
    # Candidate j is scale * s_j + mix with scale > 0, so its distance to x
    # is scale * ||s_j - c||: rank the mapped points against c and combine
    # only the winner. A family without mappings takes this step with S = I.
    c = (x - mix) / scale
    s_sel = mapping_phase(problem, n, y_far, c, pool, cfg.workers)
    z_far = s_sel.point * scale + mix
    res_z = math.sqrt(squared_distances(z_far[np.newaxis], x)[0])
    t2 = time.perf_counter()

    eps = cut_relaxation(problem.k_seq(n), x, sched.omega)
    state.nested.add_cut(halfspace_from_iterate(x, z_far, eps))

    try:
        x_new = project_nested(
            state.nested, state.x0, cfg.projection_tol, cfg.projection_max_sweeps
        )
    except (ProjectionFailure, InfeasibleSetError) as err:
        err.args = (f"iteration {n}: {err}",)
        err.iteration = n
        raise
    t3 = time.perf_counter()

    res_s: float | None = None
    t_residual_ms = 0.0
    if cfg.needs_map_residual:
        res_s = mapping_phase(problem, 1, x, x, pool, cfg.workers).distance
        t_residual_ms = (time.perf_counter() - t3) * 1e3

    record = IterationRecord(
        n=n,
        x_prev=x,
        x_new=x_new,
        y_far=y_far,
        z_far=z_far,
        i_far=i_far,
        j_far=s_sel.index,
        blocks_y=y_sel.blocks,
        blocks_z=s_sel.blocks,
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


def solve(problem: ProblemFamily, sched: ParamSchedule, cfg: SolverConfig,
          x0) -> Report:
    """Iterate from the anchor ``x0`` until the stop rule or budget fires.

    The run passes ``checked_inputs`` first. With a reference or residual
    stop rule and a small tolerance, the final iterate approximates the
    projection of the anchor onto the common solution set. Exhausting
    ``max_iter`` is a normal outcome reported as reason ``"budget"``.
    """
    return _solve(problem, sched, cfg, checked_inputs(problem, sched, cfg, x0))


def _solve(problem: ProblemFamily, sched: ParamSchedule, cfg: SolverConfig,
           x0: np.ndarray) -> Report:
    """``solve`` past its gate, from its own copy of an anchor that passed
    ``checked_inputs``: the caller's array is never an iterate."""
    x0 = x0.copy()
    state = SolverState(n=0, x=x0, x0=x0, nested=NestedSet(base=problem.base))
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
