"""Correctness checks the benchmark runs outside its timed region.

``section4_replay`` is a brute-force replay of the 1-D section4 recursion in
the same form as the test suite's reference trajectory: every candidate from
the closed forms, the furthest one by first-index argmax, and the analytic
interval projection. It shares no code with the solver. Members are taken in
slices so the replay's memory stays below the solver's own at full scale.

``ball_audit`` steps the d = 8 workload through ``solver.iterate`` and
checks the invariants that must hold even when a projection fails: the known
solution ``p`` lies in every cut, each candidate is no further from ``p``
than the iterate it came from (the Fejer inequality), and the anchor
distance never falls. When the projection raises, it records where, the
largest cut value at ``p``, and whether plain Dykstra (no cycle test)
converges on the same cut set.
"""

from __future__ import annotations

import math

import numpy as np

from hybridproj import InfeasibleSetError, NestedSet, ProjectionFailure, SolverState
from hybridproj import solver

REPLAY_SLICE = 262_144
FEJER_TOL = 1e-9
CONTAIN_TOL = 1e-9


def _furthest(values_of, count: int, x: float) -> float:
    """First member value attaining the largest distance from ``x``."""
    best_d, best_v = -1.0, math.nan
    for lo in range(0, count, REPLAY_SLICE):
        v = values_of(lo, min(count, lo + REPLAY_SLICE))
        d = np.abs(v - x)
        k = int(np.argmax(d))
        if d[k] > best_d:
            best_d, best_v = float(d[k]), float(v[k])
    return best_v


def section4_replay(n_geps: int, n_maps: int, iters: int, x0: float) -> np.ndarray:
    """Iterates ``x_1 .. x_iters`` of the section4 benchmark from anchor ``x0``."""
    beta = n_maps / (2.0 * n_maps + 1.0)
    x = x0
    upper = math.inf
    xs = []
    for n in range(iters):
        alpha = 1.0 / (n + 2)

        def resolvents(lo, hi, x=x):
            xi = -1.0 + 2.0 * np.arange(lo + 1, hi + 1) / (n_geps + 1)
            gap = x - xi
            return np.where(gap >= 0, xi + np.arctan(np.maximum(gap, 0.0)), x)

        ybar = _furthest(resolvents, n_geps, x)
        if ybar < 0:
            zbar = alpha * x + (1 - alpha) * ybar
        else:
            def mapped(lo, hi, x=x, ybar=ybar, alpha=alpha):
                c = 2.0 - np.arange(lo + 1, hi + 1) / (n_maps + 1)
                s = ybar - c * ybar * ybar
                return alpha * x + (1 - alpha) * (beta * ybar + (1 - beta) * s)

            zbar = _furthest(mapped, n_maps, x)
        upper = min(upper, 0.5 * (x + zbar))
        x = max(-1.0, min(1.0, min(x0, upper)))
        xs.append(x)
    return np.array(xs)


def plain_dykstra(nested: NestedSet, x0: np.ndarray, tol: float, max_sweeps: int):
    """Dykstra's scheme over the base set and every cut, without the cycle
    heuristic. Returns ``(point, sweeps, converged)``."""
    sets = [*reversed([c for c in nested.cuts if not c.is_degenerate]), nested.base]
    x = np.array(x0, dtype=np.float64)
    increments = [np.zeros_like(x) for _ in sets]
    for sweep in range(1, max_sweeps + 1):
        start = x
        step = 0.0
        for k, s in enumerate(sets):
            w = x + increments[k]
            y = s.project(w)
            increments[k] = w - y
            step = max(step, float(np.linalg.norm(y - x)))
            x = y
        if float(np.linalg.norm(x - start)) <= tol and step <= tol:
            return x, sweep, True
    return x, max_sweeps, False


def ball_audit(inputs) -> dict:
    """Replay the ball workload iteration by iteration and audit it."""
    family, sched, cfg = inputs.family, inputs.schedule, inputs.solver_config
    p, x0 = inputs.reference, inputs.x0
    state = SolverState(n=0, x=x0, x0=x0, nested=NestedSet(base=family.base))
    fejer_worst = math.inf
    anchor_ok = True
    anchor_dist = 0.0
    failure = None
    for _ in range(cfg.max_iter):
        try:
            state = solver.iterate(state, family, sched, cfg)
        except (InfeasibleSetError, ProjectionFailure) as err:
            failure = {"iteration": state.n, "error": type(err).__name__}
            break
        rec = state.last
        fejer_worst = min(
            fejer_worst,
            float(np.sum((rec.x_prev - p) ** 2)) + rec.eps
            - float(np.sum((rec.z_far - p) ** 2)),
        )
        dist = float(np.linalg.norm(rec.x_new - x0))
        anchor_ok &= dist >= anchor_dist - 1e-10
        anchor_dist = dist
        if float(np.linalg.norm(state.x - p)) <= cfg.stop.tol:
            break
    cut_at_p = max((c.value(p) for c in state.nested.cuts), default=-math.inf)
    result = {
        "iterations": state.n,
        "max_cut_value_at_p": cut_at_p,
        "fejer_worst_slack": fejer_worst,
        "anchor_monotone": anchor_ok,
        "failure": failure,
        "ok": cut_at_p <= CONTAIN_TOL and fejer_worst >= -FEJER_TOL and anchor_ok,
    }
    if failure is not None:
        point, sweeps, converged = plain_dykstra(
            state.nested, x0, cfg.projection_tol, cfg.projection_max_sweeps
        )
        gap = max(max(c.value(point) for c in state.nested.cuts),
                  float(np.linalg.norm(point - family.base.project(point))))
        failure.update(plain_dykstra_converged=converged, plain_dykstra_sweeps=sweeps,
                       plain_dykstra_max_violation=gap)
    return result
