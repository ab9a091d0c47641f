"""Independent oracles used by the tests.

The projection oracles know nothing about the alternating-projection code
path: the grid oracle minimizes the distance over a dense feasible grid with
local refinement, and the enumeration oracle solves the box-plus-halfspaces
projection exactly by checking every active set of size at most two. The
selection oracle is the serial reference for the chunked parallel
reduction, and ``full_chunk`` expands a kernel's short chunk into the rows
it stands for. ``section4_thresholds`` and ``section4_coefficients`` are
the benchmark's member constants as plain closed formulas, and
``section4_map_where`` is its mapping as one masked numpy expression.
``bisect_resolvent`` is plain bisection, the agreement oracle for the
scalar resolvent's root finder, and ``counting`` counts the profile calls
either one makes. ``dykstra_reference`` is the nested-set projection loop
as first written, one projection call, copy and norm per visit, frozen so
that a faster loop can be held to its bits. ``member_kernels_reference``
freezes the member kernels likewise, one public call per member and every
power applied, and ``power_reference`` is its power loop.
``declared_bound_violations``
is the schedule rule with declared bounds ``b``, ``d`` and ``e``, frozen as
the reference for the rule that takes them from the sequences themselves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FEAS_TOL = 1e-9


def _feasible_mask(nested, points: np.ndarray) -> np.ndarray:
    lo, hi = nested.base.lo, nested.base.hi
    mask = np.all((points >= lo - FEAS_TOL) & (points <= hi + FEAS_TOL), axis=1)
    for cut in nested.cuts:
        if cut.is_degenerate:
            continue
        mask &= points @ cut.normal <= cut.offset + FEAS_TOL
    return mask


def _cut_line_samples(nested, win_lo, win_hi, pts):
    """Dense samples along each cut boundary clipped to the window.

    Plain axis grids localize a minimizer sitting on a slanted cut only to
    about sqrt(h) because feasible grid points sit at varying offsets from
    the boundary; sampling the boundary line itself restores O(h) accuracy
    while staying pure brute force.
    """
    center = 0.5 * (win_lo + win_hi)
    reach = 0.5 * float(np.linalg.norm(win_hi - win_lo))
    blocks = []
    for cut in nested.cuts:
        if cut.is_degenerate:
            continue
        excess = float(cut.normal @ center) - cut.offset
        anchor = center - (excess / float(cut.normal @ cut.normal)) * cut.normal
        normal = cut.normal / np.linalg.norm(cut.normal)
        tangent = np.array([-normal[1], normal[0]])
        t = np.linspace(-reach, reach, pts)
        blocks.append(anchor + t[:, None] * tangent)
    return blocks


def grid_project(nested, x0, levels: int = 6, pts: int = 81) -> np.ndarray:
    """Dense grid search over the box, refined locally around the best point.

    Each level scans an axis-aligned grid of the current window plus dense
    samples of every cut boundary within it, keeps the feasible point
    closest to ``x0``, and shrinks the window around it.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    lo = np.array(nested.base.lo, dtype=np.float64)
    hi = np.array(nested.base.hi, dtype=np.float64)
    d = lo.size
    win_lo, win_hi = lo.copy(), hi.copy()
    best = None
    best_d2 = np.inf
    for _ in range(levels):
        axes = [np.linspace(win_lo[k], win_hi[k], pts) for k in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        blocks = [grid]
        if d == 2:
            blocks.extend(_cut_line_samples(nested, win_lo, win_hi, pts * pts))
        candidates = np.vstack(blocks)
        candidates = np.clip(candidates, lo, hi)
        mask = _feasible_mask(nested, candidates)
        if not mask.any():
            span = win_hi - win_lo
            win_lo = np.maximum(lo, win_lo - span)
            win_hi = np.minimum(hi, win_hi + span)
            continue
        feas = candidates[mask]
        d2 = np.sum((feas - x0) ** 2, axis=1)
        k = int(np.argmin(d2))
        if d2[k] < best_d2:
            best_d2 = float(d2[k])
            best = feas[k].copy()
        h = (win_hi - win_lo) / (pts - 1)
        win_lo = np.maximum(lo, best - 4.0 * h)
        win_hi = np.minimum(hi, best + 4.0 * h)
    assert best is not None, "grid oracle found no feasible point"
    return best


def enumerate_project(nested, x0) -> np.ndarray:
    """Exact projection onto a 2-D box intersected with halfspaces.

    Enumerates candidate minimizers from every active set of size 0, 1, or 2
    (interior point, single-constraint hyperplane projections, and pairwise
    constraint vertices) and returns the feasible candidate closest to x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    d = x0.size
    assert d == 2, "enumeration oracle is 2-D only"
    normals = []
    offsets = []
    lo, hi = nested.base.lo, nested.base.hi
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        normals += [e, -e]
        offsets += [float(hi[k]), float(-lo[k])]
    for cut in nested.cuts:
        if cut.is_degenerate:
            continue
        normals.append(cut.normal)
        offsets.append(cut.offset)
    normals = np.array(normals)
    offsets = np.array(offsets)

    candidates = [x0]
    for a, b in zip(normals, offsets):
        nn = float(a @ a)
        candidates.append(x0 - ((float(a @ x0) - b) / nn) * a)
    for i, j in itertools.combinations(range(len(normals)), 2):
        A = np.array([normals[i], normals[j]])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        candidates.append(np.linalg.solve(A, np.array([offsets[i], offsets[j]])))

    best = None
    best_d2 = np.inf
    for c in candidates:
        if np.all(normals @ c <= offsets + 1e-9):
            d2 = float(np.sum((c - x0) ** 2))
            if d2 < best_d2:
                best_d2 = d2
                best = c
    assert best is not None, "no feasible candidate; the instance is infeasible"
    return best


def select_furthest(x, candidates) -> tuple[int, np.ndarray]:
    """Index and value of the candidate furthest from ``x``, by a serial scan.

    Ties break toward the smallest index, as in the parallel reduction.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if len(candidates) == 0:
        raise ValueError("candidate list must be nonempty")
    best_i = 0
    best_d2 = -1.0
    best_v = None
    for i, candidate in enumerate(candidates):
        cv = np.atleast_1d(np.asarray(candidate, dtype=np.float64))
        if cv.shape != xv.shape:
            raise ValueError("candidate dimension mismatch")
        d2 = float(np.sum((cv - xv) ** 2))
        if d2 > best_d2:
            best_i, best_d2, best_v = i, d2, cv
    return best_i, best_v


def full_chunk(head, rows: int, point) -> np.ndarray:
    """The ``rows`` candidates a chunk kernel's ``head`` stands for.

    Members past the returned head leave the evaluation ``point`` unchanged,
    so each of their rows is that point.
    """
    head = np.asarray(head, dtype=np.float64)
    pv = np.atleast_1d(np.asarray(point, dtype=np.float64))
    if head.ndim != 2 or head.shape[1] != pv.size or head.shape[0] > rows:
        raise ValueError(f"head of shape {head.shape} cannot stand for {rows} rows")
    return np.vstack([head, np.tile(pv, (rows - head.shape[0], 1))])


def section4_thresholds(n_geps: int) -> np.ndarray:
    """Benchmark thresholds ``-1 + 2 i / (N + 1)``, ``i = 1..N``, as one
    expression with full-size temporaries."""
    return -1.0 + 2.0 * np.arange(1, n_geps + 1, dtype=np.float64) / (n_geps + 1)


def section4_coefficients(n_maps: int) -> np.ndarray:
    """Benchmark coefficients ``2 - j / (M + 1)``, ``j = 1..M``, likewise."""
    return 2.0 - np.arange(1, n_maps + 1, dtype=np.float64) / (n_maps + 1)


def section4_map_where(c: float, v) -> np.ndarray:
    """The benchmark mapping ``x -> x - c * x^2``, identity below 0, on every
    entry of ``v`` at once, grouped as ``c * (v * v)``."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(v < 0.0, v, v - c * (v * v))


def reference_trajectory(n_geps: int, n_maps: int, iters: int, x0: float = 1.0):
    """Brute-force replay of the 1-D benchmark recursion.

    Evaluates every candidate with the closed forms, selects the furthest by
    argmax, and applies the analytic interval projection; shares no code
    with the solver path.
    """
    xi = section4_thresholds(n_geps)
    c = section4_coefficients(n_maps)
    beta = n_maps / (2.0 * n_maps + 1.0)
    x = x0
    upper = np.inf
    xs = []
    for n in range(iters):
        alpha = 1.0 / (n + 2)
        gap = x - xi
        y = np.where(gap >= 0, xi + np.arctan(np.maximum(gap, 0.0)), x)
        ybar = y[int(np.argmax(np.abs(y - x)))]
        if ybar < 0:
            zbar = alpha * x + (1 - alpha) * ybar
        else:
            s = ybar - c * ybar * ybar
            z = alpha * x + (1 - alpha) * (beta * ybar + (1 - beta) * s)
            zbar = z[int(np.argmax(np.abs(z - x)))]
        upper = min(upper, 0.5 * (x + zbar))
        x = max(-1.0, min(1.0, min(x0, upper)))
        xs.append(x)
    return np.array(xs)


def interval_project(nested, x0: float) -> float:
    """Analytic projection for 1-D box-plus-halfspace intersections."""
    lo = float(nested.base.lo[0])
    hi = float(nested.base.hi[0])
    for cut in nested.cuts:
        if cut.is_degenerate:
            continue
        a = float(cut.normal[0])
        bound = cut.offset / a
        if a > 0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    assert lo <= hi + 1e-12, "interval became empty"
    return min(max(x0, lo), hi)


def random_cut_instance(rng: np.random.Generator, n_cuts: int):
    """A 2-D box with cuts that keep a margin around a random interior anchor."""
    from hybridproj.geometry import Box, Halfspace, NestedSet

    nested = NestedSet(base=Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]))
    anchor = rng.uniform(-0.5, 0.5, size=2)
    for _ in range(n_cuts):
        normal = rng.standard_normal(2)
        normal /= np.linalg.norm(normal)
        margin = rng.uniform(0.05, 0.3)
        nested.add_cut(
            Halfspace(normal=normal, offset=float(normal @ anchor) + margin)
        )
    x0 = rng.uniform(-2.0, 2.0, size=2)
    return nested, x0


def bisect_resolvent(profile, r: float, x: float, lo: float, hi: float,
                     tol: float = 1e-12, max_halvings: int = 200) -> float:
    """Solve ``r * profile(z) + z = x`` on ``[lo, hi]`` by plain bisection.

    Same clamps, monotonicity rule and exact-fixed-point short cut as
    ``hybridproj.operators.resolvent_scalar``; only the narrowing differs,
    so the two must agree to within ``tol``.
    """
    from hybridproj.operators import InvalidModelError, ResolventFailure

    def g(z: float) -> float:
        value = r * profile(z) + z - x
        if math.isnan(value):
            raise ResolventFailure(f"profile produced NaN at z={z!r}",
                                   (lo, hi, math.nan, math.nan))
        return value

    g_lo, g_hi = g(lo), g(hi)
    if g_lo > 0.0 and g_hi < 0.0:
        raise InvalidModelError("endpoint values decrease across the bracket")
    if g_lo >= 0.0:
        return lo
    if g_hi <= 0.0:
        return hi
    if lo <= x <= hi and g(x) == 0.0:
        return x
    a, b = lo, hi
    for _ in range(max_halvings):
        if b - a <= tol:
            return 0.5 * (a + b)
        m = 0.5 * (a + b)
        g_m = g(m)
        if g_m == 0.0:
            return m
        if g_m < 0.0:
            a = m
        else:
            b = m
    raise ResolventFailure("halving budget ran out", (a, b, g(a), g(b)))


def counting(profile):
    """``profile`` wrapped to count its calls, and the one-element counter."""
    calls = [0]

    def counted(z: float) -> float:
        calls[0] += 1
        return profile(z)

    return counted, calls


def dykstra_reference(nested, x0, tol: float, max_sweeps: int) -> np.ndarray:
    """Dykstra's scheme over the base set and every non-degenerate cut,
    newest first, with the cycle test; the plain form of ``project_nested``.

    Each halfspace visit copies a point its cut holds and otherwise steps
    ``p - (excess / |normal|^2) * normal``; step lengths and the closure are
    ``np.linalg.norm``. It raises the same ``ProjectionFailure`` and
    ``InfeasibleSetError``, with the same messages, cut counts and sweeps.
    """
    from hybridproj.geometry import InfeasibleSetError, ProjectionFailure

    def halfspace(cut):
        def project(p):
            excess = float(cut.normal @ p - cut.offset)
            if excess <= 0.0:
                return np.array(p, dtype=np.float64)
            return p - (excess / float(cut.normal @ cut.normal)) * cut.normal
        return project

    def violation_at(v):
        base_gap = float(np.linalg.norm(v - nested.base.project(v)))
        cut_gap = max((float(c.normal @ v - c.offset) for c in active), default=0.0)
        return max(base_gap, cut_gap, 0.0)

    start = np.asarray(x0, dtype=np.float64).reshape(-1)
    active = [cut for cut in nested.cuts if not cut.is_degenerate]
    if not active:
        return nested.base.project(start)
    projections = [*(halfspace(c) for c in reversed(active)), nested.base.project]
    x = np.array(start)
    increments = [np.zeros_like(x) for _ in projections]
    stalled = 0
    prev_violation = math.inf
    step_max = math.inf
    for sweep in range(1, max_sweeps + 1):
        sweep_start = x
        step_max = 0.0
        for k, project in enumerate(projections):
            w = x + increments[k]
            y = project(w)
            increments[k] = w - y
            step_max = max(step_max, float(np.linalg.norm(y - x)))
            x = y
        closure = float(np.linalg.norm(x - sweep_start))
        if closure <= tol and step_max <= tol:
            return x
        if closure <= max(10.0 * tol, 1e-9 * step_max) and step_max > 100.0 * tol:
            violation = violation_at(x)
            if violation > max(1e3 * tol, 1e-9) and violation >= 0.999 * prev_violation:
                stalled += 1
                if stalled >= 5:
                    raise InfeasibleSetError(
                        "alternating projections cycle without becoming "
                        f"feasible; internal step {step_max:.3e}, violation "
                        f"{violation:.3e}",
                        cuts=len(nested.cuts),
                        sweeps=sweep,
                    )
            else:
                stalled = 0
            prev_violation = violation
        else:
            stalled = 0
            prev_violation = math.inf
    raise ProjectionFailure(
        f"projection did not reach tol={tol:.1e} within {max_sweeps} sweeps "
        f"(last sweep moved {step_max:.3e})",
        best=x,
        residual=step_max,
        cuts=len(nested.cuts),
        sweeps=max_sweeps,
    )


def power_reference(S, n: int, x) -> np.ndarray:
    """``S`` applied ``n`` times to a copy of ``x``, every application made."""
    point = np.array(x, dtype=np.float64)
    for _ in range(n):
        point = S(point)
    return point


def member_kernels_reference(base, geps, maps):
    """The chunk kernels of ``ProblemFamily.from_members`` as first written.

    Every call evaluates each pair through ``resolvent`` (a scalar pair
    through ``resolvent_scalar``, ends included), each asymptotic map
    through ``power_reference`` at the nominal power, and each plain map
    once on its own copy of the point; rows are converted one by one.
    Returns ``(gep_kernel, map_kernel)``.
    """
    from hybridproj.operators import resolvent

    def rows(results, d):
        return np.array([np.asarray(v, dtype=np.float64).reshape(d) for v in results]
                        ).reshape(len(results), d)

    def gep_kernel(lo, hi, r, x):
        return rows([resolvent(f, A, r, x, base) for f, A in geps[lo:hi]], x.size)

    def map_kernel(lo, hi, nominal_power, point):
        return rows([power_reference(s, nominal_power, point) if s.asymptotic
                     else s.map(np.array(point, dtype=np.float64))
                     for s in maps[lo:hi]], point.size)

    return gep_kernel, map_kernel


def declared_bound_violations(alpha_fn, beta_fn, r_fn, k_fn, omega, b, d, e,
                              kappa, ism_alpha, count, k_floor=lambda n: 1,
                              cap=100_000) -> list[str]:
    """The schedule rule with declared bounds: ``0 < alpha_n < 1``,
    ``kappa <= beta_n <= b < 1``, ``0 < d <= r_n <= e < 2 * ism_alpha`` (``e``
    finite and below twice the modulus, so finite for an infinite modulus),
    ``k_n >= max(1, k_floor(n))`` and a finite ``omega >= 0``, over the
    first ``min(count, cap)`` terms."""
    problems = []
    if not 0 <= omega < math.inf:
        problems.append("omega")
    if not b < 1.0:
        problems.append("b below 1")
    if b < kappa:
        problems.append("b at least kappa")
    if not 0.0 < d <= e:
        problems.append("0 < d <= e")
    if not (math.isfinite(e) and e < 2.0 * ism_alpha):
        problems.append("e below twice the modulus")
    prefixes = (
        ("alpha", alpha_fn, lambda n, v: 0.0 < v < 1.0),
        ("beta", beta_fn, lambda n, v: kappa <= v <= b),
        ("r", r_fn, lambda n, v: d <= v <= e),
        ("k", k_fn, lambda n, v: v >= 1 and v >= k_floor(n)),
    )
    for name, fn, admissible in prefixes:
        for n in range(min(count, cap)):
            if not admissible(n, fn(n)):
                problems.append(f"{name}_{n}")
                break
    return problems
