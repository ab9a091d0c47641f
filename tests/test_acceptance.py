"""Acceptance criteria, one test per criterion.

Each test prints exactly one pass/fail line (run pytest with -s to stream
them) and then asserts, so the suite records the same verdicts. Budgets for
the open-ended runs can be adjusted with HYBRIDPROJ_FULL_BUDGET.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from hybridproj.cli import EXIT_OK, main
from hybridproj.geometry import (
    Box,
    NestedSet,
    contains,
    halfspace_from_iterate,
    project_nested,
)
from hybridproj.operators import (
    PseudoContraction,
    ZeroBifunction,
    affine_operator,
    identity_map,
    resolvent,
    resolvent_scalar,
    zero_operator,
)
from hybridproj.problems import (
    PointSolution,
    Section4Spec,
    build_section4,
    preset,
    section4_bifunction,
    section4_map,
)
from hybridproj.solver import (
    SolverConfig,
    SolverState,
    ToleranceToReference,
    iterate,
    solve,
)
from oracles import (
    grid_project,
    interval_project,
    random_cut_instance,
    reference_trajectory,
)

FULL_BUDGET = int(os.environ.get("HYBRIDPROJ_FULL_BUDGET", "1000"))


def report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def run_benchmark(n_geps, n_maps, iters, workers=1, record=True):
    family, sched, ref = build_section4(n_geps, n_maps)
    cfg = SolverConfig(max_iter=iters, workers=workers, record_history=record)
    return solve(family, sched, cfg, [1.0]), ref


def closed_form_binding_gaps(history):
    """Worst gap to the analytic halved-interval projection, checked whenever
    the newest cut is the binding one."""
    worst = 0.0
    best_bound = math.inf
    for rec in history:
        bound = 0.5 * (rec.x_prev[0] + rec.z_far[0])
        if bound <= best_bound and bound >= -1.0:
            worst = max(worst, abs(rec.x_new[0] - bound))
        best_bound = min(best_bound, bound)
    return worst


def test_criterion_1_full_scale_reproduction():
    n_geps, n_maps = 2_000_000, 3_000_000
    family, sched, ref = build_section4(n_geps, n_maps)
    assert ref == pytest.approx(-1.0 + 2.0 / (n_geps + 1), abs=1e-15)
    cfg = SolverConfig(max_iter=FULL_BUDGET, workers=8)
    state = SolverState(
        n=0,
        x=np.array([1.0]),
        x0=np.array([1.0]),
        nested=NestedSet(base=family.base),
    )
    tolerances = [1e-3, 1e-4, 1e-6]
    first_hit = {tol: None for tol in tolerances}
    min_gap = math.inf
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(FULL_BUDGET):
            state = iterate(state, family, sched, cfg, pool=pool)
            gap = abs(float(state.x[0]) - ref)
            min_gap = min(min_gap, gap)
            for tol in tolerances:
                if first_hit[tol] is None and gap <= tol:
                    first_hit[tol] = state.n
    reached = {tol: hit for tol, hit in first_hit.items() if hit is not None}
    ok = len(reached) == len(tolerances)
    report(
        1,
        ok,
        f"N={n_geps}, M={n_maps}, budget={FULL_BUDGET}: reached {reached}, "
        f"min |x - ref| = {min_gap:.3e}; the recursion approaches the "
        f"reference like (3/n)^(1/2), needing about 3/tol^2 iterations per "
        f"tolerance",
    )


def test_criterion_2_desk_scale_reproduction():
    rep, ref = run_benchmark(2000, 3000, iters=200)
    gap = abs(rep.final_x[0] - ref)
    converged = gap <= 1e-6
    worst_proj = closed_form_binding_gaps(rep.history)
    proj_ok = worst_proj <= 1e-10
    report(
        2,
        converged and proj_ok,
        f"convergence |x - ref| = {gap:.3e} (need <= 1e-6 in 200 iterations, "
        f"{'met' if converged else 'not met'}); closed-form projection "
        f"agreement worst = {worst_proj:.2e} "
        f"({'met' if proj_ok else 'not met'})",
    )


def test_criterion_3_mode_equivalence_with_unit_sequence():
    # Algorithm 1 with the unit sequence is Algorithm 2: the general scheme on
    # plain maps must follow the independent exact-cut replay.
    iters = 150
    family, sched, _ = build_section4(2000, 3000)
    cfg = SolverConfig(max_iter=iters, record_history=True)
    rep = solve(family, sched, cfg, [1.0])
    got = np.array([r.x_new[0] for r in rep.history])
    gap = float(np.max(np.abs(got - reference_trajectory(2000, 3000, iters))))
    eps_all_zero = all(r.eps == 0.0 for r in rep.history)
    report(
        3,
        len(got) == iters and gap <= 1e-8 and eps_all_zero,
        f"{len(got)} iterates differ from the exact-cut replay by at most "
        f"{gap:.2e} (need <= 1e-8); cut slack identically zero: {eps_all_zero}",
    )


def test_criterion_4_invariant_suite():
    rng = np.random.default_rng(2024)
    failures = []

    # resolvent firm nonexpansiveness, slack >= -1e-8
    base = build_section4(1, 1)[0].base
    zero = zero_operator()
    worst = math.inf
    members = [section4_bifunction(x) for x in (-0.7, -1.0 / 3.0, 0.2, 0.6)]
    members.append(ZeroBifunction())
    for f in members:
        for _ in range(200):
            x = rng.uniform(-1, 1, 1)
            y = rng.uniform(-1, 1, 1)
            tx = resolvent(f, zero, 1.0, x, base)
            ty = resolvent(f, zero, 1.0, y, base)
            worst = min(
                worst,
                float((tx - ty) @ (x - y)) - float(np.sum((tx - ty) ** 2)),
            )
    if worst < -1e-8:
        failures.append(f"resolvent firm nonexpansiveness slack {worst:.2e}")

    # inverse-strong-monotonicity of the built-in operators, slack >= -1e-10
    worst = math.inf
    for A in (zero_operator(), affine_operator(0.5, [0.1]),
              affine_operator(1.0, [0.0]), affine_operator(4.0, [-0.3])):
        for _ in range(250):
            x = rng.uniform(-1, 1, 1)
            y = rng.uniform(-1, 1, 1)
            gap2 = float(np.sum((A(x) - A(y)) ** 2))
            inner = float((A(x) - A(y)) @ (x - y))
            worst = min(worst, inner - (0.0 if gap2 == 0.0 else A.alpha * gap2))
    if worst < -1e-10:
        failures.append(f"operator modulus slack {worst:.2e}")

    # strict-pseudocontraction inequality for the benchmark maps at the
    # stated constant 1 - c/2
    spec = Section4Spec(n_geps=1, n_maps=10)
    worst = math.inf
    for c in spec.coefficients:
        stated = PseudoContraction(map=section4_map(float(c)).map,
                                   kappa=1.0 - float(c) / 2.0)
        for _ in range(100):
            x = rng.uniform(-1, 1, 1)
            y = rng.uniform(-1, 1, 1)
            sx, sy = stated(x), stated(y)
            lhs = float(np.sum((sx - sy) ** 2))
            rhs = float(np.sum((x - y) ** 2)) + stated.kappa * float(
                np.sum(((x - sx) - (y - sy)) ** 2)
            )
            worst = min(worst, rhs - lhs)
    if worst < -1e-9:
        failures.append(
            f"map inequality at stated constant 1 - c/2 has slack {worst:.2e} "
            f"(the tight constant is 1 - 1/c; the stated one fails for "
            f"c > sqrt(2))"
        )

    # nonexpansiveness of the forward step inside (0, 2 * modulus)
    worst = math.inf
    A = affine_operator(2.0, [0.1])
    for _ in range(1000):
        r = float(rng.uniform(1e-9, 2 * A.alpha - 1e-9))
        x = rng.uniform(-1, 1, 1)
        y = rng.uniform(-1, 1, 1)
        worst = min(
            worst,
            float(np.linalg.norm(x - y))
            - float(np.linalg.norm((x - r * A(x)) - (y - r * A(y)))),
        )
    if worst < -1e-10:
        failures.append(f"forward step expansion {worst:.2e}")

    # run-level inequalities on the desk-scale benchmark
    rep, ref = run_benchmark(2000, 3000, iters=200)
    family, _, _ = build_section4(2000, 3000)
    solutions = [np.array([-1.0]), np.array([ref])]
    fejer_worst = math.inf
    for rec in rep.history:
        for u in solutions:
            lhs = float(np.sum((rec.z_far - u) ** 2))
            rhs = float(np.sum((rec.x_prev - u) ** 2)) + rec.eps
            fejer_worst = min(fejer_worst, rhs - lhs)
    if fejer_worst < -1e-9:
        failures.append(f"cut inequality slack {fejer_worst:.2e}")

    dists = [float(np.linalg.norm(rec.x_new - np.array([1.0]))) for rec in rep.history]
    if any(b - a < -1e-10 for a, b in zip(dists, dists[1:])):
        failures.append("anchor distance decreased")

    nested = NestedSet(base=family.base)
    for rec in rep.history:
        nested.add_cut(halfspace_from_iterate(rec.x_prev, rec.z_far, rec.eps))
    if not all(contains(nested, u, tol=1e-9) for u in solutions):
        failures.append("a known solution escaped the accumulated cuts")

    report(
        4,
        not failures,
        "all inequality audits passed" if not failures else "; ".join(failures),
    )


def test_criterion_5_projection_oracle_equivalence():
    rng = np.random.default_rng(555)
    worst_2d = 0.0
    for _ in range(20):
        nested, x0 = random_cut_instance(rng, n_cuts=int(rng.integers(1, 6)))
        q = project_nested(nested, x0)
        worst_2d = max(worst_2d, float(np.linalg.norm(q - grid_project(nested, x0))))

    worst_1d = 0.0
    for _ in range(50):
        nested = NestedSet(base=Box(lo=[-1.0], hi=[1.0]))
        for _ in range(int(rng.integers(1, 7))):
            a = float(rng.uniform(-1, 1))
            b = float(rng.uniform(-0.6, 1))
            nested.add_cut(halfspace_from_iterate([max(a, b)], [min(a, b)]))
        x0 = float(rng.uniform(-2, 2))
        q = project_nested(nested, [x0])
        worst_1d = max(worst_1d, abs(q[0] - interval_project(nested, x0)))

    ok = worst_2d <= 1e-4 and worst_1d <= 1e-10
    report(
        5,
        ok,
        f"2-D grid oracle worst gap {worst_2d:.2e} (need <= 1e-4); "
        f"1-D analytic worst gap {worst_1d:.2e} (need <= 1e-10)",
    )


def test_criterion_6_resolvent_oracle_equivalence():
    rng = np.random.default_rng(666)
    worst = 0.0
    for _ in range(1000):
        xi = float(rng.uniform(-0.999, 0.999))
        x = float(rng.uniform(xi, 1.0))
        f = section4_bifunction(xi)
        z = resolvent_scalar(f.profile, 1.0, x, f.lo, f.hi)
        worst = max(worst, abs(z - (xi + math.atan(x - xi))))
    report(6, worst <= 1e-10, f"root finder vs closed form worst gap {worst:.2e}")


def test_criterion_7_worker_determinism(tmp_path):
    runs = {}
    for w in (1, 2, 8):
        rep, _ = run_benchmark(2000, 3000, iters=120, workers=w)
        runs[w] = rep
    same_final = (
        runs[1].final_x[0] == runs[2].final_x[0] == runs[8].final_x[0]
    )
    same_history = True
    for other in (2, 8):
        for a, b in zip(runs[1].history, runs[other].history):
            if not (
                np.array_equal(a.x_new, b.x_new)
                and np.array_equal(a.y_far, b.y_far)
                and np.array_equal(a.z_far, b.z_far)
                and a.res_y == b.res_y
                and a.res_z == b.res_z
                and a.res_s == b.res_s
                and a.eps == b.eps
                and a.i_far == b.i_far
                and a.j_far == b.j_far
            ):
                same_history = False

    import json

    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "problem": {"preset": "section4", "N": 2000, "M": 3000},
        "x0": [1.0],
        "max_iter": 40,
        "record_history": True,
    }))
    bench_code = main([
        "bench", "--config", str(config), "--workers-list", "1,2,8",
    ])
    report(
        7,
        same_final and same_history and bench_code == EXIT_OK,
        f"final iterates identical: {same_final}; histories identical "
        f"(timings excluded): {same_history}; bench exit code {bench_code}",
    )


def test_criterion_8_reduced_scheme_presets():
    base = Box(lo=[-1.0], hi=[1.0])
    family, cfg, sched = preset(
        "cor2",
        base=base,
        operators=[affine_operator(1.0, [0.5])],
        maps=[identity_map()],
        known_solution=PointSolution(point=[0.5]),
    )
    cfg = replace(
        cfg, stop=ToleranceToReference(reference=[0.5], tol=1e-6), max_iter=300
    )
    rep2 = solve(family, sched, cfg, [1.0])
    cor2_gap = abs(rep2.final_x[0] - 0.5)
    cor2_ok = cor2_gap <= 1e-6

    spec = Section4Spec(n_geps=2000, n_maps=3000)
    family5, cfg5, sched5 = preset(
        "cor5",
        base=base,
        bifunctions=[
            section4_bifunction(float(t)) for t in spec.thresholds
        ],
        maps=[section4_map(float(c)) for c in spec.coefficients],
    )
    cfg5 = replace(cfg5, max_iter=200, record_history=True)
    rep5 = solve(family5, sched5, cfg5, [1.0])
    ref = spec.reference
    cor5_gap = abs(rep5.final_x[0] - ref)
    cor5_converged = cor5_gap <= 1e-6
    cor5_proj = closed_form_binding_gaps(rep5.history)
    cor5_proj_ok = cor5_proj <= 1e-10

    cor2_note = "met" if cor2_ok else "not met"
    cor5_note = "met" if cor5_converged else "not met, same slow tail as criterion 2"
    proj_note = "met" if cor5_proj_ok else "not met"
    report(
        8,
        cor2_ok and cor5_converged and cor5_proj_ok,
        f"cor2 gap to 0.5 = {cor2_gap:.2e} ({cor2_note}); "
        f"cor5 on benchmark parts gap = {cor5_gap:.3e} ({cor5_note}); "
        f"cor5 closed-form projection agreement {cor5_proj:.2e} ({proj_note})",
    )
