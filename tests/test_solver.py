import math
from dataclasses import replace

import numpy as np
import pytest

from hybridproj.geometry import (
    Ball,
    Box,
    Halfspace,
    InfeasibleSetError,
    NestedSet,
    ProjectionFailure,
    contains,
)
from hybridproj.operators import (
    CustomBifunction,
    IsmOperator,
    ProblemFamily,
    PseudoContraction,
    ZeroBifunction,
    affine_operator,
    apply_power,
    identity_map,
    resolvent,
    zero_operator,
)
from hybridproj.problems import (
    Section4Spec,
    build_section4,
    default_schedule,
    preset,
    section4_bifunction,
    section4_map,
)
from hybridproj.solver import (
    ParamSchedule,
    ResidualBelow,
    SolverConfig,
    SolverState,
    ToleranceToReference,
    cut_relaxation,
    iterate,
    solve,
)
from oracles import declared_bound_violations, reference_trajectory, select_furthest

BASE = Box(lo=[-1.0], hi=[1.0])


def flat_schedule(beta=0.0, r=1.0, omega=1.0):
    return ParamSchedule(
        alpha_fn=lambda n: 1.0 / (n + 2),
        beta_fn=lambda n: beta,
        r_fn=lambda n: r,
        omega=omega,
    )


def seeded_sequence(rng, lo, hi, edges, count):
    """A constant in ``[lo, hi)`` or ``lo + (hi - lo) / (n + c)``; half of
    them take one of ``edges`` at a seeded index, which may lie past the
    first ``count`` terms."""
    if rng.random() < 0.5:
        c = float(rng.uniform(lo, hi))
        base = lambda n: c  # noqa: E731
    else:
        c = int(rng.integers(2, 6))
        base = lambda n: lo + (hi - lo) / (n + c)  # noqa: E731
    if rng.random() < 0.5:
        return base
    m, edge = int(rng.integers(count + 3)), float(rng.choice(edges))
    return lambda n: edge if n == m else base(n)


def initial_state(x0, base=BASE):
    v = np.asarray(x0, dtype=np.float64)
    return SolverState(n=0, x=v, x0=v, nested=NestedSet(base=base))


class TestCutRelaxation:
    def test_unit_sequence_vanishes(self):
        assert cut_relaxation(1.0, [0.7], 1.0) == 0.0
        assert cut_relaxation(1.0, [0.3, -0.4], 2.0) == 0.0

    def test_standard_value(self):
        assert cut_relaxation(1.01, [1.0], 1.0) == pytest.approx(0.04)
        # ||(3, 4)|| = 5, so (1.5 - 1) * (5 + 1)^2 exactly.
        assert cut_relaxation(1.5, [3.0, 4.0], 1.0) == 18.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cut_relaxation(0.99, [1.0], 1.0)
        with pytest.raises(ValueError):
            cut_relaxation(1.0, [1.0], -1.0)
        with pytest.raises(ValueError):
            cut_relaxation(1.0, [1.0], math.inf)
        with pytest.raises(TypeError):
            cut_relaxation(1.0, [1.0], 1.0, "squared")


class TestSelectFurthest:
    def test_single_candidate(self):
        i, v = select_furthest([0.0], [[0.4]])
        assert i == 0 and v[0] == 0.4

    def test_benchmark_candidates(self):
        # two arctan members with thresholds -1/3 and 1/3 evaluated at 1
        y1 = -1.0 / 3.0 + math.atan(4.0 / 3.0)
        y2 = 1.0 / 3.0 + math.atan(2.0 / 3.0)
        i, v = select_furthest([1.0], [[y1], [y2]])
        assert i == 0
        assert v[0] == y1
        assert abs(1.0 - y1) == pytest.approx(0.406038, abs=1e-6)
        assert abs(1.0 - y2) == pytest.approx(0.078664, abs=1e-6)

    def test_exact_tie_takes_first(self):
        i, _ = select_furthest([0.2], [[1.2], [-0.8]])
        assert i == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_furthest([0.0], [])


class TestScheduleValidation:
    def test_benchmark_schedule_admissible(self):
        family, sched, _ = build_section4(5, 5)
        assert sched.violations(family.kappa, family.alpha, 500) == []

    def test_beta_below_kappa(self):
        family, sched, _ = build_section4(5, 5)
        bad = replace(sched, beta_fn=lambda n: family.kappa / 2)
        issues = bad.violations(family.kappa, family.alpha, 10)
        assert any("beta_0" in s for s in issues)

    def test_step_exceeding_twice_modulus(self):
        sched = flat_schedule(r=3.0)
        issues = sched.violations(0.0, 1.0, 10)
        assert any("twice the modulus" in s for s in issues)

    def test_alpha_out_of_range(self):
        sched = replace(flat_schedule(), alpha_fn=lambda n: 1.0)
        assert any("alpha_0" in s for s in sched.violations(0.0, math.inf, 5))

    def test_k_below_one(self):
        issues = flat_schedule().violations(0.0, math.inf, 5, lambda n: 0.5)
        assert issues == ["k_0=0.5 below 1"]

    def test_infinite_step_refused_when_every_operator_is_zero(self):
        # Unrefused, r = inf passed the gate and died in iteration 0 with a
        # NaN in the root finder.
        family, _, sched = preset(
            "cor5", base=BASE, bifunctions=[section4_bifunction(-0.5)],
            maps=[section4_map(1.5)])
        inf_step = replace(sched, r_fn=lambda n: math.inf)
        assert inf_step.violations(family.kappa, family.alpha, 5) == [
            "r_0=inf must be positive and finite"]
        with pytest.raises(ValueError, match="inadmissible schedule: r_0=inf"):
            solve(family, inf_step, SolverConfig(max_iter=5), [1.0])

    def test_omega_must_be_finite(self):
        sched = flat_schedule(omega=math.inf)
        assert any("omega" in s for s in sched.violations(0.0, math.inf, 5))

    def test_cut_slack_is_the_family_sequence(self):
        # cor4 squares the map's k_n = 1.2^n, and every cut takes the square:
        # with k_n = 1 the cut of iteration 1 would exclude the solution 0.
        k_map = lambda n: 1.2 ** n if n else 1.0  # noqa: E731
        family, _, sched = preset(
            "cor4", base=BASE, bifunctions=[ZeroBifunction()],
            maps=[PseudoContraction(map=lambda v: np.clip(-1.2 * v, -1.0, 1.0),
                                    kappa=0.0, k_seq=k_map)],
        )
        report = solve(family, sched, SolverConfig(max_iter=4, record_history=True), [0.9])
        assert report.iterations == 4
        for rec in report.history:
            reach = abs(float(rec.x_prev[0])) + sched.omega
            assert rec.eps == (k_map(rec.n) * k_map(rec.n) - 1.0) * reach * reach
        assert report.history[1].eps > 0.0

    def test_family_sequence_below_one_refused(self):
        family, _, sched = preset(
            "cor4", base=BASE, bifunctions=[ZeroBifunction()],
            maps=[PseudoContraction(map=lambda v: 0.5 * v, kappa=0.0,
                                    k_seq=lambda n: 1.0 if n < 2 else 0.9)],
        )
        assert solve(family, sched, SolverConfig(max_iter=2), [0.9]).iterations == 2
        with pytest.raises(ValueError, match=r"inadmissible schedule: k_2=0.81 below 1"):
            solve(family, sched, SolverConfig(max_iter=3), [0.9])

    def test_derived_bounds_match_declared_bound_rule(self):
        # b, d and e set to the prefix's own extremes make the rule with
        # declared bounds flag exactly what the derived rule flags.
        rng = np.random.default_rng(2016)
        groups = {"omega": "omega", "b below 1": "beta", "b at least kappa": "beta",
                  "0 < d <= e": "r", "e below twice the modulus": "r"}
        flagged = 0
        for _ in range(400):
            count = int(rng.integers(1, 30))
            kappa = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
            ism_alpha = float(rng.choice([math.inf, rng.uniform(0.1, 3.0)]))
            top = 2.0 * ism_alpha if math.isfinite(ism_alpha) else 10.0
            sched = ParamSchedule(
                alpha_fn=seeded_sequence(rng, 0.0, 1.0, [0.0, 1.0, 0.5], count),
                beta_fn=seeded_sequence(
                    rng, kappa, 1.0, [kappa, 1.0, np.nextafter(kappa, -1.0)], count),
                r_fn=seeded_sequence(
                    rng, 0.0, top, [0.0, 2.0 * ism_alpha, np.nextafter(top, 0.0)], count),
                omega=float(rng.choice([1.0, 1.0, 0.0, math.inf, -1.0])),
            )
            k_seq = seeded_sequence(rng, 1.0, 3.0, [1.0, 0.5, np.nextafter(1.0, 0.0)],
                                    count)
            betas = [sched.beta_fn(n) for n in range(count)]
            steps = [sched.r_fn(n) for n in range(count)]
            frozen = declared_bound_violations(
                sched.alpha_fn, sched.beta_fn, sched.r_fn, k_seq, sched.omega,
                max(betas), min(steps), max(steps), kappa, ism_alpha, count, k_seq)
            derived = sched.violations(kappa, ism_alpha, count, k_seq)
            assert ({groups.get(v, v.split("_")[0]) for v in frozen}
                    == {v.split("=")[0].split("_")[0] for v in derived})
            flagged += bool(derived)
        assert 100 < flagged < 350


class TestIterate:
    def test_halfway_projection(self):
        # negation map turns the anchor 1 into the candidate 0, so the cut
        # is v <= 1/2 and the projection of the anchor gives exactly 1/2
        family = ProblemFamily.from_members(
            BASE, [], [PseudoContraction(map=lambda v: -v, kappa=0.0)]
        )
        state = iterate(
            initial_state([1.0]), family, flat_schedule(), SolverConfig()
        )
        assert state.x[0] == pytest.approx(0.5, abs=1e-12)
        assert state.last.z_far[0] == pytest.approx(0.0, abs=1e-15)
        assert state.n == 1

    def test_fixed_point_stays(self):
        family = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), zero_operator())], [identity_map()]
        )
        state = initial_state([0.3])
        for _ in range(3):
            state = iterate(state, family, flat_schedule(), SolverConfig())
        assert state.x[0] == 0.3
        assert all(cut.is_degenerate for cut in state.nested.cuts)
        assert len(state.nested.cuts) == 3

    def test_tail_cut_boundary_is_midpoint(self):
        # Convergence tail of the benchmark: x sits 1e-5 above xi_1 and the
        # averaging weight is small, so z_far lies a few ulp below x.
        family, sched, xi_1 = build_section4(4, 4)
        sched = replace(sched, alpha_fn=lambda n: 1e-6)
        state = iterate(
            initial_state([xi_1 + 1e-5]), family, sched, SolverConfig()
        )
        (cut,) = state.nested.cuts
        assert not cut.is_degenerate
        midpoint = 0.5 * (state.last.x_prev[0] + state.last.z_far[0])
        boundary = cut.offset / cut.normal[0]
        assert abs(boundary - midpoint) <= 4 * abs(np.spacing(midpoint))
        assert cut.contains(np.array([xi_1]), tol=0.0)

    def test_records_count_the_blocks_each_phase_evaluated(self, monkeypatch):
        # 300 resolvent and 500 mapping members in 64-row blocks: phase 1
        # moves 5 blocks' worth at the anchor 0.8 and the bound keeps it to
        # one; a negative y_far moves no mapping member.
        monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
        family, sched, _ = build_section4(300, 500)
        record = iterate(initial_state([0.8]), family, sched, SolverConfig()).last
        assert family.gep_moved(1.0, np.array([0.8])) > 4 * 64
        assert record.blocks_y == 1
        assert record.blocks_z == (0 if record.y_far[0] < 0 else 1)
        unbounded = replace(family, gep_bound=None, map_bound=None)
        full = iterate(initial_state([0.8]), unbounded, sched, SolverConfig()).last
        assert full.blocks_y == math.ceil(family.gep_moved(1.0, np.array([0.8])) / 64)
        assert (full.i_far, full.j_far) == (record.i_far, record.j_far)
        np.testing.assert_array_equal(full.x_new, record.x_new)

    def test_worker_count_invariance(self):
        family, sched, _ = build_section4(64, 96)
        runs = {}
        for w in (1, 8):
            cfg = SolverConfig(max_iter=40, workers=w, record_history=True)
            runs[w] = solve(family, sched, cfg, [1.0])
        assert runs[1].final_x[0] == runs[8].final_x[0]
        for a, b in zip(runs[1].history, runs[8].history):
            assert np.array_equal(a.x_new, b.x_new)
            assert a.res_y == b.res_y and a.res_z == b.res_z
            assert a.i_far == b.i_far and a.j_far == b.j_far

    def test_small_blocks_identical_across_worker_counts(self, monkeypatch):
        # 64-row blocks: the moved prefixes span several blocks and split
        # into pooled shares, for closed-form kernels and member objects.
        monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
        spec = Section4Spec(n_geps=150, n_maps=200)
        kernels, sched, _ = build_section4(150, 200)
        members, cor5, cor5_sched = preset(
            "cor5", base=kernels.base,
            bifunctions=[section4_bifunction(float(t)) for t in spec.thresholds],
            maps=[section4_map(float(c)) for c in spec.coefficients],
        )
        fields = ("x_prev", "x_new", "y_far", "z_far", "i_far", "j_far",
                  "eps", "res_y", "res_z", "res_s")
        for family, schedule, cfg, iters in (
            (kernels, sched, SolverConfig(), 60),
            (members, cor5_sched, cor5, 12),
        ):
            runs = {}
            for w in (1, 2, 8):
                runs[w] = solve(family, schedule, replace(
                    cfg, max_iter=iters, workers=w, record_history=True), [0.9])
            for w in (2, 8):
                assert runs[w].final_x.tobytes() == runs[1].final_x.tobytes()
                for a, b in zip(runs[1].history, runs[w].history, strict=True):
                    for name in fields:
                        assert (np.asarray(getattr(a, name)).tobytes()
                                == np.asarray(getattr(b, name)).tobytes()), name

    def test_asymptotic_power_grows_with_iteration(self):
        halving = PseudoContraction(
            map=lambda v: 0.5 * v, kappa=0.0, asymptotic=True, k_seq=lambda n: 1.0
        )
        family = ProblemFamily.from_members(BASE, [], [halving])
        sched = flat_schedule()
        cfg = SolverConfig()
        state = initial_state([0.8])
        for expected_power in range(3):
            alpha = sched.alpha_fn(state.n)
            x = state.x
            mapped = apply_power(halving, expected_power, x)
            predicted = alpha * x + (1 - alpha) * mapped
            state = iterate(state, family, sched, cfg)
            assert state.last.z_far[0] == pytest.approx(predicted[0], abs=1e-15)

    def test_plain_maps_single_application_at_every_iteration(self):
        # The twin of the test above: a plain map is applied once whatever
        # the iteration index, and its unit sequence leaves the cut exact.
        halving = PseudoContraction(map=lambda v: 0.5 * v, kappa=0.0)
        family = ProblemFamily.from_members(BASE, [], [halving])
        sched = flat_schedule()
        state = initial_state([0.8])
        for _ in range(4):
            alpha = sched.alpha_fn(state.n)
            x = state.x
            predicted = alpha * x + (1 - alpha) * halving(x)
            state = iterate(state, family, sched, SolverConfig())
            assert state.last.z_far[0] == predicted[0]
            assert state.last.eps == 0.0


def table_family(y_rows, s_rows):
    """d-dimensional family whose candidates are fixed tables: resolvent i
    returns ``y_rows[i]``, and mapping j sends v to ``s_rows[j] + v / 2``."""
    d = y_rows.shape[1]
    return ProblemFamily(
        base=Box(lo=-np.ones(d), hi=np.ones(d)),
        geps=[None] * len(y_rows),
        maps=[None] * len(s_rows),
        alpha=math.inf,
        kappa=0.0,
        k_seq=lambda n: 1.0,
        gep_kernel=lambda lo, hi, r, x: y_rows[lo:hi].copy(),
        map_kernel=lambda lo, hi, power, v: s_rows[lo:hi] + 0.5 * v,
    )


class TestMappingPhase:
    """Phase 3 ranks the raw mapped points; the oracle combines every
    candidate ``alpha x + (1 - alpha)(beta y + (1 - beta) s_j)`` first."""

    N = 3
    SCHED = flat_schedule(beta=0.3)

    def check_against_combined_oracle(self, family, x):
        state = SolverState(n=self.N, x=x, x0=x, nested=NestedSet(base=family.base))
        record = iterate(state, family, self.SCHED, SolverConfig()).last
        alpha, beta = self.SCHED.alpha_fn(self.N), self.SCHED.beta_fn(self.N)
        s = family.map_kernel(0, family.n_maps, 1, record.y_far)
        mix = alpha * x + (1.0 - alpha) * beta * record.y_far
        z = s * ((1.0 - alpha) * (1.0 - beta)) + mix
        j, z_j = select_furthest(x, list(z))
        assert record.j_far == j
        np.testing.assert_array_equal(record.z_far, z_j)
        assert record.res_z == pytest.approx(
            math.sqrt(float(np.sum((z_j - x) ** 2))), rel=1e-15
        )
        return j

    def test_random_d2_families_match_combined_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            family = table_family(
                rng.uniform(-1, 1, (7, 2)), rng.uniform(-1, 1, (300, 2))
            )
            self.check_against_combined_oracle(family, rng.uniform(-0.5, 0.5, 2))

    def test_duplicate_maps_pick_first_index(self):
        rng = np.random.default_rng(43)
        s_rows = np.repeat(rng.uniform(-1, 1, (5, 2)), 4, axis=0)
        family = table_family(rng.uniform(-1, 1, (3, 2)), s_rows)
        j = self.check_against_combined_oracle(family, np.array([0.1, -0.2]))
        assert j % 4 == 0


class TestStructuredFailures:
    def test_sweep_budget_carries_iteration_and_counts(self):
        family, sched, _ = build_section4(4, 4)
        cfg = SolverConfig(max_iter=3, projection_max_sweeps=1)
        with pytest.raises(ProjectionFailure) as err:
            solve(family, sched, cfg, [1.0])
        assert str(err.value).startswith("iteration 0: projection did not reach")
        assert (err.value.iteration, err.value.cuts, err.value.sweeps) == (0, 1, 1)
        assert err.value.best is not None

    def test_infeasible_set_carries_iteration_and_counts(self):
        family, sched, _ = build_section4(4, 4)
        state = replace(initial_state([1.0]), n=5)
        state.nested.add_cut(Halfspace(normal=np.array([1.0]), offset=-2.0))
        with pytest.raises(InfeasibleSetError) as err:
            iterate(state, family, sched, SolverConfig())
        assert str(err.value).startswith("iteration 5: alternating projections cycle")
        assert err.value.iteration == 5
        assert err.value.cuts == 2
        assert 5 <= err.value.sweeps < SolverConfig().projection_max_sweeps


# Each family below has a single common solution, yet project_nested's
# cycle heuristic declares the accumulated cuts empty partway through.
FALSE_INFEASIBILITY = pytest.mark.xfail(
    strict=True,
    raises=InfeasibleSetError,
    reason="ROADMAP item 2: the Dykstra cycle heuristic in project_nested raises "
           "a false InfeasibleSetError in R^2",
)


class TestKnownFalseInfeasibility:
    """Known answers in R^2. With an exact projection (SLSQP) in place of
    Dykstra, cor1 reached tol 1e-6 at iteration 44 and cor4 tol 1e-2 at 194.

    The cycle heuristic cannot simply be deleted before that exact
    projection lands: without it, plain Dykstra spends its 10,000 sweeps and
    raises ProjectionFailure at iteration 30 (cor1) and 80 (cor4), and at
    iteration 111 on ``ball_d8`` seeds 0 and 1 (measured on a copy of
    ``project_nested`` without the test)."""

    @FALSE_INFEASIBILITY
    def test_cor1_on_a_box_reaches_the_origin(self):
        # At present the solve stops at iteration 18.
        family, cfg, sched = preset(
            "cor1", base=Box([-1.0, -1.0], [1.0, 1.0]),
            bifunctions=[CustomBifunction(lambda r, w, s=s: w / (1 + r * s))
                         for s in (0.5, 1.0, 2.0)] + [ZeroBifunction()],
            operators=[affine_operator(1.0, [0.0, 0.0]),
                       affine_operator(2.0, [0.0, 0.0])],
            maps=[PseudoContraction(lambda x: 0.5 * x, kappa=0.0)],
        )
        origin = np.zeros(2)
        cfg = replace(cfg, stop=ToleranceToReference(reference=origin, tol=1e-6),
                      max_iter=1000)
        report = solve(family, sched, cfg, [0.9, -0.7])
        assert report.stop_reason == "tol_to_reference"
        assert np.linalg.norm(report.final_x - origin) <= 1e-6

    @FALSE_INFEASIBILITY
    def test_cor4_with_a_rotation_reaches_its_centre(self):
        # At present the solve stops at iteration 32.
        p = np.array([0.3, 0.2])
        t = 0.7
        rotation = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        family, cfg, sched = preset(
            "cor4", base=Ball([0.0, 0.0], 1.0), bifunctions=[ZeroBifunction()] * 2,
            operators=[affine_operator(1.0, p), affine_operator(2.0, p)],
            maps=[PseudoContraction(map=lambda v: p + rotation @ (v - p), kappa=0.0,
                                    k_seq=lambda n: 1 + 1 / (n + 1) ** 2)],
        )
        cfg = replace(cfg, stop=ToleranceToReference(reference=p, tol=1e-2),
                      max_iter=1000)
        report = solve(family, sched, cfg, [0.6, -0.5])
        assert report.stop_reason == "tol_to_reference"
        assert np.linalg.norm(report.final_x - p) <= 1e-2


class TestTailLaw:
    """The section4 tail near convergence, on the solver-free replay.

    Near the limit ``t = x_n - xi_1`` is small, the winning resolvent moves
    ``x`` by ``t - arctan t = t^3/3 - ...`` and the cut halves that step, so
    ``x_{n+1} - x_n = -(1 - alpha_n)(t - arctan t)/2`` and ``dt/dn ~ -t^3/6``:
    ``t^-2 ~ n/3`` to leading order. The factor ``1 + ln n / n`` is fitted to
    the desk-scale replay from the anchor 1, not derived. After it, the
    replay's relative residual is below ``0.1 / n`` at every checkpoint
    (-5.1e-5 at 1e3, +2.3e-8 at 1e5). Averaging weights ``1/(n+3)`` give
    a residual of 3.3e-4 in size at 1e3, and a step without its
    ``(1 - alpha_n)`` (the ``ybar < 0`` branch, the one taken near the
    limit) one of 0.98."""

    CHECKPOINTS = (1_000, 3_000, 10_000, 30_000, 100_000)

    def test_gap_follows_the_law(self):
        xs = reference_trajectory(2000, 3000, self.CHECKPOINTS[-1])
        ref = Section4Spec(2000, 3000).reference
        for n in self.CHECKPOINTS:
            gap = abs(float(xs[n - 1]) - ref)  # after n iterations
            residual = gap * math.sqrt(n / 3) / (1 + math.log(n) / n) - 1
            assert abs(residual) <= 0.1 / n, (n, residual)


class TestSolve:
    def test_matches_reference_trajectory(self):
        family, sched, _ = build_section4(20, 30)
        cfg = SolverConfig(max_iter=150, record_history=True)
        report = solve(family, sched, cfg, [1.0])
        expected = reference_trajectory(20, 30, 150)
        got = np.array([r.x_new[0] for r in report.history])
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_reference_stop_rule(self):
        family, sched, ref = build_section4(20, 30)
        cfg = SolverConfig(
            stop=ToleranceToReference(reference=[ref], tol=0.2), max_iter=500
        )
        report = solve(family, sched, cfg, [1.0])
        assert report.stop_reason == "tol_to_reference"
        assert abs(report.final_x[0] - ref) <= 0.2
        assert report.iterations < 500

    def test_residual_stop_rule(self):
        family, sched, _ = build_section4(20, 30)
        cfg = SolverConfig(stop=ResidualBelow(tol=1e-3), max_iter=500)
        report = solve(family, sched, cfg, [1.0])
        assert report.stop_reason == "residual"

    def test_affine_operator_problem_converges(self):
        # single variational-inequality member with solution 0.5
        family = ProblemFamily.from_members(
            BASE,
            [(ZeroBifunction(), affine_operator(1.0, [0.5]))],
            [identity_map()],
        )
        sched = flat_schedule(r=0.5)
        cfg = SolverConfig(
            stop=ToleranceToReference(reference=[0.5], tol=1e-6), max_iter=300
        )
        report = solve(family, sched, cfg, [1.0])
        assert report.stop_reason == "tol_to_reference"
        assert report.final_x[0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_budget_returns_anchor(self):
        family, sched, _ = build_section4(3, 3)
        report = solve(family, sched, SolverConfig(max_iter=0), [1.0])
        assert report.stop_reason == "budget"
        assert report.iterations == 0
        assert report.final_x[0] == 1.0

    def test_anchor_outside_base_rejected(self):
        family, sched, _ = build_section4(3, 3)
        with pytest.raises(ValueError, match=r"anchor x0 \[2\.0\] lies outside"):
            solve(family, sched, SolverConfig(max_iter=1), [2.0])

    def test_anchor_of_wrong_dimension_rejected(self):
        # A 1-D anchor on a 2-D box is rejected before the membership test.
        family = ProblemFamily.from_members(
            Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
            [(ZeroBifunction(), affine_operator(1.0, [0.5, 0.2]))],
            [identity_map()],
        )
        with pytest.raises(ValueError, match="anchor x0 has dimension 1; "
                           "the base set has dimension 2"):
            solve(family, flat_schedule(), SolverConfig(max_iter=1), [0.5])

    def test_reference_of_wrong_dimension_rejected(self):
        family = ProblemFamily.from_members(
            Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
            [(ZeroBifunction(), affine_operator(1.0, [0.5, 0.2]))],
            [identity_map()],
        )
        cfg = SolverConfig(stop=ToleranceToReference(reference=[0.5], tol=1e-6))
        with pytest.raises(ValueError, match="stop reference has dimension 1; "):
            solve(family, flat_schedule(), cfg, [0.6, -0.5])

    @pytest.mark.parametrize(
        "key, value",
        [("max_iter", 2.5), ("max_iter", True), ("workers", 2.5),
         ("workers", math.inf), ("projection_max_sweeps", 10.0),
         ("projection_max_sweeps", False), ("workers", np.float64(2.0))],
    )
    def test_non_integer_counts_refused(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}': must be an integer, got"):
            SolverConfig(**{key: value})

    def test_numpy_integer_counts_accepted(self):
        family, sched, _ = build_section4(3, 3)
        cfg = SolverConfig(max_iter=np.int64(3), workers=np.int32(2),
                           projection_max_sweeps=np.int64(50))
        assert solve(family, sched, cfg, [1.0]).iterations == 3

    @pytest.mark.parametrize(
        "settings",
        [{"projection_tol": math.nan}, {"projection_tol": 0.0},
         {"projection_tol": math.inf}, {"projection_max_sweeps": 0}],
        ids=["tol-nan", "tol-zero", "tol-inf", "sweeps-zero"],
    )
    def test_bad_projection_settings_refused(self, settings):
        # Unrefused, a NaN tolerance spends the whole sweep budget, a zero
        # one fails inside iteration 0 without its number, and zero sweeps
        # report a last sweep that "moved inf".
        [name] = settings
        with pytest.raises(ValueError, match=name):
            SolverConfig(**settings)

    def test_inadmissible_schedule_rejected(self):
        family, sched, _ = build_section4(3, 3)
        bad = replace(sched, beta_fn=lambda n: family.kappa / 2)
        with pytest.raises(ValueError, match="inadmissible schedule"):
            solve(family, bad, SolverConfig(max_iter=5), [1.0])

    @pytest.mark.parametrize(
        "make_rule",
        [lambda tol: ToleranceToReference(reference=[0.0], tol=tol), ResidualBelow],
        ids=["tol_to_reference", "residual"],
    )
    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_stop_tolerance_refused(self, make_rule, tol):
        with pytest.raises(ValueError, match="stop tolerance must be positive"):
            make_rule(tol)


def _cor1_without_maps():
    return preset(
        "cor1", base=BASE,
        bifunctions=[CustomBifunction(lambda r, w, s=s: w / (1 + r * s))
                     for s in (0.5, 1.0, 2.0)],
        operators=[affine_operator(1.0, [0.0]), affine_operator(2.0, [0.0])],
    )


def _cor2_on_the_disc():
    return preset(
        "cor2", base=Ball([0.0, 0.0], 1.0),
        operators=[affine_operator(1.0, [0.5, 0.2]), affine_operator(2.0, [0.5, 0.2])],
    )


# (family, anchor, answer, iterations, largest gap to the answer). The disc
# stops at 12 iterations: the false InfeasibleSetError of ROADMAP item 2
# fires at iteration 14.
KIND_FREE_FAMILIES = {
    "cor1-without-maps": (_cor1_without_maps, [0.9], [0.0], 40, 1e-9),
    "cor2-without-maps": (
        lambda: preset("cor2", base=BASE, operators=[affine_operator(1.0, [0.5])]),
        [1.0], [0.5], 40, 1e-9),
    "cor2-disc-without-maps": (_cor2_on_the_disc, [0.6, -0.5], [0.5, 0.2], 12, 5e-3),
    # Maps only: x - 1.5 x^2 fixes [-1, 0], approached like 2 / n.
    "cor5-without-pairs": (
        lambda: preset("cor5", base=BASE, maps=[section4_map(1.5)]),
        [0.9], [0.0], 100, 0.025),
}


class TestFamiliesWithoutAKind:
    """A family without mappings takes the general relaxed step with S = I,
    and one without pairs takes x itself as its resolvent candidate."""

    @pytest.mark.parametrize("name", KIND_FREE_FAMILIES)
    def test_reaches_its_answer_alike_at_1_and_2_workers(self, name):
        make, x0, answer, iterations, gap = KIND_FREE_FAMILIES[name]
        family, cfg, sched = make()
        runs = [solve(family, sched, replace(cfg, max_iter=iterations, workers=w,
                                             record_history=True), x0)
                for w in (1, 2)]
        assert np.linalg.norm(runs[0].final_x - answer) <= gap
        assert runs[0].final_x.tobytes() == runs[1].final_x.tobytes()
        for a, b in zip(*(run.history for run in runs), strict=True):
            for field in ("x_prev", "x_new", "y_far", "z_far", "i_far", "j_far",
                          "blocks_y", "blocks_z", "eps", "res_y", "res_z", "res_s"):
                got, want = getattr(a, field), getattr(b, field)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field

    @pytest.mark.parametrize("name", KIND_FREE_FAMILIES)
    def test_missing_kind_leaves_its_phase_a_no_op(self, name):
        make, x0, _, iterations, _ = KIND_FREE_FAMILIES[name]
        family, cfg, sched = make()
        report = solve(family, sched, replace(cfg, max_iter=iterations,
                                              record_history=True), x0)
        for rec in report.history:
            if family.n_maps:
                assert rec.i_far == -1 and rec.blocks_y == 0 and rec.res_y == 0.0
                assert rec.y_far.tobytes() == rec.x_prev.tobytes()
                continue
            # The default schedule's beta_n is kappa = 0, where the general
            # step has the closed form's bits.
            alpha = sched.alpha_fn(rec.n)
            closed = alpha * rec.x_prev + (1.0 - alpha) * rec.y_far
            assert rec.z_far.tobytes() == closed.tobytes()
            assert rec.j_far == -1 and rec.blocks_z == 0 and rec.res_s == 0.0


def _halve_in_place(v):
    v *= 0.5
    return v


def _raise_in_place(v):
    v += 0.25
    return v


def _shrink_in_place(r, w):
    w /= 1.0 + r
    return w


def writing_member_family(kind: str, writes: bool) -> ProblemFamily:
    """A family with a member that writes to its argument, or its pure twin.

    The twin computes the same arithmetic into a new array. Every family
    has a common solution: 0 for the map and bifunction kinds, -0.25 for
    the operator kind.
    """
    gep = (section4_bifunction(0.3), zero_operator())
    if kind == "map":
        halve = _halve_in_place if writes else (lambda v: 0.5 * v)
        return ProblemFamily.from_members(
            BASE, [gep], [PseudoContraction(map=halve, kappa=0.0), section4_map(1.5)]
        )
    if kind == "operator":
        # A(x) = x + 1/4, modulus 1: the variational member solves x = -1/4.
        shift = _raise_in_place if writes else (lambda v: v + 0.25)
        A = IsmOperator(map=shift, alpha=1.0)
        return ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), A), gep], [section4_map(1.5)]
        )
    # The resolvent of f(z, y) = z (y - z), with and without an operator.
    shrink = _shrink_in_place if writes else (lambda r, w: w / (1.0 + r))
    f = CustomBifunction(oracle=shrink)
    return ProblemFamily.from_members(
        BASE, [(f, affine_operator(1.0, [0.0])), (f, zero_operator())],
        [section4_map(1.5)],
    )


class TestMembersThatWriteToTheirArgument:
    @pytest.mark.parametrize("kind", ["map", "operator", "bifunction"])
    def test_solve_matches_the_pure_twin(self, kind):
        finals = {}
        for writes in (True, False):
            family = writing_member_family(kind, writes)
            sched = default_schedule(family)
            for history in (False, True):
                x0 = np.array([0.9])
                cfg = SolverConfig(max_iter=30, record_history=history)
                report = solve(family, sched, cfg, x0)
                np.testing.assert_array_equal(x0, [0.9])
                if history:
                    # The solver iterates from its own copy of the anchor.
                    assert not np.shares_memory(report.history[0].x_prev, x0)
                finals[writes, history] = report.final_x.tobytes()
        assert len(set(finals.values())) == 1, finals


class TestResiduals:
    def test_fixed_point_all_zero(self):
        family = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), zero_operator())], [identity_map()]
        )
        state = iterate(
            initial_state([0.3]), family, flat_schedule(),
            SolverConfig(record_history=True),
        )
        r = state.last
        assert r.res_y == 0.0 and r.res_z == 0.0 and r.res_s == 0.0

    def test_first_iteration_of_two_member_benchmark(self):
        family, sched, _ = build_section4(2, 2)
        state = iterate(
            initial_state([1.0]), family, sched, SolverConfig(record_history=True)
        )
        r = state.last
        assert r.res_y == pytest.approx(1.0 - (-1 / 3 + math.atan(4 / 3)), abs=1e-9)
        assert r.res_y >= 0 and r.res_z >= 0 and r.res_s >= 0


    @pytest.mark.parametrize(
        "cfg_change",
        [{"record_history": True}, {"stop": ResidualBelow(1e-3)}],
        ids=["history", "residual_stop"],
    )
    def test_non_finite_map_in_residual_pass_raises(self, cfg_change):
        # Phase 3 maps y_far < 0.9, so only the res_S pass at x = 1.0 meets
        # the NaN; it used to be recorded as res_s = nan.
        broken = PseudoContraction(
            map=lambda v: np.where(v > 0.9, np.nan, v), kappa=0.0
        )
        family, cfg, sched = preset(
            "cor5", base=BASE, bifunctions=[section4_bifunction(-0.5)],
            maps=[section4_map(1.5), broken],
        )
        with pytest.raises(ValueError, match="member 1 "):
            solve(family, sched, replace(cfg, max_iter=3, **cfg_change), [1.0])

    def test_residual_pass_timed_only_when_run(self):
        family, sched, _ = build_section4(2, 2)
        quiet, timed = (
            iterate(initial_state([1.0]), family, sched,
                    SolverConfig(record_history=history)).last
            for history in (False, True)
        )
        assert quiet.res_s is None and quiet.t_residual_ms == 0.0
        assert timed.res_s is not None and timed.t_residual_ms > 0.0

class TestRunInvariants:
    def test_containment_monotonicity_and_cut_bound(self):
        family, sched, ref = build_section4(20, 30)
        cfg = SolverConfig(max_iter=120, record_history=True)
        state = initial_state([1.0])
        x0 = state.x
        dist_prev = 0.0
        solutions = [np.array([-1.0]), np.array([ref])]
        for _ in range(120):
            state = iterate(state, family, sched, cfg)
            rec = state.last
            # the new iterate lies in the freshly cut set
            assert contains(state.nested, state.x, tol=1e-9)
            assert len(state.nested.cuts) == state.n
            # anchor distance never decreases
            dist = float(np.linalg.norm(state.x - x0))
            assert dist >= dist_prev - 1e-10
            dist_prev = dist
            # every known solution satisfies the new cut with slack eps
            for u in solutions:
                lhs = float(np.sum((rec.z_far - u) ** 2))
                rhs = float(np.sum((rec.x_prev - u) ** 2)) + rec.eps
                assert lhs <= rhs + 1e-9
        for u in solutions:
            assert contains(state.nested, u, tol=1e-9)

    def test_selection_dominates_every_member(self):
        family, sched, _ = build_section4(15, 15)
        cfg = SolverConfig(max_iter=25, record_history=True)
        report = solve(family, sched, cfg, [1.0])
        for rec in report.history:
            x = rec.x_prev
            for i in range(family.n_geps):
                f, A = family.geps[i]
                y_i = resolvent(f, A, 1.0, x, family.base)
                assert rec.res_y >= float(np.linalg.norm(y_i - x)) - 1e-9

    def test_residual_decay_within_budget(self):
        family, sched, _ = build_section4(20, 30)
        cfg = SolverConfig(max_iter=200, record_history=True)
        report = solve(family, sched, cfg, [1.0])
        last = report.history[-1]
        assert last.res_y <= 1e-3
        assert last.res_z <= 1e-3
        assert last.res_s <= 1e-3
