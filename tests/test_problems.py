import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hybridproj.geometry import Box, CustomSet
from hybridproj.operators import (
    PseudoContraction,
    ZeroBifunction,
    affine_operator,
    identity_map,
    resolvent,
    verify_family,
    zero_operator,
)
from hybridproj.problems import (
    IntervalSolution,
    PointSolution,
    Section4Spec,
    build_section4,
    default_schedule,
    preset,
    section4_bifunction,
    section4_map,
)
from hybridproj.solver import solve
from oracles import full_chunk, section4_coefficients, section4_thresholds


class TestSection4Spec:
    def test_three_thresholds(self):
        spec = Section4Spec(n_geps=3, n_maps=1)
        np.testing.assert_allclose(spec.thresholds, [-0.5, 0.0, 0.5])

    def test_three_coefficients(self):
        spec = Section4Spec(n_geps=1, n_maps=3)
        np.testing.assert_allclose(spec.coefficients, [1.75, 1.5, 1.25])
        assert spec.kappa == pytest.approx(3.0 / 7.0)

    def test_full_scale_reference_value(self):
        spec = Section4Spec(n_geps=2_000_000, n_maps=1)
        assert spec.reference == pytest.approx(-1.0 + 2.0 / 2_000_001, abs=1e-15)

    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            Section4Spec(n_geps=0, n_maps=1)

    @pytest.mark.parametrize("n_geps, n_maps", [(1, 1), (7, 11), (2000, 3000)])
    def test_arrays_match_the_closed_formulas_bit_for_bit(self, n_geps, n_maps):
        spec = Section4Spec(n_geps=n_geps, n_maps=n_maps)
        assert spec.thresholds.tobytes() == section4_thresholds(n_geps).tobytes()
        assert spec.coefficients.tobytes() == section4_coefficients(n_maps).tobytes()

    @pytest.mark.parametrize("bounds", [
        # the 32,768-row block edge, odd splits, and the tail of M = 3e6
        (0, 32_767, 32_768, 32_769, 65_536, 98_305, 3_000_000),
        (0, 1, 4_099, 777_777, 1_500_001, 2_999_999, 3_000_000),
        (0, 2_967_231, 2_999_998, 3_000_000),
    ])
    def test_coefficient_blocks_match_the_closed_formula(self, bounds):
        spec = Section4Spec(n_geps=1, n_maps=3_000_000)
        blocks = [spec.coefficient_block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        got = np.concatenate(blocks)
        assert got.tobytes() == section4_coefficients(3_000_000).tobytes()

    def test_building_the_family_allocates_no_member_array(self):
        # 24 MB of coefficients at M = 3e6 if they were stored.
        tracemalloc.start()
        try:
            family, _, _ = build_section4(1, 3_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert family.n_maps == 3_000_000
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_geps", [1, 2, 3, 1000, 2_000_000])
    def test_thresholds_ascend_strictly(self, n_geps):
        # The closed-form resolvent kernel relies on this order.
        assert np.all(np.diff(Section4Spec(n_geps=n_geps, n_maps=1).thresholds) > 0)


class TestBuildSection4:
    def test_member_counts_and_constants(self):
        family, sched, ref = build_section4(3, 3)
        assert family.n_geps == 3 and family.n_maps == 3
        assert family.kappa == pytest.approx(3.0 / 7.0)
        assert math.isinf(family.alpha)
        assert ref == pytest.approx(-0.5)
        assert sched.violations(family.kappa, family.alpha, 100) == []

    def test_family_passes_audit(self):
        family, _, _ = build_section4(8, 10)
        report = verify_family(family, samples=1000, rng_seed=0)
        assert report.ok, report.failures()

    def test_member_constants_match_lazy_views(self):
        family, _, _ = build_section4(5, 7)
        spec = Section4Spec(n_geps=5, n_maps=7)
        for j, s in enumerate(family.maps):
            assert s.kappa == pytest.approx(1.0 - 1.0 / spec.coefficients[j])
        assert max(s.kappa for s in family.maps) == pytest.approx(family.kappa)

    def test_kernel_matches_member_resolvent(self):
        family, _, _ = build_section4(40, 10)
        xi = Section4Spec(n_geps=40, n_maps=10).thresholds
        rng = np.random.default_rng(61)
        for _ in range(25):
            x = np.array([rng.uniform(-1, 1)])
            k = family.gep_moved(1.0, x)
            assert k == np.searchsorted(xi, x[0], side="right")
            block = full_chunk(family.gep_kernel(0, k, 1.0, x), family.n_geps, x)
            for i in range(0, family.n_geps, 7):
                f, A = family.geps[i]
                member = resolvent(f, A, 1.0, x, family.base)
                assert abs(block[i, 0] - member[0]) <= 1e-10

    def test_kernel_matches_member_maps(self):
        family, _, _ = build_section4(5, 50)
        rng = np.random.default_rng(67)
        for _ in range(25):
            v = np.array([rng.uniform(-1, 1)])
            k = family.map_moved(1, v)
            assert k == (0 if v[0] < 0.0 else family.n_maps)
            block = full_chunk(family.map_kernel(0, k, 1, v), family.n_maps, v)
            for j in range(0, family.n_maps, 11):
                np.testing.assert_allclose(
                    block[j], family.maps[j](v), atol=0, rtol=0
                )

    def test_lazy_map_members_carry_the_closed_formula_coefficients(self):
        m = 3_000_000
        family, _, _ = build_section4(1, m)
        c = section4_coefficients(m)
        edges = [0, 1, 32_767, 32_768, 32_769, 1_500_000, m - 2, m - 1]
        one = np.array([1.0])
        for j in [*edges, *range(997, m, 997)]:
            # S_j(1) = 1 - c_j exactly (Sterbenz), so 1 - S_j(1) is c_j.
            assert 1.0 - family.maps[j](one)[0] == c[j], j

    def test_map_kernel_blocks_match_the_closed_formula(self):
        m = 100_003
        family, _, _ = build_section4(1, m)
        c = section4_coefficients(m)
        point = 0.6180339887
        expected = point - c * (point * point)
        for lo, hi in [(0, 32_768), (32_768, 65_537), (65_537, m), (4_099, 4_100)]:
            got = family.map_kernel(lo, hi, 1, np.array([point]))
            assert got.shape == (hi - lo, 1)
            assert got[:, 0].tobytes() == expected[lo:hi].tobytes()

    @pytest.mark.parametrize("where", ["below", "above", "on", "inside"])
    def test_kernel_matches_masked_formula(self, where):
        # The kernel is called only for members below the moved prefix; the
        # plain form evaluates arctan everywhere and masks the fixed members.
        family, _, _ = build_section4(50, 4)
        xi = Section4Spec(n_geps=50, n_maps=4).thresholds
        lo, hi = 7, 31
        point = {"below": -0.99, "above": 0.99, "on": xi[19], "inside": 0.123}[where]
        gap = point - xi[lo:hi]
        expected = np.where(gap < 0.0, point, np.arctan(gap) + xi[lo:hi])
        k = family.gep_moved(1.0, np.array([point]))
        split = min(max(k, lo), hi)
        got = family.gep_kernel(lo, split, 1.0, np.array([point]))
        assert got.shape == (split - lo, 1)
        np.testing.assert_array_equal(full_chunk(got, hi - lo, point)[:, 0], expected)

    def test_moved_prefix_counts_the_moving_members(self):
        # N = 40, M = 50: the reported prefix is exactly the set of lazy
        # member objects that move the point.
        family, _, _ = build_section4(40, 50)
        xi = Section4Spec(n_geps=40, n_maps=50).thresholds
        # Points between thresholds (a member with xi just below the point
        # moves it by about (point - xi)^3 / 3), plus both ends of the box.
        points = [-1.0, 1.0, *((xi[:-1] + xi[1:]) / 2)[::6]]
        for point in points:
            x = np.array([point])
            moves = [
                not np.array_equal(resolvent(f, A, 1.0, x, family.base), x)
                for f, A in family.geps
            ]
            k = family.gep_moved(1.0, x)
            assert k == sum(moves)
            assert moves == [True] * k + [False] * (family.n_geps - k)
        for point in (-0.7, -1e-9, 1e-9, 0.4, 1.0):
            v = np.array([point])
            moves = [not np.array_equal(s(v), v) for s in family.maps]
            assert family.map_moved(1, v) == sum(moves) == (
                0 if point < 0 else family.n_maps)

    def test_kernel_requires_unit_step(self):
        family, _, _ = build_section4(4, 4)
        with pytest.raises(ValueError):
            family.gep_kernel(0, 4, 0.5, np.array([0.0]))

    def test_profiles_nondecreasing_on_samples(self):
        rng = np.random.default_rng(71)
        for xi in (-0.9, -0.3, 0.4):
            f = section4_bifunction(xi)
            pts = rng.uniform(f.lo, f.hi, size=(500, 2))
            for a, b in pts:
                assert (f.profile(a) - f.profile(b)) * (a - b) >= -1e-12

    def test_map_not_nonexpansive_witness(self):
        # any point strictly between 2/c - 1 and 1 certifies expansion
        c = 1.5
        s = section4_map(c)
        eps = 0.7
        assert 2.0 / c - 1.0 < eps < 1.0
        gap = abs(s(np.array([eps]))[0] - s(np.array([1.0]))[0])
        assert gap > abs(1.0 - eps)

    def test_map_complement_modulus_is_half_reciprocal(self):
        # x -> c x^2 on [0, 1] has inverse-strong-monotonicity modulus
        # exactly 1/(2c); c/4 overstates it whenever c exceeds sqrt(2)
        rng = np.random.default_rng(73)
        c = 1.75
        s = section4_map(c)
        worst = math.inf
        for _ in range(2000):
            x, y = rng.uniform(-1, 1, size=(2, 1))
            ax = x - s(x)
            ay = y - s(y)
            gap2 = float(np.sum((ax - ay) ** 2))
            if gap2 > 1e-14:
                worst = min(worst, float((ax - ay) @ (x - y)) / gap2)
        assert worst >= 1.0 / (2 * c) - 1e-9
        assert worst < c / 4.0  # the larger declaration is falsified


class TestKnownSolutionSet:
    def test_benchmark_interval(self):
        family, _, ref = build_section4(4, 4)
        sol = family.known_solution
        assert isinstance(sol, IntervalSolution)
        assert sol.lo == -1.0 and sol.hi == pytest.approx(ref)
        assert sol.project([1.0])[0] == pytest.approx(ref)

    def test_left_endpoint_is_solution(self):
        family, _, _ = build_section4(1, 1)
        u = np.array([-1.0])
        f, A = family.geps[0]
        assert resolvent(f, A, 1.0, u, family.base)[0] == -1.0
        assert family.maps[0](u)[0] == -1.0

    def test_sampled_solutions_are_fixed_points(self):
        family, _, ref = build_section4(6, 6)
        rng = np.random.default_rng(79)
        sol = family.known_solution
        for _ in range(50):
            u = sol.project([rng.uniform(-2, 2)])
            for f, A in family.geps:
                assert abs(resolvent(f, A, 1.0, u, family.base)[0] - u[0]) <= 1e-10
            for s in family.maps:
                assert abs(s(u)[0] - u[0]) <= 1e-10


class TestPresets:
    def test_cor2_forward_step_form(self):
        base = Box(lo=[-1.0], hi=[1.0])
        family, cfg, sched = preset(
            "cor2",
            base=base,
            operators=[affine_operator(1.0, [0.5])],
            maps=[identity_map()],
            known_solution=PointSolution(point=[0.5]),
        )
        assert cfg.mode == "algorithm1"
        f, A = family.geps[0]
        x = np.array([0.8])
        r = sched.r_fn(0)
        y = resolvent(f, A, r, x, base)
        expected = base.project(x - r * A(x))
        assert y[0] == expected[0]

    def test_cor2_converges_to_solution(self):
        base = Box(lo=[-1.0], hi=[1.0])
        family, cfg, sched = preset(
            "cor2",
            base=base,
            operators=[affine_operator(1.0, [0.5])],
            maps=[identity_map()],
        )
        from dataclasses import replace

        from hybridproj.solver import ToleranceToReference

        cfg = replace(
            cfg, stop=ToleranceToReference(reference=[0.5], tol=1e-6), max_iter=300
        )
        report = solve(family, sched, cfg, [1.0])
        assert report.final_x[0] == pytest.approx(0.5, abs=1e-6)

    def test_cor5_pure_resolvent_step(self):
        base = Box(lo=[-1.0], hi=[1.0])
        family, cfg, sched = preset(
            "cor5",
            base=base,
            bifunctions=[section4_bifunction(-0.5)],
            maps=[section4_map(1.5)],
        )
        assert cfg.mode == "algorithm2"
        f, A = family.geps[0]
        x = np.array([0.9])
        y = resolvent(f, A, sched.r_fn(0), x, base)
        assert y[0] == pytest.approx(-0.5 + math.atan(1.4), abs=1e-10)

    def test_cor1_concatenates_members(self):
        base = Box(lo=[-1.0], hi=[1.0])
        family, cfg, _ = preset(
            "cor1",
            base=base,
            bifunctions=[section4_bifunction(0.0)],
            operators=[affine_operator(1.0, [0.2])],
            maps=[identity_map()],
        )
        assert family.n_geps == 2
        assert isinstance(family.geps[1][0], ZeroBifunction)

    def test_cor3_single_members(self):
        base = Box(lo=[-1.0], hi=[1.0])
        family, _, _ = preset(
            "cor3",
            base=base,
            bifunctions=[ZeroBifunction()],
            operators=[affine_operator(1.0, [0.0])],
            maps=[identity_map()],
        )
        assert family.n_geps == 1 and family.n_maps == 1
        with pytest.raises(ValueError):
            preset("cor3", base=base, bifunctions=[ZeroBifunction()])

    def test_cor4_wraps_sequences_and_relaxation(self):
        base = Box(lo=[-1.0], hi=[1.0])
        drift = PseudoContraction(
            map=lambda v: 0.5 * v,
            kappa=0.0,
            asymptotic=True,
            k_seq=lambda n: 1.0 + 1.0 / (n + 2),
        )
        family, cfg, sched = preset(
            "cor4", base=base, bifunctions=[ZeroBifunction()], maps=[drift]
        )
        assert cfg.mode == "algorithm1"
        assert sched.beta_fn(5) == 0.0
        # The family sequence is squared, and the schedule slack uses it.
        assert family.k_seq(0) == 1.5 * 1.5
        assert sched.k_fn is family.k_seq

    def test_cor4_slack_known_answer(self):
        # eps_n = (max_i k_i(n)^2 - 1) * (|x_n| + omega)^2; the second map
        # dominates for n <= 4, the first after. At n = 6 and 56 the first
        # constant has k ** 2 != k * k on some hosts, so a naive square
        # shows as a bit difference there.
        seqs = (lambda n: 1.0 + 1.87 / (n + 2), lambda n: 1.0 + 12.0 / (n + 2) ** 2)
        maps = [
            PseudoContraction(map=lambda v: 0.5 * v, kappa=0.0, k_seq=seqs[0]),
            PseudoContraction(map=lambda v: -0.3 * v, kappa=0.0, k_seq=seqs[1]),
        ]
        family, cfg, sched = preset(
            "cor4", base=Box(lo=[-1.0], hi=[1.0]),
            bifunctions=[section4_bifunction(-0.4)], maps=maps, omega=1.25,
        )
        for workers in (1, 2):
            report = solve(family, sched, replace(
                cfg, max_iter=60, record_history=True, workers=workers), [0.9])
            assert report.iterations == 60
            for rec in report.history:
                k2 = max(k(rec.n) * k(rec.n) for k in seqs)
                reach = abs(float(rec.x_prev[0])) + 1.25
                assert rec.eps == (k2 - 1.0) * reach * reach
                assert rec.eps > 0.0

    @pytest.mark.parametrize("k", [0.5, -2.0])
    def test_cor4_constant_below_one_reported(self, k):
        drift = PseudoContraction(map=lambda v: v, kappa=0.0, k_seq=lambda n: k)
        family, _, sched = preset("cor4", base=Box(lo=[-1.0], hi=[1.0]), maps=[drift])
        issues = sched.violations(family.kappa, family.alpha, 5)
        assert any(v.startswith("k_0=") and v.endswith("below 1") for v in issues)

    def test_cor4_rejects_positive_constant(self):
        base = Box(lo=[-1.0], hi=[1.0])
        with pytest.raises(ValueError):
            preset("cor4", base=base, bifunctions=[], maps=[section4_map(1.5)])

    def test_cor4_unit_sequence_identical_to_cor5(self):
        base = Box(lo=[-1.0], hi=[1.0])
        bif = section4_bifunction(-0.4)
        plain = identity_map()
        asym = PseudoContraction(
            map=plain.map, kappa=0.0, asymptotic=True, k_seq=lambda n: 1.0
        )
        fam4, cfg4, sched4 = preset("cor4", base=base, bifunctions=[bif], maps=[asym])
        fam5, cfg5, sched5 = preset("cor5", base=base, bifunctions=[bif], maps=[plain])
        r4 = solve(fam4, sched4, replace(cfg4, max_iter=40, record_history=True), [1.0])
        r5 = solve(
            fam5,
            replace(sched5, beta_fn=lambda n: 0.0),
            replace(cfg5, max_iter=40, record_history=True),
            [1.0],
        )
        assert r4.final_x[0] == r5.final_x[0]
        for a, b in zip(r4.history, r5.history):
            assert a.eps == 0.0
            assert np.array_equal(a.x_new, b.x_new)

    def test_cor5_rejects_asymptotic_maps(self):
        base = Box(lo=[-1.0], hi=[1.0])
        asym = PseudoContraction(map=lambda v: v, kappa=0.0, asymptotic=True)
        with pytest.raises(ValueError):
            preset("cor5", base=base, bifunctions=[], maps=[asym])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("cor9", base=Box(lo=[-1.0], hi=[1.0]))
        with pytest.raises(ValueError):
            preset("section4", base=Box(lo=[-1.0], hi=[1.0]))


class TestDefaultSchedule:
    def test_norm_bound_box_and_ball(self):
        from hybridproj.geometry import Ball

        family, _, _ = build_section4(2, 2)
        sched = default_schedule(family)
        assert sched.omega == pytest.approx(1.0)
        ball_family = type(family).from_members(
            Ball(center=[0.5], radius=2.0),
            [(ZeroBifunction(), zero_operator())],
            [identity_map()],
        )
        assert default_schedule(ball_family).omega == pytest.approx(2.5)

    def test_custom_base_needs_explicit_omega(self):
        custom = CustomSet(projection=lambda p: np.clip(p, -1, 1), dimension=1)
        family = type(build_section4(1, 1)[0]).from_members(
            custom, [(ZeroBifunction(), zero_operator())], [identity_map()]
        )
        with pytest.raises(ValueError):
            default_schedule(family)
        sched = default_schedule(family, omega=3.0)
        assert sched.omega == 3.0

    def test_finite_modulus_sets_step(self):
        base = Box(lo=[-1.0], hi=[1.0])
        family, _, sched = preset(
            "cor2",
            base=base,
            operators=[affine_operator(2.0, [0.0])],  # modulus 0.5
            maps=[identity_map()],
        )
        assert sched.r_fn(0) == pytest.approx(0.5)
        assert sched.violations(family.kappa, family.alpha, 50) == []
