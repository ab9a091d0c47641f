import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pytest

from hybridproj import problems
from hybridproj.geometry import Box, CustomSet
from hybridproj.operators import (
    ProblemFamily,
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
from hybridproj.parallel import TARGET_CHUNK_ROWS, squared_distances
from hybridproj.solver import checked_inputs, mapping_phase, resolvent_phase, solve
from oracles import (
    full_chunk,
    section4_coefficients,
    section4_map_where,
    section4_thresholds,
)


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

    @pytest.mark.parametrize("n_geps, n_maps, key", [
        (2000.0, 3000, "n_geps"), (True, 3, "n_geps"), (3, 2.5, "n_maps"),
        (3, False, "n_maps"), (3, "4", "n_maps"),
    ])
    def test_sizes_must_be_integers(self, n_geps, n_maps, key):
        with pytest.raises(ValueError, match=f"'{key}': must be an integer"):
            build_section4(n_geps, n_maps)

    def test_numpy_integer_sizes_accepted(self):
        family, _, reference = build_section4(np.int64(3), np.int32(4))
        expected, _, _ = build_section4(3, 4)
        assert (family.n_geps, family.n_maps) == (3, 4)
        assert (reference, family.kappa) == (-0.5, expected.kappa)

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
        blocks = [spec.coefficients_at(np.arange(lo, hi))
                  for lo, hi in zip(bounds, bounds[1:])]
        got = np.concatenate(blocks)
        assert got.tobytes() == section4_coefficients(3_000_000).tobytes()

    def test_building_the_family_allocates_no_member_array(self):
        # 16 MB of thresholds at N = 2e6 and 24 MB of coefficients at
        # M = 3e6 if they were stored.
        tracemalloc.start()
        try:
            family, _, _ = build_section4(2_000_000, 3_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (family.n_geps, family.n_maps) == (2_000_000, 3_000_000)
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_geps", [1, 2, 3, 7, 2000, 2_000_000])
    def test_thresholds_at_match_the_closed_formula(self, n_geps):
        spec = Section4Spec(n_geps=n_geps, n_maps=1)
        expected = section4_thresholds(n_geps)
        assert spec.thresholds_at(np.arange(n_geps)).tobytes() == expected.tobytes()
        # Any index set, in any order and shape, gives the same bits.
        picks = np.random.default_rng(n_geps).integers(0, n_geps, (2, 50))
        assert spec.thresholds_at(picks).tobytes() == expected[picks].tobytes()

    @pytest.mark.parametrize("n_geps", [1, 2, 3, 7, 2000, 2_000_000])
    def test_count_at_most_matches_searchsorted(self, n_geps):
        spec = Section4Spec(n_geps=n_geps, n_maps=1)
        thresholds = section4_thresholds(n_geps)
        rng = np.random.default_rng(n_geps)
        near = rng.choice(thresholds, 1000)
        edges = np.array([0.0, 1.0, -1.0])
        ulps = np.arange(-3, 4)
        points = np.concatenate([
            (near[:, None] + ulps * np.spacing(near)[:, None]).ravel(),
            (edges[:, None] + ulps * np.spacing(edges)[:, None]).ravel(),
            rng.uniform(-1.0, 1.0, 500),
            [-np.inf, -1e300, -3.0, -1.5, 1.5, 3.0, 1e300, np.inf],
        ])
        expected = np.searchsorted(thresholds, points, side="right")
        got = [spec.count_at_most(float(p)) for p in points]
        np.testing.assert_array_equal(got, expected)

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


class TestSection4Map:
    """The member mapping: float arithmetic with the bits of the masked
    numpy formula and of the chunk kernel."""

    # Signed zeros, the box ends, a small power of two, and subnormals,
    # whose squares underflow to zero.
    SPECIALS = [0.0, -0.0, 1.0, -1.0, 2.0**-30, -(2.0**-30),
                5e-324, -5e-324, 1e-310, -1e-310]

    def test_matches_the_masked_formula_bit_for_bit(self):
        rng = np.random.default_rng(79)
        grid = np.concatenate([self.SPECIALS, rng.uniform(-1.0, 1.0, 2000)])
        coefficients = np.concatenate(
            [section4_coefficients(7), rng.uniform(1.0, 2.0, 8), [1.0 + 2.0**-52]]
        )
        for c in coefficients:
            s = section4_map(float(c))
            got = np.array([s(np.array([x]))[0] for x in grid])
            assert got.tobytes() == section4_map_where(float(c), grid).tobytes(), c

    @pytest.mark.parametrize(
        "point", [1.0, 0.87, 0.3, 2.0**-30, 5e-324, 0.0, -0.0, -1e-9, -0.6, -1.0]
    )
    def test_member_rows_match_the_kernel_rows(self, point):
        kernels, _, _ = build_section4(500, 750)
        maps = [section4_map(float(c)) for c in Section4Spec(500, 750).coefficients]
        members = ProblemFamily.from_members(kernels.base, [], maps)
        v = np.array([point])
        # The kernel is called for the moved prefix alone; every member past
        # it fixes the point.
        k = kernels.map_moved(1, v)
        expected = full_chunk(kernels.map_kernel(0, k, 1, v), kernels.n_maps, v)
        got = members.map_kernel(0, members.n_maps, 1, v)
        assert got.tobytes() == expected.tobytes()

    def test_two_coordinates_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            section4_map(1.5)(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("point", [[0.5, 0.5], []], ids=["2-D", "empty"])
    def test_point_of_another_size_refused_with_its_message(self, point):
        s = section4_map(1.5)
        message = r"^section4 map requires a 1-D problem$"
        with pytest.raises(ValueError, match=message):
            s.map(np.array(point))
        if point:
            box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
            family = ProblemFamily.from_members(box, [], [identity_map(), s])
            with pytest.raises(ValueError, match=message):
                family.map_kernel(0, 2, 1, np.array(point))

    def test_map_returns_a_float_and_the_member_a_vector(self):
        s = section4_map(1.5)
        result = s.map(np.array([0.5]))
        assert type(result) is float and result == 0.5 - 1.5 * 0.25
        y = s(np.array([0.5]))
        assert isinstance(y, np.ndarray) and y.dtype == np.float64
        assert y.shape == (1,) and y.tolist() == [0.5 - 1.5 * 0.25]


class TestKnownSolutionSet:
    def test_benchmark_interval(self):
        family, _, ref = build_section4(4, 4)
        sol = family.known_solution
        assert isinstance(sol, IntervalSolution)
        assert sol.lo == -1.0 and sol.hi == pytest.approx(ref)
        assert sol.project([1.0])[0] == pytest.approx(ref)

    @pytest.mark.parametrize(
        "lo, hi", [(0.6, 0.2), (math.nan, 0.0), (-1.0, math.inf)],
        ids=["reversed", "nan", "inf"],
    )
    def test_interval_needs_finite_ordered_ends(self, lo, hi):
        with pytest.raises(ValueError, match="finite lo <= hi"):
            IntervalSolution(lo=lo, hi=hi)

    def test_point_interval_is_admitted(self):
        assert IntervalSolution(lo=0.2, hi=0.2).project([0.9])[0] == 0.2

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
        family, _, sched = preset(
            "cor2",
            base=base,
            operators=[affine_operator(1.0, [0.5])],
            maps=[identity_map()],
            known_solution=PointSolution(point=[0.5]),
        )
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
        family, _, sched = preset(
            "cor5",
            base=base,
            bifunctions=[section4_bifunction(-0.5)],
            maps=[section4_map(1.5)],
        )
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
        family, _, sched = preset(
            "cor4", base=base, bifunctions=[ZeroBifunction()], maps=[drift]
        )
        assert sched.beta_fn(5) == 0.0
        # The family sequence is squared (the cuts take it from the family).
        assert family.k_seq(0) == 1.5 * 1.5

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
        issues = sched.violations(family.kappa, family.alpha, 5, family.k_seq)
        assert any(v.startswith("k_0=") and v.endswith("below 1") for v in issues)

    def test_cor4_evaluates_a_shared_sequence_once_per_term(self):
        # 100 maps share one sequence object; one more has its own, which
        # dominates the first terms.
        calls = []

        def shared(n):
            calls.append(n)
            return 1.0 + 1.0 / (n + 2)

        def own(n):
            return 1.0 + 3.0 / (n + 2) ** 2

        maps = [PseudoContraction(map=lambda v: 0.5 * v, kappa=0.0, k_seq=shared)
                for _ in range(100)]
        maps.append(PseudoContraction(map=lambda v: -0.5 * v, kappa=0.0, k_seq=own))
        family, cfg, sched = preset("cor4", base=Box(lo=[-1.0], hi=[1.0]), maps=maps)
        assert len({id(s.k_seq) for s in family.maps}) == 2
        checked_inputs(family, sched, replace(cfg, max_iter=300), [0.5])
        assert calls == list(range(300))
        for n in range(300):
            k = max(1.0 + 1.0 / (n + 2), own(n))
            assert family.k_seq(n) == k * k

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

    @pytest.mark.parametrize("refused, match", [
        (lambda: section4_map(1.0), r"must lie in \(1, 2\)"),
        (lambda: section4_map(2.0), r"must lie in \(1, 2\)"),
        (lambda: preset("cor2", base=Box(lo=[-1.0], hi=[1.0]),
                        bifunctions=[section4_bifunction(0.0)],
                        operators=[zero_operator()]), "cor2 takes no bifunctions"),
        (lambda: preset("cor5", base=Box(lo=[-1.0], hi=[1.0]),
                        bifunctions=[section4_bifunction(0.0)],
                        operators=[affine_operator(1.0, [0.5])]), "cor5 takes no operators"),
    ], ids=["c-one", "c-two", "cor2-bifunctions", "cor5-operators"])
    def test_out_of_range_part_refused(self, refused, match):
        with pytest.raises(ValueError, match=match):
            refused()


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


@dataclass(frozen=True)
class SeededSpec(Section4Spec):
    """Section4 sizes with seeded, strictly ascending thresholds.

    The lowest 30% form a run one ulp apart from a small start in
    (1e-4, 1e-2), where an ulp of a threshold is far below an ulp of
    ``u = x - xi``; the rest are uniform draws above the run. Rounding ``u``
    turns the run's rows, the furthest of the prefix, into a sawtooth whose
    top recurs in later blocks: a block bound read off the end rows without
    a rounding margin misses it.
    """

    seed: int = 0

    @cached_property
    def thresholds(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        run = [10.0 ** rng.uniform(-4, -2)]
        for _ in range(int(0.3 * self.n_geps) - 1):
            run.append(np.nextafter(run[-1], 1.0))
        rest = rng.uniform(run[-1], 0.99, self.n_geps)
        return np.unique(np.concatenate([run, rest]))[:self.n_geps]

    # Every hook reads thresholds only through these two.
    def thresholds_at(self, indices) -> np.ndarray:
        return self.thresholds[indices]

    def count_at_most(self, point: float) -> int:
        return int(np.searchsorted(self.thresholds, point, side="right"))


def section4_with_bounds(spec: Section4Spec) -> ProblemFamily:
    """The section4 family over ``spec``'s thresholds, with its bound hooks."""
    family, _, _ = build_section4(spec.n_geps, spec.n_maps)
    return replace(family, gep_kernel=spec.gep_kernel, gep_moved=spec.gep_moved,
                   gep_bound=spec.gep_bound, map_kernel=spec.map_kernel,
                   map_moved=spec.map_moved, map_bound=spec.map_bound)


def probe_points(rng, thresholds, count) -> np.ndarray:
    """Uniform points in [-1, 1], points within 3 ulps of thresholds, of 0
    and of +-1."""
    near = rng.choice(thresholds, count // 3)
    steps = rng.integers(-3, 4, near.size)
    near = near + steps * np.spacing(near)
    edges = np.array([0.0, 1.0, -1.0])
    edges = (edges[:, None] + np.arange(-3, 4) * np.spacing(edges)[:, None]).ravel()
    points = np.concatenate([rng.uniform(-1, 1, count - near.size - edges.size),
                             near, edges])
    return np.clip(points, -1.0, 1.0)


def same_winner(a, b) -> bool:
    return (a.index, a.dist2) == (b.index, b.dist2) and np.array_equal(a.point, b.point)


class TestSection4BlockBounds:
    """The bounded reduction against the full scan on the same grid."""

    # Seeds 0-1: the evenly spaced benchmark grid; 2-3: seeded run clusters.
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bounded_reduction_equals_full_scan(self, monkeypatch, seed):
        # 64-row blocks leave no room for finer leading blocks.
        self.check_against_full_scan(monkeypatch, seed, rows=64)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bounded_leading_grid_equals_full_scan(self, monkeypatch, seed):
        # At 256-row blocks a bounded grid starts with blocks of 64 and 128.
        self.check_against_full_scan(monkeypatch, seed, rows=256)

    @staticmethod
    def check_against_full_scan(monkeypatch, seed, rows):
        monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", rows)
        rng = np.random.default_rng(seed)
        n_geps, n_maps = int(rng.integers(400, 650)), int(rng.integers(400, 650))
        spec = (Section4Spec(n_geps, n_maps) if seed < 2
                else SeededSpec(n_geps, n_maps, seed=seed))
        bounded = section4_with_bounds(spec)
        # Infinite bounds scan every block of the bounded grid.
        infinite = lambda lo, hi, *args: np.full(len(lo), np.inf)  # noqa: E731
        full = replace(bounded, gep_bound=infinite, map_bound=infinite)
        points = probe_points(rng, spec.thresholds, 2500)
        references = rng.permutation(points) * rng.choice([1.0, 3.0], points.size)
        pools = {w: ThreadPoolExecutor(max_workers=w) for w in (2, 8)}
        try:
            for k, (p, c) in enumerate(zip(points, references)):
                x, ref = np.array([p]), np.array([c])
                calls = {
                    "phase1": lambda fam, pool, w: resolvent_phase(fam, 1.0, x, pool, w),
                    "mapping": lambda fam, pool, w: mapping_phase(fam, 1, x, ref, pool, w),
                    "res_S": lambda fam, pool, w: mapping_phase(fam, 1, x, x, pool, w),
                }
                # Pooled runs on every fourth point keep the test short.
                workers = (1, 2, 8) if k % 4 == 0 else (1,)
                for name, call in calls.items():
                    expected = call(full, None, 1)
                    for w in workers:
                        got = call(bounded, pools.get(w), w)
                        assert same_winner(got, expected), (name, p, c, w)
                        assert got.blocks <= expected.blocks
        finally:
            for pool in pools.values():
                pool.shutdown()

    # Seeds 0-1: the evenly spaced benchmark grid; 2-3: seeded run clusters.
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_resolvent_bound_covers_every_block(self, seed):
        # Block by block, not only through the winner: on random grids of
        # the moved prefix, the bound is at least the largest float squared
        # distance, as the reduction computes it, of the block's rows to x.
        rng = np.random.default_rng(seed)
        n_geps = int(rng.integers(400, 650))
        spec = (Section4Spec(n_geps, 1) if seed < 2
                else SeededSpec(n_geps, 1, seed=seed))
        for point in probe_points(rng, spec.thresholds, 900):
            x = np.array([point])
            moved = spec.gep_moved(1.0, x)
            if moved == 0:
                continue
            inner = rng.integers(1, moved, int(rng.integers(0, 40))) if moved > 1 else []
            edges = np.unique(np.concatenate(([0, moved], inner))).astype(np.int64)
            lo, hi = edges[:-1], edges[1:]
            d2 = squared_distances(spec.gep_kernel(0, moved, 1.0, x), x)
            largest = np.maximum.reduceat(d2, lo)
            assert np.all(spec.gep_bound(lo, hi, 1.0, x) >= largest), point

    def test_arctan_error_within_the_assumed_ulps(self):
        # The resolvent bound's margin assumes ARCTAN_ULPS; math.atan is
        # within 1 ulp of exact, so numpy may be ARCTAN_ULPS - 1 from it, on
        # contiguous arrays (the SIMD loop) and on short ones (their tails).
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.uniform(0.0, 2.0, 20_000),
                            10.0 ** rng.uniform(-9, 0, 5_000), [0.0, 2.0]])
        exact = np.array([math.atan(v) for v in u])
        pieces = [slice(i, i + 1 + i % 7) for i in range(0, 4000, 8)]
        short = np.concatenate([np.arctan(u[piece]) for piece in pieces])
        for got, ref in ((np.arctan(u), exact),
                         (short, np.concatenate([exact[piece] for piece in pieces]))):
            ulps = np.abs(got - ref) / np.spacing(ref)
            assert ulps.max() <= problems.ARCTAN_ULPS - 1

    def test_one_block_prefix_calls_no_hook(self):
        family, _, _ = build_section4(2000, 3000)
        calls = []

        def counting(hook):
            def bound(*args):
                calls.append(hook)
                return hook(*args)
            return bound

        counted = replace(family, gep_bound=counting(family.gep_bound),
                          map_bound=counting(family.map_bound))
        for point in (1.0, 0.3, -0.2):
            x = np.array([point])
            resolvent_phase(counted, 1.0, x)
            mapping_phase(counted, 1, x, x)
        assert calls == []

    def test_nan_from_a_family_hook_raises(self, monkeypatch):
        monkeypatch.setattr("hybridproj.parallel.TARGET_CHUNK_ROWS", 64)
        family, _, _ = build_section4(300, 300)
        nan = lambda lo, hi, *args: np.full(len(lo), np.nan)  # noqa: E731
        broken = replace(family, gep_bound=nan, map_bound=nan)
        x = np.array([0.9])
        with pytest.raises(ValueError, match="block 0 .*NaN bound"):
            resolvent_phase(broken, 1.0, x)
        with pytest.raises(ValueError, match="block 0 .*NaN bound"):
            mapping_phase(broken, 1, x, x)

    def test_hooks_raise_like_the_kernel(self):
        family, _, _ = build_section4(100, 100)
        lo, hi = np.array([0, 64]), np.array([64, 100])
        with pytest.raises(ValueError, match="unit step"):
            family.gep_bound(lo, hi, 0.5, np.array([0.5]))

    def test_map_bound_is_the_block_maximum(self):
        # Exact: the end rows carry the kernel's bits.
        family, _, _ = build_section4(10, 1000)
        lo, hi = np.arange(0, 1000, 64), np.minimum(np.arange(64, 1064, 64), 1000)
        for point, ref in ((0.7, 0.1), (0.7, 0.43), (1.0, 5.0), (0.0, 0.0)):
            v, r = np.array([point]), np.array([ref])
            rows = family.map_kernel(0, 1000, 1, v)[:, 0]
            d2 = (rows - ref) ** 2
            expected = [d2[a:b].max() for a, b in zip(lo, hi)]
            np.testing.assert_array_equal(family.map_bound(lo, hi, 1, v, r), expected)

    def test_full_scale_phase1_evaluates_one_block(self):
        family, _, _ = build_section4(2_000_000, 3_000_000)
        x = np.array([0.8])
        moved = family.gep_moved(1.0, x)
        got = resolvent_phase(family, 1.0, x)
        full = resolvent_phase(replace(family, gep_bound=None), 1.0, x)
        assert got.blocks == 1
        assert full.blocks == math.ceil(moved / TARGET_CHUNK_ROWS) > 1
        assert same_winner(got, full)
