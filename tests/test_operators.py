import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from hybridproj import operators, parallel, problems
from hybridproj.geometry import Box
from hybridproj.operators import (
    AUDIT_MEMBERS_PER_KIND,
    MAX_STEPS,
    CustomBifunction,
    InvalidModelError,
    IsmOperator,
    ProblemFamily,
    PseudoContraction,
    ResolventFailure,
    ScalarMonotoneBifunction,
    ZeroBifunction,
    affine_operator,
    apply_power,
    gep_chunk_evaluator,
    identity_map,
    resolvent,
    resolvent_scalar,
    verify_family,
    zero_operator,
)
from hybridproj.problems import (
    Section4Spec,
    build_section4,
    preset,
    section4_bifunction,
    section4_map,
)
from hybridproj.parallel import furthest_candidate
from hybridproj.solver import SolverConfig, solve
from oracles import bisect_resolvent, counting, member_kernels_reference, power_reference

BASE = Box(lo=[-1.0], hi=[1.0])
TOL = 1e-12
# Seeded families of the resolvent screen tests.
SCREEN_FAMILIES = 30
NEAR_TIE_FAMILIES = 500


def closed_form(x, xi):
    return x if x < xi else xi + math.atan(x - xi)


def cubic_root(r, x):
    """Real root of ``r * z**3 + z = x`` by Cardano's formula."""
    p, q = 1.0 / r, -x / r
    disc = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    return float(np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc))


def step_profile(z):
    return 0.0 if z < 0.3 else 1.0


def kinked_profile(z):
    return 1e9 * max(z - 0.3, 0.0)


def softening_profile(z):
    """Nonincreasing on [-1, 1]: g still rises, but with slope 0.1 to 1."""
    return -0.9 * z + 0.3 * (z * z * z)


def recording(profile):
    """``profile`` wrapped to record the points it is called at."""
    points = []

    def recorded(z: float) -> float:
        points.append(z)
        return profile(z)

    return recorded, points


class TestResolvent:
    def test_zero_bifunction_is_base_projection(self):
        y = resolvent(ZeroBifunction(), zero_operator(), 1.0, [2.0], BASE)
        assert y[0] == pytest.approx(1.0)

    def test_arctan_family_above_threshold(self):
        f = section4_bifunction(-1.0 / 3.0)
        y = resolvent(f, zero_operator(), 1.0, [1.0], BASE)
        assert y[0] == pytest.approx(-1.0 / 3.0 + math.atan(4.0 / 3.0), abs=1e-10)
        assert y[0] == pytest.approx(0.593961885, abs=1e-6)

    def test_arctan_family_below_threshold_is_fixed(self):
        f = section4_bifunction(-1.0 / 3.0)
        y = resolvent(f, zero_operator(), 1.0, [-0.9], BASE)
        assert y[0] == -0.9

    def test_forward_step_fused(self):
        # with the zero bifunction the step is P_C(x - r * A(x))
        A = affine_operator(1.0, [0.5])
        y = resolvent(ZeroBifunction(), A, 0.5, [1.0], BASE)
        assert y[0] == pytest.approx(0.75)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            resolvent(ZeroBifunction(), zero_operator(), 0.0, [0.0], BASE)


class TestResolventScalar:
    """The root finder against the closed forms and against plain
    bisection (``oracles.bisect_resolvent``)."""

    def test_zero_profile_interior(self):
        assert resolvent_scalar(lambda z: 0.0, 2.0, 0.3, -1.0, 1.0) == 0.3

    def test_linear_profile(self):
        z = resolvent_scalar(lambda z: z, 1.0, 1.0, -1.0, 1.0)
        assert z == pytest.approx(0.5, abs=1e-12)

    def test_clamps_at_endpoints(self):
        for profile in (lambda z: z, lambda z: z ** 3):
            for solver in (resolvent_scalar, bisect_resolvent):
                assert solver(profile, 1.0, 3.0, -1.0, 1.0) == 1.0
                assert solver(profile, 1.0, -3.0, -1.0, 1.0) == -1.0
                assert solver(profile, 0.5, 1.5, -1.0, 1.0) == 1.0

    def test_decreasing_profile_rejected(self):
        for r in (0.5, 1.0, 4.0):
            for solver in (resolvent_scalar, bisect_resolvent):
                with pytest.raises(InvalidModelError):
                    solver(lambda z: -4.0 * z, r, 0.0, -1.0, 1.0)

    def test_matches_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(1000):
            xi = float(rng.uniform(-0.999, 0.999))
            x = float(rng.uniform(xi, 1.0))
            f = section4_bifunction(xi)
            z = resolvent_scalar(f.profile, 1.0, x, f.lo, f.hi)
            worst = max(worst, abs(z - closed_form(x, xi)))
            assert abs(z - bisect_resolvent(f.profile, 1.0, x, f.lo, f.hi)) <= TOL
        assert worst <= 1e-10

    def test_general_step_size(self):
        # r * z + z = x with profile(z) = z gives z = x / (1 + r)
        z = resolvent_scalar(lambda z: z, 3.0, 0.8, -1.0, 1.0)
        assert z == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("r", [0.25, 3.0])
    def test_linear_and_cubic_profiles(self, r):
        linear, cubic = (lambda z: z), (lambda z: z ** 3)
        for x in np.linspace(-0.9, 0.9, 13):
            x = float(x)
            for profile, exact in ((linear, x / (1.0 + r)), (cubic, cubic_root(r, x))):
                z = resolvent_scalar(profile, r, x, -1.0, 1.0)
                assert abs(z - exact) <= TOL
                assert abs(z - bisect_resolvent(profile, r, x, -1.0, 1.0)) <= TOL

    def test_exact_fixed_point_returned_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            xi = float(rng.uniform(-0.5, 0.999))
            x = float(rng.uniform(-0.999, xi))
            f = section4_bifunction(xi)
            profile, calls = counting(f.profile)
            assert resolvent_scalar(profile, 2.5, x, f.lo, f.hi) == x
            # both endpoints and x itself: no root-finding step was taken
            assert calls[0] == 3

    def test_step_profile_lands_on_the_jump(self):
        for x in (0.4, 0.5, 1.2):
            z = resolvent_scalar(step_profile, 1.0, x, -1.0, 1.0)
            assert abs(z - 0.3) <= TOL
            assert abs(z - bisect_resolvent(step_profile, 1.0, x, -1.0, 1.0)) <= TOL

    def test_infinite_profile_value_at_an_endpoint(self):
        # g(lo) = -inf makes the secant point NaN; a bisection step replaces it.
        def log_profile(z):
            return math.log1p(z) if z > -1.0 else -math.inf

        for x in (-0.5, 0.7):
            z = resolvent_scalar(log_profile, 1.0, x, -1.0, 1.0)
            assert abs(z - bisect_resolvent(log_profile, 1.0, x, -1.0, 1.0)) <= TOL


class TestResolventScalarCallCounts:
    """Profile calls per solve: a timing-free guard on the root finder."""

    def test_section4_median_calls(self):
        rng = np.random.default_rng(67)
        counts = []
        for _ in range(1000):
            xi = float(rng.uniform(-0.999, 0.999))
            x = float(rng.uniform(xi, 1.0))
            f = section4_bifunction(xi)
            profile, calls = counting(f.profile)
            resolvent_scalar(profile, 1.0, x, f.lo, f.hi)
            oracle_profile, oracle_calls = counting(f.profile)
            bisect_resolvent(oracle_profile, 1.0, x, f.lo, f.hi)
            assert calls[0] <= oracle_calls[0]
            counts.append(calls[0])
        assert float(np.median(counts)) <= 10

    @pytest.mark.parametrize(
        "xi, x",
        [
            (-0.5178905051315971, 0.49874954354735246),
            (-0.9863483004490805, 0.17127815115618694),
            (-0.8620753154857852, -0.4980158582724532),
        ],
    )
    def test_one_sided_approach(self, xi, x):
        # Secant steps reach the root from below while the upper end stays
        # far away. Had bisection steps reset the Illinois streak, these
        # pairs would take 56-60 calls.
        f = section4_bifunction(xi)
        profile, calls = counting(f.profile)
        z = resolvent_scalar(profile, 1.0, x, f.lo, f.hi)
        assert abs(z - closed_form(x, xi)) <= TOL
        assert calls[0] <= 20

    def test_kinked_profile_within_three_times_bisection(self):
        profile, calls = counting(kinked_profile)
        z = resolvent_scalar(profile, 1.0, 0.5, -1.0, 1.0)
        oracle_profile, oracle_calls = counting(kinked_profile)
        expected = bisect_resolvent(oracle_profile, 1.0, 0.5, -1.0, 1.0)
        assert abs(z - 0.3 - 0.2 / (1e9 + 1.0)) <= TOL
        assert abs(z - expected) <= TOL
        assert calls[0] <= 3 * oracle_calls[0]


class TestClosingProbe:
    """A step that lands within tol / 2 of a root, measured in g, is
    followed by one probe at m - g(m)."""

    def test_wrong_sign_probe_keeps_the_bracket_sound(self):
        # The profile breaks the slope bound, so the probe falls short of the
        # root and sees the sign of g(m) again.
        r, x = 1.0, 0.1
        profile, points = recording(softening_profile)
        z = resolvent_scalar(profile, r, x, -1.0, 1.0)

        def g(t):
            return r * softening_profile(t) + t - x

        short = [
            (m, p) for m, p in zip(points, points[1:])
            if 0.0 < abs(g(m)) <= 0.5 * TOL and p == m - g(m) and (g(p) < 0.0) == (g(m) < 0.0)
        ]
        assert short
        assert abs(z - bisect_resolvent(softening_profile, r, x, -1.0, 1.0)) <= TOL

    def test_probe_that_rounds_to_m_takes_the_adjacent_double(self):
        # g(z) = 2z - 1 - x is exact in binary, and g(m) = -2**-60 at the
        # step is below half a unit of m = 0.50048828125.
        x = 2.0 ** -10 + 2.0 ** -60
        profile, points = recording(lambda z: z - 1.0)
        z = resolvent_scalar(profile, 1.0, x, -1.0, 1.0)
        m, p = points[-2:]
        g_m = (m - 1.0) + m - x
        assert g_m < 0.0 and m - g_m == m
        assert p == math.nextafter(m, math.inf)
        assert abs(z - (1.0 + x) / 2.0) <= TOL
        assert abs(z - bisect_resolvent(lambda t: t - 1.0, 1.0, x, -1.0, 1.0)) <= TOL

    @pytest.mark.parametrize("x, root", [(-1.0, -0.5), (1.0, 0.5)])
    def test_x_at_an_end_costs_no_extra_call(self, x, root):
        # g(x) is g(lo) or g(hi), already known; each end is evaluated once.
        profile, points = recording(lambda t: t)
        z = resolvent_scalar(profile, 1.0, x, -1.0, 1.0)
        assert points.count(-1.0) == 1 and points.count(1.0) == 1
        assert abs(z - root) <= TOL


class TestResolventFailure:
    def test_nan_profile(self):
        profile = lambda z: math.nan if 0.1 < z < 0.6 else z  # noqa: E731
        with pytest.raises(ResolventFailure) as info:
            resolvent_scalar(profile, 1.0, 0.5, -1.0, 1.0)
        lo, hi, g_lo, g_hi = info.value.bracket
        assert (lo, hi) == (-1.0, 1.0)
        assert math.isnan(g_lo) and math.isnan(g_hi)

    @pytest.mark.parametrize("make_profile, x, tol, at", [
        # The first secant point of g(z) = 2z - 0.9 on the bracket [-1, 0.9].
        (lambda: lambda z: math.nan if 0.3 < z < 0.6 else z, 0.9, TOL,
         0.44999999999999996),
        # The closing probe of test_probe_that_rounds_to_m_takes_the_adjacent_double.
        (lambda: lambda z: math.nan if z == math.nextafter(0.50048828125, 1.0)
         else z - 1.0, 2.0 ** -10 + 2.0 ** -60, TOL, math.nextafter(0.50048828125, 1.0)),
        # NaN from the first call after the step budget (both ends, x and one
        # call per step), which evaluates g at the bracket ends it reports.
        (lambda: _nan_after(MAX_STEPS + 3, step_profile), 0.5, 1e-300, 0.29999999999999993),
    ], ids=["secant-point", "closing-probe", "failure-payload"])
    def test_nan_names_its_point(self, make_profile, x, tol, at):
        with pytest.raises(ResolventFailure, match=f"NaN at z={at!r}$") as info:
            resolvent_scalar(make_profile(), 1.0, x, -1.0, 1.0, tol=tol)
        lo, hi, g_lo, g_hi = info.value.bracket
        assert (lo, hi) == (-1.0, 1.0)
        assert math.isnan(g_lo) and math.isnan(g_hi)

    def test_step_budget_exhausted(self):
        with pytest.raises(ResolventFailure, match=f"after {MAX_STEPS} steps") as info:
            resolvent_scalar(step_profile, 1.0, 0.5, -1.0, 1.0, tol=1e-300)
        a, b, g_a, g_b = info.value.bracket
        # The bracket has closed on the jump but cannot narrow below a ulp.
        assert a < 0.3 <= b and 1e-300 < b - a <= 1e-15
        assert g_a < 0.0 < g_b


def _nan_after(calls: int, profile):
    """``profile`` until it has been called ``calls`` times, then NaN."""
    count = [0]

    def late(z: float) -> float:
        count[0] += 1
        return math.nan if count[0] > calls else profile(z)

    return late


@pytest.mark.parametrize("refused, match", [
    (lambda: resolvent_scalar(lambda z: z, 0.0, 0.5, -1.0, 1.0), "step size"),
    (lambda: resolvent_scalar(lambda z: z, -1.0, 0.5, -1.0, 1.0), "step size"),
    (lambda: resolvent_scalar(lambda z: z, 1.0, 0.5, 1.0, 1.0), "lo < hi"),
    (lambda: resolvent_scalar(lambda z: z, 1.0, 0.5, 1.0, -1.0), "lo < hi"),
    (lambda: resolvent_scalar(lambda z: z, 1.0, 0.5, -1.0, 1.0, tol=0.0), "tolerance"),
    (lambda: resolvent_scalar(lambda z: z, 1.0, 0.5, -1.0, 1.0, tol=-1.0), "tolerance"),
    (lambda: ScalarMonotoneBifunction(profile=lambda z: z, lo=1.0, hi=1.0), "lo < hi"),
    (lambda: ScalarMonotoneBifunction(profile=lambda z: z, lo=-1.0, hi=1.0).resolve(
        1.0, np.array([0.1, 0.2]), Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])), "1-D problem"),
    (lambda: affine_operator(0.0, [0.5]), "positive gain"),
    (lambda: affine_operator(-2.0, [0.5]), "positive gain"),
    (lambda: IsmOperator(map=lambda x: x, alpha=0.0), "modulus must be positive"),
    (lambda: PseudoContraction(map=lambda x: x, kappa=1.0), r"\[0, 1\)"),
    (lambda: verify_family(ProblemFamily.from_members(BASE, [], [identity_map()]),
                           samples=0), "at least one sample pair"),
    # A step is finite: r = inf would make the forward step NaN.
    (lambda: resolvent_scalar(lambda z: z, math.inf, 0.5, -1.0, 1.0), "step size"),
    (lambda: resolvent(ZeroBifunction(), zero_operator(), math.inf, [0.5], BASE),
     "step size"),
    (lambda: ProblemFamily.from_members(
        BASE, [(ScalarMonotoneBifunction(profile=lambda z: z, lo=-1.0, hi=1.0),
                zero_operator())], []).gep_kernel(0, 1, math.inf, np.array([0.5])),
     "step size"),
    (lambda: replace(ProblemFamily.from_members(BASE, [], [identity_map()]), alpha=0.0),
     "family modulus must be positive"),
    (lambda: replace(ProblemFamily.from_members(BASE, [], [identity_map()]), kappa=1.0),
     r"family pseudocontraction constant must lie in \[0, 1\)"),
    # A power is SolverConfig's integer: an int or numpy integer, not a bool.
    (lambda: apply_power(identity_map(), True, [0.5]), "nonnegative integer"),
    (lambda: apply_power(identity_map(), 2.0, [0.5]), "nonnegative integer"),
    (lambda: apply_power(identity_map(), math.inf, [0.5]), "nonnegative integer"),
    (lambda: apply_power(identity_map(), math.nan, [0.5]), "nonnegative integer"),
    (lambda: apply_power(identity_map(), np.int64(-1), [0.5]), "nonnegative integer"),
    (lambda: ProblemFamily.from_members(BASE, [], [identity_map()]).map_kernel(
        0, 1, 2.0, np.array([0.5])), "nonnegative integer"),
], ids=["r-zero", "r-negative", "lo-equals-hi", "lo-above-hi", "tol-zero",
        "tol-negative", "bifunction-interval", "scalar-resolve-2d", "gain-zero",
        "gain-negative", "modulus-zero", "kappa-one", "no-samples", "r-inf",
        "resolvent-r-inf", "kernel-r-inf", "family-modulus-zero",
        "family-kappa-one", "power-bool", "power-float", "power-inf", "power-nan",
        "power-numpy-negative", "kernel-power-float"])
def test_out_of_range_argument_refused(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def _halve_in_place(v):
    v *= 0.5
    return v


def _settle_in_place(v):
    v *= 0.5
    v += 0.1
    return v


class TestApplyPower:
    def test_zero_power_is_identity(self):
        s = section4_map(1.5)
        np.testing.assert_array_equal(apply_power(s, 0, [0.37]), [0.37])

    def test_two_hand_evaluations(self):
        s = section4_map(1.5)
        assert apply_power(s, 1, [0.5])[0] == 0.125
        assert apply_power(s, 2, [0.5])[0] == 0.1015625

    def test_negative_region_fixed(self):
        s = section4_map(1.5)
        for n in (1, 2, 5):
            assert apply_power(s, n, [-0.5])[0] == -0.5

    def test_composition_is_exact(self):
        s = section4_map(1.75)
        rng = np.random.default_rng(37)
        for _ in range(50):
            x = rng.uniform(-1, 1, 1)
            m, n = map(int, rng.integers(0, 5, 2))
            np.testing.assert_array_equal(
                apply_power(s, m + n, x), apply_power(s, m, apply_power(s, n, x))
            )

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            apply_power(identity_map(), -1, [0.0])

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_callers_point_is_left_alone(self, n):
        x = np.array([0.8])
        y = apply_power(PseudoContraction(map=_halve_in_place, kappa=0.0), n, x)
        np.testing.assert_array_equal(x, [0.8])
        assert not np.shares_memory(y, x)
        np.testing.assert_array_equal(y, [0.8 * 0.5**n])

    def test_contractive_power_stops_at_its_float_fixed_point(self):
        # 0.5 x + 0.1 settles on a float within a few dozen applications;
        # from there every power is that float, so n = 400 costs what
        # n = 4000 does.
        calls = [0]

        def settle(v):
            calls[0] += 1
            return 0.5 * v + 0.1

        s = PseudoContraction(map=settle, kappa=0.0, asymptotic=True)
        family = ProblemFamily.from_members(BASE, [], [s])
        x = np.array([0.9])
        counts = []
        for n in (400, 4000):
            for evaluate in (lambda: apply_power(s, n, x),
                             lambda: family.map_kernel(0, 1, n, x)[0]):
                calls[0] = 0
                y = evaluate()
                counts.append(calls[0])
                assert y.tobytes() == power_reference(s, n, x).tobytes()
        assert len(set(counts)) == 1 and counts[0] < 100

    @pytest.mark.parametrize(
        "mapping, x",
        [
            (lambda v: 0.5 * v + 0.1, [0.9]),
            (_settle_in_place, [0.9]),
            (_halve_in_place, [0.8]),
            # isometries: about 0.2, a quarter turn, and a sign flip at 0,
            # whose 0.0 and -0.0 are equal values with different bits
            (lambda v: 0.4 - v, [0.9]),
            (lambda v: np.array([-v[1], v[0]]), [0.3, -0.6]),
            (lambda v: -v, [0.0]),
        ],
        ids=["settles", "settles-in-place", "halves-in-place", "mirror",
             "quarter-turn", "sign-flip"],
    )
    def test_stopped_power_is_the_full_loop(self, mapping, x):
        s = PseudoContraction(map=mapping, kappa=0.0, asymptotic=True)
        for n in (0, 1, 2, 399, 400):
            assert apply_power(s, n, x).tobytes() == power_reference(s, n, x).tobytes()


class TestVerifyFamily:
    def test_identity_passes(self):
        family = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), zero_operator())], [identity_map()]
        )
        report = verify_family(family, samples=200, rng_seed=0)
        assert report.ok

    def test_members_that_write_to_their_samples_reach_no_other(self):
        # The audit's sample points are shared by every member: an operator
        # that shifted them in place made the identity map after it fail
        # ("leaves base set by 8.718e-02").
        def shift_in_place(v):
            v -= 0.1
            return v

        reports = [
            verify_family(
                ProblemFamily.from_members(
                    BASE, [(ZeroBifunction(), IsmOperator(map=shift, alpha=1.0))],
                    [identity_map()],
                ),
                samples=200, rng_seed=0,
            )
            for shift in (shift_in_place, lambda v: v - 0.1)
        ]
        assert reports[0].ok
        assert reports[0].entries == reports[1].entries

    def test_quadratic_drop_passes_with_declared_constant(self):
        family = ProblemFamily.from_members(BASE, [], [section4_map(1.5)])
        assert family.kappa == pytest.approx(1.0 - 1.0 / 1.5)
        report = verify_family(family, samples=500, rng_seed=1)
        assert report.ok

    def test_quadratic_drop_constant_is_tight(self):
        # near both endpoints the inequality is sharp: a smaller constant
        # (for c above sqrt(2), in particular 1 - c/2) fails
        c = 1.5
        s = section4_map(c)
        x, y = np.array([1.0]), np.array([0.9])
        lhs = float(np.sum((s(x) - s(y)) ** 2))
        gap2 = float(np.sum((x - y) ** 2))
        comp2 = float(np.sum(((x - s(x)) - (y - s(y))) ** 2))
        assert lhs > gap2 + (1.0 - c / 2.0) * comp2  # understated constant
        assert lhs <= gap2 + (1.0 - 1.0 / c) * comp2 + 1e-12  # tight one holds

    def test_expansive_map_fails(self):
        doubling = PseudoContraction(map=lambda x: 2.0 * x, kappa=0.0)
        family = ProblemFamily.from_members(
            Box(lo=[0.0], hi=[1.0]), [], [doubling]
        )
        report = verify_family(family, samples=200, rng_seed=2)
        failing = [e for e in report.entries if e.kind == "map"]
        assert not failing[0].passed
        assert failing[0].worst_slack < 0

    @pytest.mark.parametrize("n", [AUDIT_MEMBERS_PER_KIND, AUDIT_MEMBERS_PER_KIND + 1,
                                   100_000])
    def test_audit_builds_at_most_the_cap_of_lazy_members(self, monkeypatch, n):
        calls = {"gep": 0, "map": 0}

        def counted(kind, factory):
            def build(value):
                calls[kind] += 1
                return factory(value)
            return build

        monkeypatch.setattr(problems, "section4_bifunction",
                            counted("gep", problems.section4_bifunction))
        monkeypatch.setattr(problems, "section4_map",
                            counted("map", problems.section4_map))
        family, _, _ = build_section4(n, n)
        report = verify_family(family, samples=3, rng_seed=4)
        cap = AUDIT_MEMBERS_PER_KIND
        assert calls == {"gep": cap, "map": cap}
        assert report.ok, report.failures()
        assert (report.members_checked, report.members_total) == (2 * cap, 2 * n)
        for kind in ("operator", "bifunction", "map"):
            indices = [e.index for e in report.entries if e.kind == kind]
            assert indices[0] == 0 and indices[-1] == n - 1
            steps = np.diff(indices)
            assert steps.min() >= 1 and steps.max() - steps.min() <= 1

    def test_small_family_is_audited_in_full(self):
        family = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), zero_operator())] * 3, [identity_map()] * 5
        )
        report = verify_family(family, samples=10, rng_seed=5)
        assert [e.index for e in report.entries if e.kind == "operator"] == [0, 1, 2]
        assert [e.index for e in report.entries if e.kind == "map"] == list(range(5))
        assert (report.members_checked, report.members_total) == (8, 8)

    def test_overdeclared_modulus_fails(self):
        bad = IsmOperator(map=lambda x: x - 0.5, alpha=2.0)  # true modulus is 1
        family = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), bad)], [identity_map()]
        )
        report = verify_family(family, samples=200, rng_seed=3)
        ops = [e for e in report.entries if e.kind == "operator"]
        assert not ops[0].passed


class TestOperatorInequalities:
    def test_resolvents_firmly_nonexpansive(self):
        rng = np.random.default_rng(41)
        members = [section4_bifunction(-0.3), section4_bifunction(0.4),
                   ZeroBifunction()]
        zero = zero_operator()
        for f in members:
            for _ in range(300):
                x = rng.uniform(-1, 1, 1)
                y = rng.uniform(-1, 1, 1)
                tx = resolvent(f, zero, 1.0, x, BASE)
                ty = resolvent(f, zero, 1.0, y, BASE)
                gap2 = float(np.sum((tx - ty) ** 2))
                inner = float((tx - ty) @ (x - y))
                assert gap2 <= inner + 1e-8

    def test_fixed_point_characterization(self):
        rng = np.random.default_rng(43)
        xi = -0.2
        f = section4_bifunction(xi)
        zero = zero_operator()
        for _ in range(200):
            inside = float(rng.uniform(-1.0, xi))
            assert resolvent(f, zero, 1.0, [inside], BASE)[0] == inside
        for _ in range(200):
            above = float(rng.uniform(xi + 1e-3, 1.0))
            assert resolvent(f, zero, 1.0, [above], BASE)[0] < above

    def test_forward_step_nonexpansive_inside_two_alpha(self):
        rng = np.random.default_rng(47)
        A = affine_operator(2.0, [0.1])  # modulus 0.5
        for _ in range(500):
            r = float(rng.uniform(1e-6, 2 * A.alpha - 1e-6))
            x = rng.uniform(-1, 1, 1)
            y = rng.uniform(-1, 1, 1)
            lhs = float(np.linalg.norm((x - r * A(x)) - (y - r * A(y))))
            assert lhs <= float(np.linalg.norm(x - y)) + 1e-10

    def test_ism_slack_of_exact_modulus(self):
        rng = np.random.default_rng(53)
        A = affine_operator(4.0, [0.0])  # modulus 0.25, tight
        for _ in range(500):
            x = rng.uniform(-1, 1, 1)
            y = rng.uniform(-1, 1, 1)
            gap2 = float(np.sum((A(x) - A(y)) ** 2))
            inner = float((A(x) - A(y)) @ (x - y))
            assert inner >= A.alpha * gap2 - 1e-10


class TestProblemFamily:
    def test_reductions(self):
        geps = [
            (ZeroBifunction(), affine_operator(1.0, [0.0])),
            (ZeroBifunction(), affine_operator(4.0, [0.0])),
        ]
        maps = [section4_map(1.5), section4_map(1.2)]
        family = ProblemFamily.from_members(BASE, geps, maps)
        assert family.alpha == pytest.approx(0.25)
        assert family.kappa == pytest.approx(max(1 - 1 / 1.5, 1 - 1 / 1.2))
        assert family.k_seq(3) == 1.0

    def test_asymptotic_flag(self):
        s = PseudoContraction(
            map=lambda x: x, kappa=0.0, asymptotic=True,
            k_seq=lambda n: 1.0 + 1.0 / (n + 1),
        )
        family = ProblemFamily.from_members(BASE, [], [s])
        assert family.k_seq(0) == pytest.approx(2.0)

    def test_plain_map_sequence_ignored(self):
        plain = PseudoContraction(map=lambda x: x, kappa=0.0, k_seq=lambda n: 2.0)
        family = ProblemFamily.from_members(BASE, [], [plain])
        assert family.k_seq(0) == 1.0 and family.k_seq(7) == 1.0
        growing = PseudoContraction(
            map=lambda x: x, kappa=0.0, asymptotic=True,
            k_seq=lambda n: 1.0 + 1.0 / (n + 1),
        )
        mixed = ProblemFamily.from_members(BASE, [], [plain, growing])
        assert mixed.k_seq(0) == 2.0
        assert mixed.k_seq(3) == 1.25

    def test_member_kernels_match_members(self):
        geps = [
            (section4_bifunction(-0.5), zero_operator()),
            (ZeroBifunction(), affine_operator(1.0, [0.5])),
            (section4_bifunction(0.2), zero_operator()),
            (ZeroBifunction(), affine_operator(2.0, [-0.3])),
            (section4_bifunction(0.6), zero_operator()),
        ]
        halving = PseudoContraction(
            map=lambda x: 0.5 * x + 0.1, kappa=0.0, asymptotic=True
        )
        maps = [section4_map(1.5), halving, section4_map(1.25), halving,
                section4_map(1.75)]
        family = ProblemFamily.from_members(BASE, geps, maps)
        lo, hi = 1, 5
        for x in ([0.9], [0.35], [-0.4]):
            x = np.array(x)
            # one-member blocks: a row beside a further one may be x itself
            for i in range(lo, hi):
                f, A = geps[i]
                row = family.gep_kernel(i, i + 1, 0.5, x)
                assert row.shape == (1, 1)
                np.testing.assert_array_equal(row[0], resolvent(f, A, 0.5, x, BASE))
            block = family.map_kernel(lo, hi, 3, x)
            assert block.shape == (hi - lo, 1)
            for j in range(lo, hi):
                s = maps[j]
                power = 3 if s.asymptotic else 1
                np.testing.assert_array_equal(block[j - lo], apply_power(s, power, x))
        # plain members run at power one, not at the nominal power
        assert family.map_kernel(2, 3, 3, np.array([0.5]))[0, 0] == 0.5 - 1.25 * 0.25

    def test_member_map_call_counts(self):
        # A plain map is called once per evaluation, whatever the nominal
        # power; an asymptotic map once per power step.
        calls = {"plain": 0, "asymptotic": 0}

        def halving(kind):
            def mapping(v):
                calls[kind] += 1
                return 0.5 * v
            return mapping

        plain = PseudoContraction(map=halving("plain"), kappa=0.0)
        growing = PseudoContraction(map=halving("asymptotic"), kappa=0.0,
                                    asymptotic=True)
        family = ProblemFamily.from_members(BASE, [], [plain, growing])
        for n in (0, 1, 4):
            calls.update(plain=0, asymptotic=0)
            rows = family.map_kernel(0, 2, n, np.array([0.8]))
            assert calls == {"plain": 1, "asymptotic": n}
            np.testing.assert_array_equal(rows, [[0.4], [0.8 * 0.5**n]])

    def test_member_map_results_become_float_rows(self):
        maps = [
            PseudoContraction(map=lambda v: [float(v[0]) / 2], kappa=0.0),
            PseudoContraction(map=lambda v: np.ones(1, dtype=np.int64), kappa=0.0),
            PseudoContraction(map=lambda v: [float(v[0]) / 2], kappa=0.0,
                              asymptotic=True),
            PseudoContraction(map=lambda v: np.zeros(1, dtype=np.int32), kappa=0.0,
                              asymptotic=True),
            PseudoContraction(map=lambda v: (float(v[0]) - 0.5,), kappa=0.0),
            # 0-d results next to 1-element ones make a block of mixed shapes
            PseudoContraction(map=lambda v: float(v[0]) / 4, kappa=0.0),
            PseudoContraction(map=lambda v: np.float64(v[0]) * 3, kappa=0.0),
            PseudoContraction(map=lambda v: np.array(-1), kappa=0.0),
        ]
        expected_rows = [[0.3], [1.0], [0.15], [0.0], [0.6 - 0.5], [0.15],
                         [0.6 * 3], [-1.0]]
        x = np.array([0.6])
        for count in (5, len(maps)):
            family = ProblemFamily.from_members(BASE, [], maps[:count])
            rows = family.map_kernel(0, count, 2, x)
            assert rows.dtype == np.float64
            expected = [apply_power(s, 2 if s.asymptotic else 1, x)
                        for s in maps[:count]]
            assert rows.tobytes() == np.vstack(expected).tobytes()
            np.testing.assert_array_equal(rows, expected_rows[:count])

    def test_wrong_size_results_raise(self):
        # In R^2 a 1-value result was broadcast across the row: at
        # (0.4, -0.8) the first map below became the candidate [0.2, 0.2].
        box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
        x = np.array([0.4, -0.8])
        short = PseudoContraction(map=lambda v: np.array([0.5 * v[0]]), kappa=0.0)
        scalar = PseudoContraction(map=lambda v: 0.5 * float(v[0]), kappa=0.0)
        long = PseudoContraction(map=lambda v: np.append(v, 0.0), kappa=0.0,
                                 asymptotic=True)
        for maps, bad in (([short], 0), ([identity_map(), scalar], 1),
                          ([identity_map(), long], 1), ([short] * 3, 0)):
            family = ProblemFamily.from_members(box, [], maps)
            with pytest.raises(ValueError, match=f"map member {bad} returned"):
                family.map_kernel(0, len(maps), 1, x)
        oracle = CustomBifunction(oracle=lambda r, w: w[:1] / (1.0 + r))
        geps = [(ZeroBifunction(), zero_operator()), (oracle, zero_operator())]
        family = ProblemFamily.from_members(box, geps, [])
        with pytest.raises(ValueError, match="equilibrium member 1 returned 1 values"):
            family.gep_kernel(0, 2, 1.0, x)
        # the members before the bad one still form valid rows
        np.testing.assert_array_equal(family.gep_kernel(0, 1, 1.0, x), [x])

    def test_rows_of_three_and_one_values_raise(self):
        # 3 + 1 values fill a two-row block in R^2 exactly: only a check of
        # each row, not of the total, finds the bad member.
        box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
        x = np.array([0.4, -0.8])
        for wrap in (list, tuple, np.array):
            three = PseudoContraction(map=lambda v, w=wrap: w([0.1, 0.2, 0.3]), kappa=0.0)
            one = PseudoContraction(map=lambda v, w=wrap: w([0.4]), kappa=0.0)
            family = ProblemFamily.from_members(box, [], [three, one])
            with pytest.raises(ValueError, match="map member 0 returned 3 values"):
                family.map_kernel(0, 2, 1, x)
            family = ProblemFamily.from_members(box, [], [identity_map(), one, three])
            with pytest.raises(ValueError, match="map member 1 returned 1 values"):
                family.map_kernel(0, 3, 1, x)
        # list rows of d values each make the block
        pair = PseudoContraction(map=lambda v: [float(v[1]), float(v[0])], kappa=0.0)
        family = ProblemFamily.from_members(box, [], [pair] * 3)
        np.testing.assert_array_equal(family.map_kernel(0, 3, 1, x), [[-0.8, 0.4]] * 3)
        # a list row of the right length whose items are not one value each
        nested = PseudoContraction(map=lambda v: [[0.1, 0.2], [0.3, 0.4]], kappa=0.0)
        family = ProblemFamily.from_members(box, [], [pair, nested])
        with pytest.raises(ValueError, match="map member 1 returned 4 values"):
            family.map_kernel(0, 2, 1, x)

    def test_ragged_results_name_their_member(self):
        # A ragged row fails numpy's conversion itself; the block names the
        # member behind it instead of passing numpy's message on alone.
        box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
        x = np.array([0.4, -0.8])
        ragged = PseudoContraction(map=lambda v: [[0.1, 0.2], 0.3], kappa=0.0)
        family = ProblemFamily.from_members(box, [], [identity_map()] * 2 + [ragged])
        with pytest.raises(ValueError, match=r"map member 2 returned \[\[0.1, 0.2\], 0.3\]"):
            family.map_kernel(0, 3, 1, x)

        class Ragged(operators.Bifunction):
            def resolve(self, r, w, base):
                return [float(w[0]), [float(w[1])]]

        geps = [(ZeroBifunction(), zero_operator()), (Ragged(), zero_operator())]
        family = ProblemFamily.from_members(box, geps, [])
        with pytest.raises(ValueError, match="equilibrium member 1 returned"):
            family.gep_kernel(0, 2, 1.0, x)

    @pytest.mark.parametrize("d", [1, 3])
    def test_every_plain_member_gets_its_own_writable_row(self, d):
        seen = []

        def record(v):
            seen.append(v)
            return [float(t) for t in v]

        plain = PseudoContraction(map=record, kappa=0.0)
        growing = PseudoContraction(map=record, kappa=0.0, asymptotic=True)
        maps = [plain, plain, growing, plain, plain]
        box = Box(lo=np.full(d, -1.0), hi=np.full(d, 1.0))
        family = ProblemFamily.from_members(box, [], maps)
        x = np.linspace(-0.5, 0.5, d)
        rows = family.map_kernel(0, len(maps), 1, x)
        np.testing.assert_array_equal(rows, np.tile(x, (len(maps), 1)))
        assert len(seen) == len(maps)
        for i, v in enumerate(seen):
            assert v.shape == (d,) and v.dtype == np.float64 and v.flags.writeable
            np.testing.assert_array_equal(v, x)
            assert not np.shares_memory(v, x) and not np.shares_memory(v, rows)
            assert not any(np.shares_memory(v, u) for u in seen[i + 1:])

    def test_members_that_write_to_their_point_reach_no_other(self):
        plain = PseudoContraction(map=_halve_in_place, kappa=0.0)
        growing = PseudoContraction(map=_halve_in_place, kappa=0.0, asymptotic=True)
        A = IsmOperator(map=_halve_in_place, alpha=2.0)
        family = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), A)] * 2, [plain, growing] * 2
        )
        x = np.array([0.8])
        rows = family.map_kernel(0, 4, 2, x)
        np.testing.assert_array_equal(rows[:, 0], [0.4, 0.2, 0.4, 0.2])
        rows = family.gep_kernel(0, 2, 1.0, x)
        np.testing.assert_array_equal(rows[:, 0], [0.4, 0.4])
        np.testing.assert_array_equal(x, [0.8])

    def test_member_kernels_keep_checks(self):
        family = ProblemFamily.from_members(
            BASE, [(section4_bifunction(0.2), zero_operator())], [section4_map(1.5)]
        )
        for bad in ([math.nan], [math.inf]):
            with pytest.raises(ValueError):
                family.gep_kernel(0, 1, 1.0, np.array(bad))
            with pytest.raises(ValueError):
                family.map_kernel(0, 1, 1, np.array(bad))
        for r in (0.0, -1.0):
            with pytest.raises(ValueError):
                family.gep_kernel(0, 1, r, np.array([0.5]))
        with pytest.raises(ValueError):
            family.map_kernel(0, 1, -1, np.array([0.5]))

    def test_every_family_carries_kernels(self):
        members = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), zero_operator())], [identity_map()]
        )
        section4, _, _ = build_section4(3, 4)
        for family in (members, section4):
            assert callable(family.gep_kernel) and callable(family.map_kernel)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            ProblemFamily.from_members(BASE, [], [])

    def test_unset_moved_prefix_reporters_stay_none(self):
        # The reduction reads None as "every member moved", as it reads an
        # unset bound as "evaluate every block".
        members = ProblemFamily.from_members(
            BASE, [(ZeroBifunction(), zero_operator())], [identity_map()]
        )
        direct = ProblemFamily(
            base=BASE, geps=members.geps, maps=members.maps, alpha=math.inf,
            kappa=0.0, k_seq=lambda n: 1.0, gep_kernel=members.gep_kernel,
            map_kernel=members.map_kernel,
        )
        for family in (members, direct):
            assert family.gep_moved is None and family.map_moved is None

    def test_zero_operator_has_infinite_modulus(self):
        assert math.isinf(zero_operator().alpha)


def _outcome(call):
    """``call()``'s rows as bytes, or its resolvent error with its payload."""
    try:
        return ("rows", call().tobytes())
    except (ResolventFailure, InvalidModelError) as err:
        return (type(err), str(err), repr(getattr(err, "bracket", None)))


def _count_resolve_calls(monkeypatch):
    """Count the member kernels' calls of the general resolvent path."""
    calls = []
    general = operators._resolve

    def counted(f, A, r, xv, base):
        calls.append(f)
        return general(f, A, r, xv, base)

    monkeypatch.setattr(operators, "_resolve", counted)
    return calls


class TestScalarResolventPath:
    """A scalar bifunction behind a zero operator is solved on the float
    coordinate, with the bits of :func:`resolvent`."""

    def test_rows_match_resolvent_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(83)
        thresholds = [float(t) for t in rng.uniform(-0.95, 0.95, 12)]
        bifunctions = [section4_bifunction(xi) for xi in thresholds] + [
            ScalarMonotoneBifunction(profile=lambda z: z, lo=-1.0, hi=1.0),
            ScalarMonotoneBifunction(profile=lambda z: z ** 3, lo=-0.5, hi=0.5),
        ]
        geps = [(f, A) for f in bifunctions
                for A in (zero_operator(), IsmOperator(map=np.zeros_like, alpha=1.0))]
        # a threshold as x is fixed by some members and moved by the others;
        # -1 and 1 end the section4 brackets, and +-0.5 end the cubic
        # member's, which clamps x = -1 and x = 1
        grid = [float(x) for x in rng.uniform(-1.0, 1.0, 20)]
        grid += thresholds + [-1.0, 1.0, -0.5, 0.5, 0.0, -0.0]
        calls = _count_resolve_calls(monkeypatch)
        for x in grid:
            for r in (0.5, 1.0, 2.5):
                expected = np.vstack([resolvent(f, A, r, [x], BASE) for f, A in geps])
                # a new family evaluates the ends; its second call reads them.
                # One-member blocks: a row beside a further one may be x itself.
                family = ProblemFamily.from_members(BASE, geps, [])
                for _ in range(2):
                    calls.clear()
                    rows = np.vstack([family.gep_kernel(i, i + 1, r, np.array([x]))
                                      for i in range(len(geps))])
                    assert rows.tobytes() == expected.tobytes(), (x, r)
                    assert calls == []

    @pytest.mark.parametrize(
        "profile, x",
        [
            (lambda z: math.nan if z < -0.9 else z, 0.5),
            (lambda z: math.nan if z > 0.9 else z, 0.5),
            (lambda z: math.nan if 0.4 < z < 0.6 else z, 0.5),
            (lambda z: -10.0 * z, 0.2),
        ],
        ids=["nan-at-lo", "nan-at-hi", "nan-at-x", "decreasing"],
    )
    def test_failures_match_resolvent_on_every_call(self, profile, x):
        f = ScalarMonotoneBifunction(profile=profile, lo=-1.0, hi=1.0)
        family = ProblemFamily.from_members(BASE, [(f, zero_operator())], [])
        expected = _outcome(lambda: resolvent(f, zero_operator(), 1.0, [x], BASE))
        assert expected[0] in (ResolventFailure, InvalidModelError)
        for _ in range(3):  # the ends are stored after the first call
            assert _outcome(lambda: family.gep_kernel(0, 1, 1.0, np.array([x]))) == expected

    def test_exhausted_budget_matches_resolvent(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_STEPS", 3)
        f = ScalarMonotoneBifunction(profile=step_profile, lo=-1.0, hi=1.0)
        family = ProblemFamily.from_members(BASE, [(f, zero_operator())], [])
        expected = _outcome(lambda: resolvent(f, zero_operator(), 1.0, [0.5], BASE))
        assert expected[0] is ResolventFailure and "after 3 steps" in expected[1]
        for _ in range(2):
            assert _outcome(lambda: family.gep_kernel(0, 1, 1.0, np.array([0.5]))) == expected

    def test_profile_that_raises_at_hi_stores_no_end(self):
        raised = []

        def flaky(z):
            if z == 1.0 and not raised:
                raised.append(z)
                raise RuntimeError("flaky profile")
            return z

        profile, points = recording(flaky)
        f = ScalarMonotoneBifunction(profile=profile, lo=-1.0, hi=1.0)
        family = ProblemFamily.from_members(BASE, [(f, zero_operator())], [])
        x = np.array([0.5])
        with pytest.raises(RuntimeError, match="flaky profile"):
            family.gep_kernel(0, 1, 1.0, x)
        assert points == [-1.0, 1.0]
        steady = ScalarMonotoneBifunction(profile=lambda z: z, lo=-1.0, hi=1.0)
        expected = resolvent(steady, zero_operator(), 1.0, x, BASE).tobytes()
        # the failed call stored neither end, so the next one evaluates both
        for ends in (2, 0):
            points.clear()
            assert family.gep_kernel(0, 1, 1.0, x).tobytes() == expected
            assert points.count(-1.0) + points.count(1.0) == ends

    def test_subclass_that_overrides_resolve_is_called(self):
        class Shifted(ScalarMonotoneBifunction):
            def resolve(self, r, w, base):
                return super().resolve(r, w, base) + 0.25

        f = Shifted(profile=lambda z: 0.0, lo=-1.0, hi=1.0)
        plain = ScalarMonotoneBifunction(profile=lambda z: 0.0, lo=-1.0, hi=1.0)
        family = ProblemFamily.from_members(
            BASE, [(plain, zero_operator()), (f, zero_operator())], []
        )
        np.testing.assert_array_equal(
            family.gep_kernel(0, 2, 1.0, np.array([0.5])), [[0.5], [0.75]]
        )

    def test_other_operators_take_the_general_path(self, monkeypatch):
        f = section4_bifunction(-0.2)
        affine = affine_operator(2.0, [0.1])
        geps = [(f, zero_operator()), (f, affine), (ZeroBifunction(), zero_operator())]
        family = ProblemFamily.from_members(BASE, geps, [])
        x = np.array([0.7])
        expected = np.vstack([resolvent(g, A, 0.5, x, BASE) for g, A in geps])
        calls = _count_resolve_calls(monkeypatch)
        rows = np.vstack([family.gep_kernel(i, i + 1, 0.5, x) for i in range(3)])
        assert rows.tobytes() == expected.tobytes()
        assert calls == [f, geps[2][0]]


class TestMemberEvaluationCounts:
    """Profile calls of the member resolvent kernel, counted: a repeat
    evaluation costs one call per member that fixes the point and no end
    calls, and a solve evaluates each member's ends once."""

    def test_repeat_call_costs_one_profile_call_per_fixed_member(self):
        rng = np.random.default_rng(89)
        members = [section4_bifunction(float(xi)) for xi in rng.uniform(-0.95, 0.95, 40)]
        counted = [counting(f.profile) for f in members]
        geps = [(ScalarMonotoneBifunction(profile=profile, lo=f.lo, hi=f.hi), zero_operator())
                for f, (profile, _) in zip(members, counted)]
        family = ProblemFamily.from_members(BASE, geps, [])

        def each_member(r, x):
            # one-member blocks, where no member can be screened
            for i in range(len(geps)):
                family.gep_kernel(i, i + 1, r, np.array([x]))

        for x in (-0.3, 0.2, 0.7):
            for r in (0.5, 1.0):
                each_member(r, x)
                for _, calls in counted:
                    calls[0] = 0
                each_member(r, x)
                fixed = 0
                for f, (_, calls) in zip(members, counted):
                    alone, alone_calls = counting(f.profile)
                    z = resolvent_scalar(alone, r, x, f.lo, f.hi)
                    # resolvent_scalar pays both ends on top of the kernel's calls
                    assert calls[0] == alone_calls[0] - 2
                    if z == x:
                        fixed += 1
                        assert calls[0] == 1
                assert 0 < fixed < len(members)

    def test_each_member_end_is_evaluated_once_per_solve(self):
        spec = Section4Spec(50, 75)
        recorded = []
        bifunctions = []
        for xi in spec.thresholds:
            f = section4_bifunction(float(xi))
            profile, points = recording(f.profile)
            recorded.append((f, points))
            bifunctions.append(ScalarMonotoneBifunction(profile=profile, lo=f.lo, hi=f.hi))
        maps = [section4_map(float(c)) for c in spec.coefficients]
        family, _, schedule = preset("cor5", base=BASE, bifunctions=bifunctions, maps=maps)
        report = solve(family, schedule, SolverConfig(max_iter=30), [0.9])
        assert report.iterations == 30
        for f, points in recorded:
            assert len(points) >= 30
            assert points.count(f.lo) == 1 and points.count(f.hi) == 1


def _cor5_members(n_geps: int, n_maps: int):
    spec = Section4Spec(n_geps, n_maps)
    return preset(
        "cor5", base=BASE,
        bifunctions=[section4_bifunction(float(xi)) for xi in spec.thresholds],
        maps=[section4_map(float(c)) for c in spec.coefficients],
    )


def _mixed_members():
    # Every member fixes 0.2: two custom resolvents, a section4 bifunction,
    # an affine operator, an asymptotic contraction that settles on its
    # float fixed point within the run, a plain reflection and an
    # asymptotic one.
    custom = [CustomBifunction(oracle=lambda r, w, s=s: (w + r * s * 0.2) / (1.0 + r * s))
              for s in (0.5, 1.0)]
    maps = [
        PseudoContraction(map=lambda v: 0.5 * v + 0.1, kappa=0.0, asymptotic=True),
        PseudoContraction(map=lambda v: [0.4 - float(v[0])], kappa=0.0),
        PseudoContraction(map=lambda v: 0.4 - v, kappa=0.0, asymptotic=True),
    ]
    return preset("cor1", base=BASE, bifunctions=custom + [section4_bifunction(0.3)],
                  operators=[affine_operator(1.0, [0.2])], maps=maps)


def _bits(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


class TestMemberKernelsReference:
    """The member kernels of from_members run the iterations of the frozen
    per-member loops, field for field."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "members, iterations",
        [(lambda: _cor5_members(50, 75), 60), (_mixed_members, 80)],
        ids=["cor5", "mixed"],
    )
    def test_histories_equal_the_reference(self, members, iterations, workers):
        family, _, schedule = members()
        gep_kernel, map_kernel = member_kernels_reference(
            family.base, family.geps, family.maps
        )
        reference = replace(family, gep_kernel=gep_kernel, map_kernel=map_kernel)
        cfg = SolverConfig(max_iter=iterations, workers=workers, record_history=True)
        got, want = (solve(f, schedule, cfg, [0.9]) for f in (family, reference))
        assert got.final_x.tobytes() == want.final_x.tobytes()
        assert len(got.history) == len(want.history) == iterations
        for a, b in zip(got.history, want.history):
            for field in fields(a):
                if not field.name.startswith("t_"):  # timings
                    name = field.name
                    assert _bits(getattr(a, name)) == _bits(getattr(b, name)), (a.n, name)


def _screen_members(rng):
    """A seeded member list for the resolvent screen, and the points to
    evaluate it at: scalar pairs of five profile kinds beside general pairs,
    with points at thresholds, bracket ends, +-0.0 and random places."""
    geps, points = [], [0.0, -0.0, -1.0, 1.0]
    for _ in range(int(rng.integers(3, 13))):
        kind = rng.integers(7)
        t = float(rng.uniform(-0.9, 0.9))
        lo = float(rng.choice([-1.0, rng.uniform(-1.0, t)]))
        hi = float(rng.choice([1.0, rng.uniform(t, 1.0)]))
        scale = float(rng.uniform(0.1, 3.0))
        if kind == 0:
            f = section4_bifunction(t)
        elif kind == 1:
            f = ScalarMonotoneBifunction(lambda z, t=t, s=scale: s * (z - t) ** 3, lo, hi)
        elif kind == 2:
            f = ScalarMonotoneBifunction(lambda z, t=t, s=scale: s * (z - t), lo, hi)
        elif kind == 3:
            f = ScalarMonotoneBifunction(lambda z, t=t: 1e6 * (z - t), lo, hi)
        elif kind == 4:
            f = ScalarMonotoneBifunction(
                lambda z, t=t, s=scale: -s if z < t else s, lo, hi)
        if kind < 5:
            geps.append((f, zero_operator()))
            points += [t, f.lo, f.hi]
        elif kind == 5:
            geps.append((ZeroBifunction(), affine_operator(scale, [t])))
        else:
            geps.append((section4_bifunction(t), affine_operator(scale, [t])))
    points += [float(p) for p in rng.uniform(-1.0, 1.0, 4)]
    return geps, points


def _phase(family, r, x, pool, workers):
    """``furthest_candidate`` over the family's pairs as
    ``(index, point bytes, dist2)``."""
    won = furthest_candidate(gep_chunk_evaluator(family, r, x), family.n_geps, x,
                             pool=pool, workers=workers)
    return won.index, won.point.tobytes(), won.dist2


def _constant(height):
    return ScalarMonotoneBifunction(lambda z: height, -1.0, 1.0)


class TestResolventScreen:
    """The member resolvent kernel root-finds only the members whose reach
    can attain the block's best row; the reduction picks the winner of the
    kernel that root-finds every member, bit for bit."""

    @staticmethod
    def _check(geps, points, rs, pool=None, workers=1):
        family = ProblemFamily.from_members(BASE, geps, [])
        gep_kernel, _ = member_kernels_reference(BASE, family.geps, [])
        reference = replace(family, gep_kernel=gep_kernel)
        for x in points:
            for r in rs:
                xv = np.array([x])
                want = _phase(reference, r, xv, pool, workers)
                assert _phase(family, r, xv, pool, workers) == want, (x, r)

    @pytest.mark.parametrize(
        "rows_per_block, workers", [(None, 1), (3, 1), (3, 2)],
        ids=["one-block", "3-row-1w", "3-row-2w"],
    )
    def test_winner_matches_the_reference(self, monkeypatch, rows_per_block, workers):
        if rows_per_block is not None:
            monkeypatch.setattr(parallel, "TARGET_CHUNK_ROWS", rows_per_block)
        rng = np.random.default_rng(97)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in range(SCREEN_FAMILIES):
                geps, points = _screen_members(rng)
                self._check(geps, points, (0.5, 1.0, 2.5), pool, workers)

    def test_near_tied_constant_profiles(self):
        # Roots x - r * h at heights less than 5e-13 apart. The root finder
        # may stop up to tol / 2 from the root, so a reach without its
        # margin screens a member that wins: member 0 below lies 4.1e-13
        # further out than its |g(x)| and ties member 1, whose |g(x)| is
        # 2.7e-13 larger.
        x, r, *heights = map(float.fromhex, [
            "-0x1.bc7df4d432f80p-5", "0x1.2dda9e736936fp+0", "0x1.2cba8652a34f0p-5",
            "0x1.2cba8652ab6bep-5", "0x1.2cba8652a7cdep-5", "0x1.2cba8652a6090p-5"])
        self._check([(_constant(h), zero_operator()) for h in heights], [x], [r])
        rng = np.random.default_rng(101)
        for _ in range(NEAR_TIE_FAMILIES):
            h = float(rng.uniform(-0.4, 0.4))
            heights = h + rng.uniform(0.0, 5e-13, int(rng.integers(2, 6)))
            self._check([(_constant(float(v)), zero_operator()) for v in heights],
                        [float(rng.uniform(-0.5, 0.5))], [float(rng.uniform(0.5, 1.5))])

    def test_screened_member_costs_one_profile_call(self):
        # Member 0 moves 0.5 by 0.25; member 1 by about 1e-6 and is screened.
        near, near_calls = counting(lambda z: 1e-6)
        geps = [(_constant(0.25), zero_operator()),
                (ScalarMonotoneBifunction(near, -1.0, 1.0), zero_operator())]
        family = ProblemFamily.from_members(BASE, geps, [])
        x = np.array([0.5])
        for calls in (3, 1):  # both ends and g(x) first, then g(x) alone
            near_calls[0] = 0
            rows = family.gep_kernel(0, 2, 1.0, x)
            assert near_calls[0] == calls
            np.testing.assert_array_equal(rows, [[0.25], [0.5]])
        # alone in its block it is root-found, as resolvent does
        near_calls[0] = 0
        row = family.gep_kernel(1, 2, 1.0, x)
        assert near_calls[0] > 1
        assert row.tobytes() == resolvent(geps[1][0], zero_operator(), 1.0, x, BASE).tobytes()


class TestCustomBifunction:
    BOX2 = Box(lo=[-1.0, -0.5], hi=[1.0, 0.5])
    OPERATORS = [
        affine_operator(1.0, [0.5, 0.0]),
        affine_operator(2.0, [-0.3, 0.2]),
        zero_operator(),
        affine_operator(0.5, [0.9, -0.4]),
        affine_operator(3.0, [0.0, 0.1]),
    ]

    def test_projection_oracle_matches_zero_bifunction(self):
        box = self.BOX2
        custom = CustomBifunction(oracle=lambda r, w: box.project(w))
        zero = ProblemFamily.from_members(
            box, [(ZeroBifunction(), A) for A in self.OPERATORS], []
        )
        oracle = ProblemFamily.from_members(
            box, [(custom, A) for A in self.OPERATORS], []
        )
        lo, hi = 2, 5
        for x in ([0.9, 0.4], [-0.2, -0.5], [0.1, 0.0]):
            for r in (0.25, 0.5):
                expected = zero.gep_kernel(lo, hi, r, np.array(x))
                got = oracle.gep_kernel(lo, hi, r, np.array(x))
                assert got.shape == (hi - lo, 2)
                np.testing.assert_array_equal(got, expected)

    def test_nan_oracle_raises(self):
        custom = CustomBifunction(oracle=lambda r, w: np.full_like(w, math.nan))
        family = ProblemFamily.from_members(BASE, [(custom, zero_operator())], [])
        with pytest.raises(ValueError, match="finite"):
            family.gep_kernel(0, 1, 1.0, np.array([0.5]))


class TestZeroOperatorStep:
    """A zero operator skips the forward-step arithmetic, bit for bit."""

    BOX2 = Box(lo=[-1.0, -0.5], hi=[1.0, 0.5])
    ZEROS = [zero_operator(), IsmOperator(map=np.zeros_like, alpha=1.0)]
    BIFUNCTIONS = [
        ZeroBifunction(),
        CustomBifunction(oracle=lambda r, w: w / (1.0 + r)),
    ]

    @pytest.mark.parametrize("f", BIFUNCTIONS, ids=["zero", "custom"])
    def test_matches_the_forward_step(self, f):
        box = self.BOX2
        family = ProblemFamily.from_members(box, [(f, A) for A in self.ZEROS], [])
        for x in ([0.9, 0.4], [-0.0, -0.7], [1.5, 1e-300]):
            xv = np.array(x)
            for r in (0.25, 1.0):
                expected = [f.resolve(r, xv - r * A(xv), box) for A in self.ZEROS]
                rows = family.gep_kernel(0, len(self.ZEROS), r, xv)
                assert rows.tobytes() == np.vstack(expected).tobytes()
                for A, want in zip(self.ZEROS, expected):
                    got = resolvent(f, A, r, xv, box)
                    assert got.tobytes() == want.tobytes()

    def test_mutating_oracle_cannot_reach_later_members(self):
        def halve_in_place(r, w):
            w *= 0.5
            return w

        f = CustomBifunction(oracle=halve_in_place)
        family = ProblemFamily.from_members(
            self.BOX2, [(f, A) for A in self.ZEROS * 2], []
        )
        x = np.array([0.8, -0.4])
        rows = family.gep_kernel(0, 4, 1.0, x)
        np.testing.assert_array_equal(rows, np.tile([0.4, -0.2], (4, 1)))
        np.testing.assert_array_equal(x, [0.8, -0.4])

    def test_resolvent_never_returns_the_callers_array(self):
        identity = CustomBifunction(oracle=lambda r, w: w)
        x = np.array([0.3, 0.1])
        for f in (identity, ZeroBifunction()):
            y = resolvent(f, zero_operator(), 1.0, x, self.BOX2)
            assert y is not x and not np.shares_memory(y, x)
            np.testing.assert_array_equal(y, x)

    def test_infinite_step_is_not_skipped(self):
        # inf * 0 is NaN in the forward step, so the skip would change the
        # result; the candidate stays non-finite and is rejected.
        identity = CustomBifunction(oracle=lambda r, w: w)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            resolvent(identity, zero_operator(), math.inf, [0.3, 0.1], self.BOX2)
