import numpy as np
import pytest

from hybridproj.geometry import (
    Ball,
    Box,
    CustomSet,
    Halfspace,
    InfeasibleSetError,
    NestedSet,
    ProjectionFailure,
    as_vector,
    contains,
    halfspace_from_iterate,
    project_nested,
)
from oracles import (
    dykstra_reference,
    enumerate_project,
    grid_project,
    random_cut_instance,
)


def box1d():
    return Box(lo=[-1.0], hi=[1.0])


class TestProjectBase:
    def test_box_clamps_to_boundary(self):
        assert box1d().project(np.array([2.0])) == pytest.approx([1.0])

    def test_ball_radial_scaling(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_interior_point_fixed(self):
        assert box1d().project(np.array([0.3]))[0] == 0.3

    def test_bad_box_bounds(self):
        with pytest.raises(ValueError):
            Box(lo=[1.0], hi=[-1.0])
        with pytest.raises(ValueError, match="box bounds must share a shape"):
            Box(lo=[-1.0, -1.0], hi=[1.0])

    def test_bad_ball_radius(self):
        with pytest.raises(ValueError):
            Ball(center=[0.0], radius=0.0)

    @pytest.mark.parametrize("base", [
        Box(lo=[-1.0, 0.5, 2.0], hi=[1.0, 0.75, 2.0]),
        Ball(center=[0.2, -0.1, 0.0], radius=1.5),
        # BaseSet.sample: a standard normal draw, projected.
        CustomSet(projection=lambda p: np.clip(p, -0.2, 0.3), dimension=3),
    ], ids=["box", "ball", "custom"])
    def test_samples_lie_in_the_set_and_follow_the_seed(self, base):
        draws = [[base.sample(np.random.default_rng(seed)) for _ in range(2)]
                 for seed in (5, 5)]
        for point in draws[0]:
            assert point.shape == (3,) and base.contains(point, 0.0)
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_ball_sample_of_a_zero_direction_is_the_centre(self):
        class ZeroNormal:
            def standard_normal(self, d):
                return np.zeros(d)

        ball = Ball(center=[0.2, -0.1], radius=1.5)
        np.testing.assert_array_equal(ball.sample(ZeroNormal()), ball.center)


class TestHalfspaceFromIterate:
    def test_coincident_points_degenerate(self):
        h = halfspace_from_iterate([0.5], [0.5], 0.0)
        assert h.is_degenerate
        assert h.offset == 0.0
        assert h.contains(np.array([123.0]))

    def test_unit_gap_boundary(self):
        # membership <=> ||0 - v||^2 <= ||1 - v||^2, i.e. v <= 0.5
        h = halfspace_from_iterate([1.0], [0.0], 0.0)
        np.testing.assert_allclose(h.normal, [2.0])
        assert h.offset == pytest.approx(1.0)
        assert h.contains(np.array([0.5]))
        assert not h.contains(np.array([0.5 + 1e-6]))

    def test_relaxed_boundary(self):
        # adding eps = 0.5 moves the boundary to v <= 0.75
        h = halfspace_from_iterate([1.0], [0.0], 0.5)
        assert h.offset / h.normal[0] == pytest.approx(0.75)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            halfspace_from_iterate([1.0], [0.0], -1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            halfspace_from_iterate([1.0, 2.0], [0.0])

    def test_zero_normal_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(normal=np.zeros(2), offset=-1.0)

    @pytest.mark.parametrize("normal, offset, match", [
        ([1.0, np.nan], 0.0, "normal must be a finite 1-D vector"),
        ([np.inf], 0.0, "normal must be a finite 1-D vector"),
        ([[1.0]], 0.0, "normal must be a finite 1-D vector"),
        ([1.0], np.nan, "offset must be finite"),
        ([1.0], -np.inf, "offset must be finite"),
    ], ids=["normal-nan", "normal-inf", "normal-2d", "offset-nan", "offset-inf"])
    def test_non_finite_halfspace_rejected(self, normal, offset, match):
        with pytest.raises(ValueError, match=match):
            Halfspace(normal=np.array(normal), offset=offset)

    def test_membership_identity_on_random_data(self):
        # <a, v> - b must equal ||zbar - v||^2 - ||x - v||^2 - eps identically
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            x = rng.uniform(-1, 1, d)
            zbar = rng.uniform(-1, 1, d)
            eps = float(rng.uniform(0, 0.5))
            v = rng.uniform(-1, 1, d)
            h = halfspace_from_iterate(x, zbar, eps)
            lhs = float(h.normal @ v) - h.offset
            rhs = float(np.sum((zbar - v) ** 2) - np.sum((x - v) ** 2)) - eps
            assert abs(lhs - rhs) <= 1e-12


class TestContains:
    def test_no_cuts(self):
        assert contains(NestedSet(base=box1d()), [0.0])

    def test_cut_excludes(self):
        nested = NestedSet(base=box1d())
        nested.add_cut(halfspace_from_iterate([1.0], [0.0]))
        assert not contains(nested, [0.6], tol=1e-9)
        assert contains(nested, [0.5])

    def test_cut_dimension_checked(self):
        nested = NestedSet(base=box1d())
        with pytest.raises(ValueError):
            nested.add_cut(Halfspace(normal=np.array([1.0, 1.0]), offset=0.0))

    @pytest.mark.parametrize("check", [contains, project_nested])
    def test_point_dimension_checked(self, check):
        with pytest.raises(ValueError, match="point dimension does not match the set"):
            check(NestedSet(base=box1d()), [0.5, 0.5])

    def test_constructor_cuts_dimension_checked(self):
        # Checked like add_cut, rather than failing inside a projection.
        fits = halfspace_from_iterate([1.0], [0.0])
        wide = Halfspace(normal=np.array([1.0, 1.0]), offset=0.0)
        assert contains(NestedSet(base=box1d(), cuts=[fits]), [0.5])
        with pytest.raises(ValueError, match="cut dimension does not match the base set"):
            NestedSet(base=box1d(), cuts=[fits, wide])


class TestProjectNested:
    def test_no_cuts_is_base_projection(self):
        nested = NestedSet(base=box1d())
        assert project_nested(nested, [2.0])[0] == pytest.approx(1.0)

    def test_single_cut_interval(self):
        nested = NestedSet(base=box1d())
        nested.add_cut(halfspace_from_iterate([1.0], [0.0]))
        assert project_nested(nested, [1.0])[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_cuts_skipped(self):
        nested = NestedSet(base=box1d())
        nested.add_cut(halfspace_from_iterate([0.3], [0.3]))
        assert project_nested(nested, [0.9])[0] == pytest.approx(0.9)
        assert len(nested.cuts) == 1

    def test_two_cuts_2d_vs_oracles(self):
        nested = NestedSet(base=Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]))
        nested.add_cut(Halfspace(normal=np.array([1.0, 1.0]), offset=0.0))
        nested.add_cut(Halfspace(normal=np.array([1.0, -1.0]), offset=0.0))
        x0 = np.array([1.0, 0.2])
        q = project_nested(nested, x0)
        np.testing.assert_allclose(q, grid_project(nested, x0), atol=1e-4)
        np.testing.assert_allclose(q, enumerate_project(nested, x0), atol=1e-9)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            nested, x0 = random_cut_instance(rng, n_cuts=int(rng.integers(1, 6)))
            q = project_nested(nested, x0)
            np.testing.assert_allclose(q, enumerate_project(nested, x0), atol=1e-8)

    def test_result_feasible_and_variational(self):
        rng = np.random.default_rng(3)
        nested, x0 = random_cut_instance(rng, n_cuts=4)
        tol = 1e-12
        q = project_nested(nested, x0, tol=tol)
        assert contains(nested, q, tol=1e-9)
        for _ in range(100):
            y = enumerate_project(nested, rng.uniform(-2, 2, 2))
            assert float((x0 - q) @ (q - y)) >= -10 * tol

    def test_sweep_budget_exhaustion(self):
        nested, x0 = random_cut_instance(np.random.default_rng(5), n_cuts=4)
        with pytest.raises(ProjectionFailure) as err:
            project_nested(nested, x0, tol=1e-15, max_sweeps=1)
        assert err.value.best is not None
        assert err.value.residual >= 0
        assert (err.value.iteration, err.value.cuts, err.value.sweeps) == (None, 4, 1)

    def test_infeasible_detection(self):
        nested = NestedSet(base=box1d())
        nested.add_cut(Halfspace(normal=np.array([1.0]), offset=-2.0))
        with pytest.raises(InfeasibleSetError) as err:
            project_nested(nested, [0.0])
        assert err.value.iteration is None
        assert err.value.cuts == 1
        assert 5 <= err.value.sweeps < 10_000

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-12])
    def test_tol_outside_its_range_is_refused(self, tol):
        nested, x0 = random_cut_instance(np.random.default_rng(5), n_cuts=4)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            project_nested(nested, x0, tol=tol)

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_max_sweeps_below_one_is_refused(self, max_sweeps):
        nested, x0 = random_cut_instance(np.random.default_rng(5), n_cuts=4)
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            project_nested(nested, x0, max_sweeps=max_sweeps)


def _same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), (got, expected)


def _outcome(project, *args):
    try:
        return project(*args)
    except (InfeasibleSetError, ProjectionFailure) as err:
        return err


def _same_outcome(nested, x0, tol: float = 1e-12, max_sweeps: int = 10_000):
    """The same bytes from both loops, or the same failure: type, message,
    cut count, sweeps and, for an exhausted budget, best point."""
    got = _outcome(project_nested, nested, x0, tol, max_sweeps)
    expected = _outcome(dykstra_reference, nested, x0, tol, max_sweeps)
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray), got
        _same_bits(got, expected)
        return got
    assert type(got) is type(expected) and str(got) == str(expected)
    assert (got.iteration, got.cuts, got.sweeps) == (
        expected.iteration, expected.cuts, expected.sweeps)
    if isinstance(expected, ProjectionFailure):
        assert got.residual == expected.residual
        _same_bits(got.best, expected.best)
    return got


def _base(kind: str, d: int):
    if kind == "box":
        return Box(lo=np.full(d, -1.0), hi=np.linspace(1.0, 1.5, d))
    if kind == "ball":
        return Ball(center=np.linspace(0.1, -0.1, d), radius=1.2)
    # A box again, behind a user projection oracle.
    return CustomSet(projection=lambda p: np.clip(p, -0.9, 1.1), dimension=d)


def _mixed_instance(rng: np.random.Generator, d: int, kind: str, n_cuts: int):
    """Cuts with a margin around an interior point whose first coordinate is
    -0.0, degenerate cuts between; returns the set and that point."""
    nested = NestedSet(base=_base(kind, d))
    inner = rng.uniform(-0.3, 0.3, size=d)
    inner[0] = -0.0
    for k in range(n_cuts):
        if k % 3 == 1:
            nested.add_cut(Halfspace(normal=np.zeros(d), offset=float(rng.uniform(0, 1))))
        normal = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
        margin = rng.uniform(0.01, 0.3) * float(np.linalg.norm(normal))
        nested.add_cut(Halfspace(normal=normal, offset=float(normal @ inner) + margin))
    return nested, inner


class TestBitIdenticalToReference:
    """``project_nested`` returns the bytes of the plain loop, and fails as
    it does."""

    def test_random_cut_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            nested, x0 = random_cut_instance(rng, n_cuts=int(rng.integers(1, 12)))
            _same_outcome(nested, x0)

    @pytest.mark.parametrize("kind", ["box", "ball", "custom"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bases_dimensions_and_degenerate_cuts(self, d, kind):
        rng = np.random.default_rng(100 * d + len(kind))
        for n_cuts in (1, 2, 5, 9):
            nested, _ = _mixed_instance(rng, d, kind, n_cuts)
            for x0 in (rng.uniform(-2.0, 2.0, size=d), np.full(d, -0.0),
                       np.where(np.arange(d) == 0, -0.0, 1.7)):
                for tol in (1e-12, 1e-6):
                    _same_outcome(nested, x0, tol)

    @pytest.mark.parametrize("kind", ["box", "ball", "custom"])
    def test_feasible_anchor(self, kind):
        nested, x0 = _mixed_instance(np.random.default_rng(41), 2, kind, 6)
        assert contains(nested, x0, tol=0.0)
        got = _same_outcome(nested, x0)
        # The first increment is +0.0, and -0.0 + 0.0 is +0.0 in both loops.
        np.testing.assert_array_equal(got, x0)

    def test_solver_cuts(self):
        # The 1-D cuts a section4 run accumulates, many of them slack,
        # projected from several anchors as the solver projects its own.
        from hybridproj.problems import build_section4
        from hybridproj.solver import SolverConfig, SolverState, iterate

        family, schedule, _ = build_section4(200, 300)
        x0 = np.array([1.0])
        state = SolverState(n=0, x=x0, x0=x0, nested=NestedSet(base=family.base))
        for _ in range(40):
            state = iterate(state, family, schedule, SolverConfig())
        nested = state.nested
        for x0 in ([1.0], [-0.0], [0.37], [-3.0]):
            assert isinstance(_same_outcome(nested, x0), np.ndarray)

    def test_budget_exhaustion_keeps_its_pins(self):
        nested, x0 = random_cut_instance(np.random.default_rng(5), n_cuts=4)
        err = _same_outcome(nested, x0, tol=1e-15, max_sweeps=1)
        assert isinstance(err, ProjectionFailure)
        assert (err.iteration, err.cuts, err.sweeps) == (None, 4, 1)

    def test_cycle_keeps_its_message_and_sweeps(self):
        nested = NestedSet(base=box1d())
        nested.add_cut(Halfspace(normal=np.array([1.0]), offset=-2.0))
        nested.add_cut(Halfspace(normal=np.array([0.0]), offset=0.0))
        err = _same_outcome(nested, [0.0])
        assert isinstance(err, InfeasibleSetError)
        assert str(err).startswith("alternating projections cycle")
        assert (err.iteration, err.cuts) == (None, 2)
        assert 5 <= err.sweeps < 10_000


class TestProjectionInequalities:
    @pytest.mark.parametrize("make_set", [
        lambda: NestedSet(base=Box(lo=[-1.0, -0.5, -2.0], hi=[1.0, 0.5, 2.0])),
        lambda: NestedSet(base=Ball(center=[0.2, -0.1, 0.0], radius=1.5)),
        lambda: random_cut_instance(np.random.default_rng(13), 3)[0],
    ])
    def test_firm_nonexpansiveness(self, make_set):
        nested = make_set()
        rng = np.random.default_rng(17)
        d = nested.dim
        for _ in range(200):
            x = rng.uniform(-2, 2, d)
            y = rng.uniform(-2, 2, d)
            px = project_nested(nested, x)
            py = project_nested(nested, y)
            inner = float((px - py) @ (x - y))
            assert inner >= float(np.sum((px - py) ** 2)) - 1e-10

    def test_pythagoras_bound(self):
        rng = np.random.default_rng(19)
        nested, _ = random_cut_instance(rng, 3)
        for _ in range(200):
            y = rng.uniform(-2, 2, 2)
            x = project_nested(nested, rng.uniform(-2, 2, 2))
            py = project_nested(nested, y)
            lhs = float(np.sum((x - py) ** 2) + np.sum((py - y) ** 2))
            assert lhs <= float(np.sum((x - y) ** 2)) + 1e-10


def test_as_vector_shapes():
    assert as_vector(1.5).shape == (1,)
    assert as_vector([1.0, 2.0]).shape == (2,)
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])
