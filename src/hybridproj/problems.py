"""Built-in problem families and preset wiring.

The reference benchmark ("section4") is a one-dimensional family on the
interval [-1, 1]: equilibrium members whose scalar profiles vanish left of a
threshold and grow like ``tan(x - threshold) - (x - threshold)`` to its
right, paired with zero operators, plus quadratic-drop mappings
``x -> x - c * x^2`` on [0, 1] that fix every nonpositive point. The common
solution set is the interval from -1 to the smallest threshold, so the
projection of the anchor 1 onto it is that threshold. The family ships with
closed-form chunk kernels, which keeps candidate generation vectorized at
millions of members.

The presets "cor1" .. "cor5" wire user-supplied parts into reduced schemes:
pure equilibrium members, variational-inequality members, the single-member
case, asymptotically nonexpansive mappings wrapped as asymptotic
pseudocontractions, and the exact-cut scheme without operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import Ball, BaseSet, Box, as_vector
from .operators import (
    ProblemFamily,
    PseudoContraction,
    ScalarMonotoneBifunction,
    ZeroBifunction,
    zero_operator,
)
from .solver import ParamSchedule, SolverConfig

__all__ = [
    "Section4Spec",
    "build_section4",
    "section4_bifunction",
    "section4_map",
    "preset",
    "IntervalSolution",
    "PointSolution",
    "default_schedule",
]

# Widest bracket on which tan(u) - u stays finite and nondecreasing
# (singularity at u = pi/2, approx 1.5708).
_TAN_BRACKET_SPAN = 1.5

# The parts each reduced-scheme preset takes; ``preset`` refuses any other.
PRESET_PARTS = {
    "cor1": ("bifunctions", "operators", "maps"),
    "cor2": ("operators", "maps"),
    "cor3": ("bifunctions", "operators", "maps"),
    "cor4": ("bifunctions", "operators", "maps"),
    "cor5": ("bifunctions", "maps"),
}


@dataclass(frozen=True)
class IntervalSolution:
    """Known solution set of a one-dimensional problem: ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo <= self.hi < math.inf:
            raise ValueError(f"interval solution needs finite lo <= hi, "
                             f"got [{self.lo!r}, {self.hi!r}]")

    def project(self, x0) -> np.ndarray:
        return np.array([min(max(float(as_vector(x0)[0]), self.lo), self.hi)])


@dataclass(frozen=True)
class PointSolution:
    """Known singleton solution set."""

    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vector(self.point))

    def project(self, x0) -> np.ndarray:
        return np.array(self.point)


class _LazyMembers(Sequence):
    """Sequence view constructing members on demand from an index factory.

    The solver evaluates a built-in family only through its kernels, so its
    member objects serve ``verify_family`` and tests alone. Building them
    eagerly took 3.8 s and 190 MB at 200k + 200k members (2-vCPU x86-64
    host), which extrapolates to about 47 s and 2.4 GB of set-up at the
    full scale of 2e6 + 3e6 members.
    """

    def __init__(self, count: int, factory):
        self._count = count
        self._factory = factory

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int):
        i = index + self._count if index < 0 else index
        if not 0 <= i < self._count:
            raise IndexError(index)
        return self._factory(i)


def section4_bifunction(xi: float) -> ScalarMonotoneBifunction:
    """Benchmark equilibrium member with threshold ``xi``.

    The profile is zero left of ``xi`` and ``tan(z - xi) - (z - xi)`` to the
    right. The bracket is capped at ``xi + 1.5`` to stay inside the branch
    where the profile is finite and nondecreasing; every resolvent value
    lands strictly inside the cap because ``arctan`` is bounded by pi/2.
    """

    def profile(z: float) -> float:
        u = z - xi
        if u < 0.0:
            return 0.0
        return math.tan(u) - u

    return ScalarMonotoneBifunction(
        profile=profile, lo=-1.0, hi=min(1.0, xi + _TAN_BRACKET_SPAN)
    )


def section4_map(c: float) -> PseudoContraction:
    """Benchmark mapping ``x -> x - c * x^2`` on [0, 1], identity below 0.

    For ``1 < c < 2`` it is strictly pseudocontractive but not nonexpansive.
    The declared constant ``1 - 1/c`` is tight: the complement ``x -> c*x^2``
    (zero below 0) has inverse-strong-monotonicity modulus exactly
    ``1/(2c)``, attained as both arguments approach 1.
    """
    if not 1.0 < c < 2.0:
        raise ValueError("quadratic-drop coefficient must lie in (1, 2)")

    def mapping(v: np.ndarray) -> float:
        # Float arithmetic, like the bifunction's profile: numpy calls on a
        # 1-element array cost about seven times as much. Grouped as
        # c * (x * x) to agree bitwise with the chunk kernel. A float, not
        # an array: S(x) converts it to a vector, and a member kernel
        # converts a whole block of results at once. One call reads the
        # coordinate and refuses a point of another size.
        try:
            x = v.item()
        except ValueError:
            raise ValueError("section4 map requires a 1-D problem") from None
        return x if x < 0.0 else x - c * (x * x)

    return PseudoContraction(map=mapping, kappa=1.0 - 1.0 / c)


# Error of np.arctan assumed by the resolvent block bound, in ulps of the
# exact value. It is an assumption, not a proof: numpy's SIMD and scalar
# loops were measured within 1 ulp of math.atan on [0, 2] (numpy 2.4,
# x86-64 with AVX-512), and tests/test_problems.py checks that they stay
# within ARCTAN_ULPS - 1 of it, math.atan being within 1 ulp of exact.
ARCTAN_ULPS = 4

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Section4Spec:
    """Sizes, derived constants and family hooks of the reference benchmark.

    Member constants are closed forms of the member index, so the family
    holds no array of them. Its kernels apply one row function per kind
    (``resolvents_at``, ``maps_at``) to a block, its bounds to a block's
    two end rows.
    """

    n_geps: int
    n_maps: int

    def __post_init__(self):
        for key in ("n_geps", "n_maps"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key!r}: must be an integer, got {value!r}")
        if self.n_geps < 1 or self.n_maps < 1:
            raise ValueError("benchmark needs at least one member of each kind")

    @property
    def thresholds(self) -> np.ndarray:
        """All ``N`` thresholds; the family itself never builds them.

        Strictly ascending; the closed-form resolvent kernel relies on it.
        """
        return self.thresholds_at(np.arange(self.n_geps))

    def thresholds_at(self, indices) -> np.ndarray:
        """Thresholds ``-1 + 2 (i + 1) / (N + 1)`` of members ``indices``, an
        index or an array of them.

        One ufunc after another, in place for an array. An entry depends on
        its index alone, so any set of indices gives the bits of the full
        array at those places.
        """
        t = np.add(indices, 1.0, dtype=np.float64)
        t *= 2.0
        t /= self.n_geps + 1
        t += -1.0
        return t

    def count_at_most(self, point: float) -> int:
        """How many thresholds are at most ``point``.

        Equal to ``np.searchsorted(thresholds, point, side="right")``: the
        closed-form count ``(point + 1) (N + 1) / 2``, which rounding can
        put one member off, is moved until threshold ``k - 1`` is at most
        ``point`` and threshold ``k`` is above it.
        """
        n = self.n_geps
        guess = (point + 1.0) * (n + 1) / 2.0
        # NaN sorts after every threshold, as in searchsorted.
        k = 0 if guess <= 0.0 else n if not guess < n else int(guess)
        while True:
            # Thresholds -1 and N are -1.0 and 1.0; the tests on k skip them.
            below, above = self.thresholds_at(np.arange(k - 1, k + 1))
            if k > 0 and below > point:
                k -= 1
            elif k < n and above <= point:
                k += 1
            else:
                return k

    @property
    def coefficients(self) -> np.ndarray:
        """All ``M`` coefficients; the family itself never builds them."""
        return self.coefficients_at(np.arange(self.n_maps))

    def coefficients_at(self, indices) -> np.ndarray:
        """Coefficients ``2 - (j + 1) / (M + 1)`` of members ``indices``, an
        index or an array of them.

        Built in place like the thresholds, with the same bits at any set of
        indices. Rounding is symmetric in sign, so dividing by ``-(M + 1)``
        and adding 2 gives the bits of the formula. The map kernel builds
        them per block rather than keep 24 MB alive at M = 3e6, as the
        resolvent kernel does with the 16 MB of thresholds.
        """
        c = np.add(indices, 1.0, dtype=np.float64)
        c /= -(self.n_maps + 1)
        c += 2.0
        return c

    @property
    def kappa(self) -> float:
        # Largest member constant 1 - 1/c at c = 2 - 1/(M+1).
        return self.n_maps / (2.0 * self.n_maps + 1.0)

    @property
    def reference(self) -> float:
        """Projection of the anchor 1 onto the solution interval."""
        return float(self.thresholds_at(0))

    def resolvents_at(self, indices, point: float) -> np.ndarray:
        """Rows ``xi + arctan(point - xi)`` of members that move ``point``."""
        xi = self.thresholds_at(indices)
        y = point - xi
        np.arctan(y, out=y)
        y += xi
        return y

    def maps_at(self, indices, point: float) -> np.ndarray:
        """Rows ``point - c * point^2`` of members that move ``point``."""
        s = self.coefficients_at(indices)
        s *= -point * point
        s += point
        return s

    def gep_kernel(self, lo: int, hi: int, r: float, x: np.ndarray) -> np.ndarray:
        if r != 1.0:
            raise ValueError("closed-form benchmark kernel requires unit step r=1")
        return self.resolvents_at(np.arange(lo, hi), float(x[0])).reshape(-1, 1)

    def gep_moved(self, r: float, x: np.ndarray) -> int:
        # Thresholds ascend, so the members that fix the point (xi > point)
        # form a suffix of the family.
        return self.count_at_most(float(x[0]))

    def gep_bound(self, lo: np.ndarray, hi: np.ndarray, r: float,
                  x: np.ndarray) -> np.ndarray:
        # Row i of a moved block is y_i = arctan(u_i) + xi_i with
        # u_i = x - xi_i in [0, 2], and in exact arithmetic
        # |y_i - x| = g(u_i) = u_i - arctan(u_i), which falls as i grows
        # (ascending thresholds). In floats, with eps = 2^-52 and an ulp of v
        # at most eps*|v|, the reduction's |t_i| = |fl(y_i) - x| is off
        # g(u_i) by at most
        #   eps/2 * u_i              rounding x - xi (arctan' <= 1),
        #   K * eps * arctan(u_i)    arctan, K = ARCTAN_ULPS,
        #   eps/2 * |y_i|            the += xi,
        #   eps/2 * |t_i|            the subtraction of x,
        # and u, arctan(u), |y|, |t| are all at most |x| + 1, so by
        # delta = (K + 2) * eps * (|x| + 1), with half an eps of slack for
        # second-order terms. Then every row of the block has
        # |t_i| <= g(u_i) + delta <= g(u_lo) + delta <= |t_lo| + 2 delta.
        # Squaring, the square root of the end row's float d2 and the
        # bound's own arithmetic round by under 4 eps relative in all; the
        # factor 1 + 8 eps covers them. The margin must be absolute: near
        # convergence g(u) ~ u^3 / 3 lies below one ulp of x, where the rows
        # are rounding noise and no relative margin on them holds.
        if r != 1.0:
            raise ValueError("closed-form benchmark kernel requires unit step r=1")
        point = float(x[0])
        ends = self.resolvents_at(np.stack((lo, hi - 1)), point)
        ends -= point
        np.square(ends, out=ends)
        reach = np.sqrt(ends.max(axis=0))
        reach += 2.0 * (ARCTAN_ULPS + 2) * _EPS * (abs(point) + 1.0)
        np.square(reach, out=reach)
        reach *= 1.0 + 8.0 * _EPS
        return reach

    def map_kernel(self, lo: int, hi: int, power: int, v: np.ndarray) -> np.ndarray:
        # Members are plain pseudocontractions: effective power is one.
        return self.maps_at(np.arange(lo, hi), float(v[0])).reshape(-1, 1)

    def map_moved(self, power: int, v: np.ndarray) -> int:
        # Every member fixes a negative point.
        return 0 if float(v[0]) < 0.0 else self.n_maps

    def map_bound(self, lo: np.ndarray, hi: np.ndarray, power: int, v: np.ndarray,
                  reference: np.ndarray) -> np.ndarray:
        # Exact: each step of the row function is monotone in j (c_j falls,
        # -p*p is not positive, and IEEE rounding is monotone), so the rows
        # and their differences to the reference are monotone, and a block's
        # largest squared distance sits at one of its end rows, which carry
        # the kernel's bits.
        s = self.maps_at(np.stack((lo, hi - 1)), float(v[0]))
        s -= float(reference[0])
        np.square(s, out=s)
        return s.max(axis=0)


def build_section4(n_geps: int, n_maps: int):
    """Construct the reference benchmark family at the given sizes.

    Returns ``(family, schedule, reference)`` where ``reference`` is the
    known limit of the solver started at the anchor 1. The schedule is
    ``default_schedule(family)``: averaging weights ``1/(n+2)``, the mapping
    relaxation ``kappa``, unit resolvent steps (every operator is zero) and
    ``omega = 1``, the norm bound of the base ``[-1, 1]``.
    """
    spec = Section4Spec(n_geps=n_geps, n_maps=n_maps)
    base = Box(lo=[-1.0], hi=[1.0])

    def gep_member(i: int):
        return (section4_bifunction(float(spec.thresholds_at(i))), zero_operator())

    def map_member(j: int):
        return section4_map(float(spec.coefficients_at(j)))

    family = ProblemFamily(
        base=base,
        geps=_LazyMembers(n_geps, gep_member),
        maps=_LazyMembers(n_maps, map_member),
        alpha=math.inf,
        kappa=spec.kappa,
        k_seq=lambda n: 1.0,
        gep_kernel=spec.gep_kernel,
        map_kernel=spec.map_kernel,
        known_solution=IntervalSolution(lo=-1.0, hi=spec.reference),
        gep_moved=spec.gep_moved,
        map_moved=spec.map_moved,
        gep_bound=spec.gep_bound,
        map_bound=spec.map_bound,
    )
    return family, default_schedule(family), spec.reference


def _norm_bound(base: BaseSet) -> float:
    if isinstance(base, Box):
        return float(np.linalg.norm(np.maximum(np.abs(base.lo), np.abs(base.hi))))
    if isinstance(base, Ball):
        return float(np.linalg.norm(base.center)) + base.radius
    raise ValueError("supply omega explicitly for custom base sets")


def default_schedule(family: ProblemFamily, *,
                     omega: float | None = None) -> ParamSchedule:
    """Admissible schedule derived from the family constants.

    Averaging weights are ``1/(n+2)``; the mapping relaxation is the family
    pseudocontraction constant; resolvent steps are the modulus (safely
    inside ``(0, 2 * modulus)``) or 1 when every operator is zero; ``omega``
    is the base set's norm bound unless given.
    """
    beta = family.kappa
    r = 1.0 if math.isinf(family.alpha) else family.alpha
    omega_v = _norm_bound(family.base) if omega is None else omega
    return ParamSchedule(
        alpha_fn=lambda n: 1.0 / (n + 2),
        beta_fn=lambda n: beta,
        r_fn=lambda n: r,
        omega=omega_v,
    )


def preset(name: str, *, base: BaseSet, bifunctions=(), operators=(), maps=(),
           known_solution=None, omega: float | None = None):
    """Wire user parts into one of the reduced schemes.

    Returns ``(family, config, schedule)``; the config is the default
    :class:`SolverConfig`. Preset names:

    - ``cor1``: equilibrium members (paired with zero operators) followed by
      variational-inequality members (zero bifunctions with the given
      operators), plus mappings.
    - ``cor2``: variational-inequality members only, plus mappings.
    - ``cor3``: a single bifunction, operator, and mapping.
    - ``cor4``: asymptotically nonexpansive mappings with constants
      ``k_n``, declared with zero pseudocontraction constant. Each becomes an
      asymptotic 0-strict pseudocontraction with the sequence ``k_n^2``
      (Kim & Xu, 2008), so the cut slack is ``(max_i k_i(n)^2 - 1)`` times
      ``(||x_n|| + omega)^2`` and the mapping relaxation is zero.
    - ``cor5``: equilibrium members and plain mappings. Its cuts are exact:
      plain mappings hold with ``k_n = 1``, where the slack vanishes.

    A part outside the preset's ``PRESET_PARTS`` entry is refused, not dropped.
    """
    if name == "section4":
        raise ValueError("use build_section4 for the benchmark preset")
    if name not in PRESET_PARTS:
        raise ValueError(f"unknown preset {name!r}")
    bifunctions, operators, maps = tuple(bifunctions), tuple(operators), tuple(maps)
    for part, given in (("bifunctions", bifunctions), ("operators", operators),
                        ("maps", maps)):
        if given and part not in PRESET_PARTS[name]:
            raise ValueError(f"{name} takes no {part}; its parts are "
                             f"{', '.join(PRESET_PARTS[name])}")

    if name == "cor1":
        geps = tuple((f, zero_operator()) for f in bifunctions) + tuple(
            (ZeroBifunction(), A) for A in operators
        )
    elif name == "cor2":
        geps = tuple((ZeroBifunction(), A) for A in operators)
    elif name == "cor3":
        if not (len(bifunctions) == 1 and len(operators) == 1 and len(maps) == 1):
            raise ValueError("cor3 takes exactly one bifunction, operator, and map")
        geps = tuple(zip(bifunctions, operators, strict=True))
    elif name == "cor4":
        if any(s.kappa != 0.0 for s in maps):
            raise ValueError(
                "cor4 expects asymptotically nonexpansive mappings declared "
                "with zero pseudocontraction constant"
            )
        # One wrapper per distinct sequence, so that the family evaluates a
        # shared sequence once per term.
        squared = {id(s.k_seq): _squared_sequence(s.k_seq) for s in maps}
        maps = tuple(replace(s, asymptotic=True, k_seq=squared[id(s.k_seq)])
                     for s in maps)
        if not operators:
            operators = tuple(zero_operator() for _ in bifunctions)
        geps = tuple(zip(bifunctions, operators, strict=True))
    else:  # cor5
        if any(s.asymptotic for s in maps):
            raise ValueError("cor5 takes plain pseudocontractions")
        geps = tuple((f, zero_operator()) for f in bifunctions)

    family = ProblemFamily.from_members(
        base, geps, maps, known_solution=known_solution
    )
    return family, SolverConfig(), default_schedule(family, omega=omega)


def _squared_sequence(k_seq):
    # k * |k| is k * k bit for bit when k >= 0 (k ** 2 is not always), and
    # keeps a declared k < 1 below 1 for the schedule check.
    def squared(n):
        k = k_seq(n)
        return k * abs(k)

    return squared
