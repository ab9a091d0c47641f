"""Problem operators: bifunction resolvents, inverse-strongly-monotone
operators, and (asymptotically) strictly pseudocontractive mappings.

A problem family bundles N bifunction/operator pairs and M mappings over one
base set, together with the shared constants the solver needs: the smallest
inverse-strong-monotonicity modulus, the largest pseudocontraction constant,
and the pointwise-largest asymptotic sequence. Every family carries a pair
of chunk kernels, the one interface through which the solver evaluates
members: large built-in families pass closed-form vectorized kernels, and
:meth:`ProblemFamily.from_members` builds kernels that evaluate member
objects one by one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .geometry import BaseSet, as_vector

__all__ = [
    "Bifunction",
    "ZeroBifunction",
    "ScalarMonotoneBifunction",
    "CustomBifunction",
    "IsmOperator",
    "zero_operator",
    "affine_operator",
    "PseudoContraction",
    "identity_map",
    "ProblemFamily",
    "resolvent",
    "resolvent_scalar",
    "apply_power",
    "verify_family",
    "MemberCheck",
    "FamilyReport",
    "InvalidModelError",
    "ResolventFailure",
    "gep_chunk_evaluator",
    "map_chunk_evaluator",
]

# Root-finding steps allowed per scalar resolvent. The safeguard in
# resolvent_scalar halves the bracket at least once every three steps, so
# this matches a budget of 200 plain bisection halvings.
MAX_STEPS = 3 * 200
# Bracket width at which a scalar resolvent stops narrowing.
_TOL = 1e-12


class InvalidModelError(ValueError):
    """A declared model property fails on observed data, e.g. a bifunction
    whose scalar profile is not nondecreasing on its interval."""


class ResolventFailure(RuntimeError):
    """Scalar root finding failed; carries the final bracket state."""

    def __init__(self, message: str, bracket: tuple[float, float, float, float]):
        super().__init__(message)
        self.bracket = bracket


class Bifunction:
    """Equilibrium bifunction presented through its resolvent.

    ``resolve(r, w, base)`` returns ``T_r(w)``, all the method asks of it.
    A concrete variant declares that the usual equilibrium conditions hold
    (vanishing diagonal, monotonicity, upper hemicontinuity in the first
    argument, convex lower-semicontinuous second argument). Only the scalar
    variant is audited at runtime; see :func:`verify_family`.
    """

    def resolve(self, r: float, w: np.ndarray, base: BaseSet) -> np.ndarray:
        raise NotImplementedError


class ZeroBifunction(Bifunction):
    """The identically zero bifunction; its resolvent is the base projection."""

    def resolve(self, r: float, w: np.ndarray, base: BaseSet) -> np.ndarray:
        return base.project(w)


@dataclass(frozen=True)
class ScalarMonotoneBifunction(Bifunction):
    """One-dimensional bifunction ``f(x, y) = profile(x) * (y - x)`` with a
    nondecreasing profile on ``[lo, hi]``.

    The interval is both the root bracket and the clamp region of the
    resolvent; it may be narrower than the base set when the profile is only
    finite and nondecreasing on part of it, as long as every resolvent value
    stays interior to the bracket. The profile must be a deterministic
    function of its argument: a member kernel of
    :meth:`ProblemFamily.from_members` keeps ``profile(lo)`` and
    ``profile(hi)`` from its first evaluation of the member.
    """

    profile: Callable[[float], float]
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("bifunction interval requires lo < hi")

    def resolve(self, r: float, w: np.ndarray, base: BaseSet) -> np.ndarray:
        if w.size != 1:
            raise ValueError("scalar bifunction requires a 1-D problem")
        z = resolvent_scalar(self.profile, r, float(w[0]), self.lo, self.hi)
        return np.array([z])


@dataclass(frozen=True)
class CustomBifunction(Bifunction):
    """Bifunction given directly by a resolvent oracle ``(r, w) -> point``.

    The oracle must be single-valued, firmly nonexpansive, and reentrant;
    these properties are trusted, not audited.
    """

    oracle: Callable[[float, np.ndarray], np.ndarray]

    def resolve(self, r: float, w: np.ndarray, base: BaseSet) -> np.ndarray:
        return as_vector(self.oracle(r, w))


@dataclass(frozen=True)
class IsmOperator:
    """Operator with an inverse-strong-monotonicity modulus.

    ``<A(x) - A(y), x - y> >= alpha * ||A(x) - A(y)||^2`` must hold on the
    base set; it implies ``A`` is ``1/alpha``-Lipschitz. A constant operator
    may declare ``alpha = inf``.
    """

    map: Callable[[np.ndarray], np.ndarray]
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("inverse-strong-monotonicity modulus must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.map(x), dtype=np.float64)


def zero_operator() -> IsmOperator:
    """The zero operator; any modulus works, so it declares infinity."""
    return IsmOperator(map=np.zeros_like, alpha=math.inf)


def affine_operator(gain: float, root) -> IsmOperator:
    """Operator ``x -> gain * (x - root)`` with its exact modulus ``1/gain``."""
    if not gain > 0:
        raise ValueError("affine operator requires a positive gain")
    root_v = as_vector(root)
    return IsmOperator(map=lambda x: gain * (x - root_v), alpha=1.0 / gain)


@dataclass(frozen=True)
class PseudoContraction:
    """Self-map of the base set with a strict-pseudocontraction constant.

    For ``asymptotic`` maps the inequality
    ``||S^n x - S^n y||^2 <= k_n ||x - y||^2 + kappa ||(I-S^n)x - (I-S^n)y||^2``
    must hold for every power ``n >= 1`` with ``k_n -> 1``; plain maps
    satisfy it for ``n = 1`` with ``k = 1`` and are always applied at power
    one by the solver. The map must be a deterministic function of its
    argument: a power stops at the first application that returns its input
    bit for bit, since every further application would return it again.
    """

    map: Callable[[np.ndarray], np.ndarray]
    kappa: float
    asymptotic: bool = False
    k_seq: Callable[[int], float] = lambda n: 1.0

    def __post_init__(self):
        if not (0.0 <= self.kappa < 1.0):
            raise ValueError("pseudocontraction constant must lie in [0, 1)")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.map(x), dtype=np.float64)


def identity_map() -> PseudoContraction:
    return PseudoContraction(map=lambda x: np.array(x, dtype=np.float64), kappa=0.0)


# Chunk kernel contracts; every family carries one kernel of each kind:
#   gep kernel: (lo, hi, r, x) -> resolvent candidates, shape (hi - lo, d)
#   map kernel: (lo, hi, nominal_power, point) -> mapped points, shape (hi - lo, d);
# a map kernel applies each member at its effective power (plain members
# always 1). Returned arrays are new and owned by the caller. Each kernel
# may have a moved-prefix reporter taking the same arguments without lo and hi:
# it returns a k such that every member from k on leaves its input
# unchanged (T_r(x - r A x) = x for a gep member, S_j(point) = point for a
# mapping), and the kernel is called only for members below k.
GepKernel = Callable[[int, int, float, np.ndarray], np.ndarray]
MapKernel = Callable[[int, int, int, np.ndarray], np.ndarray]
# Block bound hooks: (lo, hi, r, x) and (lo, hi, power, point, reference),
# with lo and hi the block start and stop arrays; see ProblemFamily.
GepBound = Callable[[np.ndarray, np.ndarray, float, np.ndarray], np.ndarray]
MapBound = Callable[[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemFamily:
    """The data of one common-solution problem.

    Fields ``alpha``, ``kappa`` and ``k_seq`` are the family-wide reductions
    (min modulus, max constant, pointwise max sequence over the asymptotic
    mappings). ``gep_kernel`` and ``map_kernel`` evaluate chunks of members;
    ``gep_moved`` and ``map_moved`` report their moved prefixes; left unset
    (``None``), they count every member as moved. Use :meth:`from_members`
    to compute all of these from member objects; builders of very large
    families pass exact analytic values and closed-form kernels instead, so
    that members never need to be materialized.

    The optional hooks ``gep_bound(lo, hi, r, x)`` and
    ``map_bound(lo, hi, power, point, reference)`` take the start and stop
    arrays of the blocks of a moved prefix and return one float per block:
    an upper bound on the *float* squared distance, as the reduction
    computes it from the kernel's rows, of every row of the block to the
    phase's reference point (``x`` for the resolvent phase). A bound that
    falls one rounding short can drop the winner, so a bound must cover the
    kernel's rounding. The reduction skips a block whose bound is strictly
    below the best distance found; a family without hooks has every block
    evaluated.
    """

    base: BaseSet
    geps: Sequence[tuple[Bifunction, IsmOperator]]
    maps: Sequence[PseudoContraction]
    alpha: float
    kappa: float
    k_seq: Callable[[int], float]
    gep_kernel: GepKernel
    map_kernel: MapKernel
    known_solution: Any = None
    gep_moved: Callable[[float, np.ndarray], int] | None = None
    map_moved: Callable[[int, np.ndarray], int] | None = None
    gep_bound: GepBound | None = None
    map_bound: MapBound | None = None

    def __post_init__(self):
        if len(self.geps) == 0 and len(self.maps) == 0:
            raise ValueError("a problem family needs at least one member")
        if not self.alpha > 0:
            raise ValueError("family modulus must be positive")
        if not (0.0 <= self.kappa < 1.0):
            raise ValueError("family pseudocontraction constant must lie in [0, 1)")

    @property
    def n_geps(self) -> int:
        return len(self.geps)

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @classmethod
    def from_members(
        cls,
        base: BaseSet,
        geps: Sequence[tuple[Bifunction, IsmOperator]],
        maps: Sequence[PseudoContraction],
        **kwargs,
    ) -> "ProblemFamily":
        """Family over explicit member objects.

        The kernels evaluate the members one by one: :func:`resolvent` per
        pair, :func:`apply_power` at the nominal power per asymptotic
        mapping, and one call per plain mapping. In one dimension a
        :class:`ScalarMonotoneBifunction` paired with a zero operator is
        solved by :func:`resolvent_scalar` on the float coordinate, the
        call its ``resolve`` makes. Every member gets its own copy of the
        evaluation point (a plain mapping gets its own row of one copy made
        per block), so a member that writes to its argument reaches neither
        the caller nor the next member. The results of a block are
        converted to float64 together, after its last member has run, so a
        member must not write later to an array it has returned. A result
        that is not ``d`` values raises ``ValueError``.

        Profiles and maps must be deterministic functions of their
        argument, for the kernels reuse what they once computed. Each pair
        and map is classified once, here. A scalar pair keeps
        ``profile(lo)`` and ``profile(hi)`` from its first evaluation, so
        later calls evaluate only ``profile(x)`` for a member that fixes
        ``x`` and send a member that moves it to the root finder of
        :func:`resolvent_scalar`, with the same bits as that call. The ends
        are stored together, once both calls have returned, so a profile
        that raises leaves nothing stored, and a NaN end raises on every
        call. An asymptotic power stops at a bitwise fixed point, as
        :func:`apply_power` does.
        """
        geps = tuple(geps)
        maps = tuple(maps)
        alpha = min((op.alpha for _, op in geps), default=math.inf)
        kappa = max((s.kappa for s in maps), default=0.0)
        # Plain mappings hold at k = 1 whatever sequence they declare. Maps
        # that share a sequence object share its terms, so each distinct
        # one (by identity: a sequence need not be hashable) is evaluated
        # once per term.
        sequences = tuple({id(s.k_seq): s.k_seq for s in maps if s.asymptotic}.values())
        if sequences:
            k_seq = lambda n: max(k(n) for k in sequences)  # noqa: E731
        else:
            k_seq = lambda n: 1.0  # noqa: E731

        # Each pair and map is classified once. A scalar pair (the exact
        # ScalarMonotoneBifunction type, so that a subclass that overrides
        # resolve keeps its own path, behind a zero operator) holds
        # (profile, lo, hi, profile(lo), profile(hi)), its end values None
        # until its first evaluation; every other pair holds None. A plain
        # map holds its callable, an asymptotic one None.
        scalars = [
            (f.profile, f.lo, f.hi, None, None)
            if type(f) is ScalarMonotoneBifunction and A.map is np.zeros_like
            else None
            for f, A in geps
        ]
        plain = [None if s.asymptotic else s.map for s in maps]

        # The checks, the conversion of the evaluation point and the
        # conversion of the results run once per chunk; the loops call the
        # cores behind resolvent, resolvent_scalar and apply_power, and call
        # a plain map once, without the power loop.
        def gep_kernel(lo: int, hi: int, r: float, x: np.ndarray) -> np.ndarray:
            _check_step(r)
            xv = as_vector(x)
            # In one dimension, at a finite step, a scalar pair gets the root
            # its resolve finds, on the float coordinate.
            scalar = xv.size == 1 and r < math.inf
            x0 = float(xv[0])
            rows = []
            for i in range(lo, hi):
                member = scalars[i]
                if member is None or not scalar:
                    f, A = geps[i]
                    rows.append(_resolve(f, A, r, xv, base))
                    continue
                profile, a, b, p_a, p_b = member
                if p_a is None:
                    # One store of the whole entry, after both calls
                    # returned: a profile that raises stores nothing, and a
                    # reader sees both ends or neither. Within a solve only
                    # the thread whose block holds member i writes it.
                    p_a = profile(a)
                    p_b = profile(b)
                    scalars[i] = (profile, a, b, p_a, p_b)
                # g(a) and g(b) with the bits resolvent_scalar computes.
                g_a = r * p_a + a - x0
                g_b = r * p_b + b - x0
                g_x = None
                if g_a < 0.0 < g_b and a < x0 < b:
                    # Past every end check: a member that fixes x costs one
                    # profile call; a NaN g(x) raises in the core.
                    g_x = r * profile(x0) + x0 - x0
                    if g_x == 0.0:
                        rows.append(x0)
                        continue
                rows.append(_scalar_root(profile, r, x0, a, b, g_a, g_b, _TOL, g_x))
            return _block(rows, xv.size, "equilibrium", lo)

        def map_kernel(
            lo: int, hi: int, nominal_power: int, point: np.ndarray
        ) -> np.ndarray:
            _check_power(nominal_power)
            nominal_power = int(nominal_power)
            pv = as_vector(point)
            calls = plain[lo:hi]
            # One copy of the point for the whole block: each plain member
            # gets its own row of it.
            rows = np.tile(pv, (len(calls), 1))
            results = [
                _power(s, nominal_power, pv) if call is None else call(row)
                for s, call, row in zip(maps[lo:hi], calls, rows)
            ]
            return _block(results, pv.size, "map", lo)

        return cls(
            base=base, geps=geps, maps=maps,
            alpha=alpha, kappa=kappa, k_seq=k_seq,
            gep_kernel=gep_kernel, map_kernel=map_kernel, **kwargs,
        )


def _block(results: list, d: int, kind: str, lo: int) -> np.ndarray:
    """Member results ``lo..`` as one ``(len(results), d)`` float64 array.

    One conversion serves the whole block. Rows that are lists or tuples of
    ``d`` items, such as the one-element lists section4's mappings return,
    are read in one flat pass; other rows (floats, arrays) go through one
    array call. Results of mixed shapes (a float next to a 1-element array)
    take a conversion per row. A result that does not hold ``d`` values, or
    does not convert at all, raises ``ValueError`` naming its member; it is
    never broadcast across the row.
    """
    n = len(results)
    try:
        if n and isinstance(results[0], (list, tuple)) and set(map(len, results)) == {d}:
            # With d items in every row, the flat pass yields n * d values;
            # an item that is not one value raises.
            flat = itertools.chain.from_iterable(results)
            block = np.fromiter(flat, np.float64, count=n * d)
        else:
            block = np.array(results, dtype=np.float64)
    except (TypeError, ValueError):  # rows without a length, or of unequal shapes
        block = None
    if block is not None and block.size == n * d:
        return block.reshape(n, d)
    block = np.empty((n, d))
    for i, value in enumerate(results):
        try:
            row = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as err:  # a ragged or non-numeric result
            raise ValueError(f"{kind} member {lo + i} returned {value!r}: {err}") from err
        if row.size != d:
            raise ValueError(f"{kind} member {lo + i} returned {row.size} values "
                             f"for a point with {d} coordinates")
        block[i] = row.reshape(d)
    return block


def _check_step(r: float) -> None:
    if not r > 0:
        raise ValueError("resolvent step size must be positive")


def _resolve(f: Bifunction, A: IsmOperator, r: float, xv: np.ndarray,
             base: BaseSet) -> np.ndarray:
    # The forward step of a zero operator is a copy: for finite xv and r,
    # xv - r * 0 has the same bits as xv. The operator and the bifunction
    # each see a fresh array, so a member that writes to its input cannot
    # reach the caller or the next member.
    if A.map is np.zeros_like and r < math.inf:
        return f.resolve(r, xv.copy(), base)
    return f.resolve(r, xv - r * A(xv.copy()), base)


def resolvent(f: Bifunction, A: IsmOperator, r: float, x, base: BaseSet) -> np.ndarray:
    """Resolvent step ``T_r(x - r * A(x))`` of one bifunction/operator pair.

    With the zero bifunction this reduces to the base projection of the
    forward step; with a zero operator it is the pure equilibrium resolvent.
    A zero operator (``map`` is ``np.zeros_like``, as :func:`zero_operator`
    builds it) skips the forward-step arithmetic and hands the bifunction a
    copy of ``x``; the result is the same bits, and never ``x`` itself. The
    bifunction sets the accuracy (a scalar one: :func:`resolvent_scalar`'s).
    """
    _check_step(r)
    return _resolve(f, A, r, as_vector(x), base)


def resolvent_scalar(
    profile: Callable[[float], float],
    r: float,
    x: float,
    lo: float,
    hi: float,
    tol: float = _TOL,
) -> float:
    """Solve ``r * profile(z) + z = x`` on ``[lo, hi]`` by safeguarded
    Illinois root finding.

    ``profile`` must be nondecreasing on the interval, which makes
    ``g(z) = r * profile(z) + z - x`` strictly increasing. When the root
    bracket ``g(lo) <= 0 <= g(hi)`` fails, the complementarity conditions at
    the interval endpoints apply: the solution clamps to ``lo`` when
    ``g(lo) > 0`` and to ``hi`` when ``g(hi) < 0``. Otherwise, for ``x``
    strictly inside the interval, ``g(x)`` either returns ``x`` exactly
    (when it is zero) or makes ``x`` the bracket end of its sign. The
    bracket then narrows until its width is at most ``tol``, and its
    midpoint is returned. Each step takes the secant point of the bracket,
    with the Illinois modification (Dowell & Jarratt, 1971): the ``g``
    value of an endpoint kept by two secant steps in a row is halved. A
    bisection step replaces the secant step whenever the bracket has not
    halved over the last two steps or the secant point is not strictly
    inside it, so the bracket halves at least once every three steps,
    whatever the profile. A step that lands at ``m`` with
    ``|g(m)| <= tol / 2`` is followed by one closing probe at
    ``m - g(m)`` (the adjacent double when that rounds to ``m``), in the
    manner of Brent's tolerance step: since ``g`` rises with slope at
    least 1, the root lies between the two points and the probe usually
    closes the bracket. Like every evaluation, the probe moves the bracket
    only to the side its sign shows, so a profile that breaks the slope
    bound costs calls, never the bracket. Every call evaluates both ends,
    ``profile(lo)`` and then ``profile(hi)``, before the first check.

    Raises:
        InvalidModelError: endpoint signs are decreasing, contradicting the
            declared monotonicity.
        ResolventFailure: ``g`` was NaN at a point (the first one, ``lo``
            before ``hi``, is named) or the step budget ran out.
    """
    if not r > 0:
        raise ValueError("resolvent step size must be positive")
    if not lo < hi:
        raise ValueError("bracket requires lo < hi")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    return _scalar_root(profile, r, x, lo, hi,
                        r * profile(lo) + lo - x, r * profile(hi) + hi - x, tol)


def _nan_failure(z: float, lo: float, hi: float) -> ResolventFailure:
    return ResolventFailure(f"profile produced NaN at z={z!r}", (lo, hi, math.nan, math.nan))


def _scalar_root(
    profile: Callable[[float], float],
    r: float,
    x: float,
    lo: float,
    hi: float,
    g_lo: float,
    g_hi: float,
    tol: float,
    g_x: float | None = None,
) -> float:
    """:func:`resolvent_scalar` past its argument checks, given
    ``g(lo)`` and ``g(hi)`` (and ``g(x)``, when the caller has it), with
    ``g(z) = r * profile(z) + z - x`` evaluated inline."""
    # A NaN test is value != value: no other float differs from itself.
    if g_lo != g_lo:
        raise _nan_failure(lo, lo, hi)
    if g_hi != g_hi:
        raise _nan_failure(hi, lo, hi)
    if g_lo > 0.0 and g_hi < 0.0:
        raise InvalidModelError(
            "endpoint values decrease across the bracket "
            f"(g({lo})={g_lo:.3e}, g({hi})={g_hi:.3e}); profile is not nondecreasing"
        )
    if g_lo >= 0.0:
        return lo
    if g_hi <= 0.0:
        return hi
    a, b, g_a, g_b = lo, hi, g_lo, g_hi
    # g(x) decides the exact-fixed-point shortcut (when the profile vanishes
    # at x, the root is x itself and is returned without root-finding
    # error); otherwise x replaces the bracket end of its sign.
    if lo < x < hi:
        if g_x is None:
            g_x = r * profile(x) + x - x
        if g_x != g_x:
            raise _nan_failure(x, lo, hi)
        if g_x == 0.0:
            return x
        if g_x < 0.0:
            a, g_a = x, g_x
        else:
            b, g_b = x, g_x
    # g_a < 0 < g_b throughout; the Illinois rule may halve either value.
    last_moved_a = None  # which endpoint the last secant step replaced
    width_2 = width_1 = math.inf  # bracket widths two and one steps ago
    close = 0.5 * tol
    for _ in range(MAX_STEPS):
        width = b - a
        if width <= tol:
            return 0.5 * (a + b)
        m = a - g_a * (width / (g_b - g_a))
        secant = a < m < b and width <= 0.5 * width_2
        if not secant:
            m = 0.5 * (a + b)
        width_2, width_1 = width_1, width
        g_m = r * profile(m) + m - x
        if g_m != g_m:
            raise _nan_failure(m, lo, hi)
        if g_m == 0.0:
            return m
        moved_a = g_m < 0.0
        if moved_a:
            a, g_a = m, g_m
        else:
            b, g_b = m, g_m
        # Bisection steps leave the Illinois streak alone: they would
        # otherwise reset it every third step on a one-sided approach.
        if secant:
            if moved_a == last_moved_a:
                if moved_a:
                    g_b *= 0.5
                else:
                    g_a *= 0.5
            last_moved_a = moved_a
        if -close <= g_m <= close:
            # Closing probe: with slope at least 1 the root lies between m
            # and m - g(m); the bracket follows the probe's sign, not the bound.
            p = m - g_m
            if p == m:
                p = math.nextafter(m, b if moved_a else a)
            if a < p < b:
                g_p = r * profile(p) + p - x
                if g_p != g_p:
                    raise _nan_failure(p, lo, hi)
                if g_p == 0.0:
                    return p
                if g_p < 0.0:
                    a, g_a = p, g_p
                else:
                    b, g_b = p, g_p

    def g(z: float) -> float:
        value = r * profile(z) + z - x
        if value != value:
            raise _nan_failure(z, lo, hi)
        return value

    raise ResolventFailure(
        f"bracket width {b - a:.3e} still above tol={tol:.1e} "
        f"after {MAX_STEPS} steps",
        (a, b, g(a), g(b)),
    )


def _check_power(n: int) -> None:
    if n < 0 or n != int(n):
        raise ValueError("power must be a nonnegative integer")


def _power(S: PseudoContraction, n: int, point: np.ndarray) -> np.ndarray:
    # The first application gets a copy: a map that writes to its argument
    # must not reach the caller's point. Once an application returns its
    # input bit for bit, every further power of a deterministic map is that
    # same point. The input's bytes are taken before the call, since a map
    # may write to its argument, and bytes tell -0.0 from 0.0.
    point = point.copy()
    bits = point.tobytes()
    for _ in range(n):
        shape = point.shape
        point = S(point)
        before, bits = bits, point.tobytes()
        if bits == before and point.shape == shape:
            break
    return point


def apply_power(S: PseudoContraction, n: int, x) -> np.ndarray:
    """Apply a mapping ``n`` times; ``n = 0`` is the identity.

    The result is never ``x`` itself, and ``x`` is left as it was even when
    the map writes to its argument. The loop stops at the first application
    that returns its input bit for bit; for a deterministic map the result
    is the full loop's.
    """
    _check_power(n)
    return _power(S, int(n), as_vector(x))


def gep_chunk_evaluator(family: ProblemFamily, r: float, x: np.ndarray):
    """Chunk evaluator producing resolvent candidates for members lo..hi."""
    kernel = family.gep_kernel
    return lambda lo, hi: kernel(lo, hi, r, x)


def map_chunk_evaluator(family: ProblemFamily, nominal_power: int, point: np.ndarray):
    """Chunk evaluator applying each mapping at its effective power.

    Asymptotic members run at ``nominal_power``; plain members always run at
    power one.
    """
    kernel = family.map_kernel
    return lambda lo, hi: kernel(lo, hi, nominal_power, point)


@dataclass(frozen=True)
class MemberCheck:
    """Audit result for one family member."""

    kind: str  # "operator", "map", or "bifunction"
    index: int
    passed: bool
    worst_slack: float
    detail: str = ""


@dataclass(frozen=True)
class FamilyReport:
    entries: tuple[MemberCheck, ...]
    # Members audited, and members in the family (operators and maps).
    members_checked: int
    members_total: int

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[MemberCheck]:
        return [e for e in self.entries if not e.passed]


def _ism_slack(A: IsmOperator, x: np.ndarray, y: np.ndarray) -> float:
    # Each call gets a copy: the sample points are shared by every member.
    ax, ay = A(x.copy()), A(y.copy())
    gap2 = float(np.sum((ax - ay) ** 2))
    lhs = float((ax - ay) @ (x - y))
    rhs = 0.0 if gap2 == 0.0 else A.alpha * gap2
    return lhs - rhs


def _pseudocontraction_slack(
    S: PseudoContraction, power: int, x: np.ndarray, y: np.ndarray
) -> float:
    sx = apply_power(S, power, x)
    sy = apply_power(S, power, y)
    k = S.k_seq(power) if S.asymptotic else 1.0
    lhs = float(np.sum((sx - sy) ** 2))
    rhs = k * float(np.sum((x - y) ** 2)) + S.kappa * float(
        np.sum(((x - sx) - (y - sy)) ** 2)
    )
    return rhs - lhs


# Members audited per kind. A built-in family builds its member objects on
# demand and can hold millions of them. One section4 member takes about
# 8 ms on the default 200 sample pairs, so the 5e6 members of the full
# scale would take about 11 hours, and 256 per kind take about 4.5 s
# (2-vCPU x86-64 host).
AUDIT_MEMBERS_PER_KIND = 256
# Largest negative slack an audited inequality may show: rounding, not a breach.
AUDIT_SLACK_TOL = 1e-9


def _audit_indices(count: int) -> range | list[int]:
    """Indices of the members of one kind that ``verify_family`` audits.

    All of them up to ``AUDIT_MEMBERS_PER_KIND``; beyond it, that many
    evenly spaced ones, the first and the last always included.
    """
    cap = AUDIT_MEMBERS_PER_KIND
    if count <= cap:
        return range(count)
    return [k * (count - 1) // (cap - 1) for k in range(cap)]


def verify_family(
    problem: ProblemFamily,
    samples: int = 200,
    rng_seed: int = 0,
) -> FamilyReport:
    """Audit declared member properties on random point pairs.

    Checks, for each operator, the inverse-strong-monotonicity inequality;
    for each mapping, the strict-pseudocontraction inequality (asymptotic
    members at powers 1..3 with their sequence, plain members at power one)
    plus base-set self-mapping; and for each scalar bifunction, that its
    profile is nondecreasing on sampled pairs. A kind with more than
    ``AUDIT_MEMBERS_PER_KIND`` members is audited on the members
    ``_audit_indices`` picks. Failures are report entries, never exceptions;
    ``worst_slack`` is the most negative slack observed (nonnegative means
    the inequality held on every sample).
    """
    if samples < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(rng_seed)
    pairs = [
        (problem.base.sample(rng), problem.base.sample(rng)) for _ in range(samples)
    ]
    entries: list[MemberCheck] = []
    gep_indices = _audit_indices(problem.n_geps)
    map_indices = _audit_indices(problem.n_maps)

    for i in gep_indices:
        f, A = problem.geps[i]
        worst = min(_ism_slack(A, x, y) for x, y in pairs)
        entries.append(
            MemberCheck(
                kind="operator",
                index=i,
                passed=worst >= -AUDIT_SLACK_TOL,
                worst_slack=worst,
                detail=f"modulus {A.alpha:g}",
            )
        )
        if isinstance(f, ScalarMonotoneBifunction):
            span = f.hi - f.lo
            pts = f.lo + span * rng.random((samples, 2))
            worst_mono = min(
                (f.profile(float(a)) - f.profile(float(b))) * (float(a) - float(b))
                for a, b in pts
            )
            entries.append(
                MemberCheck(
                    kind="bifunction",
                    index=i,
                    passed=worst_mono >= -AUDIT_SLACK_TOL,
                    worst_slack=worst_mono,
                    detail="profile monotonicity",
                )
            )

    for j in map_indices:
        S = problem.maps[j]
        powers = (1, 2, 3) if S.asymptotic else (1,)
        worst = min(
            _pseudocontraction_slack(S, p, x, y) for p in powers for x, y in pairs
        )
        mapped = [S(x.copy()) for x, _ in pairs]
        range_gap = max(
            float(np.linalg.norm(sx - problem.base.project(sx))) for sx in mapped
        )
        in_range = range_gap <= AUDIT_SLACK_TOL
        entries.append(
            MemberCheck(
                kind="map",
                index=j,
                passed=(worst >= -AUDIT_SLACK_TOL) and in_range,
                worst_slack=worst,
                detail=f"kappa {S.kappa:g}"
                + ("" if in_range else f"; leaves base set by {range_gap:.3e}"),
            )
        )

    return FamilyReport(
        entries=tuple(entries),
        members_checked=len(gep_indices) + len(map_indices),
        members_total=problem.n_geps + problem.n_maps,
    )
