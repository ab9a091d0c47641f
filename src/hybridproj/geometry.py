"""Convex geometry: base sets with exact projections, halfspace cuts, and
projection onto a base set intersected with accumulated halfspaces.

The ambient space is R^d with dense float64 coordinate vectors. A
:class:`NestedSet` models the shrinking outer approximations built by the
solver: a fixed base set plus an append-only list of halfspace cuts, one per
iteration. Projection onto the intersection uses Dykstra's alternating
projection scheme, which only needs the exact single-set projections.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "as_vector",
    "BaseSet",
    "Box",
    "Ball",
    "CustomSet",
    "Halfspace",
    "NestedSet",
    "halfspace_from_iterate",
    "project_nested",
    "contains",
    "ProjectionFailure",
    "InfeasibleSetError",
]

DEFAULT_CONTAINS_TOL = 1e-9
DEFAULT_PROJECTION_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 10_000


class _ProjectionError(RuntimeError):
    """A projection onto a nested set that failed. Carries the number of
    cuts in the set, the sweeps run and, inside the solver, the iteration
    that projected (None outside it)."""

    def __init__(self, message: str, *, iteration: int | None = None,
                 cuts: int | None = None, sweeps: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.cuts = cuts
        self.sweeps = sweeps


class ProjectionFailure(_ProjectionError):
    """Projection sweep budget exhausted before reaching tolerance.

    Also carries the best iterate found so far and the last sweep
    displacement.
    """

    def __init__(self, message: str, best: np.ndarray, residual: float, *,
                 iteration: int | None = None, cuts: int | None = None,
                 sweeps: int | None = None):
        super().__init__(message, iteration=iteration, cuts=cuts, sweeps=sweeps)
        self.best = best
        self.residual = residual


class InfeasibleSetError(_ProjectionError):
    """The alternating projections stalled on a cycle that never becomes
    feasible, which is the heuristic certificate for an empty intersection."""


def as_vector(x) -> np.ndarray:
    """Coerce array-like input to a finite 1-D float64 vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("vector must have at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class BaseSet(ABC):
    """A nonempty closed convex subset of R^d with an exact projection."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Ambient dimension."""

    @abstractmethod
    def project(self, p: np.ndarray) -> np.ndarray:
        """Metric projection of ``p`` onto the set."""

    @abstractmethod
    def contains(self, p: np.ndarray, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
        """Membership within an absolute tolerance."""

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a point of the set; default projects a standard normal draw."""
        return self.project(rng.standard_normal(self.dim))


@dataclass(frozen=True)
class Box(BaseSet):
    """Axis-aligned box ``{v : lo <= v <= hi}`` (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vector(self.lo))
        object.__setattr__(self, "hi", as_vector(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must share a shape")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.size

    def project(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, self.lo, self.hi)

    def contains(self, p: np.ndarray, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
        return bool(np.all(p >= self.lo - tol) and np.all(p <= self.hi + tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class Ball(BaseSet):
    """Closed Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.size

    def project(self, p: np.ndarray) -> np.ndarray:
        gap = p - self.center
        dist = float(np.linalg.norm(gap))
        if dist <= self.radius:
            return np.array(p, dtype=np.float64)
        return self.center + gap * (self.radius / dist)

    def contains(self, p: np.ndarray, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
        return float(np.linalg.norm(p - self.center)) <= self.radius + tol

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        direction = rng.standard_normal(self.dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            return np.array(self.center)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + direction * (r / norm)


@dataclass(frozen=True)
class CustomSet(BaseSet):
    """Closed convex set given by a user projection oracle.

    The oracle must be an exact metric projection; a point is a member when
    the oracle fixes it, within ``tol``.
    """

    projection: Callable[[np.ndarray], np.ndarray]
    dimension: int

    @property
    def dim(self) -> int:
        return self.dimension

    def project(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.projection(p), dtype=np.float64)

    def contains(self, p: np.ndarray, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
        return float(np.linalg.norm(p - self.project(p))) <= tol


@dataclass(frozen=True)
class Halfspace:
    """One linear constraint ``{v : <normal, v> <= offset}``.

    A zero normal denotes the whole space and is legal only with a
    nonnegative offset (the degenerate cut produced when an iterate and its
    candidate coincide).
    """

    normal: np.ndarray
    offset: float
    # Derived once from ``normal``: a projection reads them every sweep.
    _degenerate: bool = field(init=False, repr=False, compare=False)
    _norm2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        if n.ndim != 1 or not np.all(np.isfinite(n)):
            raise ValueError("halfspace normal must be a finite 1-D vector")
        if not np.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "_degenerate", not np.any(n))
        object.__setattr__(self, "_norm2", float(n @ n))
        if self._degenerate and self.offset < 0:
            raise ValueError("zero normal requires a nonnegative offset")

    @property
    def is_degenerate(self) -> bool:
        return self._degenerate

    def value(self, v: np.ndarray) -> float:
        """Signed constraint value ``<normal, v> - offset`` (<= 0 inside)."""
        return float(self.normal @ v - self.offset)

    def contains(self, v: np.ndarray, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
        return self.value(v) <= tol

    def project(self, p: np.ndarray) -> np.ndarray:
        if self._degenerate:
            return np.array(p, dtype=np.float64)
        excess = self.value(p)
        if excess <= 0.0:
            return np.array(p, dtype=np.float64)
        return p - (excess / self._norm2) * self.normal


@dataclass
class NestedSet:
    """Base set intersected with an append-only list of halfspace cuts.

    Cut ``k`` is the halfspace appended by iteration ``k``; cuts are never
    removed or reordered, so the represented set only shrinks. Appending is
    the one mutation and must happen from a single thread.
    """

    base: BaseSet
    cuts: list[Halfspace] = field(default_factory=list)

    def __post_init__(self):
        if any(cut.normal.size != self.dim for cut in self.cuts):
            raise ValueError("cut dimension does not match the base set")

    @property
    def dim(self) -> int:
        return self.base.dim

    def add_cut(self, cut: Halfspace) -> None:
        if cut.normal.size != self.dim:
            raise ValueError("cut dimension does not match the base set")
        self.cuts.append(cut)


def halfspace_from_iterate(x, zbar, eps: float = 0.0) -> Halfspace:
    """Halfspace form of the set ``{v : ||zbar - v||^2 <= ||x - v||^2 + eps}``.

    Expanding the squared norms gives the linear constraint
    ``<2(x - zbar), v> <= ||x||^2 - ||zbar||^2 + eps``, which this returns
    with the offset in the equal form ``<2(x - zbar), (x + zbar)/2> + eps``.
    """
    xv = as_vector(x)
    zv = as_vector(zbar)
    if xv.shape != zv.shape:
        raise ValueError("iterate and candidate must share a dimension")
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError("eps must be nonnegative and finite")
    normal = 2.0 * (xv - zv)
    # ||x||^2 - ||zbar||^2 cancels catastrophically when zbar is close to x;
    # <normal, (x + zbar)/2> is the same number without the cancellation.
    offset = float(normal @ (0.5 * (xv + zv))) + eps
    return Halfspace(normal=normal, offset=offset)


def contains(nested: NestedSet, p, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
    """Membership in the base set and every cut, within an absolute tol."""
    v = as_vector(p)
    if v.size != nested.dim:
        raise ValueError("point dimension does not match the set")
    if not nested.base.contains(v, tol):
        return False
    return all(cut.contains(v, tol) for cut in nested.cuts)


def _max_violation(nested: NestedSet, v: np.ndarray) -> float:
    base_gap = float(np.linalg.norm(v - nested.base.project(v)))
    cut_gap = max((cut.value(v) for cut in nested.cuts if not cut._degenerate),
                  default=0.0)
    return max(base_gap, cut_gap, 0.0)


def project_nested(
    nested: NestedSet,
    x0,
    tol: float = DEFAULT_PROJECTION_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> np.ndarray:
    """Project ``x0`` onto the base set intersected with all cuts.

    Runs Dykstra's alternating projection scheme over the base set and each
    non-degenerate cut (degenerate whole-space cuts are skipped). For closed
    convex sets with nonempty intersection the scheme converges to the exact
    metric projection; iteration stops once a full sweep moves the iterate
    by no more than ``tol``.

    ``tol`` must be positive and finite and ``max_sweeps`` at least 1, the
    ranges :class:`~hybridproj.solver.SolverConfig` enforces for
    ``projection_tol`` and ``projection_max_sweeps``: a NaN ``tol`` would
    spend the whole budget on a converged point, an infinite one would stop
    after one sweep whatever it moved, and no sweep at all leaves nothing
    to return.

    Raises:
        ValueError: ``x0`` has the wrong dimension, or an argument lies
            outside its range.
        ProjectionFailure: sweep budget exhausted before reaching ``tol``;
            the exception carries the best iterate and its sweep residual.
        InfeasibleSetError: sweeps settle into a repeating cycle with large
            internal steps, the certificate heuristic for an empty
            intersection.
    """
    start = as_vector(x0)
    if start.size != nested.dim:
        raise ValueError("point dimension does not match the set")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not max_sweeps >= 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")

    # Newest cut first: recent cuts tend to be the binding ones, and leading
    # with them avoids the slow one-per-sweep release of increments parked
    # on superseded cuts.
    cuts = [(cut.normal, cut.offset, cut._norm2)
            for cut in reversed(nested.cuts) if not cut._degenerate]
    if not cuts:
        return nested.base.project(start)

    base = nested.base
    x = start
    # Increments are replaced, never written to, so they can start out as
    # one shared zero vector.
    zero = np.zeros_like(x)
    increments = [zero] * len(cuts)
    base_increment = zero
    stalled = 0
    prev_violation = math.inf
    step_max = math.inf
    for sweep in range(1, max_sweeps + 1):
        sweep_start = x
        step_max = 0.0
        # Halfspace.project inlined with its formulas, except that a cut
        # that holds w returns w itself rather than a copy: nothing writes
        # to it. On 1-D float64 vectors a.dot(b) calls the dot routine that
        # a @ b calls, at half the call cost, and np.linalg.norm(v) is
        # sqrt(v.dot(v)), so every value keeps its bits.
        for k, (normal, offset, norm2) in enumerate(cuts):
            w = x + increments[k]
            excess = float(normal.dot(w)) - offset
            y = w if excess <= 0.0 else w - (excess / norm2) * normal
            increments[k] = w - y
            move = y - x
            step = math.sqrt(move.dot(move))
            if step > step_max:
                step_max = step
            x = y
        w = x + base_increment
        y = base.project(w)
        base_increment = w - y
        move = y - x
        step = math.sqrt(move.dot(move))
        if step > step_max:
            step_max = step
        x = y
        move = x - sweep_start
        closure = math.sqrt(move.dot(move))
        if closure <= tol and step_max <= tol:
            return x
        # Disjoint sets make the sweep close onto an exact limit cycle: the
        # endpoint repeats to machine precision while internal steps and the
        # feasibility violation stay put. Slow feasible convergence (acute
        # cuts, stale-increment release) keeps either the closure or the
        # violation strictly shrinking but is never an exact cycle.
        if closure <= max(10.0 * tol, 1e-9 * step_max) and step_max > 100.0 * tol:
            violation = _max_violation(nested, x)
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
