"""Finite weighted point sets standing in for a measure space.

A space is a list of pairwise-distinct points with strictly positive
weights; atomic spaces carry atom masses, quadrature spaces carry rule
weights.  All integrals in the package are weighted sums over these points,
so almost-everywhere statements become pointwise statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptySpaceError,
    InvalidValueError,
    ScheduleError,
    ShapeMismatchError,
    UnsupportedSpaceError,
)

SPACING_RTOL, SPACING_ATOL = 1e-12, 1e-14  # gaps of a uniform grid, as np.allclose


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only in place and returned."""
    arr.flags.writeable = False
    return arr


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only array of ``values``.  An ndarray of ``dtype`` that owns its
    memory and is already read-only is adopted as it is; anything else, a
    caller's writeable array or a view, is copied in the input's memory
    order."""
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    return _read_only(np.array(values, dtype=dtype))


@dataclass(frozen=True, eq=False)
class SampledMeasureSpace:
    """Finite model of a measure space: points, positive weights, metadata.

    ``extent`` records the geometry the points sample: the period of a
    periodic grid, the half-width L of a symmetric interval grid, or the
    point count of an abstract atomic space.  ``periodic`` marks uniform
    grids that wrap around (translation and transform operations need it).
    """

    points: np.ndarray
    weights: np.ndarray
    extent: float
    periodic: bool = False

    def __post_init__(self):
        points = _frozen_array(self.points, float)
        weights = _frozen_array(self.weights, float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or weights.ndim != 1:
            raise ShapeMismatchError("points and weights must be 1-d arrays")
        if len(points) != len(weights):
            raise ShapeMismatchError(
                f"{len(points)} points but {len(weights)} weights"
            )
        if len(points) == 0:
            raise EmptySpaceError("a measure space needs at least one point")
        if not np.all(np.isfinite(points)):
            raise InvalidValueError("all points must be finite")
        if not np.all(weights > 0.0):
            raise InvalidValueError("all weights must be strictly positive")
        if not np.all(np.isfinite(weights)):
            raise InvalidValueError("all weights must be finite")
        if np.any(np.diff(np.sort(points)) == 0.0):  # np.unique would import numpy.ma
            raise InvalidValueError("points must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> float:
        """Common gap of a uniform grid; raises for non-uniform spacing."""
        if len(self.points) == 1:
            return self.extent
        gaps = np.diff(np.sort(self.points))
        if not np.allclose(gaps, gaps[0], rtol=SPACING_RTOL, atol=SPACING_ATOL):
            raise UnsupportedSpaceError("grid spacing is not uniform")
        return float(gaps[0])


def same_grid(a: SampledMeasureSpace, b: SampledMeasureSpace) -> bool:
    """True when two spaces share the identical point/weight arrays."""
    return (
        len(a) == len(b)
        and np.array_equal(a.points, b.points)
        and np.array_equal(a.weights, b.weights)
    )


# -- constructors -----------------------------------------------------------

def counting(n_or_points) -> SampledMeasureSpace:
    """Atomic space with unit mass per point (counting measure).

    Accepts a point count (points become 0..n-1) or an explicit point list.
    """
    if np.isscalar(n_or_points):
        points = np.arange(int(n_or_points), dtype=float)
    else:
        points = np.asarray(n_or_points, dtype=float)
    return SampledMeasureSpace(
        points=points,
        weights=np.ones(len(points)),
        extent=float(len(points)),
    )


def periodic_unit_grid(n: int) -> SampledMeasureSpace:
    """Midpoint rule on [0, 1): points j/n, weights 1/n, period 1."""
    n = int(n)
    return SampledMeasureSpace(
        points=np.arange(n) / n,
        weights=np.full(n, 1.0 / n),
        extent=1.0,
        periodic=True,
    )


def fourier_grid(n: int) -> SampledMeasureSpace:
    """Self-dual periodic grid: n points spaced 1/sqrt(n), period sqrt(n).

    The weighted forward transform with kernel exp(-2*pi*i*g*x) maps sample
    vectors on this grid unitarily onto the same grid, so transform and
    convolution identities hold to machine precision rather than up to a
    resolution mismatch between position and frequency variables.
    """
    n = int(n)
    step = 1.0 / math.sqrt(n)
    return SampledMeasureSpace(
        points=np.arange(n) * step,
        weights=np.full(n, step),
        extent=n * step,
        periodic=True,
    )


def symmetric_grid(n: int, half_width: float) -> SampledMeasureSpace:
    """Uniform grid of n points on [-L, L] including both endpoints."""
    n = int(n)
    if n < 2:
        raise InvalidValueError("symmetric grid needs at least 2 points")
    L = float(half_width)
    if not math.isfinite(2.0 * L):
        raise InvalidValueError(
            f"symmetric grid half_width {L!r} is too large: its span 2L overflows")
    return SampledMeasureSpace(
        points=np.linspace(-L, L, n),
        weights=np.full(n, 2.0 * L / (n - 1)),
        extent=L,
    )


# -- L2(X, mu) arithmetic ----------------------------------------------------

def _as_values(space: SampledMeasureSpace, xi) -> np.ndarray:
    values = np.asarray(xi, dtype=complex)
    if values.shape != (len(space),):
        raise ShapeMismatchError(
            f"expected {len(space)} values on X, got shape {values.shape}"
        )
    return values


def l2_inner(space: SampledMeasureSpace, xi, eta) -> complex:
    """Weighted inner product sum_j w_j xi_j conj(eta_j)."""
    x = _as_values(space, xi)
    y = _as_values(space, eta)
    return complex(np.sum(space.weights * x * np.conj(y)))


def ess_sup(space: SampledMeasureSpace, xi) -> float:
    """Largest modulus over the (all positive-weight) points."""
    return float(np.max(np.abs(_as_values(space, xi))))


# -- symmetric-grid schedules ---------------------------------------------------

@dataclass(frozen=True)
class RefinementFamily:
    """An (n, L) schedule of symmetric grids, ``symmetric_grid(n, L)`` per step.

    A desk-scale proxy for statements about unbounded point sets: sweep the
    schedule and watch how a quantity grows.
    """

    schedule: tuple

    def __post_init__(self):
        schedule = tuple((int(n), float(L)) for n, L in self.schedule)
        object.__setattr__(self, "schedule", schedule)
        ns = [n for n, _ in schedule]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ScheduleError("schedule must be strictly increasing in n")
        if any(n < 2 for n in ns):
            raise ScheduleError("every symmetric grid needs at least 2 points")

    def __len__(self) -> int:
        return len(self.schedule)


def symmetric_grid_family(schedule: Sequence[tuple]) -> RefinementFamily:
    return RefinementFamily(schedule)
