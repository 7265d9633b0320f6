"""Discretized test-function space inside a sampled Hilbert space.

A model fixes an ambient coordinate space (raw samples on the grid of a
:class:`~framelab.measure.SampledMeasureSpace`), whose positive weight
vector w defines the H inner product of raw samples, <u, v> = sum_j w_j
u_j conj(v_j), and a distinguished K-dimensional subspace D spanned by an
H-orthonormalized basis.  A test function is its coefficient vector over
that basis, and a family of F test functions is the K x F matrix of their
coefficient columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateBasisError,
    InvalidValueError,
    ShapeMismatchError,
    UnsupportedSpaceError,
)
from .measure import SampledMeasureSpace, _frozen_array, _read_only

RANK_RTOL = 1e-10  # singular values <= RANK_RTOL * the largest count as zero
ORTHONORMAL_TOL = 1e-12  # largest |Q^H W Q - I| entry of an orthonormal basis


# -- basis families ----------------------------------------------------------

@dataclass(frozen=True)
class Trigonometric:
    """Complex exponentials exp(2*pi*i*k*x/P) on a periodic grid of period P.

    Frequencies run over -d..d for max_degree d (K = 2d+1); when 2d equals
    the grid size n the range is -d..d-1 (K = n), because +d and -d alias to
    the same grid samples.  Exactly H-orthonormal on uniform periodic grids.
    """

    max_degree: int


@dataclass(frozen=True)
class GaussianBumps:
    """Gaussian columns exp(-(x-c)^2 / (2 width^2)) at the given centers."""

    centers: tuple
    width: float


@dataclass(frozen=True)
class RawSamples:
    """The standard coordinate basis of the sample space (K = N)."""


BasisFamily = Union[Trigonometric, GaussianBumps, RawSamples]


def _gaussian(points: np.ndarray, centers, width: float) -> np.ndarray:
    """exp(-(points - centers)^2 / (2 width^2)), with 2 width^2 formed in
    float64.  Overflow gives the exact limits: an offset or a quotient that
    overflows gives exp(-inf) = 0, and a width whose 2 width^2 overflows
    divides the offsets by the width first, so that exp(-0) = 1 near the
    center.  A width whose 2 width^2 underflows to 0 would leave 0/0 at the
    center: it is an InvalidValueError."""
    with np.errstate(over="ignore"):
        spread = 2.0 * np.float64(width) ** 2
        if spread == 0.0:
            raise InvalidValueError(
                f"Gaussian width {width!r} is too small: 2 width^2 underflows to 0")
        offsets = points - centers
        if np.isinf(spread):
            offsets, spread = offsets / width, 2.0
        return np.exp(-(offsets ** 2) / spread)


def _raw_columns(space: SampledMeasureSpace, family: BasisFamily) -> np.ndarray:
    n = len(space)
    if isinstance(family, Trigonometric):
        if not space.periodic:
            raise UnsupportedSpaceError("trigonometric basis needs a periodic grid")
        d = int(family.max_degree)
        if 2 * d + 1 <= n:
            freqs = np.arange(-d, d + 1)
        elif 2 * d == n:
            freqs = np.arange(-d, d)
        else:
            raise DegenerateBasisError(
                f"max_degree {d} gives more than {n} distinct frequencies mod {n}"
            )
        period = n * space.spacing
        return np.exp(2j * np.pi * np.outer(space.points, freqs) / period)
    if isinstance(family, GaussianBumps):
        centers = np.asarray(family.centers, dtype=float)
        cols = _gaussian(space.points[:, None], centers[None, :], family.width)
        return cols.astype(complex)
    raise TypeError(f"unknown basis family {family!r}")


# -- orthonormalization ------------------------------------------------------

def orthonormalize(columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H-orthonormalize columns by one weighted Householder QR.

    With W = diag(weights) the H inner product is <u, v> = v^H W u, so
    sqrt(w) * columns = Q R (Householder QR, Golub & Van Loan, *Matrix
    Computations*, 4th ed., section 5.2) gives the H-orthonormal basis
    Q / sqrt(w) of the same nested spans.  Column phases are normalized so
    that diag R is positive, as Gram-Schmidt would give.  A diagonal entry
    |R_kk| at or below ``RANK_RTOL`` times the largest weighted column norm
    means column k depends on the columns before it; the error names the
    first such column.  The output preserves the input column order.

    :func:`make_model` does not call it for :class:`RawSamples`: the QR of
    diag(sqrt(w)) is Q = I, R = diag(sqrt(w)), so that basis is diag(1/sqrt(w)).
    """
    root = np.sqrt(np.asarray(weights, dtype=float))
    scaled = root[:, None] * np.asarray(columns, dtype=complex)
    n, k = scaled.shape
    q, r = np.linalg.qr(scaled)
    diag = np.diagonal(r)
    cutoff = RANK_RTOL * (np.linalg.norm(scaled, axis=0).max() if k else 1.0)
    dependent = np.flatnonzero(np.abs(diag) <= cutoff)
    if dependent.size or k > n:
        idx = int(dependent[0]) if dependent.size else n
        residual = abs(diag[idx]) if idx < n else 0.0
        raise DegenerateBasisError(
            f"basis column {idx} is linearly dependent on the others "
            f"(residual norm {residual:.3e})"
        )
    return q * np.exp(1j * np.angle(diag)) / root[:, None]


# -- the model ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelSpace:
    """Sampled triple: coordinates for H, an orthonormal basis of D, its family.

    ``on_basis`` is read-only: a read-only array that owns its memory is
    adopted, anything else is copied (``measure._frozen_array``).
    """

    space: SampledMeasureSpace
    on_basis: np.ndarray
    family: BasisFamily

    def __post_init__(self):
        on = _frozen_array(self.on_basis, complex)
        if on.ndim != 2 or on.shape[0] != len(self.space):
            raise ShapeMismatchError("on_basis must have one row per sample point")
        if on.shape[1] == 0:
            raise DegenerateBasisError("on_basis has no columns")
        w = self.space.weights
        diagonal = _diagonal(on)
        if diagonal is None:
            gram = on.conj().T @ (w[:, None] * on) - np.eye(on.shape[1])
        else:  # a diagonal basis has a diagonal Gram matrix
            gram = np.conj(diagonal) * (w * diagonal) - 1.0
        defect = np.max(np.abs(gram))
        if not defect <= ORTHONORMAL_TOL:  # a NaN defect fails too
            raise InvalidValueError(
                f"on_basis is not H-orthonormal (defect {defect:.3e})"
            )
        object.__setattr__(self, "on_basis", on)

    @property
    def ambient_dim(self) -> int:
        return self.on_basis.shape[0]

    @property
    def dim(self) -> int:
        """Dimension K of the test-function subspace D."""
        return self.on_basis.shape[1]

    def summary(self) -> dict:
        """Report data: dimensions, family, conditioning of the raw basis."""
        root = np.sqrt(self.space.weights)
        if isinstance(self.family, RawSamples):  # diag(sqrt(w)): sigma is sqrt(w) sorted
            sigma = np.sort(root)[::-1]
        else:
            raw = _raw_columns(self.space, self.family)  # fresh: weighted in place
            sigma = _singular_values(np.multiply(root[:, None], raw, out=raw))
        condition = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else float("inf")
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "family": type(self.family).__name__,
            "d_basis_condition": condition,
        }


def make_model(space: SampledMeasureSpace, family: BasisFamily) -> ModelSpace:
    """Build a model with the L2(X, mu) inner product and the given basis.

    The raw-samples basis is diag(1/sqrt(w)) with no QR: it is what
    :func:`orthonormalize` returns for the standard basis, bit for bit.
    Every other family is orthonormalized by one weighted QR.
    """
    if isinstance(family, RawSamples):
        on_basis = np.diag((1.0 / np.sqrt(space.weights)).astype(complex))
    else:
        on_basis = orthonormalize(_raw_columns(space, family), space.weights)
    return ModelSpace(space=space, on_basis=_read_only(on_basis), family=family)


def _diagonal(matrix: np.ndarray) -> np.ndarray | None:
    """The one diagonal rule: the diagonal of a square matrix with no nonzero
    entry off it, else None.

    The test is O(N^2): a non-square matrix is not scanned, and a matrix
    with a nonzero entry off the diagonal in its first row is rejected after
    that row.  Zeros on the diagonal are allowed.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n) or matrix[:1, 1:].any():
        return None
    diagonal = np.diagonal(matrix)
    if np.count_nonzero(matrix) != np.count_nonzero(diagonal):
        return None
    return diagonal


def _singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, largest first.

    A diagonal matrix (:func:`_diagonal`) has the sorted moduli of its
    diagonal as singular values, so it needs no SVD.  Any other matrix goes
    to one ``np.linalg.svd``.
    """
    diagonal = _diagonal(matrix)
    if diagonal is not None:
        return np.sort(np.abs(diagonal))[::-1]
    return np.linalg.svd(matrix, compute_uv=False)


def _full_rank(sigma: np.ndarray) -> bool:
    """The one rank rule on singular values sorted largest first: the
    smallest exceeds RANK_RTOL times the largest.  A zero or NaN spectrum
    fails it."""
    return bool(sigma[-1] > RANK_RTOL * sigma[0])


# -- elements ----------------------------------------------------------------

def to_samples(model: ModelSpace, coeffs: np.ndarray) -> np.ndarray:
    """Raw sample values on the model grid of a test function's coefficients."""
    return model.on_basis @ coeffs


def from_samples(model: ModelSpace, values) -> np.ndarray:
    """H-orthogonal projection of a finite sample vector onto D: its coefficients."""
    v = np.asarray(values, dtype=complex)
    if v.shape != (model.ambient_dim,):
        raise ShapeMismatchError(f"expected {model.ambient_dim} sample values")
    if not np.all(np.isfinite(v)):
        raise InvalidValueError("sample values must be finite")
    return model.on_basis.conj().T @ (model.space.weights * v)


# -- discrete transform on periodic grids ------------------------------------

def dual_grid(space: SampledMeasureSpace) -> SampledMeasureSpace:
    """Frequency grid of a periodic grid: n points spaced 1/(n*dx)."""
    if not space.periodic:
        raise UnsupportedSpaceError("dual grid is defined for periodic grids only")
    n = len(space)
    step = 1.0 / (n * space.spacing)
    return SampledMeasureSpace(
        points=np.arange(n) * step,
        weights=np.full(n, step),
        extent=n * step,
        periodic=True,
    )


def transform_matrix(space: SampledMeasureSpace, inverse: bool = False) -> np.ndarray:
    """Kernel matrix of the weighted transform between a grid and its dual.

    Forward rows: f_hat(g_u) = sum_j w_j f(x_j) exp(-2*pi*i*g_u*x_j); the
    inverse uses the dual grid's weights and the conjugate kernel.  The two
    compose to the identity and both are unitary between the weighted
    sample spaces.
    """
    freqs = dual_grid(space).points
    if inverse:
        dual_w = dual_grid(space).weights
        return np.exp(2j * np.pi * np.outer(space.points, freqs)) * dual_w[None, :]
    return np.exp(-2j * np.pi * np.outer(freqs, space.points)) * space.weights[None, :]
