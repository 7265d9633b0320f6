"""Weakly measurable maps into the dual space, as evaluation tables.

A map assigns to each point x_j of a sampled measure space a functional on
the test-function space D; the whole map is stored as the J x K table
``table[j, k] = <e_k, omega_{x_j}>`` of analysis values of the orthonormal
basis.  Analysis of f with coefficients c is then ``table @ c``, and of a
K x F family of witnesses ``table @ family``.  All frame diagnostics reduce
to spectral data of the weighted table.
"""

from __future__ import annotations

import enum
import functools
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GridMismatchError,
    InconsistencyError,
    InvalidValueError,
    NotAFrameError,
    PreconditionError,
    ShapeMismatchError,
    SingularOperatorError,
    UnsupportedSpaceError,
)
from .measure import SampledMeasureSpace, _frozen_array, _read_only, counting, same_grid
from .model import (RANK_RTOL, ModelSpace, _diagonal, _full_rank, _singular_values,
                    transform_matrix)

EIG_TOL = 1e-8  # classification slack: Parseval, tight
BOUND_SLACK = 1e-10  # an analysis value may exceed its envelope by this much
SUPPORT_TOL = 1e-9  # a witness's support: points where |<f, omega_j>| exceeds it
WINDOW_SUPPORT_TOL = 1e-12  # a window's support: samples of modulus above it
COUNTING_TOL = 1e-12  # largest |w_j - 1| of a counting-measure weight


class Classification(enum.Enum):
    """Strength classes of a map, weakest to strongest.

    At finite scale every table is a bounded Bessel map; the degenerate
    zero map reports as BESSEL.
    """

    BESSEL = "bessel"
    BOUNDED_BESSEL = "bounded_bessel"
    FRAME = "frame"
    TIGHT = "tight"
    PARSEVAL = "parseval"
    RIESZ_BASIS = "riesz_basis"
    GELFAND_BASIS = "gelfand_basis"


FRAME_CLASSES = frozenset(
    {
        Classification.FRAME,
        Classification.TIGHT,
        Classification.PARSEVAL,
        Classification.RIESZ_BASIS,
        Classification.GELFAND_BASIS,
    }
)


@dataclass(frozen=True, eq=False)
class DistributionMap:
    """Evaluation table of a map from the point set into the dual of D.

    The table is read-only, so nothing cached on the map (its diagonal, its
    spectrum, its canonical dual, its dual-pair verdicts) can go stale.  A
    read-only complex table that owns its memory is adopted; anything else,
    a caller's writeable array or a view, is copied
    (``measure._frozen_array``).  The builders below mark each fresh table
    read-only, so none is held twice.
    """

    table: np.ndarray
    space: SampledMeasureSpace
    model: ModelSpace
    note: str = ""

    def __post_init__(self):
        table = _frozen_array(self.table, complex)
        object.__setattr__(self, "table", table)
        if table.shape != (len(self.space), self.model.dim):
            raise ShapeMismatchError(
                f"table shape {table.shape} does not match "
                f"{len(self.space)} points x {self.model.dim} basis elements"
            )
        if not np.all(np.isfinite(table)):
            raise InvalidValueError("evaluation table must have finite entries")
        # Column k of sqrt(w) * table has squared norm S_kk, and by
        # Cauchy-Schwarz |S_kl| <= sqrt(S_kk S_ll) on the frame matrix S.
        # One real J x K array of moduli, scaled and squared in place.
        moduli = np.abs(table)
        moduli *= np.sqrt(self.space.weights)[:, None]
        with np.errstate(all="ignore"):
            squared_norms = np.square(moduli, out=moduli).sum(axis=0)
        if not np.all(np.isfinite(squared_norms)):
            raise InvalidValueError("frame matrix overflows: entries must be finite")

    @property
    def n_points(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def vectors(self) -> np.ndarray:
        """Rows of H coefficients: row j represents omega_{x_j} as an element of H."""
        return np.conj(self.table)

    @functools.cached_property
    def diagonal(self) -> np.ndarray | None:
        """The diagonal of a diagonal table (``model._diagonal``) whose
        entries are real, else None; tested once per map.

        A product with a real diagonal factor rounds as the dense product
        does, so every closed form read from it is bit for bit the dense
        result.  A complex diagonal would not be, and takes the dense path.
        """
        diagonal = _diagonal(self.table)
        if diagonal is None or diagonal.imag.any():
            return None
        return diagonal

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Singular values of the weighted table sqrt(w) * table, largest
        first (``model._singular_values``); the frame bounds are the
        squares of the extreme ones."""
        return _singular_values(np.sqrt(self.space.weights)[:, None] * self.table)

    @functools.cached_property
    def _dual(self) -> DistributionMap:
        """The canonical dual, computed on first use; read it by :func:`canonical_dual`."""
        return _compute_dual(self)

    @functools.cached_property
    def _dual_pair_verdicts(self) -> weakref.WeakKeyDictionary:
        """``multiplier.is_dual_pair`` verdicts with this map as the analysis
        side, keyed weakly by the synthesis map so as not to keep it alive."""
        return weakref.WeakKeyDictionary()


def _weighted_product(left: DistributionMap, v: np.ndarray,
                      right: DistributionMap) -> np.ndarray:
    """The K x K matrix left.table^H diag(v) right.table.  Two diagonal
    tables give the diagonal matrix of conj(left) * (v * right), no product."""
    dl, dr = left.diagonal, right.diagonal
    if dl is None or dr is None:
        return left.table.conj().T @ (v[:, None] * right.table)
    return np.diag(np.conj(dl) * (v * dr))


def _apply(omega: DistributionMap, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``table @ x``, or ``table.T @ x``, for a 2-d block x.  A diagonal
    table, its own transpose, scales the rows of x instead."""
    if omega.diagonal is not None:
        return omega.diagonal[:, None] * x
    return (omega.table.T if transpose else omega.table) @ x


# -- builtin families ---------------------------------------------------------

def _check_same_grid(model: ModelSpace, space: SampledMeasureSpace):
    if not same_grid(model.space, space):
        raise GridMismatchError("model and space are sampled on different grids")


def _check_pair(omega: DistributionMap, theta: DistributionMap):
    """Two maps that pair with each other share a space and a model."""
    if not same_grid(omega.space, theta.space):
        raise GridMismatchError("analysis and synthesis maps on different spaces")
    if omega.dim != theta.dim:
        raise GridMismatchError("analysis and synthesis maps on different models")


def delta_frame(model: ModelSpace, space: SampledMeasureSpace) -> DistributionMap:
    """Point evaluations: analysis of f returns its sample values f(x_j).

    The table is the model's read-only basis itself, not a copy of it.
    """
    _check_same_grid(model, space)
    return DistributionMap(table=model.on_basis, space=space, model=model)


def exponential_frame(model: ModelSpace, space: SampledMeasureSpace) -> DistributionMap:
    """Frequency functionals: analysis of f returns its transform samples.

    Row j acts as f -> f_hat(g_j) where g_j is the j-th dual-grid frequency
    and the transform is the weighted forward kernel exp(-2*pi*i*g*x).  On a
    self-dual grid the frequencies coincide with the grid points themselves.
    """
    _check_same_grid(model, space)
    if not space.periodic:
        raise UnsupportedSpaceError("exponential frame needs a uniform periodic grid")
    return DistributionMap(table=_read_only(transform_matrix(space) @ model.on_basis),
                           space=space, model=model)


def weighted_delta_frame(model: ModelSpace, space: SampledMeasureSpace,
                         weight_fn) -> DistributionMap:
    """Point evaluations scaled by a function: analysis of f is wf(x_j) f(x_j)."""
    _check_same_grid(model, space)
    if callable(weight_fn):
        values = np.asarray([weight_fn(x) for x in space.points], dtype=complex)
    else:
        values = np.asarray(weight_fn, dtype=complex)
        if values.shape != (len(space),):
            raise ShapeMismatchError("weight values must match the point count")
    return DistributionMap(table=_read_only(values[:, None] * model.on_basis),
                           space=space, model=model)


def translated_window_frame(model: ModelSpace, space: SampledMeasureSpace,
                            window) -> DistributionMap:
    """Circular translates of a window: row j pairs f against the j-shifted window.

    The grid must be uniformly spaced; translation acts on sample indices
    with wrap-around.  A window whose support spans at least half the grid
    gets a warning note (proper-support checks are then expected to fail).
    """
    _check_same_grid(model, space)
    g = np.asarray(window, dtype=complex)
    n = len(space)
    if g.shape != (n,):
        raise ShapeMismatchError("window must be sampled on the full grid")
    _ = space.spacing  # rejects non-uniform grids
    support = int(np.sum(np.abs(g) > WINDOW_SUPPORT_TOL))
    note = ""
    if support * 2 > n:
        note = (
            f"window support covers {support}/{n} points; "
            "proper-support (pseudo-orthogonality) checks may fail"
        )
    # table[j, k] = sum_l w_l e_k(x_l) conj(g_{(l - j) mod n})
    shifts = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    translates = g[shifts]  # row j = window shifted by j
    table = np.conj(translates) * space.weights[None, :] @ model.on_basis
    return DistributionMap(table=_read_only(table), space=space, model=model, note=note)


def _check_counting(space: SampledMeasureSpace):
    if not np.all(np.abs(space.weights - 1.0) <= COUNTING_TOL):
        raise PreconditionError("discrete sequences live on counting measure")


def discrete_sequence_map(model: ModelSpace, vectors: Sequence,
                          space: SampledMeasureSpace | None = None) -> DistributionMap:
    """Bridge from a finite vector family in H to a map on counting measure."""
    vecs = np.asarray(vectors, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != model.dim:
        raise ShapeMismatchError(
            f"need vectors of length {model.dim}, got array of shape {vecs.shape}"
        )
    if space is None:
        space = counting(len(vecs))
    if len(space) != len(vecs):
        raise ShapeMismatchError("space size must match the number of vectors")
    _check_counting(space)
    # <e_k, phi_j> = conj(<phi_j, e_k>) = conj(phi_j[k])
    return DistributionMap(table=_read_only(np.conj(vecs)), space=space, model=model)


# -- diagnostics --------------------------------------------------------------

@dataclass(frozen=True)
class FrameDiagnostics:
    """Two-sided bounds and classification of a map.

    ``lower`` and ``upper`` are the squared extreme singular values of the
    weighted table sqrt(w) * table, i.e. the best constants in
    A ||f||^2 <= sum_j w_j |<f, omega_j>|^2 <= B ||f||^2  over D; ``lower``
    is 0 when J < K.  Totality and mu-independence are rank decisions
    on the weighted table at relative tolerance ``rank_tol`` = RANK_RTOL.
    """

    lower: float
    upper: float
    synthesis_sigma_min: float
    synthesis_sigma_max: float
    mu_independent: bool
    total: bool
    classification: Classification
    tolerance: float
    rank_tol: float
    n_points: int
    dim: int
    note: str = ""

    @property
    def condition_number(self) -> float:
        if self.synthesis_sigma_min <= 0.0:
            return float("inf")
        return self.synthesis_sigma_max / self.synthesis_sigma_min


def diagnose(omega: DistributionMap) -> FrameDiagnostics:
    """Compute frame bounds, rank properties and the strongest classification.

    The weighted table sqrt(w) * table carries everything: its squared
    extreme singular values over D give the bounds, its column rank decides
    totality, its row rank decides mu-independence (the weighted synthesis
    has trivial kernel iff the table has full row rank, which already fails
    whenever J > K: an overcomplete sampled family is never mu-independent).

    The spectrum is computed once per map and cached on it.
    """
    j, k = omega.table.shape
    sigma = omega.spectrum
    sigma_max, sigma_min = float(sigma[0]), float(sigma[-1])

    try:
        upper = sigma_max ** 2
    except OverflowError:  # sigma_max^2 may reach K times a column's squared norm
        raise InvalidValueError(
            f"upper frame bound B = sigma_max^2 overflows: sigma_max = {sigma_max:.3e}"
        ) from None
    lower = sigma_min ** 2 if j >= k else 0.0

    total = j >= k and _full_rank(sigma)
    mu_independent = j <= k and _full_rank(sigma)

    if upper == 0.0:
        cls = Classification.BESSEL  # degenerate zero map
    elif not total:
        cls = Classification.BOUNDED_BESSEL
    else:
        parseval = max(abs(lower - 1.0), abs(upper - 1.0)) <= EIG_TOL
        tight = abs(upper - lower) <= EIG_TOL * upper
        if mu_independent and parseval:
            cls = Classification.GELFAND_BASIS
        elif mu_independent:
            cls = Classification.RIESZ_BASIS
        elif parseval:
            cls = Classification.PARSEVAL
        elif tight:
            cls = Classification.TIGHT
        else:
            cls = Classification.FRAME

    return FrameDiagnostics(
        lower=lower,
        upper=upper,
        synthesis_sigma_min=sigma_min,
        synthesis_sigma_max=sigma_max,
        mu_independent=mu_independent,
        total=total,
        classification=cls,
        tolerance=EIG_TOL,
        rank_tol=RANK_RTOL,
        n_points=j,
        dim=k,
        note=omega.note,
    )


def canonical_dual(omega: DistributionMap) -> DistributionMap:
    """Dual map theta with table = table(omega) @ S^{-1}, S the frame matrix.

    Satisfies the reconstruction pairing <f, g> = sum_j w_j <f, theta_j>
    <omega_j, g> and has frame bounds (1/B, 1/A).  Requires a frame whose A
    does not underflow, i.e. is a normal float (SingularOperatorError
    otherwise).  The
    dual is computed once per map and cached on it, so every call on one map
    returns the same object.  From the thin SVD sqrt(w) * table = U diag(s)
    V^H the dual table is W^{-1/2} U diag(1/s) V^H, which never forms S and
    so does not square the condition number.  A real diagonal table d has
    the diagonal S = conj(d) w d, and its dual divides each column by S_kk.
    """
    return omega._dual


def _compute_dual(omega: DistributionMap) -> DistributionMap:
    """The canonical dual of ``omega``, computed anew and cached nowhere."""
    diag = diagnose(omega)
    if diag.classification not in FRAME_CLASSES:
        raise NotAFrameError(
            f"canonical dual needs a frame, got {diag.classification.value} "
            f"with bounds ({diag.lower:.3e}, {diag.upper:.3e})"
        )
    if diag.lower < np.finfo(float).tiny:  # 1/A may overflow: no dual table
        raise SingularOperatorError(
            "canonical dual needs a lower frame bound A = sigma_min^2 that does "
            "not underflow"
        )
    w, d = omega.space.weights, omega.diagonal
    if d is not None:
        dual_table = omega.table / (np.conj(d) * (w * d))
    else:
        root = np.sqrt(w)[:, None]
        u, s, vh = np.linalg.svd(root * omega.table, full_matrices=False)
        dual_table = (u / s) @ vh / root
    return DistributionMap(table=_read_only(dual_table), space=omega.space,
                           model=omega.model)


@dataclass(frozen=True)
class TransitionReport:
    """Change-of-frame operator from a Gel'fand basis to a target map."""

    matrix: np.ndarray
    sigma_min: float
    sigma_max: float
    invertible: bool
    classification: Classification

    @property
    def condition_number(self) -> float:
        return self.sigma_max / self.sigma_min if self.sigma_min > 0 else float("inf")


def riesz_transition(omega: DistributionMap, zeta: DistributionMap) -> TransitionReport:
    """Operator W sending sum_j w_j xi(j) zeta_j to sum_j w_j xi(j) omega_j.

    On coefficients W = E_omega^H diag(w) E_zeta.  Invertibility of W is
    equivalent to the target being a Riesz basis; the report is checked
    against :func:`diagnose` and an inconsistency raises.
    """
    zeta_diag = diagnose(zeta)
    if zeta_diag.classification is not Classification.GELFAND_BASIS:
        raise PreconditionError(
            f"reference map must be a Gel'fand basis, got "
            f"{zeta_diag.classification.value}"
        )
    _check_pair(omega, zeta)
    matrix = _weighted_product(omega, omega.space.weights, zeta)
    sigma = _singular_values(matrix)
    sigma_min, sigma_max = float(sigma[-1]), float(sigma[0])
    invertible = _full_rank(sigma)
    omega_cls = diagnose(omega).classification
    is_riesz = omega_cls in (Classification.RIESZ_BASIS, Classification.GELFAND_BASIS)
    if invertible != is_riesz:
        raise InconsistencyError(
            "transition operator invertibility disagrees with diagnose "
            f"(invertible={invertible}, classification={omega_cls.value})"
        )
    return TransitionReport(
        matrix=matrix,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        invertible=invertible,
        classification=omega_cls,
    )


# -- proper-support orthogonality checks --------------------------------------

@dataclass(frozen=True)
class SupportRecord:
    """Analysis-support facts for one witness function."""

    index: int
    support_size: int
    support_measure: float
    sup_on_support: float
    max_off_support: float
    strict_subset: bool
    bound_violation: tuple | None  # (point index, value, allowed)
    passed: bool  # strict subset and no bound violation


@dataclass(frozen=True)
class WitnessReport:
    """Verdict on a witness family: the orthogonality checks and the
    density certificate each return one, with their own records."""

    passed: bool
    total: bool
    records: tuple
    reason: str = ""


_EMPTY_FAMILY = WitnessReport(passed=False, total=False, records=(),
                              reason="empty witness family")


def _witness_verdict(total: bool, records: tuple, reason: str) -> WitnessReport:
    """The one witness-family verdict: a family passes when it is total and
    every record passes.  A family that is not total fails for that reason;
    otherwise ``reason`` is the check's own reason for a failed record."""
    passed = total and all(r.passed for r in records)
    if not total:
        reason = "witness family is not total"
    return WitnessReport(passed=passed, total=total, records=records,
                         reason="" if passed else reason)


def _witness_analysis(omega: DistributionMap, family: np.ndarray,
                      support_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """One evaluation of a non-empty K x F witness family.

    Returns the J x F analysis matrix (column f holds <f, omega_j>), its
    moduli, the support mask (moduli above ``support_tol``) and whether the
    family is total in D (full rank at relative tolerance RANK_RTOL).  On a
    diagonal table the analysis matrix scales the family's rows, and a
    diagonal family's totality is read from its diagonal: no product, no SVD.
    """
    sigma = _singular_values(family)
    total = family.shape[1] >= omega.dim and _full_rank(sigma)
    analysis = _apply(omega, family)
    values = np.abs(analysis)
    return analysis, values, values > support_tol, total


def _check_family(omega: DistributionMap, family) -> bool:
    """The witness-family contract: a finite 2-d array with one row per basis
    element.  Returns whether the family has a column; a family with none
    has nothing to certify."""
    if np.ndim(family) != 2 or np.shape(family)[0] != omega.dim:
        raise ShapeMismatchError(
            f"witness family must be {omega.dim} x F, got shape {np.shape(family)}")
    if not np.all(np.isfinite(family)):
        raise InvalidValueError("witness family must have finite entries")
    return family.shape[1] > 0


def _orthogonality(omega: DistributionMap, family, support_tol: float,
                   alpha: np.ndarray | None = None) -> WitnessReport:
    """Support records of a family, with the envelope bound if alpha."""
    if not _check_family(omega, family):
        return _EMPTY_FAMILY
    values, on, total = _witness_analysis(omega, family, support_tol)[1:]
    violations = [None] * family.shape[1]
    if alpha is not None:
        excess = values - alpha[:, None]
        excess[~on] = -np.inf
        worst = np.argmax(excess, axis=0)
        for i in np.flatnonzero(excess[worst, np.arange(len(worst))] > BOUND_SLACK):
            j = int(worst[i])
            violations[i] = (j, float(values[j, i]), float(alpha[j]))
    sizes = on.sum(axis=0)
    columns = zip(sizes.tolist(), (omega.space.weights @ on).tolist(),
                  np.max(values, axis=0, where=on, initial=0.0).tolist(),
                  np.max(values, axis=0, where=~on, initial=0.0).tolist(),
                  (sizes < omega.n_points).tolist(), violations)
    records = tuple(
        SupportRecord(i, size, measure, sup, off, strict, violation,
                      passed=strict and violation is None)
        for i, (size, measure, sup, off, strict, violation) in enumerate(columns))
    return _witness_verdict(total, records, "envelope bound violated"
                            if any(violations) else "support is not proper")


def check_pseudo_orthogonal(omega: DistributionMap, family: np.ndarray,
                            support_tol: float = SUPPORT_TOL) -> WitnessReport:
    """Certify a K x F witness family for proper-support orthogonality.

    Each witness must have analysis support on a strict subset of the points
    (the finite shadow of a bounded support set), and the family must be
    total in D.  This certifies a supplied witness; it does not search for
    one.
    """
    return _orthogonality(omega, family, support_tol)


def check_hyper_orthogonal(omega: DistributionMap, alpha,
                           family_builder: Callable[[np.ndarray], np.ndarray],
                           support_tol: float = SUPPORT_TOL) -> WitnessReport:
    """Certify a dominated witness family built for a finite positive envelope alpha.

    The builder receives alpha sampled on the points and must return a K x F
    family of test functions whose analysis values stay below alpha (up to
    ``BOUND_SLACK``) on their support and vanish (below ``support_tol``)
    elsewhere, with the family total in D.
    """
    alpha_values = np.asarray(alpha, dtype=float)
    if alpha_values.shape != (omega.n_points,):
        raise ShapeMismatchError("alpha must be sampled on the point set")
    if not np.all((alpha_values > 0.0) & (alpha_values < np.inf)):  # NaN fails too
        raise PreconditionError("alpha must be finite and strictly positive")
    return _orthogonality(omega, family_builder(alpha_values), support_tol,
                          alpha_values)


# -- builtin witness families --------------------------------------------------

def bump_family(model: ModelSpace, heights=None) -> np.ndarray:
    """Single-point spikes at every grid point, optionally scaled per point.

    Heights default to 1 and must be finite, one per grid point.  Exact
    (analysis supported only on the spike) when D spans the whole sample
    space.
    """
    if heights is None:
        heights = np.ones(model.ambient_dim)
    heights = np.asarray(heights, float)
    if heights.shape != (model.ambient_dim,):
        raise ShapeMismatchError(
            f"need {model.ambient_dim} spike heights, got shape {heights.shape}")
    if not np.all(np.isfinite(heights)):
        raise InvalidValueError("spike heights must be finite")
    # Spike i projects onto D as conj(row i of on_basis) * w_i * height_i,
    # scaled in place in the conjugate copy.
    family = model.on_basis.conj().T
    return np.multiply(family, model.space.weights * heights, out=family)


def scaled_bump_family(model: ModelSpace, alpha_values=None) -> np.ndarray:
    """Spikes dominated by an envelope: each height is alpha at its point, or 1.

    Spikes live on the model grid, so only its first ``ambient_dim`` envelope
    values are read.
    """
    return bump_family(model, None if alpha_values is None
                       else np.asarray(alpha_values, dtype=float)[:model.ambient_dim])


def band_limited_family(model: ModelSpace, space: SampledMeasureSpace,
                        alpha_values=None) -> np.ndarray:
    """Witnesses whose transform is a single frequency spike, per dual point.

    Suited to the exponential frame: the analysis of each witness is an
    indicator at one frequency.  With an envelope given, spikes are scaled
    to its value at the matching point.
    """
    inverse = transform_matrix(space, inverse=True)
    if alpha_values is not None:
        inverse = inverse * np.asarray(alpha_values, float)[None, :]
    return model.on_basis.conj().T @ (model.space.weights[:, None] * inverse)
