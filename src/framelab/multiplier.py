"""Multiplier operators: analysis, pointwise symbol, synthesis.

The operator built from maps omega, theta and a symbol m acts on test
functions through the pairing

    <M f, g> = sum_j w_j m(x_j) <f, omega_j> <theta_j, g>,

so its dense K x K coefficient matrix factors exactly as
``E_theta^H diag(w * m) E_omega``.  Everything else here (norm and inverse
bounds, composition calculus, reconstruction pairs, dense-domain
certificates) is derived from that factorization and cross-checked against
it at the tolerances named below.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    GridMismatchError,
    InconsistencyError,
    InvalidValueError,
    ShapeMismatchError,
    SingularOperatorError,
)
from .maps import (SUPPORT_TOL, _EMPTY_FAMILY, Classification, DistributionMap,
                   WitnessReport, _apply, _check_family, _check_pair,
                   _weighted_product, _witness_analysis, _witness_verdict, diagnose)
from .measure import SampledMeasureSpace, _read_only, ess_sup
from .model import RANK_RTOL, _full_rank, _singular_values

RESIDUAL_TOL = 1e-10  # largest residual allowed for an exact identity
BOUND_TOL = 1e-8  # slack of a frame or Riesz bound and of the dual-pair test
SPLIT_FLOOR = 1.0  # split_symbol keeps |m2| at or above it
_PROBES = 8  # columns of the +-1 probe block of the symbol calculus


# -- symbols -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Symbol:
    """Complex function on the point set with modulus metadata."""

    values: np.ndarray
    ess_sup: float
    min_modulus: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    def vanishing_points(self) -> tuple:
        """The one vanishing rule: m vanishes where |m| <= RANK_RTOL * ess_sup|m|."""
        small = np.abs(self.values) <= RANK_RTOL * self.ess_sup
        return tuple(int(j) for j in np.flatnonzero(small))

    @property
    def nonvanishing(self) -> bool:
        return not self.vanishing_points()


def make_symbol(space: SampledMeasureSpace, values) -> Symbol:
    """Wrap finite symbol values on a space and compute the metadata."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (len(space),):
        raise ShapeMismatchError(f"symbol needs {len(space)} values")
    if not np.all(np.isfinite(values)):
        raise InvalidValueError("symbol values must be finite")
    return Symbol(
        values=values,
        ess_sup=ess_sup(space, values),
        min_modulus=float(np.min(np.abs(values))),
    )


def reciprocal_symbol(space: SampledMeasureSpace, m: Symbol) -> Symbol:
    if not m.nonvanishing:
        raise SingularOperatorError("cannot invert a vanishing symbol")
    return make_symbol(space, 1.0 / m.values)


def product_symbol(space: SampledMeasureSpace, m1: Symbol, m2: Symbol) -> Symbol:
    return make_symbol(space, m1.values * m2.values)


def split_symbol(m: Symbol) -> tuple[np.ndarray, np.ndarray]:
    """Split m = m1 + m2 with m1 bounded and |m2| >= 1 everywhere.

    Where |m| > SPLIT_FLOOR take (0, m); elsewhere take (m + 2, -2), so
    |m1| <= 3.
    """
    big = np.abs(m.values) > SPLIT_FLOOR
    m1 = np.where(big, 0.0, m.values + 2.0)
    m2 = np.where(big, m.values, -2.0)
    return m1, m2


# -- the operator --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiplierOperator:
    """A multiplier as its building blocks: maps omega, theta and a symbol.

    ``dense``, the K x K coefficient matrix, is formed on first read and is
    read-only; its singular values, injectivity and inverse are each
    computed at most once, on first use.  An operator that is only composed
    never forms it.
    """

    omega: DistributionMap
    theta: DistributionMap
    symbol: Symbol

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """E_theta^H diag(w * m) E_omega, read-only.  When both tables are
        diagonal it is the diagonal matrix of conj(theta) * w * m * omega,
        formed with no product; its inverse still comes from ``np.linalg.inv``."""
        wm = self.space.weights * self.symbol.values
        return _read_only(_weighted_product(self.theta, wm, self.omega))

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the dense matrix, largest first."""
        return _singular_values(self.dense)

    @functools.cached_property
    def injective(self) -> bool:
        """Full rank of the dense matrix by the one rank rule, ``model._full_rank``."""
        return _full_rank(self.singular_values)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Inverse of the dense matrix; SingularOperatorError unless injective."""
        if not self.injective:
            raise SingularOperatorError("multiplier is not injective")
        return np.linalg.inv(self.dense)

    @property
    def space(self) -> SampledMeasureSpace:
        return self.omega.space

    @property
    def dim(self) -> int:
        return self.omega.dim


def _check_factors(m: Symbol, omega: DistributionMap, theta: DistributionMap):
    _check_pair(omega, theta)
    if len(m.values) != omega.n_points:
        raise ShapeMismatchError("symbol not sampled on the shared space")


def _complex_normals(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """``count`` x k complex normals from one draw that yields Re, Im per row:
    the stream of ``count`` per-row draws of k real parts, then k imaginary."""
    draws = rng.standard_normal((count, 2, k))
    return draws[:, 0] + 1j * draws[:, 1]


def _unit_pairs(seed: int, trials: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``trials`` random pairs (f, g) of unit vectors as two trials x k blocks;
    f and g take alternate rows of one draw."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = _complex_normals(np.random.default_rng(seed), 2 * trials, k)
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows[0::2], rows[1::2]


@functools.lru_cache(maxsize=32)
def _validation_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``build``'s three pairs on K coefficients, drawn once per K; read-only."""
    rows = _read_only(_complex_normals(np.random.default_rng(7), 6, k))
    return rows[0::2], rows[1::2]


@functools.lru_cache(maxsize=32)
def _probe_block(n: int) -> np.ndarray:
    """Fixed n x _PROBES Rademacher (+-1) block from seed 7, drawn once per n;
    read-only.

    E||D X||_F^2 = _PROBES ||D||_F^2 for every matrix D, so
    ||D X||_F / sqrt(_PROBES) estimates ||D||_F: Freivalds (1977) for
    product verification, Halko, Martinsson & Tropp, SIAM Rev. 53 (2011),
    section 4.3, for the error of such estimates.
    """
    return _read_only(2.0 * np.random.default_rng(7).integers(0, 2, (n, _PROBES)) - 1.0)


def _scaled_back(compute: Callable[[np.ndarray], np.ndarray], values: np.ndarray,
                 what: str) -> np.ndarray:
    """``compute(values)``, a result of degree one in ``values`` (symbol
    values, or a matrix whose norm is taken), with overflow met by a
    power-of-two scale.

    The result is computed once as it stands.  Where it overflows (a square
    of a value above about 1.3e154, say), it is computed again from the
    values scaled by the power of two that takes their largest part below 1,
    and scaled back.  A power-of-two scale is exact, so a result that does
    not overflow keeps its bits; one that overflows even so cannot be
    represented, and is an InvalidValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute(values)
        if not np.all(np.isfinite(result)):
            peak = max(np.max(np.abs(values.real)), np.max(np.abs(values.imag)))
            scale = math.ldexp(1.0, -math.frexp(peak)[1])
            result = compute(values * scale) / scale
    if not np.all(np.isfinite(result)):
        raise InvalidValueError(f"{what} overflows: it cannot be represented")
    return result


def _synthesize(theta: DistributionMap, y: np.ndarray) -> np.ndarray:
    """E_theta^H y, as conj(E_theta^T conj(y)): no copy of E_theta^H."""
    return np.conj(_apply(theta, np.conj(y), transpose=True))


def _pairing_gap(weights: np.ndarray, left: np.ndarray, right: np.ndarray,
                 apply: Callable[[np.ndarray], np.ndarray],
                 f: np.ndarray, g: np.ndarray) -> float:
    """Worst |<apply(f), g> - sum_j weights_j (left f)_j conj((right g)_j)|
    over the row pairs (f, g); ``apply`` maps a block row by row.

    The defining sum takes one product per side, for all rows at once; each
    row is summed along its contiguous last axis.
    """
    pairings = f @ left.T
    pairings *= weights
    right_g = g @ right.T
    np.conj(right_g, out=right_g)
    pairings *= right_g
    paired = np.sum(np.conj(g) * apply(f), axis=-1)
    return float(np.max(np.abs(paired - pairings.sum(axis=-1))))


def build(m: Symbol, omega: DistributionMap, theta: DistributionMap,
          validate: bool = True) -> MultiplierOperator:
    """The multiplier of symbol m with analysis omega and synthesis theta.

    The two maps must share their space and model.  When ``validate`` is on,
    the dense matrix is formed and the defining pairing is checked on a few
    deterministic random pairs against the direct weighted sum; disagreement
    raises, since the two are the same computation in different association
    orders.  Without it no K x K matrix is formed.  An overflow inside the
    check is not warned about: it leaves an infinite or NaN gap, which the
    comparison judges.
    """
    _check_factors(m, omega, theta)
    op = MultiplierOperator(omega=omega, theta=theta, symbol=m)
    if validate:
        with np.errstate(over="ignore", invalid="ignore"):
            gap = _pairing_gap(omega.space.weights * m.values, omega.table,
                               theta.table, lambda f: f @ op.dense.T,
                               *_validation_pairs(omega.dim))
            scale = max(1.0, float(np.max(np.abs(op.dense))))
        if not gap <= RESIDUAL_TOL * scale * omega.dim:
            raise InconsistencyError("dense matrix disagrees with its pairing")
    return op


def operator_norm(op: MultiplierOperator) -> float:
    """Largest singular value of the dense matrix; :func:`norm_bound` bounds it."""
    return float(op.singular_values[0])


def norm_bound(op: MultiplierOperator) -> float:
    """Bessel-bound estimate sqrt(B_omega * B_theta) * ess_sup(m).

    Balazs, "Basic definition and properties of Bessel multipliers", JMAA
    325 (2007).
    """
    return _root_product(diagnose(op.omega).upper,
                         diagnose(op.theta).upper) * op.symbol.ess_sup


def _root_product(a: float, b: float) -> float:
    """sqrt(a * b) of two bounds, or sqrt(a) * sqrt(b) where a * b leaves the
    normal floats (it overflows, or underflows toward zero)."""
    product = a * b
    if np.finfo(float).tiny <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(a) * math.sqrt(b)


# -- composition calculus --------------------------------------------------------

def is_dual_pair(omega: DistributionMap, theta: DistributionMap) -> bool:
    """True when the mixed frame matrix of the two maps is the identity.

    That is exactly the reconstruction duality <f, g> = sum_j w_j
    <f, theta_j> <omega_j, g>; for a square table it makes the symbol
    calculus exact.  The verdict is decided once per pair and kept on
    ``omega``, which holds ``theta`` only weakly.
    """
    _check_pair(omega, theta)
    if omega.n_points != omega.dim:
        return False
    verdicts = omega._dual_pair_verdicts
    if theta not in verdicts:
        mixed = _weighted_product(theta, omega.space.weights, omega)
        with np.errstate(over="ignore"):  # an infinite defect is not dual
            defect = np.linalg.norm(mixed - np.eye(omega.dim))
        verdicts[theta] = bool(defect <= BOUND_TOL * math.sqrt(omega.dim))
    return verdicts[theta]


class CompositionReport(NamedTuple):
    """Product of two multipliers against the multiplier of the product symbol."""

    residual: float
    asserted: bool


def compose(op1: MultiplierOperator, op2: MultiplierOperator) -> CompositionReport:
    """Measure M_{m1} M_{m2} - M_{m1 m2} on the fixed K x _PROBES probe block X.

    With A = E_theta^H, B = E_omega and w the weights, each multiplier acts
    from its factors, M_m X = A (w m * B X), so no K x K matrix is formed.
    ``residual`` is ||(M1 M2 - M12) X||_F / sqrt(_PROBES), an estimate of the
    Frobenius residual.

    The identity is asserted, by the caller, only when both operators share
    a dual pair of maps with a square table (the symbolic-calculus regime);
    otherwise the residual measures how far the pair is from dual.
    """
    for map1, map2 in ((op1.omega, op2.omega), (op1.theta, op2.theta)):
        if map1 is not map2 and not np.array_equal(map1.table, map2.table):
            raise GridMismatchError("composition requires operators on the same maps")
    m12 = product_symbol(op1.space, op1.symbol, op2.symbol)
    omega, theta = op1.omega, op1.theta
    w = op1.space.weights[:, None]
    m1, m2 = op1.symbol.values[:, None], op2.symbol.values[:, None]
    # M1 M2 X applies each table twice: with entries near 1e154 it overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        bx = _apply(omega, _probe_block(op1.dim))
        m2x = _synthesize(theta, w * m2 * bx)
        direct = (_synthesize(theta, w * m1 * _apply(omega, m2x))
                  - _synthesize(theta, w * m12.values[:, None] * bx))
        residual = float(np.linalg.norm(direct)) / math.sqrt(_PROBES)
    if not math.isfinite(residual):
        raise InvalidValueError("composition overflows: its residual cannot be represented")
    return CompositionReport(residual=residual,
                             asserted=is_dual_pair(op1.omega, op1.theta))


def duality_defect(omega: DistributionMap, theta: DistributionMap) -> float:
    """Probe estimate of ||G - I||_F, G = E_omega E_theta^H diag(w), on the
    fixed J x _PROBES block; no J x J matrix is formed.

    With A = E_theta^H and B = E_omega,
    M_{m1} M_{m2} - M_{m1 m2} = A diag(w m1) (G - I) diag(m2) B, so G - I is
    what keeps the calculus from being exact: it is zero up to rounding on
    a square dual pair, and sqrt(J - K) on an overcomplete canonical pair
    on counting measure, where G is a rank-K orthogonal projection.
    """
    _check_pair(omega, theta)
    y = _probe_block(omega.n_points)
    gy = _apply(omega, _synthesize(theta, omega.space.weights[:, None] * y))
    return float(np.linalg.norm(gy - y)) / math.sqrt(_PROBES)


# -- invertibility ----------------------------------------------------------------

class InverseReport(NamedTuple):
    """Spectral invertibility facts plus the bounds that apply."""

    sigma_min: float
    sigma_max: float
    injective: bool
    inverse_norm: float
    lower_bound: float | None
    bound_satisfied: bool | None
    reciprocal_residual: float | None
    vanishing_points: tuple


def invert(op: MultiplierOperator) -> InverseReport:
    """Report injectivity, the inverse norm, and the applicable lower bounds.

    When the analysis map is mu-independent, the synthesis map total, and
    min|m| > RANK_RTOL * ess_sup|m| * kappa(omega) * kappa(theta) (kappa the
    condition number of a weighted table), sigma_min / sigma_max exceeds
    RANK_RTOL, so injectivity is guaranteed and its failure raises.  When
    both maps are Riesz bases and |m| >= C > 0, the smallest singular value
    must reach sqrt(A_theta * A_omega) * C (``bound_satisfied``); and for a
    dual pair the inverse must agree with the multiplier of 1/m
    (``reciprocal_residual``); the caller judges both.  These are the
    sufficient conditions of Stoeva & Balazs, "Invertibility of
    multipliers", ACHA 33 (2012).
    """
    m = op.symbol
    sigma = op.singular_values
    sigma_min, sigma_max = float(sigma[-1]), float(sigma[0])
    injective = op.injective
    inverse_norm = 1.0 / sigma_min if injective else float("inf")

    d_omega = diagnose(op.omega)
    d_theta = diagnose(op.theta)
    guaranteed = m.min_modulus > (RANK_RTOL * m.ess_sup * d_omega.condition_number
                                  * d_theta.condition_number)
    if d_omega.mu_independent and d_theta.total and guaranteed and not injective:
        raise InconsistencyError(
            "multiplier of a mu-independent/total pair with nonvanishing "
            "symbol must be injective"
        )

    riesz = (Classification.RIESZ_BASIS, Classification.GELFAND_BASIS)
    lower_bound = None
    bound_satisfied = None
    if (d_omega.classification in riesz and d_theta.classification in riesz
            and m.min_modulus > 0):
        lower_bound = _root_product(d_theta.lower, d_omega.lower) * m.min_modulus
        bound_satisfied = sigma_min >= lower_bound - BOUND_TOL

    reciprocal_residual = None
    if injective and m.nonvanishing and is_dual_pair(op.omega, op.theta):
        built = build(reciprocal_symbol(op.space, m), op.omega, op.theta,
                      validate=False).dense
        reciprocal_residual = float(_scaled_back(np.linalg.norm, op.inverse - built,
                                                 "reciprocal-symbol residual"))
    return InverseReport(
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        injective=injective,
        inverse_norm=inverse_norm,
        lower_bound=lower_bound,
        bound_satisfied=bound_satisfied,
        reciprocal_residual=reciprocal_residual,
        vanishing_points=m.vanishing_points(),
    )


# -- reconstruction pairs ----------------------------------------------------------

class Side(enum.Enum):
    LEFT = "left"    # left inverse: tau map replaces the synthesis side
    RIGHT = "right"  # right inverse: rho map replaces the analysis side


def reconstruction_pair(op: MultiplierOperator, side: Side,
                        trials: int = 20, seed: int = 0) -> tuple[DistributionMap, float]:
    """Build the reconstruction map induced by inverting the multiplier.

    RIGHT: with J = dense^{-1}, the map rho with table diag(m) E_omega J
    satisfies <f, g> = sum_j w_j <f, rho_j> <theta_j, g>.  LEFT: with the
    inverse acting on dual actions, tau with table diag(conj m) E_theta
    J^H satisfies <f, g> = sum_j w_j <f, omega_j> <tau_j, g>.  Returns the
    map and the worst pairing residual over random normalized pairs.
    """
    if not op.injective:
        raise SingularOperatorError("multiplier is singular; no reconstruction pair")
    inv = op.inverse
    m = op.symbol.values
    if side is Side.RIGHT:
        table, scale, mdl = _apply(op.omega, inv), m, op.omega.model
    else:
        table, scale, mdl = _apply(op.theta, inv.conj().T), np.conj(m), op.theta.model
    # Scaled in place with the symbol as the left operand, as scale * table
    # has it: a complex product need not round the same with its operands
    # swapped.
    np.multiply(scale[:, None], table, out=table)
    new = DistributionMap(table=_read_only(table), space=op.space, model=mdl)
    left, right = (new, op.theta) if side is Side.RIGHT else (op.omega, new)
    return new, _pairing_gap(op.space.weights, left.table, right.table,
                             lambda f: f, *_unit_pairs(seed, trials, op.dim))


# -- density -------------------------------------------------------------------

class DensityRecord(NamedTuple):
    index: int
    support_size: int
    sup_on_support: float
    symbol_l2_on_support: float
    bound: float
    norm_mf: float
    passed: bool


def density_certificate(omega: DistributionMap, theta: DistributionMap,
                        m: Symbol, family: np.ndarray,
                        support_tol: float = SUPPORT_TOL,
                        tol: float = RESIDUAL_TOL) -> WitnessReport:
    """Certify the dense-domain bound on a K x F proper-support witness family.

    For each witness f with analysis support X_f the norm of M f must stay
    below  sup_{X_f} |<f, omega_j>| * sqrt(B_theta) * ||m||_{L2(X_f)}; with
    a total family this is the finite shadow of a densely defined
    multiplier for locally square-integrable symbols.  Each ||M f|| comes
    from the factorization, as a column norm of E_theta^H (w * m * analysis)
    over the family's one analysis matrix; no operator is built.  Norms that
    overflow are taken from the symbol scaled by a power of two
    (``_scaled_back``).
    """
    if not _check_family(omega, family):
        return _EMPTY_FAMILY
    _check_factors(m, omega, theta)
    sqrt_b = math.sqrt(diagnose(theta).upper)
    analysis, values, on, total = _witness_analysis(omega, family, support_tol)
    c_f = np.max(values, axis=0, where=on, initial=0.0)
    del values  # freed before the J x F product below, which sets this suite's peak
    blocks = [analysis]  # the first call consumes it; a rescaled call forms it again
    del analysis

    def norms(m_values):
        m_l2 = np.sqrt((omega.space.weights * np.abs(m_values) ** 2) @ on)
        block = blocks.pop() if blocks else _apply(omega, family)
        # ||E_theta^H X|| = ||E_theta^T conj(X)|| per column: no copy of E_theta^H.
        block *= (omega.space.weights * m_values)[:, None]
        np.conj(block, out=block)
        mf = _apply(theta, block, transpose=True)
        del block
        # np.linalg.norm(mf, axis=0) bit for bit, from the sums of
        # (mf.conj() * mf).real, with the product formed in the conjugate's place.
        squares = np.conj(mf)
        np.multiply(squares, mf, out=squares)
        del mf
        return np.array([m_l2, c_f * sqrt_b * m_l2,
                         np.sqrt(np.add.reduce(squares.real, axis=0))])

    m_l2, bound, norm_mf = _scaled_back(norms, m.values, "density certificate norm")
    columns = (on.sum(axis=0), c_f, m_l2, bound, norm_mf, norm_mf <= bound + tol)
    records = tuple(DensityRecord(i, *row) for i, row in
                    enumerate(zip(*(column.tolist() for column in columns))))
    return _witness_verdict(total, records, "bound violated")
