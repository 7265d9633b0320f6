"""Independent oracles and stress harnesses.

Every identity asserted elsewhere is re-verified here along a code path
that never reuses the factored representations: pairings by direct weighted
summation, discrete frame bounds from explicitly accumulated outer
products, transforms and circular convolutions from their defining sums.
Independence means defining sums, never an FFT or a factored map: a
transform is its kernel matrix applied to the weighted samples, and a
circular convolution is accumulated term by term in index order, bit for
bit as the scalar double loop would accumulate it.  The pairing oracles
share only their random stream with the production code
(``multiplier._complex_normals``): their sum over j is accumulated here,
one term at a time in index order, and never by the code that ``build``
validates with.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InconsistencyError, ScheduleError, UnsupportedSpaceError
from .maps import (
    DistributionMap,
    _check_counting,
    _check_pair,
    delta_frame,
    diagnose,
    discrete_sequence_map,
    exponential_frame,
    weighted_delta_frame,
)
from .measure import (
    RefinementFamily,
    SampledMeasureSpace,
    counting,
    fourier_grid,
    symmetric_grid,
    symmetric_grid_family,
)
from .model import (
    RANK_RTOL,
    ModelSpace,
    RawSamples,
    from_samples,
    make_model,
    to_samples,
)
from .multiplier import (
    RESIDUAL_TOL,
    MultiplierOperator,
    Symbol,
    _complex_normals,
    build,
    make_symbol,
    operator_norm,
)

REDUCTION_TOL = 1e-14  # classical and table-path bounds agree to it * max(1, B)
NORM_FLOOR = 0.9  # each weighted-delta sweep norm reaches NORM_FLOOR * L
GROWTH_THRESHOLD = 0.25  # a fitted growth exponent above it is growth
MIN_SWEEP_STEPS = 3  # schedule steps a growth fit needs
LOG_FLOOR = 1e-300  # a growth fit leaves out values at or below it (log guard)


# -- pairing oracle ------------------------------------------------------------

def _pairing_sum(weights: np.ndarray, left: np.ndarray, right: np.ndarray,
                 apply: Callable[[np.ndarray], np.ndarray], trials: int,
                 seed: int) -> float:
    """Worst |<apply(f), g> - sum_j weights_j <f, left_j> conj(<g, right_j>)|
    over ``trials`` unit pairs (f, g), alternate rows of one draw; ``apply``
    maps a block row by row.  Row j of ``left @ f.T`` holds <f, left_j> for
    every trial, and the sum over j is accumulated term by term in index order.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = _complex_normals(np.random.default_rng(seed), 2 * trials, left.shape[1])
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    f, g = rows[0::2], rows[1::2]
    total = np.zeros(trials, dtype=complex)
    for w, left_f, right_g in zip(weights, left @ f.T, right @ g.T):
        total += w * left_f * np.conj(right_g)
    paired = np.sum(np.conj(g) * apply(f), axis=-1)
    return float(np.max(np.abs(paired - total)))


def brute_force_pairing(op: MultiplierOperator, trials: int = 100,
                        seed: int = 0) -> float:
    """Worst deviation of the dense pairing from the defining weighted sum.

    Draws random coefficient pairs (f, g) and compares <M f, g> computed
    through the dense matrix against  sum_j w_j m_j <f, omega_j>
    conj(<g, theta_j>)  accumulated term by term from the tables.
    """
    return _pairing_sum(op.space.weights * op.symbol.values, op.omega.table,
                        op.theta.table, lambda f: f @ op.dense.T, trials, seed)


def duality_residual(omega: DistributionMap, theta: DistributionMap,
                     trials: int = 100, seed: int = 0) -> float:
    """Worst deviation of sum_j w_j <f, theta_j> <omega_j, g> from <f, g>."""
    _check_pair(omega, theta)
    return _pairing_sum(omega.space.weights, theta.table, omega.table, lambda f: f,
                        trials, seed)


# -- discrete reduction oracle ----------------------------------------------------

@dataclass(frozen=True)
class ReductionComparison:
    """Classical discrete frame bounds against the table-path diagnostics."""

    classical_lower: float
    classical_upper: float
    classical_total: bool
    maps_lower: float
    maps_upper: float
    maps_total: bool
    max_deviation: float
    agree: bool


def discrete_reduction_oracle(vectors: Sequence | DistributionMap,
                              tol: float = REDUCTION_TOL) -> ReductionComparison:
    """Compare classical discrete frame bounds with the table-path diagnostics.

    The classical side accumulates sum_j |phi_j><phi_j| explicitly and takes
    its extreme eigenvalues; the table path goes through the counting-measure
    map, whose bounds are the squared extreme singular values of its table.
    The two are different decompositions of one operator, so they agree to
    rounding, a relative deviation of at most a few 1e-15, under ``tol``.
    ``vectors`` is a J x K table of rows phi_j, or a map on counting measure
    (PreconditionError otherwise), whose own cached diagnostics are read.
    """
    omega = vectors
    if not isinstance(omega, DistributionMap):  # a table: its counting-measure map
        model = make_model(counting(np.shape(vectors)[-1]), RawSamples())
        omega = discrete_sequence_map(model, vectors)
    _check_counting(omega.space)
    j, k = omega.table.shape
    gram = np.zeros((k, k), dtype=complex)
    for row in omega.vectors():  # explicit accumulation, no matmul shortcut
        gram += np.outer(row, np.conj(row))
    eigs = np.linalg.eigvalsh(gram)
    classical_upper = float(max(eigs[-1], 0.0))
    classical_lower = float(max(eigs[0], 0.0)) if j >= k else 0.0
    classical_total = j >= k and classical_lower > (RANK_RTOL ** 2) * classical_upper

    diag = diagnose(omega)

    scale = max(1.0, classical_upper)
    deviation = max(
        abs(diag.lower - classical_lower), abs(diag.upper - classical_upper)
    )
    agree = deviation <= tol * scale and diag.total == classical_total
    return ReductionComparison(
        classical_lower=classical_lower,
        classical_upper=classical_upper,
        classical_total=classical_total,
        maps_lower=diag.lower,
        maps_upper=diag.upper,
        maps_total=diag.total,
        max_deviation=float(deviation),
        agree=agree,
    )


# -- transform quartet oracle -------------------------------------------------------

def _transform_kernel(space: SampledMeasureSpace,
                      inverse: bool = False) -> np.ndarray:
    """Kernel exp(-+2 pi i x x^T) of the weighted transform, self-dual grids only.

    The transform of ``values`` is the defining sum
    ``kernel @ (space.weights * values)``.
    """
    x = space.points
    sign = 2j if inverse else -2j
    return np.exp(sign * np.pi * np.outer(x, x))


def _direct_convolution(space: SampledMeasureSpace, a: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    """Weighted circular convolutions sum_l w_l a_l b_{j-l} by their defining sum.

    ``a`` and ``b`` hold one sequence or a stack of rows, convolved row by
    row.  All rows and all j are accumulated at once, over l = 0..n-1 in
    index order, in memory linear in the input.  The complex products are
    written in real arithmetic, so each term rounds as the scalar product
    w_l a_l b_{j-l} does (NumPy's SIMD complex multiply on arrays rounds
    differently) and every row is bit for bit that of the scalar double
    loop.
    """
    n = len(space)
    w = space.weights
    war, wai = w * np.real(a), w * np.imag(a)
    # br[..., n-l:2n-l] = Re b_{(j-l) % n}
    br = np.concatenate([np.real(b), np.real(b)], axis=-1)
    bi = np.concatenate([np.imag(b), np.imag(b)], axis=-1)
    out = np.zeros(np.shape(b), dtype=complex)
    re, im = out.real, out.imag  # views: accumulating here fills out
    for l in range(n):
        ar, ai = war[..., l, None], wai[..., l, None]
        shifted_r, shifted_i = br[..., n - l:2 * n - l], bi[..., n - l:2 * n - l]
        re += ar * shifted_r - ai * shifted_i
        im += ar * shifted_i + ai * shifted_r
    return out


@dataclass(frozen=True)
class QuartetReport:
    """Residuals of the four delta/exponential multipliers against oracles.

    Members are keyed by their (analysis, synthesis) pair: ``dd`` is
    pointwise multiplication, ``de`` inverse-transform convolution,
    ``ed`` multiplication after the forward transform, ``ee`` convolution
    with the inverse-transformed symbol.
    """

    n: int
    residuals: dict
    passed: bool
    convention: str
    flipped_passes: dict


def fourier_quartet_check(n: int, symbol_values, trials: int = 5,
                          seed: int = 0, tol: float = RESIDUAL_TOL
                          ) -> QuartetReport | tuple[QuartetReport, ...]:
    """Check the four multipliers of the point/frequency pair on one grid.

    Uses the self-dual grid, where analysis with the exponential family is
    exactly the forward weighted transform.  Expected actions on samples:

    * analysis delta, synthesis delta:  f -> m * f
    * analysis delta, synthesis exp:    f -> m_inv ( * ) f_inv  (circular)
    * analysis exp,   synthesis delta:  f -> m * f_fwd
    * analysis exp,   synthesis exp:    f -> m_inv ( * ) f

    where ``_fwd``/``_inv`` are the forward/inverse weighted transforms.
    If a member misses the tolerance, the report says whether it passes with
    the transform direction flipped, which pins down a convention mismatch.

    ``symbol_values`` is one n-vector, which gives one QuartetReport, or an
    S x n stack of symbols, which gives a tuple of S reports in row order,
    each equal bit for bit to the report of its row alone; every symbol is
    checked against the same ``trials`` random samples.  The grid, the model,
    the samples and their transforms, one delta and one exponential frame
    serve the whole stack.  Each direction's transform kernel is built once
    per call and applied to every symbol and every sample before the next
    one is built, so at most one n x n kernel is alive, and none once the
    operators exist.  The S * 4 * trials convolutions of the expected and
    the flipped members run as one stacked pass.  Each symbol's four
    operators are built in turn, and only one operator is alive at a time.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    space = fourier_grid(n)
    model = make_model(space, RawSamples())
    values = np.asarray(symbol_values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[-1] != n:
        raise UnsupportedSpaceError(f"symbol must be sampled on the {n}-point grid")
    stack = values.reshape(-1, n)
    if not len(stack):
        raise ValueError("need at least one symbol")
    symbols = [make_symbol(space, m) for m in stack]
    w = space.weights
    samples = np.array([f / np.linalg.norm(f) for f in
                        _complex_normals(np.random.default_rng(seed), trials, n)])

    def transforms(inverse: bool):
        kernel = _transform_kernel(space, inverse=inverse)
        return ([kernel @ (w * m) for m in stack],
                np.array([kernel @ (w * f) for f in samples]))

    m_fwds, f_fwds = transforms(inverse=False)
    m_invs, f_invs = transforms(inverse=True)
    # Per symbol and trial: "de" and "ee" as expected, then with the
    # direction flipped.
    convolved = _direct_convolution(
        space,
        np.array([a for m_fwd, m_inv in zip(m_fwds, m_invs)
                  for a in [m_inv, m_inv, m_fwd, m_fwd] * trials]),
        np.array([b for f, f_fwd, f_inv in zip(samples, f_fwds, f_invs)
                  for b in (f_inv, f, f_fwd, f)] * len(stack)),
    ).reshape(len(stack), trials, 4, n)
    trial_data = (samples, f_fwds, f_invs, [from_samples(model, f) for f in samples])

    delta, exponential = delta_frame(model, space), exponential_frame(model, space)
    members = {"dd": (delta, delta), "de": (delta, exponential),
               "ed": (exponential, delta), "ee": (exponential, exponential)}
    reports = tuple(_quartet_report(sym, model, members, trial_data, rows, tol)
                    for sym, rows in zip(symbols, convolved))
    return reports[0] if values.ndim == 1 else reports


def _quartet_report(sym: Symbol, model: ModelSpace, members: dict, trial_data,
                    convolved: np.ndarray, tol: float) -> QuartetReport:
    """One symbol's report: each member's operator against its expected and
    its direction-flipped action on every trial sample.

    ``trial_data`` holds the trials x n samples, their forward and inverse
    transforms, and the samples' coefficient vectors.  The operators are
    built in member order, unvalidated (their action on the trials is the
    check), and each is freed before the next one is built.
    """
    m = sym.values
    f, f_fwd, f_inv, coeffs = trial_data
    de, ee, de_flipped, ee_flipped = np.moveaxis(convolved, 1, 0)
    expected = {"dd": m * f, "de": de, "ed": m * f_fwd, "ee": ee}
    flipped_targets = {"dd": expected["dd"], "de": de_flipped, "ed": m * f_inv,
                       "ee": ee_flipped}
    residuals, flipped = {}, {}
    for key, (omega, theta) in members.items():
        op = build(sym, omega, theta, validate=False)
        got = np.array([to_samples(model, op.dense @ c) for c in coeffs])
        del op
        residuals[key] = float(np.max(np.abs(got - expected[key])))
        flipped[key] = float(np.max(np.abs(got - flipped_targets[key])))
    passed = all(r <= tol for r in residuals.values())
    flipped_passes = {key: flipped[key] <= tol for key in members}
    return QuartetReport(
        n=len(m),
        residuals=residuals,
        passed=passed,
        convention="analysis of the exponential family is the forward transform",
        flipped_passes=flipped_passes,
    )


# -- growth sweeps --------------------------------------------------------------

class GrowthVerdict(enum.Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SweepResult:
    """Operator norms along a symmetric-grid schedule with a growth verdict."""

    schedule: tuple
    norms: tuple
    fitted_growth: float
    verdict: GrowthVerdict
    threshold: float

    def to_csv(self) -> str:
        lines = ["step,n,L,norm"]
        for step, ((n, L), norm) in enumerate(zip(self.schedule, self.norms)):
            lines.append(f"{step},{n},{L},{norm!r}")
        return "\n".join(lines) + "\n"


def _growth_exponent(schedule, values) -> float:
    """Log-log slope of values against L, or against n when L is fixed."""
    ls = [L for _, L in schedule]
    abscissae = ls if len(set(ls)) > 1 else [n for n, _ in schedule]
    xs, ys = [], []
    for x, y in zip(abscissae, values):
        if y > LOG_FLOOR:
            xs.append(math.log(x))
            ys.append(math.log(y))
    if len(xs) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def unboundedness_sweep(
        family: RefinementFamily,
        builder: Callable[[SampledMeasureSpace], MultiplierOperator]) -> SweepResult:
    """Operator norm per schedule step, growth fit, bounded/unbounded verdict."""
    if len(family) < MIN_SWEEP_STEPS:
        raise ScheduleError(
            f"a growth sweep needs at least {MIN_SWEEP_STEPS} schedule steps")
    norms = tuple(operator_norm(builder(symmetric_grid(n, L)))
                  for n, L in family.schedule)
    growth = _growth_exponent(family.schedule, norms)
    return SweepResult(
        schedule=family.schedule,
        norms=norms,
        fitted_growth=growth,
        verdict=(GrowthVerdict.UNBOUNDED if growth > GROWTH_THRESHOLD
                 else GrowthVerdict.BOUNDED),
        threshold=GROWTH_THRESHOLD,
    )


def coordinate_multiplier(space: SampledMeasureSpace) -> MultiplierOperator:
    """Multiplier of the coordinate-weighted point family against the plain one.

    Discretization of the standard unbounded example: analysis against
    x * delta_x with unit symbol; its dense matrix is diag(x), so the norm
    at half-width L is exactly L.
    """
    model = make_model(space, RawSamples())
    omega = weighted_delta_frame(model, space, lambda x: x)
    theta = delta_frame(model, space)
    return build(make_symbol(space, np.ones(len(space))), omega, theta,
                 validate=False)


def weighted_delta_family(l_values: Sequence[float],
                          points_per_unit: int = 8) -> RefinementFamily:
    """Symmetric grids of half-widths ``l_values``, ``points_per_unit`` per unit."""
    return symmetric_grid_family(tuple(
        (int(points_per_unit * L) + 1, float(L)) for L in l_values
    ))


def norm_floor_misses(result: SweepResult) -> list[str]:
    """One message per step whose norm stays below NORM_FLOOR * L."""
    return [f"norm {norm:.3e} below {NORM_FLOOR}*L at L={L}"
            for (_, L), norm in zip(result.schedule, result.norms)
            if not norm >= NORM_FLOOR * L]


def weighted_delta_sweep(l_values: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
                         points_per_unit: int = 8,
                         check: bool = True) -> SweepResult:
    """Standard unbounded sweep over symmetric grids of growing half-width.

    With ``check`` the per-step norm must reach NORM_FLOOR * L (it equals L
    exactly on grids containing the endpoints) or the sweep raises.
    """
    result = unboundedness_sweep(weighted_delta_family(l_values, points_per_unit),
                                 coordinate_multiplier)
    misses = norm_floor_misses(result)
    if check and misses:
        raise InconsistencyError(f"weighted-delta {misses[0]}")
    return result
