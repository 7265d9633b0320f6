"""framelab: a numerical laboratory for weighted point-set frames.

Discretizes frame families indexed by a finite weighted point set, computes
their diagnostics (bounds, totality, independence, classification, duals),
builds multiplier operators from analysis/symbol/synthesis factorizations,
and re-verifies every identity through independent brute-force oracles.
"""

from .errors import (
    ConfigError,
    DegenerateBasisError,
    EmptySpaceError,
    FrameLabError,
    GridMismatchError,
    InconsistencyError,
    InvalidValueError,
    NotAFrameError,
    PreconditionError,
    ScheduleError,
    ShapeMismatchError,
    SingularOperatorError,
    UnsupportedSpaceError,
)
from .measure import (
    RefinementFamily,
    SampledMeasureSpace,
    counting,
    ess_sup,
    fourier_grid,
    l2_inner,
    periodic_unit_grid,
    same_grid,
    symmetric_grid,
    symmetric_grid_family,
)
from .model import (
    GaussianBumps,
    ModelSpace,
    RawSamples,
    Trigonometric,
    dual_grid,
    from_samples,
    make_model,
    orthonormalize,
    to_samples,
    transform_matrix,
)
from .maps import (
    Classification,
    DistributionMap,
    FrameDiagnostics,
    TransitionReport,
    WitnessReport,
    band_limited_family,
    bump_family,
    canonical_dual,
    check_hyper_orthogonal,
    check_pseudo_orthogonal,
    delta_frame,
    diagnose,
    discrete_sequence_map,
    exponential_frame,
    riesz_transition,
    scaled_bump_family,
    translated_window_frame,
    weighted_delta_frame,
)
from .multiplier import (
    CompositionReport,
    InverseReport,
    MultiplierOperator,
    Side,
    Symbol,
    build,
    compose,
    density_certificate,
    duality_defect,
    invert,
    is_dual_pair,
    make_symbol,
    norm_bound,
    operator_norm,
    product_symbol,
    reciprocal_symbol,
    reconstruction_pair,
    split_symbol,
)
from .lab import (
    GrowthVerdict,
    QuartetReport,
    ReductionComparison,
    SweepResult,
    brute_force_pairing,
    coordinate_multiplier,
    discrete_reduction_oracle,
    duality_residual,
    fourier_quartet_check,
    unboundedness_sweep,
    weighted_delta_sweep,
)

__version__ = "0.1.0"
