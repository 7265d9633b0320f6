"""Config-driven experiment runner.

Reads a single JSON document describing a space, a model, two frame
families, a symbol and a set of verification suites; runs the suites in
dependency order; writes one deterministic JSON report per suite plus
optional CSV sweep data.  Exit codes: 0 all assertions passed, 2 parse
error, 3 validation error, 4 at least one suite assertion failed.
"""

from __future__ import annotations

import argparse
import csv
import enum
import json
import math
import sys
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np

from . import lab, maps, measure, model, multiplier
from .errors import ConfigError, FrameLabError

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ASSERTION = 4

SUITE_ORDER = (
    "diagnose",
    "dual",
    "multiplier",
    "calculus",
    "invert",
    "reconstruct",
    "orthogonality",
    "density",
    "sweep",
    "quartet",
    "oracle",
)
RANDOMIZED_SUITES = frozenset(
    {"dual", "multiplier", "calculus", "invert", "reconstruct", "quartet", "oracle"}
)

CATALOG = {
    "spaces": {
        "counting": {
            "params": {"n": "int"},
            "note": "atomic points 0..n-1 with unit mass",
        },
        "periodic_unit_grid": {
            "params": {"n": "int"},
            "note": "midpoint rule on [0, 1): points j/n, weights 1/n, period 1",
        },
        "fourier_grid": {
            "params": {"n": "int"},
            "note": "self-dual periodic grid, spacing 1/sqrt(n); exact transform regime",
        },
        "symmetric_grid": {
            "params": {"n": "int", "half_width": "float"},
            "note": "uniform grid on [-L, L] including both endpoints",
        },
    },
    "models": {
        "raw_samples": {
            "params": {},
            "note": "standard coordinates of the sample space (K = N)",
        },
        "trigonometric": {
            "params": {"max_degree": "int"},
            "note": "complex exponentials, frequencies -d..d (or -d..d-1 when 2d = n)",
        },
        "gaussian_bumps": {
            "params": {"centers": "[float]", "width": "float"},
            "note": "orthonormalized Gaussian columns at the given centers",
        },
    },
    "frames": {
        "delta": {
            "params": {},
            "note": "point evaluations f -> f(x_j); Parseval on exact grids",
        },
        "exponential": {
            "params": {},
            "note": "frequency functionals f -> fhat(g_j) (forward transform rows)",
        },
        "weighted_delta": {
            "params": {"weight": "'coordinate' | [complex]"},
            "note": "scaled point evaluations wf(x_j) f(x_j); canonical unbounded family",
        },
        "translated_window": {
            "params": {"window": "[complex] | {family: gaussian_window, width, center}"},
            "note": "circular translates of a window on a uniform grid",
        },
        "discrete": {
            "params": {"vectors": "[[complex]] | csv path"},
            "note": "finite vector family on counting measure (space/model implied)",
        },
        "custom": {
            "params": {"csv": "path"},
            "note": "evaluation table from CSV, complex entries as 'a+bi'",
        },
        "canonical_dual": {
            "params": {},
            "note": "canonical dual of the analysis frame (synthesis side only)",
        },
        "same": {
            "params": {},
            "note": "reuse the analysis frame (synthesis side only)",
        },
    },
    "symbols": {
        "constant": {"params": {"value": "complex"}, "note": "m(x) = value"},
        "coordinate": {"params": {}, "note": "m(x) = x"},
        "step": {
            "params": {"low": "complex", "high": "complex", "at": "float"},
            "note": "m = low below the threshold, high at and above it",
        },
        "random_phase": {
            "params": {"seed": "int"},
            "note": "unimodular random phases; |m| = 1 everywhere",
        },
        "reciprocal_safe": {
            "params": {"floor": "float", "ceil": "float", "seed": "int"},
            "note": "random phases with modulus in [floor, ceil]; floor > 0",
        },
        "csv": {"params": {"path": "path"}, "note": "rows of point,re,im"},
    },
}


# -- json helpers ---------------------------------------------------------------

def _jsonify(value):
    """Recursively convert reports to deterministic JSON-compatible data."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if np.isfinite(f) else repr(f)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if is_dataclass(value) and hasattr(value, "to_dict"):
        return _jsonify(value.to_dict())
    return value


def _parse_complex(text: str, field: str) -> complex:
    """Parse 'a+bi' (or plain numbers) into a complex value."""
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ConfigError(field, f"cannot read complex entry {text!r}") from None


def _finite(values: np.ndarray, field: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ConfigError(field, "entries must be finite")
    return values


def _as_complex_list(values, field: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ConfigError(field, "must be a list of complex entries")
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(_parse_complex(v, field))
        elif (isinstance(v, list) and len(v) == 2
              and all(isinstance(x, (int, float)) for x in v)):
            out.append(complex(v[0], v[1]))
        elif isinstance(v, (int, float)):
            out.append(complex(v))
        else:
            raise ConfigError(field, f"cannot read complex entry {v!r}")
    return _finite(np.asarray(out, dtype=complex), field)


# -- config ------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    space: dict
    model: dict
    omega: dict
    theta: dict
    symbol: dict
    suites: tuple
    tolerance: float
    seed: int | None
    output_dir: str
    sweep: dict
    quartet: dict
    orthogonality: dict
    raw: dict


def parse_config(raw: dict) -> ExperimentConfig:
    def section(name, default=None):
        value = raw.get(name, default)
        if value is None:
            raise ConfigError(name, "missing required section")
        if not isinstance(value, dict):
            raise ConfigError(name, "must be a JSON object")
        return value

    suites = raw.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ConfigError("suites", "must be a nonempty list")
    for s in suites:
        if s not in SUITE_ORDER:
            raise ConfigError("suites", f"unknown suite {s!r}")
    suites = tuple(s for s in SUITE_ORDER if s in suites)

    seed = raw.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ConfigError("seed", "must be an integer")
    if seed is None and any(s in RANDOMIZED_SUITES for s in suites):
        raise ConfigError("seed", "required when a randomized suite is selected")

    # The quartet and sweep suites build their own spaces and maps.
    quartet_only = set(suites) <= {"quartet", "sweep"}
    omega = section("omega", {} if quartet_only else None)
    implied = quartet_only or omega.get("family") == "discrete"
    space = section("space", {} if implied else None)
    model_cfg = section("model", {} if implied else None)

    tolerance = _need(raw, "tolerance", "", float, 1e-10)
    if not tolerance > 0:
        raise ConfigError("tolerance", "must be positive")

    return ExperimentConfig(
        space=space,
        model=model_cfg,
        omega=omega,
        theta=section("theta", {"family": "same"}),
        symbol=section("symbol", {"family": "constant", "value": 1.0}),
        suites=suites,
        tolerance=tolerance,
        seed=seed,
        output_dir=str(raw.get("output_dir", "reports")),
        sweep=section("sweep", {}),
        quartet=section("quartet", {}),
        orthogonality=section("orthogonality", {}),
        raw=raw,
    )


_REQUIRED = object()


def _need(cfg: dict, field: str, path: str, kind=None, default=_REQUIRED):
    """Read a parameter converted by ``kind``; bad input is a ConfigError."""
    name = f"{path}.{field}" if path else field
    if field not in cfg:
        if default is _REQUIRED:
            raise ConfigError(name, "missing required parameter")
        return default
    value = cfg[field]
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(name, f"invalid value {value!r}") from None


def _positive(value) -> float:
    """A finite JSON number > 0; strings, booleans, NaN and 0 do not pass."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and value > 0)):
        raise ValueError(value)
    return float(value)


def _count(value) -> int:
    """A whole JSON number >= 1: 8 and 8.0 pass; 2.5, "8", true and 0 do not."""
    number = _positive(value)
    if not number.is_integer():
        raise ValueError(value)
    return int(number)


def _nonempty_list(kind):
    """Reader of a nonempty JSON list whose entries ``kind`` converts."""
    def read(value):
        if not isinstance(value, list) or not value:
            raise ValueError(value)
        return [kind(v) for v in value]
    return read


def build_space(cfg: dict, path: str = "space") -> measure.SampledMeasureSpace:
    family = _need(cfg, "family", path)
    if family not in CATALOG["spaces"]:
        raise ConfigError(f"{path}.family", f"unknown space family {family!r}")
    n = _need(cfg, "n", path, int)
    if n < (2 if family == "symmetric_grid" else 1):
        raise ConfigError(f"{path}.n", f"too few points: {n}")
    if family == "counting":
        return measure.counting(n)
    if family == "periodic_unit_grid":
        return measure.periodic_unit_grid(n)
    if family == "fourier_grid":
        return measure.fourier_grid(n)
    half_width = _need(cfg, "half_width", path, float)
    if not half_width > 0:
        raise ConfigError(f"{path}.half_width", "must be positive")
    return measure.symmetric_grid(n, half_width)


def build_model(cfg: dict, space: measure.SampledMeasureSpace,
                path: str = "model") -> model.ModelSpace:
    family = _need(cfg, "family", path)
    if family == "raw_samples":
        return model.make_model(space, model.RawSamples())
    if family == "trigonometric":
        return model.make_model(
            space, model.Trigonometric(_need(cfg, "max_degree", path, int))
        )
    if family == "gaussian_bumps":
        centers = _need(cfg, "centers", path, lambda v: tuple(float(c) for c in v))
        return model.make_model(
            space, model.GaussianBumps(centers, _need(cfg, "width", path, float))
        )
    raise ConfigError(f"{path}.family", f"unknown model family {family!r}")


def _load_table_csv(path_str: str, field: str) -> np.ndarray:
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(field, f"file does not exist: {path}")
    rows = []
    with path.open(newline="") as handle:
        for row in csv.reader(handle):
            if row:
                rows.append([_parse_complex(cell, field) for cell in row])
    if not rows:
        raise ConfigError(field, "CSV table is empty")
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(field, "CSV rows differ in length")
    return _finite(np.asarray(rows, dtype=complex), field)


def _discrete_table(cfg: dict, path: str) -> np.ndarray:
    """J x K table of a discrete family: inline rows or a CSV file."""
    vectors = _need(cfg, "vectors", path)
    field = f"{path}.vectors"
    if isinstance(vectors, str):
        return _load_table_csv(vectors, field)
    if not isinstance(vectors, list) or not vectors:
        raise ConfigError(field, "must be a CSV path or a nonempty list of vectors")
    rows = [_as_complex_list(v, field) for v in vectors]
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(field, "vectors differ in length")
    return np.asarray(rows)


def _gaussian_window(space, cfg, path: str) -> np.ndarray:
    width = _need(cfg, "width", path, float, space.extent / 8.0)
    center = _need(cfg, "center", path, float, float(space.points[0]))
    cut = _need(cfg, "cutoff", path, float, 1e-3)
    values = np.exp(-((space.points - center) ** 2) / (2 * width ** 2))
    values[values < cut] = 0.0  # truncate so the support is proper
    return values


def build_frame(cfg: dict, mdl: model.ModelSpace,
                space: measure.SampledMeasureSpace, path: str,
                analysis: maps.DistributionMap | None = None) -> maps.DistributionMap:
    family = _need(cfg, "family", path)
    if family == "same":
        if analysis is None:
            raise ConfigError(f"{path}.family", "'same' is only valid for theta")
        return analysis
    if family == "canonical_dual":
        if analysis is None:
            raise ConfigError(f"{path}.family", "'canonical_dual' is only valid for theta")
        return maps.canonical_dual(analysis)
    if family == "delta":
        return maps.delta_frame(mdl, space)
    if family == "exponential":
        return maps.exponential_frame(mdl, space)
    if family == "weighted_delta":
        weight = cfg.get("weight", "coordinate")
        if weight == "coordinate":
            return maps.weighted_delta_frame(mdl, space, lambda x: x)
        return maps.weighted_delta_frame(
            mdl, space, _as_complex_list(weight, f"{path}.weight")
        )
    if family == "translated_window":
        window = _need(cfg, "window", path)
        if isinstance(window, dict):
            values = _gaussian_window(space, window, f"{path}.window")
        else:
            values = _as_complex_list(window, f"{path}.window")
        return maps.translated_window_frame(mdl, space, values)
    if family == "discrete":
        return maps.discrete_sequence_map(mdl, _discrete_table(cfg, path), space)
    if family == "custom":
        table = _load_table_csv(_need(cfg, "csv", path), f"{path}.csv")
        if table.shape != (len(space), mdl.dim):
            raise ConfigError(
                f"{path}.csv",
                f"table shape {table.shape} does not match space/model "
                f"({len(space)}, {mdl.dim})",
            )
        return maps.DistributionMap(table=table, space=space, model=mdl)
    raise ConfigError(f"{path}.family", f"unknown frame family {family!r}")


def build_symbol(cfg: dict, space: measure.SampledMeasureSpace,
                 path: str = "symbol") -> multiplier.Symbol:
    family = _need(cfg, "family", path)
    n = len(space)
    if family == "constant":
        value = _as_complex_list([cfg.get("value", 1.0)], f"{path}.value")[0]
        values = np.full(n, value)
    elif family == "coordinate":
        values = space.points
    elif family == "step":
        low = _need(cfg, "low", path, complex, 0.0)
        high = _need(cfg, "high", path, complex, 1.0)
        at = _need(cfg, "at", path, float, float(np.median(space.points)))
        values = np.where(space.points < at, low, high)
    elif family == "random_phase":
        rng = np.random.default_rng(_need(cfg, "seed", path, int))
        values = np.exp(2j * np.pi * rng.random(n))
    elif family == "reciprocal_safe":
        floor = _need(cfg, "floor", path, float, 1.0)
        ceil = _need(cfg, "ceil", path, float, 2.0)
        if not floor > 0:
            raise ConfigError(f"{path}.floor", "must be positive")
        rng = np.random.default_rng(_need(cfg, "seed", path, int))
        modulus = rng.uniform(floor, ceil, n)
        values = modulus * np.exp(2j * np.pi * rng.random(n))
    elif family == "csv":
        file_path = Path(_need(cfg, "path", path))
        if not file_path.exists():
            raise ConfigError(f"{path}.path", f"file does not exist: {file_path}")
        points, values = [], []
        with file_path.open(newline="") as handle:
            try:
                for row in csv.reader(handle):
                    if row:
                        points.append(float(row[0]))
                        values.append(complex(float(row[1]), float(row[2])))
            except (IndexError, ValueError):
                raise ConfigError(f"{path}.path",
                                  "rows must be point,re,im numbers") from None
        if len(points) != n or not np.allclose(points, space.points, atol=1e-12):
            raise ConfigError(f"{path}.path", "CSV points do not match the space")
    else:
        raise ConfigError(f"{path}.family", f"unknown symbol family {family!r}")
    values = _finite(np.asarray(values, dtype=complex), path)
    return multiplier.make_symbol(space, values)


# -- experiment context --------------------------------------------------------------

@dataclass
class Context:
    config: ExperimentConfig
    space: measure.SampledMeasureSpace
    model: model.ModelSpace
    omega: maps.DistributionMap
    theta: maps.DistributionMap
    symbol: multiplier.Symbol

    def operator(self) -> multiplier.MultiplierOperator:
        return multiplier.build(self.symbol, self.omega, self.theta)


def build_context(config: ExperimentConfig) -> Context:
    if config.omega.get("family") == "discrete":
        # The table fixes the space and the model, so it is read only once.
        table = _discrete_table(config.omega, "omega")
        space = measure.counting(len(table))
        mdl = model.make_model(measure.counting(table.shape[1]), model.RawSamples())
        omega = maps.discrete_sequence_map(mdl, table, space)
    else:
        space = build_space(config.space)
        mdl = build_model(config.model, space)
        omega = build_frame(config.omega, mdl, space, "omega")
    theta = build_frame(config.theta, mdl, space, "theta", analysis=omega)
    symbol = build_symbol(config.symbol, space)
    return Context(
        config=config, space=space, model=mdl, omega=omega, theta=theta,
        symbol=symbol,
    )


def _suite_seed(root_seed: int | None, suite: str) -> int:
    index = SUITE_ORDER.index(suite)
    seq = np.random.SeedSequence([0 if root_seed is None else root_seed, index])
    return int(seq.generate_state(1)[0])


# -- suites ---------------------------------------------------------------------------

def _suite_diagnose(ctx: Context, seed: int, tol: float):
    d_omega = maps.diagnose(ctx.omega)
    d_theta = maps.diagnose(ctx.theta)
    return {
        "model": ctx.model.summary(),
        "omega": d_omega.to_dict(),
        "theta": d_theta.to_dict(),
    }, []


def _suite_dual(ctx: Context, seed: int, tol: float):
    failures = []
    diag = maps.diagnose(ctx.omega)
    dual = maps.canonical_dual(ctx.omega)
    residual = lab.duality_residual(ctx.omega, dual, trials=100, seed=seed)
    if residual > tol:
        failures.append(f"duality residual {residual:.3e} above {tol:.1e}")
    d_dual = maps.diagnose(dual)
    bound_dev = max(
        abs(d_dual.lower - 1.0 / diag.upper), abs(d_dual.upper - 1.0 / diag.lower)
    )
    if bound_dev > 1e-8:
        failures.append(f"dual bounds deviate by {bound_dev:.3e}")
    back = maps.canonical_dual(dual)
    back_residual = float(np.max(np.abs(back.table - ctx.omega.table)))
    if back_residual > 1e-10:
        failures.append(f"dual of dual residual {back_residual:.3e}")
    data = {
        "duality_residual": residual,
        "dual_bounds": [d_dual.lower, d_dual.upper],
        "expected_dual_bounds": [1.0 / diag.upper, 1.0 / diag.lower],
        "dual_of_dual_residual": back_residual,
    }
    if dual.dim <= 8 and dual.n_points <= 16:
        data["dual_vectors"] = dual.vectors()
    return data, failures


def _suite_multiplier(ctx: Context, seed: int, tol: float):
    failures = []
    op = ctx.operator()
    analysis, diag_wm, synthesis = op.factored()
    refactored = (synthesis * diag_wm[None, :]) @ analysis
    fact_residual = float(np.linalg.norm(op.dense - refactored))
    if fact_residual > 1e-12:
        failures.append(f"factorization residual {fact_residual:.3e}")
    norm = multiplier.operator_norm(op)
    bound = multiplier.norm_bound(op)
    if norm > bound + 1e-10:
        failures.append(f"norm {norm:.6e} above bound {bound:.6e}")
    pairing = lab.brute_force_pairing(op, trials=100, seed=seed)
    if pairing > tol:
        failures.append(f"pairing residual {pairing:.3e}")
    adj = multiplier.adjoint(op)
    adj_residual = float(np.max(np.abs(adj.dense - op.dense.conj().T)))
    if adj_residual > 1e-12:
        failures.append(f"adjoint residual {adj_residual:.3e}")
    invol = multiplier.adjoint(adj)
    invol_residual = float(np.max(np.abs(invol.dense - op.dense)))
    if invol_residual > 1e-12:
        failures.append(f"adjoint involution residual {invol_residual:.3e}")
    data = {
        "factorization_residual": fact_residual,
        "operator_norm": norm,
        "norm_bound": bound,
        "pairing_residual": pairing,
        "adjoint_residual": adj_residual,
        "adjoint_involution_residual": invol_residual,
    }
    if op.dim <= 16:
        data["dense"] = op.dense
    return data, failures


def _suite_calculus(ctx: Context, seed: int, tol: float):
    failures = []
    rng = np.random.default_rng(seed)
    results = []
    dual_pair = multiplier.is_dual_pair(ctx.omega, ctx.theta)
    for _ in range(10):
        m1 = multiplier.make_symbol(
            ctx.space, rng.uniform(0.5, 2.0, len(ctx.space))
            * np.exp(2j * np.pi * rng.random(len(ctx.space)))
        )
        m2 = multiplier.make_symbol(
            ctx.space, rng.uniform(0.5, 2.0, len(ctx.space))
            * np.exp(2j * np.pi * rng.random(len(ctx.space)))
        )
        op1 = multiplier.build(m1, ctx.omega, ctx.theta, validate=False)
        op2 = multiplier.build(m2, ctx.omega, ctx.theta, validate=False)
        report = multiplier.compose(op1, op2, tol=tol)
        results.append(report.residual)
        if report.asserted and report.residual > tol:
            failures.append(f"calculus residual {report.residual:.3e} on dual pair")
    data = {
        "dual_pair": dual_pair,
        "residuals": results,
        "worst_residual": max(results),
    }
    return data, failures


def _suite_invert(ctx: Context, seed: int, tol: float):
    failures = []
    op = ctx.operator()
    try:
        report = multiplier.invert(op)
    except FrameLabError as exc:
        return {"error": str(exc)}, [f"invert: {exc}"]
    data = report.to_dict()
    if report.bound_satisfied is False:
        failures.append("inverse bound violated")
    if report.reciprocal_residual is not None and report.reciprocal_residual > tol:
        failures.append(
            f"reciprocal-symbol residual {report.reciprocal_residual:.3e}"
        )
    return data, failures


def _suite_reconstruct(ctx: Context, seed: int, tol: float):
    failures = []
    op = ctx.operator()
    rho, res_right = multiplier.reconstruction_pair(
        op, multiplier.Side.RIGHT, trials=50, seed=seed
    )
    tau, res_left = multiplier.reconstruction_pair(
        op, multiplier.Side.LEFT, trials=50, seed=seed
    )
    if res_right > tol:
        failures.append(f"right reconstruction residual {res_right:.3e}")
    if res_left > tol:
        failures.append(f"left reconstruction residual {res_left:.3e}")
    return {
        "right_residual": res_right,
        "left_residual": res_left,
    }, failures


def _witness_family(ctx: Context, alpha_values=None):
    family_name = ctx.config.omega.get("family", "delta")
    if family_name == "exponential":
        return maps.band_limited_family(ctx.model, ctx.space, alpha_values)
    if alpha_values is None:
        return maps.bump_family(ctx.model)
    return maps.scaled_bump_family(ctx.model, alpha_values)


def _suite_orthogonality(ctx: Context, seed: int, tol: float):
    failures = []
    support_tol = float(ctx.config.orthogonality.get("support_tol", 1e-9))
    pseudo = maps.check_pseudo_orthogonal(
        ctx.omega, _witness_family(ctx), support_tol=support_tol
    )
    if not pseudo.passed:
        failures.append(f"pseudo-orthogonality: {pseudo.reason}")
    alpha = 1.0 / (1.0 + ctx.space.points ** 2)
    hyper = maps.check_hyper_orthogonal(
        ctx.omega, alpha, lambda a: _witness_family(ctx, a),
        support_tol=support_tol,
    )
    if not hyper.passed:
        failures.append(f"hyper-orthogonality: {hyper.reason}")
    return {"pseudo": pseudo.to_dict(), "hyper": hyper.to_dict()}, failures


def _suite_density(ctx: Context, seed: int, tol: float):
    failures = []
    support_tol = float(ctx.config.orthogonality.get("support_tol", 1e-9))
    report = multiplier.density_certificate(
        ctx.omega, ctx.theta, ctx.symbol, _witness_family(ctx),
        support_tol=support_tol, tol=tol,
    )
    if not report.passed:
        failures.append(f"density certificate: {report.reason}")
    split1, split2 = multiplier.split_symbol(ctx.symbol)
    split_ok = (
        np.allclose(split1 + split2, ctx.symbol.values, atol=1e-14)
        and np.all(np.abs(split2) >= 1.0)
        and np.max(np.abs(split1)) <= 3.0 + 1e-12
    )
    if not split_ok:
        failures.append("symbol split postconditions violated")
    data = report.to_dict()
    data["split_ok"] = bool(split_ok)
    return data, failures


def _suite_sweep(ctx_or_cfg, seed: int, tol: float, out_dir: Path | None = None):
    config = ctx_or_cfg.config if isinstance(ctx_or_cfg, Context) else ctx_or_cfg
    failures = []
    kind = config.sweep.get("kind", "weighted_delta")
    l_values = _need(config.sweep, "l_values", "sweep", _nonempty_list(_positive),
                     [2.0, 4.0, 8.0, 16.0])
    ppu = _need(config.sweep, "points_per_unit", "sweep", _count, 8)
    if kind == "weighted_delta":
        result = lab.weighted_delta_sweep(l_values, points_per_unit=ppu, check=False)
        for (n, L), norm in zip(result.schedule, result.norms):
            if norm < 0.9 * L:
                failures.append(f"norm {norm:.3e} below 0.9*L at L={L}")
        if result.verdict is not lab.GrowthVerdict.UNBOUNDED:
            failures.append("expected an unbounded verdict")
    elif kind == "bounded_control":
        schedule = tuple((ppu * int(L) + 1, float(L)) for L in l_values)
        family = measure.symmetric_grid_family(schedule)

        def bounded(space):
            mdl = model.make_model(space, model.RawSamples())
            delta = maps.delta_frame(mdl, space)
            one = multiplier.make_symbol(space, np.ones(len(space)))
            return multiplier.build(one, delta, delta, validate=False)

        result = lab.unboundedness_sweep(family, bounded)
        if result.verdict is not lab.GrowthVerdict.BOUNDED:
            failures.append("expected a bounded verdict")
    else:
        raise ConfigError("sweep.kind", f"unknown sweep kind {kind!r}")
    if out_dir is not None:
        (out_dir / "sweep.csv").write_text(result.to_csv())
    return result.to_dict(), failures


def _suite_quartet(ctx_or_cfg, seed: int, tol: float):
    config = ctx_or_cfg.config if isinstance(ctx_or_cfg, Context) else ctx_or_cfg
    failures = []
    ns = _need(config.quartet, "n", "quartet",
               lambda v: _nonempty_list(_count)(v if isinstance(v, list) else [v]),
               [4, 8, 16])
    n_symbols = _need(config.quartet, "symbols", "quartet", _count, 5)
    rng = np.random.default_rng(seed)
    reports = []
    for n in ns:
        for _ in range(n_symbols):
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            report = lab.fourier_quartet_check(n, values, trials=3,
                                               seed=seed, tol=tol)
            reports.append(report.to_dict())
            if not report.passed:
                bad = {k: v for k, v in report.residuals.items() if v > tol}
                failures.append(
                    f"quartet n={n} members {sorted(bad)} failed; "
                    f"flipped convention passes: {report.flipped_passes}"
                )
    return {"reports": reports}, failures


def _suite_oracle(ctx: Context, seed: int, tol: float):
    failures = []
    op = ctx.operator()
    residual = lab.brute_force_pairing(op, trials=100, seed=seed)
    if residual > tol:
        failures.append(f"brute-force pairing residual {residual:.3e}")
    data = {"pairing_residual": residual}
    if ctx.config.omega.get("family") == "discrete":
        comparison = lab.discrete_reduction_oracle(np.conj(ctx.omega.table))
        data["discrete_reduction"] = comparison.to_dict()
        if not comparison.agree:
            failures.append("discrete reduction paths disagree")
    return data, failures


SUITES = {
    "diagnose": _suite_diagnose,
    "dual": _suite_dual,
    "multiplier": _suite_multiplier,
    "calculus": _suite_calculus,
    "invert": _suite_invert,
    "reconstruct": _suite_reconstruct,
    "orthogonality": _suite_orthogonality,
    "density": _suite_density,
    "oracle": _suite_oracle,
}


# -- runner -------------------------------------------------------------------------

def run(config_path, out_dir=None, tol=None, seed=None,
        json_output: bool = False) -> int:
    """Execute the experiment described by a JSON config file.

    Writes one report per selected suite into the output directory; the same
    config and seed produce byte-identical reports.  With ``json_output`` the
    run summary (including the machine-readable failure list) goes to stdout
    as JSON instead of human-readable lines.
    """
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"error: config parse failed at line {exc.lineno}, column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    if not isinstance(raw, dict):
        print(f"error: config must be a JSON object, got {type(raw).__name__}",
              file=sys.stderr)
        return EXIT_PARSE

    if tol is not None:
        raw["tolerance"] = tol
    if seed is not None:
        raw["seed"] = seed
    if out_dir is not None:
        raw["output_dir"] = str(out_dir)

    try:
        config = parse_config(raw)
        needs_ctx = any(s not in ("sweep", "quartet") for s in config.suites)
        ctx = build_context(config) if needs_ctx else None
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FrameLabError as exc:
        print(f"error: cannot build experiment: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    all_failures = []
    for suite in config.suites:
        suite_seed = _suite_seed(config.seed, suite)
        try:
            if suite == "sweep":
                data, failures = _suite_sweep(ctx or config, suite_seed,
                                              config.tolerance, out_dir=out)
            elif suite == "quartet":
                data, failures = _suite_quartet(ctx or config, suite_seed,
                                                config.tolerance)
            else:
                data, failures = SUITES[suite](ctx, suite_seed, config.tolerance)
        except ConfigError as exc:
            print(f"error: invalid config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except FrameLabError as exc:
            data, failures = {"error": str(exc)}, [f"{suite}: {exc}"]
        report = {
            "schema_version": SCHEMA_VERSION,
            "suite": suite,
            "passed": not failures,
            "failures": failures,
            "data": _jsonify(data),
        }
        (out / f"{suite}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        all_failures.extend({"suite": suite, "detail": f} for f in failures)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "suites": list(config.suites),
        "passed": not all_failures,
        "failures": all_failures,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    if json_output:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for failure in all_failures:
            print(f"FAIL [{failure['suite']}] {failure['detail']}")
        if not all_failures:
            print(f"ok: {len(config.suites)} suite(s) passed; reports in {out}")
    return EXIT_ASSERTION if all_failures else EXIT_OK


def list_families(as_json: bool = False) -> str:
    if as_json:
        return json.dumps(CATALOG, indent=2, sort_keys=True)
    lines = []
    for group, entries in CATALOG.items():
        lines.append(f"{group}:")
        for name, entry in entries.items():
            params = ", ".join(f"{k}: {v}" for k, v in entry["params"].items())
            lines.append(f"  {name}({params})")
            lines.append(f"      {entry['note']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Run frame/multiplier verification experiments from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="Run the suites selected in a config file")
    run_cmd.add_argument("config", type=Path)
    run_cmd.add_argument("--out", type=Path, default=None,
                         help="Output directory for reports")
    run_cmd.add_argument("--tol", type=float, default=None,
                         help="Override the config tolerance")
    run_cmd.add_argument("--seed", type=int, default=None,
                         help="Override the config seed")
    run_cmd.add_argument("--json", action="store_true",
                         help="Print the run summary as JSON")

    list_cmd = sub.add_parser("list-families",
                              help="Print builtin space/model/frame/symbol families")
    list_cmd.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, tol=args.tol, seed=args.seed,
                   json_output=args.json)
    if args.command == "list-families":
        print(list_families(as_json=args.json))
        return EXIT_OK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
