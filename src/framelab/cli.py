"""Config-driven experiment runner.

Reads a single JSON document describing a space, a model, two frame
families, a symbol and a set of verification suites; runs the suites in
dependency order; writes one deterministic JSON report per suite plus
optional CSV sweep data.  Exit codes: 0 all assertions passed, 2 config
unreadable or unparsable, 3 validation error (values, data or output
paths), 4 at least one suite assertion failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import lab, maps, measure, model, multiplier
from .errors import ConfigError, FrameLabError, ScheduleError

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ASSERTION = 4
# largest |x - x_j| / (1 + |x_j|) of a symbol CSV point x against grid point x_j
SYMBOL_POINT_TOL = 1e-12
# a size above the most complex entries one numpy array holds is a config error
_SIZE_MAX = np.iinfo(np.intp).max // np.dtype(complex).itemsize


class Suite(NamedTuple):
    """What a suite needs: the Context built from the config, and a seed."""

    needs_context: bool
    randomized: bool


# Suites in run order; a suite's position also derives its seed.
SUITE_ORDER = {
    "diagnose": Suite(needs_context=True, randomized=False),
    "dual": Suite(needs_context=True, randomized=False),
    "multiplier": Suite(needs_context=True, randomized=False),
    "calculus": Suite(needs_context=True, randomized=True),
    "invert": Suite(needs_context=True, randomized=False),
    "reconstruct": Suite(needs_context=True, randomized=True),
    "orthogonality": Suite(needs_context=True, randomized=False),
    "density": Suite(needs_context=True, randomized=False),
    "sweep": Suite(needs_context=False, randomized=False),
    "quartet": Suite(needs_context=False, randomized=True),
    "oracle": Suite(needs_context=True, randomized=True),
}


def _needs_context(suites) -> bool:
    return any(SUITE_ORDER[s].needs_context for s in suites)


# -- json writer ----------------------------------------------------------------

@functools.cache
def _encoder(inner: str):
    """C-encoded JSON for a container of plain scalars, items on lines at ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": "), sort_keys=True,
                            allow_nan=False).encode


def _plain(value) -> bool:
    kind = type(value)
    return kind in (str, int, bool) or value is None or (kind is float and math.isfinite(value))


def _dumps(value, pad: str = "") -> str:
    """Deterministic JSON text of a report: a 2-space indent, sorted keys and
    ASCII escapes, ``pad`` being the indent of the line ``value`` starts on.

    A non-finite float is its repr string, a complex is ``[re, im]``, an enum
    its value, an array its ``tolist()``, a dict key its ``str``, and a
    dataclass the dict of its fields (properties are not fields).
    """
    if isinstance(value, (float, np.floating)):  # most leaves are floats
        value = float(value)
        if not math.isfinite(value):
            value = repr(value)
    elif isinstance(value, enum.Enum):
        return _dumps(value.value, pad)
    elif isinstance(value, (np.complexfloating, complex)):
        value = [float(np.real(value)), float(np.imag(value))]
    elif isinstance(value, (np.integer, np.bool_)):
        value = value.item()
    elif isinstance(value, np.ndarray):
        return _dumps(value.tolist(), pad)
    elif isinstance(value, dict):
        value = {str(k): v for k, v in value.items()}
    elif is_dataclass(value):
        value = vars(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _encoder(pad)(value)
    inner = pad + "  "
    is_dict = isinstance(value, dict)
    if all(map(_plain, value.values() if is_dict else value)):
        text = _encoder(inner)(value)  # one C call writes every item
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    sep = ",\n" + inner
    if is_dict:
        body = sep.join(f"{_encoder(inner)(k)}: {_dumps(value[k], inner)}"
                        for k in sorted(value))
        return f"{{\n{inner}{body}\n{pad}}}"
    return f"[\n{inner}{sep.join(_dumps(v, inner) for v in value)}\n{pad}]"


# -- typed readers ------------------------------------------------------------------
#
# A reader turns one JSON value into a typed value, or raises ValueError
# (TypeError, OverflowError) saying what is wrong; _need names the field.

_REQUIRED = object()


def _need(cfg: dict, field: str, read, default=_REQUIRED):
    """Read ``cfg[field]`` with the reader ``read``; bad input is a ConfigError."""
    if field not in cfg:
        if default is _REQUIRED:
            raise ConfigError(field, "missing required parameter")
        return default
    try:
        return read(cfg[field])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, str(exc)) from None


class Param(NamedTuple):
    """A parameter of a config object: its type as documented (``list-families``
    prints a family's), the reader of its JSON value, and its default when it
    is optional."""

    type: str
    read: Callable
    default: object = _REQUIRED


def _read_params(cfg: dict, params: dict, *other_keys) -> dict:
    """The typed values of ``params`` in the JSON object ``cfg``, read in
    order.  A key that neither ``params`` nor ``other_keys`` declares is a
    ConfigError: a misspelt optional key would otherwise leave its default
    in place unseen."""
    for key in cfg:
        if key not in params and key not in other_keys:
            raise ConfigError(key, "unknown key")
    return {name: _need(cfg, name, p.read, p.default) for name, p in params.items()}


@contextlib.contextmanager
def _within(path: str):
    """Prefix the field of any ConfigError raised in the block with ``path``."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.field}", exc.message) from None


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _number(value) -> bool:
    """True for a JSON number; a boolean is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities do not pass."""
    if not _number(value) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    """A finite JSON number > 0."""
    if not _real(value) > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return float(value)


def _whole(minimum: int, maximum: float = _SIZE_MAX):
    """Reader of a whole JSON number in [minimum, maximum]: 8 and 8.0 pass;
    2.5, "8" and true do not.  Integers are kept exact."""
    def read(value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(f"must be a whole number >= {minimum}, got {value!r}")
        if value > maximum:
            raise ValueError(f"must be at most {maximum}, got {value!r}")
        return value
    return read


_count = _whole(1)


def _nonempty_list(read_entry):
    """Reader of a nonempty JSON list whose entries ``read_entry`` converts."""
    def read(value):
        if not isinstance(value, list) or not value:
            raise ValueError(f"must be a nonempty list, got {value!r}")
        return [read_entry(v) for v in value]
    return read


# The imaginary unit 'i' of a string entry: an 'i' that no letter follows,
# so that the 'i' of 'inf' and 'infinity' is left as it is.
_IMAGINARY_I = r"i(?![A-Za-z])"


def _complex(value) -> complex:
    """A finite complex entry: a number, a pair [re, im] or a string 'a+bi';
    booleans do not pass."""
    if isinstance(value, str):
        try:
            z = complex(re.sub(_IMAGINARY_I, "j", value.strip().replace(" ", "")))
        except ValueError:
            raise ValueError(f"cannot read complex entry {value!r}") from None
    elif isinstance(value, list) and len(value) == 2 and all(map(_number, value)):
        z = complex(value[0], value[1])
    elif _number(value):
        z = complex(value)
    else:
        raise ValueError(f"cannot read complex entry {value!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("entries must be finite")
    return z


def _complex_list(value) -> np.ndarray:
    if not isinstance(value, list):
        raise ValueError("must be a list of complex entries")
    return np.asarray([_complex(v) for v in value], dtype=complex)


def _existing_path(value) -> Path:
    path = Path(_text(value))
    if not path.exists():
        raise ValueError(f"file does not exist: {path}")
    if not path.is_file():
        raise ValueError(f"not a regular file: {path}")
    return path


def _csv_lines(handle):
    """The lines of a CSV file that are not blank or whitespace only."""
    return (line for line in handle if not line.isspace())


def _table_csv(value) -> np.ndarray:
    """The complex table of a CSV file, one row per line that is not blank
    or whitespace only.

    The table is streamed once into one array: each line has its spaces
    dropped and every 'i' read as 'j', is split on commas, and its cells go
    through complex(); finiteness is checked once at the end.  On any fault
    (an unreadable cell, ragged rows, a value that is not finite, no rows,
    a line longer than csv's field limit) the file is read again cell by
    cell, csv.reader splitting each line and _complex reading each cell, so
    that the first fault in file order is the one named; a field that
    csv.reader rejects is a ValueError too.  complex() reads no quote, so a
    quoted table always takes the cell-by-cell path."""
    path = _existing_path(value)
    widths, limit = [], csv.field_size_limit()

    def cells(line):
        if len(line) > limit:  # csv.reader may reject a field this long
            raise ValueError("a line for csv.reader")
        row = line.replace(" ", "").replace("i", "j").split(",")
        widths.append(len(row))
        return row

    try:
        with path.open(newline="") as handle:
            table = np.fromiter(map(complex, itertools.chain.from_iterable(
                map(cells, _csv_lines(handle)))), complex)
        if len(set(widths)) == 1 and np.isfinite(table).all():
            table.resize(len(widths), widths[0])  # in place: it owns its memory
            return table
    except ValueError:
        pass
    with path.open(newline="") as handle:
        try:
            rows = [[_complex(cell) for cell in row]
                    for row in csv.reader(_csv_lines(handle))]
        except csv.Error as exc:  # a field past csv.field_size_limit(), say
            raise ValueError(f"cannot read CSV: {exc}") from None
    if not rows:
        raise ValueError("CSV table is empty")
    if len({len(row) for row in rows}) != 1:
        raise ValueError("CSV rows differ in length")
    return np.asarray(rows, dtype=complex)


def _vectors(value) -> np.ndarray:
    """J x K table of a discrete family: inline rows or a CSV file."""
    if isinstance(value, str):
        return _table_csv(value)
    if not isinstance(value, list) or not value:
        raise ValueError("must be a CSV path or a nonempty list of vectors")
    rows = [_complex_list(v) for v in value]
    if len({len(row) for row in rows}) != 1:
        raise ValueError("vectors differ in length")
    return np.asarray(rows)


def _coordinate(x):
    return x


def _weight(value):
    return _coordinate if value == "coordinate" else _complex_list(value)


# The keys of a Gaussian window dict besides its family; a width or center
# of None defaults from the space.
_GAUSSIAN_WINDOW = {"width": Param("float", _positive, None),
                    "center": Param("float", _real, None),
                    "cutoff": Param("float", _real, 1e-3)}


def _window(value):
    """Window samples, or the parameters of a Gaussian window as a dict."""
    if not isinstance(value, dict):
        return _complex_list(value)
    with _within("window"):
        if _need(value, "family", _text, "gaussian_window") != "gaussian_window":
            raise ConfigError("family", f"unknown window family {value['family']!r}")
        return _read_params(value, _GAUSSIAN_WINDOW, "family")


# -- family table ----------------------------------------------------------------------

def _gaussian_window(space: measure.SampledMeasureSpace, width, center,
                     cutoff) -> np.ndarray:
    width = space.extent / 8.0 if width is None else width
    center = float(space.points[0]) if center is None else center
    values = model._gaussian(space.points, center, width)
    values[values < cutoff] = 0.0  # truncate so the support is proper
    return values


def _translated_window(mdl, space, analysis, window) -> maps.DistributionMap:
    if isinstance(window, dict):
        window = _gaussian_window(space, **window)
    return maps.translated_window_frame(mdl, space, window)


def _discrete(mdl, space, analysis, vectors) -> maps.DistributionMap:
    if space is None:  # omega: the table implies the space and the model
        mdl = model.make_model(measure.counting(vectors.shape[1]), model.RawSamples())
    return maps.discrete_sequence_map(mdl, vectors, space)


def _custom(mdl, space, analysis, csv) -> maps.DistributionMap:
    if csv.shape != (len(space), mdl.dim):
        raise ConfigError(
            "csv",
            f"table shape {csv.shape} does not match space/model "
            f"({len(space)}, {mdl.dim})",
        )
    return maps.DistributionMap(table=measure._read_only(csv), space=space, model=mdl)


def _analysis(analysis, family: str) -> maps.DistributionMap:
    """The analysis map that a synthesis-side family is built from."""
    if analysis is None:
        raise ConfigError("family", f"{family!r} is only valid for theta")
    return analysis


def _step(space, low, high, at):
    at = float(np.median(space.points)) if at is None else at
    return np.where(space.points < at, low, high)


def _modulus_phase(rng, n, low, high):
    """n values of uniform modulus in [low, high], then of uniform phase."""
    modulus = rng.uniform(low, high, n)
    return modulus * np.exp(2j * np.pi * rng.random(n))


def _reciprocal_safe(space, floor, ceil, seed):
    if ceil < floor:
        raise ConfigError("ceil", f"must be at least floor {floor!r}, got {ceil!r}")
    return _modulus_phase(np.random.default_rng(seed), len(space), floor, ceil)


def _symbol_csv(space, path):
    points, values = [], []
    with path.open(newline="") as handle:
        try:
            for row in csv.reader(_csv_lines(handle)):
                x, re, im = (_real(float(cell)) for cell in row)
                points.append(x)
                values.append(complex(re, im))
        except ValueError:
            raise ConfigError("path", "rows must be point,re,im numbers") from None
        except csv.Error as exc:  # a field past csv.field_size_limit(), say
            raise ConfigError("path", f"cannot read CSV: {exc}") from None
    if len(points) != len(space) or not np.allclose(
            points, space.points, rtol=SYMBOL_POINT_TOL, atol=SYMBOL_POINT_TOL):
        raise ConfigError("path", "CSV points do not match the space")
    return values


_N = Param("int", _count)
_SEED = Param("int", _whole(0, math.inf))  # a seed is not a size

# group -> family -> (parameters, note, builder).  Builders take the
# group's leading arguments (see build_context), then the typed parameters
# by name; symbol builders return the symbol's values on the space.
FAMILIES = {
    "spaces": {
        "counting": (
            {"n": _N},
            "atomic points 0..n-1 with unit mass",
            lambda n: measure.counting(n),
        ),
        "periodic_unit_grid": (
            {"n": _N},
            "midpoint rule on [0, 1): points j/n, weights 1/n, period 1",
            lambda n: measure.periodic_unit_grid(n),
        ),
        "fourier_grid": (
            {"n": _N},
            "self-dual periodic grid, spacing 1/sqrt(n); exact transform regime",
            lambda n: measure.fourier_grid(n),
        ),
        "symmetric_grid": (
            {"n": Param("int", _whole(2)), "half_width": Param("float", _positive)},
            "uniform grid on [-L, L] including both endpoints",
            lambda n, half_width: measure.symmetric_grid(n, half_width),
        ),
    },
    "models": {
        "raw_samples": (
            {},
            "standard coordinates of the sample space (K = N)",
            lambda space: model.make_model(space, model.RawSamples()),
        ),
        "trigonometric": (
            {"max_degree": Param("int", _whole(0))},
            "complex exponentials, frequencies -d..d (or -d..d-1 when 2d = n)",
            lambda space, max_degree: model.make_model(
                space, model.Trigonometric(max_degree)),
        ),
        "gaussian_bumps": (
            {"centers": Param("[float]", _nonempty_list(_real)),
             "width": Param("float", _positive)},
            "orthonormalized Gaussian columns at the given centers",
            lambda space, centers, width: model.make_model(
                space, model.GaussianBumps(tuple(centers), width)),
        ),
    },
    "frames": {
        "delta": (
            {},
            "point evaluations f -> f(x_j); Parseval on exact grids",
            lambda mdl, space, analysis: maps.delta_frame(mdl, space),
        ),
        "exponential": (
            {},
            "frequency functionals f -> fhat(g_j) (forward transform rows)",
            lambda mdl, space, analysis: maps.exponential_frame(mdl, space),
        ),
        "weighted_delta": (
            {"weight": Param("'coordinate' | [complex]", _weight, _coordinate)},
            "scaled point evaluations wf(x_j) f(x_j); canonical unbounded family",
            lambda mdl, space, analysis, weight: maps.weighted_delta_frame(
                mdl, space, weight),
        ),
        "translated_window": (
            {"window": Param("[complex] | {family: gaussian_window, "
                             f"{', '.join(_GAUSSIAN_WINDOW)}}}", _window)},
            "circular translates of a window on a uniform grid",
            _translated_window,
        ),
        "discrete": (
            {"vectors": Param("[[complex]] | csv path", _vectors)},
            "finite vector family on counting measure (space/model implied)",
            _discrete,
        ),
        "custom": (
            {"csv": Param("path", _table_csv)},
            "evaluation table from CSV, complex entries as 'a+bi'",
            _custom,
        ),
        "canonical_dual": (
            {},
            "canonical dual of the analysis frame (synthesis side only)",
            lambda mdl, space, analysis: maps.canonical_dual(
                _analysis(analysis, "canonical_dual")),
        ),
        "same": (
            {},
            "reuse the analysis frame (synthesis side only)",
            lambda mdl, space, analysis: _analysis(analysis, "same"),
        ),
    },
    "symbols": {
        "constant": (
            {"value": Param("complex", _complex, 1.0)},
            "m(x) = value",
            lambda space, value: np.full(len(space), value),
        ),
        "coordinate": (
            {},
            "m(x) = x",
            lambda space: space.points,
        ),
        "step": (
            {"low": Param("complex", _complex, 0.0),
             "high": Param("complex", _complex, 1.0),
             "at": Param("float", _real, None)},
            "m = low below the threshold, high at and above it",
            _step,
        ),
        "random_phase": (
            {"seed": _SEED},
            "unimodular random phases; |m| = 1 everywhere",
            lambda space, seed: np.exp(
                2j * np.pi * np.random.default_rng(seed).random(len(space))),
        ),
        "reciprocal_safe": (
            {"floor": Param("float", _positive, 1.0),
             "ceil": Param("float", _real, 2.0),
             "seed": _SEED},
            "random phases with modulus in [floor, ceil]; floor > 0",
            _reciprocal_safe,
        ),
        "csv": (
            {"path": Param("path", _existing_path)},
            "rows of point,re,im",
            _symbol_csv,
        ),
    },
}


def _read_family(group: str, cfg: dict, path: str) -> tuple[Callable, dict]:
    """The builder of the member of ``group`` that ``cfg`` names, and its
    typed parameters; a bad name or parameter is a ConfigError at ``path``."""
    with _within(path):
        family = _need(cfg, "family", _text)
        if family not in FAMILIES[group]:
            raise ConfigError("family", f"unknown {group[:-1]} family {family!r}")
        params, _, builder = FAMILIES[group][family]
        return builder, _read_params(cfg, params, "family")


def _implies_space(omega: dict) -> bool:
    """A discrete analysis table fixes the space and the model."""
    return omega.get("family") == "discrete"


# -- config ------------------------------------------------------------------------

# Family section -> its group in FAMILIES, in reading order.
SECTIONS = {"space": "spaces", "model": "models", "omega": "frames",
            "theta": "frames", "symbol": "symbols"}


# Option section -> its parameters, in reading order; an option section is
# read like a family section, and may be omitted.  One size n is a list of one.
OPTIONS = {
    "quartet": {"n": Param("int | [int]", lambda v: _nonempty_list(_count)(
                    v if isinstance(v, list) else [v]), (4, 8, 16)),
                "symbols": Param("int", _count, 5)},
    "sweep": {"kind": Param("'weighted_delta' | 'bounded_control'", _text, "weighted_delta"),
              "l_values": Param("[float]", _nonempty_list(_positive), (2.0, 4.0, 8.0, 16.0)),
              "points_per_unit": Param("int", _count, 8)},
    "orthogonality": {"support_tol": Param("float", _positive, maps.SUPPORT_TOL)},
}


@dataclass
class ExperimentConfig:
    sections: dict  # SECTIONS name -> JSON object; None if absent and not needed
    suites: tuple
    tolerance: float
    seed: int | None
    output_dir: str
    support_tol: float
    quartet_ns: list
    quartet_symbols: int
    sweep_kind: str
    sweep_family: measure.RefinementFamily


def _sweep_family(kind: str, l_values: list,
                  points_per_unit: int) -> measure.RefinementFamily:
    """The grids a sweep runs on, checked as the sweep checks them; both
    kinds run on the grids of ``lab.weighted_delta_family``."""
    if kind not in ("weighted_delta", "bounded_control"):
        raise ConfigError("kind", f"unknown sweep kind {kind!r}")
    if points_per_unit * max(l_values) + 1 > _SIZE_MAX:  # the widest grid's points
        raise ConfigError("l_values", f"{points_per_unit} points per unit up to L = "
                          f"{max(l_values)!r} are more than an array holds")
    try:
        family = lab.weighted_delta_family(l_values, points_per_unit)
    except ScheduleError as exc:
        raise ConfigError("l_values", str(exc)) from None
    if len(family) < lab.MIN_SWEEP_STEPS:
        raise ConfigError("l_values", "a growth sweep needs at least "
                          f"{lab.MIN_SWEEP_STEPS} schedule steps")
    return family


def parse_config(raw: dict) -> ExperimentConfig:
    def section(name, default=None):
        value = raw.get(name, default)
        if value is None:
            raise ConfigError(name, "missing required section")
        if not isinstance(value, dict):
            raise ConfigError(name, "must be a JSON object")
        return value

    _read_params(raw, {}, *SECTIONS, *OPTIONS, "suites", "seed", "tolerance",
                 "output_dir")
    suites = raw.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ConfigError("suites", "must be a nonempty list")
    for s in suites:
        if not isinstance(s, str) or s not in SUITE_ORDER:
            raise ConfigError("suites", f"unknown suite {s!r}")
    suites = tuple(s for s in SUITE_ORDER if s in suites)

    seed = _need(raw, "seed", _SEED.read, None)
    if seed is None and any(SUITE_ORDER[s].randomized for s in suites):
        raise ConfigError("seed", "required when a randomized suite is selected")

    # Only the context suites build the space, the model and the maps.
    context = _needs_context(suites)
    omega = section("omega") if context or "omega" in raw else None
    implied = not context or _implies_space(omega)
    sections = {"omega": omega,
                "space": section("space") if not implied or "space" in raw else None,
                "model": section("model") if not implied or "model" in raw else None,
                "theta": section("theta", {"family": "same"}),
                "symbol": section("symbol", {"family": "constant", "value": 1.0})}

    def option(name):
        cfg = section(name, {})
        with _within(name):
            return _read_params(cfg, OPTIONS[name])

    quartet = option("quartet")
    if quartet["symbols"] * max(quartet["n"]) > _SIZE_MAX:  # the symbols of one n
        raise ConfigError("quartet.symbols", f"{quartet['symbols']} symbols on up to "
                          f"n = {max(quartet['n'])} points are more than an array holds")
    sweep = option("sweep")
    with _within("sweep"):  # the schedule is checked as soon as it is read
        sweep_family = _sweep_family(**sweep)
    orthogonality = option("orthogonality")

    return ExperimentConfig(
        sections=sections,
        suites=suites,
        tolerance=_need(raw, "tolerance", _positive, multiplier.RESIDUAL_TOL),
        seed=seed,
        output_dir=_need(raw, "output_dir", _text, "reports"),
        support_tol=orthogonality["support_tol"],
        quartet_ns=quartet["n"],
        quartet_symbols=quartet["symbols"],
        sweep_kind=sweep["kind"],
        sweep_family=sweep_family,
    )


# -- experiment context --------------------------------------------------------------

@dataclass
class Context:
    omega: maps.DistributionMap  # its space and model are the run's
    theta: maps.DistributionMap
    symbol: multiplier.Symbol
    witnesses: Callable[..., np.ndarray]  # envelope or none -> omega's witnesses

    @functools.cached_property
    def operator(self) -> multiplier.MultiplierOperator:
        """The validated multiplier, built once and shared by the suites; a
        build error is not cached, so it fails each suite that reads it."""
        return multiplier.build(self.symbol, self.omega, self.theta)


def build_context(config: ExperimentConfig) -> Context | None:
    """Read every family section the config holds or the run needs, then build
    the context if a suite needs one, the symbol right after a given space (it
    needs nothing else); each section's typed parameters are dropped once built."""
    sections = {name: _read_family(group, config.sections[name], name)
                for name, group in SECTIONS.items() if config.sections[name] is not None}
    if not _needs_context(config.suites):
        return None

    def build(name, *args):
        builder, params = sections.pop(name)
        with _within(name):
            return builder(*args, **params)

    if _implies_space(config.sections["omega"]):
        space = mdl = None  # the omega builder makes them
    else:
        space = build("space")
        values = build("symbol", space)
        mdl = build("model", space)
    omega = build("omega", mdl, space, None)
    space, mdl = omega.space, omega.model
    theta = build("theta", mdl, space, omega)
    if "symbol" in sections:
        values = build("symbol", space)
    witnesses = (functools.partial(maps.band_limited_family, mdl, space)
                 if config.sections["omega"]["family"] == "exponential"
                 else functools.partial(maps.scaled_bump_family, mdl))
    return Context(omega=omega, theta=theta, symbol=multiplier.make_symbol(space, values),
                   witnesses=witnesses)


def _suite_seed(root_seed: int | None, suite: str) -> int:
    index = list(SUITE_ORDER).index(suite)
    seq = np.random.SeedSequence([0 if root_seed is None else root_seed, index])
    return int(seq.generate_state(1)[0])


# -- suites ---------------------------------------------------------------------------
#
# Every suite is called as suite(config, ctx, seed, out, data, failures) and
# returns None: it writes each value into the report's data dict, and each
# failed gate into its failure list, as soon as it is measured, so a suite
# stopped by an error keeps what it recorded.  ctx is None for a suite that
# does not need a context, and out is the report directory.  A gate passes
# only when value <= limit, so a NaN fails it.

def _gate(failures: list, label: str, value: float, limit: float) -> None:
    """Append ``label`` and ``value`` to ``failures`` unless value <= limit."""
    if not value <= limit:
        failures.append(f"{label} {value:.3e}")


def _suite_diagnose(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                    data: dict, failures: list) -> None:
    data["model"] = ctx.omega.model.summary()
    data["omega"] = maps.diagnose(ctx.omega)
    data["theta"] = maps.diagnose(ctx.theta)


def _suite_dual(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                data: dict, failures: list) -> None:
    diag = maps.diagnose(ctx.omega)
    dual = maps.canonical_dual(ctx.omega)
    # ||(E_dual^H W E_omega - I) X||_F / sqrt(8 K) on the fixed K x 8 probe block X.
    x = multiplier._probe_block(dual.dim)
    defect = multiplier._synthesize(
        dual, ctx.omega.space.weights[:, None] * maps._apply(ctx.omega, x)) - x
    probe = float(np.linalg.norm(defect)) / math.sqrt(x.size)
    data["duality_probe_residual"] = probe
    _gate(failures, "duality probe residual", probe, config.tolerance)
    d_dual = maps.diagnose(dual)
    data["dual_bounds"] = [d_dual.lower, d_dual.upper]
    data["expected_dual_bounds"] = expected = [1.0 / diag.upper, 1.0 / diag.lower]
    bound_dev = max(abs(d_dual.lower - expected[0]), abs(d_dual.upper - expected[1]))
    _gate(failures, "dual bounds deviate by", bound_dev, multiplier.BOUND_TOL)
    # The dual of the dual is not cached on the dual: only its difference is kept.
    difference = maps._compute_dual(dual).table - ctx.omega.table
    data["dual_of_dual_residual"] = back_residual = float(np.max(np.abs(difference)))
    _gate(failures, "dual of dual residual", back_residual, multiplier.RESIDUAL_TOL)
    if dual.dim <= 8 and dual.n_points <= 16:
        data["dual_vectors"] = dual.vectors()


def _suite_multiplier(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                      data: dict, failures: list) -> None:
    op = ctx.operator
    data["operator_norm"] = norm = multiplier.operator_norm(op)
    data["norm_bound"] = bound = multiplier.norm_bound(op)
    if not norm <= bound + multiplier.RESIDUAL_TOL * max(1.0, bound):
        failures.append(f"norm {norm:.6e} above bound {bound:.6e}")
    difference = op.dense.conj().T
    np.subtract(multiplier.adjoint(op).dense, difference, out=difference)
    data["adjoint_residual"] = adj_residual = float(np.max(np.abs(difference)))
    _gate(failures, "adjoint residual", adj_residual, multiplier.ROUNDING_TOL)
    if op.dim <= 16:
        data["dense"] = op.dense


def _calculus_trial(ctx: Context, rng: np.random.Generator) -> multiplier.CompositionReport:
    """Compose the multipliers of two random symbols, from their factors."""
    ops = []
    for _ in range(2):
        m = multiplier.make_symbol(ctx.omega.space,
                                   _modulus_phase(rng, ctx.omega.n_points, 0.5, 2.0))
        ops.append(multiplier.build(m, ctx.omega, ctx.theta, validate=False))
    return multiplier.compose(*ops)


def _suite_calculus(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                    data: dict, failures: list) -> None:
    """The residual is asserted on dual pairs; the factored gap on every pair."""
    rng = np.random.default_rng(seed)
    residuals = data["residuals"] = []
    gaps = data["factored_gaps"] = []
    for _ in range(10):
        report = _calculus_trial(ctx, rng)
        residuals.append(report.residual)
        gaps.append(report.factored_gap)
        if report.asserted and not report.residual <= config.tolerance:
            failures.append(f"calculus residual {report.residual:.3e} on dual pair")
        _gate(failures, "calculus factored gap", report.factored_gap,
              multiplier.ROUNDING_TOL)
    data["dual_pair"] = report.asserted
    data["worst_residual"] = max(residuals)
    data["worst_factored_gap"] = max(gaps)
    data["duality_defect"] = multiplier.duality_defect(ctx.omega, ctx.theta)


def _suite_invert(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                  data: dict, failures: list) -> None:
    report = multiplier.invert(ctx.operator)
    data.update(vars(report))
    if report.bound_satisfied is False:
        failures.append("inverse bound violated")
    if report.reciprocal_residual is not None:
        _gate(failures, "reciprocal-symbol residual", report.reciprocal_residual,
              config.tolerance)


def _suite_reconstruct(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                       data: dict, failures: list) -> None:
    op = ctx.operator
    # Only the residuals are reported: neither map is kept past its own pair.
    for side in (multiplier.Side.RIGHT, multiplier.Side.LEFT):
        residual = multiplier.reconstruction_pair(op, side, trials=50, seed=seed)[1]
        data[f"{side.value}_residual"] = residual
        _gate(failures, f"{side.value} reconstruction residual", residual,
              config.tolerance)


def _suite_orthogonality(config: ExperimentConfig, ctx: Context, seed: int,
                         out: Path, data: dict, failures: list) -> None:
    data["pseudo"] = pseudo = maps.check_pseudo_orthogonal(
        ctx.omega, ctx.witnesses(), support_tol=config.support_tol)
    if not pseudo.passed:
        failures.append(f"pseudo-orthogonality: {pseudo.reason}")
    alpha = 1.0 / (1.0 + ctx.omega.space.points ** 2)
    data["hyper"] = hyper = maps.check_hyper_orthogonal(
        ctx.omega, alpha, ctx.witnesses, support_tol=config.support_tol)
    if not hyper.passed:
        failures.append(f"hyper-orthogonality: {hyper.reason}")


def _suite_density(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                   data: dict, failures: list) -> None:
    report = multiplier.density_certificate(
        ctx.omega, ctx.theta, ctx.symbol, ctx.witnesses(),
        support_tol=config.support_tol, tol=config.tolerance,
    )
    data.update(vars(report))
    if not report.passed:
        failures.append(f"density certificate: {report.reason}")


def _suite_sweep(config: ExperimentConfig, ctx: None, seed: int, out: Path,
                 data: dict, failures: list) -> None:
    if config.sweep_kind == "weighted_delta":
        result = lab.unboundedness_sweep(config.sweep_family, lab.coordinate_multiplier)
        failures.extend(lab.norm_floor_misses(result))
        if result.verdict is not lab.GrowthVerdict.UNBOUNDED:
            failures.append("expected an unbounded verdict")
    else:
        def bounded(space):
            mdl = model.make_model(space, model.RawSamples())
            delta = maps.delta_frame(mdl, space)
            one = multiplier.make_symbol(space, np.ones(len(space)))
            return multiplier.build(one, delta, delta, validate=False)

        result = lab.unboundedness_sweep(config.sweep_family, bounded)
        if result.verdict is not lab.GrowthVerdict.BOUNDED:
            failures.append("expected a bounded verdict")
    data.update(vars(result))
    (out / "sweep.csv").write_text(result.to_csv())


def _suite_quartet(config: ExperimentConfig, ctx: None, seed: int, out: Path,
                   data: dict, failures: list) -> None:
    rng = np.random.default_rng(seed)
    reports = data["reports"] = []
    for n in config.quartet_ns:
        values = multiplier._complex_normals(rng, config.quartet_symbols, n)
        for report in lab.fourier_quartet_check(n, values, trials=3, seed=seed,
                                                tol=config.tolerance):
            reports.append(report)
            if not report.passed:
                bad = {k: v for k, v in report.residuals.items()
                       if not v <= config.tolerance}
                failures.append(
                    f"quartet n={report.n} members {sorted(bad)} failed; "
                    f"flipped convention passes: {report.flipped_passes}"
                )


def _suite_oracle(config: ExperimentConfig, ctx: Context, seed: int, out: Path,
                  data: dict, failures: list) -> None:
    """The discrete reduction runs before the duality residual, the one oracle
    that raises (on a frame whose lower bound underflows)."""
    data["pairing_residual"] = residual = lab.brute_force_pairing(
        ctx.operator, trials=100, seed=seed)
    _gate(failures, "brute-force pairing residual", residual, config.tolerance)
    if _implies_space(config.sections["omega"]):
        data["discrete_reduction"] = comparison = lab.discrete_reduction_oracle(ctx.omega)
        if not comparison.agree:
            failures.append("discrete reduction paths disagree")
    if maps.diagnose(ctx.omega).classification in maps.FRAME_CLASSES:
        data["duality_residual"] = duality = lab.duality_residual(
            ctx.omega, maps.canonical_dual(ctx.omega), trials=100, seed=seed)
        _gate(failures, "duality residual", duality, config.tolerance)


# Suite name -> function.  run looks each suite up here when it calls it,
# so an entry replaced in this dict (a tracing wrapper, say) takes effect.
SUITES = {name: globals()[f"_suite_{name}"] for name in SUITE_ORDER}


# -- runner -------------------------------------------------------------------------

def _report_dir(config: ExperimentConfig) -> Path:
    """Create the report directory; a directory that cannot hold every report
    the run writes is a ConfigError, raised before any report is written."""
    name = config.output_dir
    out = Path(name)
    reports = [f"{suite}.json" for suite in config.suites] + ["summary.json"]
    if "sweep" in config.suites:
        reports.append("sweep.csv")
    try:
        out.mkdir(parents=True, exist_ok=True)
        blocked = [out / r for r in reports
                   if (out / r).exists() and not (out / r).is_file()]
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot create {name}: {exc.strerror}") from None
    if blocked:
        raise ConfigError("output_dir", f"report path {blocked[0]} is not a file")
    return out


def run(config_path, out_dir=None, tol=None, seed=None,
        json_output: bool = False) -> int:
    """Execute the experiment described by a JSON config file.

    Writes one report per selected suite into the output directory; the same
    config and seed produce byte-identical reports.  With ``json_output`` the
    run summary (including the machine-readable failure list) goes to stdout
    as JSON instead of human-readable lines.  The whole config is checked,
    and the context built, before any report is written.
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
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # nested too deeply
        print(f"error: cannot read config file {path}: {exc}", file=sys.stderr)
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
        ctx = build_context(config)
        out = _report_dir(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FrameLabError, MemoryError) as exc:  # an array too large to allocate
        print(f"error: cannot build experiment: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    all_failures = []
    for suite in config.suites:
        data, failures = {}, []
        try:
            SUITES[suite](config, ctx, _suite_seed(config.seed, suite), out,
                          data, failures)
        except (FrameLabError, MemoryError) as exc:  # keep what the suite recorded
            data["error"] = str(exc)
            failures.append(f"{suite}: {exc}")
        report = {
            "schema_version": SCHEMA_VERSION,
            "suite": suite,
            "passed": not failures,
            "failures": failures,
            "data": data,
        }
        (out / f"{suite}.json").write_text(_dumps(report) + "\n")
        all_failures.extend({"suite": suite, "detail": f} for f in failures)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "suites": list(config.suites),
        "passed": not all_failures,
        "failures": all_failures,
    }
    (out / "summary.json").write_text(_dumps(summary) + "\n")
    if json_output:
        print(_dumps(summary))
    else:
        for failure in all_failures:
            print(f"FAIL [{failure['suite']}] {failure['detail']}")
        if not all_failures:
            print(f"ok: {len(config.suites)} suite(s) passed; reports in {out}")
    return EXIT_ASSERTION if all_failures else EXIT_OK


def list_families(as_json: bool = False) -> str:
    catalog = {
        group: {
            name: {"params": {k: p.type for k, p in params.items()}, "note": note}
            for name, (params, note, _) in entries.items()
        }
        for group, entries in FAMILIES.items()
    }
    if as_json:
        return _dumps(catalog)
    lines = []
    for group, entries in catalog.items():
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
    print(list_families(as_json=args.json))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
