"""A seeded config fuzz: every mutated config ends in a documented exit code.

Each draw takes one of the base configs below, which together name every
family of every group and every option key, and sets one or two of its
leaf values (a scalar, or an entry of a list) to a value from ``VALUES``.
Family and suite names are left as they are: a name that is not known is
exit 3 at once, so a draw spent on one would test nothing else.
The config then runs through ``cli.run`` in process, with every warning
turned into an error.  It must end with exit 0, 2, 3 or 4: no exception,
and no numpy ``RuntimeWarning``.

Sizes in ``VALUES`` are tiny, or 10^15 and above, which no array can
allocate, so no draw asks for a large allocation.  Tier-1 runs a few
hundred draws; a larger batch at another seed runs as a script:

    python tests/test_config_fuzz.py --seed 1 --count 5000
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import copy
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

from framelab import cli

VALUES = [0, 1, 2, 3, 7, -1, 0.5, -0.5, 2**63, 1e15, 1e30, 1e154, 1e160, 1e300, 1e308,
          -1e308, 1e-8, 1e-160, 1e-300, 5e-324, "nan", "1e400", "x", float("nan"),
          float("inf"), [], {}, [1e308], True, None]

# A 5 x 3 frame table, a 4 x 4 table on 4 points, and symbol rows on the 5
# points of the counting space that the 5 x 3 table implies.
CSV_FILES = {
    "table.csv": "1,0,0\n0,1+i,0\n0,0,2\n1,1,0\n0,1,-1\n",
    "custom.csv": "1,0,0,0\n0,2,0,0\n0,0,1-i,0\n1,0,0,3\n",
    "symbol.csv": "0,1,0\n1,2,0\n2,0.5,1\n3,1,-1\n4,3,0\n",
}

_GRID8 = {"family": "periodic_unit_grid", "n": 8}
_RAW = {"family": "raw_samples"}

# Base configs that run as they stand (exit 0); "{dir}" is the directory
# that holds CSV_FILES.
BASES = [
    {"space": _GRID8, "model": _RAW, "omega": {"family": "delta"},
     "theta": {"family": "canonical_dual"}, "symbol": {"family": "constant", "value": 2.0},
     "suites": ["diagnose", "dual", "multiplier", "invert", "orthogonality", "density"],
     "tolerance": 1e-10, "orthogonality": {"support_tol": 1e-9}},
    {"space": {"family": "fourier_grid", "n": 4}, "model": _RAW,
     "omega": {"family": "weighted_delta", "weight": [1, 2, 3, 4]},
     "theta": {"family": "same"},
     "symbol": {"family": "step", "low": 0.5, "high": [2, 1], "at": 0.5},
     "suites": ["multiplier", "calculus", "invert", "density"], "seed": 1},
    {"space": {"family": "symmetric_grid", "n": 8, "half_width": 2.0},
     "model": {"family": "gaussian_bumps", "centers": [-1.0, 0.0, 1.0], "width": 0.5},
     "omega": {"family": "delta"}, "theta": {"family": "canonical_dual"},
     "symbol": {"family": "coordinate"}, "suites": ["diagnose", "multiplier", "calculus"],
     "seed": 2},
    {"space": _GRID8, "model": {"family": "trigonometric", "max_degree": 2},
     "omega": {"family": "exponential"}, "theta": {"family": "same"},
     "symbol": {"family": "random_phase", "seed": 5},
     "suites": ["orthogonality", "density", "oracle"], "seed": 3},
    {"space": _GRID8, "model": _RAW,
     "omega": {"family": "translated_window",
               "window": {"family": "gaussian_window", "width": 0.1, "center": 0.5,
                          "cutoff": 1e-3}},
     "theta": {"family": "canonical_dual"},
     "symbol": {"family": "reciprocal_safe", "floor": 1.0, "ceil": 2.0, "seed": 4},
     "suites": ["diagnose", "dual", "invert"]},
    {"space": {"family": "periodic_unit_grid", "n": 4}, "model": _RAW,
     "omega": {"family": "translated_window", "window": [1, 0.5, "0.25i", [0, 1]]},
     "suites": ["diagnose", "multiplier"]},
    {"omega": {"family": "discrete",
               "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, "1+2i", 1],
                           [1, 0, -1]]},
     "theta": {"family": "canonical_dual"}, "symbol": {"family": "constant", "value": 1.5},
     "suites": ["dual", "multiplier", "calculus", "oracle"], "seed": 1},
    {"omega": {"family": "discrete", "vectors": "{dir}/table.csv"},
     "symbol": {"family": "csv", "path": "{dir}/symbol.csv"},
     "suites": ["diagnose", "multiplier", "oracle"], "seed": 1},
    {"space": {"family": "counting", "n": 4}, "model": _RAW,
     "omega": {"family": "custom", "csv": "{dir}/custom.csv"},
     "symbol": {"family": "constant", "value": [1, 1]}, "suites": ["diagnose", "invert"]},
    {"suites": ["quartet", "sweep"], "seed": 1, "quartet": {"n": [4, 8], "symbols": 2},
     "sweep": {"kind": "weighted_delta", "l_values": [2, 4, 8], "points_per_unit": 4}},
    {"suites": ["sweep"],
     "sweep": {"kind": "bounded_control", "l_values": [1, 2, 4], "points_per_unit": 2}},
    {"suites": ["quartet"], "seed": 1, "quartet": {"n": 4, "symbols": 1}},
]

DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_ASSERTION}


def _with_dir(value, directory: str):
    """``value`` with "{dir}" in every string replaced by ``directory``."""
    if isinstance(value, dict):
        return {k: _with_dir(v, directory) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_dir(v, directory) for v in value]
    return value.replace("{dir}", directory) if isinstance(value, str) else value


def _leaves(value, path=()):
    """The paths of the scalars, and of the empty lists and dicts, in ``value``,
    but for family and suite names."""
    if path[-1:] == ("family",) or path[:1] == ("suites",):
        return []
    if not value or not isinstance(value, (dict, list)):
        return [path]
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [leaf for key, v in items for leaf in _leaves(v, path + (key,))]


def mutate(rng: np.random.Generator, base: dict) -> dict:
    """A copy of ``base`` with one or two of its leaves set to values from VALUES."""
    config = copy.deepcopy(base)
    leaves = _leaves(config)
    for i in rng.choice(len(leaves), size=rng.integers(1, 3), replace=False):
        *parents, key = leaves[i]
        node = config
        for step in parents:
            node = node[step]
        node[key] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    return config


@contextlib.contextmanager
def _data_dir():
    """A temporary directory that holds CSV_FILES."""
    with tempfile.TemporaryDirectory() as name:
        for file, text in CSV_FILES.items():
            (Path(name) / file).write_text(text)
        yield Path(name)


def run_one(config: dict, directory: Path) -> tuple[int | None, str]:
    """The exit code of one config, or None and what went wrong."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = cli.run(path, out_dir=directory / "out")
        except Exception:  # a traceback, or a warning turned into an error
            return None, traceback.format_exc(limit=-3)
    return code, "" if code in DOCUMENTED_EXITS else f"undocumented exit {code}"


def fuzz(seed: int, count: int) -> tuple[collections.Counter, list]:
    """Run ``count`` mutated configs drawn at ``seed``: the exit codes seen,
    and (config, problem) for each config that did not end in a documented one."""
    rng = np.random.default_rng(seed)
    exits, problems = collections.Counter(), []
    with _data_dir() as directory:
        bases = [_with_dir(base, str(directory)) for base in BASES]
        for _ in range(count):
            config = mutate(rng, bases[rng.integers(len(bases))])
            code, problem = run_one(config, directory)
            exits[code] += 1
            if problem:
                problems.append((config, problem))
    return exits, problems


def test_every_base_config_runs():
    with _data_dir() as directory:
        for base in BASES:
            config = _with_dir(base, str(directory))
            assert run_one(config, directory) == (cli.EXIT_OK, ""), config


def test_the_base_configs_name_every_family_and_every_option_key():
    named = collections.defaultdict(set)
    for base in BASES:
        for section, group in cli.SECTIONS.items():
            if section in base:
                named[group].add(base[section]["family"])
        for section in cli.OPTIONS:
            named[section] |= set(base.get(section, {}))
        window = base.get("omega", {}).get("window")
        if isinstance(window, dict):
            named["window"] |= set(window) - {"family"}
    for group, families in cli.FAMILIES.items():
        assert named[group] == set(families), group
    for section, params in cli.OPTIONS.items():
        assert named[section] == set(params), section
    assert named["window"] == set(cli._GAUSSIAN_WINDOW)


def test_a_seeded_fuzz_ends_every_config_in_a_documented_exit_without_a_warning():
    # Seed 2 is the first whose 300 draws printed RuntimeWarnings before the
    # density norms and the composition residual met overflow.
    exits, problems = fuzz(seed=2, count=300)
    assert problems == [], problems[:3]
    assert set(exits) == DOCUMENTED_EXITS - {cli.EXIT_PARSE}  # the JSON always parses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=300)
    args = parser.parse_args(argv)
    exits, problems = fuzz(args.seed, args.count)
    for config, problem in problems:
        print(json.dumps(config), problem, sep="\n")
    print(f"seed {args.seed}: {args.count} configs, exits "
          f"{dict(sorted(exits.items(), key=str))}, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
