"""Seeded inputs for the framelab benchmark workloads.

Every repetition of a workload gets its own inputs, drawn from
``(workload seed, repetition index)`` at fixed sizes.  The program under
test only ever sees the files written here: a ``config.json`` and, for the
discrete workload, the CSV table it points at.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

CONTEXT_SUITES = (
    "diagnose", "dual", "multiplier", "calculus", "invert", "reconstruct",
    "orthogonality", "density", "oracle",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``write_inputs(rng, dest)`` writes the inputs of one repetition into
    ``dest`` and returns the sizes it used.
    """

    name: str
    why: str
    stresses: str
    bypasses: str
    write_inputs: Callable[[np.random.Generator, Path], dict]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_config(dest: Path, config: dict) -> None:
    (dest / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))


def riesz_delta(rng: np.random.Generator, dest: Path, n: int) -> dict:
    config = {
        "space": {"family": "periodic_unit_grid", "n": n},
        "model": {"family": "raw_samples"},
        "omega": {"family": "delta"},
        "theta": {"family": "canonical_dual"},
        "symbol": {"family": "reciprocal_safe", "seed": _seed(rng)},
        "suites": list(CONTEXT_SUITES),
        "seed": _seed(rng),
    }
    _write_config(dest, config)
    return {"N": n}


def discrete_csv(rng: np.random.Generator, dest: Path, j: int, k: int) -> dict:
    table = rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k))
    lines = (
        ",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in table
    )
    (dest / "table.csv").write_text("\n".join(lines) + "\n")
    config = {
        "omega": {"family": "discrete", "vectors": "table.csv"},
        "theta": {"family": "canonical_dual"},
        "symbol": {"family": "reciprocal_safe", "seed": _seed(rng)},
        "suites": [s for s in CONTEXT_SUITES if s not in ("orthogonality", "density")],
        "seed": _seed(rng),
    }
    _write_config(dest, config)
    return {"J": j, "K": k}


def quartet_oracle(rng: np.random.Generator, dest: Path, ns: tuple,
                   symbols: int) -> dict:
    config = {
        # Never used by the quartet and sweep suites, but parse_config
        # rejects a config without an omega section (see NOTES.md).
        "omega": {"family": "delta"},
        "quartet": {"n": list(ns), "symbols": symbols},
        "sweep": {"kind": "weighted_delta"},
        "suites": ["quartet", "sweep"],
        "seed": _seed(rng),
    }
    _write_config(dest, config)
    return {"n": list(ns), "symbols": symbols}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="riesz-delta-256",
            why="square dual pair on a 256-point grid: every asserted path "
                "(calculus, Riesz bound, reciprocal inverse) runs",
            stresses="model (orthonormalize, from_samples), linalg, maps, "
                     "multiplier",
            bypasses="lab transforms; cli ingest is light",
            write_inputs=partial(riesz_delta, n=256),
        ),
        Workload(
            name="discrete-csv-768x96",
            why="overcomplete 768x96 table read from CSV, not a dual pair; "
                "runs the 1e-14 discrete-reduction oracle",
            stresses="cli ingest (the CSV is parsed twice), maps, multiplier "
                     "on rectangular tables",
            bypasses="model is light (counting spaces)",
            write_inputs=partial(discrete_csv, j=768, k=96),
        ),
        Workload(
            name="quartet-oracle",
            why="Fourier quartet at n in {32, 64, 128} x 4 symbols plus the "
                "weighted-delta sweep: the only lab-dominated workload",
            stresses="lab direct-sum transforms and the Python-loop "
                     "circular convolution; model (16 make_model calls)",
            bypasses="no context: diagnose, canonical_dual and cli ingest "
                     "never run",
            write_inputs=partial(quartet_oracle, ns=(32, 64, 128), symbols=4),
        ),
    )
}


def repetition_rng(seed: int, rep: int) -> np.random.Generator:
    """Generator for the inputs of repetition ``rep`` of a run seeded ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))
