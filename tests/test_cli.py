import ast
import csv
import filecmp
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from framelab import (
    InconsistencyError,
    SingularOperatorError,
    cli,
    lab,
    maps,
    measure,
    model,
    multiplier,
)
from framelab.cli import (
    EXIT_ASSERTION,
    EXIT_CLOSED_STDOUT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    FAMILIES,
    SUITE_ORDER,
    _complex,
    _csv_lines,
    _dumps,
    _existing_path,
    _read_family,
    _suite_density,
    _suite_dual,
    _table_csv,
    build_context,
    main,
    parse_config,
    run,
)
from conftest import with_dense

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_report(out_dir, suite):
    return json.loads((out_dir / f"{suite}.json").read_text())


def as_complex_matrix(rows):
    return np.array([[complex(a, b) for (a, b) in row] for row in rows])


PARSEVAL_CONFIG = {
    "space": {"family": "periodic_unit_grid", "n": 16},
    "model": {"family": "trigonometric", "max_degree": 8},
    "omega": {"family": "delta"},
    "theta": {"family": "same"},
    "symbol": {"family": "constant", "value": 1.0},
    "suites": ["diagnose", "multiplier"],
    "seed": 7,
    "tolerance": 1e-10,
}


def overcomplete_config(tmp_path, j, k, suites):
    """A random J x K `discrete` table, read from CSV, with its canonical dual."""
    rng = np.random.default_rng(j * k)
    table = rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k))
    (tmp_path / "table.csv").write_text("".join(
        ",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n" for row in table))
    return write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": str(tmp_path / "table.csv")},
        "theta": {"family": "canonical_dual"},
        "suites": suites,
        "seed": 1,
    })


EPS = np.finfo(float).eps
# report fields that measure rounding error: each reads near 0 on both paths
ROUNDING_FIELD = re.compile(r"residual|gap|defect")


def report_leaves(value, path=""):
    """(path, value) for every scalar of a JSON report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from report_leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from report_leaves(item, f"{path}[{index}]")
    else:
        yield path, value


class TestRun:
    def test_parseval_identity_case(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", PARSEVAL_CONFIG)
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        diag = load_report(out, "diagnose")
        assert diag["passed"]
        assert diag["data"]["omega"]["classification"] == "gelfand_basis"
        assert abs(diag["data"]["omega"]["lower"] - 1) < 1e-10
        assert abs(diag["data"]["omega"]["upper"] - 1) < 1e-10
        mult = load_report(out, "multiplier")
        dense = as_complex_matrix(mult["data"]["dense"])
        assert np.max(np.abs(dense - np.eye(16))) < 1e-10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"]
        assert summary["schema_version"] == "1"

    def test_discrete_dual_case(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [[1, 0], [1, 1], [0, 1]]},
            "theta": {"family": "canonical_dual"},
            "suites": ["diagnose", "dual"],
            "seed": 11,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        diag = load_report(out, "diagnose")
        assert diag["data"]["omega"]["lower"] == pytest.approx(1.0)
        assert diag["data"]["omega"]["upper"] == pytest.approx(3.0)
        dual = load_report(out, "dual")
        vectors = as_complex_matrix(dual["data"]["dual_vectors"])
        expected = np.array([[2 / 3, -1 / 3], [1 / 3, 1 / 3], [-1 / 3, 2 / 3]])
        assert np.max(np.abs(vectors - expected)) < 1e-10

    def test_missing_frame_file_is_a_validation_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "counting", "n": 2},
            "model": {"family": "raw_samples"},
            "omega": {"family": "custom", "csv": str(tmp_path / "nope.csv")},
            "suites": ["diagnose"],
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "omega.csv" in err

    @pytest.mark.parametrize("content", [
        b"{not json", b'{"seed": "\xe9"}', None,
        b'{"suites": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["not-json", "not-utf8", "directory", "nested-too-deeply"])
    def test_parse_error(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run(path, out_dir=tmp_path / "out") == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_missing_seed_for_randomized_suite(self, tmp_path, capsys):
        payload = dict(PARSEVAL_CONFIG)
        payload.pop("seed")
        payload["suites"] = ["oracle"]
        config = write_config(tmp_path, "cfg.json", payload)
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    def test_suite_failure_gives_assertion_exit(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [[1, 0], [2, 0]]},
            "theta": {"family": "same"},
            "suites": ["diagnose", "dual"],
            "seed": 3,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["passed"]
        assert summary["failures"][0]["suite"] == "dual"
        # completed suites still have reports
        assert load_report(out, "diagnose")["passed"]

    def test_determinism_byte_identical_reports(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "periodic_unit_grid", "n": 8},
            "model": {"family": "trigonometric", "max_degree": 4},
            "omega": {"family": "delta"},
            "theta": {"family": "canonical_dual"},
            "symbol": {"family": "random_phase", "seed": 5},
            "suites": ["diagnose", "dual", "multiplier", "calculus", "invert",
                       "reconstruct", "orthogonality", "density", "sweep",
                       "quartet", "oracle"],
            "seed": 42,
            "quartet": {"n": [4, 8], "symbols": 2},
            "sweep": {"l_values": [2, 4, 8]},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(config, out_dir=out1) == EXIT_OK
        assert run(config, out_dir=out2) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert "sweep.csv" in names
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == names

    def test_quartet_only_config_needs_no_space(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "delta"},
            "suites": ["quartet"],
            "seed": 9,
            "quartet": {"n": [4, 8], "symbols": 2},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        report = load_report(out, "quartet")
        assert report["passed"]
        assert len(report["data"]["reports"]) == 4

    def test_quartet_checks_each_grid_once(self, tmp_path, monkeypatch):
        calls = {"make_model": [], "fourier_quartet_check": []}
        for name in calls:
            original = getattr(lab, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name].append(args[0] if _name == "fourier_quartet_check"
                                    else len(args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(lab, name, counted)
        config = write_config(tmp_path, "cfg.json", {
            "suites": ["quartet"],
            "seed": 9,
            "quartet": {"n": [4, 8], "symbols": 3},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        assert calls == {"make_model": [4, 8], "fourier_quartet_check": [4, 8]}
        reports = load_report(out, "quartet")["data"]["reports"]
        assert [r["n"] for r in reports] == [4, 4, 4, 8, 8, 8]

    def test_quartet_and_sweep_config_needs_no_omega(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "suites": ["quartet", "sweep"],
            "seed": 9,
            "quartet": {"n": [4], "symbols": 1},
            "sweep": {"l_values": [2, 4, 8]},
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_OK

    def test_bounded_control_sweep_runs_on_the_weighted_delta_grids(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "suites": ["sweep"],
            "sweep": {"kind": "bounded_control", "l_values": [2.5, 5, 10]},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        report = load_report(out, "sweep")
        assert report["data"]["verdict"] == "bounded"
        assert report["data"]["schedule"] == [[21, 2.5], [41, 5.0], [81, 10.0]]
        assert report["data"]["norms"] == pytest.approx([1.0, 1.0, 1.0])

    def test_bounded_control_sweep_fails_on_an_unbounded_verdict(self, tmp_path,
                                                                 monkeypatch):
        monkeypatch.setattr(lab, "GROWTH_THRESHOLD", -1.0)
        config = write_config(tmp_path, "cfg.json", {
            "suites": ["sweep"],
            "sweep": {"kind": "bounded_control", "l_values": [2, 4, 8]},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "sweep")
        assert report["data"]["verdict"] == "unbounded"
        assert report["failures"] == ["expected a bounded verdict"]

    def test_top_level_list_is_a_parse_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", [PARSEVAL_CONFIG])
        assert run(config, out_dir=tmp_path / "out") == EXIT_PARSE
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field, patch", [
        ("space.n", {"space": {"family": "periodic_unit_grid", "n": "x"}}),
        ("omega.weight", {"omega": {"family": "weighted_delta",
                                    "weight": ["abc"] + ["1"] * 15}}),
        ("omega.weight: must be a list of complex entries",
         {"omega": {"family": "weighted_delta", "weight": 5}}),
        ("symbol", {"symbol": {"family": "constant", "value": "nan"}}),
        # a boolean is not a complex entry: bare, in a pair, in a table
        ("symbol.value", {"symbol": {"family": "constant", "value": True}}),
        ("symbol.value", {"symbol": {"family": "constant", "value": [True, False]}}),
        ("omega.vectors", {"omega": {"family": "discrete", "vectors": [[True], [1]]}}),
        # one case per parameter kind of the family table
        ("space.n", {"space": {"family": "periodic_unit_grid", "n": 16.7}}),
        ("space.n", {"space": {"family": "periodic_unit_grid", "n": "16"}}),
        ("space.n", {"space": {"family": "symmetric_grid", "n": 1,
                               "half_width": 1.0}}),
        ("space.half_width", {"space": {"family": "symmetric_grid", "n": 16,
                                        "half_width": "nan"}}),
        ("model.max_degree", {"model": {"family": "trigonometric",
                                        "max_degree": 2.9}}),
        ("model.max_degree", {"model": {"family": "trigonometric",
                                        "max_degree": "2"}}),
        ("model.centers", {"model": {"family": "gaussian_bumps", "centers": [],
                                     "width": 0.1}}),
        ("symbol.seed", {"symbol": {"family": "random_phase", "seed": 2.5}}),
        ("symbol.seed", {"symbol": {"family": "random_phase", "seed": -1}}),
        ("symbol.low", {"symbol": {"family": "step", "low": [1, 2, 3]}}),
        ("symbol.path", {"symbol": {"family": "csv", "path": 7}}),
        ("omega.window.width", {"omega": {"family": "translated_window",
                                          "window": {"width": "x"}}}),
        ("omega.vectors", {"omega": {"family": "discrete", "vectors": [[1], [1, 2]]}}),
        ("omega.family", {"omega": {"family": "canonical_dual"}}),
        ("space.family", {"space": {"family": "torus", "n": 16}}),
        ("seed", {"seed": -1}),
        # data paths that name a directory
        ("omega.vectors", {"omega": {"family": "discrete", "vectors": str(DATA)}}),
        ("omega.csv", {"omega": {"family": "custom", "csv": str(DATA)}}),
        ("symbol.path", {"symbol": {"family": "csv", "path": str(DATA)}}),
        # an output directory that is a number, a file or under a file
        ("output_dir", {"output_dir": 5}),
        ("output_dir", {"output_dir": str(DATA / "list_families.txt")}),
        ("output_dir", {"output_dir": str(DATA / "list_families.txt" / "out")}),
        # a report path that is a directory: a suite report, the summary
        # and the sweep data
        ("output_dir", {"output_dir": "blocked/diagnose"}),
        ("output_dir", {"output_dir": "blocked/summary"}),
        ("output_dir", {"output_dir": "blocked/sweep",
                        "suites": ["diagnose", "sweep"]}),
        # a modulus range whose ceiling is below its floor
        ("symbol.ceil", {"symbol": {"family": "reciprocal_safe", "floor": 1.0,
                                    "ceil": 0.5, "seed": 3}}),
        # keys that nothing declares, which would leave a default in place
        ("symbol.flor", {"symbol": {"family": "reciprocal_safe", "flor": 0.001,
                                    "seed": 3}}),
        ("space.size", {"space": {"family": "periodic_unit_grid", "n": 16,
                                  "size": 8}}),
        ("omega.weight", {"omega": {"family": "delta", "weight": "coordinate"}}),
        ("tolerence", {"tolerence": 1e-8}),
        ("sed", {"sed": 3}),
        ("omega.window.family", {"omega": {"family": "translated_window",
                                           "window": {"family": "hann",
                                                      "widht": 0.1}}}),
        ("omega.window.widht", {"omega": {"family": "translated_window",
                                          "window": {"family": "gaussian_window",
                                                     "widht": 0.1}}}),
        ("orthogonality.support_tl", {"orthogonality": {"support_tl": 1e-6}}),
        # no suites, a suite that nothing defines, a section that is not an
        # object, a tolerance that is not positive
        ("suites: must be a nonempty list", {"suites": []}),
        ("suites: must be a nonempty list", {"suites": "diagnose"}),
        ("suites: unknown suite 'bogus'", {"suites": ["diagnose", "bogus"]}),
        ("quartet: must be a JSON object", {"quartet": 5}),
        ("tolerance: must be positive, got 0", {"tolerance": 0}),
    ])
    def test_bad_values_are_validation_errors(self, tmp_path, monkeypatch, capsys,
                                              field, patch):
        monkeypatch.chdir(tmp_path)
        for name in ("diagnose.json", "summary.json", "sweep.csv"):
            (tmp_path / "blocked" / Path(name).stem / name).mkdir(parents=True)
        config = write_config(tmp_path, "cfg.json", {**PARSEVAL_CONFIG, **patch})
        before = sorted(tmp_path.rglob("*"))
        out = None if "output_dir" in patch else tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_VALIDATION
        assert f"invalid config: {field}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # no report written

    @pytest.mark.parametrize("patch, message", [
        ({"space": {"family": "symmetric_grid", "n": 2, "half_width": 1e308}},
         "symmetric grid half_width 1e+308 is too large: its span 2L overflows"),
        ({"space": {"family": "symmetric_grid", "n": 8, "half_width": 1.0},
          "model": {"family": "gaussian_bumps", "centers": [-1.0, 1.0],
                    "width": 1e-300}},
         "Gaussian width 1e-300 is too small: 2 width^2 underflows to 0"),
        ({"model": {"family": "raw_samples"},
          "omega": {"family": "translated_window",
                    "window": {"family": "gaussian_window", "width": 1e-300}}},
         "Gaussian width 1e-300 is too small: 2 width^2 underflows to 0"),
    ], ids=["grid-overflow", "bump-underflow", "window-underflow"])
    def test_extreme_values_cannot_build_the_experiment(self, tmp_path, capsys,
                                                        patch, message):
        config = write_config(tmp_path, "cfg.json", {**PARSEVAL_CONFIG, **patch})
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_VALIDATION
        assert f"cannot build experiment: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, section", [
        ("quartet.n", {"quartet": {"n": ["x"]}}),
        ("quartet.n", {"quartet": {"n": {}}}),
        ("quartet.n", {"quartet": {"n": [0]}}),
        ("quartet.n", {"quartet": {"n": [-3]}}),
        ("quartet.n", {"quartet": {"n": [2.5]}}),
        ("quartet.n", {"quartet": {"n": []}}),
        ("quartet.symbols", {"quartet": {"symbols": "x"}}),
        ("quartet.symbols", {"quartet": {"symbols": 0}}),
        ("sweep.l_values", {"sweep": {"l_values": "abc"}}),
        ("sweep.l_values", {"sweep": {"l_values": ["x"]}}),
        ("sweep.l_values", {"sweep": {"l_values": [2, 4, "nan"]}}),
        ("sweep.points_per_unit", {"sweep": {"points_per_unit": "x"}}),
        ("sweep.kind", {"sweep": {"kind": "logarithmic"}}),
        # schedules a growth fit cannot use: not increasing in n, steps
        # that round to one grid size, fewer than three steps
        ("sweep.l_values", {"sweep": {"l_values": [8, 4, 2]}}),
        ("sweep.l_values", {"sweep": {"l_values": [2, 2, 2]}}),
        ("sweep.l_values", {"sweep": {"l_values": [0.01, 0.02, 0.03]}}),
        ("sweep.l_values", {"sweep": {"l_values": [2, 4]}}),
        ("sweep.l_values", {"sweep": {"kind": "bounded_control",
                                      "l_values": [2, 4]}}),
        # a first step of one grid point
        ("sweep.l_values", {"sweep": {"l_values": [0.01, 0.2, 0.3]}}),
        ("sweep.l_values", {"sweep": {"kind": "bounded_control",
                                      "l_values": [0.01, 0.02, 0.03]}}),
        # keys that nothing declares
        ("quartet.symbol", {"quartet": {"symbol": 1}}),
        ("sweep.ppu", {"sweep": {"ppu": 4}}),
    ])
    def test_bad_quartet_and_sweep_values_are_validation_errors(
            self, tmp_path, capsys, field, section):
        suite = field.split(".")[0]
        config = write_config(tmp_path, "cfg.json",
                              {"suites": [suite], "seed": 3, **section})
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert f"invalid config: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, payload", [
        ("space.family", {"suites": ["quartet"], "seed": 1,
                          "quartet": {"n": [4], "symbols": 1},
                          "symbol": {"family": "bogus"},
                          "space": {"family": "torus"},
                          "theta": {"family": "nope"}}),
        ("symbol.value", {"suites": ["sweep"],
                          "symbol": {"family": "constant", "value": "x"}}),
        ("symbol.family", {"suites": ["quartet"], "seed": 1,
                           "symbol": {"family": "bogus"}}),
        ("omega.vectors", {"suites": ["sweep"],
                           "omega": {"family": "discrete", "vectors": []}}),
        ("model.max_degree", {"suites": ["sweep"],
                              "model": {"family": "trigonometric"}}),
        # a discrete omega implies the space and the model it is built on
        ("space.n", {"suites": ["diagnose"],
                     "omega": {"family": "discrete", "vectors": [[1], [2]]},
                     "space": {"family": "counting", "n": 0}}),
        ("symbol.flor", {"suites": ["sweep"],
                         "symbol": {"family": "reciprocal_safe", "flor": 0.1}}),
        ("omega.window.widht", {"suites": ["sweep"],
                                "omega": {"family": "translated_window",
                                          "window": {"widht": 0.1}}}),
        ("omega.window.width", {"suites": ["sweep"],
                                "omega": {"family": "translated_window",
                                          "window": {"width": "x"}}}),
    ], ids=["quartet-only", "sweep-only", "symbol", "omega", "model", "implied",
            "undeclared", "window-key", "window-value"])
    def test_unbuilt_sections_are_still_checked(self, tmp_path, monkeypatch,
                                                capsys, field, payload):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, "cfg.json", payload)
        before = sorted(tmp_path.rglob("*"))
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert f"invalid config: {field}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # no report written

    def test_data_paths_resolve_against_the_working_directory(
            self, tmp_path, monkeypatch, capsys):
        config_dir, elsewhere = tmp_path / "config", tmp_path / "elsewhere"
        config_dir.mkdir()
        elsewhere.mkdir()
        (config_dir / "table.csv").write_text("1,0\n0,1\n1,1\n")
        config = write_config(config_dir, "cfg.json", {
            "omega": {"family": "discrete", "vectors": "table.csv"},
            "suites": ["diagnose"],
        })
        monkeypatch.chdir(elsewhere)
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert "file does not exist: table.csv" in capsys.readouterr().err
        monkeypatch.chdir(config_dir)
        assert run(config, out_dir=tmp_path / "out") == EXIT_OK

    def test_dual_suite_reuses_the_context_dual_and_keeps_no_second(
            self, tmp_path, monkeypatch):
        config = parse_config({
            "space": {"family": "periodic_unit_grid", "n": 8},
            "model": {"family": "raw_samples"},
            "omega": {"family": "exponential"},  # not diagonal, so its dual is solved
            "theta": {"family": "canonical_dual"},
            "suites": ["dual"], "seed": 1,
        })
        ctx = build_context(config)
        assert maps.canonical_dual(ctx.omega) is ctx.theta
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(kwargs) or svd(*args, **kwargs))
        data, failures = {}, []
        assert _suite_dual(config, ctx, 0, tmp_path, data, failures) is None
        assert failures == [] and data["dual_of_dual_residual"] < 1e-12
        # the dual's spectrum, then the thin SVD of the dual of the dual only
        assert calls == [{"compute_uv": False}, {"full_matrices": False}]
        assert "_dual" not in vars(ctx.theta)

    def test_family_seeds_accept_zero(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            **PARSEVAL_CONFIG, "symbol": {"family": "random_phase", "seed": 0.0},
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_OK

    def test_bad_later_section_writes_no_report(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {
            "suites": ["sweep", "quartet"], "seed": 1, "quartet": {"n": [0]},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_VALIDATION
        assert "invalid config: quartet.n" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_report_key_paths_match_the_schema(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [[1, 0], [1, 1], [0, 1]]},
            "theta": {"family": "canonical_dual"},
            "symbol": {"family": "reciprocal_safe", "floor": 0.5, "ceil": 3,
                       "seed": 0},
            "suites": ["diagnose", "dual", "multiplier", "calculus", "invert",
                       "reconstruct", "orthogonality", "density", "sweep",
                       "quartet", "oracle"],
            "seed": 11,
            "sweep": {"l_values": [2, 4, 8]},
            "quartet": {"n": [4], "symbols": 1},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        found = set()
        for report in out.glob("*.json"):
            found |= key_paths(json.loads(report.read_text()), report.stem)
        expected = (DATA / "report_paths.txt").read_text().split()
        assert sorted(found) == expected

    def test_exponential_frame_orthogonality_config(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "periodic_unit_grid", "n": 16},
            "model": {"family": "trigonometric", "max_degree": 8},
            "omega": {"family": "exponential"},
            "theta": {"family": "canonical_dual"},
            "symbol": {"family": "constant", "value": 1.0},
            "suites": ["orthogonality"],
            "seed": 2,
            "orthogonality": {"support_tol": 1e-8},
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        report = load_report(out, "orthogonality")
        assert report["data"]["pseudo"]["passed"]
        assert report["data"]["hyper"]["passed"]

    def test_custom_csv_frame_and_symbol(self, tmp_path):
        (tmp_path / "frame.csv").write_text("1+0i,0+0i\n0+0i,1+0i\n")
        (tmp_path / "symbol.csv").write_text("0,2,0\n1,3,0\n")
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "counting", "n": 2},
            "model": {"family": "raw_samples"},
            "omega": {"family": "custom", "csv": str(tmp_path / "frame.csv")},
            "theta": {"family": "same"},
            "symbol": {"family": "csv", "path": str(tmp_path / "symbol.csv")},
            "suites": ["diagnose", "multiplier"],
            "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        mult = load_report(out, "multiplier")
        dense = as_complex_matrix(mult["data"]["dense"])
        assert np.allclose(dense, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("rows", ["0,2,0\n1,3,0,99\n", "0,2,0\n1,3\n"])
    def test_symbol_csv_rows_are_exactly_point_re_im(self, tmp_path, capsys, rows):
        (tmp_path / "symbol.csv").write_text(rows)
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "counting", "n": 2},
            "model": {"family": "raw_samples"},
            "omega": {"family": "delta"},
            "symbol": {"family": "csv", "path": str(tmp_path / "symbol.csv")},
            "suites": ["diagnose"],
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert ("invalid config: symbol.path: rows must be point,re,im numbers"
                in capsys.readouterr().err)

    def test_custom_table_must_match_space_and_model(self, tmp_path, capsys):
        (tmp_path / "frame.csv").write_text("1,0\n0,1\n1,1\n")
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "counting", "n": 2},
            "model": {"family": "raw_samples"},
            "omega": {"family": "custom", "csv": str(tmp_path / "frame.csv")},
            "suites": ["diagnose"],
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert "invalid config: omega.csv: table shape (3, 2)" in capsys.readouterr().err

    def test_injective_operator_with_tiny_symbol_passes_invert(self, tmp_path):
        # diag(5e-11, 1) is injective in exact arithmetic but not under the
        # relative rank rule; that is a verdict, not an inconsistency.
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "periodic_unit_grid", "n": 8},
            "model": {"family": "raw_samples"},
            "omega": {"family": "delta"},
            "symbol": {"family": "step", "low": 5e-11, "high": 1.0},
            "suites": ["invert"],
            "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        data = load_report(out, "invert")["data"]
        assert data["injective"] is False
        assert data["sigma_min"] == pytest.approx(5e-11)

    def test_tiny_constant_symbol_does_not_vanish(self, tmp_path):
        # 1e-13 everywhere is small but not small against ess_sup|m|, so
        # the reciprocal check runs on this dual pair.
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "counting", "n": 3},
            "model": {"family": "raw_samples"},
            "omega": {"family": "delta"},
            "symbol": {"family": "constant", "value": 1e-13},
            "suites": ["invert"],
            "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        data = load_report(out, "invert")["data"]
        assert data["injective"] is True
        assert data["vanishing_points"] == []
        assert data["reciprocal_residual"] == 0.0

    def test_riesz_bound_violation_fails_the_invert_suite(self, tmp_path,
                                                          monkeypatch):
        build = multiplier.build

        def corrupted(*args, **kwargs):  # only the context's validated operator
            op = build(*args, **kwargs)
            if kwargs.get("validate", True):
                op = with_dense(op, np.diag([2.0, 1.0, 5.0]))
            return op

        monkeypatch.setattr(multiplier, "build", corrupted)
        (tmp_path / "symbol.csv").write_text("0,2,0\n1,3,0\n2,5,0\n")
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "counting", "n": 3},
            "model": {"family": "raw_samples"},
            "omega": {"family": "delta"},
            "symbol": {"family": "csv", "path": str(tmp_path / "symbol.csv")},
            "suites": ["invert"],
            "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "invert")
        assert "inverse bound violated" in report["failures"]
        assert report["data"]["bound_satisfied"] is False

    def test_density_suite_fails_a_family_that_is_not_total(self, tmp_path, monkeypatch):
        # density is not randomized, so a config without a seed runs it
        payload = {**PARSEVAL_CONFIG, "model": {"family": "raw_samples"},
                   "suites": ["density"]}
        del payload["seed"]
        config = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        data = load_report(out, "density")["data"]
        assert data["passed"] and data["total"]
        assert "closability" not in data and "split_ok" not in data

        bump_family = maps.bump_family
        monkeypatch.setattr(maps, "bump_family",
                            lambda mdl, heights=None: bump_family(mdl, heights)[:, :3])
        assert run(config, out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "density")
        assert report["failures"] == ["density certificate: witness family is not total"]
        assert report["data"]["total"] is False

    def test_density_suite_decomposes_its_family_once(self, tmp_path, monkeypatch):
        config = parse_config({**PARSEVAL_CONFIG, "suites": ["density"]})
        ctx = build_context(config)
        maps.diagnose(ctx.theta)  # the spectrum, which the diagnose suite caches
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        data, failures = {}, []
        assert _suite_density(config, ctx, 0, tmp_path, data, failures) is None
        assert len(calls) == 1  # the witness family's totality, shared by both checks
        assert failures == []

    @staticmethod
    def context_config(tmp_path, omega, theta=None):
        """A 32-point raw-samples config, by default with the canonical dual
        as its synthesis map, through the 9 context suites."""
        return write_config(tmp_path, "cfg.json", {
            "space": {"family": "periodic_unit_grid", "n": 32},
            "model": {"family": "raw_samples"},
            "omega": omega,
            "theta": theta or {"family": "canonical_dual"},
            "symbol": {"family": "reciprocal_safe", "seed": 11},
            "suites": ["diagnose", "dual", "multiplier", "calculus", "invert",
                       "reconstruct", "orthogonality", "density", "oracle"],
            "seed": 7,
        })

    def count_context_decompositions(self, tmp_path, monkeypatch, omega_family):
        """LAPACK calls of the context config through the 9 context suites."""
        config = self.context_config(tmp_path, {"family": omega_family})
        calls = {"svd": 0, "qr": 0, "eigvalsh": 0, "solve": 0, "inv": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert run(config, out_dir=tmp_path / "out") == EXIT_OK
        return calls

    def test_raw_samples_context_suites_decompose_only_what_is_not_known(
            self, tmp_path, monkeypatch):
        # every matrix of the delta pair is diagonal: the raw-samples basis,
        # its condition number, omega's and theta's spectra and bounds, the
        # dual and the dual of the dual, the operator's singular values and
        # the spike families' totality are all read from diagonals; only the
        # operator's inverse is a LAPACK call
        calls = self.count_context_decompositions(tmp_path, monkeypatch, "delta")
        assert calls == {"svd": 0, "qr": 0, "eigvalsh": 0, "solve": 0, "inv": 1}

    def test_dense_context_suites_decompose_each_dense_matrix_once(
            self, tmp_path, monkeypatch):
        # omega's and theta's spectra, which give their bounds too, the
        # operator's singular values, the totality of the three band-limited
        # witness families, and the thin SVDs of the dual and of the dual of
        # the dual; the inverse
        calls = self.count_context_decompositions(tmp_path, monkeypatch, "exponential")
        assert calls == {"svd": 8, "qr": 0, "eigvalsh": 0, "solve": 0, "inv": 1}

    @pytest.mark.parametrize("omega, theta", [
        ({"family": "delta"}, None),
        # a diagonal that is not constant, so rows and columns differ, with
        # its canonical dual and with a dense synthesis map
        ({"family": "weighted_delta", "weight": [0.25, 0.5, 0.75, 1.0] * 8}, None),
        ({"family": "weighted_delta", "weight": [0.25, 0.5, 0.75, 1.0] * 8},
         {"family": "translated_window",
          "window": {"family": "gaussian_window", "width": 0.05, "center": 0.5}}),
    ], ids=["delta", "weighted_delta", "weighted_delta-window"])
    def test_diagonal_closed_forms_agree_with_the_dense_reports(
            self, tmp_path, monkeypatch, omega, theta):
        config = self.context_config(tmp_path, omega, theta)
        assert run(config, out_dir=tmp_path / "closed") == EXIT_OK
        # no matrix is diagonal: every product and SVD is dense, and the dual
        # comes from the thin SVD instead of a division by the diagonal, so
        # the reports agree to rounding, not bit for bit
        for module in (model, maps):
            monkeypatch.setattr(module, "_diagonal", lambda matrix: None)
        assert run(config, out_dir=tmp_path / "dense") == EXIT_OK
        names = sorted(path.name for path in (tmp_path / "closed").iterdir())
        assert len(names) == 10  # the 9 suites and the summary
        for name in names:
            closed, dense = (dict(report_leaves(json.loads((tmp_path / run_dir / name)
                                                           .read_text())))
                             for run_dir in ("closed", "dense"))
            assert closed.keys() == dense.keys()
            for path, value in closed.items():
                if dense[path] == value:
                    continue
                if ROUNDING_FIELD.search(path):  # rounding error, read 1e-17-3e-15
                    assert value < 1e-14 and dense[path] < 1e-14, path
                else:  # a float other than a residual, read at most 2 ulps apart
                    assert isinstance(value, float), path
                    assert dense[path] == pytest.approx(value, rel=4 * EPS, abs=0.0), path

    @staticmethod
    def conditioned_calculus_config(tmp_path, kappa):
        """A complex 48 x 48 table of condition number kappa and its
        canonical dual, through the calculus suite."""
        rng = np.random.default_rng(3)
        u, v = (np.linalg.qr(rng.standard_normal((48, 48))
                             + 1j * rng.standard_normal((48, 48)))[0]
                for _ in range(2))
        table = u @ np.diag(3 * np.geomspace(1, kappa, 48)) @ v
        return write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete",
                      "vectors": [[[z.real, z.imag] for z in row] for row in table]},
            "theta": {"family": "canonical_dual"},
            "suites": ["calculus"],
            "seed": 1,
        })

    def test_a_kappa_1e3_dual_pair_passes_the_calculus(self, tmp_path):
        # From the SVD dual the residuals read 3.4e-11-5.6e-11; a dual
        # solved with the frame matrix, which squares kappa, gives
        # 3.2e-9-5.6e-9, above the 1e-10 gate.
        out = tmp_path / "out"
        assert run(self.conditioned_calculus_config(tmp_path, 1e3), out_dir=out) == EXIT_OK
        data = load_report(out, "calculus")["data"]
        assert data["dual_pair"] is True
        assert data["worst_residual"] <= multiplier.RESIDUAL_TOL

    def test_ill_conditioned_calculus_reports_every_residual(self, tmp_path):
        # at condition number 1e4 each composition misses the absolute
        # calculus gate (ROADMAP item 10)
        out = tmp_path / "out"
        assert run(self.conditioned_calculus_config(tmp_path, 1e4),
                   out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "calculus")
        assert report["data"]["dual_pair"] is True
        assert len(report["data"]["residuals"]) == 10
        assert len(report["failures"]) == 10
        assert all(f.startswith("calculus residual") for f in report["failures"])

    def test_calculus_asserts_and_passes_on_an_overcomplete_768x96_table(self, tmp_path):
        out = tmp_path / "out"
        assert run(overcomplete_config(tmp_path, 768, 96, ["calculus"]),
                   out_dir=out) == EXIT_OK
        data = load_report(out, "calculus")["data"]
        assert data["dual_pair"] is False
        assert min(data["residuals"]) > 1.0  # far from dual, and not asserted
        defect = math.sqrt(768 - 96)
        assert defect / 1.25 <= data["duality_defect"] <= 1.25 * defect

    def test_calculus_reads_zero_on_a_square_delta_dual_pair(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", {
            "space": {"family": "periodic_unit_grid", "n": 16},
            "model": {"family": "raw_samples"},
            "omega": {"family": "delta"},
            "theta": {"family": "canonical_dual"},
            "suites": ["calculus"],
            "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        data = load_report(out, "calculus")["data"]
        assert data["dual_pair"] is True
        assert data["residuals"] == [0.0] * 10
        assert data["duality_defect"] == 0.0

    def test_calculus_residual_is_asserted_on_a_pair_judged_dual(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr(multiplier, "is_dual_pair", lambda omega, theta: True)
        out = tmp_path / "out"
        assert run(overcomplete_config(tmp_path, 12, 4, ["calculus"]),
                   out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "calculus")
        assert report["data"]["dual_pair"] is True
        assert len(report["failures"]) == 10
        assert all(f.startswith("calculus residual") for f in report["failures"])

    def test_suites_share_one_validated_operator(self, tmp_path, monkeypatch):
        validated = []
        build = multiplier.build

        def counted(*args, **kwargs):
            if kwargs.get("validate", True):
                validated.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(multiplier, "build", counted)
        config = write_config(tmp_path, "cfg.json", {
            **PARSEVAL_CONFIG,
            "suites": ["multiplier", "invert", "reconstruct", "oracle"],
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_OK
        assert len(validated) == 1

    def test_a_nan_residual_fails_its_gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lab, "brute_force_pairing", lambda *args, **kwargs: math.nan)
        config = write_config(tmp_path, "cfg.json", {
            **PARSEVAL_CONFIG, "suites": ["multiplier", "oracle"],
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        assert load_report(out, "multiplier")["failures"] == []
        assert load_report(out, "oracle")["failures"] == [
            "brute-force pairing residual nan"]

    def test_an_overflowing_multiplier_fails_its_suites(self, tmp_path):
        e = 1e5
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [
                [e, 0, 0, 0], [0, e, 0, 0], [0, 0, e, 0], [0, 0, 0, e],
                [e, e, 0, 0], [0, 0, e, e]]},
            "theta": {"family": "same"},
            "symbol": {"family": "constant", "value": 1e300},
            "suites": ["multiplier", "oracle"],
            "seed": 1,
        })
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run(config, out_dir=out) == EXIT_ASSERTION
        for suite in ("multiplier", "oracle"):
            assert load_report(out, suite)["passed"] is False

    def test_a_well_posed_128x96_table_with_theta_same_passes_multiplier(
            self, tmp_path):
        # |M| is about 856 here, so an absolute 1e-12 gate on a second
        # association order of the triple product read 1.8e-12 and failed
        rng = np.random.default_rng(0)
        table = rng.standard_normal((128, 96)) + 1j * rng.standard_normal((128, 96))
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete",
                      "vectors": [[[z.real, z.imag] for z in row] for row in table]},
            "theta": {"family": "same"},
            "symbol": {"family": "reciprocal_safe", "seed": 3},
            "suites": ["multiplier"],
            "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        assert load_report(out, "multiplier")["failures"] == []

    @pytest.mark.parametrize("theta", ["same", "canonical_dual"])
    def test_an_overflowing_frame_matrix_is_a_validation_error(self, tmp_path,
                                                                capsys, theta):
        e = 1e155
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [
                [e, 0, 0, 0], [0, e, 0, 0], [0, 0, e, 0], [0, 0, 0, e],
                [e, e, 0, 0], [0, 0, e, e]]},
            "theta": {"family": theta},
            "suites": ["diagnose"],
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: cannot build experiment: frame matrix overflows: "
            "entries must be finite\n")
        assert not out.exists()

    def test_the_dual_of_a_huge_frame_is_a_frame(self, tmp_path):
        e = 1e150
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [
                [e, 0, 0, 0], [0, e, 0, 0], [0, 0, e, 0], [0, 0, 0, e],
                [e, e, 0, 0], [0, 0, e, e]]},
            "theta": {"family": "canonical_dual"},
            "suites": ["diagnose"],
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        theta = load_report(out, "diagnose")["data"]["theta"]
        assert theta["classification"] == "frame"
        assert theta["upper"] == pytest.approx(1e-300)

    def test_operator_build_error_fails_each_suite_that_reads_it(
            self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise InconsistencyError("dense matrix disagrees")

        monkeypatch.setattr(multiplier, "build", broken)
        config = write_config(tmp_path, "cfg.json", {
            **PARSEVAL_CONFIG, "suites": ["diagnose", "multiplier", "oracle"],
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        assert load_report(out, "diagnose")["passed"]
        for suite in ("multiplier", "oracle"):
            assert load_report(out, suite)["data"] == {
                "error": "dense matrix disagrees"}

    def test_a_suite_stopped_by_an_error_keeps_what_it_recorded(self, tmp_path):
        # the discrete reduction runs before the duality residual, which needs
        # the canonical dual of a frame whose A = sigma_min^2 underflows
        config = write_config(tmp_path, "cfg.json", {
            "omega": {"family": "discrete", "vectors": [[1e-154, 0], [0, 1e-163]]},
            "theta": {"family": "same"}, "suites": ["oracle"], "seed": 1,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "oracle")
        assert {"pairing_residual", "discrete_reduction", "error"} <= set(report["data"])
        assert report["failures"][-1] == f"oracle: {report['data']['error']}"

    def test_a_failed_gate_is_kept_when_its_suite_then_raises(self, tmp_path,
                                                              monkeypatch):
        def singular(*args, **kwargs):
            raise SingularOperatorError("no dual")

        monkeypatch.setattr(lab, "duality_residual", singular)
        config = write_config(tmp_path, "cfg.json", {
            **PARSEVAL_CONFIG, "suites": ["oracle"], "tolerance": 1e-300,
        })
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        report = load_report(out, "oracle")
        assert report["failures"][0].startswith("brute-force pairing residual ")
        assert report["failures"][1:] == ["oracle: no dual"]
        assert set(report["data"]) == {"pairing_residual", "error"}
        assert report["data"]["pairing_residual"] > 1e-300


class TestMain:
    def test_list_families_text(self, capsys):
        assert main(["list-families"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("delta", "exponential", "weighted_delta",
                     "translated_window", "discrete"):
            assert name in out

    def test_list_families_json(self, capsys):
        assert main(["list-families", "--json"]) == EXIT_OK
        catalog = json.loads(capsys.readouterr().out)
        assert set(catalog) == {"spaces", "models", "frames", "symbols"}
        for entries in catalog.values():
            for entry in entries.values():
                assert entry["note"]

    def test_run_subcommand(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", PARSEVAL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / "summary.json").exists()

    def test_tolerance_override(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", PARSEVAL_CONFIG)
        assert main(["run", str(config), "--out", str(tmp_path / "o"),
                     "--tol", "1e-6"]) == EXIT_OK

    def test_json_summary_output(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", PARSEVAL_CONFIG)
        assert main(["run", str(config), "--out", str(tmp_path / "o"),
                     "--json"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"]
        assert summary["failures"] == []

    def test_diagnose_report_carries_model_summary(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", PARSEVAL_CONFIG)
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_OK
        summary = load_report(out, "diagnose")["data"]["model"]
        assert summary["ambient_dim"] == 16
        assert summary["dim"] == 16
        assert summary["d_basis_condition"] == pytest.approx(1.0, abs=1e-10)


CONTEXT_16 = {
    "space": {"family": "periodic_unit_grid", "n": 16},
    "model": {"family": "raw_samples"},
    "omega": {"family": "delta"},
    "theta": {"family": "canonical_dual"},
    "suites": ["diagnose", "dual", "multiplier", "calculus", "invert",
               "reconstruct", "orthogonality", "density", "oracle"],
    "seed": 1,
}


def framelab_child(*args, stdout=subprocess.PIPE) -> subprocess.Popen:
    """Start ``python -m framelab.cli`` on ``args`` in a fresh interpreter,
    without PYTHONUNBUFFERED: its stdout into a pipe is block-buffered, as a
    shell starts it."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "framelab.cli", *args],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


class TestCommand:
    """The command as a child process, against ``run`` in process."""

    def test_child_writes_the_in_process_reports_and_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", CONTEXT_16)
        runs = {tmp_path / "text": [], tmp_path / "json": ["--json"]}
        children = {out: framelab_child("run", str(config), "--out", str(out), *flags)
                    for out, flags in runs.items()}  # their cold starts overlap
        for out, child in children.items():
            stdout, stderr = child.communicate()
            reports = {path.name: path.read_bytes() for path in out.iterdir()}
            assert len(reports) == 10
            code = run(config, out_dir=out, json_output=bool(runs[out]))
            assert (child.returncode, stdout, stderr) == (
                code, capsys.readouterr().out.encode(), b"")
            assert {path.name: path.read_bytes() for path in out.iterdir()} == reports

    def test_child_validation_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {
            **CONTEXT_16, "space": {"family": "periodic_unit_grid", "n": 16.7}})
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        stderr = capsys.readouterr().err.encode()
        child = framelab_child("run", str(config), "--out", str(tmp_path / "out"))
        assert (*child.communicate(), child.returncode) == (b"", stderr, EXIT_VALIDATION)
        assert not (tmp_path / "out").exists()

    def test_closed_stdout_is_exit_1_without_a_traceback(self):
        # the reader is gone before the child writes, as after `| head -c 1`
        reader, writer = os.pipe()
        os.close(reader)
        child = framelab_child("list-families", "--json", stdout=writer)
        os.close(writer)
        assert (child.communicate()[1], child.returncode) == (b"", EXIT_CLOSED_STDOUT)

    def test_help_into_a_closed_pipe_is_exit_1_without_a_traceback(self):
        # argparse exits from inside main, before the command's own flush
        reader, writer = os.pipe()
        os.close(reader)
        child = framelab_child("--help", stdout=writer)
        os.close(writer)
        assert (child.communicate()[1], child.returncode) == (b"", EXIT_CLOSED_STDOUT)

    def test_help_and_usage_errors_keep_their_exit_codes(self):
        help_child, usage_child = framelab_child("--help"), framelab_child("bogus")
        stdout, stderr = help_child.communicate()
        assert (help_child.returncode, stderr) == (EXIT_OK, b"")
        assert stdout.startswith(b"usage: framelab")
        stdout, stderr = usage_child.communicate()
        assert (usage_child.returncode, stdout) == (EXIT_PARSE, b"")
        assert b"invalid choice: 'bogus'" in stderr

    def test_in_process_callers_keep_the_collector(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", PARSEVAL_CONFIG)
        frozen = gc.get_freeze_count()
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert main(["list-families"]) == EXIT_OK
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()

    def test_console_script_runs_what_the_module_runs(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        target = re.search(r'^framelab = "framelab\.cli:(\w+)"$', pyproject, re.M)
        tree = ast.parse(Path(cli.__file__).read_text())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(node) for node in block.body] == [
            f"sys.exit({target.group(1)}())"]


def key_paths(value, prefix):
    """Leaf paths of a JSON value: ``a.b`` for keys, ``a[]`` for list items."""
    if isinstance(value, dict) and value:
        return set().union(*(key_paths(v, f"{prefix}.{k}") for k, v in value.items()))
    if isinstance(value, list) and value:
        return set().union(*(key_paths(v, f"{prefix}[]") for v in value))
    return {prefix}


@pytest.mark.parametrize("args, golden", [
    (["list-families"], "list_families.txt"),
    (["list-families", "--json"], "list_families.json"),
])
def test_list_families_golden(capsys, args, golden):
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == (DATA / golden).read_text()


MINIMAL_PARAMS = {
    ("spaces", "counting"): {"n": 4},
    ("spaces", "periodic_unit_grid"): {"n": 4},
    ("spaces", "fourier_grid"): {"n": 4},
    ("spaces", "symmetric_grid"): {"n": 4, "half_width": 1.0},
    ("models", "raw_samples"): {},
    ("models", "trigonometric"): {"max_degree": 1},
    ("models", "gaussian_bumps"): {"centers": [0.5], "width": 0.2},
    ("frames", "delta"): {},
    ("frames", "exponential"): {},
    ("frames", "weighted_delta"): {},
    ("frames", "translated_window"): {"window": {"family": "gaussian_window"}},
    ("frames", "discrete"): {"vectors": [[1, 0], [0, 1], [1, 1]]},
    ("frames", "custom"): {"csv": "frame.csv"},
    ("frames", "canonical_dual"): {},
    ("frames", "same"): {},
    ("symbols", "constant"): {},
    ("symbols", "coordinate"): {},
    ("symbols", "step"): {},
    ("symbols", "random_phase"): {"seed": 0},
    ("symbols", "reciprocal_safe"): {"seed": 1},
    ("symbols", "csv"): {"path": "symbol.csv"},
}


@pytest.mark.parametrize("group, name", [
    (group, name) for group, entries in FAMILIES.items() for name in entries
])
def test_every_family_builds_from_a_minimal_config(tmp_path, monkeypatch,
                                                   group, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "frame.csv").write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
    (tmp_path / "symbol.csv").write_text("0,1,0\n0.25,2,0\n0.5,3,0\n0.75,4,1\n")
    space = measure.periodic_unit_grid(4)
    mdl = model.make_model(space, model.RawSamples())
    args = {
        "spaces": (),
        "models": (space,),
        # a discrete omega makes its own space and model
        "frames": ((None, None, None) if name == "discrete"
                   else (mdl, space, maps.delta_frame(mdl, space))),
        "symbols": (space,),
    }[group]
    cfg = {"family": name, **MINIMAL_PARAMS[group, name]}
    builder, params = _read_family(group, cfg, group)
    built = builder(*args, **params)
    if group == "symbols":
        assert multiplier.make_symbol(space, built).values.shape == (4,)
    else:
        kind = {"spaces": measure.SampledMeasureSpace, "models": model.ModelSpace,
                "frames": maps.DistributionMap}[group]
        assert isinstance(built, kind)


def test_reports_leave_out_what_is_not_a_field():
    space = measure.counting(2)
    mdl = model.make_model(space, model.RawSamples())
    delta = maps.delta_frame(mdl, space)
    op = multiplier.build(multiplier.make_symbol(space, [1.0, 2.0]), delta, delta)
    assert set(json.loads(_dumps(multiplier.compose(op, op)))) == {
        "residual", "asserted"}
    assert "condition_number" not in json.loads(_dumps(maps.diagnose(delta)))


def test_table_csv_reads_a_written_table_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    table[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(5e-324, -1.7976931348623157e308)]
    # the format perfbench/workloads.py writes the benchmark table in
    lines = (",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in table)
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n")
    read = _table_csv(str(tmp_path / "table.csv"))
    assert read.dtype == complex and read.shape == (6, 4)
    assert np.array_equal(read.view(np.uint64), table.view(np.uint64))


@pytest.mark.parametrize("text, expected", [
    (b"1 + 2i,3\n4,5\n", [[1 + 2j, 3], [4, 5]]),
    (b" 0 , 1\n2,3\n", [[0, 1], [2, 3]]),
    (b'"1 + 2i","3"\n4,"5"\n', [[1 + 2j, 3], [4, 5]]),
    (b"1,2i\r\n-i,4\r\n", [[1, 2j], [-1j, 4]]),
    (b"1.5,-2.5e-3\n7,0\n", [[1.5, -2.5e-3], [7, 0]]),
    (b"\t1\t,2\n(3+4j),4j\n", [[1, 2], [3 + 4j, 4j]]),
    (b"\n1,2\n\n3,4\n\n", [[1, 2], [3, 4]]),
], ids=["spaced", "padded", "quoted", "crlf", "real-only", "tabs-parens", "blank-lines"])
def test_table_csv_accepts(tmp_path, text, expected):
    (tmp_path / "table.csv").write_bytes(text)
    read = _table_csv(str(tmp_path / "table.csv"))
    assert read.dtype == complex
    assert np.array_equal(read, np.asarray(expected, dtype=complex))


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,1+2k\n", "cannot read complex entry '1+2k'"),
    # the message shows the cell as the file writes it
    ("1,2\n3, 1 + 2k \n", "cannot read complex entry ' 1 + 2k '"),
    ("1,nan\n3,4\n", "entries must be finite"),
    ("1,1e999\n3,4\n", "entries must be finite"),
    # only an 'i' that ends a number reads as 'j'
    ("1,inf\n3,4\n", "entries must be finite"),
    ("1,2\n-infinity,4\n", "entries must be finite"),
    ("", "CSV table is empty"),
    ("\n\n", "CSV table is empty"),
    ("1,2\n3\n", "CSV rows differ in length"),
    # a space before a quote keeps the quote in the cell
    ('1, "2"\n3,4\n', "cannot read complex entry ' \"2\"'"),
    # of two faults the first cell read is named
    ("1,nan\n3\n", "entries must be finite"),
    ("1" * 140_001 + ",2\n3,4\n5,6\n",
     f"cannot read CSV: field larger than field limit ({csv.field_size_limit()})"),
], ids=["unreadable", "unreadable-spaced", "nan", "overflow", "inf", "infinity",
        "empty", "blank-only", "ragged", "space-before-quote", "nan-and-ragged",
        "past-field-limit"])
def test_table_csv_faults_are_validation_errors(tmp_path, capsys, text, message):
    (tmp_path / "table.csv").write_text(text)
    config = write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": str(tmp_path / "table.csv")},
        "suites": ["diagnose"],
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert f"invalid config: omega.vectors: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["inf", "-Infinity", "1+infi"])
def test_json_string_infinity_is_not_finite(tmp_path, capsys, entry):
    config = write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": [[1, 2], [entry, 4]]},
        "suites": ["diagnose"],
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert "invalid config: omega.vectors: entries must be finite\n" in (
        capsys.readouterr().err)


def test_table_csv_skips_whitespace_only_lines(tmp_path):
    (tmp_path / "table.csv").write_text("1,2\n   \n\t \n3,4\n  \n")
    read = _table_csv(str(tmp_path / "table.csv"))
    assert np.array_equal(read, np.asarray([[1, 2], [3, 4]], dtype=complex))


# -- the one-pass table reader against the two-pass reader it replaced ------------

def _spaceless(handle):
    for line in _csv_lines(handle):
        if ' "' in line:  # dropping this space would open a quoted cell
            raise ValueError("a space before a quote")
        yield line.replace(" ", "").replace("i", "j")


def _table_cells(path):
    with path.open(newline="") as handle:
        try:
            rows = [[_complex(cell) for cell in row]
                    for row in csv.reader(_csv_lines(handle))]
        except csv.Error as exc:  # a field csv.reader rejects is a value fault
            raise ValueError(f"cannot read CSV: {exc}") from None
    if not rows:
        raise ValueError("CSV table is empty")
    if len({len(row) for row in rows}) != 1:
        raise ValueError("CSV rows differ in length")
    return np.asarray(rows, dtype=complex)


def two_pass_table_csv(value):
    """The reference reader: whole lines rewritten before csv splits them,
    and the file read again cell by cell when that fails anywhere."""
    path = _existing_path(value)
    try:
        with path.open(newline="") as handle:
            rows = [list(map(complex, row)) for row in csv.reader(_spaceless(handle))]
        table = np.asarray(rows, dtype=complex)
        if table.ndim == 2 and np.isfinite(table).all():
            return table
    except (ValueError, csv.Error):
        pass
    return _table_cells(path)


_CELL_TOKENS = ["0", "1", "7", "25", "+", "-", ".", "e", "i", "j", "k", " ", "\t",
                '"', "(", ")", "nan", "inf", "infinity", "1e999", ","]
_NUMBERS = ["1", "-2.5", "3e-2", "0", "+4i", "1+2i", "1 - i", "-0.5j", "(1+2j)",
            " 7 ", "\t2i", "1+infi"]


def _random_cell(rng):
    if rng.random() < 0.75:
        cell = _NUMBERS[rng.integers(len(_NUMBERS))]
    else:
        cell = "".join(rng.choice(_CELL_TOKENS, size=rng.integers(0, 4)))
    if rng.random() < 0.1:
        cell = f'"{cell}"'
    return " " + cell if rng.random() < 0.1 else cell


def _random_table_text(rng):
    """A short CSV text: mostly numbers, some token soup, quotes, blank
    and whitespace-only lines, ragged rows and mixed line ends."""
    width = int(rng.integers(1, 4))
    lines = []
    for _ in range(rng.integers(0, 6)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(["", "   ", "\t"][rng.integers(3)])
            continue
        cells = width + (roll > 0.9)
        lines.append(",".join(_random_cell(rng) for _ in range(cells)))
    ends = ["\n", "\r\n", "\r"]
    return "".join(line + ends[rng.integers(3) if rng.random() < 0.1 else 0]
                   for line in lines)


def _outcome(read, path):
    try:
        table = read(str(path))
    except (ValueError, csv.Error) as exc:
        return "error", type(exc), str(exc)
    return "table", table.dtype, table.shape, table.tobytes()


def test_table_csv_reads_as_the_two_pass_reader_did(tmp_path):
    rng = np.random.default_rng(20)
    path = tmp_path / "table.csv"
    readable = 0
    for _ in range(2000):
        path.write_bytes(_random_table_text(rng).encode())
        expected = _outcome(two_pass_table_csv, path)
        assert _outcome(_table_csv, path) == expected, path.read_bytes()
        readable += expected[0] == "table"
    assert readable >= 200  # the texts reach the readable path, not only faults


@pytest.fixture(scope="module")
def benchmark_table(tmp_path_factory):
    """A 768 x 96 complex table and its CSV file, written as
    perfbench/workloads.py writes the discrete-csv workload's table."""
    rng = np.random.default_rng(768)
    table = rng.standard_normal((768, 96)) + 1j * rng.standard_normal((768, 96))
    path = tmp_path_factory.mktemp("benchmark") / "table.csv"
    path.write_text("\n".join(",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row)
                              for row in table) + "\n")
    return table, path


def test_table_csv_streams_a_benchmark_table_bit_for_bit(benchmark_table):
    table, path = benchmark_table
    outcome = _outcome(_table_csv, path)
    assert outcome == _outcome(two_pass_table_csv, path)
    assert outcome == ("table", table.dtype, table.shape, table.tobytes())


@pytest.mark.parametrize("text", ["1,0,0\n0,1+i,0\n0,0,2\n",
                                  '"1",0,0\n0,1+i,0\n0,0,2\n'],
                         ids=["streamed", "cell-by-cell"])
def test_the_custom_family_adopts_its_csv_table(tmp_path, text):
    (tmp_path / "frame.csv").write_text(text)
    builder, params = _read_family(
        "frames", {"family": "custom", "csv": str(tmp_path / "frame.csv")}, "omega")
    table = params["csv"]
    assert table.flags.owndata
    space = measure.counting(3)
    omega = builder(model.make_model(space, model.RawSamples()), space, None, **params)
    assert np.shares_memory(omega.table, table)
    assert not table.flags.writeable


def test_table_csv_peak_memory_stays_within_twice_the_table(benchmark_table):
    table, path = benchmark_table
    tracemalloc.start()
    try:
        _table_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes, peak / table.nbytes


@pytest.mark.parametrize("tail", [
    '"5",6\n', "5\0,6\n", "5,1+2k\n", "nan,6\n7\n", "0" * 140_000 + ",6\n",
], ids=["quoted", "nul", "bad-cell", "nan-then-ragged", "past-field-limit"])
def test_table_csv_after_good_rows_gives_the_reference_outcome(tmp_path, tail):
    # the streamed rows before the fault are dropped and the file re-read
    path = tmp_path / "table.csv"
    path.write_text("1,2i\n3 + 4i,-i\n" + tail)
    assert _outcome(_table_csv, path) == _outcome(two_pass_table_csv, path)


# -- memory ------------------------------------------------------------------------

def test_a_256_point_delta_pair_run_peaks_below_nine_and_a_half_tables(tmp_path):
    # The live set holds four N x N tables (the model basis, which is the
    # delta table, its dual, the operator and its inverse); every suite adds
    # only the temporaries its arithmetic needs.
    n = 256
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": n},
        "model": {"family": "raw_samples"},
        "omega": {"family": "delta"},
        "theta": {"family": "canonical_dual"},
        "symbol": {"family": "reciprocal_safe", "seed": 11},
        "suites": [s for s, suite in SUITE_ORDER.items() if suite.needs_context],
        "seed": 7,
    })
    table_bytes = n * n * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        code = run(config, out_dir=tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 9.5 * table_bytes, peak / table_bytes


# -- config faults and run paths -------------------------------------------------

@pytest.mark.parametrize("symbol, message", [
    ({"family": "constant", "valeu": 2}, "symbol.valeu: unknown key"),
    ({"family": "reciprocal_safe", "floor": 2, "ceil": 1, "seed": 3},
     "symbol.ceil: must be at least floor 2.0, got 1.0"),
], ids=["misspelt-key", "ceil-below-floor"])
def test_a_symbol_fault_is_reported_before_any_map_is_built(tmp_path, monkeypatch,
                                                            capsys, symbol, message):
    def no_map(self):
        raise AssertionError("a map was built")

    monkeypatch.setattr(maps.DistributionMap, "__post_init__", no_map)
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 16},
        "model": {"family": "raw_samples"},
        "omega": {"family": "exponential"},
        "theta": {"family": "canonical_dual"},
        "symbol": symbol,
        "suites": ["diagnose"],
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"


def test_a_read_error_is_named_before_a_builder_error(tmp_path, capsys):
    # the exponential frame cannot be built on a symmetric grid, but the
    # misspelt symbol key is read before any section is built
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "symmetric_grid", "n": 16, "half_width": 1},
        "model": {"family": "raw_samples"},
        "omega": {"family": "exponential"},
        "symbol": {"family": "constant", "bogus": 1},
        "suites": ["diagnose"],
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: invalid config: symbol.bogus: unknown key\n"


CONTEXT = {"model": {"family": "raw_samples"}, "omega": {"family": "delta"},
           "suites": ["diagnose"]}


@pytest.mark.parametrize("payload, code, message", [
    ({**CONTEXT, "space": {"family": "counting", "n": 10**15}}, EXIT_VALIDATION,
     "error: cannot build experiment: Unable to allocate"),
    ({**CONTEXT, "space": {"family": "counting", "n": 10**20}}, EXIT_VALIDATION,
     "error: invalid config: space.n: must be at most"),
    ({"suites": ["quartet"], "seed": 1, "quartet": {"n": [10**15]}}, EXIT_ASSERTION,
     "FAIL [quartet] quartet: Unable to allocate"),
    ({"suites": ["quartet"], "seed": 1, "quartet": {"n": [10**20]}}, EXIT_VALIDATION,
     "error: invalid config: quartet.n: must be at most"),
    ({"suites": ["sweep"], "sweep": {"l_values": [1e300, 2e300, 4e300],
                                     "points_per_unit": 1}}, EXIT_VALIDATION,
     "error: invalid config: sweep.l_values: 1 points per unit up to L = 4e+300"),
    ({"suites": ["sweep"], "sweep": {"points_per_unit": 10**15}}, EXIT_ASSERTION,
     "FAIL [sweep] sweep: Unable to allocate"),
], ids=["space-1e15", "space-1e20", "quartet-1e15", "quartet-1e20", "sweep-l-values",
        "sweep-points-per-unit"])
def test_no_size_ends_in_a_traceback(tmp_path, capsys, payload, code, message):
    # each size fails at once: an index too large to read, or an allocation
    # of petabytes that numpy refuses before touching memory
    config = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(config, out_dir=out) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code == EXIT_VALIDATION else captured.out)
    assert out.exists() == (code == EXIT_ASSERTION)


def test_quartet_draws_that_no_array_holds_are_a_config_error(tmp_path, capsys):
    # each size alone is below the limit; their product, the symbol draws of
    # one n, is not, and numpy refused it with a ValueError traceback
    config = write_config(tmp_path, "cfg.json", {
        "suites": ["quartet"], "seed": 1, "quartet": {"n": [4, 10**15], "symbols": 10**15}})
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: invalid config: quartet.symbols: 1000000000000000 symbols on up to "
        "n = 1000000000000000 points are more than an array holds\n")


def test_seeds_are_not_sizes(tmp_path):
    config = write_config(tmp_path, "cfg.json", {
        **CONTEXT, "space": {"family": "counting", "n": 4},
        "symbol": {"family": "random_phase", "seed": 10**30}, "seed": 10**30,
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_OK


GRID = {"space": {"family": "periodic_unit_grid", "n": 8}, "suites": ["diagnose"]}


@pytest.mark.parametrize("payload, code", [
    ({**GRID, "model": {"family": "raw_samples"}, "omega": {
        "family": "translated_window", "window": {"width": 1e160}}}, EXIT_OK),
    ({**GRID, "model": {"family": "raw_samples"}, "omega": {
        "family": "translated_window", "window": {"width": 1e300}}}, EXIT_OK),
    ({**GRID, "omega": {"family": "delta"}, "model": {
        "family": "gaussian_bumps", "centers": [0.5], "width": 1e160}}, EXIT_OK),
    ({**GRID, "omega": {"family": "delta"}, "model": {
        "family": "gaussian_bumps", "centers": [0.25, 0.75], "width": 1e160}},
     EXIT_VALIDATION),
], ids=["window-1e160", "window-1e300", "bumps-one-center", "bumps-two-centers"])
def test_a_gaussian_width_whose_square_overflows_is_flat(tmp_path, capsys, payload,
                                                         code):
    # 2 w^2 overflows to inf, so every sample is exp(-0) = 1: a window on the
    # whole grid, or one flat bump column (two are linearly dependent)
    config = write_config(tmp_path, "cfg.json", payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(config, out_dir=tmp_path / "out") == code
    assert caught == []
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize("payload, code", [
    ({**GRID, "omega": {"family": "delta"}, "model": {
        "family": "gaussian_bumps", "centers": [1e308, 0.5], "width": 0.1}},
     EXIT_VALIDATION),
    ({**GRID, "omega": {"family": "delta"}, "model": {
        "family": "gaussian_bumps", "centers": [0.25, 0.5], "width": 5e-324}},
     EXIT_VALIDATION),
    ({**GRID, "omega": {"family": "delta"}, "model": {
        "family": "gaussian_bumps", "centers": [1e308], "width": 1e160}},
     EXIT_VALIDATION),
    ({**GRID, "model": {"family": "raw_samples"}, "omega": {
        "family": "translated_window", "window": {"width": 1e-160}}}, EXIT_OK),
    ({**GRID, "model": {"family": "raw_samples"}, "omega": {
        "family": "translated_window", "window": {"width": 5e-324}}}, EXIT_VALIDATION),
    ({**CONTEXT, "model": {"family": "raw_samples"},
      "space": {"family": "symmetric_grid", "n": 8, "half_width": 1e308}},
     EXIT_VALIDATION),
    ({"omega": {"family": "discrete", "vectors": [
        [1e5, 0, 0, 0], [0, 1e5, 0, 0], [0, 0, 1e5, 0], [0, 0, 0, 1e5],
        [1e5, 1e5, 0, 0], [0, 0, 1e5, 1e5]]}, "theta": {"family": "same"},
      "symbol": {"family": "constant", "value": 1e300},
      "suites": ["multiplier", "oracle"], "seed": 1}, EXIT_ASSERTION),
], ids=["bumps-center-1e308", "bumps-width-5e-324", "bumps-width-1e160-center-1e308",
        "window-1e-160", "window-5e-324", "grid-1e308", "symbol-1e300"])
def test_no_config_prints_a_runtime_warning(tmp_path, payload, code):
    # an overflow that gives the exact limit is silenced; an input that has
    # no value in float64 is a typed error
    config = write_config(tmp_path, "cfg.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(config, out_dir=tmp_path / "out") == code


def test_a_gaussian_window_narrower_than_the_grid_is_a_delta_frame(tmp_path):
    # width 1e-160: every offset but the center's overflows to exp(-inf) = 0
    config = write_config(tmp_path, "cfg.json", {
        **GRID, "model": {"family": "raw_samples"},
        "omega": {"family": "translated_window", "window": {"width": 1e-160}}})
    table = build_context(parse_config(json.loads(config.read_text()))).omega.table
    assert table[0, 0] > 0 and np.array_equal(table, table[0, 0] * np.eye(8))


@pytest.mark.parametrize("payload, message", [
    ({"suites": ["diagnose"]}, "omega: missing required section"),
    ({"suites": ["diagnose"], "omega": {"family": "delta"},
      "space": {"family": "counting", "n": 4}}, "model: missing required section"),
], ids=["no-omega", "no-model"])
def test_a_missing_section_is_a_validation_error(tmp_path, capsys, payload, message):
    config = write_config(tmp_path, "cfg.json", payload)
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert f"error: invalid config: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def symbol_csv_config(tmp_path, text):
    (tmp_path / "symbol.csv").write_text(text)
    return write_config(tmp_path, "cfg.json", {
        "space": {"family": "counting", "n": 4},
        "model": {"family": "raw_samples"},
        "omega": {"family": "delta"},
        "symbol": {"family": "csv", "path": str(tmp_path / "symbol.csv")},
        "suites": ["multiplier"],
        "seed": 1,
    })


@pytest.mark.parametrize("tail", ["", "\n", "   \n", "\t \r\n"],
                         ids=["none", "blank", "spaces", "tab-crlf"])
def test_symbol_csv_skips_blank_and_whitespace_only_lines(tmp_path, tail):
    config = symbol_csv_config(tmp_path, "0,1,0\n1,2,0\n  \n2,3,0\n3,4,0\n" + tail)
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_OK
    dense = as_complex_matrix(load_report(out, "multiplier")["data"]["dense"])
    assert np.array_equal(dense, np.diag([1.0, 2.0, 3.0, 4.0]))


def test_a_symbol_csv_field_past_the_field_limit_is_a_validation_error(tmp_path, capsys):
    config = symbol_csv_config(tmp_path, "0," + "1" * 140_001 + ",0\n1,2,0\n2,3,0\n3,4,0\n")
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert ("error: invalid config: symbol.path: cannot read CSV: field larger than "
            f"field limit ({csv.field_size_limit()})\n") in capsys.readouterr().err


def test_symbol_csv_points_must_be_the_space(tmp_path, capsys):
    config = symbol_csv_config(tmp_path, "0,1,0\n1,2,0\n2,3,0\n4,4,0\n")
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert ("error: invalid config: symbol.path: CSV points do not match the space\n"
            in capsys.readouterr().err)


def symmetric_symbol_config(tmp_path, half_width, points):
    """A 9-point symmetric grid whose symbol CSV lists the given points."""
    (tmp_path / "symbol.csv").write_text("".join(f"{x},1,0\n" for x in points))
    return write_config(tmp_path, "cfg.json", {
        "space": {"family": "symmetric_grid", "n": 9, "half_width": half_width},
        "model": {"family": "raw_samples"},
        "omega": {"family": "delta"},
        "symbol": {"family": "csv", "path": str(tmp_path / "symbol.csv")},
        "suites": ["diagnose"],
    })


@pytest.mark.parametrize("half_width", [4.0, 1e6])
def test_symbol_csv_points_written_as_shortest_decimals_match(tmp_path, half_width):
    points = measure.symmetric_grid(9, half_width).points
    config = symmetric_symbol_config(tmp_path, half_width, [repr(float(x)) for x in points])
    assert run(config, out_dir=tmp_path / "out") == EXIT_OK


def test_symbol_csv_points_within_a_relative_1e_5_do_not_match(tmp_path, capsys):
    # spacing 1: the last point misses 4 by 3e-5, inside np.allclose's default rtol
    points = [repr(float(x)) for x in measure.symmetric_grid(9, 4.0).points[:-1]]
    config = symmetric_symbol_config(tmp_path, 4.0, points + ["4.00003"])
    assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert "symbol.path: CSV points do not match the space" in capsys.readouterr().err


def test_missing_config_file_is_a_parse_error(tmp_path, capsys):
    assert run(tmp_path / "missing.json", out_dir=tmp_path / "out") == EXIT_PARSE
    assert "error: config file not found: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_argument_overrides_the_config_seed(tmp_path):
    payload = {"suites": ["quartet"], "seed": 1, "quartet": {"n": [4], "symbols": 1}}
    config = write_config(tmp_path, "cfg.json", payload)
    reseeded = write_config(tmp_path, "reseeded.json", {**payload, "seed": 2})
    for name, path, seed in (("a", config, 2), ("b", reseeded, None), ("c", config, None)):
        assert run(path, out_dir=tmp_path / name, seed=seed) == EXIT_OK
    reports = [(tmp_path / name / "quartet.json").read_bytes() for name in "abc"]
    assert reports[0] == reports[1] != reports[2]


def test_a_quartet_failure_names_its_grid_and_members(tmp_path, capsys):
    config = write_config(tmp_path, "cfg.json", {
        "suites": ["quartet"], "seed": 1, "quartet": {"n": [4], "symbols": 1},
        "tolerance": 1e-20,
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_ASSERTION
    [failure] = load_report(tmp_path / "out", "quartet")["failures"]
    assert failure.startswith("quartet n=4 members ['")
    assert "'] failed; flipped convention passes: {'" in failure
    assert f"FAIL [quartet] {failure}\n" in capsys.readouterr().out


def test_disagreeing_discrete_reduction_paths_fail_the_oracle(tmp_path, monkeypatch):
    oracle = lab.discrete_reduction_oracle
    monkeypatch.setattr(lab, "discrete_reduction_oracle", lambda vectors: (
        oracle(vectors)._replace(agree=False)))
    config = write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": [[1, 0], [0, 1], [1, 1]]},
        "suites": ["oracle"], "seed": 1,
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_ASSERTION
    report = load_report(tmp_path / "out", "oracle")
    assert report["failures"] == ["discrete reduction paths disagree"]
    assert report["data"]["discrete_reduction"]["agree"] is False


def test_the_oracle_fails_a_corrupted_operator_that_the_production_gap_passes(
        tmp_path, monkeypatch):
    # The dense matrix is off by 0.01 in one entry, and the production pairing
    # gap reads 0.0 wherever it is bound, so build's validation passes it.
    product, gap = multiplier._weighted_product, multiplier._pairing_gap

    def corrupted(*args):
        dense = np.array(product(*args))
        dense[0, 0] += 0.01
        return dense

    monkeypatch.setattr(multiplier, "_weighted_product", corrupted)
    for module in (lab, multiplier):
        if getattr(module, "_pairing_gap", None) is gap:
            monkeypatch.setattr(module, "_pairing_gap", lambda *args: 0.0)
    config = write_config(tmp_path, "cfg.json", {
        **PARSEVAL_CONFIG, "suites": ["multiplier", "oracle"]})
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_ASSERTION
    assert [f.split()[:3] for f in load_report(out, "oracle")["failures"]] == [
        ["brute-force", "pairing", "residual"]]


def kappa_1e9_config(tmp_path, seed):
    """A real 12x4 `discrete` table with singular values geomspace(1, 1e-9),
    so A = 1e-18, and its canonical dual, through `diagnose` and `dual`."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    table = u @ np.diag(np.geomspace(1, 1e-9, 4)) @ v.T
    return write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": table.tolist()},
        "theta": {"family": "canonical_dual"},
        "suites": ["diagnose", "dual"], "seed": 1,
    })


@pytest.mark.parametrize("seed", [1, 2])
def test_a_kappa_1e9_frame_reads_its_lower_bound_and_fails_the_dual_suite(
        tmp_path, capsys, seed):
    # The σ rule calls the table a frame, and A = σ_min² resolves 1e-18,
    # which eigvalsh of the frame matrix reads as 0.0 on 21 of 40 such
    # tables. Seed 2's frame matrix is singular to working precision, so a
    # dual solved with it raises.
    out = tmp_path / "out"
    assert run(kappa_1e9_config(tmp_path, seed), out_dir=out) == EXIT_ASSERTION
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnose.json", "dual.json", "summary.json"]
    omega = load_report(out, "diagnose")["data"]["omega"]
    assert omega["classification"] == "frame"
    assert omega["lower"] == pytest.approx(1e-18, rel=1e-6)
    # The absolute gates miss by the table's scale (ROADMAP item 10).
    report = load_report(out, "dual")
    assert report["data"]["expected_dual_bounds"][1] == pytest.approx(1e18, rel=1e-6)
    assert any(f.startswith("dual of dual residual") for f in report["failures"])


def test_a_96x64_kappa_1e3_dual_pair_passes_the_dual_suite(tmp_path):
    # A dual solved with the frame matrix squares kappa: its dual of the
    # dual misses the 1e-10 gate at 6.6e-9.
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((96, 64)))[0]
    v = np.linalg.qr(rng.standard_normal((64, 64)))[0]
    table = u @ np.diag(3 * np.geomspace(1, 1e3, 64)) @ v.T
    config = write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": table.tolist()},
        "theta": {"family": "canonical_dual"},
        "suites": ["diagnose", "dual"], "seed": 1,
    })
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_OK
    data = load_report(out, "dual")["data"]
    assert data["dual_of_dual_residual"] <= multiplier.RESIDUAL_TOL


UNDERFLOW = "canonical dual needs a lower frame bound A = sigma_min^2 that does not underflow"


@pytest.mark.parametrize("theta, code", [("canonical_dual", EXIT_VALIDATION),
                                         ("same", EXIT_ASSERTION)])
@pytest.mark.parametrize("vectors", [
    [[1e-154, 0], [0, 1e-163]],
    [[1e-154, 0], [0, 1e-163], [1e-154, 1e-163]],
    [[1e-151, 0], [0, 1e-160]],
], ids=["diagonal", "dense", "diagonal-subnormal"])
def test_a_frame_whose_lower_bound_underflows_has_one_dual_error(
        tmp_path, capsys, vectors, theta, code):
    # σ_min = 1e-163 passes the rank rule, but A = σ_min² reads 0.0; at
    # σ_min = 1e-160 it is subnormal. The diagonal closed form and the SVD
    # path both stop before dividing.
    config = write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete", "vectors": vectors},
        "theta": {"family": theta},
        "suites": ["diagnose", "dual"], "seed": 1,
    })
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(config, out_dir=out) == code
    assert caught == []
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    if theta == "canonical_dual":
        assert captured.err == f"error: cannot build experiment: {UNDERFLOW}\n"
    else:
        assert load_report(out, "dual")["failures"] == [f"dual: {UNDERFLOW}"]
        assert load_report(out, "diagnose")["data"]["omega"]["lower"] < 2.3e-308


_GRID8 = {"space": {"family": "periodic_unit_grid", "n": 8}, "suites": ["density"]}


# Density configs whose symbol squares overflow, and the failures that remain
# once the norms are scaled: on the second config band-limited witnesses
# see the step's 1e160 through analysis values of rounding size, which the
# certificate's bound counts as zero, and on the third the bound itself is
# past the largest float.
@pytest.mark.parametrize("config, failures", [
    ({**_GRID8, "model": {"family": "raw_samples"}, "omega": {"family": "delta"},
      "symbol": {"family": "constant", "value": 1e160}},
     []),
    ({**_GRID8, "model": {"family": "trigonometric", "max_degree": 2},
      "omega": {"family": "exponential"}, "theta": {"family": "same"},
      "symbol": {"family": "step", "high": 1e160}},
     ["density certificate: bound violated"]),
    ({"space": {"family": "fourier_grid", "n": 4}, "model": {"family": "raw_samples"},
      "omega": {"family": "weighted_delta", "weight": [1, 2, 3, 4]},
      "symbol": {"family": "constant", "value": [-1e308, 1e308]}, "suites": ["density"]},
     ["density: density certificate norm overflows: it cannot be represented"]),
], ids=["constant", "step", "weighted"])
def test_a_density_symbol_whose_squares_overflow_gives_finite_norms_and_no_warning(
        tmp_path, capsys, config, failures):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(write_config(tmp_path, "cfg.json", config),
                   out_dir=out) == (EXIT_ASSERTION if failures else EXIT_OK)
    assert "Warning" not in capsys.readouterr().err
    report = load_report(out, "density")
    assert report["failures"] == failures
    records = report["data"].get("records", [])
    assert bool(records) == ("error" not in report["data"])
    assert all(isinstance(r[key], float) and math.isfinite(r[key]) for r in records
               for key in ("symbol_l2_on_support", "bound", "norm_mf"))


# Weighted-delta configs from the seed-1 config fuzz with a weight or a step
# value of 1e30 to 1e300: each passes every suite, density by its certificate.
@pytest.mark.parametrize("weight, low, high", [
    ([1, 2, 3, 1e30], 0.5, [2, 1]),
    ([1, 2, 3, 4], 1e160, [2, 1]),
    ([1, 2, 3, 4], 0.5, [2, 1e300]),
], ids=["weight-1e30", "low-1e160", "high-1e300"])
def test_a_large_weighted_delta_density_run_passes_by_its_certificate(
        tmp_path, weight, low, high):
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "fourier_grid", "n": 4}, "model": {"family": "raw_samples"},
        "omega": {"family": "weighted_delta", "weight": weight}, "theta": {"family": "same"},
        "symbol": {"family": "step", "low": low, "high": high, "at": 0.5},
        "suites": ["multiplier", "calculus", "invert", "density"], "seed": 1})
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_OK
    data = load_report(out, "density")["data"]
    assert data["passed"] and data["total"]
    assert all(r["norm_mf"] <= r["bound"] * (1.0 + multiplier.RESIDUAL_TOL)
               for r in data["records"])


def test_a_reciprocal_residual_whose_squares_overflow_is_finite_without_a_warning(
        tmp_path, capsys):
    # 1/m = 1e300, so the residual's squares overflowed and it read "inf"
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 3}, "model": {"family": "raw_samples"},
        "omega": {"family": "delta"}, "theta": {"family": "canonical_dual"},
        "symbol": {"family": "constant", "value": 1e-300}, "suites": ["invert"]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(config, out_dir=out) == EXIT_ASSERTION
    assert "Warning" not in capsys.readouterr().err
    residual = load_report(out, "invert")["data"]["reciprocal_residual"]
    assert isinstance(residual, float) and 1e280 < residual < 1e290


def test_a_composition_that_overflows_is_a_suite_error_without_a_warning(
        tmp_path, capsys):
    # M1 M2 X applies a table with an entry near 1e154 twice on each side
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "fourier_grid", "n": 4}, "model": {"family": "raw_samples"},
        "omega": {"family": "weighted_delta", "weight": [1, 1e154, 3, 4]},
        "theta": {"family": "same"}, "suites": ["calculus"], "seed": 1})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(config, out_dir=out) == EXIT_ASSERTION
    assert "Warning" not in capsys.readouterr().err
    assert load_report(out, "calculus")["failures"] == [
        "calculus: composition overflows: its residual cannot be represented"]


def test_the_oracle_reads_omegas_cached_spectrum(tmp_path, monkeypatch):
    # a 3 x 5 table is no frame, so no suite asks for its canonical dual
    config = write_config(tmp_path, "cfg.json", {
        "omega": {"family": "discrete",
                  "vectors": np.random.default_rng(0).standard_normal((3, 5)).tolist()},
        "theta": {"family": "same"}, "suites": ["diagnose", "oracle"], "seed": 1})
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    assert run(config, out_dir=tmp_path / "out") == EXIT_OK
    assert len(calls) == 1  # omega's spectrum, read again by the discrete reduction
    assert load_report(tmp_path / "out", "oracle")["data"]["discrete_reduction"]["agree"]


BIG = {"theta": {"family": "same"}, "suites": ["multiplier", "invert"], "seed": 1}


@pytest.mark.parametrize("config, code, message", [
    ({"omega": {"family": "discrete", "vectors": [[1e154, 1e154], [1, -1]]},
      "theta": {"family": "canonical_dual"}, "suites": ["diagnose"]}, EXIT_VALIDATION,
     "error: cannot build experiment: upper frame bound B = sigma_max^2 overflows"),
    ({"omega": {"family": "discrete", "vectors": [[1e154, 1e154]]},
      "theta": {"family": "same"}, "suites": ["diagnose"]}, EXIT_ASSERTION,
     "FAIL [diagnose] diagnose: upper frame bound B = sigma_max^2 overflows"),
    ({**BIG, "omega": {"family": "discrete", "vectors": [[1e150, 0], [0, 2e150]]}},
     EXIT_OK, "ok: 2 suite(s) passed"),
    ({**BIG, "omega": {"family": "discrete", "vectors": [[1e-150, 0], [0, 2e-150]]}},
     EXIT_OK, "ok: 2 suite(s) passed"),
], ids=["B-overflows-building-the-dual", "B-overflows-in-diagnose", "bounds-1e300",
        "bounds-1e-300"])
def test_frame_bounds_at_the_ends_of_float64(tmp_path, capsys, config, code, message):
    # sigma_max^2 overflowed in a traceback; sqrt(B_omega B_theta) and
    # sqrt(A_theta A_omega) read inf or 0.0; the dual-pair defect warned
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(write_config(tmp_path, "cfg.json", config), out_dir=out) == code
    assert message in "".join(capsys.readouterr())
    if code != EXIT_OK:
        return
    data = load_report(out, "multiplier")["data"]
    assert data["operator_norm"] <= data["norm_bound"] < math.inf
    inverse = load_report(out, "invert")["data"]
    assert 0.0 < inverse["lower_bound"] < math.inf
    assert inverse["bound_satisfied"] is True


def test_the_norm_gate_is_relative_to_its_bound(tmp_path):
    # The norm exceeds its bound of 6.25e18 by 3.3e-16 relative, which is
    # rounding; an absolute slack of 1e-10 would fail it (ROADMAP item 10).
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 4}, "model": {"family": "raw_samples"},
        "omega": {"family": "translated_window", "window": [1e10, 1, 0, 0]},
        "theta": {"family": "same"}, "suites": ["multiplier"], "seed": 1})
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_OK
    data = load_report(out, "multiplier")["data"]
    assert data["norm_bound"] == pytest.approx(6.25e18, rel=1e-9)
    assert data["operator_norm"] > data["norm_bound"]


def test_a_well_posed_window_pair_with_a_symbol_of_1e9_passes_the_multiplier_suite(
        tmp_path):
    # ||M|| is 1.57e5: rounding at that scale reaches 1e-12 in absolute
    # terms, and no gate may judge it a failure.
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 256},
        "model": {"family": "raw_samples"},
        "omega": {"family": "translated_window", "window": {"width": 0.005, "center": 0.5}},
        "theta": {"family": "same"}, "symbol": {"family": "constant", "value": 1e9},
        "suites": ["multiplier"], "seed": 1})
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_OK
    report = load_report(out, "multiplier")
    assert report["failures"] == []
    assert set(report["data"]) == {"operator_norm", "norm_bound"}
    assert report["data"]["operator_norm"] == pytest.approx(1.57e5, rel=1e-2)


# Windows from the seed-1 config fuzz whose only failure was the absolute
# norm gate: each norm exceeds its bound by more than 1e-10 but by rounding
# of the window's scale, which the relative gate forgives.
@pytest.mark.parametrize("window", [
    [-0.5, 0.5, 1e154, [0, 1]],
    [1, 1e154, "0.25i", [0, 1]],
    [1, 1e30, "0.25i", [0, 1]],
    [1, 0.5, 1e30, [0, 1]],
    [1e30, 0.5, "0.25i", [-0.5, 1]],
    [1e15, 3, "0.25i", [0, 1]],
    [1, 0.5, "0.25i", [0, 1e15]],
    [2 ** 63, 0.5, "0.25i", [0, 1]],
    [2 ** 63, 0.5, "0.25i", [1e-300, 1]],
], ids=["1e154-shift", "1e154-width", "1e30-width", "1e30-shift", "1e30-height",
        "1e15-height", "1e15-interval", "2^63-height", "2^63-height-tiny-start"])
def test_a_window_norm_above_its_bound_by_rounding_passes(tmp_path, window):
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 4}, "model": {"family": "raw_samples"},
        "omega": {"family": "translated_window", "window": window},
        "suites": ["diagnose", "multiplier"]})
    out = tmp_path / "out"
    assert run(config, out_dir=out) == EXIT_OK
    data = load_report(out, "multiplier")["data"]
    norm, bound = data["operator_norm"], data["norm_bound"]
    assert not norm <= bound + multiplier.RESIDUAL_TOL
    assert norm <= bound * (1.0 + multiplier.RESIDUAL_TOL)


@pytest.mark.parametrize("suite", list(SUITE_ORDER))
def test_a_suite_is_randomized_exactly_when_its_report_changes_with_the_seed(
        tmp_path, suite):
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 16},
        "model": {"family": "raw_samples"},
        "omega": {"family": "exponential"},
        "theta": {"family": "canonical_dual"},
        "suites": [suite],
    })
    for seed in (1, 2):
        assert run(config, out_dir=tmp_path / str(seed), seed=seed) in (
            EXIT_OK, EXIT_ASSERTION)
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "1", tmp_path / "2", names,
                                           shallow=False)
    assert errors == []
    assert bool(mismatch) == SUITE_ORDER[suite].randomized


def test_a_seedless_invert_config_runs(tmp_path):
    config = write_config(tmp_path, "cfg.json", {
        "space": {"family": "periodic_unit_grid", "n": 8},
        "model": {"family": "raw_samples"},
        "omega": {"family": "delta"},
        "suites": ["invert"],
    })
    assert run(config, out_dir=tmp_path / "out") == EXIT_OK


class TestFailureBranches:
    """Each suite failure that a correct run never reaches, forced once."""

    SMALL = {"space": {"family": "periodic_unit_grid", "n": 8},
             "model": {"family": "raw_samples"},
             "omega": {"family": "delta"},
             "theta": {"family": "canonical_dual"},
             "seed": 1}

    def failures(self, tmp_path, suites, **changes):
        config = write_config(tmp_path, "cfg.json",
                              {**self.SMALL, **changes, "suites": suites})
        out = tmp_path / "out"
        assert run(config, out_dir=out) == EXIT_ASSERTION
        return load_report(out, suites[0])["failures"]

    def test_a_duality_residual_above_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lab, "duality_residual", lambda *args, **kwargs: 1.0)
        assert self.failures(tmp_path, ["oracle"]) == ["duality residual 1.000e+00"]

    def test_a_norm_above_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multiplier, "norm_bound", lambda op: 0.5)
        assert self.failures(tmp_path, ["multiplier"]) == [
            "norm 1.000000e+00 above bound 5.000000e-01"]

    def test_a_window_on_the_whole_grid_is_not_pseudo_orthogonal(self, tmp_path):
        window = {"family": "translated_window", "window": [1] * 8}
        assert self.failures(tmp_path, ["orthogonality"], omega=window,
                             theta={"family": "same"}) == [
            "pseudo-orthogonality: support is not proper",
            "hyper-orthogonality: support is not proper"]

    def test_a_weighted_delta_sweep_that_is_not_unbounded(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(lab, "GROWTH_THRESHOLD", 10.0)
        assert self.failures(tmp_path, ["sweep"], sweep={"l_values": [2, 4, 8]}) == [
            "expected an unbounded verdict"]
        assert load_report(tmp_path / "out", "sweep")["data"]["verdict"] == "bounded"

    def test_a_trigonometric_model_on_a_symmetric_grid(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", {
            **self.SMALL, "suites": ["diagnose"],
            "space": {"family": "symmetric_grid", "n": 9, "half_width": 2},
            "model": {"family": "trigonometric", "max_degree": 2},
        })
        assert run(config, out_dir=tmp_path / "out") == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: cannot build experiment: "
            "trigonometric basis needs a periodic grid\n")
