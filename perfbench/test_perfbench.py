"""Tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

import run
import workloads
from tracer import summarize

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "riesz-delta-256": partial(workloads.riesz_delta, n=16),
    "discrete-csv-768x96": partial(workloads.discrete_csv, j=24, k=6),
    "quartet-oracle": partial(workloads.quartet_oracle, ns=(4, 8), symbols=1),
}


def tiny(name):
    return replace(workloads.WORKLOADS[name], write_inputs=TINY[name])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_inputs_depend_only_on_seed_and_repetition(tmp_path):
    for name, write in TINY.items():
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for d, (seed, rep) in zip(dirs, [(5, 1), (5, 1), (5, 2)]):
            d.mkdir()
            write(workloads.repetition_rng(seed, rep), d)
        same = [sorted((p.name, p.read_bytes()) for p in d.iterdir()) for d in dirs]
        assert same[0] == same[1]
        assert same[0] != same[2]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(tmp_path, name, trace):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=trace,
                         work_dir=tmp_path / "work")
    expected = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert result["correct"], result["details"]["samples"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        sample = result["details"]["samples"][0]
        assert sample["traced_digest"] == sample["digest"]
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
    saved = json.loads((tmp_path / "work" / "results.json").read_text())
    assert saved["facts"]["blas_threads"] == 1


def test_failing_config_is_counted(tmp_path):
    def failing(rng, dest):
        sizes = TINY["riesz-delta-256"](rng, dest)
        config = json.loads((dest / "config.json").read_text())
        config["tolerance"] = 1e-300  # no residual can meet this
        (dest / "config.json").write_text(json.dumps(config))
        return sizes

    workload = replace(workloads.WORKLOADS["riesz-delta-256"], write_inputs=failing)
    result = run.measure(workload, seed=3, seconds=0, trace=0, work_dir=tmp_path)
    assert not result["correct"]
    assert (result["attempted"], result["failed"], result["fail_ratio"]) == (1, 1, 1.0)
    assert result["details"]["samples"][0]["reason"] == "exit code 4"


def test_self_times_partition_the_traced_wall(tmp_path):
    result = run.measure(tiny("riesz-delta-256"), seed=4, seconds=0, trace=1,
                         work_dir=tmp_path)
    trace = result["details"]["traces"][0]
    layer_self = sum(layer["self_s"] for layer in trace["layers"].values())
    assert set(trace["layers"]) >= {"cli", "model", "maps", "multiplier", "lab", "linalg"}
    assert all(layer["self_s"] >= 0 for layer in trace["layers"].values())
    assert layer_self == pytest.approx(trace["covered_s"], rel=1e-9)
    assert trace["unattributed_s"] > 0
    assert result["metrics"]["unattributed.share"]["value"] == pytest.approx(
        trace["unattributed_s"] / trace["wall_s"])
    spans = json.loads((tmp_path / "spans-rep0.json").read_text())
    assert summarize(spans)["covered_s"] == trace["covered_s"]
    assert {span["run_id"] for span in spans["spans"]} == {"rep0"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quartet-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
