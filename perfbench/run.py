"""framelab benchmark: cold `framelab run` time on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a framelab checkout; it uses the sources in
``src/`` as they are (nothing is installed).  For ``--seconds`` seconds it
repeats a closed loop from one client: write the inputs of the next
repetition, then launch the real CLI (``python -m framelab.cli run``) in a
fresh interpreter and wait for it to exit before the next one starts.
Every run's reports are checked (exit code, ``summary.json`` and each
suite's ``passed`` flag).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``), paired with an untraced run on
the same inputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else
(machine facts, raw samples, report digests, per-suite times) goes to
``.perfbench/<workload>-seed<seed>-trace<trace>/results.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_run
from tracer import LAYERS, summarize
from workloads import WORKLOADS, Workload, repetition_rng

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"

# BLAS threads are pinned in the child environment only.  With 2 threads on
# a 2-core machine OpenBLAS spin-waiting doubles CPU time even on the
# Python-bound workload.
BLAS_THREADS = 1
# Children still running this long after measuring began are killed (and
# count as failed), so that a hung run cannot keep the benchmark past 180 s.
DEADLINE_S = 150.0
# Times are reported at a reference machine speed.  Each run also times a
# bare `python -c "import numpy"` once per repetition, and the end-to-end
# times are scaled by BARE_IMPORT_REF_S / (median of those).  On a shared
# 2-core machine the load of other tenants made raw run times drift by 23%
# within 20 minutes, while the run / bare-import ratio moved 2%.  Across
# runs, scaled medians spread about as much as raw ones, and less when the
# machine is busy.  Raw medians are kept in the results file.
BARE_IMPORT_REF_S = 0.2
RUN_ARGS = ("-m", "framelab.cli", "run", "config.json", "--out")

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
}
FUNCTION_CALLS = (
    "model.make_model", "model.from_samples", "maps.diagnose",
    "maps.canonical_dual", "multiplier.build", "lab.fourier_quartet_check",
    "lab.brute_force_pairing", "cli.build_context",
    *(f"linalg.{name}" for name in
      ("svd", "eigvalsh", "eigh", "solve", "inv", "qr", "cholesky")),
)
FUNCTION_SELF = ("model.orthonormalize", "multiplier.build")
DISTINCT = ("model.make_model", "maps.diagnose", "linalg")
NO_CALLS = {"calls": 0, "self_s": 0.0, "distinct": 0}


def _entry(summary: dict, name: str) -> dict:
    """Tally of a layer (a name without a dot) or of a function in one trace."""
    return summary["functions" if "." in name else "layers"].get(name, NO_CALLS)


def _distinct_ratio(name: str):
    def ratio(summary):
        entry = _entry(summary, name)
        # No calls means no repeated work.
        return entry["distinct"] / entry["calls"] if entry["calls"] else 1.0
    return ratio


def _per_layer() -> dict:
    """Every per-layer metric: name -> (unit, its value in one trace summary)."""
    def field(name, key):
        return lambda summary: _entry(summary, name)[key]

    def share(name):
        return lambda summary: _entry(summary, name)["self_s"] / summary["wall_s"]

    metrics = {}
    for layer in (*LAYERS, "linalg"):
        metrics[f"{layer}.calls"] = ("count", field(layer, "calls"))
        metrics[f"{layer}.self_s"] = ("s", field(layer, "self_s"))
        metrics[f"{layer}.share"] = ("ratio", share(layer))
    for name in FUNCTION_CALLS:
        metrics[f"{name}.calls"] = ("count", field(name, "calls"))
    for name in FUNCTION_SELF:
        metrics[f"{name}.self_s"] = ("s", field(name, "self_s"))
    for name in DISTINCT:
        metrics[f"{name}.distinct_ratio"] = ("ratio", _distinct_ratio(name))
    metrics["trace.share"] = ("ratio", share("trace"))
    metrics["unattributed.share"] = (
        "ratio", lambda summary: summary["unattributed_s"] / summary["wall_s"])
    metrics["tracing_overhead"] = ("ratio", lambda summary: summary["overhead"])
    return metrics


PER_LAYER = _per_layer()
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], cwd: Path, deadline: float) -> Child:
    """Run a fresh interpreter to exit; wall time, CPU time and peak RSS.

    ``os.wait4`` gives the resource usage of this child alone.  The child
    is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    with open(cwd / "stderr.txt", "ab") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def repetitions(workload: Workload, seed: int, seconds: float, work_dir: Path):
    """Yield fresh inputs until ``seconds`` have passed (at least once)."""
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        rep_dir = work_dir / f"rep{rep}"
        rep_dir.mkdir(parents=True)
        sizes = workload.write_inputs(repetition_rng(seed, rep), rep_dir)
        yield rep, rep_dir, sizes
        shutil.rmtree(rep_dir)
        rep += 1


def _digits(residual: float) -> float:
    return -math.log10(max(residual, sys.float_info.min))


def _tail_percentile(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    below = len(values) - 10
    if below < 1:
        return None
    return {"percentile": math.floor(100 * below / len(values)),
            "value": sorted(values)[below - 1]}


def measure_untraced(workload: Workload, seed: int, seconds: float,
                     work_dir: Path, deadline: float) -> dict:
    samples = []
    for rep, rep_dir, sizes in repetitions(workload, seed, seconds, work_dir):
        bare = run_child(["-c", "import numpy"], rep_dir, deadline)
        setup = run_child(["-c", "import framelab"], rep_dir, deadline)
        run = run_child([*RUN_ARGS, "reports"], rep_dir, deadline)
        check = check_run(run.returncode, rep_dir / "reports")
        reason = check.reason
        if bare.returncode or setup.returncode:
            reason = f"import exit codes {bare.returncode}, {setup.returncode}"
        samples.append({
            "rep": rep, "sizes": sizes, "passed": not reason, "reason": reason,
            "run_s": run.wall_s, "cpu_s": run.cpu_s, "rss_mb": run.rss_mb,
            "bare_import_s": bare.wall_s, "setup_s": setup.wall_s,
            "residual": check.residual, "digest": check.digest,
        })
    digits = [_digits(s["residual"]) for s in samples
              if s["passed"] and s["residual"] is not None]
    raw = {key: statistics.median(s[key] for s in samples)
           for key in ("run_s", "cpu_s", "setup_s", "bare_import_s")}
    scale = BARE_IMPORT_REF_S / raw["bare_import_s"]
    metrics = {
        "run_s": scale * raw["run_s"],
        "cpu_s": scale * raw["cpu_s"],
        "setup_s": scale * raw["setup_s"],
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "residual_digits": statistics.median(digits) if digits else 0.0,
    }
    details = {
        "raw_medians": raw,
        "run_s_tail": _tail_percentile([scale * s["run_s"] for s in samples]),
        "samples": samples,
    }
    return _result(samples, metrics, END_TO_END, details, bool(digits))


def measure_traced(workload: Workload, seed: int, seconds: float,
                   work_dir: Path, deadline: float) -> dict:
    samples, summaries = [], []
    for rep, rep_dir, sizes in repetitions(workload, seed, seconds, work_dir):
        spans = work_dir / f"spans-rep{rep}.json"
        runs = {
            "plain": [*RUN_ARGS, "reports"],
            "traced": [str(TRACER), str(spans), f"rep{rep}", *RUN_ARGS[2:],
                       "reports-traced"],
        }
        # Alternate which of the pair goes first, so that the order within
        # a pair cannot bias the tracing overhead.
        order = list(runs) if rep % 2 == 0 else list(runs)[::-1]
        done = {name: run_child(runs[name], rep_dir, deadline) for name in order}
        plain, traced = done["plain"], done["traced"]
        plain_check = check_run(plain.returncode, rep_dir / "reports")
        traced_check = check_run(traced.returncode, rep_dir / "reports-traced")
        reason = plain_check.reason or traced_check.reason
        if not reason and traced_check.digest != plain_check.digest:
            reason = "traced reports differ from untraced reports"
        summary = summarize(json.loads(spans.read_text())) if spans.is_file() else None
        if summary is None:
            reason = reason or "no spans written"
        else:
            summary["wall_s"] = traced.wall_s
            summary["unattributed_s"] = traced.wall_s - sum(
                layer["self_s"] for layer in summary["layers"].values())
            summary["overhead"] = traced.wall_s / plain.wall_s - 1.0
            summaries.append(summary)
        samples.append({
            "rep": rep, "sizes": sizes, "passed": not reason, "reason": reason,
            "run_s": plain.wall_s, "traced_s": traced.wall_s,
            "digest": plain_check.digest, "traced_digest": traced_check.digest,
        })
    metrics = {name: statistics.median(get(s) for s in summaries)
               for name, (_, get) in PER_LAYER.items()} if summaries else {}
    functions = sorted({name for s in summaries for name in s["functions"]})
    details = {
        "samples": samples,
        "suites_s": {suite: statistics.median(s["suites"].get(suite, 0.0)
                                              for s in summaries)
                     for suite in sorted({k for s in summaries for k in s["suites"]})},
        "functions": {name: {key: statistics.median(_entry(s, name)[key]
                                                    for s in summaries)
                             for key in NO_CALLS}
                      for name in functions},
        "traces": summaries,
    }
    return _result(samples, metrics, PER_LAYER_UNITS, details, bool(summaries))


def _result(samples: list[dict], metrics: dict, units: dict, details: dict,
            measured: bool) -> dict:
    failed = sum(not s["passed"] for s in samples)
    return {
        "correct": failed == 0 and measured,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
        "fail_ratio": failed / len(samples),
        "details": details,
    }


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def facts(workload: Workload, seed: int, trace: int, samples: list[dict]) -> dict:
    return {
        "workload": workload.name, "why": workload.why,
        "stresses": workload.stresses, "bypasses": workload.bypasses,
        "sizes": samples[0]["sizes"], "samples": len(samples),
        "seed": seed, "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "blas_threads": BLAS_THREADS, "commit": _commit(),
        "load": "closed loop, one client, one run at a time",
    }


def measure(workload: Workload, seed: int, seconds: float, trace: int,
            work_dir: Path) -> dict:
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    run = measure_traced if trace else measure_untraced
    result = run(workload, seed, seconds, work_dir,
                 time.perf_counter() + DEADLINE_S)
    result["facts"] = facts(workload, seed, trace, result["details"]["samples"])
    (work_dir / "results.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "framelab" / "cli.py").is_file():
        print(f"error: no framelab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace, work_dir)
    print(f"details: {work_dir / 'results.json'}", file=sys.stderr)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
