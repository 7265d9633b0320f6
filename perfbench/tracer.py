"""External span tracer for one `framelab` CLI invocation.

Run as ``python tracer.py SPANS_JSON RUN_ID CLI_ARGS...``: it imports
framelab, wraps the public functions of each layer module, the CLI suites
and the ``numpy.linalg`` decompositions, rebinds every wrapped name in every
framelab namespace that holds it (so calls between modules are seen), runs
``framelab.cli.main(CLI_ARGS)`` and writes the spans when it ends.  The
program itself is not modified.

``summarize`` turns a spans file into per-layer counts and self times.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "measure", "model", "maps", "multiplier", "lab")
DECOMPOSITIONS = (
    "svd", "eigvalsh", "eigh", "eig", "eigvals", "solve", "inv", "qr",
    "cholesky", "lstsq", "pinv",
)
# Calls whose inputs are hashed, so that repeated work on the same input
# shows as a distinct ratio below 1.  Every linalg call is hashed too.
FINGERPRINTED = ("model.make_model", "maps.diagnose")
TRACER_LAYER = "trace"


def _fingerprint(value, h) -> None:
    import numpy as np

    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _fingerprint(getattr(value, field.name), h)
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _fingerprint(item, h)
        h.update(b"]")
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _fingerprint(value[key], h)
    else:
        h.update(repr(value).encode())


class Tracer:
    """Collects spans in memory: [name, layer, start, end, parent, input]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str, fingerprint: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            key = None
            if fingerprint:
                # Hashing is tracer work: it gets a span of its own so that
                # it is not billed to the caller's layer.
                t0 = time.perf_counter()
                h = hashlib.blake2b(digest_size=16)
                _fingerprint((args, kwargs), h)
                key = h.hexdigest()
                spans.append([f"{TRACER_LAYER}.fingerprint", TRACER_LAYER, t0,
                              time.perf_counter(), parent, None])
            span = [name, layer, time.perf_counter(), 0.0, parent, key]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers and rebind every reference framelab holds to them."""
        import numpy as np

        import framelab

        modules = {layer: importlib.import_module(f"framelab.{layer}")
                   for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                suite = attr.removeprefix("_suite_")
                if not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                elif layer == "cli" and suite != attr and suite in module.SUITE_ORDER:
                    name = f"cli.suite.{suite}"
                else:
                    continue
                replacements[obj] = self.wrap(obj, layer, name,
                                              name in FINGERPRINTED)
        for namespace in (framelab, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(namespace, attr, replacements[obj])
        suites = modules["cli"].SUITES
        for suite, fn in suites.items():
            suites[suite] = replacements.get(fn, fn)
        for attr in DECOMPOSITIONS:
            setattr(np.linalg, attr,
                    self.wrap(getattr(np.linalg, attr), "linalg",
                              f"linalg.{attr}", True))

    def dump(self, path: Path, run_id: str, started: float, ready: float) -> None:
        fields = ("name", "layer", "start", "end", "parent", "input")
        path.write_text(json.dumps({
            "run_id": run_id,
            "started": started,
            "ready": ready,
            "ended": time.perf_counter(),
            "spans": [dict(zip(fields, span), run_id=run_id) for span in self.spans],
        }))


def summarize(trace: dict) -> dict:
    """Per-layer and per-function calls and self times of one traced run.

    A span's self time is its duration minus that of its direct children;
    spans nest on one call stack, so self times partition the time covered
    by the outermost spans.  Inclusive times are kept for the CLI suites.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]

    def tally():
        return defaultdict(lambda: {"calls": 0, "self_s": 0.0, "inputs": set()})

    layers, functions, suites = tally(), tally(), {}
    for span, children in zip(spans, child_time):
        duration = span["end"] - span["start"]
        for entry in (layers[span["layer"]], functions[span["name"]]):
            entry["calls"] += 1
            entry["self_s"] += duration - children
            if span["input"] is not None:
                entry["inputs"].add(span["input"])
        if span["name"].startswith("cli.suite."):
            suites[span["name"][len("cli.suite."):]] = duration
    covered = sum(span["end"] - span["start"] for span in spans
                  if span["parent"] < 0)

    def counted(entries):
        return {name: {"calls": e["calls"], "self_s": e["self_s"],
                       "distinct": len(e["inputs"])}
                for name, e in entries.items()}

    return {
        "layers": counted(layers),
        "functions": counted(functions),
        "suites": suites,
        "covered_s": covered,
        "import_s": trace["ready"] - trace["started"],
    }


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    import framelab.cli

    ready = time.perf_counter()
    try:
        return framelab.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, run_id, started, ready)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
