"""Correctness checks on the report directory of one `framelab run`."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class RunCheck:
    """Verdict on one run.

    ``residual`` is the largest asserted residual in the reports (None when
    the reports hold none); ``digest`` fingerprints every report file.
    """

    passed: bool
    reason: str
    residual: float | None
    digest: str


def digest_dir(directory: Path) -> str:
    """SHA-256 over the relative path and bytes of every file, in path order."""
    h = hashlib.sha256()
    if directory.is_dir():
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _residuals(value, key=""):
    """Numbers under a ``*residual*`` or ``max_deviation`` key, at any depth."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _residuals(v, key if "residual" in key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _residuals(v, key)
    elif "residual" in key or key == "max_deviation":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield float(value)
        elif value in ("nan", "inf", "-inf"):  # how the reports spell non-finite floats
            yield float(value)


def largest_residual(reports: dict) -> float | None:
    """Largest ``*residual*`` / ``max_deviation`` value the suites assert.

    The calculus suite asserts its composition residuals only on a dual
    pair; elsewhere they measure how far the pair is from dual, not an
    error, and are left out.
    """
    values = []
    for suite, report in reports.items():
        data = report.get("data", {})
        if suite == "calculus" and not data.get("dual_pair", False):
            continue
        values.extend(_residuals(data))
    return max(values) if values else None


def check_run(returncode: int, report_dir: Path) -> RunCheck:
    """A run passes when it exits 0 and every report says ``passed: true``."""
    digest = digest_dir(report_dir)
    summary_path = report_dir / "summary.json"
    if returncode != 0:
        return RunCheck(False, f"exit code {returncode}", None, digest)
    if not summary_path.is_file():
        return RunCheck(False, "summary.json missing", None, digest)
    summary = json.loads(summary_path.read_text())
    if summary.get("passed") is not True:
        return RunCheck(False, "summary.json has passed: false", None, digest)
    reports = {}
    for suite in summary.get("suites", []):
        path = report_dir / f"{suite}.json"
        if not path.is_file():
            return RunCheck(False, f"{suite}.json missing", None, digest)
        reports[suite] = json.loads(path.read_text())
        if reports[suite].get("passed") is not True:
            return RunCheck(False, f"suite {suite} has passed: false", None, digest)
    residual = largest_residual(reports)
    if residual is not None and not math.isfinite(residual):
        return RunCheck(False, f"non-finite residual {residual!r}", None, digest)
    return RunCheck(True, "", residual, digest)
