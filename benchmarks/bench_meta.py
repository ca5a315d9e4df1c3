"""Shared provenance stamping for every ``BENCH_*.json`` emitter.

A committed benchmark JSON is a *trajectory point*: later PRs compare
against it to argue a speedup or catch a regression.  That comparison is
only meaningful when the numeric environment is recorded alongside the
numbers — the same solve can differ across numpy releases, BLAS builds
or CPU budgets.  :func:`stamp_metadata` returns the canonical metadata
block all ``benchmarks/bench_*.py`` emitters merge into their payload:

* ``generated_by`` / ``git_sha`` — which script at which commit;
* ``python_version`` / ``numpy_version`` / ``blas`` — the numeric stack
  (BLAS name, version and runtime configuration string);
* ``cpu_count`` / ``effective_affinity`` — the machine vs what this
  process may actually use (containers often pin to a subset);
* ``bench_schema_version`` — bumped when the metadata block itself
  changes shape, so trajectory tooling can parse historical files.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["BENCH_SCHEMA_VERSION", "stamp_metadata"]

#: Version of the shared metadata block (not of any bench's own fields).
BENCH_SCHEMA_VERSION = 2

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str | None:
    """The current commit hash, or ``None`` outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _effective_affinity() -> int:
    """CPUs this process may run on: the scheduling affinity where the
    platform has one (Linux), else the machine's ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def _blas_info() -> dict[str, Any]:
    """Name/version/configuration of the BLAS numpy was built against."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # very old numpy: no dict mode
        return {"name": None, "version": None, "configuration": None}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
    }


def stamp_metadata(generated_by: str) -> dict[str, Any]:
    """The canonical metadata block for one ``BENCH_*.json`` payload.

    Merge it first (``payload = {**stamp_metadata(...), ...}``) so a
    bench can still override or extend individual fields.
    """
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": generated_by,
        "git_sha": _git_sha(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas": _blas_info(),
        "cpu_count": os.cpu_count(),
        "effective_affinity": _effective_affinity(),
    }
