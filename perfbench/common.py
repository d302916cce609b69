"""Shared plumbing for the benchmark: paths, provenance, statistics.

Everything the benchmark reads or writes lives inside the checkout it
runs from: the program under test is imported from ``<checkout>/src``
and scratch files go to ``<checkout>/.bench_build/perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: Probes of set-up per run; setup_s is their median.
SETUP_PROBES = 5
#: Calibration kernel runs in a probe at start and again after ready.
PROBE_KERNELS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken checkout)."""


def import_repro():
    """Import the program from this checkout's ``src`` and nowhere else."""
    pkg = SRC / "repro" / "__init__.py"
    if not pkg.is_file():
        raise BenchError(f"no program to measure: {pkg} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != pkg.resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


def cli_args(seed: int):
    """The `python -m repro train --model lstm` arguments at *seed*."""
    from repro.__main__ import build_parser

    return build_parser().parse_args(
        ["train", "--model", "lstm", "--seed", str(seed)]
    )


def source_digest() -> str:
    """SHA-256 over every file under ``src`` (path + bytes).

    Names the code under test even where the checkout is not a git
    repository; keys the cached serving checkpoint.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(config) -> dict:
    import numpy as np

    from repro.core.system import config_digest

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "config_digest": config_digest(config),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def scratch_dir(tag: str) -> Path:
    """A fresh per-process directory under the work dir."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe_setup(workload: str, seed: int, seconds: float,
                n: int = SETUP_PROBES) -> list[float]:
    """Time set-up in *n* fresh interpreters, from spawn to ready.

    ``time.monotonic`` is the system-wide monotonic clock, so the
    child's ready stamp and the parent's spawn stamp compare directly.
    Returns the wall times and the same in nominal seconds, each scaled
    by the median calibration kernel time around it: just before its
    spawn, in the child at start (its own time is taken out of the
    set-up) and in the child after ready.
    """
    from calib import NOMINAL_KERNEL_S, kernel

    samples, nominal = [], []
    for _ in range(n):
        cal = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            cal.append(time.perf_counter() - t0)
        t_spawn = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr[-2000:]}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(probe["ready"] - t_spawn - probe["excluded_s"])
        nominal.append(samples[-1] * NOMINAL_KERNEL_S / median(cal + probe["kernel_s"]))
    return samples, nominal
