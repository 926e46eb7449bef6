"""Environment and accuracy record attached to every result, and import timing."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def source_digest(src: str) -> str:
    """SHA-256 over the program's source files, for checkouts that carry no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "scatres")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
    }


def accuracy_from_report(text: str) -> dict:
    """Measured value of every ``verify`` check, from a report.json text."""
    report = json.loads(text)
    return {c["check"]: c["measured"] for c in report["checks"]}


def run_verify(python: str, env: dict, out_dir: str) -> dict:
    """``scatres verify --suite all`` in a fresh process; its measured values."""
    os.makedirs(out_dir, exist_ok=True)
    subprocess.run([python, "-m", "scatres.cli", "verify", "--suite", "all", "--out", out_dir],
                   env=env, capture_output=True, text=True, timeout=170)
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return accuracy_from_report(fh.read())


def parse_importtime(stderr: str) -> dict:
    """Cumulative milliseconds of ``scatres.cli`` and of the outermost ``scipy*`` imports.

    ``-X importtime`` prints a module after its children, indented by depth;
    a scipy module counts unless a scipy module encloses it.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # header row
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((depth, name, cumulative))
    out = {"scatres_cli_ms": 0.0, "scipy_ms": 0.0}
    open_scipy: list[int] = []  # depths of scipy modules whose children are being listed
    for depth, name, cumulative in reversed(rows):
        while open_scipy and open_scipy[-1] >= depth:
            open_scipy.pop()
        if name == "scatres.cli":
            out["scatres_cli_ms"] = cumulative / 1e3
        if name == "scipy" or name.startswith("scipy."):
            if not open_scipy:
                out["scipy_ms"] += cumulative / 1e3
            open_scipy.append(depth)
    return out


def import_times(python: str, env: dict, samples: int = 3) -> dict:
    runs = []
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import scatres.cli"], env=env,
                              capture_output=True, text=True, timeout=120)
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}
