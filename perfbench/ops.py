"""One operation of each workload, run against the program.

In-process ops import the program lazily (``load``), so that the set-up
measurement pays for the import.  Every op returns a plain record of its
outputs; judging them against the oracles happens after the timed loop
(``verdict.py``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

from gen import DECAY_GRID, DECAY_TIMES

CLI_TIMEOUT_S = 120
# Candidate regular points for resolve_B, in order of preference.
REGULAR_POINTS = (-3j, -5j, 2 - 4j, -2 - 6j)


def load():
    """Import the program modules the in-process workloads call."""
    import scatres  # noqa: F401  (the package import pulls in every module)
    from scatres import finder, hardy, semigroup, smatrix, subspace
    return {"finder": finder, "hardy": hardy, "semigroup": semigroup,
            "smatrix": smatrix, "subspace": subspace}


def regular_point(poles) -> complex:
    """First candidate point at least 0.5 away from every located pole."""
    for z in REGULAR_POINTS:
        if all(abs(z - p) > 0.5 for p, _ in poles):
            return z
    raise ValueError("no regular point away from the located poles")


def _times():
    t0, t1, dt = (float(x) for x in DECAY_TIMES.split(":"))
    return [t0 + i * dt for i in range(int(round((t1 - t0) / dt)) + 1)]


def _poles(found):
    return [(complex(r.zeta), int(r.sheet)) for r in found]


def run_sweep(lib, op, work):
    finder, smatrix = lib["finder"], lib["smatrix"]
    mdl = smatrix.model_from_spec(op["spec"])
    found = finder.find_resonances(mdl)
    audit = finder.conjugate_pair_audit(found, mdl)
    text = json.dumps({"model": mdl.name, "audit_ok": audit.ok,
                       "resonances": finder.resonances_to_json(found)})
    csv_path = os.path.join(work, "poles.csv")
    finder.resonances_to_csv(found, csv_path)
    return {"poles": _poles(found), "json": text, "csv_path": csv_path}


def run_traceclass(lib, op, work):
    finder, smatrix = lib["finder"], lib["smatrix"]
    mdl = smatrix.TraceClassModel(smatrix.rankone_trace_data(op["a"]))
    return {"poles": _poles(finder.find_resonances(mdl))}


def run_decay(lib, op, work):
    """The steps of ``scatres decay``, plus one resolvent solve at a regular point.

    The poles found are kept when a later step raises, so that pole recall
    counts what the finder found; the op still fails on the exception.
    """
    mdl = lib["smatrix"].model_from_spec(op["spec"])
    found = lib["finder"].find_resonances(mdl)
    out = {"poles": _poles(found), "outcome": "trivial"}
    try:
        return _decay_steps(lib, op, mdl, found, out)
    except Exception as exc:  # the op failed; the verdict records why
        out["exception"] = f"{type(exc).__name__}: {exc}"
        return out


def _decay_steps(lib, op, mdl, found, out):
    finder, hardy, subspace = lib["finder"], lib["hardy"], lib["subspace"]
    grid = hardy.make_grid(*DECAY_GRID)
    resonances = [r for r in found if r.kind == "resonance"]
    if not finder.conjugate_pair_audit(found, mdl).ok:
        out["outcome"] = "not_admissible"
        return out
    mode = "upper_poles" if mdl.sheet_count == 1 else "rim_poles"
    nb = subspace.build_N_basis(mdl, op["basis_n"], mode, grid)
    _, tb = subspace.build_M_and_T(mdl, nb)
    if tb.dim == 0 or not resonances:
        return out
    slowest = min(resonances, key=lambda r: abs(r.zeta.imag))
    e = subspace.gamov(slowest.zeta, slowest.kernel, grid)
    e = e * (1.0 / hardy.norm(e))
    times = _times()
    decay = subspace.transition_curve(e, times, "decay", t_basis=tb, zeta=slowest.zeta)
    iso = lib["semigroup"].build_polar_isometry(grid, rank_budget=op["basis_n"])
    unitary = subspace.transition_curve(e, times, "unitary", isometry=iso, zeta=slowest.zeta)
    z = regular_point(out["poles"])
    f = subspace.resolve_B(tb, e, z, resonances=resonances)
    target = e * (1.0 / (slowest.zeta - z))
    out.update(
        outcome="curve",
        zeta=complex(slowest.zeta),
        decay=[complex(v) for v in decay.overlaps],
        reference=[float(v) for v in decay.reference],
        unitary=[complex(v) for v in unitary.overlaps],
        resolvent_err=hardy.norm(f - target) / hardy.norm(target),
    )
    return out


IN_PROCESS = {"sweep": run_sweep, "traceclass": run_traceclass, "decay": run_decay}


# ---------------------------------------------------------------------------
# fresh-process CLI commands


def cli_args(op) -> list[str]:
    if op["command"] == "verify":
        return ["verify", "--suite", "all"]
    args = [op["command"], "--model", op["spec"]]
    if op["command"] == "decay":
        args += ["--basis-n", str(op["basis_n"]), "--times", DECAY_TIMES,
                 "--grid-n", str(DECAY_GRID[0]), "--grid-l", repr(DECAY_GRID[1])]
    return args


def run_cli(argv_prefix, op, work, env, cwd):
    """Run one command in a fresh interpreter; collect exit code and output files.

    ``cwd`` holds the CSV files that model descriptions name.
    """
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    argv = argv_prefix + cli_args(op) + ["--out", out_dir]
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        return {"exit": None, "stdout": stdout, "stderr": "timeout\n" + stderr, "files": {}}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            files[name] = fh.read()
    return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr, "files": files}


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the op failed; the verdict records why
        out = {"exception": f"{type(exc).__name__}: {exc}"}
    return out, time.perf_counter() - t0


def finite_csv(text: str) -> bool:
    """False when any numeric cell of a CSV text is NaN or infinite."""
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                continue
    return True


def python_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python() -> str:
    return sys.executable or "python3"
