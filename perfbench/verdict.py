"""Per-op verdicts: pass, or the reasons an op failed.

Reasons: ``exception``, ``exit_code``, ``missed_pole``, ``spurious_pole``,
``nonfinite_output``, ``decay_off_reference``, ``resolvent_off_reference`` and
``trivial_subspace`` (the slowest resonance was found, yet the admissible
subspace came out trivial).  A model without resonances makes a trivial
subspace (exit 3 from ``decay``) the correct outcome.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import re

from ops import finite_csv
from oracle import same_pole

DECAY_TOL = 1e-2
RESOLVENT_TOL = 1e-2
# ``scatres decay`` prints the evolved pole with six decimals.
PRINTED_POLE_TOL = 2e-6


def _finite(values) -> bool:
    return all(cmath.isfinite(complex(v)) for v in values)


def _pole_reasons(oracle, poles) -> list[str]:
    reasons = []
    if oracle.matched(poles) < len(oracle.expected):
        reasons.append("missed_pole")
    if any(not oracle.is_pole(z, s) for z, s in poles):
        reasons.append("spurious_pole")
    return reasons


def _curve_reasons(oracle, zeta, decay_abs, reference, other_values, printed=False) -> list[str]:
    """The evolved pole must be the slowest expected resonance, the curve its exponential."""
    if not (_finite(decay_abs) and _finite(reference) and _finite(other_values)):
        return ["nonfinite_output"]
    slowest = oracle.slowest()
    if slowest is None:
        return ["spurious_pole"]
    reasons = []
    tol = (PRINTED_POLE_TOL if printed else oracle.tol) * max(1.0, abs(slowest))
    if abs(zeta - slowest) > tol:
        reasons.append("missed_pole")
    rel = max(abs(a - r) / r for a, r in zip(decay_abs, reference))
    if not rel <= DECAY_TOL:
        reasons.append("decay_off_reference")
    return reasons


def judge_in_process(op, out, oracle) -> list[str]:
    if "exception" in out:
        return ["exception"]
    reasons = _pole_reasons(oracle, out["poles"])
    if op["kind"] == "sweep":
        if re.search(r"\bNaN\b|Infinity", out["json"]) or not finite_csv(out["csv"]):
            reasons.append("nonfinite_output")
    if op["kind"] != "decay":
        return reasons
    # a decay op is judged by the curve it evolves, not by unrelated missed poles
    reasons = [r for r in reasons if r == "spurious_pole"]
    if out["outcome"] != "curve":
        slowest = oracle.slowest()
        if slowest is not None:
            found = any(same_pole(z, slowest, oracle.tol) for z, _ in out["poles"])
            reasons.append("trivial_subspace" if found else "missed_pole")
        return sorted(set(reasons))
    reasons += _curve_reasons(oracle, out["zeta"], [abs(v) for v in out["decay"]],
                              out["reference"], out["unitary"])
    if not out["resolvent_err"] <= RESOLVENT_TOL:
        reasons.append("resolvent_off_reference")
    return sorted(set(reasons))


def cli_poles(out) -> list[tuple[complex, int]]:
    """Poles written to poles.json by a ``resonances`` command."""
    try:
        rows = json.loads(out["files"]["poles.json"])["resonances"]
        return [(complex(r["re_zeta"], r["im_zeta"]), int(r["sheet"])) for r in rows]
    except (KeyError, ValueError, TypeError):
        return []


def judge_cli(op, out, oracle) -> list[str]:
    code = out["exit"]
    if op["command"] == "verify":
        if code != 0:
            return ["exit_code"]
        report = json.loads(out["files"].get("report.json", "{}") or "{}")
        return [] if report.get("all_pass") else ["exit_code"]
    if op["command"] == "resonances":
        if code != 0:
            return ["exit_code"]
        files = out["files"]
        if "poles.json" not in files or "poles.csv" not in files:
            return ["exit_code"]
        reasons = _pole_reasons(oracle, cli_poles(out))
        if re.search(r"\bnan\b|\binf\b", files["poles.json"], re.I) or not finite_csv(files["poles.csv"]):
            reasons.append("nonfinite_output")
        return reasons
    # decay: exit 3 is right exactly when the model has no resonance
    if code == 3:
        return ["exit_code"] if oracle.resonances else []
    if code != 0 or "decay.csv" not in out["files"]:
        return ["exit_code"]
    text = out["files"]["decay.csv"]
    if not finite_csv(text):
        return ["nonfinite_output"]
    rows = list(csv.DictReader(io.StringIO(text)))
    match = re.search(r"for pole \(?([-+0-9.eE]+[-+][0-9.eE]+j)\)?", out["stdout"])
    if not match:
        return ["exit_code"]
    zeta = complex(match.group(1))
    return _curve_reasons(oracle, zeta, [float(r["abs_decay"]) for r in rows],
                          [float(r["reference"]) for r in rows],
                          [float(r["abs_unitary"]) for r in rows], printed=True)


def recall_counts(op, out, oracle) -> tuple[int, int]:
    """(expected poles found, expected poles) of an op that reports poles."""
    if oracle is None:
        return 0, 0
    if op["kind"] == "cli":
        if op["command"] != "resonances":
            return 0, 0
        poles = cli_poles(out) if out.get("exit") == 0 else []
    else:
        poles = out.get("poles", [])
    return oracle.matched(poles), len(oracle.expected)
