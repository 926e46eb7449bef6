"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

Every traced run reports every metric; a layer a workload does not reach
reads 0.  Self times and counts are totals over the traced ops
(``trace.ops``).  Per-layer metric -> end-to-end metric it should move:

* import.*, cli.*        -> setup_s, latency on ``cli``
* smatrix.*, finder.*    -> ops_per_s, pole_recall on ``sweep``, ``traceclass``
* hardy.*, semigroup.*, subspace.* -> ops_per_s, peak_rss_mb on ``decay``
* verify.<suite>.self_ms -> latency on ``cli``; verify.<check> is the measured
  value of each check, an accuracy record rather than a timing.
"""

from __future__ import annotations

VERIFY_CHECKS = (
    "hardy.parseval", "hardy.roundtrip", "hardy.q_complement", "hardy.q_idempotent",
    "hardy.p_complement", "hardy.p_idempotent", "hardy.cauchy_residue_panel",
    "hardy.q_identity_matched", "hardy.q_kill_matched", "hardy.mt_orthonormal",
    "hardy.pairing_identity", "semigroup.eigenrelation", "semigroup.law",
    "semigroup.contraction_excess", "semigroup.adjointness", "semigroup.isometry_norms",
    "semigroup.isometry_roundtrip", "semigroup.isometry_support", "semigroup.transfer_eigen",
    "semigroup.generator_offset", "smatrix.unitarity_example1", "smatrix.unitarity_rankone",
    "smatrix.traceT_vs_closed", "smatrix.jump_relation", "smatrix.two_sheet_relation",
    "smatrix.arc_boundedness", "smatrix.kernel_unification", "smatrix.jost_symmetry",
    "smatrix.jost_vs_ode", "smatrix.unitarity_squarewell", "subspace.dim_T_example1",
    "subspace.angle_T_gamov", "subspace.pole_kernel_orthogonality", "subspace.restricted_eigen",
    "subspace.b_spectrum", "subspace.resolvent_eigen", "subspace.decay_law",
)
SUITES = ("hardy", "semigroup", "smatrix", "subspace")
COMMANDS = ("resonances", "decay", "verify")

# span name -> stats read from the trace summary
SPAN_STATS = {
    "smatrix.pole_condition": ("calls", "points", "self_ms", "raised"),
    "smatrix.boundary": ("calls", "points", "self_ms"),
    "smatrix.trace_T": ("calls", "self_ms"),
    "smatrix.build_L": ("calls", "self_ms"),
    "smatrix.eval_physical": ("calls",),
    "finder.find_resonances": ("calls", "self_ms"),
    "finder.scan_region": ("calls", "self_ms"),
    "finder.winding_number": ("calls", "self_ms"),
    "finder.refine": ("calls", "self_ms", "iterations", "raised"),
    "finder.rim_scan": ("calls", "points", "self_ms"),
    "hardy.mt_expand": ("calls", "self_ms", "fft_points"),
    "hardy.mt_synthesize": ("calls", "self_ms"),
    "hardy.cauchy_eval": ("calls", "self_ms"),
    "hardy.fourier": ("calls", "self_ms"),
    "hardy.project_hardy": ("self_ms",),
    "hardy.project_half_line": ("self_ms",),
    "semigroup.build_polar_isometry": ("calls", "self_ms"),
    "semigroup.semigroup_matrix": ("calls", "self_ms"),
    "semigroup.apply_C": ("calls", "self_ms"),
    "subspace.build_N_basis": ("calls", "self_ms"),
    "subspace.build_M_and_T": ("self_ms",),
    "subspace.transition_curve": ("self_ms",),
    "subspace.resolve_B": ("self_ms",),
}
# the metric name of a stat whose summary key differs
RENAMED = {"finder.refine.raised": "finder.refine.failed"}


def _unit(stat: str) -> str:
    return "ms" if stat.endswith("_ms") else "count"


def spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("import.scatres_cli_ms", "ms"), ("import.scipy_ms", "ms"), ("cli.import_ms", "ms")]
    out += [(f"cli.{c}.command_ms", "ms") for c in COMMANDS]
    for span, stats in SPAN_STATS.items():
        out += [(RENAMED.get(f"{span}.{s}", f"{span}.{s}"), _unit(s)) for s in stats]
    out += [("finder.candidates", "count"), ("finder.kept_ratio", "ratio"),
            ("hardy.fft_computed_mb", "MB"), ("subspace.dim_T_mean", "count"),
            ("subspace.working_dim_mean", "count")]
    out += [(f"verify.{s}.self_ms", "ms") for s in SUITES]
    out += [(f"verify.{c}", "value") for c in VERIFY_CHECKS]
    out += [("trace.ops", "count"), ("trace.spans", "count"), ("trace.untraced_ops_per_s", "1/s"),
            ("trace.traced_ops_per_s", "1/s"), ("trace.overhead_pct", "%")]
    return out


def metrics(summary: dict, extra: dict) -> dict:
    """Every per-layer metric from a merged trace summary plus directly measured values."""
    calls, self_ms, counts = summary["calls"], summary["self_ms"], summary["counts"]
    values = {}
    for span, stats in SPAN_STATS.items():
        for s in stats:
            if s == "calls":
                v = calls.get(span, 0)
            elif s == "self_ms":
                v = self_ms.get(span, 0.0)
            else:
                v = counts.get(f"{span}.{s}", 0)
            values[RENAMED.get(f"{span}.{s}", f"{span}.{s}")] = v
    attempts = counts.get("finder.candidates", 0) + counts.get("finder.rim_roots", 0)
    values["finder.candidates"] = counts.get("finder.candidates", 0)
    values["finder.kept_ratio"] = counts.get("finder.kept", 0) / attempts if attempts else 0.0
    values["hardy.fft_computed_mb"] = counts.get("hardy.fft_bytes", 0) / 1e6
    n_mt = calls.get("subspace.build_M_and_T", 0)
    values["subspace.dim_T_mean"] = counts.get("subspace.dim_T", 0) / n_mt if n_mt else 0.0
    values["subspace.working_dim_mean"] = counts.get("subspace.working_dim", 0) / n_mt if n_mt else 0.0
    for s in SUITES:
        values[f"verify.{s}.self_ms"] = self_ms.get(f"verify.{s}_suite", 0.0)
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in spec()}
