"""Machine-checkable invariant suites behind the ``verify`` command.

Each suite runs on the default grid (2^14 points, half extent 400) and returns
a list of check records ``{check, measured, tolerance, pass}``; the tolerances
are the ones written here.
"""

from __future__ import annotations

import numpy as np

from . import semigroup, smatrix, subspace
from .hardy import GridFunction, cauchy_eval, fourier, inner, make_grid, mt_basis, norm, project_half_line, project_hardy

__all__ = ["run_suite", "SUITES"]

DEFAULT_GRID = (2**14, 400.0)


def _check(name, measured, tol):
    """One check record.  A callable ``measured`` is evaluated here; if it raises,
    the check fails with ``measured`` null and the exception under ``error``."""
    record = {"check": name, "measured": None, "tolerance": tol, "pass": False}
    try:
        measured = float(measured() if callable(measured) else measured)
    except Exception as exc:
        return record | {"error": f"{type(exc).__name__}: {exc}"}
    return record | {"measured": measured, "pass": measured < tol}


def _random_function(grid, rng, m=1):
    return GridFunction(grid, rng.standard_normal((grid.n_points, m))
                        + 1j * rng.standard_normal((grid.n_points, m)))


def _rational(grid, poles, weights=None):
    lam = grid.points()
    weights = weights or [1.0] * len(poles)
    s = sum(w / (lam - p) for w, p in zip(weights, poles))
    return GridFunction(grid, s)


def hardy_suite():
    grid = make_grid(*DEFAULT_GRID)
    rng = np.random.default_rng(7)
    f = _random_function(grid, rng)
    checks = []

    fhat = fourier(f, "forward")
    checks.append(_check("hardy.parseval", abs(norm(fhat) - norm(f)) / norm(f), 1e-12))
    back = fourier(fhat, "inverse")
    checks.append(_check("hardy.roundtrip", norm(back - f) / norm(f), 1e-12))

    qp = project_hardy(f, "+")
    qm = project_hardy(f, "-")
    checks.append(_check("hardy.q_complement", norm(qp + qm - f) / norm(f), 1e-12))
    checks.append(_check("hardy.q_idempotent", norm(project_hardy(qp, "+") - qp) / norm(f), 1e-12))
    pp = project_half_line(f, "+")
    pm = project_half_line(f, "-")
    checks.append(_check("hardy.p_complement", norm(pp + pm - f) / norm(f), 1e-12))
    checks.append(_check("hardy.p_idempotent", norm(project_half_line(pp, "+") - pp) / norm(f), 1e-12))

    # residue-theorem panel for the Cauchy evaluation
    pairs = [
        (1 - 1j, 1j), (1 - 1j, 2j), (-2j, 3j), (0.5 - 0.7j, 0.3 + 1.2j), (-1 - 1j, -0.5 + 0.6j),
        (2 - 0.5j, 1 + 0.5j), (-3 - 2j, 2 + 2j), (0 - 1j, 1j), (1.5 - 2.5j, -1 + 1j), (-0.7 - 0.4j, 0.9j),
    ]
    worst = 0.0
    lam = grid.points()
    for zeta, z in pairs:
        fz = GridFunction(grid, 1 / (lam - zeta))
        worst = max(worst, abs(cauchy_eval(fz, z)[0] - 1 / (z - zeta)))
    checks.append(_check("hardy.cauchy_residue_panel", worst, 1e-4))

    # matched-mode Hardy identity and annihilation on rational elements
    e_in = _rational(grid, [-2j])
    e_out = _rational(grid, [2j])
    checks.append(_check("hardy.q_identity_matched",
                         norm(project_hardy(e_in, "+", mode="matched") - e_in) / norm(e_in),
                         1e-3))
    checks.append(_check("hardy.q_kill_matched",
                         norm(project_hardy(e_out, "+", mode="matched")) / norm(e_out),
                         1e-3))

    # orthonormality of the rational basis (grid unpinned; tails ~ 1/L)
    big = make_grid(2**15, 1600.0)
    worst = 0.0
    for j in range(6):
        for k in range(6):
            val = inner(mt_basis(j, big), mt_basis(k, big))
            worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    checks.append(_check("hardy.mt_orthonormal", worst, 1e-3))

    # pairing identity <k/(.-zeta), g> = 2 pi i conj(k) . g(conj zeta)
    zeta = 1 - 1j
    gfun = _rational(grid, [-1.5j, -0.5 - 2j], [1.0, 0.4])
    lhs = inner(_rational(grid, [zeta]), gfun)
    rhs = 2j * np.pi * cauchy_eval(gfun, np.conj(zeta))[0]
    checks.append(_check("hardy.pairing_identity", abs(lhs - rhs) / abs(rhs), 5e-3))
    return checks


def semigroup_suite():
    grid = make_grid(*DEFAULT_GRID)
    lam = grid.points()
    zeta = 1 - 1j
    e = GridFunction(grid, 1 / (lam - zeta))
    checks = []

    def eigen():
        return max(
            norm(semigroup.apply_C(e, t) - np.exp(-1j * t * zeta) * e) / norm(e)
            for t in (0.5, 1.0, 2.0)
        )

    checks.append(_check("semigroup.eigenrelation", eigen, 5e-3))
    checks.append(_check(
        "semigroup.law",
        lambda: norm(semigroup.apply_C(semigroup.apply_C(e, 0.5), 0.7)
                     - semigroup.apply_C(e, 1.2)) / norm(e),
        1e-3))

    def contraction():
        corpus = [e, _rational(grid, [-1j]), _rational(grid, [-0.8 - 0.6j, 1 - 2j], [1.0, 0.5])]
        worst = max(
            norm(semigroup.apply_C(f, t)) / norm(f) - 1.0
            for f in corpus for t in (0.3, 1.0, 4.0)
        )
        return max(worst, 0.0)

    checks.append(_check("semigroup.contraction_excess", contraction, 1e-12))

    def adjointness():
        f0 = _rational(grid, [-1.5j]) - _rational(grid, [-2.5j])
        g0 = _rational(grid, [1 - 0.8j]) - _rational(grid, [-1 - 1.3j])
        lhs = inner(semigroup.apply_T(f0, 0.9), g0)
        rhs = inner(f0, semigroup.apply_C(g0, 0.9))
        return abs(lhs - rhs) / abs(lhs)

    checks.append(_check("semigroup.adjointness", adjointness, 1e-3))

    iso = semigroup.build_polar_isometry(grid, rank_budget=48)

    def iso_norms():
        return max(
            abs(norm(iso.forward(f)) / norm(f) - 1.0) for f in iso.initial_vectors()[::7]
        )

    def iso_round():
        return max(
            norm(iso.adjoint(iso.forward(f)) - f) / norm(f) for f in iso.initial_vectors()[::7]
        )

    checks.append(_check("semigroup.isometry_norms", iso_norms, 1e-6))
    checks.append(_check("semigroup.isometry_roundtrip", iso_round, 1e-6))
    checks.append(_check(
        "semigroup.isometry_support",
        lambda: norm(project_half_line(iso.forward(mt_basis(3, grid)), "-")),
        1e-6))

    def transfer():
        re = iso.forward(e)
        overlap = abs(inner(re, semigroup.transfer_apply(iso, re, 1.0)))
        target = np.exp(-1.0) * norm(e) ** 2
        return abs(overlap - target) / target

    checks.append(_check("semigroup.transfer_eigen", transfer, 1e-2))
    checks.append(_check(
        "semigroup.generator_offset",
        lambda: abs(semigroup.generator_offset(e).offset[0] + 1.0),
        1e-3))
    return checks


def smatrix_suite():
    checks = []
    lams = np.logspace(-3, 3, 200)
    ex1 = smatrix.example1()
    r1 = smatrix.RankOneModel(1.0)
    s_ex = ex1.boundary(lams, "+")[:, 0, 0]
    s_r1 = r1.boundary(lams, "+")[:, 0, 0]
    checks.append(_check("smatrix.unitarity_example1", np.abs(np.abs(s_ex) - 1).max(), 1e-12))
    checks.append(_check("smatrix.unitarity_rankone", np.abs(np.abs(s_r1) - 1).max(), 1e-12))

    data = smatrix.rankone_trace_data(1.0)
    zs = np.array([-1.0 + 0j, 10j, 3 - 4j, -0.5 + 0.2j, 40 - 60j])
    closed = smatrix.rankone_resolvent_elem(zs, 1)
    worst = np.max(np.abs(smatrix.trace_T(data, zs)[:, 0, 0] - closed) / np.abs(closed))
    checks.append(_check("smatrix.traceT_vs_closed", worst, 1e-6))

    jump = (smatrix.build_L(data, 1.0, 2) - smatrix.build_L(data, 1.0, 1))[0, 0]
    checks.append(_check("smatrix.jump_relation", abs(jump - (-1j)), 1e-6))

    lneg = np.array([-0.5, -1.7, -3.3])
    up = r1.boundary(lneg, "+")[:, 0, 0]
    dn = r1.boundary(lneg, "-")[:, 0, 0]
    checks.append(_check("smatrix.two_sheet_relation", np.abs(1 / dn - np.conj(up)).max(), 1e-10))

    worst = 0.0
    for radius in (50.0, 100.0):
        arc = radius * np.exp(1j * np.linspace(0.05, np.pi - 0.05, 100))
        vals = np.abs(r1.eval(arc, 1)[:, 0, 0])
        worst = max(worst, vals.max())
    checks.append(_check("smatrix.arc_boundedness", worst, 10.0))

    # resonance/eigenvalue unification against the quadratic formula
    worst = 0.0
    for a in (0.5, 1.0, 4.0, -0.5, -2.0):
        model = smatrix.RankOneModel(a)
        for k in model.eigen_momenta():
            z = k**2
            sheet = 1 if k.imag > 0 else 2
            ell = smatrix.build_L(smatrix.rankone_trace_data(a), complex(z), sheet)
            worst = max(worst, np.linalg.svd(ell, compute_uv=False)[-1])
    checks.append(_check("smatrix.kernel_unification", worst, 1e-8))

    well = smatrix.SquareWellModel(10.0, 1.0)
    ks = np.array([0.3 + 0.2j, 2 - 1j, -1 + 3j, 1.5 - 0.5j])
    sym = np.abs(np.conj(smatrix.jost_F(-np.conj(ks), 10.0, 1.0)) - smatrix.jost_F(ks, 10.0, 1.0)).max()
    checks.append(_check("smatrix.jost_symmetry", sym, 1e-12))
    closed = smatrix.jost_F(ks, 10.0, 1.0)
    worst = np.max(np.abs(closed - smatrix.jost_F_ode(ks, 10.0, 1.0)) / np.abs(closed))
    checks.append(_check("smatrix.jost_vs_ode", worst, 1e-8))
    sw = well.boundary(lams, "+")[:, 0, 0]
    checks.append(_check("smatrix.unitarity_squarewell", np.abs(np.abs(sw) - 1).max(), 1e-12))
    return checks


def subspace_suite():
    grid = make_grid(*DEFAULT_GRID)
    checks = []
    model = smatrix.example1()
    nb = subspace.build_N_basis(model, 16, "upper_poles", grid)
    mb, tb = subspace.build_M_and_T(model, nb)
    checks.append(_check("subspace.dim_T_example1", abs(tb.dim - 1), 0.5))

    zeta = 1 - 1j
    ec = subspace.gamov_coefficients(zeta, tb.working_dim)
    ecn = ec / np.linalg.norm(ec)
    angle = np.arccos(min(1.0, float(np.linalg.norm(tb.coefs.conj().T @ ecn))))
    checks.append(_check("subspace.angle_T_gamov", angle, 1e-2))

    worst = 0.0
    for i in range(mb.dim):
        worst = max(worst, abs(np.vdot(ec, mb.coefs[:, i])) / np.linalg.norm(ec))
    checks.append(_check("subspace.pole_kernel_orthogonality", worst, 1e-3))

    e = subspace.gamov(zeta, 1.0, grid)

    def restricted_eigen():
        return max(
            norm(subspace.restricted_apply(tb, e, t) - np.exp(-1j * t * zeta) * e) / norm(e)
            for t in (0.5, 1.0, 2.0)
        )

    checks.append(_check("subspace.restricted_eigen", restricted_eigen, 1e-2))

    ev = np.linalg.eigvals(subspace.b_matrix(tb))
    checks.append(_check("subspace.b_spectrum", min(abs(ev - zeta)), 1e-2))

    def resolvent():
        f = subspace.resolve_B(tb, e, -3j, resonances=[zeta])
        target = e * (1 / (zeta + 3j))
        return norm(f - target) / norm(target)

    checks.append(_check("subspace.resolvent_eigen", resolvent, 1e-2))

    times = np.linspace(0, 3, 13)
    curve = subspace.transition_curve(e * (1 / norm(e)), times, "decay", t_basis=tb, zeta=zeta)
    rel = np.abs(np.abs(curve.overlaps) - curve.reference) / curve.reference
    checks.append(_check("subspace.decay_law", rel.max(), 1e-2))
    return checks


SUITES = {
    "hardy": hardy_suite,
    "semigroup": semigroup_suite,
    "smatrix": smatrix_suite,
    "subspace": subspace_suite,
}


def run_suite(name: str) -> list[dict]:
    """Check records of one suite, or of every suite in turn for ``"all"``."""
    if name == "all":
        return [c for suite in SUITES.values() for c in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name]()
