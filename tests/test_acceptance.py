"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

import scatres as sr

ZETA = 1 - 1j
SQ2 = np.sqrt(2.0)


def _report(num, label, measured, tol, ok=None):
    ok = (measured < tol) if ok is None else ok
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {label}: "
          f"measured {measured:.3e} tolerance {tol:.1e}")
    assert ok, f"criterion {num} failed: {label}: {measured:.3e} >= {tol:.1e}"


def test_criterion_01_rankone_resonances():
    worst, slowest = 0.0, 0.0
    region = [sr.ScanRegion(-6, 6, -6, -0.02, sheet=2)]
    for a in (0.25, 1.0, 4.0):
        t0 = time.perf_counter()
        found = sr.find_resonances(sr.RankOneModel(a), regions=region)
        slowest = max(slowest, time.perf_counter() - t0)
        expected = a - 1 - 2j * np.sqrt(a)  # quadratic-formula oracle
        assert len(found) == 1 and found[0].sheet == 2 and found[0].kind == "resonance"
        worst = max(worst, abs(found[0].zeta - expected))
    _report(1, "rank-one resonance location", worst, 1e-8)
    _report(1, "rank-one runtime per coupling [s]", slowest, 1.0)


def test_criterion_02_rankone_bound_states():
    found = sr.find_resonances(sr.RankOneModel(-2.0))
    bound = [r for r in found if r.kind == "bound_state"]
    rim = [r for r in found if r.kind == "rim_pole"]
    ok = len(bound) == 1 and len(rim) == 1 and rim[0].sheet == 2
    err = abs(bound[0].zeta - (-(3 - 2 * SQ2))) if bound else np.inf
    _report(2, "a=-2 bound state at -(3-2*sqrt(2))", err, 1e-8, ok and err < 1e-8)
    found_half = sr.find_resonances(sr.RankOneModel(-0.5))
    rims = [r for r in found_half if r.kind == "rim_pole" and r.sheet == 2]
    others = [r for r in found_half if r.kind != "rim_pole"]
    expected = sorted([-(1.5 - SQ2), -(1.5 + SQ2)])
    err2 = max(abs(r.zeta - e) for r, e in zip(sorted(rims, key=lambda r: r.zeta.real),
                                               sorted(expected))) if len(rims) == 2 else np.inf
    _report(2, "a=-0.5 two sheet-2 rim solutions, no bound state", err2, 1e-8,
            len(rims) == 2 and not others and err2 < 1e-8)


def test_criterion_03_closed_form_vs_quadrature():
    data = sr.rankone_trace_data(1.0)
    moduli = np.logspace(np.log10(0.1), np.log10(100.0), 10)
    args = [2.5, -2.5, 0.9, -0.9]
    points = [m * np.exp(1j * args[i % 4]) for i, m in enumerate(moduli)]
    worst = 0.0
    for z in points:
        for sheet in (1, 2):
            closed = 1 - 1.0 * sr.rankone_resolvent_elem(z, sheet)
            ell = sr.build_L(data, z, sheet)
            worst = max(worst, abs(ell[0, 0] - closed) / abs(closed))
    exact = abs(sr.trace_T(data, -1.0)[0, 0] - (-0.25))
    _report(3, "resolvent element closed form vs quadrature (20 pts, 2 sheets)", worst, 1e-6)
    _report(3, "exact point z=-1 -> -1/4", exact, 1e-6)


def test_criterion_04_unitarity():
    lams = np.logspace(-3, 3, 200)
    worst = 0.0
    for model in (sr.example1(), sr.RankOneModel(1.0)):
        s = model.boundary(lams, "+")[:, 0, 0]
        worst = max(worst, np.abs(np.abs(s) - 1).max())
    _report(4, "boundary unitarity over 200 log-spaced energies", worst, 1e-12)


def test_criterion_05_hardy_suite():
    g = sr.make_grid(2**14, 400.0)
    rng = np.random.default_rng(3)
    f = sr.grid_function(g, rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points))
    fhat = sr.fourier(f, "forward")
    parseval = abs(sr.norm(fhat) - sr.norm(f)) / sr.norm(f)
    qp, qm = sr.project_hardy(f, "+"), sr.project_hardy(f, "-")
    pp, pm = sr.project_half_line(f, "+"), sr.project_half_line(f, "-")
    algebra = max(
        sr.norm(qp + qm - f) / sr.norm(f),
        sr.norm(sr.project_hardy(qp, "+") - qp) / sr.norm(f),
        sr.norm(pp + pm - f) / sr.norm(f),
        sr.norm(sr.project_half_line(pp, "+") - pp) / sr.norm(f),
    )
    _report(5, "Parseval", parseval, 1e-12)
    _report(5, "projector idempotence and complementarity", algebra, 1e-12)
    pairs = [
        (1 - 1j, 1j), (1 - 1j, 2j), (-2j, 3j), (0.5 - 0.7j, 0.3 + 1.2j), (-1 - 1j, -0.5 + 0.6j),
        (2 - 0.5j, 1 + 0.5j), (-3 - 2j, 2 + 2j), (0 - 1j, 1j), (1.5 - 2.5j, -1 + 1j), (-0.7 - 0.4j, 0.9j),
    ]

    def panel_error(grid):
        lam = grid.points()
        worst = 0.0
        for zeta, z in pairs:
            fz = sr.grid_function(grid, 1 / (lam - zeta))
            worst = max(worst, abs(sr.cauchy_eval(fz, z)[0] - 1 / (z - zeta)))
        return worst

    coarse = panel_error(g)
    fine = panel_error(sr.make_grid(2**15, 800.0))
    _report(5, "Cauchy residue panel at (2^14, 400)", coarse, 1e-4)
    _report(5, "refinement reduces the panel error by >= 2x", fine / coarse, 0.5 + 1e-12)


def test_criterion_06_characteristic_semigroup():
    # C(t) acts on rational-basis coefficients: those of 1/(lam - zeta), of
    # phi_0 and of 1/(lam + 0.5 + 2i), 48 each
    e = sr.gamov_coefficients(ZETA, 48)
    norm = np.linalg.norm
    eigen = max(
        norm(sr.apply_C(e, t) - np.exp(-1j * t * ZETA) * e) / norm(e)
        for t in (0.5, 1.0, 2.0)
    )
    law = norm(sr.apply_C(sr.apply_C(e, 0.5), 0.7) - sr.apply_C(e, 1.2)) / norm(e)
    contraction = max(
        norm(sr.apply_C(c, t)) / norm(c) - 1.0
        for c in (e, np.eye(48)[0], sr.gamov_coefficients(-0.5 - 2j, 48))
        for t in (0.5, 1.0, 2.0)
    )
    _report(6, "eigenrelation for zeta = 1 - i", eigen, 5e-3)
    _report(6, "semigroup law", law, 1e-3)
    _report(6, "contraction excess", max(contraction, 0.0), 1e-12)


def test_criterion_07_polar_isometry():
    g = sr.make_grid(2**14, 400.0)
    iso = sr.build_polar_isometry(g, rank_budget=48)
    worst = 0.0
    for f in iso.initial_vectors()[::5]:
        rf = iso.forward(f)
        worst = max(worst, abs(sr.norm(rf) / sr.norm(f) - 1))
        worst = max(worst, sr.norm(iso.adjoint(rf) - f) / sr.norm(f))
    _report(7, "retained-direction norms and R*R identity", worst, 1e-6)


@pytest.fixture(scope="module")
def example1_pipeline():
    g = sr.make_grid(2**14, 400.0)
    model = sr.example1()
    nb = sr.build_N_basis(model, 16, "upper_poles", g)
    mb, tb = sr.build_M_and_T(model, nb)
    return g, model, nb, mb, tb


def test_criterion_08_example1_end_to_end(example1_pipeline):
    g, model, nb, mb, tb = example1_pipeline
    _report(8, "dim T at cutoff 1e-6", abs(tb.dim - 1), 0.5, tb.dim == 1)
    ec = sr.gamov_coefficients(ZETA, tb.working_dim)
    angle = np.arccos(min(1.0, np.linalg.norm(tb.coefs.conj().T @ (ec / np.linalg.norm(ec)))))
    _report(8, "subspace angle to 1/(lam - (1-i))", angle, 1e-2)
    e = sr.gamov(ZETA, 1.0, g)
    action = max(
        sr.norm(sr.restricted_apply(tb, e, t) - np.exp(-1j * t * ZETA) * e) / sr.norm(e)
        for t in (0.5, 1.0, 2.0)
    )
    _report(8, "restricted semigroup acts as exp(-it(1-i))", action, 1e-2)
    # the offset of the eigenvector's component in T, from its grid coefficients
    c = sr.mt_coefficients_grid(e, tb.working_dim)[:, 0]
    k0 = sr.generator_offset(tb.coefs @ (tb.coefs.conj().T @ c)).offset
    _report(8, "generator offset k0 = -1", abs(k0 + 1.0), 1e-3)


def test_criterion_09_kernel_orthogonality(example1_pipeline):
    g, model, nb, mb, tb = example1_pipeline
    worst = 0.0
    ec = sr.gamov_coefficients(ZETA, nb.working_dim)
    for i in range(mb.dim):
        worst = max(worst, abs(np.vdot(ec, mb.coefs[:, i])) / np.linalg.norm(ec))
    r1 = sr.RankOneModel(1.0)
    nb1 = sr.build_N_basis(r1, 24, "rim_poles", g)
    mb1, _ = sr.build_M_and_T(r1, nb1)
    ec1 = sr.gamov_coefficients(-2j, nb1.working_dim)
    for i in range(mb1.dim):
        worst = max(worst, abs(np.vdot(ec1, mb1.coefs[:, i])) / np.linalg.norm(ec1))
    _report(9, "normalized <e_zeta, S v> over the N bases", worst, 1e-3)


def test_criterion_10_resolvent_round_trip(example1_pipeline):
    g, model, nb, mb, tb = example1_pipeline
    e = sr.gamov(ZETA, 1.0, g)
    worst = 0.0
    for z in (0.5, 2.0, -3j):
        f = sr.resolve_B(tb, e, z, resonances=[ZETA])
        worst = max(worst, sr.resolvent_residual(tb, f, e, z))
    _report(10, "(B - z) f = g round trip at z in {0.5, 2, -3i}", worst, 1e-2)


def test_criterion_11_decay_law(example1_pipeline):
    g, model, nb, mb, tb = example1_pipeline
    e = sr.gamov(ZETA, 1.0, g)
    e = e * (1 / sr.norm(e))
    times = np.linspace(0, 3, 16)
    curve = sr.transition_curve(e, times, "decay", t_basis=tb, zeta=ZETA)
    ref = np.exp(-times * abs(ZETA.imag))
    rel = np.abs(np.abs(curve.overlaps) / sr.norm(e) ** 2 - ref) / ref
    _report(11, "survival amplitude tracks exp(-t |Im zeta|)", rel.max(), 1e-2)
    sq = (np.abs(curve.overlaps) / sr.norm(e) ** 2) ** 2
    rel2 = np.abs(sq - ref**2) / ref**2
    _report(11, "squared amplitude tracks exp(-2t |Im zeta|)", rel2.max(), 2e-2)


def test_criterion_12_square_well():
    well = sr.SquareWellModel(10.0, 1.0)
    closed = [np.sqrt(-zeta) for zeta, _ in well.constraint_poles()]

    def shoot(kap):
        return sr.jost_F_ode(1j * kap, 10.0, 1.0).real

    oracle = [brentq(shoot, 1.5, 3.0, xtol=1e-12)]
    bound_err = max(abs(c - o) for c, o in zip(closed, oracle))
    _report(12, "bound states: matching formula vs shooting oracle", bound_err, 1e-6)

    # the finder's sheet-2 zeros of the pole condition, as fourth-quadrant momenta
    found = sr.find_resonances(well, regions=[sr.ScanRegion(0.05, 200, -100, -0.01, sheet=2)])
    zeros = sorted((complex(sr.momentum(r.zeta, 2)) for r in found if r.kind == "resonance"),
                   key=abs)[:4]
    assert len(zeros) == 4
    worst = 0.0
    for k in zeros:
        z = complex(k)
        for _ in range(80):  # Newton on the independent ODE evaluation
            h = 1e-6 * max(1.0, abs(z))
            f0, f_plus, f_minus = sr.jost_F_ode(np.array([z, z + h, z - h]), 10.0, 1.0)
            step = f0 * 2 * h / (f_plus - f_minus)
            z -= step
            if abs(step) < 1e-12:
                break
        worst = max(worst, abs(z - k))
    _report(12, "four lowest fourth-quadrant zeros vs ODE oracle", worst, 1e-6)

    k_lo, k_hi = 0.05, max(z.real for z in zeros) + 0.8
    im_lo, im_hi = min(z.imag for z in zeros) - 0.5, -0.01
    w, _ = sr.winding_number(lambda k: sr.jost_F(k, 10.0, 1.0),
                             complex((k_lo + k_hi) / 2, (im_lo + im_hi) / 2),
                             (k_hi - k_lo) / 2, (im_hi - im_lo) / 2, n0=512)
    inside = [z for z in zeros if k_lo < z.real < k_hi and im_lo < z.imag < im_hi]
    _report(12, "argument-principle count equals refined zero count",
            abs(w - len(inside)), 0.5, w == len(inside))
