"""Scattering-matrix models, trace-class machinery, and the Jost function."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import scatres as sr
from conftest import count_trace_T

SQ2 = np.sqrt(2.0)


def test_momentum_branches():
    assert abs(sr.momentum(4.0, 1) - 2.0) < 1e-14          # physical boundary
    assert abs(sr.momentum(-4.0, 1) - 2j) < 1e-14          # upper rim
    assert abs(sr.momentum(-4.0, 2) + 2j) < 1e-14          # lower rim
    assert abs(sr.momentum(2j, 1) - (1 + 1j)) < 1e-14
    with pytest.raises(ValueError):
        sr.momentum(1.0, 3)


def test_example1_values():
    m = sr.example1()
    assert abs(m.eval(0.0)[0, 0] - (-1j)) < 1e-14
    assert abs(m.eval(1 + 1j)[0, 0]) < 1e-14              # zero at the conjugate of the pole
    lams = np.logspace(-3, 3, 200)
    s = m.boundary(lams, "+")[:, 0, 0]
    assert np.abs(np.abs(s) - 1).max() < 1e-12
    with pytest.raises(ValueError):
        m.eval(1.0, sheet=2)


def test_rational_model_validation():
    with pytest.raises(ValueError):
        sr.RationalModel([0.5])  # a real pole breaks unitarity


def test_rankone_scattering_values():
    m = sr.RankOneModel(1.0)
    assert abs(m.eval(1.0, 1)[0, 0] - (0.6 - 0.8j)) < 1e-14
    lams = np.logspace(-3, 3, 200)
    s = m.boundary(lams, "+")[:, 0, 0]
    assert np.abs(np.abs(s) - 1).max() < 1e-12
    # blow-up within 1e-7 of the sheet-two pole at -2i
    assert abs(m.eval(-2j + 1e-7, 2)[0, 0]) > 1e6
    with pytest.raises(ValueError):
        sr.RankOneModel(0.0)
    with pytest.raises(ValueError):
        m.eval(0.0, 1)


def test_rankone_resolvent_closed_form():
    assert abs(sr.rankone_resolvent_elem(-1.0, 1) - (-0.25)) < 1e-14
    with pytest.raises(ValueError):
        sr.rankone_resolvent_elem(0.0, 1)


def test_rankone_resolvent_quadrature_oracle():
    # independent oracle: adaptive quadrature of the spectral density
    dens = lambda lam: (2 / np.pi) * np.sqrt(lam) / (lam + 1) ** 2

    def oracle(z):
        re = quad(lambda l: (dens(l) / (z - l)).real if np.iscomplexobj(z) else dens(l) / (z - l),
                  0, np.inf, limit=400)[0]
        return re

    val = oracle(-1.0)
    assert abs(val - (-0.25)) < 1e-7
    # beta integral identity behind the exact point: int sqrt(l)/(1+l)^3 = pi/8
    beta = quad(lambda l: np.sqrt(l) / (1 + l) ** 3, 0, np.inf, limit=400)[0]
    assert abs(beta - np.pi / 8) < 1e-10


def test_gauss_legendre_table_is_leggauss():
    # the rank-one quadrature grid stays bit for bit that of the computed rule
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(sr.smatrix._GL_NODES, nodes)
    assert np.array_equal(sr.smatrix._GL_WEIGHTS, weights)


def test_rankone_boundary_value_vs_sokhotski_oracle():
    # S-side boundary value r(4 + i0) against PV quadrature with the jump split
    dens = lambda lam: (2 / np.pi) * np.sqrt(lam) / (lam + 1) ** 2
    mu = 4.0
    pv = -quad(dens, 0, 100.0, weight="cauchy", wvar=mu, limit=400)[0]
    pv += quad(lambda l: dens(l) / (mu - l), 100.0, np.inf, limit=400)[0]
    oracle = pv - 1j * np.pi * dens(mu)
    closed = sr.rankone_resolvent_elem(mu, 1)  # k = +2 boundary from above
    assert abs(oracle - closed) / abs(closed) < 1e-5


def test_trace_T_matches_closed_form():
    data = sr.rankone_trace_data(1.0)
    assert abs(sr.trace_T(data, -1.0)[0, 0] - (-0.25)) < 1e-8
    for z in (10j, 3 - 4j, -0.5 + 0.2j):
        closed = sr.rankone_resolvent_elem(z, 1)
        assert abs(sr.trace_T(data, z)[0, 0] - closed) / abs(closed) < 1e-6
    # a real point of the axis is approached from above
    closed = sr.rankone_resolvent_elem(2.0, 1)
    assert abs(sr.trace_T(data, 2.0)[0, 0] - closed) / abs(closed) < 1e-6
    for z in (0.0, data.weights.sum(), 1e7):  # the branch point, and beyond the quadrature range
        with pytest.raises(ValueError):
            sr.trace_T(data, z)


def test_trace_boundary_jump_relation():
    data = sr.rankone_trace_data(1.0)
    jump = (sr.build_L(data, 1.0, 2) - sr.build_L(data, 1.0, 1))[0, 0]
    assert abs(jump - (-1j)) < 1e-6  # T(1 + i0) - T(1 - i0) = -2 pi i |e(1)|^2 = -i
    below = sr.trace_T(data, complex(1.0, -0.0))  # a negative zero approaches from below
    assert abs((sr.trace_T(data, 1.0) - below)[0, 0] - (-1j)) < 1e-6
    with pytest.raises(ValueError):
        sr.trace_T(data, 0.0)


def _smin(ell):
    """Smallest singular value of each matrix in a stack."""
    return np.linalg.svd(ell, compute_uv=False)[..., -1]


def test_build_L_values_and_kernels():
    data = sr.rankone_trace_data(1.0)
    ell = sr.build_L(data, -1.0, 1)
    assert abs(ell[0, 0] - 1.25) < 1e-8
    assert abs(_smin(ell) - 1.25) < 1e-8
    assert _smin(sr.build_L(data, -2j, 2)) < 1e-8
    data2 = sr.rankone_trace_data(-2.0)
    assert _smin(sr.build_L(data2, -(3 - 2 * SQ2), 1)) < 1e-8


def test_build_L_sheet2_matches_closed_continuation():
    data = sr.rankone_trace_data(1.0)
    for z in (-1 - 2j, 0.7 - 0.4j, 2j, -3.0):
        ell = sr.build_L(data, z, 2)
        closed = 1 - 1.0 * sr.rankone_resolvent_elem(z, 2)
        assert abs(ell[0, 0] - closed) < 1e-8 * max(1, abs(closed))


def test_L_inverse_bounded_off_poles():
    data = sr.rankone_trace_data(1.0)
    for z in (1 + 1j, -2 + 3j, 5 - 2j, -0.5 - 0.5j):
        assert 1 / _smin(sr.build_L(data, z, 1)) < 50.0


def test_kernel_unification_with_quadratic_formula():
    # zero set of the resolvent kernel across sheets = bound states + resonances
    for a in (0.5, 1.0, 4.0, -0.5, -2.0):
        model = sr.RankOneModel(a)
        data = sr.rankone_trace_data(a)
        for k in model.eigen_momenta():
            z = complex(k**2)
            sheet = 1 if k.imag > 0 else 2
            assert _smin(sr.build_L(data, z, sheet)) < 1e-8


def test_traceclass_boundary_is_batched():
    m = sr.TraceClassModel(sr.rankone_trace_data(1.0))
    lams = np.array([1.0, 2.0, 3.0])
    for side, sheet in (("+", 1), ("-", 2)):
        s = m.boundary(lams, side)
        assert s.shape == (3, 1, 1)
        for i, lam in enumerate(lams):
            assert np.array_equal(s[i], m.eval(lam, sheet))


_COUPLING = st.tuples(st.floats(-2, 2), st.sampled_from([1.0, -1.0])).map(lambda t: t[1] * 10.0 ** t[0])


@settings(max_examples=40, deadline=None)
@given(a=_COUPLING, mu=st.floats(-3, 3).map(lambda e: 10.0**e))
def test_traceclass_boundary_matches_rankone(a, mu):
    # S = det L(mu - i0)/det L(mu + i0) from quadrature against the closed form
    model, closed = sr.TraceClassModel(sr.rankone_trace_data(a)), sr.RankOneModel(a)
    for side in ("+", "-"):
        s = model.boundary(mu, side)
        assert np.abs(s - closed.boundary(mu, side)).max() < 1e-7
        assert np.abs(np.abs(s) - 1).max() < 1e-7


def _momentum_grid_csv(path, a):
    """Rank-one form factors on the 4000-row grid k_j = 0.01 j (1 + j/1000), j = 1..4000."""
    j = np.arange(1, 4001)
    lam = (0.01 * j * (1 + j / 1000)) ** 2
    e = np.sqrt(2 / np.pi) * lam**0.25 / (lam + 1)
    rows = ["lambda,re_a_0_0,im_a_0_0,re_b_0_0,im_b_0_0"]
    rows += [f"{x!r},{v!r},0.0,{a * v!r},0.0" for x, v in zip(lam.tolist(), e.tolist())]
    path.write_text("\n".join(rows) + "\n")
    return sr.load_trace_csv(path)


@pytest.mark.parametrize("a", [1.0, -2.0])
def test_trace_csv_boundary_tracks_rankone(tmp_path, a):
    data = _momentum_grid_csv(tmp_path / "factors.csv", a)
    # mu >= 1e-2 keeps ten samples below mu to resolve the sqrt(lam) threshold;
    # at mu = 1e-3, with three samples below it, the error is 3.5e-3
    mus = np.logspace(-2, 2, 81)
    s = sr.TraceClassModel(data).boundary(mus, "+")
    assert np.abs(s - sr.RankOneModel(a).boundary(mus, "+")).max() < 3e-3
    nodes = data.lam[[0, 1, 2000, data.lam.size - 1]]
    # the last node lies within distance 1 of the last sample, where the tail
    # estimate |a_Q| |b_Q| (1.6e-7 at a = -2) exceeds 1e-10
    tail = "tail estimate exceeds tolerance"
    with pytest.warns(UserWarning, match=tail), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        at_node = sr.trace_T(data, nodes)
    with pytest.warns(UserWarning, match=tail), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(sr.build_L(data, nodes, 2)).all()
    assert np.isfinite(at_node).all()
    # a node takes the mean of the one-sided limits of the interpolated data
    with pytest.warns(UserWarning, match=tail):
        sides = [sr.trace_T(data, nodes * (1 + d)) for d in (1e-9, -1e-9)]
    assert np.abs(at_node - (sides[0] + sides[1]) / 2).max() < 1e-7


def test_trace_csv_weights_resolve_threshold(tmp_path):
    # the first sample sits near the threshold lam = 0, where a full-interval
    # weight doubles the trapezoid rule's and costs 1.7e-3 at mu = 1e-3
    data = _momentum_grid_csv(tmp_path / "factors.csv", -2.0)
    mus = np.array([1e-3, 1e-2, 0.1, 1.0, 10.0])
    s = sr.TraceClassModel(data).boundary(mus, "+")
    assert np.abs(s - sr.RankOneModel(-2.0).boundary(mus, "+")).max() < 1e-3


# Array contract: a batched call equals the loop of scalar calls.  Values are
# compared relative to max(|value|, 1), because the trace-class quadrature sums
# O(1) terms whose order differs between the two calls; at a pole of S both
# calls must be non-finite, so the division by zero there is not an error, nor
# the overflow at a draw 5e-324 from example1's pole i.
_CONTRACT_MODELS = [
    sr.example1(),
    sr.RankOneModel(1.0),
    sr.RankOneModel(-2.0),
    sr.SquareWellModel(10.0, 1.0),
    sr.TraceClassModel(sr.rankone_trace_data(1.0)),
]
_OFF_AXIS = st.tuples(st.floats(-8, 8), st.floats(0.05, 8), st.sampled_from([1, -1])).map(
    lambda t: complex(t[0], t[1] * t[2]))


def _assert_matches_loop(batch, loop):
    loop = np.asarray(loop)
    assert batch.shape == loop.shape
    finite = np.isfinite(loop)
    assert np.array_equal(np.isfinite(batch), finite)
    err = np.abs(batch - loop)[finite]
    assert np.all(err <= 1e-12 * np.maximum(np.abs(loop[finite]), 1.0))


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(zs=st.lists(_OFF_AXIS, min_size=1, max_size=12))
@example(zs=[5e-324 + 1j])
def test_pole_condition_array_contract(zs):
    zs = np.array(zs)
    for model in _CONTRACT_MODELS:
        for sheet in range(1, model.sheet_count + 1):
            loop = [complex(model.pole_condition(z, sheet)) for z in zs]
            _assert_matches_loop(model.pole_condition(zs, sheet), loop)
            # S of the trace-class model is left out: batched and looped det L differ
            # by about 1e-16, and the ratio amplifies that near a pole of S (at z = 2i
            # on sheet 2, |S| = 2e10 and the difference becomes 1e-6 relative)
            if not isinstance(model, sr.TraceClassModel):
                _assert_matches_loop(model.eval(zs, sheet), [model.eval(z, sheet) for z in zs])


def _rankone_closed_form(a, z, sheet):
    k = sr.momentum(z, sheet)
    return 1 - 4j * a * k / ((1 + 1j * k) ** 2 * (a + (1 - 1j * k) ** 2))


@settings(max_examples=60, deadline=None)
@given(exponent=st.floats(-1.5, 1.5), sign=st.sampled_from([1, -1]),
       zs=st.lists(_OFF_AXIS, min_size=1, max_size=8), sheet=st.sampled_from([1, 2]))
@example(exponent=0.0, sign=1, zs=[2j], sheet=2)  # the pole of S at a = 1
@example(exponent=0.0, sign=1, zs=[2.00001j], sheet=2)  # next to it
def test_rankone_eval_matches_closed_form(exponent, sign, zs, sheet):
    # the pole-condition ratio against the hand-derived rank-one S: non-finite
    # at the same points, and elsewhere equal to a tolerance scaled by the
    # conditioning of the shared denominator a + (1 - ik)^2
    a = sign * 10.0**exponent
    zs = np.array(zs)
    w = (1 - 1j * sr.momentum(zs, sheet)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = _rankone_closed_form(a, zs, sheet)
        cond = (abs(a) + np.abs(w)) / np.abs(a + w)
    pole = ~np.isfinite(closed)
    at_pole = "ignore" if pole.any() else "warn"  # warnings stay errors off the poles
    with np.errstate(divide=at_pole, invalid=at_pole):
        s = sr.RankOneModel(a).eval(zs, sheet)[:, 0, 0]
    assert np.array_equal(~np.isfinite(s), pole)
    s, closed, cond = s[~pole], closed[~pole], cond[~pole]
    assert np.all(np.abs(s - closed) <= 1e-12 * cond * np.maximum(np.abs(closed), 1.0))


# verify's traceT_vs_closed panel without z = -1, the double pole of the form
# factor where both pole conditions are infinite, plus points with Re z < 0
_TRACE_PANEL = np.array([10j, 3 - 4j, -0.5 + 0.2j, 40 - 60j, -3 - 2j, -2 + 1j, -5 - 0.5j, -0.3 - 3j])


@pytest.mark.parametrize("a", [-2.0, -0.5, 0.25, 1.0, 4.0, 12.0, 20.0])
def test_traceclass_eval_matches_rankone_off_axis(a):
    # skip the resonance a - 1 - 2i sqrt(a), where S is zero on one sheet and infinite on the other
    zs = _TRACE_PANEL[np.abs(_TRACE_PANEL - (a - 1 - 2j * np.sqrt(complex(a)))) > 1e-9]
    model, closed = sr.TraceClassModel(sr.rankone_trace_data(a)), sr.RankOneModel(a)
    for sheet in (1, 2):
        s, ref = model.eval(zs, sheet), closed.eval(zs, sheet)
        assert np.all(np.abs(s - ref) <= 1e-8 * np.abs(ref))


@pytest.mark.parametrize("a", [1.0, -2.0])
@pytest.mark.parametrize("sheet", [1, 2])
def test_traceclass_eval_takes_one_trace_T(monkeypatch, a, sheet):
    # both sheets' L come from one quadrature T, with the arithmetic of build_L on each sheet
    data = sr.rankone_trace_data(a)
    zs = np.concatenate([_TRACE_PANEL, [0.5, complex(2.0, 0.0), complex(2.0, -0.0), complex(7.5, -0.0)]])
    ref = np.linalg.det(sr.build_L(data, zs, 3 - sheet)) / np.linalg.det(sr.build_L(data, zs, sheet))
    calls = count_trace_T(monkeypatch)
    s = sr.TraceClassModel(data).eval(zs, sheet)
    assert calls == [zs.shape]
    assert np.array_equal(s[:, 0, 0], ref)
    assert np.array_equal(np.signbit(zs[8:].imag), [False, False, True, True])  # both sides of (0, inf)


_NEAR_AXIS = st.tuples(st.floats(0.05, 8), st.floats(-3, np.log10(5)), st.sampled_from([1, -1])).map(
    lambda t: complex(t[0], t[2] * 10.0 ** t[1]))


@settings(max_examples=40, deadline=None)
@given(a=_COUPLING, zs=st.lists(_NEAR_AXIS, min_size=1, max_size=8))
def test_traceclass_pole_condition_near_axis(a, zs):
    # close to (0, inf) the plain quadrature sum was off by up to 64 (relative)
    zs = np.array(zs)
    model, closed = sr.TraceClassModel(sr.rankone_trace_data(a)), sr.RankOneModel(a)
    for sheet in (1, 2):
        ref = closed.pole_condition(zs, sheet)
        err = np.abs(model.pole_condition(zs, sheet) - ref)
        assert np.all(err <= 1e-8 * np.maximum(np.abs(ref), 1.0))


@settings(max_examples=10, deadline=None)
@given(head=st.lists(_OFF_AXIS, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1),
       sheet=st.sampled_from([1, 2]))
def test_trace_T_build_L_span_blocks(head, seed, sheet):
    data = sr.rankone_trace_data(1.0)
    block = sr.smatrix._BLOCK_ENTRIES // data.lam.size
    rng = np.random.default_rng(seed)
    n = block + 1 + int(rng.integers(0, block))
    tail = rng.uniform(-8, 8, n) + 1j * rng.uniform(0.05, 8, n) * rng.choice([-1, 1], n)
    zs = np.concatenate([head, tail])
    _assert_matches_loop(sr.trace_T(data, zs), [sr.trace_T(data, z) for z in zs])
    zs = np.concatenate([zs, [1.5, 4.0]])  # points on (0, inf) give boundary values
    ell = sr.build_L(data, zs, sheet)
    loop = [sr.build_L(data, z, sheet) for z in zs]
    _assert_matches_loop(ell, loop)


def test_trace_T_real_axis_rows():
    # negative-axis rows take a real kernel; they equal the complex-kernel sum
    rng = np.random.default_rng(19)
    k, wk = sr.smatrix._gl_panels(0.0, 40.0)
    shape = (k.size, 2, 2)
    # Fortran-ordered form factors: the real product views A* B as float pairs
    a_vals, b_vals = (np.asfortranarray(rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(2))
    data = sr.TraceClassData(lam=k**2, weights=2 * k * wk, a_vals=a_vals, b_vals=b_vals)
    xs = -np.geomspace(1e-3, 50, 40)
    kern = (data.weights / (xs[:, None] - data.lam)).astype(complex)
    ref = (kern @ data._cross.reshape(k.size, 4)).reshape(-1, 2, 2)
    for zero in (0.0, -0.0):
        zs = xs.astype(complex)
        zs.imag = zero
        t = sr.trace_T(data, zs)
        assert np.all(np.abs(t - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))
    # a batch over more than one block mixes rim, off-axis and Re z > 0 rows
    block = sr.smatrix._BLOCK_ENTRIES // (k.size * 4)
    n = 3 * block
    zs = np.concatenate([
        -rng.uniform(1e-3, 50, n) + 0j,
        [complex(x, -0.0) for x in -rng.uniform(1e-3, 50, n)],
        rng.uniform(-8, 8, n) + 1j * rng.uniform(0.05, 8, n) * rng.choice([-1, 1], n),
        rng.uniform(0.1, 50, n) + 0j,
    ])
    zs = zs[rng.permutation(zs.size)]
    _assert_matches_loop(sr.trace_T(data, zs), [sr.trace_T(data, z) for z in zs])


# the rims R- +- i0 down to near the branch point; x = -1 is the form factor's
# double pole, where the sheet-two conditions are both infinite
_RIM = st.floats(-50, -1e-4).filter(lambda x: x != -1.0)


@settings(max_examples=40, deadline=None)
@given(a=_COUPLING, xs=st.lists(_RIM, min_size=1, max_size=16))
def test_traceclass_rims_match_rankone(a, xs):
    xs = np.array(xs, dtype=complex)
    model, closed = sr.TraceClassModel(sr.rankone_trace_data(a)), sr.RankOneModel(a)
    for sheet in (1, 2):
        ref = closed.pole_condition(xs, sheet)
        err = np.abs(model.pole_condition(xs, sheet) - ref)
        assert np.all(err <= 2e-8 * np.maximum(np.abs(ref), 1.0))


def test_two_sheet_boundary_relation():
    m = sr.RankOneModel(1.0)
    lneg = np.array([-0.4, -1.6, -3.2])
    up = m.boundary(lneg, "+")[:, 0, 0]
    dn = m.boundary(lneg, "-")[:, 0, 0]
    assert np.abs(1 / dn - np.conj(up)).max() < 1e-10


def test_scattering_bounded_on_large_arcs():
    m = sr.RankOneModel(1.0)
    sups = []
    for radius in (50.0, 100.0):
        arc = radius * np.exp(1j * np.linspace(0.05, np.pi - 0.05, 200))
        sups.append(np.abs(m.eval(arc, 1)[:, 0, 0]).max())
    assert sups[0] < 10 and sups[1] < 10
    assert abs(sups[1] - sups[0]) < 0.5  # stable under doubling the radius


def test_jost_free_limit():
    ks = np.array([0.5, 1 + 1j, -2j, 3.7])
    assert np.abs(sr.jost_F(ks, 0.0, 1.0) - 1.0).max() < 1e-12


def test_jost_reality_symmetry():
    ks = np.array([0.3 + 0.2j, 2 - 1j, -1 + 3j, 1.5 - 0.5j])
    lhs = np.conj(sr.jost_F(-np.conj(ks), 10.0, 1.0))
    assert np.abs(lhs - sr.jost_F(ks, 10.0, 1.0)).max() < 1e-12


def test_jost_matches_ode_oracle():
    ks = (0.8, 1 - 0.6j, 2.5j, -1.2 - 0.9j)
    for k in ks:
        closed = complex(sr.jost_F(k, 10.0, 1.0))
        ode = sr.jost_F_ode(k, 10.0, 1.0)
        assert isinstance(ode, complex)
        assert abs(closed - ode) / abs(closed) < 1e-9
    _assert_matches_loop(sr.jost_F_ode(np.reshape(ks, (2, 2)), 10.0, 1.0),
                         np.reshape([sr.jost_F_ode(k, 10.0, 1.0) for k in ks], (2, 2)))


def test_jost_bound_states_vs_shooting_oracle():
    well = sr.SquareWellModel(10.0, 1.0)
    closed = well.constraint_poles()
    assert len(closed) == 1 and closed[0][1] == 1

    def shoot(kap):
        return sr.jost_F_ode(1j * kap, 10.0, 1.0).real

    oracle = brentq(shoot, 1.5, 3.0, xtol=1e-12)
    assert abs(np.sqrt(-closed[0][0]) - oracle) < 1e-6


# Batched rim polishing: every bracket of one scan is polished together.
@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(-2, 3), sign=st.sampled_from([1, -1]), sheet=st.sampled_from([1, 2]))
def test_sign_change_roots_finds_rankone_rim_roots(exponent, sign, sheet):
    model = sr.RankOneModel(sign * 10**exponent)
    extent = 2 * (1 + 10 ** (exponent / 2)) ** 2 + 8  # beyond every rim pole
    found = sr.rim_scan(model, -extent, -1e-6, sheet)
    expected = sorted(zeta for zeta in ((k**2).real for k in model.eigen_momenta()
                                        if abs(k.real) < 1e-14 and (k.imag > 0) == (sheet == 1))
                      if -extent < zeta < -1e-6)
    assert len(found) == len(expected)
    if sign < 0 and exponent > 0.1:  # a < -1 puts a zero on both rims
        assert found
    for r, zeta in zip(found, expected):
        assert r.zeta.imag == 0 and abs(r.zeta.real - zeta) < 1e-12 * max(1.0, abs(zeta))


@settings(max_examples=12, deadline=None)
@given(v0=st.floats(0.5, 40), radius=st.floats(0.5, 2))
def test_sign_change_roots_finds_square_well_bound_states(v0, radius):
    kaps = sorted(np.sqrt(-zeta) for zeta, _ in sr.SquareWellModel(v0, radius).constraint_poles())
    grid = np.linspace(1e-9, np.sqrt(v0) * (1 - 1e-12), 400)
    shoot = sr.jost_F_ode(1j * grid, v0, radius).real
    brackets = np.flatnonzero(shoot[:-1] * shoot[1:] < 0)
    oracle = [brentq(lambda kap: sr.jost_F_ode(1j * kap, v0, radius).real, grid[i], grid[i + 1],
                     xtol=1e-13) for i in brackets]
    assert len(kaps) == len(oracle)
    assert all(abs(k - o) < 1e-9 for k, o in zip(kaps, oracle))


# Constraint poles come from the finder's sheet-1 rim scan; the oracles are closed forms.
@settings(max_examples=25, deadline=None)
@given(radius=st.floats(0.3, 3), depth=st.floats(0.05, 14))
def test_square_well_constraint_poles_are_its_bound_states(radius, depth):
    v0 = (depth / radius) ** 2  # depth = sqrt(v0) * radius
    poles = sr.SquareWellModel(v0, radius).constraint_poles()
    # an s-wave well binds one state per half-period (n - 1/2) pi below sqrt(v0) R
    assert len(poles) == sum(1 for n in range(1, 6) if (n - 0.5) * np.pi < depth)
    assert all(g == 1 for _, g in poles)
    kaps = np.sqrt(-np.array([zeta for zeta, _ in poles]))
    rim = sr.jost_F_ode(1j * np.concatenate([np.linspace(0, np.sqrt(v0), 33), kaps]), v0, radius)
    assert np.all(np.abs(rim[33:]) < 1e-8 * np.max(np.abs(rim[:33])))


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(-3, 6), sign=st.sampled_from([1, -1]))
@example(exponent=np.log10(1.5), sign=-1)
@example(exponent=np.log10(24.57), sign=-1)
@example(exponent=np.log10(3), sign=1)
def test_rankone_constraint_poles_match_eigen_momenta(exponent, sign):
    model = sr.RankOneModel(sign * 10**exponent)
    # upper-rim bound states of the closed form, down to the rim scan's end at -1e-9
    bound = [-(k.imag ** 2) for k in model.eigen_momenta() if k.imag > 0 and abs(k.real) < 1e-14]
    expected = sorted([(-1.0, 2)] + [(zeta, 1) for zeta in bound if zeta < -1e-9])
    poles = model.constraint_poles()
    assert [g for _, g in poles] == [g for _, g in expected]
    # the absolute floor is the polisher's stopping tolerance, for states next to threshold
    assert all(abs(z - e) <= 1e-12 * abs(e) + 1e-14 for (z, _), (e, _) in zip(poles, expected))


def test_sign_change_roots_rejects_nan():
    def f(x):
        return np.where(np.abs(x - 0.3) < 0.2, np.nan, x - 0.3)

    xs = np.array([-1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        sr.finder._sign_change_roots(f, xs, f(xs))


def test_sign_change_roots_takes_exact_zero_samples():
    xs = np.array([-2.0, -1.0, 0.0, 1.5, 3.0])
    roots = sr.finder._sign_change_roots(lambda x: x * x - 2.25, xs, xs * xs - 2.25)
    assert roots == [-1.5, 1.5]


@pytest.mark.parametrize("p", [3, 5, 9, 15])
def test_sign_change_roots_polishes_odd_multiplicities(p):
    # within h of the root the central-difference slope is O(h^(p-1)): Newton
    # creeps, and only bisection closes the bracket
    xs = np.linspace(-1, 1, 1001)
    roots = sr.finder._sign_change_roots(lambda x: (x - 0.1234567) ** p, xs, (xs - 0.1234567) ** p)
    assert len(roots) == 1 and abs(roots[0] - 0.1234567) < 1e-13



# 0-4 poles in either half plane, one of them sometimes repeated
_CIRCLE_POLES = st.lists(st.tuples(st.floats(-3, 3), st.floats(0.2, 3), st.booleans()),
                         max_size=4).map(lambda ps: [complex(re, im if up else -im) for re, im, up in ps])


@settings(max_examples=40, deadline=None)
@given(poles=_CIRCLE_POLES, repeat=st.booleans())
def test_rational_circle_coefficients_match_the_fft(poles, repeat):
    model = sr.RationalModel(poles + poles[:1] if repeat else poles)
    q = np.arange(-126, 64)
    exact = model.circle_coefficients(q, 2**16)
    fft = sr.SMatrixModel.circle_coefficients(model, q, 2**16)
    assert np.abs(exact - fft).max() <= 1e-13


def _extended_fft_coefficients(model, q, n_theta=2**16):
    """One ``np.clongdouble`` FFT of every offset-circle sample of S, with the half-sample phase."""
    theta = 2 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s_vals = model.boundary(-1.0 / np.tan(theta / 2), "+")[:, 0, 0]
    return (np.fft.fft(s_vals.astype(np.clongdouble), norm="forward")[q % n_theta]
            * np.exp(-1j * np.pi * q.astype(np.longdouble) / n_theta))


@settings(max_examples=30, deadline=None)
@given(model=st.tuples(st.floats(-2, 1.5), st.sampled_from([1.0, -1.0])).map(
           lambda t: sr.RankOneModel(t[1] * 10.0 ** t[0])),
       d=st.integers(1, 64))
# the largest spike set seen (1609 samples above 2^20, max|S| 1.1e305), and a
# weak well whose S·N is finite but whose norms overflow
@example(model=sr.SquareWellModel(36.46, 1.74), d=64)
@example(model=sr.SquareWellModel(36.46, 1.74), d=2)
@example(model=sr.SquareWellModel(0.2611561959275361, 1.2130020693182535), d=50)
def test_two_sheet_circle_coefficients_match_extended_fft(model, d):
    q = np.arange(-2 * (d - 1), d)
    dtypes = []
    fft = np.fft.fft

    def recording_fft(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return fft(a, *args, **kwargs)

    with mock.patch.object(np.fft, "fft", recording_fft):
        coefs = model.circle_coefficients(q, 2**16)
    # the bounded bulk takes one double FFT; the spikes are summed directly
    assert dtypes == [np.dtype(complex)]
    ref = _extended_fft_coefficients(model, q)
    assert np.abs(coefs - ref).max() <= 1e-13 * np.abs(ref).max()


def test_squarewell_unitarity_and_validation():
    well = sr.SquareWellModel(10.0, 1.0)
    lams = np.logspace(-3, 3, 200)
    s = well.boundary(lams, "+")[:, 0, 0]
    assert np.abs(np.abs(s) - 1).max() < 1e-12
    with pytest.raises(ValueError):
        sr.SquareWellModel(-1.0, 1.0)


# the per-sheet evaluation that both closed-form models replaced by one momentum
# per sample set: a square root and, for the well, K, cos(Ka) and sin(Ka)/K per sheet
def _per_sheet_momentum(z, sheet):
    k = 1j * np.sqrt(-np.asarray(z, dtype=complex))
    return k if sheet == 1 else -k


def _per_sheet_jost(k, v0, radius):
    k = np.asarray(k, dtype=complex)
    K = np.sqrt(k**2 + v0)
    Ka = K * radius
    small = np.abs(Ka) < 1e-6
    sin_over = np.where(small, radius * (1 - Ka**2 / 6), np.sin(np.where(small, 1, Ka)) / np.where(small, 1, K))
    return np.exp(1j * k * radius) * (np.cos(Ka) - 1j * k * sin_over)


def _per_sheet_condition(model, z, sheet):
    k = _per_sheet_momentum(z, sheet)
    if isinstance(model, sr.RankOneModel):
        return 1 - model.a * (-1 / (1 - 1j * k) ** 2)
    return _per_sheet_jost(k, model.v0, model.radius)


_CIRCLE_LAM = -1.0 / np.tan(np.pi * (np.arange(2**16) + 0.5) / 2**16)
# |k| up to 1e150: exp(+-ika), cos(Ka) and the products overflow to inf and NaN
_OVERFLOW_Z = np.array([-1e6, complex(-1e6, -0.0), 1e6j, -4e5 + 3e5j, 2e4 - 1e5j, 1e300, -1e300,
                        1e300j, complex(-3e4, -0.0), 5e3, complex(5e3, -0.0), -1e-300, 1e-300j])
_SIGNED_REALS = st.lists(st.tuples(st.floats(-60, 60).filter(lambda x: x != 0), st.booleans()),
                         min_size=1, max_size=40).map(
    lambda xs: np.array([complex(x, -0.0 if neg else 0.0) for x, neg in xs]))
_CLOSED_FORM_MODELS = st.one_of(
    st.tuples(st.floats(-3, 3), st.sampled_from([1, -1])).map(lambda t: sr.RankOneModel(t[1] * 10.0 ** t[0])),
    st.tuples(st.floats(0.01, 60), st.floats(0.1, 3)).map(lambda t: sr.SquareWellModel(*t)))


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(model=_CLOSED_FORM_MODELS, reals=_SIGNED_REALS, off=st.lists(_OFF_AXIS, min_size=1, max_size=12))
@example(model=sr.RankOneModel(1.99), reals=np.array([-1.0 + 0j, complex(-1.0, -0.0)]), off=[1j])
@example(model=sr.RankOneModel(-31.5), reals=np.array([4.0 + 0j, complex(4.0, -0.0)]), off=[2j])
@example(model=sr.SquareWellModel(14.0, 0.8), reals=np.array([-13.9 + 0j]), off=[-13.9 - 1e-9j])
@example(model=sr.SquareWellModel(0.3, 1.15), reals=np.array([complex(-0.2, -0.0)]), off=[0.5 - 2j])
def test_pole_conditions_share_one_momentum_bit_for_bit(model, reals, off):
    # sheet 2's momentum is the exact negation of sheet 1's, and (-k)**2 is k**2
    # bit for bit, so one momentum (and for the well one K) gives every sheet's
    # value exactly, inf and NaN included
    calls, inner = [], sr.smatrix.momentum

    def counted(z, sheet):
        calls.append(sheet)
        return inner(z, sheet)

    with mock.patch.object(sr.smatrix, "momentum", counted), np.errstate(all="ignore"):
        for z in (reals, np.array(off, dtype=complex), _CIRCLE_LAM.astype(complex), _OVERFLOW_Z):
            for sheets in ((1, 2), (2, 1), (1,), (2,)):
                del calls[:]
                got = model.pole_conditions(z, sheets)
                assert calls == [1]
                assert len(got) == len(sheets)
                for value, sheet in zip(got, sheets):
                    assert _same_bits(value, _per_sheet_condition(model, z, sheet))
            for sheet in (1, 2):
                assert _same_bits(model.pole_condition(z, sheet), _per_sheet_condition(model, z, sheet))
                # a scalar z takes numpy's scalar arithmetic where an array takes its loops
                for point in z[:3]:
                    assert _same_bits(model.pole_condition(complex(point), sheet),
                                      _per_sheet_condition(model, complex(point), sheet))
        assert _same_bits(sr.jost_F(_OVERFLOW_Z, 3.0, 1.5), _per_sheet_jost(_OVERFLOW_Z, 3.0, 1.5))


def test_branch_point_refusal_is_pointwise():
    # one zero among other points is the branch point; an empty array has none
    model = sr.RankOneModel(1.0)
    with pytest.raises(ValueError, match="branch point"):
        model.pole_condition(np.array([0j, 1 + 0j]), 1)
    with pytest.raises(ValueError, match="branch point"):
        model.pole_conditions(np.array([1 + 0j, 0j]), (1, 2))
    empty = np.array([], dtype=complex)
    assert model.pole_condition(empty, 1).shape == (0,)
    assert [v.shape for v in model.pole_conditions(empty, (1, 2))] == [(0,), (0,)]


# each model family owns the hook; the checked entries pole_conditions and
# pole_condition are SMatrixModel's alone
_HOOK_OWNERS = {sr.RationalModel: sr.RationalModel, sr.JostModel: sr.JostModel,
                sr.RankOneModel: sr.JostModel, sr.SquareWellModel: sr.JostModel,
                sr.TraceClassModel: sr.TraceClassModel}


def test_every_model_defines_only_the_one_hook():
    models = {cls for cls in vars(sr.smatrix).values()
              if isinstance(cls, type) and issubclass(cls, sr.SMatrixModel) and cls is not sr.SMatrixModel}
    assert models == set(_HOOK_OWNERS)
    for cls, owner in _HOOK_OWNERS.items():
        assert cls.pole_condition is sr.SMatrixModel.pole_condition
        assert cls.pole_conditions is sr.SMatrixModel.pole_conditions
        assert cls._pole_conditions is vars(owner)["_pole_conditions"]


_RNG = np.random.default_rng(35)
_HOOK_MODELS = [
    sr.example1(),
    sr.RationalModel(_RNG.uniform(-3, 3, 4) + 1j * _RNG.uniform(0.1, 2, 4) * _RNG.choice([1, -1], 4)),
    sr.RankOneModel(-2.0),
    sr.SquareWellModel(10.0, 1.0),
    sr.TraceClassModel(sr.rankone_trace_data(1.0)),
]

# every entry that takes a sheet; refine at 1 - i on sheet 2 of example1 once
# returned a sheet-2 resonance of a one-sheet model
_SHEET_ENTRIES = {
    "pole_condition": lambda model, sheet: model.pole_condition(np.array([-1.0 + 0j]), sheet),
    "pole_conditions": lambda model, sheet: model.pole_conditions(np.array([-1.0 + 0j]), (1, sheet)),
    "eval": lambda model, sheet: model.eval(1 - 1j, sheet),
    "condition_matrix": lambda model, sheet: model.condition_matrix(1 - 1j, sheet),
    "refine": lambda model, sheet: sr.refine(model, 1 - 1j, sheet=sheet),
    "rim_scan": lambda model, sheet: sr.rim_scan(model, -8.0, -1e-6, sheet),
    "scan_region": lambda model, sheet: sr.scan_region(model, sr.ScanRegion(0, 2, -2, -0.05, sheet=sheet)),
}


@pytest.mark.parametrize("model", _HOOK_MODELS)
def test_pole_conditions_refusals(model):
    # sheet 0, sheet_count + 1 (sheet 2 of a one-sheet model) and 3 through every entry
    for sheet in sorted({0, model.sheet_count + 1, 3}):
        for call in _SHEET_ENTRIES.values():
            with pytest.raises(ValueError, match=f"sheet must be one of .* got {sheet}"):
                call(model, sheet)
    if isinstance(model, sr.RankOneModel):
        for z in (0.0, np.zeros(3)):
            with pytest.raises(ValueError, match="branch point"):
                model.pole_conditions(z, (1, 2))


@pytest.mark.parametrize("model", _HOOK_MODELS, ids=lambda m: m.name)
def test_pole_condition_is_the_hook_on_one_sheet_bit_for_bit(model):
    rng = np.random.default_rng(36)
    off = rng.uniform(-6, 6, 8) + 1j * rng.uniform(-4, 4, 8)
    rims = np.array([-1.5 + 0j, complex(-1.5, -0.0), -0.25 + 0j, complex(-7.0, -0.0)])
    with np.errstate(all="ignore"):
        for sheet in range(1, model.sheet_count + 1):
            for z in (off, rims, off.reshape(2, 4), off[0], complex(rims[1])):
                assert _same_bits(model.pole_condition(z, sheet), model.pole_conditions(z, (sheet,))[0])


_DECADES = st.lists(st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1, 10), st.integers(-300, 300)),
                    max_size=40).map(lambda xs: np.array([s * m * 10.0**e for s, m, e in xs], dtype=float))
_EDGE_LAM = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-12, -1e-12, 1e300, -1e300])


@settings(max_examples=40, deadline=None)
@given(model=_CLOSED_FORM_MODELS, lam=_DECADES)
@example(model=sr.RankOneModel(1.0), lam=np.array([6.7e251, 1e-12, -4.0]))
@example(model=sr.SquareWellModel(36.46, 1.74), lam=np.array([], dtype=float))
def test_jost_boundary_matches_eval_bit_for_bit(model, lam):
    # one Jost value per positive energy, S = conj(F)/F, gives the sheet ratio
    # F(-k)/F(k) of eval exactly, signed zeros included; an empty half takes
    # no jost call, so an all-positive, all-negative or empty input works
    calls, inner = [], type(model).jost

    def counted(self, momenta):
        calls.append(len(momenta))
        return inner(self, momenta)

    for values in (lam, _EDGE_LAM, _CIRCLE_LAM, np.abs(lam), -np.abs(lam)):
        for side in ("+", "-"):
            del calls[:]
            with mock.patch.object(type(model), "jost", counted), np.errstate(all="ignore"):
                got = model.boundary(values, side)
            assert got.shape == values.shape + (1, 1)
            # a positive half takes one momentum a call (a second one only for
            # a zero part of F), a negative half one call with +-i kappa
            assert calls.count(2) == int(np.any(values < 0))
            assert (1 in calls) == bool(np.any(values >= 0))
            if values.size:
                with np.errstate(all="ignore"):
                    assert _same_bits(got, sr.SMatrixModel.boundary(model, values, side))
    with pytest.raises(ValueError, match="side must be"):
        model.boundary(lam, "0")


@settings(max_examples=60, deadline=None)
@given(model=_CLOSED_FORM_MODELS,
       ks=st.lists(st.floats(-50, 50).filter(lambda x: abs(x) >= 1e-6), min_size=1, max_size=20))
def test_jost_models_are_unitary_at_real_momenta(model, ks):
    # S(k) = F(-k)/F(k) from the Jost function alone: unimodular at real k,
    # S(k) S(-k) = 1, and the sheet-1 S at the energy k^2 (+ i0), whose momentum is |k|
    k = np.array(ks, dtype=complex)
    f_k, f_minus = model.jost([k, -k])
    s, s_minus = f_minus / f_k, f_k / f_minus
    assert np.abs(np.abs(s) - 1).max() < 1e-12
    assert np.abs(s * s_minus - 1).max() < 1e-12
    s_at_abs = np.where(k.real > 0, s, s_minus)
    assert np.abs(model.eval(k.real**2, 1)[:, 0, 0] - s_at_abs).max() < 1e-12


@pytest.mark.parametrize("spec, key", [
    ({"model": "rational", "poles": [[1]]}, "poles"),
    ({"model": "rational", "poles": [1, 2]}, "poles"),
    ({"model": "rational", "poles": 5}, "poles"),
    ({"model": "rational", "poles": [["a", "b"]]}, "poles"),
    ({"model": "rational", "poles": [[1, 0.5, 7]]}, "poles"),
    ({"model": "rational", "poles": [[True, 1]]}, "poles"),
    ({"model": "rational", "poles": {"re": 1}}, "poles"),
    ({"model": "rankone", "a": [1]}, "a"),
    ({"model": "rankone", "a": True}, "a"),
    ({"model": "rankone", "a": "2"}, "a"),
    ({"model": "squarewell", "v0": {}, "radius": 1}, "v0"),
    ({"model": "squarewell", "v0": 10, "radius": None}, "radius"),
    ({"model": "traceclass", "file": 5}, "file"),
])
def test_model_from_spec_refuses_malformed_values(spec, key):
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        sr.model_from_spec(spec)


def test_model_from_spec():
    assert sr.model_from_spec({"model": "example1"}).sheet_count == 1
    assert sr.model_from_spec({"model": "rankone", "a": 1.0}).sheet_count == 2
    assert sr.model_from_spec('{"model": "squarewell", "v0": 10, "radius": 1}').name.startswith("squarewell")
    assert sr.model_from_spec({"model": "rational", "poles": [[0, 1], [1, -1]]}).dim_k == 1
    for name in sr.smatrix.MODEL_NAMES:  # the names the CLI reads before file paths
        try:
            sr.model_from_spec({"model": name})
        except ValueError as exc:
            assert "unknown model" not in str(exc)
    with pytest.raises(ValueError):
        sr.model_from_spec({"model": "rankone", "a": 0.0})
    with pytest.raises(ValueError):
        sr.model_from_spec({"model": "unknown"})
    with pytest.raises(ValueError):
        sr.model_from_spec({"no_model": 1})
    # a key the named model does not take is refused, not ignored
    for spec, key in (({"model": "example1", "v0": 3.0}, "v0"),
                      ({"model": "squarewell", "v0": 10, "radius": 1, "a": 3.0}, "a"),
                      ({"model": "rankone", "a": 1.0, "radius": 1.0}, "radius"),
                      ({"model": "rational", "poles": [], "file": "f.csv"}, "file")):
        with pytest.raises(ValueError, match=f"model {spec['model']} takes no '{key}'"):
            sr.model_from_spec(spec)


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "factors.csv"
    lam = np.linspace(0.01, 50, 400)
    e = np.sqrt(2 / np.pi) * lam**0.25 / (lam + 1)
    rows = ["lambda,re_a_0_0,im_a_0_0,re_b_0_0,im_b_0_0"]
    for x, v in zip(lam, e):
        rows.append(f"{x},{v},0.0,{v},0.0")
    path.write_text("\n".join(rows) + "\n")
    data = sr.load_trace_csv(path)
    assert data.aux_dim == 1
    # coarse sampled quadrature still tracks the closed form away from the
    # axis, and the short grid is flagged through the tail estimate
    with pytest.warns(UserWarning, match="tail estimate"):
        val = sr.trace_T(data, -1.0)[0, 0]
    assert abs(val - (-0.25)) < 5e-3
    model = sr.model_from_spec({"model": "traceclass", "file": str(path)})
    assert model.dim_k == 1
    with pytest.raises(ValueError):
        sr.build_L(data, -2j, 2)  # no analytic continuation in sampled data
    # energies need only be non-negative: a first row at energy 0 loads
    zero = tmp_path / "zero.csv"
    zero.write_text("\n".join([rows[0], "0.0,0.0,0.0,0.0,0.0", *rows[1:]]) + "\n")
    assert sr.load_trace_csv(zero).lam[0] == 0.0


def test_trace_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.5,0,0.5,0\n")
    with pytest.raises(ValueError):
        sr.load_trace_csv(path)


_HEADER = "lambda,re_a_0_0,im_a_0_0,re_b_0_0,im_b_0_0\n"


@pytest.mark.parametrize("text, match", [
    (_HEADER, "no data rows"),
    ("lambda,re_a_-1_0,re_a_0_0,re_b_0_0\n0.1,1,1,1\n0.2,1,1,1\n", "non-negative integers"),
    ("lambda,re_a_0_0,re_a_0_0,re_b_0_0\n0.1,1,1,1\n0.2,1,1,1\n", "must not repeat"),
    (_HEADER + "0.1,1,0,1,0\n0.2,1,0,1\n", "row 3 has 4 cells"),
    (_HEADER + "0.1,1,0,1,0,7\n0.2,1,0,1,0,7\n", "row 2 has 6 cells"),
    (_HEADER + "-0.1,1,0,1,0\n0.2,1,0,1,0\n", "non-negative and strictly increasing"),
    (_HEADER + "0.2,1,0,1,0\n0.2,1,0,1,0\n", "non-negative and strictly increasing"),
], ids=["header_only", "negative_index", "repeated_column", "short_row", "long_rows",
        "negative_energy", "repeated_energy"])
def test_trace_csv_rejects_malformed(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        sr.load_trace_csv(path)
