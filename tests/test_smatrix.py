"""Scattering-matrix models, trace-class machinery, and the Jost function."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import scatres as sr

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
    with pytest.raises(ValueError):
        sr.trace_T(data, 2.0)


def test_trace_boundary_jump_relation():
    data = sr.rankone_trace_data(1.0)
    jump = (sr.trace_T_boundary(data, 1.0, "+") - sr.trace_T_boundary(data, 1.0, "-"))[0, 0]
    assert abs(jump - (-1j)) < 1e-6  # -2 pi i |e(1)|^2 = -i
    with pytest.raises(ValueError):
        sr.trace_T_boundary(data, -1.0, "+")


def test_build_L_values_and_kernels():
    data = sr.rankone_trace_data(1.0)
    ell, smin = sr.build_L(data, -1.0, 1)
    assert abs(ell[0, 0] - 1.25) < 1e-8
    assert abs(smin - 1.25) < 1e-8
    _, smin = sr.build_L(data, -2j, 2)
    assert smin < 1e-8
    data2 = sr.rankone_trace_data(-2.0)
    _, smin = sr.build_L(data2, -(3 - 2 * SQ2), 1)
    assert smin < 1e-8


def test_build_L_sheet2_matches_closed_continuation():
    data = sr.rankone_trace_data(1.0)
    for z in (-1 - 2j, 0.7 - 0.4j, 2j, -3.0):
        ell, _ = sr.build_L(data, z, 2)
        closed = 1 - 1.0 * sr.rankone_resolvent_elem(z, 2)
        assert abs(ell[0, 0] - closed) < 1e-8 * max(1, abs(closed))


def test_L_inverse_bounded_off_poles():
    data = sr.rankone_trace_data(1.0)
    for z in (1 + 1j, -2 + 3j, 5 - 2j, -0.5 - 0.5j):
        _, smin = sr.build_L(data, z, 1)
        assert 1 / smin < 50.0


def test_kernel_unification_with_quadratic_formula():
    # zero set of the resolvent kernel across sheets = bound states + resonances
    for a in (0.5, 1.0, 4.0, -0.5, -2.0):
        model = sr.RankOneModel(a)
        data = model.trace_data()
        for k in model.eigen_momenta():
            z = complex(k**2)
            sheet = 1 if k.imag > 0 else 2
            _, smin = sr.build_L(data, z, sheet)
            assert smin < 1e-8


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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        at_node = sr.trace_T_boundary(data, nodes, "+")
    assert np.isfinite(at_node).all()
    # a node takes the mean of the one-sided limits of the interpolated data
    sides = [sr.trace_T_boundary(data, nodes * (1 + d), "+") for d in (1e-9, -1e-9)]
    assert np.abs(at_node - (sides[0] + sides[1]) / 2).max() < 1e-7


# Array contract: a batched call equals the loop of scalar calls.  Values are
# compared relative to max(|value|, 1), because the trace-class quadrature sums
# O(1) terms whose order differs between the two calls; at a pole of S both
# calls must be non-finite, so the division by zero there is not an error.
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
                            "ignore:invalid value:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(zs=st.lists(_OFF_AXIS, min_size=1, max_size=12))
def test_pole_condition_array_contract(zs):
    zs = np.array(zs)
    for model in _CONTRACT_MODELS:
        for sheet in range(1, model.sheet_count + 1):
            loop = [complex(model.pole_condition(z, sheet)) for z in zs]
            _assert_matches_loop(model.pole_condition(zs, sheet), loop)
            if not isinstance(model, sr.TraceClassModel):  # off-axis S needs closed forms
                _assert_matches_loop(model.eval(zs, sheet), [model.eval(z, sheet) for z in zs])


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
    zs = np.concatenate([zs, [1.5, 4.0]])  # points on [0, inf) take the boundary path
    ell, smin = sr.build_L(data, zs, sheet)
    loop = [sr.build_L(data, z, sheet) for z in zs]
    _assert_matches_loop(ell, [e for e, _ in loop])
    _assert_matches_loop(smin, [s for _, s in loop])


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
    for k in (0.8, 1 - 0.6j, 2.5j, -1.2 - 0.9j):
        closed = complex(sr.jost_F(k, 10.0, 1.0))
        ode = sr.jost_F_ode(k, 10.0, 1.0)
        assert abs(closed - ode) / abs(closed) < 1e-9


def test_jost_bound_states_vs_shooting_oracle():
    well = sr.SquareWellModel(10.0, 1.0)
    closed = well.bound_state_momenta()
    assert len(closed) == 1

    def shoot(kap):
        return sr.jost_F_ode(1j * kap, 10.0, 1.0).real

    oracle = brentq(shoot, 1.5, 3.0, xtol=1e-12)
    assert abs(closed[0] - oracle) < 1e-6


# Brent port: the same double as scipy's brentq on every bracket.  Each family
# is strictly monotone through its root r, so [r - left, r + right] brackets it.
_MONOTONE = [
    lambda c, d: lambda x: c * x + d * x**3,
    lambda c, d: lambda x: math.tanh(c * x) + d * x,
    lambda c, d: lambda x: math.expm1(c * x / (1 + abs(x))) + d * x,
    lambda c, d: lambda x: math.atan(c * x) * (1 + d),
]


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(_MONOTONE), c=st.floats(1e-2, 1e2), d=st.floats(0, 10),
       root=st.floats(-50, 50), left=st.floats(1e-6, 20), right=st.floats(1e-6, 20),
       sign=st.sampled_from([1, -1]), swap=st.booleans())
def test_brent_root_matches_scipy(family, c, d, root, left, right, sign, swap):
    g = family(c, d)

    def f(x):
        return sign * g(x - root)

    a, b = root - left, root + right
    if swap:
        a, b = b, a
    assert sr.smatrix._brent_root(f, a, b) == brentq(f, a, b, xtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(-2, 3), sign=st.sampled_from([1, -1]), sheet=st.sampled_from([1, 2]))
def test_brent_root_matches_scipy_on_rankone_rims(exponent, sign, sheet):
    model = sr.RankOneModel(sign * 10**exponent)
    extent = 2 * (1 + 10 ** (exponent / 2)) ** 2 + 8  # beyond every rim pole
    xs = np.linspace(-extent, -1e-9, 4001)
    vals = model.pole_condition(xs.astype(complex), sheet).real

    def f(x):
        return float(np.real(model.pole_condition(complex(x), sheet)))

    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    if sign < 0 and exponent > 0.1:  # a < -1 puts a zero on both rims
        assert brackets.size
    for i in brackets:
        assert sr.smatrix._brent_root(f, xs[i], xs[i + 1]) == brentq(f, xs[i], xs[i + 1], xtol=1e-14)


def test_brent_root_errors_match_scipy():
    def same_sign(x):
        return x * x + 1

    for solve in (sr.smatrix._brent_root, brentq):
        with pytest.raises(ValueError, match="different signs"):
            solve(same_sign, -1.0, 1.0)
        with pytest.raises(RuntimeError):
            solve(math.atan, -1.0, 3.0, maxiter=3)
    assert sr.smatrix._brent_root(math.atan, -1.0, 3.0) == brentq(math.atan, -1.0, 3.0, xtol=1e-14)


def test_sign_change_roots_takes_exact_zero_samples():
    xs = np.array([-2.0, -1.0, 0.0, 1.5, 3.0])
    roots = sr.smatrix._sign_change_roots(lambda x: x * x - 2.25, xs, xs * xs - 2.25)
    assert roots == [-1.5, 1.5]


def test_squarewell_unitarity_and_validation():
    well = sr.SquareWellModel(10.0, 1.0)
    lams = np.logspace(-3, 3, 200)
    s = well.boundary(lams, "+")[:, 0, 0]
    assert np.abs(np.abs(s) - 1).max() < 1e-12
    with pytest.raises(ValueError):
        sr.SquareWellModel(-1.0, 1.0)


def test_model_from_spec():
    assert sr.model_from_spec({"model": "example1"}).sheet_count == 1
    assert sr.model_from_spec({"model": "rankone", "a": 1.0}).sheet_count == 2
    assert sr.model_from_spec('{"model": "squarewell", "v0": 10, "radius": 1}').name.startswith("squarewell")
    assert sr.model_from_spec({"model": "rational", "poles": [[0, 1], [1, -1]]}).dim_k == 1
    with pytest.raises(ValueError):
        sr.model_from_spec({"model": "rankone", "a": 0.0})
    with pytest.raises(ValueError):
        sr.model_from_spec({"model": "unknown"})
    with pytest.raises(ValueError):
        sr.model_from_spec({"no_model": 1})


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


def test_trace_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.5,0,0.5,0\n")
    with pytest.raises(ValueError):
        sr.load_trace_csv(path)
