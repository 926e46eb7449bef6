"""Concrete scattering matrices with analytic continuation across the positive
half axis: a rational one-sheet family, the rank-one perturbation of the
half-line multiplication operator, the square-well model built from its Jost
function, and a generic trace-class construction driven by form factors.

Sheet convention: sheet 1 carries ``Im sqrt(z) > 0`` (momentum ``i*sqrt(-z)``),
sheet 2 its negation.  Real inputs are treated as approached from above, so
``eval(z, 1)`` on the negative axis is the upper rim and ``eval(z, 2)`` the
lower rim, while on the positive axis the two sheets give the two boundary
values of the physical scattering matrix.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "momentum",
    "SMatrixModel",
    "RationalModel",
    "example1",
    "RankOneModel",
    "SquareWellModel",
    "TraceClassModel",
    "rankone_resolvent_elem",
    "jost_F",
    "jost_F_ode",
    "TraceClassData",
    "rankone_trace_data",
    "trace_T",
    "trace_T_boundary",
    "build_L",
    "load_trace_csv",
    "model_from_spec",
]


def momentum(z, sheet: int):
    """Momentum ``k`` with ``z = k^2``; sheet 1 has Im k >= 0, sheet 2 the mirror.

    Real ``z`` is resolved as ``z + i0``: positive energies give the physical
    ``+sqrt(z)`` on sheet 1, negative energies the upper rim ``i*sqrt(|z|)``.
    """
    if sheet not in (1, 2):
        raise ValueError(f"sheet must be 1 or 2, got {sheet}")
    z = np.asarray(z, dtype=complex)
    k = 1j * np.sqrt(-z)
    return k if sheet == 1 else -k


class SMatrixModel:
    """Evaluation contract for a scattering matrix on labeled sheets.

    ``eval`` and ``pole_condition`` take a scalar or an array ``z`` and return
    arrays of shape ``z.shape + (m, m)`` and ``z.shape``, so that scan grids,
    contours and boundary samples are evaluated in one call.
    """

    name: str = "abstract"
    dim_k: int = 1
    sheet_count: int = 1

    # -- required --------------------------------------------------------
    def eval(self, z, sheet: int = 1) -> np.ndarray:
        """Scattering matrix on the given sheet; shape ``z.shape + (m, m)``."""
        raise NotImplementedError

    def pole_condition(self, z, sheet: int = 1):
        """Analytic function vanishing exactly at the poles of the sheet; shape ``z.shape``."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def _check_sheet(self, z, sheet: int):
        if sheet not in (1, 2) or sheet > self.sheet_count:
            raise ValueError(f"invalid sheet {sheet} for model {self.name}")
        if self.sheet_count == 2 and np.any(np.asarray(z) == 0):
            raise ValueError("z = 0 is the branch point")

    def boundary(self, lam, side: str = "+") -> np.ndarray:
        """Boundary values along the real axis; shape ``lam.shape + (m, m)``.

        Side '+' is the physical surface approached from above (sheet 1
        everywhere); side '-' is the approach from below (sheet 2 for
        two-sheeted models).  A sample landing exactly on the branch point is
        resolved by its bounded one-sided limit.
        """
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if self.sheet_count == 1:
            return self.eval(lam, 1)
        return self.eval(np.where(lam == 0.0, 1e-12, lam), 1 if side == "+" else 2)

    def eval_physical(self, z: complex) -> np.ndarray:
        """Value on the physical surface: sheet 1 for Im z >= 0, else sheet 2."""
        if self.sheet_count == 1:
            return self.eval(z, 1)
        return self.eval(z, 1 if complex(z).imag >= 0 else 2)

    def upper_half_poles(self) -> list[tuple[complex, int]]:
        """Poles of the physical surface in the open upper half plane."""
        return []

    def upper_rim_poles(self) -> list[tuple[float, int]]:
        """Poles on the negative axis approached from above, as (position, order)."""
        return []


# ---------------------------------------------------------------------------
# rational one-sheet family


class RationalModel(SMatrixModel):
    """Scalar product of factors ``(lam - conj(p))/(lam - p)``.

    Unitary on the real axis by construction, meromorphic on the plane with
    poles exactly at the given points; the single-sheet case of the theory.
    """

    sheet_count = 1
    dim_k = 1

    def __init__(self, poles, name: str = "rational"):
        poles = tuple(complex(p) for p in poles)
        if not all(np.isfinite(p) for p in poles):
            raise ValueError("poles must be finite")
        if any(p.imag == 0 for p in poles):
            raise ValueError("real poles would break unitarity of the rational family")
        self.poles = poles
        self.name = name

    def eval(self, z, sheet: int = 1):
        if sheet != 1:
            raise ValueError("rational models live on a single sheet")
        z = np.asarray(z, dtype=complex)
        s = np.ones_like(z)
        for p in self.poles:
            s = s * (z - np.conj(p)) / (z - p)
        return s.reshape(z.shape + (1, 1))

    def pole_condition(self, z, sheet: int = 1):
        z = np.asarray(z, dtype=complex)
        s = np.ones_like(z)
        for p in self.poles:
            s = s * (z - p) / (z - np.conj(p))
        return s

    def upper_half_poles(self):
        out: dict[complex, int] = {}
        for p in self.poles:
            if p.imag > 0:
                out[p] = out.get(p, 0) + 1
        return sorted(out.items(), key=lambda kv: (kv[0].real, kv[0].imag))


def example1() -> RationalModel:
    """The rank-one Friedrichs example on the whole line: poles at i and 1 - i."""
    return RationalModel((1j, 1 - 1j), name="example1")


# ---------------------------------------------------------------------------
# rank-one perturbation of the half-line multiplication operator


def rankone_resolvent_elem(z: complex, sheet: int = 1) -> complex:
    """Closed form of the form-factor resolvent element ``-1/(1 - i k)^2``."""
    if np.all(np.asarray(z) == 0):
        raise ValueError("z = 0 is the branch point")
    k = momentum(z, sheet)
    return -1 / (1 - 1j * k) ** 2


class RankOneModel(SMatrixModel):
    """Scalar two-sheeted model of a rank-one coupling with strength ``a``.

    The scattering matrix is ``1 - 4iak / ((1+ik)^2 (a + (1-ik)^2))`` in the
    momentum ``k`` of the chosen sheet; eigenvalues and resonances solve
    ``(1 - ik)^2 + a = 0``.
    """

    sheet_count = 2
    dim_k = 1

    def __init__(self, a: float):
        a = float(a)
        if a == 0 or not np.isfinite(a):
            raise ValueError(f"coupling a must be finite and nonzero, got {a}")
        self.a = a
        self.name = f"rankone(a={self.a:g})"

    def eval(self, z, sheet: int = 1):
        self._check_sheet(z, sheet)
        z = np.asarray(z, dtype=complex)
        k = momentum(z, sheet)
        a = self.a
        s = 1 - 4j * a * k / ((1 + 1j * k) ** 2 * (a + (1 - 1j * k) ** 2))
        return s.reshape(z.shape + (1, 1))

    def l_value(self, z, sheet: int = 1):
        return 1 - self.a * rankone_resolvent_elem(z, sheet)

    def pole_condition(self, z, sheet: int = 1):
        return self.l_value(z, sheet)

    def eigen_momenta(self) -> list[complex]:
        """Both roots of ``(1 - ik)^2 + a = 0`` in the momentum plane."""
        root = np.sqrt(complex(-self.a))
        return [-1j * (1 - root), -1j * (1 + root)]

    def upper_rim_poles(self):
        # double pole of the form factor at z = -1 on every sheet's rim
        poles = [(-1.0, 2)]
        for k in self.eigen_momenta():
            if k.imag > 1e-14 and abs(k.real) < 1e-14:
                poles.append((-(k.imag ** 2), 1))
        return sorted(poles)

    def trace_data(self) -> "TraceClassData":
        return rankone_trace_data(self.a)


# ---------------------------------------------------------------------------
# real roots from sign changes


def _brent_root(f, a: float, b: float, maxiter: int = 100) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    A step-for-step port of scipy's ``brentq.c`` (Brent 1973, ch. 4) with
    ``xtol = 1e-14`` and ``rtol = 4 eps``, so that it returns the same double.
    """
    xtol, rtol = 1e-14, 4 * np.finfo(float).eps
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def _sign_change_roots(f, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """Roots of the scalar ``f`` from real samples ``vals = f(xs)``.

    Each exact zero of ``vals`` is a root; each sign change between adjacent
    samples is a bracket polished by :func:`_brent_root`.
    """
    return [float(xs[i]) if vals[i] == 0 else _brent_root(f, xs[i], xs[i + 1])
            for i in np.flatnonzero((vals[:-1] == 0) | (vals[:-1] * vals[1:] < 0))]


# ---------------------------------------------------------------------------
# square well (zero angular momentum) via the Jost function


def jost_F(k, v0: float, radius: float):
    """Jost function of the well of depth v0 and radius ``radius``.

    Matching formula ``e^{ika} (cos(Ka) - (ik/K) sin(Ka))`` with
    ``K = sqrt(k^2 + v0)``; entire in ``k`` (only even powers of K enter) and
    equal to one for the free problem.
    """
    k = np.asarray(k, dtype=complex)
    ksq = k**2 + v0
    K = np.sqrt(ksq)
    Ka = K * radius
    small = np.abs(Ka) < 1e-6
    sin_over = np.where(small, radius * (1 - Ka**2 / 6), np.sin(np.where(small, 1, Ka)) / np.where(small, 1, K))
    return np.exp(1j * k * radius) * (np.cos(Ka) - 1j * k * sin_over)


def jost_F_ode(k: complex, v0: float, radius: float, n_steps: int = 4000) -> complex:
    """Independent Jost value from the regular solution, by fixed-step RK4.

    Integrates ``u'' = (V - k^2) u`` from the origin with ``u(0)=0, u'(0)=1``
    and reads off ``e^{ika}(u'(a) - ik u(a))``.
    """
    k = complex(k)
    h = radius / n_steps
    u, up = 0.0 + 0j, 1.0 + 0j
    c = -(v0 + k * k)  # u'' = c*u inside the well (V = -v0)

    def rhs(y):
        return np.array([y[1], c * y[0]])

    y = np.array([u, up])
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + h / 2 * k1)
        k3 = rhs(y + h / 2 * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return complex(np.exp(1j * k * radius) * (y[1] - 1j * k * y[0]))


class SquareWellModel(SMatrixModel):
    """Zero-angular-momentum scattering off an attractive well of compact support."""

    sheet_count = 2
    dim_k = 1

    def __init__(self, v0: float, radius: float):
        v0, radius = float(v0), float(radius)
        if not (0 < v0 < np.inf and 0 < radius < np.inf):
            raise ValueError(f"well depth and radius must be positive and finite, got {v0}, {radius}")
        self.v0 = v0
        self.radius = radius
        self.name = f"squarewell(v0={self.v0:g}, a={self.radius:g})"

    def eval(self, z, sheet: int = 1):
        self._check_sheet(z, sheet)
        z = np.asarray(z, dtype=complex)
        k = momentum(z, sheet)
        s = jost_F(-k, self.v0, self.radius) / jost_F(k, self.v0, self.radius)
        return s.reshape(z.shape + (1, 1))

    def pole_condition(self, z, sheet: int = 1):
        return jost_F(momentum(z, sheet), self.v0, self.radius)

    def bound_state_momenta(self) -> list[float]:
        """Zeros of the Jost function on the positive imaginary momentum axis."""
        kmax = np.sqrt(self.v0)

        def g(kap):
            return float(np.real(jost_F(1j * kap, self.v0, self.radius)))

        grid = np.linspace(1e-9, kmax * (1 - 1e-12), 800)
        return _sign_change_roots(g, grid, np.real(jost_F(1j * grid, self.v0, self.radius)))

    def upper_rim_poles(self):
        return [(-kap**2, 1) for kap in self.bound_state_momenta()]

    def upper_half_poles(self):
        return []


# ---------------------------------------------------------------------------
# trace-class construction: V = B A* with Hilbert-Schmidt form factors


@dataclass
class TraceClassData:
    """Sampled form factors on a positive-axis quadrature grid.

    ``a_vals``/``b_vals`` have shape (Q, m, p) with m the multiplicity and p the
    auxiliary dimension; ``weights`` are the quadrature weights attached to
    ``lam``.  ``c_fun(k)``, when available, is the analytic continuation of
    ``A(lam)* B(lam)`` expressed in the momentum variable, used for sheet-two
    evaluation and accurate boundary values.
    """

    lam: np.ndarray
    weights: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    c_fun: object = None
    tail_bound: float = 0.0
    _cross: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.a_vals = np.asarray(self.a_vals, dtype=complex)
        self.b_vals = np.asarray(self.b_vals, dtype=complex)
        if self.a_vals.shape != self.b_vals.shape or self.a_vals.shape[0] != self.lam.size:
            raise ValueError("form factor arrays must share shape (Q, m, p)")
        # A(lam)* B(lam) on the grid, shape (Q, p, p)
        self._cross = np.einsum("qmi,qmj->qij", np.conj(self.a_vals), self.b_vals)

    @property
    def aux_dim(self) -> int:
        return self.a_vals.shape[2]


def _gl_panels(k_start: float, k_stop: float):
    """Gauss-Legendre panels of 16 nodes on a momentum interval, 0.05 wide, growing by 1.6."""
    xs, ws = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    lo, width = k_start, 0.05
    while lo < k_stop:
        hi = min(lo + width, k_stop)
        nodes.append((hi - lo) / 2 * xs + (hi + lo) / 2)
        weights.append((hi - lo) / 2 * ws)
        lo = hi
        width *= 1.6
    return np.concatenate(nodes), np.concatenate(weights)


def rankone_trace_data(a: float, k_max: float = 2000.0) -> TraceClassData:
    """Rank-one reduction: scalar form factors ``sqrt(2/pi) lam^{1/4}/(lam+1)``.

    Quadrature nodes come from geometric Gauss-Legendre panels in the momentum
    variable, which removes the square-root endpoint behaviour at zero energy.
    """
    if a == 0:
        raise ValueError("coupling a must be nonzero")
    k, wk = _gl_panels(0.0, k_max)
    lam = k**2
    w = 2 * k * wk
    e = np.sqrt(2 / np.pi) * lam**0.25 / (lam + 1)
    a_vals = e.reshape(-1, 1, 1).astype(complex)
    b_vals = (a * e).reshape(-1, 1, 1).astype(complex)

    def c_fun(kk):
        # continuation of A(lam)* B(lam) = a*(2/pi)*sqrt(lam)/(lam+1)^2
        kk = np.asarray(kk, dtype=complex)
        val = a * (2 / np.pi) * kk / (kk**2 + 1) ** 2
        return val.reshape(np.shape(kk) + (1, 1))

    tail = abs(a) * (2 / np.pi) / (3 * k_max**3)  # integral of |C| beyond the cutoff
    return TraceClassData(lam=lam, weights=w, a_vals=a_vals, b_vals=b_vals,
                          c_fun=c_fun, tail_bound=tail)


# cap on the complex entries of one (points x nodes) quadrature temporary
_BLOCK_ENTRIES = 2**16


def trace_T(data: TraceClassData, z) -> np.ndarray:
    """Quadrature of ``int A(lam)* B(lam) / (z - lam) dlam`` for z off the positive axis.

    ``z`` is a scalar or an array; the result has shape ``z.shape + (p, p)``.
    The quadrature is one ``(Z x Q) @ (Q x p^2)`` product against the sampled
    cross term, taken over blocks of ``z`` so that no temporary holds more than
    ``_BLOCK_ENTRIES`` complex entries.  A tail estimate above 1e-10 warns.
    """
    z = np.asarray(z, dtype=complex)
    if np.any((z.imag == 0) & (z.real >= 0)):
        raise ValueError("trace_T needs z off [0, inf); use trace_T_boundary for rims of R+")
    zf = z.reshape(-1)
    q, p = data.lam.size, data.aux_dim
    cross = data._cross.reshape(q, p * p)
    out = np.empty((zf.size, p * p), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // q)
    for lo in range(0, zf.size, step):
        kern = zf[lo : lo + step, None] - data.lam
        np.divide(data.weights, kern, out=kern)
        out[lo : lo + step] = kern @ cross
    if data.tail_bound and zf.size:
        dist = np.maximum(np.abs(zf - data.lam[-1]), 1.0)
        if np.any(data.tail_bound / dist > 1e-10):
            warnings.warn("trace_T tail estimate exceeds tolerance; enlarge the grid")
    return out.reshape(z.shape + (p, p))


def _jump_momentum(z) -> np.ndarray:
    """Branch of the momentum entering the continuation jump term.

    Continuation across the positive axis keeps the principal square root;
    negative real arguments are resolved on the lower rim (sheet two).
    """
    z = np.asarray(z, dtype=complex)
    return np.where((z.imag == 0) & (z.real < 0), -1j * np.sqrt(-z), np.sqrt(z))


def _cross_at(data: TraceClassData, mu: np.ndarray) -> np.ndarray:
    """``X(mu) = A(mu)* B(mu)``: ``c_fun(sqrt(mu))``, else the samples interpolated linearly."""
    if data.c_fun is not None:
        return data.c_fun(np.sqrt(mu))
    i = np.clip(np.searchsorted(data.lam, mu), 1, data.lam.size - 1)
    t = ((mu - data.lam[i - 1]) / (data.lam[i] - data.lam[i - 1]))[..., None, None]
    return (1 - t) * data._cross[i - 1] + t * data._cross[i]


def trace_T_boundary(data: TraceClassData, mu, side: str) -> np.ndarray:
    """Boundary values ``T(mu +/- i0)`` for ``0 < mu < Lam``; shape ``mu.shape + (p, p)``.

    One singularity subtraction for analytic and sampled data, with ``X = A* B``
    and ``Lam = sum(weights)``, the end of the range the weights integrate::

        T(mu +/- i0) = sum_q w_q (X_q - X(mu))/(mu - lam_q) + X(mu) log(mu/(Lam - mu)) -/+ i pi X(mu)

    A node ``lam_q == mu`` contributes its limit ``-w_q X'(mu)`` (central difference).
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    mu = np.asarray(mu, dtype=float)
    total = data.weights.sum()
    if np.any((mu <= 0) | (mu >= total)):
        raise ValueError(f"boundary values require 0 < mu < {total:g}, the end of the quadrature range")
    mf = mu.reshape(-1)
    q, p = data.lam.size, data.aux_dim
    cross = data._cross.reshape(q, p * p)
    x_mu = _cross_at(data, mf).reshape(-1, p * p)
    pv = x_mu * np.log(mf / (total - mf))[:, None]
    step = max(1, _BLOCK_ENTRIES // (q * p * p))
    for lo in range(0, mf.size, step):
        gap = mf[lo : lo + step, None] - data.lam
        kern = np.divide(data.weights, gap, out=np.zeros_like(gap), where=gap != 0)
        pv[lo : lo + step] += np.einsum("mq,mqk->mk", kern, cross - x_mu[lo : lo + step, None])
    node = np.minimum(np.searchsorted(data.lam, mf), q - 1)
    hit = data.lam[node] == mf
    if hit.any():
        at, h = mf[hit], 1e-6 * mf[hit]
        slope = (_cross_at(data, at + h) - _cross_at(data, at - h)).reshape(-1, p * p) / (2 * h[:, None])
        pv[hit] -= data.weights[node[hit], None] * slope
    jump = 1j * np.pi * x_mu
    return (pv - jump if side == "+" else pv + jump).reshape(mu.shape + (p, p))


def build_L(data: TraceClassData, z, sheet: int = 1):
    """Resolvent-kernel matrix ``L`` on the chosen sheet and its smallest singular value.

    Sheet one is ``I - T(z)`` on the cut plane; sheet two adds the continuation
    jump ``+2*pi*i*C(z)`` below the axis (validated against the rank-one closed
    form) and ``-2*pi*i*C(z)`` above it.  ``z`` is a scalar or an array: ``L``
    has shape ``z.shape + (p, p)`` and the singular values ``z.shape`` (a float
    for scalar ``z``).  Points on ``[0, inf)`` take ``trace_T_boundary``.
    """
    if sheet not in (1, 2):
        raise ValueError(f"sheet must be 1 or 2, got {sheet}")
    z = np.asarray(z, dtype=complex)
    zf = z.reshape(-1)
    p = data.aux_dim
    eye = np.eye(p, dtype=complex)
    ell = np.empty((zf.size, p, p), dtype=complex)
    on_axis = (zf.imag == 0) & (zf.real >= 0)
    off = zf[~on_axis]
    if off.size:
        if sheet == 2 and data.c_fun is None:
            raise ValueError("sheet-two evaluation needs an analytic form-factor continuation")
        ell_off = eye - trace_T(data, off)
        if sheet == 2:
            jump = np.where(off.imag <= 0, 2j * np.pi, -2j * np.pi)
            ell_off += jump[:, None, None] * data.c_fun(_jump_momentum(off))
        ell[~on_axis] = ell_off
    if on_axis.any():
        ell[on_axis] = eye - trace_T_boundary(data, zf[on_axis].real, "+" if sheet == 1 else "-")
    ell = ell.reshape(z.shape + (p, p))
    smin = np.linalg.svd(ell, compute_uv=False)[..., -1]
    return ell, (float(smin) if z.ndim == 0 else smin)


class TraceClassModel(SMatrixModel):
    """Scattering matrix assembled from trace-class form-factor data.

    ``S(mu + i0) = det L(mu - i0) / det L(mu + i0)`` on ``(0, inf)``: Birman-Krein,
    exact for multiplicity one by the matrix determinant lemma; sheet two gives
    the inverse.  Off the axis only ``L`` exists, and on sheet two it needs the
    analytic form-factor continuation (``c_fun``) of the built-in reductions.
    """

    sheet_count = 2

    def __init__(self, data: TraceClassData, name: str = "traceclass"):
        self.data = data
        self.dim_k = data.a_vals.shape[1]
        self.name = name

    def eval(self, z, sheet: int = 1):
        self._check_sheet(z, sheet)
        z = np.asarray(z, dtype=complex)
        if np.any((z.imag != 0) | (z.real <= 0)):
            raise NotImplementedError(
                "off-axis S values for trace-class data are defined through build_L; "
                "use the dedicated models for closed-form continuation"
            )
        if self.dim_k != 1:
            raise NotImplementedError("trace-class S is implemented for multiplicity one")
        s = self.pole_condition(z, 3 - sheet) / self.pole_condition(z, sheet)
        return s.reshape(z.shape + (1, 1))

    def pole_condition(self, z, sheet: int = 1):
        return np.linalg.det(build_L(self.data, z, sheet)[0])


# ---------------------------------------------------------------------------
# model construction and data files


def load_trace_csv(path) -> TraceClassData:
    """Read form factors from CSV with header ``lambda, re_a_i_j, im_a_i_j, re_b_i_j, im_b_i_j``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty form-factor file")
    header = [h.strip().lower() for h in rows[0]]
    if header[0] not in ("lambda", "lam"):
        raise ValueError("first column must be the energy 'lambda' (header row mandatory)")
    shape_ids = []
    for name in header[1:]:
        parts = name.split("_")
        if len(parts) != 4 or parts[0] not in ("re", "im") or parts[1] not in ("a", "b"):
            raise ValueError(f"unrecognized form-factor column {name!r}")
        shape_ids.append((int(parts[2]), int(parts[3])))
    m = max(i for i, _ in shape_ids) + 1
    p = max(j for _, j in shape_ids) + 1
    body = np.array([[float(v) for v in row] for row in rows[1:] if row])
    lam = body[:, 0]
    if np.any(np.diff(lam) <= 0) or lam[0] < 0:
        raise ValueError("energies must be positive and strictly increasing")
    a_vals = np.zeros((lam.size, m, p), dtype=complex)
    b_vals = np.zeros((lam.size, m, p), dtype=complex)
    for col, name in enumerate(header[1:], start=1):
        parts = name.split("_")
        i, j = int(parts[2]), int(parts[3])
        target = a_vals if parts[1] == "a" else b_vals
        target[:, i, j] += body[:, col] * (1 if parts[0] == "re" else 1j)
    w = np.gradient(lam)
    tail = float(np.linalg.norm(a_vals[-1]) * np.linalg.norm(b_vals[-1]))
    return TraceClassData(lam=lam, weights=w, a_vals=a_vals, b_vals=b_vals, tail_bound=tail)


def model_from_spec(spec) -> SMatrixModel:
    """Build a model from a parsed description ``{"model": name, ...}``."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "model" not in spec:
        raise ValueError("model description must be a mapping with a 'model' key")
    kind = spec["model"]
    if kind == "example1":
        return example1()
    if kind == "rankone":
        if "a" not in spec:
            raise ValueError("rankone needs the coupling 'a'")
        return RankOneModel(float(spec["a"]))
    if kind == "squarewell":
        if "v0" not in spec or "radius" not in spec:
            raise ValueError("squarewell needs 'v0' and 'radius'")
        return SquareWellModel(float(spec["v0"]), float(spec["radius"]))
    if kind == "traceclass":
        if "file" not in spec:
            raise ValueError("traceclass needs a form-factor 'file'")
        return TraceClassModel(load_trace_csv(spec["file"]))
    if kind == "rational":
        poles = [complex(p[0], p[1]) for p in spec.get("poles", [])]
        return RationalModel(poles)
    raise ValueError(f"unknown model {kind!r}")
