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
    "build_L",
    "load_trace_csv",
    "MODEL_NAMES",
    "model_from_spec",
]

_RANKONE_K_MAX = 2000.0  # momentum cutoff of the rank-one quadrature
_ODE_STEPS = 4000  # RK4 steps of jost_F_ode across the well


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

    A model defines only ``pole_condition``, which takes a scalar or an array
    ``z`` and returns an array of shape ``z.shape``; the scattering matrix
    ``eval`` is derived from it, so scan grids, contours and boundary samples
    are evaluated in one call and ``S`` cannot disagree with its poles.  A
    model whose pole condition is a determinant also returns its matrix from
    ``condition_matrix``.
    """

    name: str = "abstract"
    dim_k: int = 1
    sheet_count: int = 1

    # -- required --------------------------------------------------------
    def pole_condition(self, z, sheet: int = 1):
        """Analytic function vanishing exactly at the poles of the sheet; shape ``z.shape``."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def condition_matrix(self, z, sheet: int = 1) -> np.ndarray:
        """Matrix whose determinant is the pole condition: here ``pole_condition``
        as 1x1, shape ``z.shape + (1, 1)``; trace-class models return ``L``."""
        if self.dim_k != 1:
            raise NotImplementedError("the scalar condition matrix is implemented for multiplicity one")
        return np.reshape(self.pole_condition(z, sheet), np.shape(z) + (1, 1))

    def eval(self, z, sheet: int = 1) -> np.ndarray:
        """Scattering matrix on the given sheet; shape ``z.shape + (1, 1)``.

        Two sheets: ``S = pole_condition(z, 3 - sheet) / pole_condition(z, sheet)``,
        the Jost ratio ``F(-k)/F(k)`` or the Birman-Krein ratio of ``det L``.
        One sheet: the pole condition is ``1/S``, so ``S`` is its reflection
        ``conj(pole_condition(conj z))``, which stays finite at the zeros of ``S``.
        """
        self._check_sheet(z, sheet)
        if self.dim_k != 1:
            raise NotImplementedError("S from the pole condition is implemented for multiplicity one")
        z = np.asarray(z, dtype=complex)
        if self.sheet_count == 1:
            s = np.conj(self.pole_condition(np.conj(z), 1))
        else:
            s = self.pole_condition(z, 3 - sheet) / self.pole_condition(z, sheet)
        return s.reshape(z.shape + (1, 1))

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

    def constraint_poles(self) -> list[tuple[complex, int]]:
        """Poles of ``S(lam + i0)`` continued into the closed upper half plane, as
        (position, order): the upper-half-plane poles of a one-sheet model, the
        upper-rim poles on the negative axis of a two-sheet model."""
        return []

    def scale(self) -> float:
        """Coupling strength that sets how far the default pole scan reaches; 0 for the fixed reach."""
        return 0.0


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

    def pole_condition(self, z, sheet: int = 1):
        z = np.asarray(z, dtype=complex)
        s = np.ones_like(z)
        for p in self.poles:
            s = s * (z - p) / (z - np.conj(p))
        return s

    def constraint_poles(self):
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

    The pole condition is ``1 + a/(1 - ik)^2`` in the momentum ``k`` of the
    chosen sheet; eigenvalues and resonances solve ``(1 - ik)^2 + a = 0``, and
    the derived ``S`` equals ``1 - 4iak / ((1+ik)^2 (a + (1-ik)^2))``.
    """

    sheet_count = 2
    dim_k = 1

    def __init__(self, a: float):
        a = float(a)
        if a == 0 or not np.isfinite(a):
            raise ValueError(f"coupling a must be finite and nonzero, got {a}")
        self.a = a
        self.name = f"rankone(a={self.a:g})"

    def pole_condition(self, z, sheet: int = 1):
        return 1 - self.a * rankone_resolvent_elem(z, sheet)

    def scale(self):
        return abs(self.a)

    def eigen_momenta(self) -> list[complex]:
        """Both roots of ``(1 - ik)^2 + a = 0`` in the momentum plane."""
        root = np.sqrt(complex(-self.a))
        return [-1j * (1 - root), -1j * (1 + root)]

    def constraint_poles(self):
        # double pole of the form factor at z = -1 on every sheet's rim
        poles = [(-1.0, 2)]
        for k in self.eigen_momenta():
            if k.imag > 1e-14 and abs(k.real) < 1e-14:
                poles.append((-(k.imag ** 2), 1))
        return sorted(poles)


# ---------------------------------------------------------------------------
# real roots from sign changes


def _sign_change_roots(f, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """Real roots of the array function ``f`` from samples ``vals = f(xs)``, ascending.

    Each exact zero of ``vals`` is a root.  All sign-change brackets between
    adjacent samples are polished together, one call of ``f`` per step on every
    open bracket: Newton with the central-difference slope of
    :func:`scatres.finder.refine` from the secant point, until a step is below
    Brent's tolerance ``tol = 1e-14 + 4 eps |x|``.  A step that leaves its
    bracket bisects it, and so does a Newton step longer than half the Newton
    (or secant) step before it while the bracket is wider than ``2 tol``: next
    to a root of odd multiplicity the slope over ``x +- h`` is dominated by
    ``h`` and Newton creeps.  A Newton step right after a bisection does not
    count as converged.  A NaN value raises ``ValueError``, 100 steps without
    convergence ``RuntimeError``.
    """
    zero = np.flatnonzero(vals[:-1] == 0)
    idx = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    lo, hi, f_lo = xs[idx], xs[idx + 1], vals[idx]
    x = lo - f_lo * (hi - lo) / (vals[idx + 1] - f_lo)
    last = hi - lo  # each bracket's previous step, the secant's first; inf after a bisection
    live = np.arange(idx.size)
    for _ in range(100):
        if not live.size:
            break
        xl = x[live]
        h = 1e-7 * np.maximum(1.0, np.abs(xl))
        f0, f_plus, f_minus = np.reshape(f(np.concatenate([xl, xl + h, xl - h])), (3, -1))
        if np.isnan(f0).any():
            raise ValueError(f"the function value at x={xl[np.isnan(f0)][0]} is NaN; "
                             "solver cannot continue")
        keep_lo = np.sign(f0) == np.sign(f_lo[live])
        left, right = np.where(keep_lo, xl, lo[live]), np.where(keep_lo, hi[live], xl)
        lo[live], hi[live] = left, right
        f_lo[live] = np.where(keep_lo, f0, f_lo[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = xl - f0 * 2 * h / (f_plus - f_minus)
        tol = 1e-14 + 4 * np.finfo(float).eps * np.abs(xl)
        prev = last[live]
        fast = (np.abs(x_new - xl) <= prev / 2) | (right - left <= 2 * tol)
        newton = (x_new > left) & (x_new < right) & fast
        x_new = np.where(f0 == 0, xl, np.where(newton, x_new, (left + right) / 2))
        step = np.abs(x_new - xl)
        x[live], last[live] = x_new, np.where(newton, step, np.inf)
        live = live[(step >= tol) | (newton & (prev == np.inf))]
    if live.size:
        raise RuntimeError(f"root polishing failed to converge after 100 steps, values {x[live]}")
    roots = np.concatenate([xs[zero], x])
    return [float(r) for r in roots[np.argsort(np.concatenate([zero, idx]), kind="stable")]]


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


def jost_F_ode(k, v0: float, radius: float):
    """Independent Jost values from the regular solution, by ``_ODE_STEPS``-step RK4.

    Integrates ``u'' = (V - k^2) u`` from the origin with ``u(0)=0, u'(0)=1``
    and reads off ``e^{ika}(u'(a) - ik u(a))``.  Inside the well ``u'' = c u``
    with ``c = -(v0 + k^2)``, so one RK4 step is the matrix ``alpha I + beta A``
    of ``A = [[0, 1], [c, 0]]``; all ``k`` advance in one loop.  A scalar ``k``
    gives a Python complex, an array ``k`` an array of its shape.
    """
    k = np.asarray(k, dtype=complex)
    h = radius / _ODE_STEPS
    c = -(v0 + k * k)
    alpha = 1 + h * h * c / 2 + h**4 * c * c / 24
    beta = h * (1 + h * h * c / 6)
    u, up = np.zeros_like(k), np.ones_like(k)
    for _ in range(_ODE_STEPS):
        u, up = alpha * u + beta * up, beta * c * u + alpha * up
    out = np.exp(1j * k * radius) * (up - 1j * k * u)
    return complex(out) if out.ndim == 0 else out


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

    def pole_condition(self, z, sheet: int = 1):
        return jost_F(momentum(z, sheet), self.v0, self.radius)

    def bound_state_momenta(self) -> list[float]:
        """Zeros of the Jost function on the positive imaginary momentum axis."""
        def g(kap):
            return jost_F(1j * kap, self.v0, self.radius).real

        grid = np.linspace(1e-9, np.sqrt(self.v0) * (1 - 1e-12), 800)
        return _sign_change_roots(g, grid, g(grid))

    def constraint_poles(self):
        return [(-kap**2, 1) for kap in self.bound_state_momenta()]


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
    _cross: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.a_vals = np.asarray(self.a_vals, dtype=complex)
        self.b_vals = np.asarray(self.b_vals, dtype=complex)
        if self.a_vals.shape != self.b_vals.shape or self.a_vals.shape[0] != self.lam.size:
            raise ValueError("form factor arrays must share shape (Q, m, p)")
        # A(lam)* B(lam) on the grid, shape (Q, p, p); C order lets trace_T view it as float pairs
        self._cross = np.einsum("qmi,qmj->qij", np.conj(self.a_vals), self.b_vals, order="C")

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


def rankone_trace_data(a: float) -> TraceClassData:
    """Rank-one reduction: scalar form factors ``sqrt(2/pi) lam^{1/4}/(lam+1)``.

    Quadrature nodes come from geometric Gauss-Legendre panels in the momentum
    variable, which removes the square-root endpoint behaviour at zero energy.
    """
    if a == 0:
        raise ValueError("coupling a must be nonzero")
    k, wk = _gl_panels(0.0, _RANKONE_K_MAX)
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

    tail = abs(a) * (2 / np.pi) / (3 * _RANKONE_K_MAX**3)  # integral of |C| beyond the cutoff
    return TraceClassData(lam=lam, weights=w, a_vals=a_vals, b_vals=b_vals,
                          c_fun=c_fun, tail_bound=tail)


# cap on the complex entries of one (points x nodes) quadrature temporary
_BLOCK_ENTRIES = 2**16


def _cross_at(data: TraceClassData, z) -> np.ndarray:
    """``X(z) = A* B`` continued: ``c_fun(sqrt z)``, else the samples interpolated linearly at Re z."""
    if data.c_fun is not None:
        return data.c_fun(np.sqrt(z))
    mu = np.real(z)
    i = np.clip(np.searchsorted(data.lam, mu), 1, data.lam.size - 1)
    t = ((mu - data.lam[i - 1]) / (data.lam[i] - data.lam[i - 1]))[..., None, None]
    return (1 - t) * data._cross[i - 1] + t * data._cross[i]


def trace_T(data: TraceClassData, z) -> np.ndarray:
    """``T(z) = int X(lam) / (z - lam) dlam`` with ``X = A* B``; shape ``z.shape + (p, p)``.

    One quadrature, exact for any constant ``c``, with ``Lam = sum(weights)``
    the end of the range the weights integrate::

        T(z) = sum_q w_q (X_q - c) / (z - lam_q) + c log(z / (z - Lam))

    Where Re z > 0, next to the nodes, ``c = X(z)`` (``c_fun(sqrt z)``, or the
    samples interpolated at Re z) subtracts the singularity; elsewhere ``c = 0``.
    On the negative axis (the rims, either sign of the zero imaginary part) the
    kernel ``w_q / (x - lam_q)`` is real: it is formed in float64 and takes one
    real product against ``X_q`` viewed as interleaved real and imaginary parts.
    A real ``0 < mu < Lam`` is approached from above, ``T(mu + i0)``, unless its
    zero imaginary part is negative; a node ``lam_q == mu`` contributes its
    limit ``-w_q X'(mu)`` (central difference).  ``z = 0`` and a real
    ``z >= Lam`` raise ``ValueError``.  The sums are taken over blocks of ``z``
    whose temporaries hold at most ``_BLOCK_ENTRIES`` complex entries.  A tail
    estimate above 1e-10 warns.
    """
    z = np.asarray(z, dtype=complex)
    total = data.weights.sum()
    if np.any((z.imag == 0) & ((z.real == 0) | (z.real >= total))):
        raise ValueError(f"trace_T needs z off 0 and off [{total:g}, inf), the end of the quadrature range")
    zf = z.reshape(-1)
    q, p = data.lam.size, data.aux_dim
    cross = data._cross.reshape(q, p * p)
    out = np.empty((zf.size, p * p), dtype=complex)
    right = zf.real > 0
    plain = np.flatnonzero(~right & (zf.imag != 0))
    rim = np.flatnonzero(~right & (zf.imag == 0))
    step = max(1, _BLOCK_ENTRIES // (q * p * p))
    # every block of the call reuses one kernel buffer (and below one buffer for
    # X_q - c): a fresh temporary of this size per block is mapped and faulted anew
    kern_buf = np.empty((min(step, zf.size - rim.size), q), dtype=complex)
    real_buf = np.empty((min(step, rim.size), q))
    # off-axis rows take the complex kernel; rim rows a real kernel against X_q
    # as (re, im) pairs, shape (Q, 2 p^2)
    for idx, pts, buf, x, res in ((plain, zf, kern_buf, cross, out),
                                  (rim, zf.real, real_buf, cross.view(float), out.view(float))):
        for lo in range(0, idx.size, step):
            rows = idx[lo : lo + step]
            kern = np.subtract(pts[rows, None], data.lam, out=buf[: rows.size])
            np.divide(data.weights, kern, out=kern)
            res[rows] = kern @ x
    if right.any():
        zr = zf[right]
        c = _cross_at(data, zr).reshape(-1, p * p)
        sub = c * (np.log(zr) - np.log(zr - total))[:, None]
        node = np.minimum(np.searchsorted(data.lam, zr.real), q - 1)
        hit = (zr.imag == 0) & (data.lam[node] == zr.real)
        # each row takes (X_q - c), small where its kernel is large, and its own
        # product, so that a row's value does not depend on the batch
        diff_buf = np.empty((min(step, zr.size), q, p * p), dtype=complex)
        for lo in range(0, zr.size, step):
            kern = np.subtract(zr[lo : lo + step, None], data.lam, out=kern_buf[: min(step, zr.size - lo)])
            rows = np.flatnonzero(hit[lo : lo + step])
            kern[rows, node[lo + rows]] = np.inf  # a node hit adds its limit below
            np.divide(data.weights, kern, out=kern)
            diff = np.subtract(cross, c[lo : lo + step, None], out=diff_buf[: kern.shape[0]])
            sub[lo : lo + step] += (kern[:, None] @ diff)[:, 0]
        if hit.any():
            at, h = zr.real[hit], 1e-6 * zr.real[hit]
            slope = (_cross_at(data, at + h) - _cross_at(data, at - h)).reshape(-1, p * p) / (2 * h[:, None])
            sub[hit] -= data.weights[node[hit], None] * slope
        out[right] = sub
    if data.tail_bound and zf.size:
        dist = np.maximum(np.abs(zf - data.lam[-1]), 1.0)
        if np.any(data.tail_bound / dist > 1e-10):
            warnings.warn("trace_T tail estimate exceeds tolerance; enlarge the grid")
    return out.reshape(z.shape + (p, p))


def build_L(data: TraceClassData, z, sheet: int = 1) -> np.ndarray:
    """Resolvent-kernel matrix ``L`` on the chosen sheet; shape ``z.shape + (p, p)``.

    Sheet one is ``I - T(z)``; sheet two, its continuation across ``(0, inf)``,
    is ``I - T(z) + 2*pi*i*X(z)`` below the axis (a negative imaginary part,
    zero included) and ``I - T(z) - 2*pi*i*X(z)`` elsewhere, on the axis
    ``I - T(mu - i0)``.  Off the axis that needs the analytic continuation
    ``c_fun``.  ``z`` is a scalar or an array.  Poles are the zeros of ``det L``.
    """
    if sheet not in (1, 2):
        raise ValueError(f"sheet must be 1 or 2, got {sheet}")
    z = np.asarray(z, dtype=complex)
    if sheet == 2 and data.c_fun is None and np.any((z.imag != 0) | (z.real <= 0)):
        raise ValueError("sheet-two evaluation off (0, inf) needs an analytic form-factor continuation")
    ell = np.eye(data.aux_dim, dtype=complex) - trace_T(data, z)
    if sheet == 2:
        jump = np.where(np.signbit(z.imag), 2j * np.pi, -2j * np.pi)
        ell += jump[..., None, None] * _cross_at(data, z)
    return ell


class TraceClassModel(SMatrixModel):
    """Scattering matrix assembled from trace-class form-factor data.

    The pole condition is ``det L``, so the derived ``S`` is the ratio of the
    two sheets' determinants; on ``(0, inf)`` that is Birman-Krein,
    ``S(mu + i0) = det L(mu - i0) / det L(mu + i0)``, exact for multiplicity one
    by the matrix determinant lemma.  ``T`` is the singularity-subtracted
    quadrature of :func:`trace_T` on and off the axis; for the rank-one
    reduction ``det L`` is within 1e-9 of the closed form down to |Im z| = 1e-3.
    Off the axis sheet two needs the analytic form-factor continuation
    (``c_fun``) of the built-in reductions, so ``S`` of sampled data raises
    ``ValueError`` there.
    """

    sheet_count = 2

    def __init__(self, data: TraceClassData, name: str = "traceclass"):
        self.data = data
        self.dim_k = data.a_vals.shape[1]
        self.name = name

    def condition_matrix(self, z, sheet: int = 1):
        return build_L(self.data, z, sheet)

    def pole_condition(self, z, sheet: int = 1):
        return np.linalg.det(self.condition_matrix(z, sheet))

    def scale(self):
        # sum_q w_q ||X_q||_1: |a| for the rank-one reduction
        return float(self.data.weights @ np.linalg.norm(self.data._cross, "nuc", axis=(1, 2)))


# ---------------------------------------------------------------------------
# model construction and data files


def load_trace_csv(path) -> TraceClassData:
    """Read form factors from CSV with header ``lambda, re_a_i_j, im_a_i_j, re_b_i_j, im_b_i_j``.

    Raises ``ValueError`` for a file without data rows, a column name that is
    not of this form or repeats, an index that is not a non-negative integer,
    and a row whose cell count differs from the header's.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError("empty form-factor file")
    header = [h.strip().lower() for h in rows[0]]
    if header[0] not in ("lambda", "lam"):
        raise ValueError("first column must be the energy 'lambda' (header row mandatory)")
    if len(set(header)) != len(header):
        raise ValueError("form-factor column names must not repeat")
    columns = []
    for name in header[1:]:
        parts = name.split("_")
        if len(parts) != 4 or parts[0] not in ("re", "im") or parts[1] not in ("a", "b"):
            raise ValueError(f"unrecognized form-factor column {name!r}")
        if not (parts[2].isdecimal() and parts[3].isdecimal()):
            raise ValueError(f"form-factor column {name!r}: indices must be non-negative integers")
        columns.append((1 if parts[0] == "re" else 1j, parts[1], int(parts[2]), int(parts[3])))
    if len(rows) == 1:
        raise ValueError("form-factor file has no data rows")
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"row {n} has {len(row)} cells, the header {len(header)}")
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    lam = body[:, 0]
    if np.any(np.diff(lam) <= 0) or lam[0] < 0:
        raise ValueError("energies must be positive and strictly increasing")
    m = max(i for _, _, i, _ in columns) + 1
    p = max(j for _, _, _, j in columns) + 1
    a_vals = np.zeros((lam.size, m, p), dtype=complex)
    b_vals = np.zeros((lam.size, m, p), dtype=complex)
    for col, (unit, which, i, j) in enumerate(columns, start=1):
        target = a_vals if which == "a" else b_vals
        target[:, i, j] += body[:, col] * unit
    w = np.gradient(lam)
    w[0] /= 2  # trapezoid start; the whole last interval keeps every sample below sum(w)
    tail = float(np.linalg.norm(a_vals[-1]) * np.linalg.norm(b_vals[-1]))
    return TraceClassData(lam=lam, weights=w, a_vals=a_vals, b_vals=b_vals, tail_bound=tail)


MODEL_NAMES = ("example1", "rankone", "squarewell", "traceclass", "rational")


def model_from_spec(spec) -> SMatrixModel:
    """Build a model from a parsed description ``{"model": name, ...}``, a name of ``MODEL_NAMES``."""
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
