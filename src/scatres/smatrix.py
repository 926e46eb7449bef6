"""Concrete scattering matrices with analytic continuation across the positive
half axis: a rational one-sheet family, the rank-one perturbation of the
half-line multiplication operator and the square well, both given by their
Jost functions, and a generic trace-class construction driven by form factors.

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

from .hardy import _circle_nodes

__all__ = [
    "momentum",
    "SMatrixModel",
    "RationalModel",
    "example1",
    "JostModel",
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
_SPIKE_BOUND = 2.0**20  # |S| above which a circle sample is summed in extended precision


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

    Every model evaluates on a scalar or an array ``z`` and returns an array
    of shape ``z.shape``, so scan grids, contours and boundary samples are
    evaluated in one call, and ``eval`` derives ``S`` from the poles, so the
    two cannot disagree.  One-sheet models and trace-class data define
    ``pole_condition``: ``1/S`` for a one-sheet model, ``det L`` for
    trace-class data, which also returns ``L`` from ``condition_matrix`` and
    takes one quadrature for all sheets in ``pole_conditions``.  The two-sheet
    closed forms are :class:`JostModel`s: they define the Jost function
    ``jost(momenta)`` and their declared rim poles, and ``S(k) = F(-k)/F(k)``.
    """

    name: str = "abstract"
    dim_k: int = 1
    sheet_count: int = 1

    # -- required --------------------------------------------------------
    def pole_condition(self, z, sheet: int = 1):
        """Analytic function vanishing exactly at the poles of the sheet; shape ``z.shape``."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def pole_conditions(self, z, sheets) -> list[np.ndarray]:
        """``pole_condition(z, sheet)`` for each of ``sheets`` in turn, as a list.

        Models whose sheets share most of their work override it to do that
        work once; the values stay those of ``pole_condition``.
        """
        return [self.pole_condition(z, sheet) for sheet in sheets]

    def condition_matrix(self, z, sheet: int = 1) -> np.ndarray:
        """Matrix whose determinant is the pole condition: here ``pole_condition``
        as 1x1, shape ``z.shape + (1, 1)``; trace-class models return ``L``."""
        if self.dim_k != 1:
            raise NotImplementedError("the scalar condition matrix is implemented for multiplicity one")
        return np.reshape(self.pole_condition(z, sheet), np.shape(z) + (1, 1))

    def eval(self, z, sheet: int = 1) -> np.ndarray:
        """Scattering matrix on the given sheet; shape ``z.shape + (1, 1)``.

        Two sheets: ``S = pole_condition(z, 3 - sheet) / pole_condition(z, sheet)``
        from one ``pole_conditions`` call, the Jost ratio ``F(-k)/F(k)`` or the
        Birman-Krein ratio of ``det L``.
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
            num, den = self.pole_conditions(z, (3 - sheet, sheet))
            s = num / den
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

    def circle_coefficients(self, q, n_theta: int) -> np.ndarray:
        """Circle coefficients ``s_q`` of ``S(lam + i0) = sum_q s_q t^q``, one per entry of ``q``.

        On the unit circle ``t = (lam - i)/(lam + i) = e^{i theta}``.  Here they
        come from the discrete Fourier sums of ``boundary(lam, '+')`` on the
        ``n_theta``-point offset circle ``theta_k = 2 pi (k + 1/2)/n_theta``,
        whose aliasing is anti-periodic.  Near rim poles ``|S|`` reaches 1e11
        on that circle (a square well's upper rim grows without bound), and an
        FFT's roundoff scales with ``eps`` times the norm of its input, so the
        samples are split at ``|S| = _SPIKE_BOUND`` (2^20): the bounded bulk
        takes one double FFT, and the samples above the bound (at most 652 for
        rank-one ``a = k/4``, |a| <= 10, and 1609 for a deep well) are summed
        directly in ``np.clongdouble`` for the requested ``q`` only
        (``_spike_sums``).  Every sample enters exactly one of the two sums.
        A sample that overflows would make every coefficient non-finite, so
        then all are NaN and neither sum is taken (extended-precision
        arithmetic on NaN is slow); the caller reports it.
        """
        q = np.asarray(q)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s_vals = self.boundary(_circle_nodes(n_theta), "+")[:, 0, 0]
            if not np.all(np.isfinite(s_vals)):
                return np.full(q.shape, np.nan, dtype=np.clongdouble)
            spikes = np.flatnonzero(np.abs(s_vals) > _SPIKE_BOUND)
            spike_vals = s_vals[spikes]
            s_vals[spikes] = 0.0  # boundary returns a fresh array
            coefs = np.fft.fft(s_vals, norm="forward")[q % n_theta].astype(np.clongdouble)
            if spikes.size and q.size:
                lo = q.min()
                coefs += _spike_sums(spike_vals, spikes, lo, q.max() - lo + 1, n_theta)[q - lo]
            return coefs * np.exp(-1j * np.pi * q.astype(np.longdouble) / n_theta)

    def constraint_poles(self) -> list[tuple[complex, int]]:
        """Poles of ``S(lam + i0)`` continued into the closed upper half plane, as
        (position, order): the upper-half-plane poles of a one-sheet model, the
        upper-rim poles on the negative axis of a two-sheet model."""
        return []

    def scale(self) -> float:
        """Coupling strength that sets how far the default pole scan reaches; 0 for the fixed reach."""
        return 0.0


def _spike_sums(values, k, q_lo: int, count: int, n_theta: int) -> np.ndarray:
    """``sum_j values_j e^{-2 pi i q k_j/n_theta}/n_theta`` for ``q = q_lo .. q_lo + count - 1``.

    Runs in ``np.clongdouble`` with one twiddle per sample, advanced by a
    running product from ``q`` to ``q + 1``, so memory stays O(len(k)).
    """
    two_pi_over_n = 8 * np.arctan(np.longdouble(1)) / n_theta
    step = np.exp(-1j * two_pi_over_n * k.astype(np.longdouble))
    terms = (values.astype(np.clongdouble) / n_theta
             * np.exp(-1j * two_pi_over_n * ((q_lo * k) % n_theta).astype(np.longdouble)))
    out = np.empty(count, dtype=np.clongdouble)
    for j in range(count):
        out[j] = terms.sum()
        terms *= step
    return out


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

    def circle_coefficients(self, q, n_theta: int) -> np.ndarray:
        """Exact circle coefficients ``s_q``: ``S`` is rational in ``t``, so it is sampled nowhere.

        In ``t`` a factor is ``((i - conj p) + (i + conj p) t)/((i - p) + (i + p) t)``,
        whose pole ``(p - i)/(p + i)`` lies inside the unit circle for Im p > 0
        and outside for Im p < 0.  With ``S = P/(Q_in Q_out)`` one square solve
        ``A Q_out + B Q_in = P`` (``deg A < deg Q_in``) splits
        ``S = A/Q_in + B/Q_out``.  The Taylor series of ``B/Q_out`` gives the
        ``s_q`` with q >= 0, that of ``A/Q_in`` in ``1/t`` those with q < 0;
        both are convergent geometric series, and repeated poles need no
        special case.  Near the unit circle a repeated pole makes large terms
        that cancel, so the algebra runs in extended precision: the solve in
        double with one refinement against the ``np.clongdouble`` residual.
        ``n_theta`` is unused.
        """
        q = np.asarray(q)
        poles = [np.clongdouble(p) for p in self.poles]
        upper = [(1j - p, 1j + p) for p in poles if p.imag > 0]
        lower = [(1j - p, 1j + p) for p in poles if p.imag < 0]
        num = _poly_in_t([(1j - np.conj(p), 1j + np.conj(p)) for p in poles])
        q_in, q_out = _poly_in_t(upper), _poly_in_t(lower)
        # columns: Q_out shifted by each power of A, then Q_in by each power of B
        j_in, size = len(upper), num.size
        system = np.zeros((size, size), dtype=np.clongdouble)
        for k in range(j_in):
            system[k:k + q_out.size, k] = q_out
        for k in range(size - j_in):
            system[k:k + q_in.size, j_in + k] = q_in
        ab = np.linalg.solve(system.astype(complex), num.astype(complex)).astype(np.clongdouble)
        ab += np.linalg.solve(system.astype(complex), (num - system @ ab).astype(complex))
        n_pos, n_neg = int(q.max(initial=0)) + 1, 1 - int(q.min(initial=0))
        pos = _taylor(ab[j_in:], lower, n_pos)
        # t^{-J_in} A(t) / (t^{-J_in} Q_in(t)) in u = 1/t: the factors a + b t become b + a u
        neg = _taylor(np.concatenate([[0], ab[:j_in][::-1]]), [(b, a) for a, b in upper], n_neg)
        return np.concatenate([neg[:0:-1], pos])[q + n_neg - 1]


def _poly_in_t(factors) -> np.ndarray:
    """``prod(a + b t)`` over the factors ``(a, b)``, increasing powers of t, in the factors' precision."""
    poly = np.ones(1, dtype=complex)
    for a, b in factors:
        poly = np.convolve(poly, [a, b])
    return poly


def _taylor(num: np.ndarray, factors, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients at 0 of ``num(t) / prod(a + b t)``, for ``|b| < |a|``.

    Each ``1/(a + b t)`` is the geometric series of ``-b/a`` over ``a``, taken
    by powers and convolved with the numerator, all in ``np.clongdouble``.
    """
    n = np.arange(count)
    out = np.zeros(count, dtype=np.clongdouble)
    out[:min(count, num.size)] = num[:count]
    for a, b in factors:
        out = np.convolve(out, (-b / a) ** n / a)[:count]
    return out


def example1() -> RationalModel:
    """The rank-one Friedrichs example on the whole line: poles at i and 1 - i."""
    return RationalModel((1j, 1 - 1j), name="example1")


# ---------------------------------------------------------------------------
# two-sheet models given by a Jost function of the momentum


class JostModel(SMatrixModel):
    """Two-sheet model given by its Jost function ``F(k)``, so ``S(k) = F(-k)/F(k)``.

    Sheet 1 takes the momentum ``k = momentum(z, 1)`` and sheet 2 its exact
    negation ``-k``, so one square root serves every sheet and the values are
    bit for bit those of one ``momentum`` call per sheet.  A model defines
    ``jost(momenta)``, the values of ``F`` at each of ``momenta`` (``k`` or
    ``-k`` for one ``k``); ``depth``, its bound states lying in
    ``[-depth, 0)``; and ``rim_poles``, the (position, order) poles of
    ``F(-k)`` on sheet 1's negative axis, which ``S`` has besides the zeros
    of ``F(k)``.
    """

    sheet_count = 2
    dim_k = 1
    rim_poles: tuple = ()
    depth: float

    def jost(self, momenta: list) -> list:
        """``F`` at each of ``momenta``, as a list."""
        raise NotImplementedError

    def pole_condition(self, z, sheet: int = 1):
        return self.pole_conditions(z, (sheet,))[0]

    def pole_conditions(self, z, sheets):
        for sheet in sheets:
            if sheet not in (1, 2):
                raise ValueError(f"sheet must be 1 or 2, got {sheet}")
        k = momentum(z, 1)
        return self.jost([k if sheet == 1 else -k for sheet in sheets])

    def boundary(self, lam, side: str = "+") -> np.ndarray:
        """Boundary values of :meth:`SMatrixModel.boundary`, bit for bit, from one Jost value per positive energy.

        For a real potential ``F(-k) = conj F(k)`` at real ``k``, so at
        ``lam > 0`` one ``jost`` call at the real root ``k = sqrt(lam)`` gives
        ``S = conj(F)/F`` on side '+' and ``F/conj(F)`` on side '-'.  Only
        where a part of ``F`` is zero, a signed zero the conjugate need not
        match, is ``F(-k)`` evaluated itself.  At ``lam < 0`` the momenta are
        ``+-i kappa`` with the real root ``kappa = sqrt(-lam)``, and ``S`` is
        ``F(-i kappa)/F(i kappa)`` on side '+' and its reciprocal on side '-'.
        ``lam = 0`` is read at ``1e-12``.  An empty half takes no ``jost`` call.
        """
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        lam = np.where(lam == 0.0, 1e-12, lam)
        out = np.empty(lam.shape, dtype=complex)
        pos = lam > 0
        if pos.any():
            k = np.sqrt(lam[pos]).astype(complex)
            (f,) = self.jost([k])
            f_minus = np.conj(f)
            signed = np.flatnonzero((f.real == 0) | (f.imag == 0))
            if signed.size:
                f_minus[signed] = self.jost([-k[signed]])[0]
            out[pos] = f_minus / f if side == "+" else f / f_minus
        neg = ~pos
        if neg.any():
            k = 1j * np.sqrt(-lam[neg])
            f_minus, f_plus = self.jost([-k, k])
            out[neg] = f_minus / f_plus if side == "+" else f_plus / f_minus
        return out.reshape(lam.shape + (1, 1))

    def constraint_poles(self):
        from .finder import rim_scan  # finder imports smatrix, so a module-level import would be circular

        bound = rim_scan(self, -self.depth, 0.0, 1)
        return sorted(list(self.rim_poles) + [(r.zeta.real, 1) for r in bound])


# ---------------------------------------------------------------------------
# rank-one perturbation of the half-line multiplication operator


def rankone_resolvent_elem(z: complex, sheet: int = 1) -> complex:
    """Closed form of the form-factor resolvent element ``-1/(1 - i k)^2``."""
    return _resolvent_elem(momentum(z, sheet))


def _resolvent_elem(k):
    """:func:`rankone_resolvent_elem` at the momentum ``k``; ``k = 0`` is ``z = 0`` and raises."""
    if np.all(k == 0):
        raise ValueError("z = 0 is the branch point")
    return -1 / (1 - 1j * k) ** 2


class RankOneModel(JostModel):
    """Scalar two-sheeted model of a rank-one coupling with strength ``a``.

    The Jost function is ``1 + a/(1 - ik)^2``; eigenvalues and resonances
    solve ``(1 - ik)^2 + a = 0``, and ``S`` equals
    ``1 - 4iak / ((1+ik)^2 (a + (1-ik)^2))``.  The form factor has a double
    pole at ``z = -1`` on every sheet's rim; bound states lie in ``[-|a|, 0)``.
    """

    rim_poles = ((-1.0, 2),)

    def __init__(self, a: float):
        a = float(a)
        if a == 0 or not np.isfinite(a):
            raise ValueError(f"coupling a must be finite and nonzero, got {a}")
        self.a = a
        self.depth = abs(a)
        self.name = f"rankone(a={self.a:g})"

    def jost(self, momenta):
        return [1 - self.a * _resolvent_elem(k) for k in momenta]

    def scale(self):
        return abs(self.a)

    def eigen_momenta(self) -> list[complex]:
        """Both roots of ``(1 - ik)^2 + a = 0`` in the momentum plane."""
        root = np.sqrt(complex(-self.a))
        return [-1j * (1 - root), -1j * (1 + root)]


# ---------------------------------------------------------------------------
# square well (zero angular momentum)


def jost_F(k, v0: float, radius: float):
    """Jost function of the well of depth v0 and radius ``radius``.

    Matching formula ``e^{ika} (cos(Ka) - (ik/K) sin(Ka))`` with
    ``K = sqrt(k^2 + v0)``; entire in ``k`` (only even powers of K enter) and
    equal to one for the free problem.
    """
    return _jost_at([k], v0, radius)[0]


def _jost_at(momenta: list, v0: float, radius: float) -> list:
    """:func:`jost_F` at each of ``momenta``, which are ``k`` or ``-k`` for one ``k``.

    ``K``, ``cos(Ka)`` and ``sin(Ka)/K`` are even in ``k`` (``(-k)**2`` is
    ``k**2`` bit for bit), so they are taken once; each momentum adds its
    ``e^{ika}`` and ``ik sin(Ka)/K``.
    """
    if not momenta:
        return []
    # arrays, also for a scalar k: the power of a numpy scalar can round differently
    momenta = [np.asarray(k, dtype=complex) for k in momenta]
    K = np.sqrt(momenta[0] ** 2 + v0)
    Ka = K * radius
    small = np.abs(Ka) < 1e-6
    sin_over = np.where(small, radius * (1 - Ka**2 / 6), np.sin(np.where(small, 1, Ka)) / np.where(small, 1, K))
    cos = np.cos(Ka)
    return [np.exp(1j * k * radius) * (cos - 1j * k * sin_over) for k in momenta]


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


class SquareWellModel(JostModel):
    """Zero-angular-momentum scattering off an attractive well of compact support.

    The Jost function is :func:`jost_F`; bound states lie in ``[-v0, 0)``.
    """

    def __init__(self, v0: float, radius: float):
        v0, radius = float(v0), float(radius)
        if not (0 < v0 < np.inf and 0 < radius < np.inf):
            raise ValueError(f"well depth and radius must be positive and finite, got {v0}, {radius}")
        self.v0 = v0
        self.radius = radius
        self.depth = v0
        self.name = f"squarewell(v0={self.v0:g}, a={self.radius:g})"

    def jost(self, momenta):
        return _jost_at(momenta, self.v0, self.radius)


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


# the 16-point Gauss-Legendre rule on [-1, 1], bit for bit that of
# np.polynomial.legendre.leggauss(16), which is symmetric; tabulated, so no call
# solves its eigenvalue problem and importing this module loads no numpy.polynomial
_GL_HALF_NODES = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                           0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                           0.9445750230732326, 0.9894009349916499])
_GL_HALF_WEIGHTS = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                             0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                             0.062253523938647456, 0.027152459411754176])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def _gl_panels(k_start: float, k_stop: float):
    """Gauss-Legendre panels of 16 nodes on a momentum interval, 0.05 wide, growing by 1.6."""
    nodes, weights = [], []
    lo, width = k_start, 0.05
    while lo < k_stop:
        hi = min(lo + width, k_stop)
        nodes.append((hi - lo) / 2 * _GL_NODES + (hi + lo) / 2)
        weights.append((hi - lo) / 2 * _GL_WEIGHTS)
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
    z = np.asarray(z, dtype=complex)
    _check_L_sheet(data, z, sheet)
    return _L_from_T(data, z, trace_T(data, z), sheet)


def _check_L_sheet(data: TraceClassData, z: np.ndarray, sheet: int) -> None:
    """``ValueError`` for a sheet other than 1 or 2, or sheet two off ``(0, inf)`` without ``c_fun``."""
    if sheet not in (1, 2):
        raise ValueError(f"sheet must be 1 or 2, got {sheet}")
    if sheet == 2 and data.c_fun is None and np.any((z.imag != 0) | (z.real <= 0)):
        raise ValueError("sheet-two evaluation off (0, inf) needs an analytic form-factor continuation")


def _L_from_T(data: TraceClassData, z: np.ndarray, t: np.ndarray, sheet: int) -> np.ndarray:
    """``L`` of :func:`build_L` on a checked sheet from ``t = trace_T(data, z)``, which is left unchanged."""
    ell = np.eye(data.aux_dim, dtype=complex) - t
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

    def pole_conditions(self, z, sheets):
        # the sheets' L differ only by the 2 pi i X jump, so one quadrature T serves them all
        z = np.asarray(z, dtype=complex)
        t = None
        dets = []
        for sheet in sheets:
            _check_L_sheet(self.data, z, sheet)
            if t is None:
                t = trace_T(self.data, z)
            dets.append(np.linalg.det(_L_from_T(self.data, z, t, sheet)))
        return dets

    def constraint_poles(self):
        # the empty list inherited from SMatrixModel would leave N unconstrained
        raise NotImplementedError(f"model {self.name}: the rim poles of form-factor data are not "
                                  "derived, so its N basis cannot be constrained")

    def scale(self):
        # sum_q w_q ||X_q||_1: |a| for the rank-one reduction
        return float(self.data.weights @ np.linalg.norm(self.data._cross, "nuc", axis=(1, 2)))


# ---------------------------------------------------------------------------
# model construction and data files


def load_trace_csv(path) -> TraceClassData:
    """Read form factors from CSV with header ``lambda, re_a_i_j, im_a_i_j, re_b_i_j, im_b_i_j``.

    Raises ``ValueError`` for a file without data rows, a column name that is
    not of this form or repeats, an index that is not a non-negative integer,
    a row whose cell count differs from the header's, and a cell that is not a
    finite number (named by its row and column).
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
    bad = np.argwhere(~np.isfinite(body))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"row {r + 2}, column {header[c]!r}: {rows[r + 1][c].strip()!r} is not a finite number")
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


def _is_number(value) -> bool:
    """A JSON number (or a numpy real), not a boolean, string, list or object."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _number(spec: dict, key: str) -> float:
    if not _is_number(spec[key]):
        raise ValueError(f"{key!r} must be a number, got {spec[key]!r}")
    return float(spec[key])


def model_from_spec(spec) -> SMatrixModel:
    """Build a model from a parsed description ``{"model": name, ...}``, a name of ``MODEL_NAMES``.

    ``a``, ``v0`` and ``radius`` must be numbers and each of ``poles`` a pair
    ``[re, im]`` of numbers; anything else is a ``ValueError`` naming the key.
    """
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
        return RankOneModel(_number(spec, "a"))
    if kind == "squarewell":
        if "v0" not in spec or "radius" not in spec:
            raise ValueError("squarewell needs 'v0' and 'radius'")
        return SquareWellModel(_number(spec, "v0"), _number(spec, "radius"))
    if kind == "traceclass":
        if "file" not in spec:
            raise ValueError("traceclass needs a form-factor 'file'")
        if not isinstance(spec["file"], str):
            raise ValueError(f"'file' must be a path string, got {spec['file']!r}")
        return TraceClassModel(load_trace_csv(spec["file"]))
    if kind == "rational":
        poles = spec.get("poles", [])
        pairs = isinstance(poles, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_number, p)) for p in poles)
        if not pairs:
            raise ValueError(f"'poles' must be a list of [re, im] pairs of numbers, got {poles!r}")
        return RationalModel([complex(p[0], p[1]) for p in poles])
    raise ValueError(f"unknown model {kind!r}")
