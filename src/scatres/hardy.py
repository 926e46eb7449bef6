"""Uniform grid on the real line, unitary Fourier transform, half-line and
Hardy-class projections, Cauchy evaluation off the axis, and the rational
orthonormal basis of the upper Hardy class, sampled once per grid.

The Fourier convention is ``(Ff)(lam) = (2*pi)**-0.5 * int e^{-i*lam*x} f(x) dx``,
so boundary functions of the upper half plane have inverse transforms supported
on the negative half axis.  Functions that decay like ``1/lam`` have x-images
that jump at ``x = 0``, so the masked Hardy projection is an exact projector
but not value-accurate on them; :func:`cauchy_eval` adds the closed-form
integral of a fitted ``A/lam + B/lam^2`` tail beyond the window.  Accurate
work in the Hardy class runs on the coefficients of the rational basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
    "grid_function",
    "fourier",
    "project_half_line",
    "project_hardy",
    "cauchy_eval",
    "inner",
    "norm",
    "mt_basis",
    "mt_expand",
    "mt_coefficients_grid",
    "mt_synthesize",
    "mt_point_eval",
]


_DUAL_MEMO: dict = {}


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid: ``n_points`` samples at ``x_j = -L + j*spacing``."""

    n_points: int
    half_extent: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.n_points

    def points(self) -> np.ndarray:
        return -self.half_extent + self.spacing * np.arange(self.n_points)

    def dual(self) -> "Grid":
        """Frequency grid of the phased FFT; an exact involution."""
        d = _DUAL_MEMO.get(self)
        if d is None:
            d = Grid(self.n_points, np.pi * self.n_points / (2.0 * self.half_extent))
            _DUAL_MEMO[self] = d
            _DUAL_MEMO.setdefault(d, self)
        return d


def make_grid(n_points: int, half_extent: float) -> Grid:
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise ValueError(f"n_points must be a power of two >= 2, got {n_points}")
    if not (half_extent > 0 and np.isfinite(half_extent)):
        raise ValueError(f"half_extent must be positive and finite, got {half_extent}")
    return Grid(int(n_points), float(half_extent))


@dataclass
class GridFunction:
    """Complex vector-valued samples on a :class:`Grid`; samples has shape (n, m)."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] != self.grid.n_points:
            raise ValueError(f"samples shape {s.shape} does not match grid")
        self.samples = s

    @property
    def dim_k(self) -> int:
        return self.samples.shape[1]

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.grid, self.samples - other.samples)

    def __mul__(self, c):
        return GridFunction(self.grid, self.samples * c)

    __rmul__ = __mul__

    def _check(self, other):
        if other.grid != self.grid or other.samples.shape != self.samples.shape:
            raise ValueError("grid/shape mismatch")


def grid_function(grid: Grid, values) -> GridFunction:
    return GridFunction(grid, np.asarray(values, dtype=complex))


def norm(f: GridFunction) -> float:
    return float(np.sqrt(f.grid.spacing * np.sum(np.abs(f.samples) ** 2)))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 pairing, antilinear in the first slot."""
    if f.grid != g.grid or f.samples.shape != g.samples.shape:
        raise ValueError("inner: grid or multiplicity mismatch")
    return complex(f.grid.spacing * np.sum(np.conj(f.samples) * g.samples))


# ---------------------------------------------------------------------------
# Fourier transform with explicit phase factors


def _phase(n: int, sign: int) -> complex:
    # exp(sign*i*pi*n/2) for integer n
    return (1j ** (sign * n % 4)) if n % 2 == 0 else np.exp(sign * 1j * np.pi * n / 2)


def fourier(f: GridFunction, direction: str = "forward") -> GridFunction:
    """Unitary discrete realization of the integral transform pair.

    ``forward`` treats the input as x-space and returns samples of
    ``(2*pi)**-0.5 * int e^{-i*lam*x} f(x) dx`` on the dual grid; ``inverse``
    uses the ``e^{+i*lam*x}`` kernel.  ``inverse(forward(f)) == f`` to machine
    precision and the map is exactly norm preserving.
    """
    g = f.grid
    n = g.n_points
    ph = ((-1.0) ** np.arange(n))[:, None]
    a = g.spacing
    if direction == "forward":
        out = a / np.sqrt(2 * np.pi) * _phase(n, -1) * ph * np.fft.fft(ph * f.samples, axis=0)
    elif direction == "inverse":
        out = a / np.sqrt(2 * np.pi) * _phase(n, +1) * ph * n * np.fft.ifft(ph * f.samples, axis=0)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return GridFunction(g.dual(), out)


def project_half_line(f: GridFunction, sign: str) -> GridFunction:
    """Multiply by the indicator of the chosen half axis; x = 0 belongs to '+'."""
    x = f.grid.points()
    if sign == "+":
        mask = x >= 0
    elif sign == "-":
        mask = x < 0
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return GridFunction(f.grid, np.where(mask[:, None], f.samples, 0))


# ---------------------------------------------------------------------------
# tail model of cauchy_eval


class _TailCache:
    """Per-grid least-squares fit of the ``1/lam`` tail over wide edge bands."""

    def __init__(self, grid: Grid):
        n, L = grid.n_points, grid.half_extent
        lam = grid.points()
        self.grid = grid
        self.lam = lam
        # wide symmetric fit bands, away from the outermost samples; the sorted
        # indices drop their repeats by a neighbour test (np.unique loads numpy.ma)
        band = np.linspace(max(1, n // 100), n // 5, 24).astype(int)
        band = band[np.r_[True, band[1:] != band[:-1]]]
        self.idx = np.r_[band, n - 1 - band]
        basis = np.stack(
            [np.ones(self.idx.size), L / lam[self.idx], (L / lam[self.idx]) ** 2], axis=1
        )
        self.pinv = np.linalg.pinv(basis)

    def fit(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit lam*f ~ c0 + c1*(L/lam) + c2*(L/lam)^2 per component."""
        L = self.grid.half_extent
        y = self.lam[self.idx, None] * samples[self.idx]
        c = self.pinv @ y
        return c[0], c[1] * L, c[2] * L**2  # coefficients of f ~ A/lam + B/lam^2 + C/lam^3


@lru_cache(maxsize=8)
def _tail_cache(grid: Grid) -> _TailCache:
    return _TailCache(grid)


def project_hardy(f: GridFunction, sign: str) -> GridFunction:
    """Hardy-class projection ``Q_pm = F P_mp F^{-1}`` by masking the x-image.

    Exactly idempotent, complementary and contractive, but the x-image of a
    function with a ``1/lam`` tail jumps at ``x = 0``, and the masked result
    is then off by about ``sqrt(spacing)`` relative to the continuum one.  Values of Hardy-class functions off the
    axis come from :func:`cauchy_eval`; the semigroups act on rational-basis
    coefficients (:mod:`scatres.semigroup`).
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    h = fourier(f, "inverse")
    h = project_half_line(h, "-" if sign == "+" else "+")
    return fourier(h, "forward")


def cauchy_eval(f: GridFunction, z: complex) -> np.ndarray:
    """Evaluate ``+-(2*pi*i)**-1 * int f(lam)/(lam - z) dlam`` for ``Im z != 0``.

    Trapezoid quadrature over the grid plus the closed-form contribution of the
    fitted ``A/lam + B/lam^2`` tail beyond the window.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("cauchy_eval requires Im z != 0")
    tc = _tail_cache(f.grid)
    lam = tc.lam
    base = f.grid.spacing * np.sum(f.samples / (lam - z)[:, None], axis=0)
    A, B, _ = tc.fit(f.samples)
    L = f.grid.half_extent
    w = z / L
    lg = np.log(1 + w) - np.log(1 - w)
    i1 = lg / z
    i2 = lg / z**2 - 2 / (z * L)
    sign = 1.0 if z.imag > 0 else -1.0
    return sign / (2j * np.pi) * (base + A * i1 + B * i2)


# ---------------------------------------------------------------------------
# rational orthonormal basis of the upper Hardy class:
#     phi_j(lam) = pi**-0.5 (lam - i)^j / (lam + i)^(j+1)


def _phi_samples(lam: np.ndarray, count: int) -> np.ndarray:
    t = (lam - 1j) / (lam + 1j)
    out = np.empty((lam.size, count), dtype=complex, order="F")
    cur = 1.0 / (np.sqrt(np.pi) * (lam + 1j))
    for j in range(count):
        out[:, j] = cur
        cur = cur * t
    return out


@lru_cache(maxsize=8)
def _phi_store(grid: Grid) -> list:
    """The grid's widest basis samples so far, and its Gram rows by count."""
    return [np.empty((grid.n_points, 0), dtype=complex, order="F"), {}]


def _phi_matrix(grid: Grid, count: int) -> np.ndarray:
    """First ``count`` basis columns: a read-only prefix of the grid's widest.

    A wider count replaces the store: the narrower one is released (to a
    fresh empty array, since a zero-width view would keep its buffer alive)
    before the wider one is sampled, so the two are never held together.
    """
    store = _phi_store(grid)
    if store[0].shape[1] < count:
        store[0] = np.empty((grid.n_points, 0), dtype=complex, order="F")
        store[0] = _phi_samples(grid.points(), count)
        store[0].flags.writeable = False
    return store[0] if store[0].shape[1] == count else store[0][:, :count]


def mt_basis(j: int, grid: Grid, m: int = 1, component: int = 0) -> GridFunction:
    """j-th rational basis element placed in the given multiplicity component."""
    if j < 0:
        raise ValueError("basis index must be non-negative")
    if not 0 <= component < m:
        raise ValueError("component out of range")
    col = _phi_matrix(grid, j + 1)[:, j]
    samples = np.zeros((grid.n_points, m), dtype=complex)
    samples[:, component] = col
    return GridFunction(grid, samples)


@lru_cache(maxsize=4)
def _circle_nodes(n_theta: int) -> np.ndarray:
    """Read-only nodes ``lam_k = -cot(theta_k/2)`` of the ``n_theta``-point offset circle
    ``theta_k = 2 pi (k + 1/2)/n_theta``, computed once per ``n_theta``."""
    theta = 2 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    lam = -1.0 / np.tan(theta / 2)
    lam.flags.writeable = False
    return lam


def mt_expand(fn, count: int, n_theta: int = 2**16) -> np.ndarray:
    """Basis coefficients of a callable ``fn(lam)`` by FFT on the circle.

    The change of variable ``lam = -cot(theta/2)`` maps the basis to the
    circle monomials, so coefficients are Fourier coefficients of
    ``sqrt(pi)*(lam+i)*fn(lam)``.  Exact (to machine precision) for rational
    functions with all poles at ``-i``; accuracy for general boundary data is
    set by its smoothness on the circle.
    """
    lam = _circle_nodes(n_theta)
    w = np.sqrt(np.pi) * (lam + 1j) * fn(lam)
    coef = np.fft.fft(w) / n_theta
    k = np.arange(count)
    return np.exp(-1j * np.pi * k / n_theta) * coef[:count]


def mt_coefficients_grid(f: GridFunction, count: int) -> np.ndarray:
    """Least-squares basis coefficients of f in the grid metric; shape (count, m).

    Solving with the basis Gram matrix makes extract-then-synthesize the exact
    identity on functions already in the span, so truncation projections are
    idempotent at machine precision.  As ``conj(phi_j) phi_k`` is
    ``t^(k-j)/(pi (1 + lam^2))`` with ``|t| = 1``, the Gram is Toeplitz.
    """
    phi = _phi_matrix(f.grid, count)
    # phi^H f as conj(phi^T conj(f)): only the n x m input is conjugated
    rhs = f.grid.spacing * (phi.T @ f.samples.conj()).conj()
    row = _gram_row(f.grid, count)
    return np.linalg.solve(_toeplitz(row.conj(), row), rhs)


def _gram_row(grid: Grid, count: int) -> np.ndarray:
    """First row ``h phi_0^H Phi`` of the basis Gram, formed once per grid and count; read-only.

    It is kept beside the basis samples, so it is evicted with them.  A wider
    store holds the same leading columns bit for bit, so a kept row never goes
    stale.
    """
    rows = _phi_store(grid)[1]
    if count not in rows:
        phi = _phi_matrix(grid, count)
        rows[count] = grid.spacing * (phi[:, 0].conj() @ phi)
        rows[count].flags.writeable = False
    return rows[count]


def _toeplitz(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Toeplitz matrix with first column ``col`` and first row ``row``, by one gather.

    Entry (i, k) is ``col[i - k]`` for i >= k and ``row[k - i]`` above the
    diagonal, so ``row[0]`` is ignored.  The dtype is that of ``col`` and
    ``row`` together, so extended precision stays.
    """
    vals = np.concatenate([col[::-1], row[1:]])
    return vals[np.arange(row.size) - np.arange(col.size)[:, None] + col.size - 1]


def mt_synthesize(coefs: np.ndarray, grid: Grid) -> GridFunction:
    """Sample ``sum_k coefs[k] * phi_k`` on the grid; coefs shape (D,) or (D, m)."""
    c = np.asarray(coefs, dtype=complex).reshape(len(coefs), -1)
    phi = _phi_matrix(grid, c.shape[0])
    return GridFunction(grid, phi @ c)


def mt_point_eval(coefs: np.ndarray, z: complex) -> np.ndarray:
    """Evaluate the rational combination at a complex point.

    For points off the closed upper half plane this is the meromorphic
    continuation of the truncated expansion.
    """
    c = np.asarray(coefs, dtype=complex).reshape(len(coefs), -1)
    z = complex(z)
    t = (z - 1j) / (z + 1j)
    powers = t ** np.arange(c.shape[0])
    return (powers @ c) / (np.sqrt(np.pi) * (z + 1j))
