"""Shift semigroup on the upper Hardy class, its compressed adjoint (the
characteristic semigroup) and the generator's offset on rational-basis
coefficients, the polar-decomposition isometry onto the half line, and the
closed-form truncation matrices behind them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hardy import (
    Grid,
    GridFunction,
    _phi_matrix,
    _toeplitz,
    mt_coefficients_grid,
    mt_synthesize,
)

__all__ = [
    "apply_T",
    "apply_C",
    "GeneratorSample",
    "generator_offset",
    "IsometryPair",
    "build_polar_isometry",
    "transfer_apply",
    "semigroup_matrix",
    "generator_matrix",
]

_ISOMETRY_CUTOFF = 1e-8  # relative floor of the retained singular values


def _require_time(t: float) -> None:
    """Reject a time that is negative or not finite (NaN passes every ``t < 0``)."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"the semigroups need a finite time t >= 0, got {t}")


def apply_T(f: GridFunction, t: float) -> GridFunction:
    """Outgoing shift semigroup: multiplication by ``e^{i*t*lam}``, t >= 0."""
    _require_time(t)
    lam = f.grid.points()
    return GridFunction(f.grid, np.exp(1j * t * lam)[:, None] * f.samples)


def apply_C(coefs: np.ndarray, t: float) -> np.ndarray:
    """Characteristic semigroup on rational-basis coefficients, shape (D,) or (D, m).

    ``C(t)`` compresses multiplication by ``e^{-i*t*lam}`` back to the upper
    Hardy class; on the basis it is :func:`semigroup_matrix`, so the result is
    the coefficients of ``C(t) f`` in the same truncation.  Contractive, exact
    in the semigroup law, and exact on the eigenvectors ``k/(lam - zeta)`` up
    to their truncation tail ``|(zeta + i)/(zeta - i)|^D``.
    """
    c = np.asarray(coefs, dtype=complex)
    return semigroup_matrix(t, c.shape[0]) @ c


@dataclass
class GeneratorSample:
    """A point of the generator graph, in coefficients: image = lam*f + offset."""

    input: np.ndarray
    offset: np.ndarray
    image: np.ndarray


def generator_offset(coefs: np.ndarray) -> GeneratorSample:
    """The multiplicity-space offset ``k0`` that puts ``lam*f + k0`` in the Hardy class.

    Each ``phi_j`` tends to ``1/(sqrt(pi) lam)``, so ``lam*f`` tends to
    ``sum_j c_j / sqrt(pi)`` and ``k0`` is its negative.  The image
    ``lam*f + k0`` has the coefficients ``generator_matrix(D) @ coefs``.
    Coefficients in, coefficients out; shape (D,) or (D, m).
    """
    c = np.asarray(coefs, dtype=complex)
    return GeneratorSample(input=c, offset=-c.sum(0) / np.sqrt(np.pi),
                           image=generator_matrix(c.shape[0]) @ c)


def _qh(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``Q^H f`` as ``conj(Q^T conj(f))``: only the few columns of f are conjugated."""
    return (q.T @ f.conj()).conj()


@dataclass
class IsometryPair:
    """Partial isometry factor of the half-line/Hardy overlap operator.

    ``forward`` maps the truncated Hardy subspace isometrically onto functions
    supported on the positive half line; ``adjoint`` is its inverse on the
    retained directions.  The factors are the explicit orthonormal ``Q-`` and
    ``Q+`` of each half line's QR ``Phi- = Q- R-`` and ``Phi+ = Q+ R+``
    (read-only views of the grid's store), the r x r blocks ``Z = [Z-; Z+]``
    and ``P = U_keep Vh_keep``, and ``Vh_keep``.  The orthonormal basis
    ``q = [Q- Z-; Q+ Z+]`` and the isometry ``w = [0; Q+ P]`` are never
    formed: each application is products of ``Q-``/``Q+`` with the given
    columns and of the r x r blocks with the r-row results.
    """

    grid: Grid
    rank: int
    singular_values: np.ndarray
    _q_minus: np.ndarray = field(repr=False)
    _q_plus: np.ndarray = field(repr=False)
    _z: np.ndarray = field(repr=False)
    _p: np.ndarray = field(repr=False)
    _vh: np.ndarray = field(repr=False)

    def _synthesize(self, y: np.ndarray) -> np.ndarray:
        """``q y = [Q- Z- y; Q+ Z+ y]`` for an r-row block y."""
        r = self._z.shape[1]
        return np.vstack([self._q_minus @ (self._z[:r] @ y), self._q_plus @ (self._z[r:] @ y)])

    def forward(self, f: GridFunction) -> GridFunction:
        half = self.grid.n_points // 2
        r = self._z.shape[1]
        qhf = (self._z[:r].conj().T @ _qh(self._q_minus, f.samples[:half])
               + self._z[r:].conj().T @ _qh(self._q_plus, f.samples[half:]))
        out = np.zeros_like(f.samples)
        out[half:] = self._q_plus @ (self._p @ qhf)
        return GridFunction(f.grid, out)

    def adjoint(self, f: GridFunction) -> GridFunction:
        y = self._p.conj().T @ _qh(self._q_plus, f.samples[self.grid.n_points // 2:])
        return GridFunction(f.grid, self._synthesize(y))

    def initial_vectors(self) -> list:
        """Orthonormal grid functions spanning the retained initial space."""
        cols = self._synthesize(self._vh.conj().T) / np.sqrt(self.grid.spacing)
        return [GridFunction(self.grid, cols[:, i]) for i in range(self.rank)]


@lru_cache(maxsize=8)
def _half_line_store(grid: Grid) -> list:
    return [None]


def _half_line_factors(grid: Grid, count: int) -> tuple:
    """``(Q, R)`` of each half line's first ``count`` basis columns.

    Both are prefixes of the grid's widest factorization so far: Householder
    reflector k leaves rows < k alone, so the first ``count`` columns of Q and
    the leading ``count x count`` block of R factor the first ``count``
    columns.  With one BLAS thread a prefix is bit-identical to a fresh
    narrower factorization; with more, OpenBLAS splits each reflector update
    by the number of columns, which can move the last bit.  A larger count
    refactors both halves at that width; the stored arrays are read-only.
    """
    store = _half_line_store(grid)
    if store[0] is None or store[0][0][1].shape[1] < count:  # R- is width x width
        half = grid.n_points // 2
        phi = _phi_matrix(grid, count)  # cached and read-only: the QR copies it
        store[0] = tuple(np.linalg.qr(block) for block in (phi[:half], phi[half:]))
        for factor in store[0]:
            for a in factor:
                a.flags.writeable = False
    return tuple((q[:, :count], r[:count, :count]) for q, r in store[0])


def build_polar_isometry(grid: Grid, rank_budget: int = 48) -> IsometryPair:
    """SVD polar factor of the half-line-projected Hardy basis, by a two-block QR.

    The grid puts lam < 0 in its first n/2 rows, so the truncated basis splits
    as ``Phi = [Q- R-; Q+ R+]`` by one Householder QR per half line, and one
    small QR of the stacked ``[R-; R+] = Z R`` orthonormalizes it:
    ``q = [Q- Z-; Q+ Z+]`` (two-block TSQR).  The half-line projection of
    ``q`` is ``[0; Q+ Z+]``, so the SVD of the r x r block ``Z+ = U S V^H``
    gives the singular values, and the partial isometry is
    ``w = [0; Q+ U V^H]`` with singular values below
    ``_ISOMETRY_CUTOFF * sigma_max`` dropped.  ``Q-`` and ``Q+`` are explicit
    n/2 x r matrices and only r x r blocks are formed besides: no ``q`` or
    ``w`` and no n x r product (see :class:`IsometryPair`).  The half-line
    factors are prefixes of the grid's stored ones (:func:`_half_line_factors`),
    so a call with a budget no wider than the store costs only the 2r x r QR
    and the r x r SVD.  Householder QR also copes with a rank-deficient basis
    on coarse grids.  The same matrices act on every multiplicity component.
    """
    if rank_budget < 1 or rank_budget > grid.n_points // 2:
        raise ValueError("rank_budget out of range")
    (q_minus, r_minus), (q_plus, r_plus) = _half_line_factors(grid, rank_budget)
    z, _ = np.linalg.qr(np.vstack([r_minus, r_plus]))
    u, s, vh = np.linalg.svd(z[rank_budget:])
    keep = s >= _ISOMETRY_CUTOFF * s[0]
    if not keep.any():
        raise RuntimeError("all singular values fell below the cutoff")
    return IsometryPair(
        grid=grid, rank=int(keep.sum()), singular_values=s[keep], _q_minus=q_minus,
        _q_plus=q_plus, _z=z, _p=u[:, keep] @ vh[keep], _vh=vh[keep],
    )


def transfer_apply(iso: IsometryPair, f: GridFunction, t: float) -> GridFunction:
    """Conjugate the characteristic semigroup by the isometry: ``R o C(t) o R*``.

    Grid samples in and out.  ``R* f`` lies in the span of the isometry's
    ``rank_budget`` basis columns, so :func:`mt_coefficients_grid` recovers
    its coefficients (to the conditioning of the grid's basis Gram);
    :func:`apply_C` evolves them and ``R`` maps the synthesized result back.
    """
    coefs = mt_coefficients_grid(iso.adjoint(f), iso._z.shape[1])
    return iso.forward(mt_synthesize(apply_C(coefs, t), iso.grid))


# ---------------------------------------------------------------------------
# closed-form matrices in the rational basis


def _semigroup_rows(times: np.ndarray, dim: int) -> np.ndarray:
    """First rows ``e^{-t} L^{(-1)}_m(2t)``, m < dim, of :func:`semigroup_matrix`; shape (T, dim).

    ``L^{(-1)}_m = L_m - L_{m-1}`` comes from one Laguerre recurrence over
    every time at once; each entry is that of the recurrence at its time alone,
    bit for bit.
    """
    x = 2 * times
    la = np.empty((dim + 1, x.size))
    la[0] = 1.0
    la[1] = 1.0 - x
    for m in range(1, dim):
        la[m + 1] = ((2 * m + 1 - x) * la[m] - m * la[m - 1]) / (m + 1)
    diff = np.empty((dim, x.size))
    diff[0] = 1.0
    diff[1:] = la[1:dim] - la[: dim - 1]
    return np.exp(-times)[:, None] * diff.T


def _upper_toeplitz(row: np.ndarray) -> np.ndarray:
    """Upper-triangular Toeplitz matrix with first row ``row``."""
    col = np.zeros(row.size)
    col[0] = row[0]
    return _toeplitz(col, row)


def semigroup_matrix(t: float, dim: int) -> np.ndarray:
    """Exact matrix of the characteristic semigroup on the rational basis.

    Upper-triangular Toeplitz with entries ``e^{-t} L^{(-1)}_{j-k}(2t)``; the
    generating-function structure makes the semigroup law exact order by order
    and the spectral norm is at most one.
    """
    _require_time(t)
    return _upper_toeplitz(_semigroup_rows(np.array([t], dtype=float), dim)[0])


def generator_matrix(dim: int) -> np.ndarray:
    """Exact matrix of the semigroup generator on the rational basis.

    ``-i (I + 2 N)`` with N the strictly upper triangular matrix of ones; its
    action on the coefficient vector of ``k/(lam - zeta)`` is multiplication
    by zeta.
    """
    return -1j * (np.eye(dim) + 2 * np.triu(np.ones((dim, dim)), 1))
