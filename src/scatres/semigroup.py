"""Shift semigroup on the upper Hardy class, its compressed adjoint (the
characteristic semigroup), the generator's tail offset, the polar-decomposition
isometry onto the half line, and closed-form truncation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hardy import (
    Grid,
    GridFunction,
    _matched_cut,
    _phi_matrix,
    _tail_cache,
    norm,
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

_OFFSET_TOL = 5e-2  # largest wrong-side residual of generator_offset
_ISOMETRY_CUTOFF = 1e-8  # relative floor of the retained singular values


def apply_T(f: GridFunction, t: float) -> GridFunction:
    """Outgoing shift semigroup: multiplication by ``e^{i*t*lam}``, t >= 0."""
    if t < 0:
        raise ValueError("apply_T requires t >= 0")
    lam = f.grid.points()
    return GridFunction(f.grid, np.exp(1j * t * lam)[:, None] * f.samples)


def apply_C(f: GridFunction, t: float) -> GridFunction:
    """Characteristic semigroup: compress ``e^{-i*t*lam}`` back to the Hardy class.

    Computed as multiply-then-project where the projection repairs the window
    and alias artifacts of 1/lam tails (the multiplier shifts the x-image by t,
    so the repair is evaluated at shifted argument).  Contractive on Hardy-class
    inputs and exact on the rational eigenvectors ``k/(lam - zeta)`` up to the
    grid's tail-fit residual.
    """
    if t < 0:
        raise ValueError("apply_C requires t >= 0")
    return _matched_cut(f, "+", shift=float(t))


@dataclass
class GeneratorSample:
    """A point of the generator graph: image(lam) = lam*f(lam) + offset."""

    input: GridFunction
    offset: np.ndarray
    image: GridFunction
    residual: float


def generator_offset(f: GridFunction) -> GeneratorSample:
    """Recover the multiplicity-space offset that puts ``lam*f + k0`` in the Hardy class.

    The offset is the negative of the constant term in the tail expansion
    ``lam*f ~ c0 + c1/lam + ...`` (least squares over the edge bands); the
    residual is the fraction of the image's x-side energy on the wrong half
    axis, measured after tail repair.
    """
    tc = _tail_cache(f.grid)
    c0, _, _ = tc.fit(f.samples)
    k0 = -c0
    lam = f.grid.points()
    image = GridFunction(f.grid, lam[:, None] * f.samples + k0[None, :])
    wrong = _matched_cut(image, "-")
    residual = norm(wrong) / max(norm(image), 1e-300)
    if residual > _OFFSET_TOL:
        raise RuntimeError(
            f"generator offset did not converge: wrong-side residual {residual:.3e}"
        )
    return GeneratorSample(input=f, offset=k0, image=image, residual=residual)


def _zunmqr(factor: tuple, trans: str, c: np.ndarray, overwrite: bool) -> np.ndarray:
    from scipy.linalg.lapack import zunmqr

    h, tau = factor
    # the minimal workspace selects LAPACK's unblocked reflector loop: for the
    # few columns applied here the blocked path costs more, since it forms a
    # triangular factor from every block of n/2 reflector rows
    out, _, info = zunmqr("L", trans, h, tau, c, max(1, c.shape[1]), overwrite_c=overwrite)
    if info != 0:
        raise RuntimeError(f"zunmqr failed with info={info}")
    return out


def _apply_q(factor: tuple, x: np.ndarray) -> np.ndarray:
    """``Q [x; 0]`` for Q kept as ``geqrf`` reflectors and an r-row block x."""
    c = np.zeros((factor[0].shape[0], x.shape[1]), dtype=complex, order="F")
    c[: x.shape[0]] = x
    return _zunmqr(factor, "N", c, overwrite=True)


def _apply_qh(factor: tuple, f: np.ndarray) -> np.ndarray:
    """Leading r rows of ``Q^H f``: the economic ``Q^H f``."""
    return _zunmqr(factor, "C", f, overwrite=False)[: factor[0].shape[1]]


@dataclass
class IsometryPair:
    """Partial isometry factor of the half-line/Hardy overlap operator.

    ``forward`` maps the truncated Hardy subspace isometrically onto functions
    supported on the positive half line; ``adjoint`` is its inverse on the
    retained directions.  The factors stay implicit: the Householder
    reflectors ``(h, tau)`` of each half line's QR ``Phi- = Q- R-`` and
    ``Phi+ = Q+ R+``, the r x r blocks ``Z = [Z-; Z+]`` and
    ``P = U_keep Vh_keep``, and ``Vh_keep``.  The orthonormal basis
    ``q = [Q- Z-; Q+ Z+]`` and the isometry ``w = [0; Q+ P]`` are never
    formed: each application is three reflector products on the given
    columns.
    """

    grid: Grid
    rank: int
    singular_values: np.ndarray
    _minus: tuple = field(repr=False)
    _plus: tuple = field(repr=False)
    _z: np.ndarray = field(repr=False)
    _p: np.ndarray = field(repr=False)
    _vh: np.ndarray = field(repr=False)

    def _synthesize(self, y: np.ndarray) -> np.ndarray:
        """``q y = [Q- Z- y; Q+ Z+ y]`` for an r-row block y."""
        r = self._z.shape[1]
        return np.vstack([_apply_q(self._minus, self._z[:r] @ y),
                          _apply_q(self._plus, self._z[r:] @ y)])

    def forward(self, f: GridFunction) -> GridFunction:
        half = self.grid.n_points // 2
        r = self._z.shape[1]
        qhf = (self._z[:r].conj().T @ _apply_qh(self._minus, f.samples[:half])
               + self._z[r:].conj().T @ _apply_qh(self._plus, f.samples[half:]))
        out = np.zeros_like(f.samples)
        out[half:] = _apply_q(self._plus, self._p @ qhf)
        return GridFunction(f.grid, out)

    def adjoint(self, f: GridFunction) -> GridFunction:
        y = self._p.conj().T @ _apply_qh(self._plus, f.samples[self.grid.n_points // 2:])
        return GridFunction(f.grid, self._synthesize(y))

    def initial_vectors(self) -> list:
        """Orthonormal grid functions spanning the retained initial space."""
        cols = self._synthesize(self._vh.conj().T) / np.sqrt(self.grid.spacing)
        return [GridFunction(self.grid, cols[:, i]) for i in range(self.rank)]


def build_polar_isometry(grid: Grid, rank_budget: int = 48) -> IsometryPair:
    """SVD polar factor of the half-line-projected Hardy basis, by a two-block QR.

    The grid puts lam < 0 in its first n/2 rows, so the truncated basis splits
    as ``Phi = [Q- R-; Q+ R+]`` by one Householder QR (LAPACK ``geqrf``) per
    half line, and one small QR of the stacked ``[R-; R+] = Z R``
    orthonormalizes it: ``q = [Q- Z-; Q+ Z+]`` (two-block TSQR).  The
    half-line projection of ``q`` is ``[0; Q+ Z+]``, so the SVD of the r x r
    block ``Z+ = U S V^H`` gives the singular values, and the partial isometry
    is ``w = [0; Q+ U V^H]`` with singular values below ``_ISOMETRY_CUTOFF * sigma_max``
    dropped.  ``Q-`` and ``Q+`` stay as the reflectors ``geqrf`` returns and
    only r x r blocks are formed besides: no explicit Q, ``q`` or ``w`` and no
    n x r product (see :class:`IsometryPair`).  The work is the two n/2 x r
    factorizations; on the default grid (2^14 points) one call takes about
    41, 48 and 74 ms at r = 32, 40, 48 (one BLAS thread, 2-vCPU x86-64 host).
    Householder QR also copes with a rank-deficient basis on coarse grids.
    The same matrices act on every multiplicity component.
    """
    from scipy.linalg import qr

    if rank_budget < 1 or rank_budget > grid.n_points // 2:
        raise ValueError("rank_budget out of range")
    half = grid.n_points // 2
    phi = _phi_matrix(grid, rank_budget)  # cached and read-only: geqrf copies it
    minus, r_minus = qr(phi[:half], mode="raw", check_finite=False)
    plus, r_plus = qr(phi[half:], mode="raw", check_finite=False)
    z, _ = qr(np.vstack([r_minus, r_plus]), mode="economic", check_finite=False)
    u, s, vh = np.linalg.svd(z[rank_budget:])
    keep = s >= _ISOMETRY_CUTOFF * s[0]
    if not keep.any():
        raise RuntimeError("all singular values fell below the cutoff")
    return IsometryPair(
        grid=grid, rank=int(keep.sum()), singular_values=s[keep], _minus=minus,
        _plus=plus, _z=z, _p=u[:, keep] @ vh[keep], _vh=vh[keep],
    )


def transfer_apply(iso: IsometryPair, f: GridFunction, t: float) -> GridFunction:
    """Conjugate the characteristic semigroup by the isometry: ``R o C(t) o R*``."""
    return iso.forward(apply_C(iso.adjoint(f), t))


# ---------------------------------------------------------------------------
# closed-form matrices in the rational basis


def _laguerre_diff(count: int, x: float) -> np.ndarray:
    """L^{(-1)}_m(x) = L_m(x) - L_{m-1}(x) for m = 0..count-1, by recurrence."""
    la = np.empty(count + 1)
    la[0] = 1.0
    if count >= 1:
        la[1] = 1.0 - x
    for m in range(1, count):
        la[m + 1] = ((2 * m + 1 - x) * la[m] - m * la[m - 1]) / (m + 1)
    out = np.empty(count)
    out[0] = 1.0
    out[1:] = la[1:count] - la[: count - 1]
    return out


def semigroup_matrix(t: float, dim: int) -> np.ndarray:
    """Exact matrix of the characteristic semigroup on the rational basis.

    Upper-triangular Toeplitz with entries ``e^{-t} L^{(-1)}_{j-k}(2t)``; the
    generating-function structure makes the semigroup law exact order by order
    and the spectral norm is at most one.
    """
    if t < 0:
        raise ValueError("semigroup_matrix requires t >= 0")
    v = np.exp(-t) * _laguerre_diff(dim, 2 * t)
    mat = np.zeros((dim, dim))
    for k in range(dim):
        mat[k, k:] = v[: dim - k]
    return mat


def generator_matrix(dim: int) -> np.ndarray:
    """Exact matrix of the semigroup generator on the rational basis.

    ``-i (I + 2 N)`` with N the strictly upper triangular matrix of ones; its
    action on the coefficient vector of ``k/(lam - zeta)`` is multiplication
    by zeta.
    """
    return -1j * (np.eye(dim) + 2 * np.triu(np.ones((dim, dim)), 1))
