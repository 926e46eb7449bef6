"""Invariant subspaces of the characteristic semigroup determined by the
scattering matrix: the constrained family N, its image M = S*N, the admissible
complement T, the restricted decay semigroup and its generator, decaying
eigenvectors, the constructive resolvent, and survival-probability curves.

All subspace computations run in the truncation spanned by the rational basis;
the working dimension is the requested basis size plus the total constraint
order, so the complement has exactly the dimension the constraints carve out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import (
    Grid,
    GridFunction,
    _toeplitz,
    cauchy_eval,
    mt_coefficients_grid,
    mt_expand,  # noqa: F401  (unused here; perfbench/selftest.py traces this binding)
    mt_point_eval,
    mt_synthesize,
    norm,
)
from .semigroup import _require_time, _semigroup_rows, _upper_toeplitz, generator_matrix, semigroup_matrix
from .smatrix import SMatrixModel, _poly_in_t

__all__ = [
    "SubspaceBasis",
    "build_N_basis",
    "build_M_and_T",
    "gamov",
    "gamov_coefficients",
    "restricted_apply",
    "resolve_B",
    "resolvent_residual",
    "DecayCurve",
    "transition_curve",
    "b_matrix",
]

N_THETA = 2**16
_RANK_CUTOFF = 1e-6  # relative floor of the singular values of S*N kept in M
_RESOLVENT_TOL = 5e-2  # largest generator-identity residual of resolve_B


@dataclass
class SubspaceBasis:
    """Orthonormal family spanning a discretized invariant subspace.

    ``coefs`` has shape (D, r): columns are coefficient vectors with respect to
    the rational basis, orthonormal in the exact inner product of the
    truncation.
    """

    role: str
    grid: Grid
    coefs: np.ndarray
    model: SMatrixModel
    params: dict
    diagnostics: dict

    @property
    def dim(self) -> int:
        return self.coefs.shape[1]

    @property
    def working_dim(self) -> int:
        return self.coefs.shape[0]


def _require_scalar(model: SMatrixModel):
    if model.dim_k != 1:
        raise NotImplementedError("subspace construction is implemented for multiplicity one")


def build_N_basis(model: SMatrixModel, n: int, mode: str, grid: Grid) -> SubspaceBasis:
    """Constrained subspace inside the working truncation.

    ``mode='upper_poles'`` enforces vanishing (to the pole order) at the
    upper-half-plane poles through the multiplier
    ``prod((lam - xi_j)/(lam + i))^{g_j}``; ``mode='rim_poles'`` enforces
    vanishing at the negative-axis poles of the upper boundary values through
    ``p(lam)/(lam + i)^g`` with ``p`` the monic polynomial over the rim poles;
    both read ``model.constraint_poles()``.  With no constraints the result is
    the full truncated basis.  A mode that does not match the model
    (``upper_poles`` for one sheet, ``rim_poles`` for two) is a ``ValueError``.

    The multiplier is a polynomial in ``t = (lam - i)/(lam + i)`` and ``phi_j``
    carries ``t^j``, so the multiplied basis has exact coefficients: the
    product polynomial shifted down by ``j`` rows in column ``j``.
    """
    _require_scalar(model)
    if n < 1:
        raise ValueError("basis size must be positive")
    expected = "upper_poles" if model.sheet_count == 1 else "rim_poles"
    if mode != expected:
        raise ValueError(f"mode must be {expected!r} for the {model.sheet_count}-sheet model "
                         f"{model.name}, got {mode!r}")
    factors = [(complex(pos), int(g)) for pos, g in model.constraint_poles()]
    if mode == "rim_poles" and any(pos.real >= 0 for pos, _ in factors):
        raise ValueError("rim poles must sit on the negative axis")
    # each factor (lam - p)/(lam + i) is ((i - p) + (i + p) t)/(2i) in t
    poly = _poly_in_t(((1j - pos) / 2j, (1j + pos) / 2j) for pos, g in factors for _ in range(g))
    g_total = poly.size - 1
    d_work = n + g_total
    cols = np.zeros((d_work, n), dtype=complex)
    for j in range(n):
        cols[j:j + poly.size, j] = poly
    q, _ = np.linalg.qr(cols)
    return SubspaceBasis(
        role="N",
        grid=grid,
        coefs=q,
        model=model,
        params={"n": n, "mode": mode, "constraints": factors, "order": g_total, "multiplier": poly},
        diagnostics={"working_dim": d_work},
    )


def build_M_and_T(model: SMatrixModel, n_basis: SubspaceBasis,
                  n_theta: int = N_THETA) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Image subspace ``M = S*N`` and its orthogonal complement T.

    With ``phi_j <-> e^{ij theta}``, multiplying by ``S`` maps coefficients
    ``c_j`` to ``sum_j s_{k-j} c_j``, a Toeplitz matrix of the circle
    coefficients ``s_q`` of ``S`` (``model.circle_coefficients``: exact for
    rational models; for the others the Fourier sums on the ``n_theta``-point
    offset circle, a double FFT of the samples with ``|S| <= 2^20`` plus
    extended-precision direct sums over the few rim-pole spikes above it, so
    ``n_theta`` sets the quadrature only for models without exact
    coefficients).  Rows ``k >= 0`` span M, orthonormalized by a
    rank-revealing SVD with T the complementary frame; rows ``k < 0`` give the
    lower-Hardy leakage.  Products stay bounded at rim poles because the N
    members vanish there, but ``s_q`` carries the full height of those peaks
    (``|S|`` reaches 1e11 on the circle): the product runs in extended
    precision, since in double its roundoff moves the singular values by up
    to 1.2e-10 of the largest (rank-one a = -4.25, n = 1); at D = 51 it costs
    about 1.4 ms of the 6.5 ms split.  Raises ``FloatingPointError`` when
    ``S*N`` overflows, and when it is finite but its column norms overflow.
    """
    _require_scalar(model)
    if n_basis.role != "N":
        raise ValueError("build_M_and_T expects the constrained basis")
    d_work = n_basis.working_dim
    # s_q for q = -2(D-1) .. D-1
    q = np.arange(-2 * (d_work - 1), d_work)
    s_hat = np.asarray(model.circle_coefficients(q, n_theta), dtype=np.clongdouble)
    overflow = FloatingPointError(f"model {model.name}: S·N overflows on the circle, so its "
                                  "singular values and Hardy leakage are not finite")
    # every s_q enters the product, so one non-finite s_q makes S·N non-finite
    if not np.all(np.isfinite(s_hat)):
        raise overflow
    # a finite product may still overflow when cast to double; reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # rows k = -(D-1) .. D-1 of the image coefficients
        images = (_toeplitz(s_hat[d_work - 1:], s_hat[d_work - 1::-1])
                  @ n_basis.coefs).astype(complex)
        m_cols = images[d_work - 1:]
        leakage = (np.linalg.norm(images[:d_work - 1], axis=0)
                   / np.maximum(np.linalg.norm(m_cols, axis=0), 1e-300))
    if not np.all(np.isfinite(images)):
        raise overflow
    if not np.all(np.isfinite(leakage)):
        # the norms square the entries, so they overflow from about 1e154
        raise FloatingPointError(
            f"model {model.name}: S·N is finite (largest entry {np.abs(images).max():.3g}), but "
            "the multiplier S is unbounded on the circle and the norms of S·N overflow")

    u, s, _ = np.linalg.svd(m_cols, full_matrices=True)
    rank = int(np.sum(s >= _RANK_CUTOFF * s[0])) if s.size else 0
    m_coefs = u[:, :rank]
    t_coefs = u[:, rank:]
    diag = {
        "singular_values": s.tolist(),
        "rank": rank,
        "dim_T": d_work - rank,
        "hardy_leakage": leakage.tolist(),
        "cutoff": _RANK_CUTOFF,
    }
    m_basis = SubspaceBasis(role="M", grid=n_basis.grid, coefs=m_coefs, model=model,
                            params=dict(n_basis.params), diagnostics=diag)
    t_basis = SubspaceBasis(role="T", grid=n_basis.grid, coefs=t_coefs, model=model,
                            params=dict(n_basis.params), diagnostics=diag)
    return m_basis, t_basis


def gamov(zeta: complex, k, grid: Grid) -> GridFunction:
    """Decaying eigenvector ``k/(lam - zeta)`` attached to a lower-half-plane pole."""
    zeta = complex(zeta)
    if zeta.imag >= 0:
        raise ValueError("decaying eigenvectors require Im zeta < 0")
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if np.linalg.norm(k) == 0:
        raise ValueError("kernel vector must be nonzero")
    lam = grid.points()
    return GridFunction(grid, k[None, :] / (lam - zeta)[:, None])


def gamov_coefficients(zeta: complex, count: int) -> np.ndarray:
    """Exact rational-basis coefficients of ``1/(lam - zeta)`` for Im zeta < 0."""
    zeta = complex(zeta)
    if zeta.imag >= 0:
        raise ValueError("requires Im zeta < 0")
    j = np.arange(count)
    return -2j * np.sqrt(np.pi) * (zeta + 1j) ** j / (zeta - 1j) ** (j + 1)


def _continuation_below(t_basis: SubspaceBasis, g: GridFunction, z: complex) -> complex:
    """Value below the axis of the continuation of an admissible element g.

    With ``P`` the multiplier N is built from, the continuation is
    ``S(z) * C_-[conj(P S_+) g](z) / conj(P(conj z))`` with ``C_-`` the Cauchy
    integral below the axis.  It is exact for g orthogonal to ``S*N``:
    ``conj(S_+) g`` is a lower-Hardy part plus a deficiency part with poles at
    the conjugate constraint points, and ``conj(P)`` is bounded and analytic
    below the axis and vanishes there, so the product is lower-Hardy.  At rim
    poles ``conj(P)`` also tames the peaks of ``S_+``.  This avoids continuing
    the truncated expansion itself, which loses a factor ``|t(z)|`` per basis
    order.  Above the axis g is its own continuation (see :func:`resolve_B`).
    """
    model = t_basis.model
    lam = t_basis.grid.points()
    poly = t_basis.params["multiplier"]
    s_plus = model.boundary(lam, "+")[:, 0, 0]
    h = GridFunction(t_basis.grid, np.conj(_multiplier(poly, lam) * s_plus)[:, None] * g.samples)
    s_at = complex(model.eval_physical(z)[0, 0])
    return s_at * complex(cauchy_eval(h, z)[0]) / np.conj(_multiplier(poly, np.conj(z)))


def _multiplier(poly: np.ndarray, x):
    """The polynomial ``poly`` in ``t = (x - i)/(x + i)`` by Horner's rule.

    The steps are those of ``np.polynomial.polynomial.polyval``, so the values
    are bit for bit its values, without loading ``numpy.polynomial``.
    """
    t = (x - 1j) / (x + 1j)
    out = poly[-1] + t * 0
    for c in poly[-2::-1]:
        out = c + out * t
    return out


def restricted_apply(t_basis: SubspaceBasis, f: GridFunction, t: float) -> GridFunction:
    """Decay semigroup on the admissible subspace: project, evolve, project.

    The evolution uses the exact truncation matrix of the characteristic
    semigroup, so the restriction is contractive and satisfies the semigroup
    law to machine precision; inputs essentially orthogonal to the subspace
    are rejected.
    """
    _require_time(t)
    if t_basis.role != "T":
        raise ValueError("restricted_apply expects the admissible basis")
    c = mt_coefficients_grid(f, t_basis.working_dim)[:, 0]
    ct = t_basis.coefs.conj().T @ c
    f_norm = norm(f)
    if np.linalg.norm(ct) < 0.5 * f_norm:
        raise RuntimeError(
            "input is essentially orthogonal to the admissible subspace "
            f"(projection keeps {np.linalg.norm(ct) / max(f_norm, 1e-300):.1%})"
        )
    cmat = semigroup_matrix(t, t_basis.working_dim)
    evolved = t_basis.coefs @ (t_basis.coefs.conj().T @ (cmat @ (t_basis.coefs @ ct)))
    return mt_synthesize(evolved, t_basis.grid)


def resolve_B(t_basis: SubspaceBasis, g: GridFunction, z: complex, resonances=None) -> GridFunction:
    """Constructive resolvent of the restricted generator at a regular point.

    Builds ``f = (g - k0)/(lam - z)`` with ``k0`` the continuation of ``g``
    evaluated at ``z``: above the axis g lies in the upper Hardy class and is
    its own continuation, so ``k0`` is the Cauchy integral of g itself; below
    it ``k0`` comes from :func:`_continuation_below`; on the axis it is the
    boundary value of g.  The generator identity is then verified by
    recovering the offset of ``f`` independently.
    """
    z = complex(z)
    if resonances is not None:
        for r in resonances:
            zeta = r.zeta if hasattr(r, "zeta") else complex(r)
            if abs(z - zeta) < 1e-6:
                raise ValueError(f"{z} is within 1e-6 of the located pole {zeta}")
    lam = t_basis.grid.points()
    if z.imag == 0:
        # real-axis recipe: k0 is the boundary value of g at the point itself,
        # the constant term of the cubic through four samples around it, in
        # coordinates centred on the point
        j = int(np.searchsorted(lam, z.real))
        j = min(max(j, 2), lam.size - 2)
        x = lam[j - 2:j + 2] - z.real
        k0 = complex(np.linalg.solve(np.vander(x, 4, increasing=True), g.samples[j - 2:j + 2, 0])[0])
    elif z.imag > 0:
        k0 = complex(cauchy_eval(g, z)[0])
    else:
        k0 = _continuation_below(t_basis, g, z)
    denom = lam - z
    hit = np.abs(denom) < 1e-9 * t_basis.grid.spacing
    denom = np.where(hit, 1.0, denom)
    f_samples = (g.samples - k0) / denom[:, None]
    if hit.any():
        j = int(np.nonzero(hit)[0][0])
        c = mt_coefficients_grid(g, t_basis.working_dim)[:, 0]
        h = 1e-6
        f_samples[j, 0] = (mt_point_eval(c, z + h)[0] - mt_point_eval(c, z - h)[0]) / (2 * h)
    f = GridFunction(t_basis.grid, f_samples)
    residual = resolvent_residual(t_basis, f, g, z)
    if residual > _RESOLVENT_TOL:
        raise RuntimeError(f"resolvent verification failed: residual {residual:.3e}")
    return f


def resolvent_residual(t_basis: SubspaceBasis, f: GridFunction, g: GridFunction,
                       z: complex) -> float:
    """Round-trip defect of the restricted generator: ``||(B - z) f - g|| / ||g||``.

    The generator acts through its exact truncation matrix compressed to the
    admissible subspace; mass of ``f`` outside the subspace is penalized, so a
    wrong continuation constant cannot hide in the unprojected identity.
    """
    cf = mt_coefficients_grid(f, t_basis.working_dim)[:, 0]
    cg = mt_coefficients_grid(g, t_basis.working_dim)[:, 0]
    u = t_basis.coefs
    f_t = u.conj().T @ cf
    g_t = u.conj().T @ cg
    bt = b_matrix(t_basis)
    g_norm = max(float(np.linalg.norm(cg)), 1e-300)
    core = float(np.linalg.norm(bt @ f_t - complex(z) * f_t - g_t)) / g_norm
    off = float(np.linalg.norm(cf - u @ f_t)) * (1 + abs(complex(z))) / g_norm
    return core + off


@dataclass
class DecayCurve:
    times: np.ndarray
    overlaps: np.ndarray
    norms: np.ndarray
    reference: np.ndarray | None = None


def transition_curve(f: GridFunction, times, mode: str, t_basis: SubspaceBasis | None = None,
                     isometry=None, zeta: complex | None = None) -> DecayCurve:
    """Survival amplitudes ``<f, U(t) f>`` under the decay or unitary evolution.

    Decay mode evolves with the restricted semigroup in the truncation (the
    exact coefficients of the decaying eigenvector, scaled to ``||f||``, are
    used when ``zeta`` tags ``f`` as one); unitary mode evolves the
    half-line representative obtained through the polar isometry, whose
    ``m`` samples on ``lam >= 0`` lie on the uniform grid
    ``lam_k = lam_0 + k h``.  Its phases are factored: with ``k = b i + j`` and
    ``b = 2^floor(log2(m)/2)``, ``e^{-it lam_k}`` is
    ``e^{-it(lam_0 + b i h)} e^{-itjh}``, so a curve of T times takes
    ``T (b + m/b)`` exponentials and one ``(T x b) @ (b x m/b)`` product
    instead of ``T m`` exponentials.  When
    ``zeta`` is supplied the curve carries ``exp(-t |Im zeta|) ||f||^2`` as the
    reference column.
    """
    times = np.asarray(list(times), dtype=float)
    if times.size == 0:
        raise ValueError("times must be non-empty")
    if not np.all(np.isfinite(times) & (times >= 0)) or np.any(np.diff(times) < 0):
        raise ValueError("times must be finite, non-negative and non-decreasing")
    if mode == "decay":
        if t_basis is None:
            raise ValueError("decay mode needs the admissible basis")
        if zeta is not None:
            c = gamov_coefficients(zeta, t_basis.working_dim)
            c = c * (norm(f) / np.linalg.norm(c))
        else:
            c = mt_coefficients_grid(f, t_basis.working_dim)[:, 0]
        u = t_basis.coefs
        uh = u.conj().T
        ct = uh @ c
        uct = u @ ct
        overlaps, norms = [], []
        # one Laguerre recurrence gives every time's semigroup row
        for row in _semigroup_rows(times, t_basis.working_dim):
            ev = uh @ (_upper_toeplitz(row) @ uct)
            overlaps.append(complex(np.vdot(ct, ev)))
            norms.append(float(np.linalg.norm(ev)))
        fnorm2 = float(np.vdot(c, c).real)
    elif mode == "unitary":
        if isometry is None:
            raise ValueError("unitary mode needs the polar isometry")
        rf = isometry.forward(f)
        # the multiplier has modulus one: <rf, e^{-it lam} rf> is a dot of
        # e^{-it lam} with the weights h*|rf|^2, and the norm never changes;
        # rf vanishes on lam < 0, so only the lam >= 0 half enters
        half, h = rf.grid.n_points // 2, rf.grid.spacing
        weights = h * np.sum(np.abs(rf.samples[half:]) ** 2, axis=1)
        # lam_k = lam_0 + k h, and b divides the power-of-two count m: with
        # k = b i + j, e^{-it lam_k} = e^{-it(lam_0 + b i h)} e^{-itjh}
        b = 1 << (weights.size.bit_length() - 1) // 2
        inner = np.exp(-1j * np.outer(times, h * np.arange(b)))
        outer = np.exp(-1j * np.outer(times, -rf.grid.half_extent + h * (half + b * np.arange(weights.size // b))))
        overlaps = np.einsum("ti,ti->t", outer, inner @ weights.reshape(-1, b).T)
        fnorm2 = norm(rf) ** 2
        norms = np.full(times.shape, np.sqrt(fnorm2))
    else:
        raise ValueError(f"mode must be 'decay' or 'unitary', got {mode!r}")
    reference = None
    if zeta is not None:
        reference = np.exp(-times * abs(complex(zeta).imag)) * fnorm2
    return DecayCurve(times=times, overlaps=np.asarray(overlaps),
                      norms=np.asarray(norms), reference=reference)


def b_matrix(t_basis: SubspaceBasis) -> np.ndarray:
    """Exact matrix of the restricted generator on the admissible basis."""
    full = generator_matrix(t_basis.working_dim)
    return t_basis.coefs.conj().T @ full @ t_basis.coefs
