"""Semigroup evolution, generator offset, polar isometry, truncation matrices."""

import numpy as np
import pytest

import scatres as sr
from conftest import rational_sum
from scatres.hardy import _phi_matrix

ZETA = 1 - 1j


def test_apply_T_identity_and_isometry(grid, rng):
    f = sr.grid_function(grid, rng.standard_normal(grid.n_points)
                         + 1j * rng.standard_normal(grid.n_points))
    assert sr.norm(sr.apply_T(f, 0.0) - f) == 0.0
    for t in (0.7, 3.1):
        assert abs(sr.norm(sr.apply_T(f, t)) - sr.norm(f)) / sr.norm(f) < 1e-13
    with pytest.raises(ValueError):
        sr.apply_T(f, -0.1)


def test_apply_T_preserves_hardy_class(grid):
    # the wrong-side content of T(1) phi_0, measured with the shift-aware cut
    # (the multiplier moves the x-image, so the tail repair must move with it)
    from scatres.hardy import _matched_cut

    phi0 = sr.mt_basis(0, grid)
    leak = sr.norm(_matched_cut(phi0, "-", shift=-1.0)) / sr.norm(phi0)
    assert leak < 1e-3


def test_apply_C_eigenrelation(grid):
    e = rational_sum(grid, [ZETA])
    for t in (0.5, 1.0, 2.0):
        ce = sr.apply_C(e, t)
        assert sr.norm(ce - np.exp(-1j * t * ZETA) * e) / sr.norm(e) < 5e-3


def test_apply_C_semigroup_law(grid):
    e = rational_sum(grid, [ZETA])
    lhs = sr.apply_C(sr.apply_C(e, 0.5), 0.7)
    rhs = sr.apply_C(e, 1.2)
    assert sr.norm(lhs - rhs) / sr.norm(e) < 1e-3


def test_apply_C_contraction(grid, rng):
    corpus = [
        rational_sum(grid, [ZETA]),
        rational_sum(grid, [-1j]),
        rational_sum(grid, [-0.8 - 0.6j, 1 - 2j], [1.0, 0.5]),
    ]
    for _ in range(4):
        poles = [rng.uniform(-3, 3) - 1j * rng.uniform(0.3, 3) for _ in range(5)]
        corpus.append(rational_sum(grid, poles, list(rng.standard_normal(5))))
    for f in corpus:
        for t in (0.2, 1.0, 4.0):
            assert sr.norm(sr.apply_C(f, t)) <= sr.norm(f) * (1 + 1e-12)
    with pytest.raises(ValueError):
        sr.apply_C(corpus[0], -1.0)


def test_apply_C_norm_decays_to_zero(grid):
    phi0 = sr.mt_basis(0, grid)
    values = [sr.norm(sr.apply_C(phi0, t)) for t in (1.0, 5.0, 20.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-3


def test_adjointness(grid):
    # <T(t) f, g> = <f, C(t) g> on upper-Hardy pairs with cancelling 1/lam tails
    f = rational_sum(grid, [-1.5j]) - rational_sum(grid, [-2.5j])
    g = rational_sum(grid, [1 - 0.8j]) - rational_sum(grid, [-1 - 1.3j])
    t = 0.9
    lhs = sr.inner(sr.apply_T(f, t), g)
    rhs = sr.inner(f, sr.apply_C(g, t))
    assert abs(lhs - rhs) / abs(lhs) < 1e-3


def test_eigenrelation_error_decreases_under_refinement():
    errs = []
    for n, L in [(2**12, 100.0), (2**13, 200.0), (2**14, 400.0)]:
        g = sr.make_grid(n, L)
        e = rational_sum(g, [ZETA])
        ce = sr.apply_C(e, 1.0)
        errs.append(sr.norm(ce - np.exp(-1j * ZETA) * e) / sr.norm(e))
    assert errs[0] > errs[1] > errs[2]


def test_generator_offset_eigenvector(grid):
    e = rational_sum(grid, [ZETA])  # the worked rank-one eigenvector: offset -1
    sample = sr.generator_offset(e)
    assert abs(sample.offset[0] - (-1.0)) < 1e-3
    # image = zeta * e exactly for this input
    assert sr.norm(sample.image - ZETA * e) / sr.norm(e) < 1e-6
    k = 0.7 - 0.2j
    sample2 = sr.generator_offset(k * e)
    assert abs(sample2.offset[0] - (-k)) < 1e-3 * abs(k)


def test_generator_offset_phi0(grid):
    phi0 = sr.mt_basis(0, grid)
    sample = sr.generator_offset(phi0)
    assert abs(sample.offset[0] + 1 / np.sqrt(np.pi)) < 1e-3
    assert sample.residual < 1e-2
    leak = sr.norm(sr.project_hardy(sample.image, "-", mode="matched")) / sr.norm(sample.image)
    assert leak < 1e-2


def test_generator_taylor_consistency(grid):
    # C(t) f = f - i t (lam f + k0) + O(t^2); Richardson order from the honest range
    e = rational_sum(grid, [ZETA])
    sample = sr.generator_offset(e)
    lam = grid.points()

    def residual(t):
        lin = sr.grid_function(grid, e.samples - 1j * t * sample.image.samples)
        return sr.norm(sr.apply_C(e, t) - lin)

    r1, r2 = residual(0.2), residual(0.1)
    order = np.log2(r1 / r2)
    assert order > 1.9
    # the spec's small steps sit on the method's accuracy floor; residuals stay tiny
    assert residual(1e-2) < 1e-3
    assert residual(1e-3) < 1e-3


def test_polar_isometry_properties(grid):
    iso = sr.build_polar_isometry(grid, rank_budget=48)
    # the finite section is genuinely rank deficient; the cutoff retains the
    # well-conditioned directions and the isometry identities hold there
    assert 0 < iso.rank <= 48
    for f in iso.initial_vectors()[::7]:
        rf = iso.forward(f)
        assert abs(sr.norm(rf) / sr.norm(f) - 1) < 1e-6
        assert sr.norm(iso.adjoint(rf) - f) / sr.norm(f) < 1e-6
        assert sr.norm(sr.project_half_line(rf, "-")) < 1e-6
    # on raw basis elements the round trip is the initial-space projection;
    # the dropped-direction mass is small but above the retained tolerance
    phi = sr.mt_basis(0, grid)
    assert sr.norm(iso.adjoint(iso.forward(phi)) - phi) / sr.norm(phi) < 1e-3
    assert 0 < iso.singular_values.min() <= iso.singular_values.max() <= 1 + 1e-12


def _householder_reference(grid, rank_budget, cutoff=1e-8):
    """Full-grid QR of the basis, then SVD of its masked half-line copy.

    Returns the orthonormal basis q, the partial isometry w, the retained
    singular values and an orthonormal frame of the retained initial space.
    """
    q, _ = np.linalg.qr(np.sqrt(grid.spacing) * _phi_matrix(grid, rank_budget))
    x = np.where((grid.points() >= 0)[:, None], q, 0)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    keep = s >= cutoff * s[0]
    return q, u[:, keep] @ vh[keep, :], s[keep], q @ vh[keep].conj().T


def _materialize(iso):
    """Explicit q = [Q- Z-; Q+ Z+] and w = [0; Q+ P] from the implicit factors.

    q is the factors applied to the r x r identity; w is ``forward`` applied
    to q, since ``w q^H q = w``.
    """
    q = iso._synthesize(np.eye(iso._z.shape[1]))
    return q, iso.forward(sr.grid_function(iso.grid, q)).samples


def _assert_orthonormal(q):
    assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() < 1e-13


@pytest.mark.parametrize("n, half_extent, budget", [
    (2**14, 400.0, 32), (2**14, 400.0, 40), (2**14, 400.0, 48),
    (2**10, 50.0, 32), (2**10, 50.0, 40),
])
def test_polar_isometry_matches_householder_reference(n, half_extent, budget):
    # on these grids cond(Phi) <= 100, so both constructions determine the
    # same operator and differ by roundoff of order eps*cond/s_min_kept
    g = sr.make_grid(n, half_extent)
    assert np.linalg.cond(_phi_matrix(g, budget)) <= 100
    q_ref, w_ref, s_ref, init_ref = _householder_reference(g, budget)
    iso = sr.build_polar_isometry(g, rank_budget=budget)
    assert iso.rank == s_ref.size
    assert np.abs(iso.singular_values - s_ref).max() < 1e-12
    q, w = _materialize(iso)
    _assert_orthonormal(q)
    assert not w[: n // 2].any()  # lam < 0 rows are exactly zero
    # the retained initial space, orthonormal in the plain metric; the cutoff
    # sits in a gap of order 1e-8 between kept and dropped singular values, so
    # roundoff tilts the space by about eps/gap
    init = np.sqrt(g.spacing) * np.hstack([v.samples for v in iso.initial_vectors()])
    _assert_orthonormal(init)
    assert np.linalg.norm(init - init_ref @ (init_ref.conj().T @ init)) < 1e-7

    def forward_ref(f):
        return sr.grid_function(g, w_ref @ (q_ref.conj().T @ f.samples))

    def adjoint_ref(f):
        return sr.grid_function(g, q_ref @ (w_ref.conj().T @ f.samples))

    rng = np.random.default_rng(budget)
    for m in (1, 2):
        f = sr.grid_function(g, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        transfer_ref = forward_ref(sr.apply_C(adjoint_ref(f), 1.0))
        for got, ref in ((iso.forward(f), forward_ref(f)), (iso.adjoint(f), adjoint_ref(f)),
                         (sr.transfer_apply(iso, f, 1.0), transfer_ref)):
            assert sr.norm(got - ref) / sr.norm(ref) < 1e-7


@pytest.mark.parametrize("budget", [48, 2**7])
def test_polar_isometry_rank_deficient_basis(budget):
    # on 2^8 points the basis is numerically rank deficient (cond ~ 1e17);
    # Householder QR still returns an orthonormal q, up to budget = n/2
    g = sr.make_grid(2**8, 400.0)
    iso = sr.build_polar_isometry(g, rank_budget=budget)
    q, w = _materialize(iso)
    _assert_orthonormal(q)
    assert 0 < iso.rank <= budget
    assert not w[: g.n_points // 2].any()


def test_polar_isometry_leaves_cached_basis_unchanged():
    # the basis matrix is cached and shared, so the factorization must copy it
    g = sr.make_grid(2**10, 50.0)
    phi = _phi_matrix(g, 40)
    before = phi.copy()
    sr.build_polar_isometry(g, rank_budget=40)
    again = _phi_matrix(g, 40)
    assert np.shares_memory(again, phi)
    assert np.array_equal(again, before)


def test_polar_isometry_validation(grid):
    with pytest.raises(ValueError):
        sr.build_polar_isometry(grid, rank_budget=0)


def test_transfer_apply(grid):
    iso = sr.build_polar_isometry(grid, rank_budget=48)
    e = rational_sum(grid, [ZETA])
    re = iso.forward(e)
    # t = 0: identity on the final space
    assert sr.norm(sr.transfer_apply(iso, re, 0.0) - re) / sr.norm(re) < 1e-3
    # isometric conjugation preserves the evolved norm
    t = 0.8
    lhs = sr.norm(sr.transfer_apply(iso, re, t))
    rhs = sr.norm(sr.apply_C(iso.adjoint(re), t))
    assert abs(lhs - rhs) / rhs < 1e-6
    # eigenvector transport: |<R e, C~(t) R e>| = e^{-t|Im zeta|} ||e||^2
    overlap = abs(sr.inner(re, sr.transfer_apply(iso, re, 1.0)))
    target = np.exp(-1.0) * sr.norm(e) ** 2
    assert abs(overlap - target) / target < 1e-2


def test_semigroup_matrix_structure():
    dim = 48
    c1 = sr.semigroup_matrix(1.0, dim)
    assert np.linalg.svd(c1, compute_uv=False)[0] <= 1 + 1e-12
    law = sr.semigroup_matrix(0.5, dim) @ sr.semigroup_matrix(0.7, dim) - sr.semigroup_matrix(1.2, dim)
    assert np.abs(law).max() < 1e-13
    c = sr.gamov_coefficients(ZETA, dim)
    assert np.linalg.norm(c1 @ c - np.exp(-1j * ZETA) * c) / np.linalg.norm(c) < 1e-12


def test_generator_matrix_eigen():
    dim = 48
    b = sr.generator_matrix(dim)
    c = sr.gamov_coefficients(ZETA, dim)
    assert np.linalg.norm(b @ c - ZETA * c) / np.linalg.norm(c) < 1e-12
