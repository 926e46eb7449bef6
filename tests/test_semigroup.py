"""Semigroup evolution, generator offset, polar isometry, truncation matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatres as sr
from conftest import lower_cauchy_leak, rational_sum, run_python
from scatres.hardy import _phi_matrix
from scatres.semigroup import _half_line_store

ZETA = 1 - 1j


def coefs(poles, weights=None, dim=48):
    """Exact rational-basis coefficients of ``sum w/(lam - p)`` over lower poles."""
    weights = weights or [1.0] * len(poles)
    return sum(w * sr.gamov_coefficients(p, dim) for w, p in zip(weights, poles))


def test_apply_T_identity_and_isometry(grid, rng):
    f = sr.grid_function(grid, rng.standard_normal(grid.n_points)
                         + 1j * rng.standard_normal(grid.n_points))
    assert sr.norm(sr.apply_T(f, 0.0) - f) == 0.0
    for t in (0.7, 3.1):
        assert abs(sr.norm(sr.apply_T(f, t)) - sr.norm(f)) / sr.norm(f) < 1e-13
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            sr.apply_T(f, bad)


def test_apply_T_preserves_hardy_class(grid):
    # T(1) phi_0 stays in the upper Hardy class: its Cauchy integral below the
    # axis vanishes up to the grid's truncation of the oscillating tail
    phi0 = sr.mt_basis(0, grid)
    assert lower_cauchy_leak(sr.apply_T(phi0, 1.0)) < 1e-3


def test_apply_C_eigenrelation():
    e = coefs([ZETA])
    for t in (0.5, 1.0, 2.0):
        ce = sr.apply_C(e, t)
        assert np.linalg.norm(ce - np.exp(-1j * t * ZETA) * e) / np.linalg.norm(e) < 1e-12


def test_apply_C_semigroup_law(rng):
    e = coefs([ZETA])
    lhs = sr.apply_C(sr.apply_C(e, 0.5), 0.7)
    rhs = sr.apply_C(e, 1.2)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(e) < 1e-13
    # a (D, m) block evolves column by column
    block = rng.standard_normal((48, 3)) + 1j * rng.standard_normal((48, 3))
    evolved = sr.apply_C(block, 0.9)
    assert evolved.shape == (48, 3)
    for j in range(3):
        assert np.abs(evolved[:, j] - sr.apply_C(block[:, j], 0.9)).max() < 1e-14


def test_apply_C_contraction(rng):
    corpus = [
        coefs([ZETA]),
        coefs([-1j]),
        coefs([-0.8 - 0.6j, 1 - 2j], [1.0, 0.5]),
    ]
    for _ in range(4):
        poles = [rng.uniform(-3, 3) - 1j * rng.uniform(0.3, 3) for _ in range(5)]
        corpus.append(coefs(poles, list(rng.standard_normal(5))))
    for c in corpus:
        for t in (0.2, 1.0, 4.0):
            assert np.linalg.norm(sr.apply_C(c, t)) <= np.linalg.norm(c) * (1 + 1e-12)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sr.apply_C(corpus[0], bad)
        with pytest.raises(ValueError):
            sr.semigroup_matrix(bad, 4)


def test_apply_C_norm_decays_to_zero():
    phi0 = np.eye(48)[0]
    values = [np.linalg.norm(sr.apply_C(phi0, t)) for t in (1.0, 5.0, 20.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-3


def test_adjointness(grid):
    # <T(t) f, g> = <f, C(t) g> on upper-Hardy pairs with cancelling 1/lam tails:
    # T(t) multiplies the grid samples, C(t) acts on the exact coefficients
    f = rational_sum(grid, [-1.5j]) - rational_sum(grid, [-2.5j])
    g = rational_sum(grid, [1 - 0.8j]) - rational_sum(grid, [-1 - 1.3j])
    t = 0.9
    lhs = sr.inner(sr.apply_T(f, t), g)
    rhs = np.vdot(coefs([-1.5j, -2.5j], [1.0, -1.0]),
                  sr.apply_C(coefs([1 - 0.8j, -1 - 1.3j], [1.0, -1.0]), t))
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_eigenrelation_error_decreases_under_refinement():
    # a pole near the axis: the truncation tail |(zeta + i)/(zeta - i)|^D is
    # what the eigenrelation misses, and it shrinks as the dimension grows
    zeta = 1 - 0.1j
    errs = []
    for dim in (16, 32, 64):
        e = sr.gamov_coefficients(zeta, dim)
        ce = sr.apply_C(e, 1.0)
        errs.append(np.linalg.norm(ce - np.exp(-1j * zeta) * e) / np.linalg.norm(e))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] > 1e-2 and errs[2] < 1e-2


def test_generator_offset_eigenvector():
    e = coefs([ZETA])  # the worked rank-one eigenvector: offset -1
    sample = sr.generator_offset(e)
    assert abs(sample.offset - (-1.0)) < 1e-12
    # image = zeta * e exactly for this input
    assert np.linalg.norm(sample.image - ZETA * e) / np.linalg.norm(e) < 1e-12
    k = 0.7 - 0.2j
    sample2 = sr.generator_offset(k * e)
    assert abs(sample2.offset - (-k)) < 1e-12 * abs(k)


def test_generator_offset_phi0(grid, rng):
    sample = sr.generator_offset(np.eye(8)[0])
    assert abs(sample.offset + 1 / np.sqrt(np.pi)) < 1e-15
    # the image coefficients synthesize lam*f + k0 on the grid, for phi_0 and
    # for a random (D, m) block
    lam = grid.points()[:, None]
    block = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    for c in (np.eye(8)[:, :1], block):
        sample = sr.generator_offset(c)
        assert sample.offset.shape == (c.shape[1],)
        direct = lam * sr.mt_synthesize(c, grid).samples + sample.offset
        image = sr.mt_synthesize(sample.image, grid).samples
        assert np.abs(image - direct).max() < 1e-12 * np.abs(c).sum()


def test_generator_taylor_consistency():
    # C(t) f = f - i t (lam f + k0) + O(t^2), from the exact matrices
    e = coefs([ZETA])
    sample = sr.generator_offset(e)

    def residual(t):
        return np.linalg.norm(sr.apply_C(e, t) - (e - 1j * t * sample.image))

    r1, r2 = residual(0.2), residual(0.1)
    order = np.log2(r1 / r2)
    assert order > 1.9
    assert residual(1e-2) < 1e-3
    assert residual(1e-3) < 1e-5


# zeta = -i (1 + w)/(1 - w) for |w| <= 1/2: a lower pole whose basis
# coefficients shrink at least as fast as 2^-j, so 48 of them reach roundoff
_LOWER_POLE = st.builds(lambda r, a: -1j * (1 + r * np.exp(1j * a)) / (1 - r * np.exp(1j * a)),
                        st.floats(0, 0.5), st.floats(0, 2 * np.pi))
_KERNEL = st.lists(st.builds(lambda m, a: m * np.exp(1j * a), st.floats(0.1, 10),
                             st.floats(0, 2 * np.pi)), min_size=1, max_size=3).map(np.array)
_TIME = st.floats(0, 5)


@settings(max_examples=40, deadline=None)
@given(zeta=_LOWER_POLE, k=_KERNEL, s=_TIME, t=_TIME)
def test_coefficient_semigroup_identities(zeta, k, s, t):
    # k/(lam - zeta) with k in C^m: a (48, m) coefficient block
    c = np.outer(sr.gamov_coefficients(zeta, 48), k)
    size = np.linalg.norm(c)
    ct = sr.apply_C(c, t)
    assert np.linalg.norm(ct - np.exp(-1j * t * zeta) * c) <= 1e-12 * size
    assert np.linalg.norm(sr.apply_C(sr.apply_C(c, t), s) - sr.apply_C(c, s + t)) <= 1e-13 * size
    assert np.linalg.norm(ct) <= size * (1 + 1e-12)
    assert np.abs(sr.generator_offset(c).offset + k).max() <= 1e-12 * np.linalg.norm(k)


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
        evolved = sr.apply_C(sr.mt_coefficients_grid(adjoint_ref(f), budget), 1.0)
        transfer_ref = forward_ref(sr.mt_synthesize(evolved, g))
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


def _stored_factors(grid):
    """The grid's stored half-line Q and R factors."""
    return [a for q, r in _half_line_store(grid)[0] for a in (q, r)]


def test_polar_isometry_leaves_cached_basis_unchanged():
    # the basis matrix is cached and shared, so the factorization must copy it
    g = sr.make_grid(2**10, 50.0)
    phi = _phi_matrix(g, 40)
    before = phi.copy()
    iso = sr.build_polar_isometry(g, rank_budget=40)
    again = _phi_matrix(g, 40)
    assert np.shares_memory(again, phi)
    assert np.array_equal(again, before)
    # the factors are shared by every budget and must stay unchanged
    stored = [a.copy() for a in _stored_factors(g)]
    f = rational_sum(g, [ZETA, -1 - 2j])
    iso.forward(f)
    iso.adjoint(f)
    sr.transfer_apply(iso, f, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(_stored_factors(g), stored))


@pytest.mark.parametrize("n, half_extent", [(2**14, 400.0), (2**10, 50.0)])
def test_polar_isometry_budgets_share_the_grid_factorization(n, half_extent):
    g = sr.make_grid(n, half_extent)
    _half_line_store.cache_clear()
    sr.build_polar_isometry(g, rank_budget=48)
    q_minus, _, q_plus, _ = _stored_factors(g)
    for budget in (32, 40):
        iso = sr.build_polar_isometry(g, rank_budget=budget)
        assert np.shares_memory(iso._q_minus, q_minus)
        assert np.shares_memory(iso._q_plus, q_plus)
    # a wider budget widens the store; an isometry built before keeps its factors
    _half_line_store.cache_clear()
    narrow = sr.build_polar_isometry(g, rank_budget=32)
    minus = narrow._q_minus.copy()
    sr.build_polar_isometry(g, rank_budget=48)
    assert _stored_factors(g)[0].shape[1] == 48
    assert np.array_equal(narrow._q_minus, minus)


# Budgets built in this order on one grid, then each rebuilt on an empty store.
# Bit-identity needs one BLAS thread: with more, OpenBLAS splits the trailing
# columns of each reflector update between threads by their count, which can
# move the last bit of the narrower factorization.
_PREFIX_CHECK = """
import numpy as np
import scatres as sr
from scatres.semigroup import _half_line_store

cases = [((2**14, 400.0), (48, 32, 40)), ((2**10, 50.0), (48, 32, 40)),
         ((2**14, 400.0), (32, 48)), ((2**8, 400.0), (48, 128, 48))]


def build(g, budget):
    iso = sr.build_polar_isometry(g, rank_budget=budget)
    e = sr.grid_function(g, 1 / (g.points() - (1 - 1j)))
    return iso.singular_values, iso.forward(e).samples


for grid_args, budgets in cases:
    g = sr.make_grid(*grid_args)
    _half_line_store.cache_clear()
    shared = [build(g, budget) for budget in budgets]
    for budget, (s, fw) in zip(budgets, shared):
        _half_line_store.cache_clear()
        s_ref, fw_ref = build(g, budget)
        if not (np.array_equal(s, s_ref) and np.array_equal(fw, fw_ref)):
            print("differs:", grid_args, budgets, budget)
"""


def test_polar_isometry_budgets_are_prefixes_bit_for_bit():
    out = run_python("-c", _PREFIX_CHECK, OPENBLAS_NUM_THREADS="1")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", out.stdout


def test_polar_isometry_validation(grid):
    with pytest.raises(ValueError):
        sr.build_polar_isometry(grid, rank_budget=0)


def test_transfer_apply(grid):
    iso = sr.build_polar_isometry(grid, rank_budget=48)
    e = rational_sum(grid, [ZETA])
    re = iso.forward(e)
    # t = 0: identity on the final space
    assert sr.norm(sr.transfer_apply(iso, re, 0.0) - re) / sr.norm(re) < 1e-12
    # isometric conjugation preserves the evolved norm
    t = 0.8
    lhs = sr.norm(sr.transfer_apply(iso, re, t))
    evolved = sr.apply_C(sr.mt_coefficients_grid(iso.adjoint(re), 48), t)
    rhs = sr.norm(sr.mt_synthesize(evolved, grid))
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
