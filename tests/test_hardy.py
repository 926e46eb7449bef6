"""Grid, transform, projection, Cauchy-evaluation and basis tests."""

import tracemalloc

import numpy as np
import pytest

import scatres as sr
from conftest import lower_cauchy_leak, rational_sum
from scatres import hardy


def test_make_grid_basic():
    g = sr.make_grid(8, 4.0)
    assert g.spacing == 1.0
    assert g.points()[0] == -4.0
    g2 = sr.make_grid(2**14, 400.0)
    assert abs(g2.spacing - 800.0 / 16384) < 1e-15


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        sr.make_grid(7, 4.0)
    with pytest.raises(ValueError):
        sr.make_grid(8, -1.0)
    with pytest.raises(ValueError):
        sr.make_grid(1, 4.0)


def test_dual_grid_involution():
    g = sr.make_grid(2**10, 37.5)
    d = g.dual()
    assert d.n_points == g.n_points
    assert d.dual() == g
    # dual spacing times own spacing equals 2*pi/n
    assert abs(g.spacing * d.spacing - 2 * np.pi / g.n_points) < 1e-15


def test_fourier_gaussian_closed_form():
    g = sr.make_grid(2**12, 20.0)
    x = g.points()
    f = sr.grid_function(g, np.exp(-(x**2) / 2))
    fhat = sr.fourier(f, "forward")
    lam = fhat.grid.points()
    assert np.abs(fhat.samples[:, 0] - np.exp(-(lam**2) / 2)).max() < 1e-10


def test_fourier_roundtrip_and_parseval(grid, rng):
    f = sr.grid_function(grid, rng.standard_normal((grid.n_points, 2))
                         + 1j * rng.standard_normal((grid.n_points, 2)))
    fhat = sr.fourier(f, "forward")
    back = sr.fourier(fhat, "inverse")
    assert sr.norm(back - f) / sr.norm(f) < 1e-12
    assert abs(sr.norm(fhat) - sr.norm(f)) / sr.norm(f) < 1e-12


def test_fourier_direction_validation(grid):
    f = sr.grid_function(grid, np.ones(grid.n_points))
    with pytest.raises(ValueError):
        sr.fourier(f, "sideways")


def test_half_line_projection_indicator(grid):
    ones = sr.grid_function(grid, np.ones(grid.n_points))
    plus = sr.project_half_line(ones, "+")
    x = grid.points()
    assert np.all(plus.samples[x < 0] == 0)
    assert plus.samples[grid.n_points // 2, 0] == 1.0  # x = 0 belongs to '+'
    assert abs(sr.norm(plus) ** 2 - grid.half_extent) < 1e-10


def test_half_line_projector_algebra(grid, rng):
    f = sr.grid_function(grid, rng.standard_normal(grid.n_points)
                         + 1j * rng.standard_normal(grid.n_points))
    pp = sr.project_half_line(f, "+")
    pm = sr.project_half_line(f, "-")
    assert sr.norm(pp + pm - f) / sr.norm(f) < 1e-15
    assert sr.norm(sr.project_half_line(pp, "+") - pp) / sr.norm(f) < 1e-15


def test_hardy_projector_algebra_plain(grid, rng):
    f = sr.grid_function(grid, rng.standard_normal(grid.n_points)
                         + 1j * rng.standard_normal(grid.n_points))
    qp = sr.project_hardy(f, "+")
    qm = sr.project_hardy(f, "-")
    assert sr.norm(qp + qm - f) / sr.norm(f) < 1e-12
    assert sr.norm(sr.project_hardy(qp, "+") - qp) / sr.norm(f) < 1e-12


def test_hardy_identity_on_lower_pole(grid):
    # pole at -2i: an upper-Hardy element.  Masking loses ~sqrt(spacing) on
    # the x = 0 jump of its 1/lam tail; the masked projection is the
    # exact-projector path, not the accurate-value path
    f = rational_sum(grid, [-2j])
    plain = sr.norm(sr.project_hardy(f, "+") - f) / sr.norm(f)
    assert 1e-3 < plain < 0.2


def test_cauchy_eval_residue_oracle(grid):
    # residue theorem: value of the Hardy element at an upper point
    f = rational_sum(grid, [1 - 1j])
    got = sr.cauchy_eval(f, 1j)[0]
    assert abs(got - (-0.2 - 0.4j)) < 1e-4  # 1/(i-(1-i)) = (-1-2i)/5
    # no enclosed pole: lower-Hardy element evaluated above
    f2 = rational_sum(grid, [2j])
    assert abs(sr.cauchy_eval(f2, 3j)[0]) < 1e-4


def test_cauchy_eval_rejects_real_point(grid):
    f = rational_sum(grid, [-1j])
    with pytest.raises(ValueError):
        sr.cauchy_eval(f, 0.5)


def test_cauchy_refinement_reduces_error():
    errs = []
    for n, L in [(2**14, 400.0), (2**15, 800.0)]:
        g = sr.make_grid(n, L)
        f = rational_sum(g, [1 - 1j])
        errs.append(abs(sr.cauchy_eval(f, 1j)[0] - (-0.2 - 0.4j)))
    assert errs[1] < errs[0] / 2


def test_inner_norm_pi(big_grid):
    f = rational_sum(big_grid, [1 - 1j])
    assert abs(np.sqrt(sr.inner(f, f).real) - np.sqrt(np.pi)) / np.sqrt(np.pi) < 1e-3


def test_inner_symmetry_and_positivity(grid, rng):
    f = sr.grid_function(grid, rng.standard_normal(grid.n_points)
                         + 1j * rng.standard_normal(grid.n_points))
    g = sr.grid_function(grid, rng.standard_normal(grid.n_points)
                         + 1j * rng.standard_normal(grid.n_points))
    assert abs(sr.inner(f, g) - np.conj(sr.inner(g, f))) < 1e-12 * sr.norm(f) * sr.norm(g)
    assert sr.inner(f, f).real >= 0


def test_inner_grid_mismatch():
    f = sr.grid_function(sr.make_grid(8, 4.0), np.ones(8))
    g = sr.grid_function(sr.make_grid(16, 4.0), np.ones(16))
    with pytest.raises(ValueError):
        sr.inner(f, g)


def test_mt_basis_orthonormal(big_grid):
    worst_off, worst_norm = 0.0, 0.0
    for j in range(0, 11, 2):
        for k in range(0, 11, 2):
            val = sr.inner(sr.mt_basis(j, big_grid), sr.mt_basis(k, big_grid))
            if j == k:
                worst_norm = max(worst_norm, abs(np.sqrt(val.real) - 1.0))
            else:
                worst_off = max(worst_off, abs(val))
    assert worst_off < 1e-3
    assert worst_norm < 1e-3


def test_mt_basis_in_hardy_class(grid):
    # the Cauchy integral below the axis vanishes on the upper Hardy class ...
    assert lower_cauchy_leak(sr.mt_basis(3, grid)) < 1e-3
    # ... and reads order one on a function with an upper pole
    assert lower_cauchy_leak(rational_sum(grid, [2j])) > 0.1


def test_mt_basis_component_placement(grid):
    f = sr.mt_basis(2, grid, m=3, component=1)
    assert f.dim_k == 3
    assert np.all(f.samples[:, 0] == 0) and np.all(f.samples[:, 2] == 0)
    with pytest.raises(ValueError):
        sr.mt_basis(0, grid, m=2, component=2)
    with pytest.raises(ValueError):
        sr.mt_basis(-1, grid)


def test_mt_expand_exact_on_basis():
    for j in (0, 3, 9):
        c = sr.mt_expand(
            lambda lam, j=j: (lam - 1j) ** j / (np.sqrt(np.pi) * (lam + 1j) ** (j + 1)), 12
        )
        target = np.zeros(12)
        target[j] = 1.0
        assert np.abs(c - target).max() < 1e-12


def test_mt_expand_matches_residue_closed_form():
    zeta = 1 - 1j
    c = sr.mt_expand(lambda lam: 1 / (lam - zeta), 32)
    assert np.abs(c - sr.gamov_coefficients(zeta, 32)).max() < 1e-12


@pytest.fixture
def fresh_basis_cache():
    # the basis is cached per grid and only ever widened: start from an empty
    # cache so the widening order is the one under test, and leave none behind
    # so later tests on the same grids see the widths they ask for
    hardy._phi_store.cache_clear()
    yield
    hardy._phi_store.cache_clear()


def test_basis_counts_are_column_prefixes(fresh_basis_cache):
    g = sr.make_grid(2**14, 400.0)
    wide = hardy._phi_matrix(g, 48)
    assert hardy._phi_matrix(g, 48) is wide
    narrow = hardy._phi_matrix(g, 32)
    assert np.shares_memory(narrow, wide)
    assert np.array_equal(narrow, hardy._phi_samples(g.points(), 32))
    for phi in (wide, narrow):
        with pytest.raises(ValueError):
            phi[0, 0] = 0.0


def test_widening_the_store_keeps_one_copy(fresh_basis_cache):
    # the narrower store is released before the wider one is sampled: widening
    # the default grid from 48 to 49 columns peaks at the new store and a few
    # vector temporaries, not at both stores
    g = sr.make_grid(2**14, 400.0)
    tracemalloc.start()
    try:
        hardy._phi_matrix(g, 48)
        tracemalloc.reset_peak()
        wide = hardy._phi_matrix(g, 49)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wide.shape == (g.n_points, 49)
    assert peak < 1.1 * wide.nbytes


@pytest.mark.parametrize("n, half_extent, counts", [
    (2**14, 400.0, (8, 48, 16)),
    # at 48 columns on this coarse grid the Gram's condition number is 7e7,
    # beyond what any Gram solve recovers to 1e-12
    (2**10, 50.0, (8, 40, 16)),
])
def test_mt_coefficients_recover_span_in_any_count_order(fresh_basis_cache, n, half_extent,
                                                         counts):
    g = sr.make_grid(n, half_extent)
    rng = np.random.default_rng(n)
    for count in counts:
        c = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
        got = sr.mt_coefficients_grid(sr.mt_synthesize(c, g), count)
        assert np.abs(got - c).max() < 1e-12


def _fresh_coefficients(f, count):
    """Least-squares coefficients from a basis sampled at exactly ``count`` columns, nothing kept."""
    phi = hardy._phi_samples(f.grid.points(), count)
    rhs = f.grid.spacing * (phi.T @ f.samples.conj()).conj()
    row = f.grid.spacing * (phi[:, 0].conj() @ phi)
    return np.linalg.solve(hardy._toeplitz(row.conj(), row), rhs)


def test_gram_row_is_kept_per_grid_and_count(fresh_basis_cache, monkeypatch):
    g = sr.make_grid(2**10, 50.0)
    rng = np.random.default_rng(7)
    f = sr.grid_function(g, rng.standard_normal((g.n_points, 2)) + 1j * rng.standard_normal((g.n_points, 2)))
    products = []
    inner = hardy._phi_matrix

    def counted(grid, count):
        products.append(count)
        return inner(grid, count)

    monkeypatch.setattr(hardy, "_phi_matrix", counted)
    first = sr.mt_coefficients_grid(f, 20)
    row = hardy._gram_row(g, 20)
    again = sr.mt_coefficients_grid(f, 20)
    # mt_coefficients_grid takes the basis once a call, the row product once in all
    assert products == [20, 20, 20]
    assert hardy._gram_row(g, 20) is row
    with pytest.raises(ValueError):
        row[0] = 0.0
    assert np.array_equal(first, again)
    assert np.array_equal(first, _fresh_coefficients(f, 20))
    # a wider store keeps the narrower row, which still matches a fresh computation
    hardy._phi_matrix(g, 48)
    assert hardy._gram_row(g, 20) is row
    assert np.array_equal(sr.mt_coefficients_grid(f, 20), _fresh_coefficients(f, 20))
    assert np.array_equal(sr.mt_coefficients_grid(f, 32), _fresh_coefficients(f, 32))
    assert sorted(hardy._phi_store(g)[1]) == [20, 32]
    # the rows are evicted with the basis samples
    hardy._phi_store.cache_clear()
    assert hardy._phi_store(g)[1] == {}


@pytest.mark.parametrize("n, half_extent, count", [
    (2**14, 400.0, 64), (2**10, 50.0, 40), (2**15, 1600.0, 48),
])
def test_basis_gram_is_toeplitz(fresh_basis_cache, n, half_extent, count):
    # conj(phi_j) phi_k = t^(k-j)/(pi (1 + lam^2)) on the real line, so the
    # Gram matrix is fixed by its first row
    from scipy.linalg import toeplitz

    g = sr.make_grid(n, half_extent)
    phi = hardy._phi_matrix(g, count)
    row = g.spacing * (phi[:, 0].conj() @ phi)
    full = g.spacing * (phi.conj().T @ phi)
    assert np.abs(toeplitz(row.conj(), row) - full).max() < 1e-13


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
@pytest.mark.parametrize("rows, cols", [(5, 5), (9, 5), (1, 1)])
def test_toeplitz_gather_matches_scipy(dtype, rows, cols):
    from scipy.linalg import toeplitz

    rng = np.random.default_rng(rows + cols)
    col = (rng.standard_normal(rows) + 1j * rng.standard_normal(rows)).astype(dtype)
    row = (rng.standard_normal(cols) + 1j * rng.standard_normal(cols)).astype(dtype)
    assert col[0] != row[0]  # the diagonal is col[0]
    got = hardy._toeplitz(col, row)
    assert got.dtype == dtype
    assert np.array_equal(got, toeplitz(col, row))


def test_mt_synthesize_point_eval(grid):
    coefs = np.array([0.5, -0.25j, 0.1])
    f = sr.mt_synthesize(coefs, grid)
    j = 1000
    lam = grid.points()[j]
    assert abs(f.samples[j, 0] - sr.mt_point_eval(coefs, lam)[0]) < 1e-14
    # continuation below the axis agrees with the rational expression
    z = 0.3 - 2j
    direct = sum(
        c * (z - 1j) ** k / (np.sqrt(np.pi) * (z + 1j) ** (k + 1)) for k, c in enumerate(coefs)
    )
    assert abs(sr.mt_point_eval(coefs, z)[0] - direct) < 1e-14


def test_pairing_identity(grid):
    # <k/(.-zeta), g> = 2 pi i (k, g(conj zeta)) for g in the upper Hardy class
    zeta = 1 - 1j
    g = rational_sum(grid, [-1.5j, -0.5 - 2j], [1.0, 0.4])
    lhs = sr.inner(rational_sum(grid, [zeta]), g)
    rhs = 2j * np.pi * sr.cauchy_eval(g, np.conj(zeta))[0]
    assert abs(lhs - rhs) / abs(rhs) < 5e-3
