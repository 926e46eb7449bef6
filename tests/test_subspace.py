"""Constrained subspaces, the admissible complement, restricted evolution,
resolvent construction, and survival curves."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scatres as sr
from conftest import lower_cauchy_leak
from scatres import smatrix, subspace

ZETA = 1 - 1j
SQ2 = np.sqrt(2.0)


def test_N_members_vanish_at_upper_pole(ex1_bases, grid):
    model, nb, _, _ = ex1_bases
    # truncation-exact evaluation at the constrained point
    for i in range(nb.dim):
        assert abs(sr.mt_point_eval(nb.coefs[:, i], 1j)[0]) < 1e-8
    # grid-side Cauchy evaluation confirms at its own quadrature accuracy
    worst = max(abs(sr.cauchy_eval(m, 1j)[0]) for m in nb.members[:4])
    assert worst < 2e-3


def test_N_basis_orthonormal(ex1_bases):
    _, nb, _, _ = ex1_bases
    gram = nb.coefs.conj().T @ nb.coefs
    assert np.abs(gram - np.eye(nb.dim)).max() < 1e-12


def test_N_basis_rim_mode_vanishing(grid):
    model = sr.RankOneModel(-2.0)
    nb = sr.build_N_basis(model, 16, "rim_poles", grid)
    bound = -(3 - 2 * SQ2)
    for i in range(0, nb.dim, 5):
        # first-order vanishing at the bound-state rim pole
        assert abs(sr.mt_point_eval(nb.coefs[:, i], bound)[0]) < 1e-10
        # second-order vanishing at the form-factor rim pole
        val0 = sr.mt_point_eval(nb.coefs[:, i], -1.0)[0]
        val1 = (sr.mt_point_eval(nb.coefs[:, i], -1 + 1e-5)[0]
                - sr.mt_point_eval(nb.coefs[:, i], -1 - 1e-5)[0]) / 2e-5
        assert abs(val0) < 1e-10 and abs(val1) < 1e-5


def _fft_reference_coefs(factors, n):
    """Constrained columns by 2^16-point FFT quadrature of the multiplied basis."""
    d_work = n + sum(g for _, g in factors)

    def multiplier(lam):
        out = np.ones_like(lam, dtype=complex)
        for pos, g in factors:
            out = out * ((lam - pos) / (lam + 1j)) ** g
        return out

    cols = np.empty((d_work, n), dtype=complex)
    for j in range(n):
        def fn(lam, j=j):
            return multiplier(lam) * (lam - 1j) ** j / (np.sqrt(np.pi) * (lam + 1j) ** (j + 1))
        cols[:, j] = sr.mt_expand(fn, d_work)
    q, _ = np.linalg.qr(cols)
    return q


class _RimStub(sr.SMatrixModel):
    """Two-sheet stub that only reports rim poles."""

    name = "rimstub"
    sheet_count = 2

    def __init__(self, rim):
        self.rim = rim

    def constraint_poles(self):
        return self.rim


_ORDER = st.integers(1, 2)
_UPPER = st.lists(
    st.tuples(st.floats(-3, 3), st.floats(0.2, 3), _ORDER),
    max_size=3, unique_by=lambda p: (p[0], p[1]))
# rim positions on a 0.25 lattice: rim roots sit on |t| = 1, where nearly
# coincident ones make the constrained family ill-conditioned for any construction
_RIM = st.lists(st.tuples(st.integers(1, 20), _ORDER), min_size=1, max_size=3,
                unique_by=lambda p: p[0])


@settings(max_examples=25, deadline=None)
@given(upper=_UPPER, rim=_RIM, n=st.integers(1, 12), use_rim=st.booleans())
def test_N_basis_matches_fft_reference(grid, upper, rim, n, use_rim):
    if use_rim:
        rim = sorted((-0.25 * k, g) for k, g in rim)
        model, mode = _RimStub(rim), "rim_poles"
        points = [pos for pos, _ in rim]
    else:
        poles = [complex(re, im) for re, im, g in upper for _ in range(g)]
        model, mode = sr.RationalModel(poles), "upper_poles"
        points = [complex(re, im) for re, im, _ in upper]
    nb = sr.build_N_basis(model, n, mode, grid)
    ref = _fft_reference_coefs(nb.params["constraints"], n)
    proj = nb.coefs @ nb.coefs.conj().T
    assert np.abs(proj - ref @ ref.conj().T).max() <= 1e-12
    for z in points:
        assert np.abs(sr.mt_point_eval(nb.coefs, z)).max() < 1e-10


def _circle_reference_M_and_T(model, nb, cutoff=1e-6, n_theta=2**16):
    """M/T split by sampling S and every N column on the circle, one FFT per column.

    Runs in extended precision: near rim poles |S| reaches 1e11 on the circle,
    and the double roundoff of the N samples there alone moves the singular
    values by up to 2.6e-10 of s[0] (a = -3.75, n = 1).
    """
    theta = 2 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    lam = -1.0 / np.tan(theta / 2)
    d = nb.working_dim
    k = np.arange(d)
    phase = np.exp(1j * np.pi * k.astype(np.longdouble) / n_theta)
    padded = np.zeros((n_theta, nb.dim), dtype=np.clongdouble)
    padded[:d] = nb.coefs * phase[:, None]
    w = np.fft.ifft(padded, axis=0, norm="forward") * model.boundary(lam, "+")[:, 0, :]
    coef = np.fft.fft(w, axis=0, norm="forward")
    m_cols = (phase.conj()[:, None] * coef[:d]).astype(complex)
    neg = (phase[1:, None] * coef[n_theta - k[1:]]).astype(complex)
    leakage = np.linalg.norm(neg, axis=0) / np.linalg.norm(m_cols, axis=0)
    u, s, _ = np.linalg.svd(m_cols)
    rank = int(np.sum(s >= cutoff * s[0]))
    return u[:, :rank], u[:, rank:], s, leakage


_POLES = st.lists(st.tuples(st.floats(-3, 3), st.floats(0.2, 3), st.booleans()),
                  max_size=4, unique_by=lambda p: (p[0], p[1]))
# a = k/4 except a = 0 (no coupling) and a = -4, where the bound state meets the
# double form-factor rim pole at -1: there the T projectors from 2^18- and
# 2^19-point circles already differ by 2e-4 (n = 32), for either construction
_COUPLING = st.integers(-40, 40).filter(lambda k: k not in (0, -16))


@settings(max_examples=25, deadline=None)
@given(poles=_POLES, k=_COUPLING, n=st.integers(1, 12), use_rankone=st.booleans())
# the strong couplings of the decay benchmark, beyond the strategy's |a| <= 10
@example(poles=[], k=64, n=12, use_rankone=True)
@example(poles=[], k=109, n=12, use_rankone=True)
@example(poles=[], k=-76, n=12, use_rankone=True)
@example(poles=[], k=-117, n=12, use_rankone=True)
def test_M_and_T_matches_circle_reference(grid, poles, k, n, use_rankone):
    if use_rankone:
        # S grows near the rim poles, which amplifies roundoff in either construction
        model, mode, tol = sr.RankOneModel(k / 4), "rim_poles", 1e-8
    else:
        model = sr.RationalModel([complex(re, im if up else -im) for re, im, up in poles])
        mode, tol = "upper_poles", 1e-10
    nb = sr.build_N_basis(model, n, mode, grid)
    mb, tb = sr.build_M_and_T(model, nb)
    m_ref, t_ref, s_ref, leak_ref = _circle_reference_M_and_T(model, nb)
    for basis, ref in ((mb, m_ref), (tb, t_ref)):
        assert basis.dim == ref.shape[1]
        assert np.abs(basis.coefs @ basis.coefs.conj().T - ref @ ref.conj().T).max() <= tol
    assert np.abs(np.array(mb.diagnostics["hardy_leakage"]) - leak_ref).max() <= tol
    s = np.array(mb.diagnostics["singular_values"])
    assert np.abs(s - s_ref).max() <= 1e-10 * s_ref[0]



def test_rational_M_and_T_never_sample_S(grid, monkeypatch):
    model = sr.RationalModel([1j, 1 - 1j, 0.5 + 0.3j, 0.5 + 0.3j])

    def refuse(lam, side="+"):
        raise AssertionError("a rational S is sampled on the circle")

    nb = sr.build_N_basis(model, 16, "upper_poles", grid)
    monkeypatch.setattr(model, "boundary", refuse)
    mb, tb = sr.build_M_and_T(model, nb)
    assert mb.dim + tb.dim == nb.working_dim and tb.dim == 3


def test_overflowing_S_raises_before_fft_and_product(grid, monkeypatch):
    # S of this weak well overflows on the circle: every coefficient is then
    # NaN, and neither the circle FFT, the extended-precision spike sums nor the
    # Toeplitz product runs
    model = sr.SquareWellModel(0.2211524855348381, 1.9838212674034716)
    nb = sr.build_N_basis(model, 12, "rim_poles", grid)

    def refuse(*args, **kwargs):
        raise AssertionError("non-finite circle samples reached the FFT or the product")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(smatrix, "_spike_sums", refuse)
    monkeypatch.setattr(subspace, "_toeplitz", refuse)
    assert np.isnan(model.circle_coefficients(np.arange(-4, 4), 2**16)).all()
    with pytest.raises(FloatingPointError, match="S·N overflows"):
        sr.build_M_and_T(model, nb)


def test_finite_S_N_with_overflowing_norms_is_named(grid):
    # S·N of this well is finite (largest entry 3.84e204), but its column norms
    # square the entries past the double range
    model = sr.SquareWellModel(0.2611561959275361, 1.2130020693182535)
    nb = sr.build_N_basis(model, 40, "rim_poles", grid)
    with pytest.raises(FloatingPointError,
                       match=r"S·N is finite \(largest entry 3\.84e\+204\).*unbounded on the circle"):
        sr.build_M_and_T(model, nb)


def test_trace_class_N_basis_is_refused(grid):
    # form-factor data declare no rim poles, so N could not be constrained
    model = sr.TraceClassModel(sr.rankone_trace_data(1.0))
    with pytest.raises(NotImplementedError, match="rim poles"):
        sr.build_N_basis(model, 16, "rim_poles", grid)


def test_N_basis_validation(grid):
    with pytest.raises(ValueError):
        sr.build_N_basis(sr.example1(), 0, "upper_poles", grid)
    with pytest.raises(ValueError):
        sr.build_N_basis(sr.example1(), 8, "sideways", grid)


@pytest.mark.parametrize("model, mode, expected", [
    (sr.example1(), "rim_poles", "upper_poles"),
    (sr.RankOneModel(1.0), "upper_poles", "rim_poles"),
])
def test_N_basis_mode_must_match_sheet_count(grid, model, mode, expected):
    # the mode restates the sheet count, so a mismatch is a caller's error
    with pytest.raises(ValueError, match=expected):
        sr.build_N_basis(model, 16, mode, grid)


def test_no_pole_model_gives_trivial_T(grid):
    model = sr.RationalModel([])  # identity scattering, no constraints
    nb = sr.build_N_basis(model, 12, "upper_poles", grid)
    assert nb.working_dim == nb.dim == 12
    _, tb = sr.build_M_and_T(model, nb)
    assert tb.dim == 0


def test_example1_dim_T_and_angle(ex1_bases):
    _, _, mb, tb = ex1_bases
    assert tb.dim == 1
    ec = sr.gamov_coefficients(ZETA, tb.working_dim)
    ecn = ec / np.linalg.norm(ec)
    angle = np.arccos(min(1.0, np.linalg.norm(tb.coefs.conj().T @ ecn)))
    assert angle < 1e-2
    # T is orthogonal to M exactly in the truncation
    assert np.abs(tb.coefs.conj().T @ mb.coefs).max() < 1e-12


def test_M_members_in_hardy_class(ex1_bases):
    _, _, mb, _ = ex1_bases
    for member in mb.members[:4]:
        assert lower_cauchy_leak(member) < 1e-3
    assert max(mb.diagnostics["hardy_leakage"]) < 1e-6


def test_rankone_gamov_in_T(rankone_bases):
    _, _, _, tb = rankone_bases
    ec = sr.gamov_coefficients(-2j, tb.working_dim)
    ecn = ec / np.linalg.norm(ec)
    angle = np.arccos(min(1.0, np.linalg.norm(tb.coefs.conj().T @ ecn)))
    assert angle < 1e-2


def test_pole_kernel_orthogonal_to_image(ex1_bases, rankone_bases):
    for model, nb, mb, _ in (ex1_bases, rankone_bases):
        zeta = 1 - 1j if model.sheet_count == 1 else -2j
        ec = sr.gamov_coefficients(zeta, nb.working_dim)
        worst = max(
            abs(np.vdot(ec, mb.coefs[:, i])) / np.linalg.norm(ec) for i in range(mb.dim)
        )
        assert worst < 1e-3


def test_gamov_vector(grid):
    e = sr.gamov(ZETA, 1.0, grid)
    assert abs(sr.norm(e) - np.sqrt(np.pi)) / np.sqrt(np.pi) < 1e-3
    assert lower_cauchy_leak(e) < 1e-3
    with pytest.raises(ValueError):
        sr.gamov(1 + 1j, 1.0, grid)
    with pytest.raises(ValueError):
        sr.gamov(ZETA, 0.0, grid)


def test_restricted_apply_eigenrelation(ex1_bases, grid):
    _, _, mb, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    for t in (0.5, 1.0, 2.0):
        out = sr.restricted_apply(tb, e, t)
        assert sr.norm(out - np.exp(-1j * t * ZETA) * e) / sr.norm(e) < 1e-2
    # t = 0 reproduces the projection
    out0 = sr.restricted_apply(tb, e, 0.0)
    again = sr.restricted_apply(tb, out0, 0.0)
    assert sr.norm(again - out0) / sr.norm(out0) < 1e-10
    # image stays orthogonal to M (invariance of the complement)
    c = sr.mt_coefficients_grid(sr.restricted_apply(tb, e, 1.0), tb.working_dim)[:, 0]
    leak = np.linalg.norm(mb.coefs.conj().T @ c) / np.linalg.norm(c)
    assert leak < 1e-2


def test_restricted_apply_semigroup_law(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    lhs = sr.restricted_apply(tb, sr.restricted_apply(tb, e, 0.5), 0.7)
    rhs = sr.restricted_apply(tb, e, 1.2)
    assert sr.norm(lhs - rhs) / sr.norm(e) < 1e-2


def test_restricted_apply_strong_decay(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    t_star = 3.0 / abs(ZETA.imag)
    assert sr.norm(sr.restricted_apply(tb, e, t_star)) < 0.05 * sr.norm(e)


def test_restricted_apply_rejects_orthogonal_input(ex1_bases, grid):
    _, _, mb, tb = ex1_bases
    with pytest.raises(RuntimeError):
        sr.restricted_apply(tb, mb.members[0], 1.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sr.restricted_apply(tb, mb.members[0], bad)


def test_b_matrix_spectrum(ex1_bases, rankone_bases, grid):
    # single-sheet worked case: the compression spectrum IS the resonance set
    _, _, _, tb = ex1_bases
    ev = np.linalg.eigvals(sr.b_matrix(tb))
    assert min(abs(ev - ZETA)) < 1e-2
    assert not [z for z in ev if abs(z.imag) > 0.05 and abs(z - ZETA) > 1e-2]
    # two-sheet case: the resonance appears exactly; the complement also holds a
    # rim-attached direction whose compressed eigenvalue is stable under basis
    # refinement (genuine subspace content, not discretization noise)
    model, _, _, tb2 = rankone_bases
    ev2 = np.linalg.eigvals(sr.b_matrix(tb2))
    assert min(abs(ev2 - (-2j))) < 1e-2
    nb_fine = sr.build_N_basis(model, 40, "rim_poles", grid)
    _, tb_fine = sr.build_M_and_T(model, nb_fine)
    ev_fine = np.linalg.eigvals(sr.b_matrix(tb_fine))
    for z in ev2:
        assert min(abs(ev_fine - z)) < 1e-2


def test_resolve_B_on_eigenvector(grid):
    # (B - z)^-1 e = e/(zeta - z) for the slowest Gamov vector, on both sides
    # of the axis
    for poles in (
        [1j, 1 - 1j],  # example1
        [1 - 1j, 0.5 + 0.3j, 0.5 + 0.3j],  # double upper pole
        [0.2 - 0.8j, 0.1 + 0.05j],  # upper pole near the axis
        [-1 - 0.7j, 2 + 2j, -2 + 0.2j, -1.5 - 1j],
    ):
        model = sr.RationalModel(poles)
        zeta = max((p for p in poles if p.imag < 0), key=lambda p: p.imag)
        _, tb = sr.build_M_and_T(model, sr.build_N_basis(model, 16, "upper_poles", grid))
        e = sr.gamov(zeta, 1.0, grid)
        for z in (-3j, -5j, 2 - 4j, -2 - 6j, 1 + 1j, 2j):
            f = sr.resolve_B(tb, e, z, resonances=[zeta])
            target = e * (1 / (zeta - z))
            assert sr.norm(f - target) / sr.norm(target) < 1e-6, (poles, z)


def test_resolve_B_round_trip_real_points(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    for z in (0.5, 2.0):
        f = sr.resolve_B(tb, e, z, resonances=[ZETA])
        assert sr.resolvent_residual(tb, f, e, z) < 1e-2


def test_resolvent_residual_reads_the_first_columns(ex1_bases, grid):
    # f and g are projected side by side in one call; with more than one
    # column the residual is that of the first columns, as for one column
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    z = -3j
    f = sr.resolve_B(tb, e, z, resonances=[ZETA])
    one = sr.resolvent_residual(tb, f, e, z)
    extra = sr.gamov(2 - 1j, 1.0, grid).samples
    two = sr.resolvent_residual(tb, sr.GridFunction(grid, np.hstack([f.samples, extra])),
                                sr.GridFunction(grid, np.hstack([e.samples, 3 * extra])), z)
    assert one < 1e-4
    assert abs(two - one) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(coefs=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False), min_size=1, max_size=9),
       xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
@example(coefs=[0j], xs=[0.0, -0.0])
def test_multiplier_is_polyval_bit_for_bit(coefs, xs):
    # the Horner loop below the axis repeats polyval's steps, so the
    # continuation's values are those of np.polynomial, signed zeros included
    poly = np.array(coefs, dtype=complex)
    for x in (np.array(xs), np.conj(complex(xs[0], -1.0))):
        want = np.polynomial.polynomial.polyval((x - 1j) / (x + 1j), poly)
        got = subspace._multiplier(poly, x)
        assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))


def test_resolve_B_rankone_rim_branch(rankone_bases, grid):
    # the two-sheet continuation chain with the rim-pole weight
    _, _, _, tb = rankone_bases
    e = sr.gamov(-2j, 1.0, grid)
    for z in (-0.5 - 1j, 0.7):
        f = sr.resolve_B(tb, e, z, resonances=[-2j])
        target = e * (1 / (-2j - z))
        assert sr.norm(f - target) / sr.norm(target) < 1e-2


def test_resolve_B_at_grid_sample(ex1_bases, rankone_bases, grid):
    # z = 0 is a sample of the grid, where f takes the derivative of the expansion of g
    for (_, _, _, tb), zeta, tol in ((ex1_bases, ZETA, 1e-4), (rankone_bases, -2j, 1e-6)):
        e = sr.gamov(zeta, 1.0, grid)
        f = sr.resolve_B(tb, e, 0.0, resonances=[zeta])
        target = e * (1 / zeta)
        assert sr.norm(f - target) / sr.norm(target) < tol


def test_resolve_B_rejects_resonance_point(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    with pytest.raises(ValueError):
        sr.resolve_B(tb, e, ZETA, resonances=[ZETA])


def test_transition_curve_decay_law(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    e = e * (1 / sr.norm(e))
    times = np.linspace(0, 3, 13)
    curve = sr.transition_curve(e, times, "decay", t_basis=tb, zeta=ZETA)
    assert abs(abs(curve.overlaps[0]) - sr.norm(e) ** 2) < 1e-10
    rel = np.abs(np.abs(curve.overlaps) - curve.reference) / curve.reference
    assert rel.max() < 1e-2
    # squared version against exp(-2 t |Im zeta|)
    sq = np.abs(curve.overlaps) ** 2
    rel2 = np.abs(sq - np.exp(-2 * times * abs(ZETA.imag))) / np.exp(-2 * times * abs(ZETA.imag))
    assert rel2.max() < 2e-2
    assert np.all(np.diff(curve.norms) <= 1e-12)


def test_transition_curve_unitary_mode(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    iso = sr.build_polar_isometry(grid, rank_budget=48)
    e = sr.gamov(ZETA, 1.0, grid)
    e = e * (1 / sr.norm(e))
    times = [0.0, 0.5, 1.0, 2.0]
    curve = sr.transition_curve(e, times, "unitary", isometry=iso, zeta=ZETA)
    assert abs(abs(curve.overlaps[0]) - 1.0) < 1e-3
    # the overlaps <rf, e^{-it lam} rf> over the whole grid, phases included
    rf = iso.forward(e)
    full = [sr.inner(sr.apply_T(rf, t), rf) for t in times]
    assert np.abs(curve.overlaps - full).max() < 1e-12
    # unitary survival exceeds the semigroup decay at late times for this state
    decay = sr.transition_curve(e, times, "decay", t_basis=tb, zeta=ZETA)
    assert abs(curve.overlaps[-1]) != pytest.approx(abs(decay.overlaps[-1]), rel=1e-3)



@pytest.mark.parametrize("n, half_extent", [(2**14, 400.0), (2**10, 50.0), (2**15, 1600.0)])
def test_transition_curve_unitary_phases_factor_exactly(n, half_extent):
    grid = sr.make_grid(n, half_extent)
    e = sr.gamov(ZETA, 1.0, grid)
    e = e * (1 / sr.norm(e))
    times = [0.0, 0.013, 1.7, 2.9]
    # an identity "isometry": the curve is the phase sum of e's own lam >= 0 half
    curve = sr.transition_curve(e, times, "unitary", isometry=SimpleNamespace(forward=lambda f: f))
    lam = grid.points()[n // 2:]
    weights = grid.spacing * np.abs(e.samples[n // 2:, 0]) ** 2
    direct = [np.dot(np.exp(-1j * t * lam), weights) for t in times]
    assert np.abs(curve.overlaps - direct).max() <= 1e-14


def _per_time_semigroup_matrix(t, dim):
    """The semigroup matrix from a scalar Laguerre recurrence at one time."""
    x = 2 * t
    la = np.empty(dim + 1)
    la[0], la[1] = 1.0, 1.0 - x
    for m in range(1, dim):
        la[m + 1] = ((2 * m + 1 - x) * la[m] - m * la[m - 1]) / (m + 1)
    row = np.exp(-t) * np.concatenate([[1.0], la[1:dim] - la[: dim - 1]])
    return np.triu(row[np.maximum(np.arange(dim) - np.arange(dim)[:, None], 0)])


@pytest.mark.parametrize("dim", [1, 2, 33])
@pytest.mark.parametrize("times", [[0.0], [1.3], [0.0, 0.1, 0.1, 0.5, 3.0, 3.0], [0.1 * i for i in range(31)]])
def test_decay_curve_matches_per_time_semigroup_loop(grid, monkeypatch, dim, times):
    # one recurrence over every time and a hoisted u @ ct give the overlaps and
    # norms of a loop that builds each time's matrix and product afresh
    rng = np.random.default_rng(dim)
    shape = (dim, max(1, dim // 2))
    u, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    tb = subspace.SubspaceBasis(role="T", grid=grid, coefs=u, model=sr.example1(), params={}, diagnostics={})
    f = sr.mt_synthesize(rng.normal(size=dim) + 1j * rng.normal(size=dim), grid)
    calls = []
    monkeypatch.setattr(subspace, "semigroup_matrix", lambda *args: calls.append(args))
    curve = sr.transition_curve(f, times, "decay", t_basis=tb)
    assert calls == []
    c = sr.mt_coefficients_grid(f, dim)[:, 0]
    ct = u.conj().T @ c
    for t, overlap, norm in zip(times, curve.overlaps, curve.norms):
        cmat = _per_time_semigroup_matrix(t, dim)
        assert np.array_equal(cmat, sr.semigroup_matrix(t, dim))
        ev = u.conj().T @ (cmat @ (u @ ct))
        assert overlap == complex(np.vdot(ct, ev))
        assert norm == float(np.linalg.norm(ev))


def test_transition_curve_validation(ex1_bases, grid):
    _, _, _, tb = ex1_bases
    e = sr.gamov(ZETA, 1.0, grid)
    with pytest.raises(ValueError):
        sr.transition_curve(e, [], "decay", t_basis=tb)
    with pytest.raises(ValueError):
        sr.transition_curve(e, [0.0, 1.0], "decay")
    with pytest.raises(ValueError):
        sr.transition_curve(e, [0.0, 1.0], "sideways", t_basis=tb)
    for times in ([-1.0, 0.0], [0.0, np.nan], [np.nan], [0.0, np.inf], [1.0, 0.5]):
        with pytest.raises(ValueError):
            sr.transition_curve(e, times, "decay", t_basis=tb)


def test_basis_diagnostics_json(ex1_bases):
    import json

    _, nb, _, tb = ex1_bases
    for basis in (nb, tb):
        blob = json.dumps(sr.basis_diagnostics(basis))
        assert basis.role in blob
