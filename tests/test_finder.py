"""Pole scanning, winding counts, Newton refinement, kernels, audits, exports."""

import json
import os
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scatres as sr
from conftest import count_trace_T
from scatres.cli import main

SQ2 = np.sqrt(2.0)


def test_scan_example1_lower_region():
    cands = sr.scan_region(sr.example1(), sr.ScanRegion(0, 2, -2, -0.05, sheet=1))
    assert len(cands) == 1
    assert abs(cands[0] - (1 - 1j)) < 0.2


def test_scan_rankone_resonance():
    cands = sr.scan_region(sr.RankOneModel(1.0), sr.ScanRegion(-4, 4, -4, -0.05, sheet=2))
    assert len(cands) == 1
    assert abs(cands[0] - (-2j)) < 0.3


def test_scan_rankone_upper_sheet1_empty():
    cands = sr.scan_region(sr.RankOneModel(1.0), sr.ScanRegion(-4, 4, 0.05, 4, sheet=1))
    assert cands == []


def test_scan_region_validation():
    with pytest.raises(ValueError):
        sr.ScanRegion(1, 0, -1, -0.1)
    straddle = sr.ScanRegion(-2, 2, -1, 1)
    with pytest.raises(ValueError, match="crosses the cut"):
        straddle.check_model(sr.RankOneModel(1.0))
    straddle.check_model(sr.example1())  # a one-sheet model has no cut


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("index", range(4))
def test_scan_region_refuses_non_finite_bounds(index, bad):
    # a grid over an infinite side holds NaN, so no cell would ever become a candidate
    bounds = [-1.0, 1.0, -2.0, -0.1]
    bounds[index] = bad
    with pytest.raises(ValueError, match="bounds must be finite"):
        sr.ScanRegion(*bounds)


def test_one_sheet_region_straddles_the_axis():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = sr.find_resonances(sr.example1(), regions=[sr.ScanRegion(-2.2, 2.8, -2.3, 2.7)])
    assert [(r.sheet, r.kind) for r in found] == [(1, "antiresonance"), (1, "resonance")]
    assert abs(found[0].zeta - 1j) < 1e-12 and abs(found[1].zeta - (1 - 1j)) < 1e-12


def test_failed_refinement_is_a_named_failure():
    # a triple zero: its cell has winding 3, and Newton creeps instead of converging
    with pytest.raises(RuntimeError, match="Newton did not converge"):
        sr.find_resonances(sr.RationalModel([1 - 1j] * 3))


@pytest.mark.parametrize("model, sheet", [(sr.example1(), 2), (sr.example1(), 0),
                                          (sr.RankOneModel(1.0), 0), (sr.RankOneModel(1.0), 3)])
def test_scan_region_rejects_missing_sheet(model, sheet):
    with pytest.raises(ValueError, match=f"sheet must be one of .* got {sheet}"):
        sr.scan_region(model, sr.ScanRegion(0, 2, -2, -0.05, sheet=sheet))


def test_refine_rankone():
    res = sr.refine(sr.RankOneModel(1.0), -0.5 - 1.5j, sheet=2)
    assert abs(res.zeta - (-2j)) < 1e-10
    assert res.kind == "resonance"
    assert abs(abs(res.kernel[0]) - 1.0) < 1e-12
    assert res.residual < 1e-10


def test_refine_example1():
    res = sr.refine(sr.example1(), 1.2 - 0.8j, sheet=1)
    assert abs(res.zeta - (1 - 1j)) < 1e-12
    assert abs(abs(res.kernel[0]) - 1.0) < 1e-12
    assert res.residual < 1e-10


def test_rim_scan_bound_state():
    found = sr.rim_scan(sr.RankOneModel(-2.0), -8.0, -1e-6, sheet=1)
    assert len(found) == 1
    assert found[0].kind == "bound_state"
    assert abs(found[0].zeta - (-(3 - 2 * SQ2))) < 1e-10



def test_rim_scan_polishes_a_rounded_newton_step_without_bisecting():
    # the third iterate is the lower-rim root to rounding: its Newton step rounds
    # to nothing, and one probe 2 tol further closes the bracket
    class Counting(sr.RankOneModel):
        calls = 0

        def pole_condition(self, z, sheet=1):
            Counting.calls += 1
            return super().pole_condition(z, sheet)

    found = sr.rim_scan(Counting(-0.3), -8.0, -1e-6, sheet=2)
    assert Counting.calls <= 10
    expected = sorted(-(1 + s * np.sqrt(0.3)) ** 2 for s in (1, -1))
    assert len(found) == 2
    assert all(abs(r.zeta - e) <= 4e-15 * abs(e) for r, e in zip(found, expected))

def test_conjugate_pair_audit():
    ex1 = sr.example1()
    report = sr.conjugate_pair_audit(sr.find_resonances(ex1), ex1)
    assert report.ok  # {i, 1-i}: 1+i is a zero, not a pole
    r1 = sr.RankOneModel(1.0)
    report = sr.conjugate_pair_audit(sr.find_resonances(r1), r1)
    assert report.ok
    # a constructed violation: records at +-i injected into the audit
    # (unitary scalar products cannot realize such a pair: the conjugate factor
    # cancels it, which is the content of the no-conjugate-pairs condition)
    one = np.ones(1, dtype=complex)
    injected = [
        sr.Resonance(zeta=1j, sheet=1, kind="antiresonance", kernel=one, residual=0.0),
        sr.Resonance(zeta=-1j, sheet=1, kind="resonance", kernel=one, residual=0.0),
    ]
    report = sr.conjugate_pair_audit(injected, ex1)
    assert not report.ok and len(report.flagged) == 1


def test_audit_verdict_follows_its_pairs():
    one = np.ones(1, dtype=complex)
    pair = (sr.Resonance(zeta=1j, sheet=1, kind="antiresonance", kernel=one, residual=0.0),
            sr.Resonance(zeta=-1j, sheet=1, kind="resonance", kernel=one, residual=0.0))
    assert sr.AuditReport().ok
    report = sr.AuditReport(flagged=[pair])
    assert not report.ok
    with pytest.raises(AttributeError):
        report.ok = True


def test_completeness_random_couplings():
    rng = np.random.default_rng(5)
    region = [sr.ScanRegion(-10, 10, -10, -0.01, sheet=2)]
    for a in rng.uniform(1e-3, 10.0, size=20):
        found = sr.find_resonances(sr.RankOneModel(float(a)), regions=region)
        expected = a - 1 - 2j * np.sqrt(a)
        assert len(found) == 1
        assert abs(found[0].zeta - expected) < 1e-8


def test_find_resonances_separates_close_poles():
    # a split cell hands every quarter's candidate to Newton: none is merged away
    for poles in ([1 - 1j, 1.02 - 1j], [1 - 1j, 1.005 - 1j], [1 - 1j, 1.0001 - 1j],
                  [0.3 - 0.5j, 0.31 - 0.5j, 0.3 - 0.51j]):
        found = sr.find_resonances(sr.RationalModel(poles))
        assert len(found) == len(poles)
        for p in poles:
            assert min(abs(r.zeta - p) for r in found) < 1e-8
    cands = sr.scan_region(sr.RationalModel([1 - 1j, 1.02 - 1j]), sr.ScanRegion(-6, 6, -6, -0.02))
    assert len(cands) == 2


def _closed_form_poles(model):
    """(sheet, zeta) of the roots of ``eigen_momenta`` that the default scan covers.

    That is every root but the sheet-two antiresonance above the axis; rim roots
    are reported with a zero imaginary part.
    """
    poles = []
    for k in model.eigen_momenta():
        zeta = complex(k * k)
        if abs(k.real) < 1e-14:
            zeta = complex(zeta.real, 0.0)
        if zeta.imag <= 0:
            poles.append((1 if k.imag > 0 else 2, zeta))
    return sorted(poles, key=lambda p: (p[0], p[1].real, p[1].imag))


@settings(max_examples=25, deadline=None)
@given(exponent=st.floats(np.log10(0.03), np.log10(32)), sign=st.sampled_from([1, -1]))
def test_find_resonances_matches_closed_form_over_couplings(exponent, sign):
    # the default scan reaches every pole of strong couplings and finds no
    # spurious zero next to the positive axis
    a = sign * 10.0**exponent
    assume(abs(np.sqrt(abs(a)) - 1) > 1e-2)  # keeps |zeta| >= 1e-4, off the branch point
    expected = _closed_form_poles(sr.RankOneModel(a))
    for model, tol in ((sr.RankOneModel(a), 1e-8), (sr.TraceClassModel(sr.rankone_trace_data(a)), 1e-6)):
        found = sr.find_resonances(model)
        assert [r.sheet for r in found] == [sheet for sheet, _ in expected]
        for r, (_, zeta) in zip(found, expected):
            assert abs(r.zeta - zeta) <= tol * max(1.0, abs(zeta))
        assert not any(r.zeta.real > 0 and abs(r.zeta.imag) < 0.1 for r in found)


def test_user_regions_choose_the_rim_sheets():
    model = sr.RankOneModel(-2.0)  # bound state on sheet 1, rim pole on sheet 2
    for sheet, kind in ((1, "bound_state"), (2, "rim_pole")):
        found = sr.find_resonances(model, regions=[sr.ScanRegion(-6, -0.01, 0.01, 3, sheet=sheet)])
        assert [(r.sheet, r.kind) for r in found] == [(sheet, kind)]


def test_winding_number_integer():
    fn = lambda z: (z - 0.3 + 0.2j) ** 2 * (z + 1)  # double zero inside, single outside
    w, raw = sr.winding_number(fn, 0.3 - 0.2j, 0.4, 0.4)
    assert w == 2 and abs(raw - 2) < 1e-3


def test_find_resonances_squarewell_rims():
    well = sr.SquareWellModel(10.0, 1.0)
    found = sr.find_resonances(well)
    bound = [r for r in found if r.kind == "bound_state"]
    assert len(bound) == len(well.constraint_poles()) == 1
    assert abs(bound[0].zeta - well.constraint_poles()[0][0]) < 1e-8


def test_find_resonances_traceclass_off_axis():
    for a in (0.25, 1.0, 4.0):
        found = sr.find_resonances(sr.TraceClassModel(sr.rankone_trace_data(a)))
        res = [r for r in found if r.kind == "resonance"]
        assert len(res) == 1 and res[0].sheet == 2
        assert abs(res[0].zeta - (a - 1 - 2j * np.sqrt(a))) < 1e-8
        assert res[0].residual < 1e-10


def _two_channel_data(a1, a2):
    """Block-diagonal form factors ``A = diag(e, e)``, ``B = diag(a1 e, a2 e)`` of the rank-one ``e``."""
    one = sr.rankone_trace_data(1.0)
    e = one.a_vals[:, 0, 0]
    zero = np.zeros_like(e)
    a_vals = np.stack([np.stack([e, zero], -1), np.stack([zero, e], -1)], -2)
    b_vals = a_vals * np.array([a1, a2])
    def c_fun(k):
        return one.c_fun(k) * np.diag([a1, a2])
    return sr.TraceClassData(lam=one.lam, weights=one.weights, a_vals=a_vals, b_vals=b_vals,
                             c_fun=c_fun, tail_bound=one.tail_bound * max(abs(a1), abs(a2)))


def test_find_resonances_two_channel_kernels():
    # L is 2x2: each channel's resonance has the kernel of its own channel
    found = sr.find_resonances(sr.TraceClassModel(_two_channel_data(1.0, 4.0)))
    assert [(r.sheet, r.kind) for r in found] == [(2, "resonance")] * 2
    for r, zeta, kernel in zip(found, (-2j, 3 - 4j), ([1, 0], [0, 1])):
        assert abs(r.zeta - zeta) < 1e-6
        assert abs(abs(np.vdot(kernel, r.kernel)) - 1) < 1e-6
        assert r.residual < 1e-10


def test_find_resonances_samples_the_traceclass_rim_grid_once(monkeypatch):
    # both sheets' rim samples come from one quadrature T on the shared grid
    model = sr.TraceClassModel(sr.rankone_trace_data(-2.0))
    calls = count_trace_T(monkeypatch)
    found = sr.find_resonances(model)
    assert calls.count((4001,)) == 1
    assert [(r.sheet, r.kind) for r in found] == [(1, "bound_state"), (2, "rim_pole")]


class _SheetBySheet(sr.TraceClassModel):
    """The per-sheet reference: each sheet's pole condition from its own trace_T call."""

    def pole_conditions(self, z, sheets):
        return [np.linalg.det(sr.build_L(self.data, z, s)) for s in sheets]


def _records(model):
    try:
        return [r.as_record() for r in sr.find_resonances(model)]
    except Exception as exc:  # the shared path must fail alike
        return repr(exc)


@settings(max_examples=15, deadline=None)
@given(exponent=st.floats(np.log10(0.03), np.log10(32)), sign=st.sampled_from([1, -1]),
       channels=st.sampled_from([1, 2]))
@example(exponent=0.0, sign=1, channels=2)
def test_shared_trace_T_keeps_every_record(exponent, sign, channels):
    # zeta, sheet, kind, residual, kernel and Newton count equal the per-sheet path bit for bit
    a = sign * 10.0**exponent
    data = sr.rankone_trace_data(a) if channels == 1 else _two_channel_data(a, 4.0)
    assert _records(sr.TraceClassModel(data)) == _records(_SheetBySheet(data))


def test_kernel_phase_makes_largest_entry_positive():
    res = sr.refine(sr.TraceClassModel(_two_channel_data(1.0, 4.0)), 3.01 - 4.01j, sheet=2)
    assert np.abs(res.kernel - [0, 1]).max() < 1e-6
    assert res.kernel[1].imag == 0


class _NoOffAxisS(sr.SMatrixModel):
    """Pole condition with a zero at 1 - i, but multiplicity two: no derived S to classify it."""

    dim_k = 2

    def pole_condition(self, z, sheet=1):
        return np.asarray(z, dtype=complex) - (1 - 1j)


def test_find_resonances_propagates_not_implemented():
    with pytest.raises(NotImplementedError):
        sr.find_resonances(_NoOffAxisS())


def test_exports(tmp_path, monkeypatch):
    found = sr.find_resonances(sr.RankOneModel(1.0))
    records = sr.resonances_to_json(found)
    text = json.dumps(records)
    assert "resonance" in text
    path = tmp_path / "poles.csv"  # a pathlib.Path target
    sr.resonances_to_csv(found, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_zeta,im_zeta,sheet,kind,residual"
    assert len(lines) == len(found) + 1
    # the CLI writes the same bytes for the same model
    result = CliRunner().invoke(main, ["resonances", "--model", "rankone", "--a", "1",
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "cli" / "poles.csv").read_bytes() == path.read_bytes()
    # a write that fails at the rename leaves the earlier file whole and no temporary file
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        sr.resonances_to_csv(found[:1], str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cli", "poles.csv"]
