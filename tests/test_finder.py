"""Pole scanning, winding counts, Newton refinement, kernels, audits, exports."""

import json

import numpy as np
import pytest

import scatres as sr

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
    with pytest.raises(ValueError):
        sr.ScanRegion(-2, 2, -1, 1)  # crosses the cut


def test_refine_rankone():
    res = sr.refine(sr.RankOneModel(1.0), -0.5 - 1.5j, sheet=2)
    assert abs(res.zeta - (-2j)) < 1e-10
    assert res.kind == "resonance"
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


def test_kernel_vector_example1():
    k = sr.kernel_vector(sr.example1(), 1 - 1j)
    assert abs(abs(k[0]) - 1) < 1e-12
    with pytest.raises(ValueError):
        sr.kernel_vector(sr.example1(), -1 - 1j)  # regular point


def test_kernel_vector_rankone():
    k = sr.kernel_vector(sr.RankOneModel(1.0), -2j, sheet=2)
    assert abs(abs(k[0]) - 1) < 1e-12


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


def test_completeness_random_couplings():
    rng = np.random.default_rng(5)
    region = [sr.ScanRegion(-10, 10, -10, -0.01, sheet=2, resolution=61)]
    for a in rng.uniform(1e-3, 10.0, size=20):
        found = sr.find_resonances(sr.RankOneModel(float(a)), regions=region, rims=False)
        expected = a - 1 - 2j * np.sqrt(a)
        assert len(found) == 1
        assert abs(found[0].zeta - expected) < 1e-8


def test_winding_number_integer():
    fn = lambda z: (z - 0.3 + 0.2j) ** 2 * (z + 1)  # double zero inside, single outside
    w, raw = sr.winding_number(fn, 0.3 - 0.2j, 0.4, 0.4)
    assert w == 2 and abs(raw - 2) < 1e-3


def test_find_resonances_squarewell_rims():
    well = sr.SquareWellModel(10.0, 1.0)
    found = sr.find_resonances(well)
    bound = [r for r in found if r.kind == "bound_state"]
    assert len(bound) == len(well.bound_state_momenta()) == 1
    assert abs(bound[0].zeta - (-well.bound_state_momenta()[0] ** 2)) < 1e-8


def test_find_resonances_traceclass_off_axis():
    for a in (0.25, 1.0, 4.0):
        found = sr.find_resonances(sr.TraceClassModel(sr.rankone_trace_data(a)))
        res = [r for r in found if r.kind == "resonance"]
        assert len(res) == 1 and res[0].sheet == 2
        assert abs(res[0].zeta - (a - 1 - 2j * np.sqrt(a))) < 1e-8
        assert res[0].residual < 1e-10


class _NoOffAxisS(sr.SMatrixModel):
    """Pole condition with a zero at 1 - i, but no scattering matrix to classify it."""

    def pole_condition(self, z, sheet=1):
        return np.asarray(z, dtype=complex) - (1 - 1j)


def test_find_resonances_propagates_not_implemented():
    with pytest.raises(NotImplementedError):
        sr.find_resonances(_NoOffAxisS())


def test_exports(tmp_path):
    found = sr.find_resonances(sr.RankOneModel(1.0))
    records = sr.resonances_to_json(found)
    text = json.dumps(records)
    assert "resonance" in text
    path = tmp_path / "poles.csv"
    sr.resonances_to_csv(found, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_zeta,im_zeta,sheet,kind,residual"
    assert len(lines) == len(found) + 1
