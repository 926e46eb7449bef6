"""Command-line contract: files, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import scatres
from scatres.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_resonances_rankone(runner, tmp_path):
    result = runner.invoke(main, ["resonances", "--model", "rankone", "--a", "1.0",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "poles.json").read_text())
    assert payload["audit_ok"] is True
    rows = payload["resonances"]
    res = [r for r in rows if r["kind"] == "resonance"]
    assert len(res) == 1
    assert abs(res[0]["re_zeta"]) < 1e-8 and abs(res[0]["im_zeta"] + 2.0) < 1e-8
    assert res[0]["sheet"] == 2
    assert "-2.000000i" in result.output.replace("+0.000000", "").replace("-0.000000", "-2.000000" ) or "resonance" in result.output
    csv_text = (tmp_path / "poles.csv").read_text()
    assert csv_text.startswith("re_zeta,im_zeta,sheet,kind,residual")


def test_resonances_example1(runner, tmp_path):
    result = runner.invoke(main, ["resonances", "--model", "example1", "--out", str(tmp_path)])
    assert result.exit_code == 0
    rows = json.loads((tmp_path / "poles.json").read_text())["resonances"]
    kinds = sorted(r["kind"] for r in rows)
    assert kinds == ["antiresonance", "resonance"]
    positions = [complex(r["re_zeta"], r["im_zeta"]) for r in rows]
    assert any(abs(z - 1j) < 1e-8 for z in positions)
    assert any(abs(z - (1 - 1j)) < 1e-8 for z in positions)


def test_resonances_malformed_spec(runner, tmp_path):
    result = runner.invoke(main, ["resonances", "--model", '{"model": ', "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert not (tmp_path / "poles.json").exists()


def test_resonances_determinism(runner, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        result = runner.invoke(main, ["resonances", "--model", "example1", "--out", str(out)])
        assert result.exit_code == 0
    assert (out1 / "poles.json").read_bytes() == (out2 / "poles.json").read_bytes()
    assert (out1 / "poles.csv").read_bytes() == (out2 / "poles.csv").read_bytes()


def test_decay_example1(runner, tmp_path):
    result = runner.invoke(main, ["decay", "--model", "example1", "--grid-n", str(2**13),
                                  "--grid-l", "200", "--basis-n", "24",
                                  "--times", "0:3:0.1", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "decay.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "re_decay", "im_decay", "abs_decay",
                      "re_unitary", "im_unitary", "abs_unitary", "reference"]
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert body.shape[0] == 31
    rel = np.abs(body[:, 3] - body[:, 7]) / body[:, 7]
    assert rel.max() < 1e-2  # semigroup column tracks the exponential reference


def test_decay_bad_times(runner, tmp_path):
    result = runner.invoke(main, ["decay", "--model", "example1", "--times", "3:0:0.1",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 1


@pytest.mark.parametrize("sizes", [["--basis-n", "0"], ["--basis-n", "-3"],
                                   ["--grid-n", "64", "--grid-l", "1"]])
def test_decay_bad_sizes_exit1(runner, tmp_path, sizes):
    result = runner.invoke(main, ["decay", "--model", "example1", *sizes, "--out", str(tmp_path)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    assert "error: --basis-n" in result.output
    assert not (tmp_path / "decay.csv").exists()


@pytest.mark.parametrize("model", [
    ["--model", "rankone", "--a", "nan"],
    ["--model", "squarewell", "--v0", "inf", "--radius", "1"],
    ["--model", "squarewell", "--v0", "10", "--radius", "nan"],
    ["--model", '{"model": "rational", "poles": [[NaN, -1.0]]}'],
])
def test_resonances_nonfinite_parameters_exit1(runner, tmp_path, model):
    result = runner.invoke(main, ["resonances", *model, "--out", str(tmp_path)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    assert "finite" in result.output
    assert not (tmp_path / "poles.json").exists()


def test_decay_pole_free_model_exit3(runner, tmp_path):
    result = runner.invoke(main, ["decay", "--model", '{"model": "rational", "poles": []}',
                                  "--grid-n", str(2**12), "--grid-l", "100",
                                  "--basis-n", "12", "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert not (tmp_path / "decay.csv").exists()


def test_decay_overflowing_model_exit2(runner, tmp_path):
    # |S| of this well reaches 1.6e173 on the circle, so S·N overflows
    result = runner.invoke(main, ["decay", "--model", "squarewell", "--v0", "10",
                                  "--radius", "1", "--out", str(tmp_path)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 2
    assert "error: model squarewell" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "decay.csv").exists()


def test_decay_overflow_exit2_without_numpy_warnings(tmp_path):
    # a weak well whose S overflows on the circle: the process must leave only
    # the named error on stderr, not the numpy warnings raised on the way
    src = os.path.dirname(os.path.dirname(scatres.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "scatres.cli", "decay", "--model", "squarewell",
         "--v0", "0.2211524855348381", "--radius", "1.9838212674034716",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert "error: model squarewell" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "decay.csv").exists()


@pytest.mark.parametrize("suite", ["hardy", "smatrix", "semigroup", "subspace"])
def test_verify_suite_passes(runner, tmp_path, suite):
    result = runner.invoke(main, ["verify", "--suite", suite, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_pass"] is True
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    for check in report["checks"]:
        assert check["check"].startswith(suite + ".")
        assert check["check"] in result.output


def test_verify_coarse_grid_fails_named_check(runner):
    result = runner.invoke(main, ["verify", "--suite", "semigroup",
                                  "--grid-n", str(2**8), "--grid-l", "400"])
    assert result.exit_code == 1
    assert "semigroup.eigenrelation" in result.output


def test_verify_tolerance_override(runner):
    result = runner.invoke(main, ["verify", "--suite", "smatrix",
                                  "--tol", "smatrix.unitarity_example1=1e-30"])
    assert result.exit_code == 1
    assert "smatrix.unitarity_example1" in result.output
