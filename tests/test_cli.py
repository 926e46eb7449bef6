"""Command-line contract: files, exit codes, determinism."""

import json
import types

import numpy as np
import pytest
from click.testing import CliRunner

import scatres
from conftest import run_python as _python
from scatres import verify
from scatres.cli import _fmt_json, main


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
    table = [line.split() for line in result.stdout.splitlines()[1:]]
    [(zeta, sheet, _, _)] = [row for row in table if row[2] == "resonance"]
    assert zeta.endswith("-2.000000i") and sheet == "2"
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


def test_resonances_header_only_csv_exit1(runner, tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text("lambda,re_a_0_0,im_a_0_0,re_b_0_0,im_b_0_0\n")
    spec = json.dumps({"model": "traceclass", "file": str(path)})
    result = runner.invoke(main, ["resonances", "--model", spec, "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error:") and "Traceback" not in result.output
    assert not (tmp_path / "poles.json").exists()


def test_resonances_sheet_without_region_exit1(runner, tmp_path):
    result = runner.invoke(main, ["resonances", "--model", "rankone", "--a", "1.0", "--sheet", "1",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "error: --sheet needs --region" in result.output
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
    for times in ("3:0:0.1", "0:inf:0.5", "0:nan:0.1", "nan:1:0.1", "0:1:inf", "-1:3:0.1",
                  "0:1e308:1e-308", "0:1:1e-4"):
        result = runner.invoke(main, ["decay", "--model", "example1", "--times", times,
                                      "--out", str(tmp_path)])
        assert isinstance(result.exception, SystemExit), (times, result.exception)
        assert result.exit_code == 1
        assert "error: --times" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "decay.csv").exists()


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


@pytest.mark.parametrize("model", [
    # resonance 19.9 - 9.14i: the curve departs from its reference by 0.06
    ["--model", "rankone", "--a", "20.9"],
    # dim T is 1 for two resonances: abs_decay(0) would read 0.107
    ["--model", '{"model": "rational", "poles": [[0.3, -1.2], [-1, 0.5], [2, -0.1]]}'],
])
def test_decay_curve_off_reference_exit2(runner, tmp_path, model):
    result = runner.invoke(main, ["decay", *model, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "error: decay curve departs from exp(-t |Im zeta|)" in result.output
    assert not (tmp_path / "decay.csv").exists()


def _cli(*args, cwd=None):
    return _python("-m", "scatres.cli", *args, cwd=cwd)


# scipy is made unimportable before the CLI module is loaded
_BLOCKED_CLI = "import sys; sys.modules['scipy'] = None; from scatres.cli import main; main()"


def test_decay_overflow_exit2_without_numpy_warnings(tmp_path):
    # a weak well whose S overflows on the circle: the process must leave only
    # the named error on stderr, not the numpy warnings raised on the way
    proc = _cli("decay", "--model", "squarewell", "--v0", "0.2211524855348381",
                "--radius", "1.9838212674034716", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "error: model squarewell" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "decay.csv").exists()


@pytest.mark.parametrize("case", ["missing_csv", "model_directory", "out_resonances",
                                  "out_decay", "out_verify"])
def test_os_errors_exit1_without_traceback(tmp_path, case):
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    out = str(blocker / "out")  # cannot be created: its parent is a regular file
    args = {
        "missing_csv": ["resonances", "--model", '{"model": "traceclass", "file": "nope.csv"}',
                        "--out", str(tmp_path)],
        "model_directory": ["resonances", "--model", str(tmp_path), "--out", str(tmp_path)],
        "out_resonances": ["resonances", "--model", "example1", "--out", out],
        "out_decay": ["decay", "--model", "example1", "--out", out],
        "out_verify": ["verify", "--suite", "hardy", "--out", out],
    }[case]
    proc = _cli(*args, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, options", [("example1", []), ("rankone", ["--a", "1"])])
def test_model_name_is_never_read_as_a_path(tmp_path, name, options):
    # the first run leaves a directory of the model's name in the working directory
    for out in (name, "again"):
        proc = _cli("resonances", "--model", name, *options, "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / name / "poles.json").read_bytes() == (tmp_path / "again" / "poles.json").read_bytes()


def test_cli_import_loads_no_scipy():
    # nor numpy.polynomial: the Gauss-Legendre rule of the rank-one quadrature is tabulated
    proc = _python("-c", "import sys, scatres.cli; print(sorted(m for m in sys.modules "
                         "if m.startswith(('scipy', 'numpy.polynomial'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# every verify suite, then one- and two-sheet decays, then a resolvent on the
# real axis, in one process; prints the numpy.ma and numpy.polynomial modules
# loaded by then
_VERIFY_THEN_DECAY = """
import sys
from scatres import hardy, smatrix, subspace, verify
from scatres.cli import main
for suite in verify.SUITES:
    verify.run_suite(suite)
for model, out in ((["example1"], "decay-example1"), (["rankone", "--a", "1"], "decay-rankone")):
    try:
        main(["decay", "--model", *model, "--out", out])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
grid = hardy.make_grid(*verify.DEFAULT_GRID)
model = smatrix.example1()
_, tb = subspace.build_M_and_T(model, subspace.build_N_basis(model, 16, "upper_poles", grid))
subspace.resolve_B(tb, subspace.gamov(1 - 1j, 1.0, grid), 0.5, resonances=[1 - 1j])
print(sorted(m for m in sys.modules if m in ("numpy.ma", "numpy.polynomial")
             or m.startswith(("numpy.ma.", "numpy.polynomial."))))
"""


def test_verify_and_decay_load_no_numpy_ma_or_polynomial(tmp_path):
    # the tail-fit bands need no np.unique, the multiplier below the axis no
    # polyval and k0 on the axis no polyfit, so neither import is paid by a
    # verify, a decay or a resolvent process
    proc = _python("-c", _VERIFY_THEN_DECAY, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_package_exports_exactly_the_modules_all():
    modules = (scatres.hardy, scatres.semigroup, scatres.smatrix, scatres.finder, scatres.subspace)
    exported = {name for name, value in vars(scatres).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set().union(*(m.__all__ for m in modules))
    for module in modules:
        assert all(getattr(scatres, name) is getattr(module, name) for name in module.__all__)


def _write_trace_csv(path, a):
    data = scatres.rankone_trace_data(a)
    rows = ["lambda,re_a_0_0,im_a_0_0,re_b_0_0,im_b_0_0"]
    for lam, fa, fb in zip(data.lam, data.a_vals[:, 0, 0], data.b_vals[:, 0, 0]):
        rows.append(",".join(repr(float(v)) for v in (lam, fa.real, fa.imag, fb.real, fb.imag)))
    path.write_text("\n".join(rows) + "\n")


def test_decay_csv_traceclass_scan_failure_exit2(tmp_path):
    # sampled form factors have no sheet-two continuation, so the default scan fails
    _write_trace_csv(tmp_path / "factors.csv", 1.0)
    proc = _cli("decay", "--model", '{"model": "traceclass", "file": "factors.csv"}',
                "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("scan failed:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "decay.csv").exists()


def test_resonances_failed_refinement_exit2(tmp_path):
    # a located candidate whose Newton run fails is a scan failure, not an empty table
    proc = _cli("resonances", "--model", '{"model": "rational", "poles": [[1, -1], [1, -1], [1, -1]]}',
                "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("scan failed:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "poles.json").exists()


def test_resonances_csv_user_region_scans_its_sheet_only(tmp_path):
    # a sheet-one region needs no sheet-two continuation, so sampled data scan
    _write_trace_csv(tmp_path / "factors.csv", -2.0)
    proc = _cli("resonances", "--model", '{"model": "traceclass", "file": "factors.csv"}',
                "--region=-6,-0.01,0.01,3", "--sheet", "1", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "out" / "poles.json").read_text())["resonances"]
    assert [(r["sheet"], r["kind"]) for r in rows] == [(1, "bound_state")]
    assert abs(rows[0]["re_zeta"] - (-(3 - 2 * np.sqrt(2)))) < 5e-3


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", [0, 1, 3], ids=["lambda", "re_a", "re_b"])
def test_resonances_nonfinite_csv_cell_exit1(runner, tmp_path, value, column):
    # the loader refuses a non-finite cell by row and column before any scan,
    # so no empty table, no scan failure and no poles file
    path = tmp_path / "factors.csv"
    _write_trace_csv(path, -2.0)
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[column] = value
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    spec = json.dumps({"model": "traceclass", "file": str(path)})
    result = runner.invoke(main, ["resonances", "--model", spec, "--region=-6,-0.01,0.01,3",
                                  "--sheet", "1", "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    name = lines[0].split(",")[column]
    assert result.stderr.startswith(f"error: row {len(lines)}, column {name!r}: {value!r}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("a, expected", [
    ("-24.57", ["-15.6563730149,0,1,bound_state", "-35.4836269851,0,2,rim_pole"]),
    ("12.76", ["11.76,-7.1442284398,2,resonance"]),
])
def test_resonances_strong_couplings_in_reach(runner, tmp_path, a, expected):
    # poles beyond the fixed [-6, 6] box and 8-wide rims of small couplings
    result = runner.invoke(main, ["resonances", "--model", "rankone", "--a", a, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "poles.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[0] for row in rows] == expected


# each case is a whole command line; resonances on every model family, then
# the commands that run the subspace, isometry and verification code
@pytest.mark.parametrize("model", [
    ["resonances", "--model", "example1"],
    ["resonances", "--model", '{"model": "rational", "poles": [[0.5, -0.7], [-1.2, 0.4]]}'],
    ["resonances", "--model", "rankone", "--a", "2"],
    ["resonances", "--model", "rankone", "--a", "-2"],
    ["resonances", "--model", "squarewell", "--v0", "10", "--radius", "1"],
    ["resonances", "--model", '{"model": "traceclass", "file": "factors.csv"}'],
    ["decay", "--model", "example1"],
    ["decay", "--model", "rankone", "--a", "1"],
    ["verify", "--suite", "all"],
])
def test_resonances_without_scipy_match(tmp_path, model):
    _write_trace_csv(tmp_path / "factors.csv", 1.0)
    blocked = _python("-c", _BLOCKED_CLI, *model, "--out", "blocked", cwd=tmp_path)
    plain = _cli(*model, "--out", "plain", cwd=tmp_path)
    assert "Traceback" not in blocked.stderr
    assert (blocked.returncode, blocked.stdout) == (plain.returncode, plain.stdout)
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "blocked").iterdir()) == names
    for name in names:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


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


def test_verify_help_lists_only_suite_and_out(runner):
    result = runner.invoke(main, ["verify", "--help"])
    assert result.exit_code == 0
    options = {word for word in result.output.split() if word.startswith("--")}
    assert options == {"--suite", "--out", "--help"}


def test_verify_failing_check_is_named(runner, tmp_path, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "hardy", lambda: [verify._check("hardy.fake", 1.0, 0.5)])
    result = runner.invoke(main, ["verify", "--suite", "hardy", "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "failing checks: hardy.fake" in result.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_pass"] is False and report["checks"][0]["measured"] == 1.0


def test_verify_raising_check_is_named_failure(runner, tmp_path, monkeypatch):
    # a measurement that raises, or that is not finite, is a failure with a null value
    for measured, error in ((lambda: 1 / 0, "ZeroDivisionError: division by zero"),
                            (float("nan"), "ValueError: measured value nan is not finite")):
        monkeypatch.setitem(verify.SUITES, "hardy", lambda: [verify._check("hardy.boom", measured, 1.0)])
        result = runner.invoke(main, ["verify", "--suite", "hardy", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"[FAIL] hardy.boom: raised {error}" in result.stdout
        assert "failing checks: hardy.boom" in result.stderr
        text = (tmp_path / "report.json").read_text()
        [check] = json.loads(text, parse_constant=lambda token: pytest.fail(f"JSON constant {token}"))["checks"]
        assert check == {"check": "hardy.boom", "measured": None, "tolerance": 1.0, "pass": False,
                         "error": error}
    # the writer refuses a non-finite number rather than write a token JSON does not have
    with pytest.raises(ValueError, match="non-finite number nan"):
        _fmt_json({"measured": float("nan")})


@pytest.mark.parametrize("model, bounds", [(["example1", "--sheet", "1"], ["0", "2", "-2", "2"]),
                                           (["rankone", "--a", "1"], ["-1", "1", "-2", "-0.1"])])
@pytest.mark.parametrize("index", range(4))
def test_resonances_non_finite_region_exit1(runner, tmp_path, model, bounds, index):
    # a grid over an infinite side holds NaN: refused, not an empty table
    bounds = list(bounds)
    bounds[index] = "inf" if index % 2 else "-inf"
    out = tmp_path / "out"
    result = runner.invoke(main, ["resonances", "--model", *model, f"--region={','.join(bounds)}",
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: scan rectangle bounds must be finite")
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [["resonances", "--a", "1"], ["decay", "--v0", "1"]])
def test_model_file_not_an_object_exit1(tmp_path, args):
    # a model option must not reach a list through spec.setdefault
    (tmp_path / "m.json").write_text("[1, 2]\n")
    proc = _cli(args[0], "--model", "m.json", *args[1:], "--out", "out", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: model file 'm.json' must hold a JSON object")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["resonances", "decay"])
@pytest.mark.parametrize("model, key", [
    ('{"model": "rational", "poles": [[1]]}', "poles"),
    ('{"model": "rational", "poles": [1, 2]}', "poles"),
    ('{"model": "rational", "poles": 5}', "poles"),
    ('{"model": "rational", "poles": [["a", "b"]]}', "poles"),
    ('{"model": "rational", "poles": [[1, 0.5, 7]]}', "poles"),
    ('{"model": "rankone", "a": [1]}', "a"),
    ('{"model": "squarewell", "v0": {}, "radius": 1}', "v0"),
    ('{"model": "squarewell", "v0": 10, "radius": true}', "radius"),
])
def test_malformed_model_values_exit1(runner, tmp_path, command, model, key):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--model", model, "--out", str(out)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: '{key}' must be")
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["resonances", "--model", "example1", "--region", "0,2,-2,-0.05", "--sheet", "2"],
    ["resonances", "--model", "example1", "--region", "0,2,-2,-0.05", "--sheet", "0"],
    ["resonances", "--model", "rankone", "--a", "1", "--region", "0,2,-2,-0.05", "--sheet", "3"],
    ["verify", "--suite", "bogus"],
    ["verify", "--tol", "x=1"],
    ["decay", "--model", "example1", "--basis-n", "abc"],
    # a model flag that contradicts the description, or that the model does not take
    ["resonances", "--model", '{"model": "rankone", "a": 1}', "--a", "4"],
    ["resonances", "--model", "squarewell", "--v0", "10", "--radius", "1", "--a", "3"],
    ["decay", "--model", "example1", "--v0", "3"],
])
def test_bad_configuration_exit1(runner, tmp_path, args):
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.output
    assert not out.exists()


def test_contradicting_model_flag_names_both_values(runner, tmp_path):
    result = runner.invoke(main, ["resonances", "--model", '{"model": "rankone", "a": 1}', "--a", "4",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: --a 4 contradicts 'a' = 1 of the model description")
