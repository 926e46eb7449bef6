"""Batch command line front end: resonance sweeps, decay curves, verification.

All options are long-form and the outputs are deterministic: JSON numbers are
serialized with 17 significant digits, CSV with 12, no timestamps, and files
are written atomically (temp + rename).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import click
import numpy as np

from . import finder, smatrix, subspace, verify
from .hardy import make_grid, norm
from .semigroup import build_polar_isometry

_CURVE_TOL = 1e-2  # largest departure of |<e, Z(t) e>| from exp(-t |Im zeta|), in ||e||^2
_MAX_TIMES = 10_000  # points of a --times grid; the default has 31


def _fmt_json(obj) -> str:
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_model(model, a, v0, radius):
    if model is None:
        raise click.UsageError("--model is required")
    text = model.strip()
    if text.startswith("{"):
        spec = json.loads(text)
    elif text in smatrix.MODEL_NAMES or not os.path.exists(text):
        spec = {"model": text}
    else:
        with open(text) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"model file {text!r} must hold a JSON object, not {type(spec).__name__}")
    if a is not None:
        spec.setdefault("a", a)
    if v0 is not None:
        spec.setdefault("v0", v0)
    if radius is not None:
        spec.setdefault("radius", radius)
    return smatrix.model_from_spec(spec)


def _parse_region(text, sheet, model):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise click.UsageError("--region expects re0,re1,im0,im1")
    region = finder.ScanRegion(*parts, sheet=model.sheet_count if sheet is None else sheet)
    region.check_model(model)
    return region


def _parse_times(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("--times expects t0:t1:dt")
    t0, t1, dt = (float(p) for p in parts)
    if not np.all(np.isfinite([t0, t1, dt])):
        raise click.UsageError("--times needs finite t0, t1 and dt")
    if dt <= 0 or not 0 <= t0 <= t1:
        raise click.UsageError("--times needs 0 <= t0 <= t1 and dt > 0")
    steps = (t1 - t0) / dt
    if not (np.isfinite(steps) and round(steps) < _MAX_TIMES):
        raise click.UsageError(f"--times asks for {steps + 1:.3g} points, more than {_MAX_TIMES}")
    return [t0 + i * dt for i in range(round(steps) + 1)]


def _model_options(fn):
    fn = click.option("--model", help="model name, inline JSON, or JSON file path")(fn)
    fn = click.option("--a", type=float, default=None, help="rank-one coupling")(fn)
    fn = click.option("--v0", type=float, default=None, help="well depth")(fn)
    fn = click.option("--radius", type=float, default=None, help="well radius")(fn)
    return fn


class _Group(click.Group):
    def main(self, *args, **kwargs):
        """Click's run, except that a usage error is a bad configuration: ``error:``, exit 1."""
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main():
    """Scattering-resonance and decay-semigroup numerics."""


@main.command("resonances")
@_model_options
@click.option("--region", default=None, help="scan rectangle re0,re1,im0,im1")
@click.option("--sheet", type=int, default=None, help="sheet of the scan rectangle")
@click.option("--out", "out_dir", default=".", show_default=True, help="output directory")
def cmd_resonances(model, a, v0, radius, region, sheet, out_dir):
    """Locate poles; write poles.json and poles.csv and print a table.

    poles.csv columns: re_zeta, im_zeta, sheet, kind, residual (12 significant
    digits); poles.json carries the same records plus kernel vectors and the
    conjugate-pair audit verdict (17 significant digits).

    Exit codes: 0 success, 1 bad configuration, 2 scan failure.
    """
    try:
        mdl = _parse_model(model, a, v0, radius)
        regions = None
        if sheet is not None and region is None:
            raise click.UsageError("--sheet needs --region")
        if region is not None:
            regions = [_parse_region(region, sheet, mdl)]
        os.makedirs(out_dir, exist_ok=True)
    except (ValueError, OSError, click.UsageError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    try:
        found = finder.find_resonances(mdl, regions=regions)
        audit = finder.conjugate_pair_audit(found, mdl)
    except Exception as exc:  # scan machinery failure
        click.echo(f"scan failed: {exc}", err=True)
        sys.exit(2)
    records = finder.resonances_to_json(found)
    payload = {"model": mdl.name, "audit_ok": audit.ok, "resonances": records}
    _atomic_write(os.path.join(out_dir, "poles.json"), _fmt_json(payload) + "\n")
    _atomic_write(os.path.join(out_dir, "poles.csv"), finder.resonances_csv_text(found))
    click.echo(f"{'zeta':>28}  {'sheet':>5}  {'kind':>12}  {'residual':>10}")
    for r in found:
        click.echo(f"{r.zeta.real:+.6f}{r.zeta.imag:+.6f}i".rjust(28)
                   + f"  {r.sheet:>5}  {r.kind:>12}  {r.residual:>10.2e}")
    if not audit.ok:
        click.echo("warning: conjugate pole pairs detected (admissibility violated)", err=True)
    sys.exit(0)


@main.command("decay")
@_model_options
@click.option("--grid-n", type=int, default=verify.DEFAULT_GRID[0], show_default=True)
@click.option("--grid-l", type=float, default=verify.DEFAULT_GRID[1], show_default=True)
@click.option("--basis-n", type=int, default=48, show_default=True)
@click.option("--times", default="0:3:0.1", show_default=True, help="time grid t0:t1:dt")
@click.option("--out", "out_dir", default=".", show_default=True)
def cmd_decay(model, a, v0, radius, grid_n, grid_l, basis_n, times, out_dir):
    """Survival curves of the slowest resonance under both evolutions.

    decay.csv columns: t, re_decay, im_decay, abs_decay, re_unitary,
    im_unitary, abs_unitary, reference: the decay-semigroup curve, the
    unitary comparison curve, and the exponential reference exp(-t |Im zeta|)
    for the normalized decaying eigenvector, 12 significant digits.

    Exit code 1 flags a bad configuration, including a basis size outside
    [1, grid-n/2]; exit code 2 a pole-scan failure or a decay computation
    failure (S·N or its norms not finite, or a decay curve that departs
    from its reference by more than 1e-2 of ||f||^2, so that the admissible
    subspace does not hold the decaying eigenvector); exit code 3 a trivial
    admissible subspace (no resonances).
    """
    try:
        mdl = _parse_model(model, a, v0, radius)
        tgrid = _parse_times(times)
        grid = make_grid(grid_n, grid_l)
        if not 1 <= basis_n <= grid_n // 2:
            raise click.UsageError(
                f"--basis-n must lie in [1, {grid_n // 2}] (half of --grid-n), got {basis_n}")
        os.makedirs(out_dir, exist_ok=True)
    except (ValueError, OSError, click.UsageError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    try:
        found = finder.find_resonances(mdl)
        audit = finder.conjugate_pair_audit(found, mdl)
    except Exception as exc:  # scan machinery failure, as in resonances
        click.echo(f"scan failed: {exc}", err=True)
        sys.exit(2)
    resonances = [r for r in found if r.kind == "resonance"]
    if not audit.ok:
        click.echo("error: conjugate pole pairs detected; subspace not admissible", err=True)
        sys.exit(1)
    mode = "upper_poles" if mdl.sheet_count == 1 else "rim_poles"
    nb = subspace.build_N_basis(mdl, basis_n, mode, grid)
    try:
        _, tb = subspace.build_M_and_T(mdl, nb)
    except FloatingPointError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if tb.dim == 0 or not resonances:
        click.echo("admissible subspace is trivial: no resonances to evolve", err=True)
        sys.exit(3)
    slowest = min(resonances, key=lambda r: abs(r.zeta.imag))
    e = subspace.gamov(slowest.zeta, slowest.kernel, grid)
    e = e * (1.0 / norm(e))
    decay_curve = subspace.transition_curve(e, tgrid, "decay", t_basis=tb, zeta=slowest.zeta)
    departure = float(np.max(np.abs(np.abs(decay_curve.overlaps) - decay_curve.reference)))
    if not departure <= _CURVE_TOL:
        click.echo(f"error: decay curve departs from exp(-t |Im zeta|) by {departure:.3g} (> {_CURVE_TOL:g}): "
                   f"the admissible subspace does not hold the eigenvector of {slowest.zeta:.6f}", err=True)
        sys.exit(2)
    iso = build_polar_isometry(grid, rank_budget=basis_n)
    unitary_curve = subspace.transition_curve(e, tgrid, "unitary", isometry=iso, zeta=slowest.zeta)
    rows = ["t,re_decay,im_decay,abs_decay,re_unitary,im_unitary,abs_unitary,reference"]
    for t, d, u, ref in zip(tgrid, decay_curve.overlaps, unitary_curve.overlaps, decay_curve.reference):
        rows.append(",".join(format(v, ".12g") for v in (t, d.real, d.imag, abs(d), u.real, u.imag, abs(u), ref)))
    _atomic_write(os.path.join(out_dir, "decay.csv"), "\n".join(rows) + "\n")
    click.echo(f"wrote decay.csv for pole {slowest.zeta:.6f} (sheet {slowest.sheet})")
    sys.exit(0)


@main.command("verify")
@click.option("--suite", default="all", show_default=True,
              type=click.Choice(["hardy", "semigroup", "smatrix", "subspace", "all"]))
@click.option("--out", "out_dir", default=None, help="directory for report.json")
def cmd_verify(suite, out_dir):
    """Run the invariant suites and emit a machine-readable report.

    The suites check one fixed configuration: the default grid (2^14 points,
    half extent 400) and the tolerances of scatres.verify.  Exit 0 iff every
    check passes; the failing check names are printed, and a check whose
    measurement raised is reported with its exception and a null value.
    """
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        checks = verify.run_suite(suite)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except Exception as exc:  # suite machinery failure outside a check
        click.echo(f"verification run failed: {exc}", err=True)
        sys.exit(1)
    report = {"suite": suite, "checks": checks, "all_pass": all(c["pass"] for c in checks)}
    if out_dir:
        _atomic_write(os.path.join(out_dir, "report.json"), _fmt_json(report) + "\n")
    for c in checks:
        detail = (f"raised {c['error']}" if "error" in c
                  else f"measured {c['measured']:.3e} tolerance {c['tolerance']:.3e}")
        click.echo(f"[{'pass' if c['pass'] else 'FAIL'}] {c['check']}: {detail}")
    if not report["all_pass"]:
        failing = [c["check"] for c in checks if not c["pass"]]
        click.echo(f"failing checks: {', '.join(failing)}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
