"""Locating poles of the continued scattering matrix: coarse rectangle scans,
argument-principle counting on cell boundaries, Newton refinement, kernel
vectors, rim scans along the negative axis, the conjugate-pair audit, and the
poles.json/poles.csv export with the atomic writer every output file goes through.

Rim scans sample the real pole condition on the negative axis and polish all
sign-change brackets together, one batched pole-condition call per step, so
pole finding needs numpy only.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .smatrix import SMatrixModel, _check_sheet

__all__ = [
    "Resonance",
    "ScanRegion",
    "winding_number",
    "scan_region",
    "refine",
    "rim_scan",
    "conjugate_pair_audit",
    "AuditReport",
    "find_resonances",
    "resonances_to_json",
    "resonances_to_csv",
]

_RIM_EXTENT = 8.0  # the rim scans cover at least [-_RIM_EXTENT, -1e-6]
_AUDIT_TOL = 1e-8  # conjugate_pair_audit: poles this close to conjugate, this far off the axis, pair
_RESOLUTION = 41  # scan_region samples each side of a rectangle at this many points
_RIM_POINTS = 4001  # rim scans sample each rim at this many points


@dataclass
class Resonance:
    zeta: complex
    sheet: int
    kind: str
    kernel: np.ndarray
    residual: float
    refinement_iterations: int = 0

    def as_record(self) -> dict:
        return {
            "re_zeta": float(self.zeta.real),
            "im_zeta": float(self.zeta.imag),
            "sheet": int(self.sheet),
            "kind": self.kind,
            "residual": float(self.residual),
            "kernel": [[float(c.real), float(c.imag)] for c in np.atleast_1d(self.kernel)],
            "refinement_iterations": int(self.refinement_iterations),
        }


@dataclass
class ScanRegion:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    sheet: int = 1

    def __post_init__(self):
        if not np.all(np.isfinite([self.re_min, self.re_max, self.im_min, self.im_max])):
            raise ValueError("scan rectangle bounds must be finite")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate scan rectangle")

    def check_model(self, model: SMatrixModel) -> None:
        """``ValueError`` for a sheet the model lacks, or a two-sheet rectangle across the cut."""
        _check_sheet(self.sheet, model.sheet_count, f"model {model.name}")
        if model.sheet_count == 2 and self.im_min < 0 < self.im_max and self.re_min < 0:
            raise ValueError("rectangle crosses the cut (-inf, 0]; scan rims separately")


def winding_number(fn, center: complex, half_w: float, half_h: float,
                   n0: int = 64) -> tuple[int, float]:
    """Winding of ``fn`` around a rectangle, by phase accumulation.

    Boundary sampling is doubled, at most five times, until two consecutive
    estimates agree within 1e-3 of the same integer.
    """
    prev = None
    n = n0
    for _ in range(6):
        q = n // 4
        ts = np.arange(q) / q
        right = center + half_w + 1j * (-half_h + 2 * half_h * ts)
        top = center + 1j * half_h + (half_w - 2 * half_w * ts)
        left = center - half_w + 1j * (half_h - 2 * half_h * ts)
        bottom = center - 1j * half_h + (-half_w + 2 * half_w * ts)
        path = np.concatenate([right, top, left, bottom, right[:1]])
        vals = fn(path)
        ph = np.angle(vals)
        dph = np.diff(ph)
        dph = (dph + np.pi) % (2 * np.pi) - np.pi
        raw = float(np.sum(dph) / (2 * np.pi))
        if prev is not None and abs(raw - prev) < 1e-3 and abs(raw - round(raw)) < 1e-3:
            return int(round(raw)), raw
        prev = raw
        n *= 2
    return int(round(prev)), prev


def scan_region(model: SMatrixModel, region: ScanRegion) -> list[complex]:
    """Candidate pole locations: grid minima of ``|pole_condition|`` kept by winding.

    The pole condition is sampled on the region's grid in one call; every
    interior local minimum of its modulus is the centre of a grid cell whose
    winding number is counted.  Cells carrying winding >= 2 are subdivided
    until each candidate is simple or the cell is irreducibly small; every
    candidate the cells yield is returned.
    """
    region.check_model(model)
    re = np.linspace(region.re_min, region.re_max, _RESOLUTION)
    im = np.linspace(region.im_min, region.im_max, _RESOLUTION)
    zs = re[None, :] + 1j * im[:, None]
    det = np.abs(model.pole_condition(zs, region.sheet))
    cands: list[complex] = []
    hw = (re[1] - re[0])
    hh = (im[1] - im[0])
    interior = det[1:-1, 1:-1]
    is_min = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            is_min &= interior <= det[1 + di : det.shape[0] - 1 + di,
                                      1 + dj : det.shape[1] - 1 + dj]
    fn = lambda path: model.pole_condition(path, region.sheet)
    for i, j in zip(*np.nonzero(is_min)):
        center = complex(zs[1 + i, 1 + j])
        cands.extend(_resolve_cell(fn, center, hw, hh))
    return sorted(cands, key=lambda z: (z.real, z.imag))


def _resolve_cell(fn, center: complex, hw: float, hh: float) -> list[complex]:
    """Candidates of a cell: its centre at winding one; at higher winding those
    of its four quarters, until a half-side falls below 1e-6."""
    w, _ = winding_number(fn, center, hw, hh)
    if w <= 0:
        return []
    if w == 1 or min(hw, hh) < 1e-6:
        return [center]
    quads = [center + dx * hw / 2 + 1j * dy * hh / 2 for dx in (-1, 1) for dy in (-1, 1)]
    found: list[complex] = []
    for q in quads:
        found.extend(_resolve_cell(fn, q, hw / 2, hh / 2))
    return found or [center]


def refine(model: SMatrixModel, z0: complex, sheet: int = 1) -> Resonance:
    """Newton refinement of the pole condition from a candidate point: at most
    50 steps, stopping at a step below 1e-12."""
    z = complex(z0)
    it = 0
    for it in range(1, 51):
        h = 1e-7 * max(1.0, abs(z))
        f0, f_plus, f_minus = model.pole_condition(np.array([z, z + h, z - h]), sheet)
        fp = (f_plus - f_minus) / (2 * h)
        if fp == 0:
            raise RuntimeError(f"Newton derivative vanished at {z}")
        step = f0 / fp
        z = z - step
        if abs(step) < 1e-12:
            break
    else:
        raise RuntimeError(f"Newton did not converge from {z0} (last step {abs(step):.2e})")
    return _classify(model, z, sheet, it)


def _classify(model: SMatrixModel, zeta: complex, sheet: int, iterations: int) -> Resonance:
    rim_tol = 1e-8
    if abs(zeta.imag) < rim_tol:
        zeta = complex(zeta.real, 0.0)
        if zeta.real >= 0:
            raise RuntimeError(f"converged to {zeta} on the positive axis: not a pole location")
        kind = "bound_state" if sheet == 1 else "rim_pole"
    else:
        kind = "resonance" if zeta.imag < 0 else "antiresonance"
    kernel, residual = _kernel_and_residual(model, zeta, sheet=sheet)
    return Resonance(zeta=zeta, sheet=sheet, kind=kind, kernel=kernel,
                     residual=residual, refinement_iterations=iterations)


def _rim_grid(x_min: float, x_max: float, n: int) -> np.ndarray:
    """The ``n`` points a rim scan of ``[x_min, x_max]`` samples, ending at or below -1e-9."""
    if x_min >= x_max or x_max > 0:
        raise ValueError("rim scans need x_min < x_max <= 0")
    return np.linspace(x_min, min(x_max, -1e-9), n)


def rim_scan(model: SMatrixModel, x_min: float, x_max: float, sheet: int,
             n: int = _RIM_POINTS, samples=None) -> list[Resonance]:
    """One-dimensional pole search along the negative axis on a fixed sheet.

    ``samples``, when given, are the sheet's pole condition on the scan's grid
    (:func:`_rim_grid` of the same bounds and ``n``), already evaluated.
    """
    xs = _rim_grid(x_min, x_max, n)
    vals = model.pole_condition(xs.astype(complex), sheet) if samples is None else samples
    if np.max(np.abs(vals.imag)) > 1e-9 * max(np.max(np.abs(vals)), 1.0):
        raise RuntimeError("rim pole condition is not real; no robust bracketing available")
    roots = _sign_change_roots(lambda x: model.pole_condition(x.astype(complex), sheet).real,
                               xs, vals.real)
    return [_classify(model, complex(root), sheet, 0) for root in roots]


def _sign_change_roots(f, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """Real roots of the array function ``f`` from samples ``vals = f(xs)``, ascending.

    Each exact zero of ``vals`` is a root.  All sign-change brackets between
    adjacent samples are polished together, one call of ``f`` per step on every
    open bracket: Newton with the central-difference slope of :func:`refine`
    from the secant point, until a step is below Brent's tolerance
    ``tol = 1e-14 + 4 eps |x|``.  A step that leaves its bracket bisects it, and
    so does a Newton step longer than half the Newton (or secant) step before
    it while the bracket is wider than ``2 tol``: next to a root of odd
    multiplicity the slope over ``x +- h`` is dominated by ``h`` and Newton
    creeps.  A Newton step that rounds to nothing while the bracket is wider
    than ``2 tol`` probes ``f`` once at ``2 tol`` from the iterate toward the
    far end: a sign change there closes the bracket at the iterate, none
    bisects.  A Newton step right after a bisection does not count as
    converged.  A NaN value raises ``ValueError``, 100 steps without
    convergence ``RuntimeError``.
    """
    zero = np.flatnonzero(vals[:-1] == 0)
    idx = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    lo, hi, f_lo = xs[idx], xs[idx + 1], vals[idx]
    x = lo - f_lo * (hi - lo) / (vals[idx + 1] - f_lo)
    last = hi - lo  # each bracket's previous step, the secant's first; inf after a bisection
    live = np.arange(idx.size)
    for _ in range(100):
        if not live.size:
            break
        xl = x[live]
        h = 1e-7 * np.maximum(1.0, np.abs(xl))
        f0, f_plus, f_minus = np.reshape(f(np.concatenate([xl, xl + h, xl - h])), (3, -1))
        if np.isnan(f0).any():
            raise ValueError(f"the function value at x={xl[np.isnan(f0)][0]} is NaN; "
                             "solver cannot continue")
        keep_lo = np.sign(f0) == np.sign(f_lo[live])
        left, right = np.where(keep_lo, xl, lo[live]), np.where(keep_lo, hi[live], xl)
        lo[live], hi[live] = left, right
        f_lo[live] = np.where(keep_lo, f0, f_lo[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = xl - f0 * 2 * h / (f_plus - f_minus)
        tol = 1e-14 + 4 * np.finfo(float).eps * np.abs(xl)
        prev = last[live]
        fast = (np.abs(x_new - xl) <= prev / 2) | (right - left <= 2 * tol)
        newton = (x_new > left) & (x_new < right) & fast
        # a Newton step that rounds to nothing on a bracket wider than 2 tol: if f
        # changes sign 2 tol from xl toward the far end, xl is the root; else bisect
        stuck = np.flatnonzero((x_new == xl) & (f0 != 0) & (right - left > 2 * tol))
        settled = np.zeros(xl.size, dtype=bool)
        if stuck.size:
            probe = xl[stuck] + np.where(keep_lo[stuck], 2, -2) * tol[stuck]
            settled[stuck] = np.sign(f(probe)) != np.sign(f0[stuck])
        x_new = np.where((f0 == 0) | settled, xl, np.where(newton, x_new, (left + right) / 2))
        step = np.abs(x_new - xl)
        x[live], last[live] = x_new, np.where(newton, step, np.inf)
        live = live[(step >= tol) | (newton & (prev == np.inf))]
    if live.size:
        raise RuntimeError(f"root polishing failed to converge after 100 steps, values {x[live]}")
    roots = np.concatenate([xs[zero], x])
    return [float(r) for r in roots[np.argsort(np.concatenate([zero, idx]), kind="stable")]]


def _kernel_and_residual(model: SMatrixModel, zeta: complex, sheet: int):
    """Smallest singular pair of the condition matrix at ``zeta``: the unit kernel,
    phased so that its largest entry is real and positive, and the residual."""
    _, s, vh = np.linalg.svd(model.condition_matrix(complex(zeta), sheet))
    k = vh[-1].conj()
    big = k[np.argmax(np.abs(k))]
    return k * (np.conj(big) / abs(big)), float(s[-1])


@dataclass
class AuditReport:
    flagged: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No flagged pair: the verdict is read from the pairs, so the two cannot disagree."""
        return not self.flagged


def conjugate_pair_audit(resonances: list[Resonance], model: SMatrixModel) -> AuditReport:
    """Flag mutually conjugate pole pairs on the physical surface.

    The admissibility condition requires that poles of the continued matrix
    never occur in conjugate pairs within the continuation domain; pairs found
    off the physical surface (e.g. sheet-two mirror points) are ignored.
    """
    def on_surface(r: Resonance) -> bool:
        if model.sheet_count == 1:
            return True
        if abs(r.zeta.imag) < _AUDIT_TOL:
            return True
        return (r.zeta.imag > 0) == (r.sheet == 1)

    surface = [r for r in resonances if on_surface(r)]
    report = AuditReport()
    for i, r1 in enumerate(surface):
        for r2 in surface[i + 1 :]:
            if abs(r1.zeta - np.conj(r2.zeta)) < _AUDIT_TOL and abs(r1.zeta.imag) > _AUDIT_TOL:
                report.flagged.append((r1, r2))
    return report


def find_resonances(model: SMatrixModel, regions: list[ScanRegion] | None = None) -> list[Resonance]:
    """Scan default or user regions, refine candidates, and scan the rims.

    A model of scale ``s = model.scale()`` is scanned out to
    ``R = max(6, (1 + sqrt s)^2 + 1)``, which holds every rank-one pole (a
    scale of 0 gives ``R = 6``).  The default box is ``[-R, R] x [-R, -0.02]``
    on the model's last sheet, for one-sheet models with its mirror
    ``[-R, R] x [0.02, R]``; two-sheet models are also scanned on
    ``[-max(8, R), -1e-6]`` along the rims of both sheets, or of the sheets
    the user regions name; that rim grid is sampled once, in one
    ``pole_conditions`` call for all those sheets.  Refined poles closer than
    1e-8 on one sheet are reported once.  A candidate centres a cell of
    winding >= 1, so a failed refinement loses a located pole and raises.
    """
    reach = max(6.0, (1 + np.sqrt(model.scale())) ** 2 + 1)
    rim_sheets = [1, 2] if regions is None else sorted({region.sheet for region in regions})
    if regions is None:
        regions = [ScanRegion(-reach, reach, -reach, -0.02, sheet=model.sheet_count)]
        if model.sheet_count == 1:
            regions.insert(0, ScanRegion(-reach, reach, 0.02, reach, sheet=1))
    found: list[Resonance] = []
    for region in regions:
        found.extend(refine(model, cand, region.sheet) for cand in scan_region(model, region))
    if model.sheet_count == 2:
        x_min = -max(_RIM_EXTENT, reach)
        rim = model.pole_conditions(_rim_grid(x_min, -1e-6, _RIM_POINTS).astype(complex), rim_sheets)
        for sheet, samples in zip(rim_sheets, rim):
            found.extend(rim_scan(model, x_min, -1e-6, sheet, _RIM_POINTS, samples=samples))
    deduped: list[Resonance] = []
    for r in sorted(found, key=lambda r: (r.sheet, r.zeta.real, r.zeta.imag)):
        if all(abs(r.zeta - o.zeta) > 1e-8 or r.sheet != o.sheet for o in deduped):
            deduped.append(r)
    return deduped


def resonances_to_json(resonances: list[Resonance]) -> list[dict]:
    return [r.as_record() for r in resonances]


def resonances_to_csv(resonances: list[Resonance], path) -> None:
    """Write poles.csv: re_zeta, im_zeta, sheet, kind, residual (12 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["re_zeta", "im_zeta", "sheet", "kind", "residual"])
    writer.writerows([format(r.zeta.real, ".12g"), format(r.zeta.imag, ".12g"), r.sheet, r.kind,
                      format(r.residual, ".12g")] for r in resonances)
    _atomic_write(path, buf.getvalue())


def _atomic_write(path, text: str) -> None:
    """The one writer of output files: ``text`` goes to a temporary file in the
    target's directory, which ``os.replace`` then renames over ``path``, so the
    file holds either its old content or all of ``text``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
