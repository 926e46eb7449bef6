"""Locating poles of the continued scattering matrix: coarse rectangle scans,
argument-principle counting on cell boundaries, Newton refinement, kernel
vectors, rim scans along the negative axis, and the conjugate-pair audit.

Rim scans sample the real pole condition on the negative axis and polish all
sign-change brackets together, one batched pole-condition call per step, so
pole finding needs numpy only.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .smatrix import SMatrixModel, _sign_change_roots

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
    "resonances_csv_text",
    "resonances_to_csv",
]

_RIM_EXTENT = 8.0  # the rim scans cover at least [-_RIM_EXTENT, -1e-6]
_AUDIT_TOL = 1e-8  # conjugate_pair_audit: poles this close to conjugate, this far off the axis, pair
_RESOLUTION = 41  # scan_region samples each side of a rectangle at this many points


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
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate scan rectangle")
        if self.im_min < 0 < self.im_max and self.re_min < 0:
            raise ValueError("rectangle crosses the cut (-inf, 0]; scan rims separately")

    def check_model(self, model: SMatrixModel) -> None:
        """``ValueError`` unless the model has sheet ``self.sheet`` (1, or 1 and 2)."""
        sheets = list(range(1, model.sheet_count + 1))
        if self.sheet not in sheets:
            raise ValueError(f"sheet must be one of {sheets} for model {model.name}, got {self.sheet}")


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


def rim_scan(model: SMatrixModel, x_min: float, x_max: float, sheet: int,
             n: int = 4001) -> list[Resonance]:
    """One-dimensional pole search along the negative axis on a fixed sheet."""
    if x_min >= x_max or x_max > 0:
        raise ValueError("rim scans need x_min < x_max <= 0")
    xs = np.linspace(x_min, min(x_max, -1e-9), n)
    vals = model.pole_condition(xs.astype(complex), sheet)
    if np.max(np.abs(vals.imag)) > 1e-9 * max(np.max(np.abs(vals)), 1.0):
        raise RuntimeError("rim pole condition is not real; no robust bracketing available")
    roots = _sign_change_roots(lambda x: model.pole_condition(x.astype(complex), sheet).real,
                               xs, vals.real)
    return [_classify(model, complex(root), sheet, 0) for root in roots]


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
    ok: bool = True


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
                report.ok = False
    return report


def find_resonances(model: SMatrixModel, regions: list[ScanRegion] | None = None) -> list[Resonance]:
    """Scan default or user regions, refine candidates, and scan the rims.

    A model of scale ``s = model.scale()`` is scanned out to
    ``R = max(6, (1 + sqrt s)^2 + 1)``, which holds every rank-one pole (a
    scale of 0 gives ``R = 6``).  The default box is ``[-R, R] x [-R, -0.02]``
    on the model's last sheet, for one-sheet models with its mirror
    ``[-R, R] x [0.02, R]``; two-sheet models are also scanned on
    ``[-max(8, R), -1e-6]`` along the rims of both sheets, or of the sheets
    the user regions name.  Refined poles closer than 1e-8 on one sheet are
    reported once.
    """
    reach = max(6.0, (1 + np.sqrt(model.scale())) ** 2 + 1)
    rim_sheets = [1, 2] if regions is None else sorted({region.sheet for region in regions})
    if regions is None:
        regions = [ScanRegion(-reach, reach, -reach, -0.02, sheet=model.sheet_count)]
        if model.sheet_count == 1:
            regions.insert(0, ScanRegion(-reach, reach, 0.02, reach, sheet=1))
    found: list[Resonance] = []
    for region in regions:
        for cand in scan_region(model, region):
            try:
                res = refine(model, cand, region.sheet)
            except NotImplementedError:
                raise
            except RuntimeError:  # Newton failed or left the continuation domain
                continue
            found.append(res)
    if model.sheet_count == 2:
        for sheet in rim_sheets:
            found.extend(rim_scan(model, -max(_RIM_EXTENT, reach), -1e-6, sheet))
    deduped: list[Resonance] = []
    for r in sorted(found, key=lambda r: (r.sheet, r.zeta.real, r.zeta.imag)):
        if all(abs(r.zeta - o.zeta) > 1e-8 or r.sheet != o.sheet for o in deduped):
            deduped.append(r)
    return deduped


def resonances_to_json(resonances: list[Resonance]) -> list[dict]:
    return [r.as_record() for r in resonances]


def resonances_csv_text(resonances: list[Resonance]) -> str:
    """poles.csv: re_zeta, im_zeta, sheet, kind, residual (12 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["re_zeta", "im_zeta", "sheet", "kind", "residual"])
    writer.writerows([format(r.zeta.real, ".12g"), format(r.zeta.imag, ".12g"), r.sheet, r.kind,
                      format(r.residual, ".12g")] for r in resonances)
    return buf.getvalue()


def resonances_to_csv(resonances: list[Resonance], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(resonances_csv_text(resonances))
