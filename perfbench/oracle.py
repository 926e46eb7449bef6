"""Expected poles from oracles that do not use the pole finder.

* rank-one couplings (closed form and trace-class quadrature, in memory or
  from CSV): both roots of the quadratic ``(1 - ik)^2 + a = 0`` in the momentum;
* rational models: the poles they were built from;
* square wells: zeros of the Jost function computed from the ODE
  ``u'' = -(v0 + k^2) u`` integrated by the same fixed-step RK4 scheme as
  ``jost_F_ode`` (criterion 12 of the acceptance tests), evaluated for many k
  at once; bound and virtual states by bisection on the imaginary axis, the
  two lowest resonances by Newton steps from grid minima, with an
  argument-principle count proving that no lower resonance was skipped.

A pole is a pair ``(z, sheet)`` in the energy variable ``z = k^2``; sheet 1
carries ``Im k > 0``.  The *expected* poles are those a complete pole search
must report: bound states, virtual states (sheet-two poles on the negative
axis), resonances in the lower half plane of sheet two, and every given pole
of a one-sheet rational model.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

# Poles within this distance (relative to max(1, |z|)) are the same pole.
MATCH_TOL = 1e-6
# Form factors sampled into a CSV file carry quadrature error of their own.
CSV_MATCH_TOL = 1e-4
ODE_STEPS = 4000


class OracleError(RuntimeError):
    """The oracle could not certify its own answer."""


def same_pole(z1: complex, z2: complex, tol: float = MATCH_TOL) -> bool:
    return abs(z1 - z2) <= tol * max(1.0, abs(z2))


# ---------------------------------------------------------------------------
# rank-one coupling


def rankone_roots(a: float) -> list[tuple[complex, int]]:
    """Both roots of ``(1 - ik)^2 + a = 0`` as (z, sheet)."""
    root = cmath.sqrt(complex(-a))
    out = []
    for k in (-1j * (1 - root), -1j * (1 + root)):
        z = k * k
        if abs(k.real) < 1e-14 * max(1.0, abs(k)):
            z = complex(z.real, 0.0)
        out.append((z, 1 if k.imag > 0 else 2))
    return out


def _physical(poles: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """Poles a complete search reports: real negative z on either sheet, lower half plane of sheet 2."""
    return [(z, s) for z, s in poles if (z.imag == 0 and z.real < 0) or (s == 2 and z.imag < 0)]


# ---------------------------------------------------------------------------
# square well, from the radial ODE


def jost_ode(k, v0, radius, n_steps: int = ODE_STEPS):
    """Jost function from RK4 on ``u'' = -(v0 + k^2) u``, u(0) = 0, u'(0) = 1.

    For this linear equation one RK4 step of size h is the matrix
    ``P = alpha I + beta A`` with ``A = [[0, 1], [c, 0]]``; n steps are ``P^n``,
    formed by repeated squaring inside the algebra spanned by I and A.  The
    result equals ``jost_F_ode`` up to rounding.
    """
    k = np.asarray(k, dtype=complex)
    v0 = np.asarray(v0, dtype=float)
    radius = np.asarray(radius, dtype=float)
    h = radius / n_steps
    c = -(v0 + k * k)
    hc = h * h * c
    base_p = 1 + hc / 2 + hc * hc / 24
    base_q = h * (1 + hc / 6)
    p = np.ones(np.broadcast(k, v0, radius).shape, dtype=complex)
    q = np.zeros_like(p)
    n = n_steps
    while n:
        if n & 1:
            p, q = p * base_p + q * base_q * c, p * base_q + q * base_p
        base_p, base_q = base_p * base_p + base_q * base_q * c, 2 * base_p * base_q
        n >>= 1
    return np.exp(1j * k * radius) * (p - 1j * k * q)


def _bisect_axis(fn, lo: np.ndarray, hi: np.ndarray, iters: int = 60) -> np.ndarray:
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        left = np.sign(fm) == np.sign(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _axis_zeros(fn, top: float, n: int = 4000) -> list[float]:
    x = np.linspace(1e-6, top, n)
    v = fn(x)
    idx = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    if idx.size == 0:
        return []
    return [float(r) for r in _bisect_axis(fn, x[idx], x[idx + 1])]


def _newton(fn, k: np.ndarray, iters: int = 40) -> tuple[np.ndarray, np.ndarray]:
    step = np.full(k.shape, np.inf)
    for _ in range(iters):
        h = 1e-6 * np.maximum(1.0, np.abs(k))
        f0, fp, fm = np.split(fn(np.concatenate([k, k + h, k - h])), 3)
        step = f0 / ((fp - fm) / (2 * h))
        k = k - step
        if np.all(np.abs(step) < 1e-13 * np.maximum(1.0, np.abs(k))):
            break
    return k, np.abs(step)


def _winding(fn, re0: float, re1: float, im0: float, im1: float, n: int = 4096) -> int:
    t = np.linspace(0, 1, n, endpoint=False)
    path = np.concatenate([
        re0 + (re1 - re0) * t + 1j * im0,
        re1 + 1j * (im0 + (im1 - im0) * t),
        re1 - (re1 - re0) * t + 1j * im1,
        re0 + 1j * (im1 - (im1 - im0) * t),
    ])
    ph = np.angle(fn(np.append(path, path[0])))
    d = (np.diff(ph) + np.pi) % (2 * np.pi) - np.pi
    return int(round(float(np.sum(d)) / (2 * np.pi)))


def _lower_resonance_momenta(fn, v0: float, radius: float, count: int = 2) -> list[complex]:
    """The ``count`` fourth-quadrant Jost zeros of smallest |k|.

    Zeros inside the square [d, K] x [-K, -d] come from grid minima plus Newton
    and must match the square's winding number.  The square grows until it
    holds ``count`` zeros whose largest modulus is at most K, so that no zero
    of smaller modulus can lie outside it.  The offset d keeps the square off
    the imaginary axis, where virtual states sit; its boundary is sampled
    finely against d, so that a zero just outside the square cannot flip the
    phase count.
    """
    d = 1e-2
    side = math.sqrt(v0) + 2 * math.pi / radius
    for _ in range(16):
        for res in (160, 320, 640):
            re = np.linspace(d, side, res)
            im = np.linspace(-side, -d, res)
            kk = re[None, :] + 1j * im[:, None]
            mag = np.abs(fn(kk.ravel())).reshape(kk.shape)
            inner = mag[1:-1, 1:-1]
            is_min = np.ones_like(inner, dtype=bool)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di or dj:
                        is_min &= inner <= mag[1 + di:res - 1 + di, 1 + dj:res - 1 + dj]
            starts = kk[1:-1, 1:-1][is_min]
            zeros: list[complex] = []
            if starts.size:
                roots, steps = _newton(fn, starts)
                for z, s in zip(roots, steps):
                    inside = d < z.real < side and -side < z.imag < -d
                    if inside and s < 1e-9 * max(1.0, abs(z)) and all(abs(z - w) > 1e-7 for w in zeros):
                        zeros.append(complex(z))
            if len(zeros) == _winding(fn, d, side, -side, -d, n=max(4096, int(20 * side / d))):
                break
        else:
            side *= 1.1  # a zero next to the boundary: move the boundary
            continue
        zeros.sort(key=abs)
        if len(zeros) >= count and abs(zeros[count - 1]) <= side:
            return zeros[:count]
        side *= 1.6
    raise OracleError(f"square well v0={v0:g}, radius={radius:g}: lowest resonances not certified")


def squarewell_poles(v0: float, radius: float) -> dict:
    """Bound, virtual and lowest resonance poles of the well, in the energy variable."""
    def fn(k):
        return jost_ode(k, v0, radius)

    bound = _axis_zeros(lambda x: fn(1j * x).real, math.sqrt(v0))
    virtual = _axis_zeros(lambda x: fn(-1j * x).real, math.sqrt(v0) + 30.0 / radius)
    res = _lower_resonance_momenta(fn, v0, radius)
    poles = [(complex(-x * x, 0.0), 1) for x in bound]
    poles += [(complex(-x * x, 0.0), 2) for x in virtual]
    poles += [(k * k, 2) for k in res]
    return {"expected": poles, "resonances": [k * k for k in res]}


def momentum(z: complex, sheet: int) -> complex:
    k = 1j * cmath.sqrt(-complex(z))
    return k if sheet == 1 else -k


def squarewell_is_pole(z: complex, sheet: int, v0: float, radius: float) -> bool:
    """True when a Newton step on the ODE Jost function from k is within MATCH_TOL."""
    k = momentum(z, sheet)
    h = 1e-6 * max(1.0, abs(k))
    f0, fp, fm = jost_ode(np.array([k, k + h, k - h]), v0, radius)
    if f0 == 0:
        return True
    step = f0 / ((fp - fm) / (2 * h))
    return abs(step) <= MATCH_TOL * max(1.0, abs(k))


# ---------------------------------------------------------------------------
# per-op oracle


class Oracle:
    """Expected poles of a model description, with a genuine-pole test."""

    def __init__(self, expected, genuine, tol: float = MATCH_TOL):
        self.expected = expected
        self._genuine = genuine
        self.tol = tol

    @property
    def resonances(self) -> list[complex]:
        """Expected lower-half-plane poles: the ones a decay curve can evolve."""
        return [z for z, _ in self.expected if z.imag < 0]

    def slowest(self) -> complex | None:
        res = self.resonances
        return min(res, key=lambda z: abs(z.imag)) if res else None

    def is_pole(self, z: complex, sheet: int) -> bool:
        return self._genuine(complex(z), int(sheet))

    def matched(self, found: list[tuple[complex, int]]) -> int:
        return sum(1 for z, s in self.expected
                   if any(fs == s and same_pole(fz, z, self.tol) for fz, fs in found))


def _closed_set_oracle(poles, expected, tol=MATCH_TOL) -> Oracle:
    return Oracle(expected, lambda z, s: any(ps == s and same_pole(z, p, tol) for p, ps in poles), tol)


def rankone_oracle(a: float, tol: float = MATCH_TOL) -> Oracle:
    roots = rankone_roots(a)
    return _closed_set_oracle(roots, _physical(roots), tol)


def rational_oracle(poles) -> Oracle:
    roots = [(complex(p), 1) for p in poles]
    return _closed_set_oracle(roots, roots)


class Oracles:
    """Oracle per model description; square wells are computed once per run."""

    def __init__(self):
        self._wells: dict[tuple[float, float], dict | OracleError] = {}

    def well(self, v0: float, radius: float) -> dict:
        key = (v0, radius)
        if key not in self._wells:
            try:
                self._wells[key] = squarewell_poles(v0, radius)
            except OracleError as exc:  # remembered: every op on this well is unverified
                self._wells[key] = exc
        if isinstance(self._wells[key], OracleError):
            raise self._wells[key]
        return self._wells[key]

    def for_op(self, op: dict) -> Oracle | None:
        if op.get("command") == "verify":
            return None
        if op["kind"] == "traceclass":
            return rankone_oracle(op["a"])
        spec = json.loads(op["spec"])
        model = spec["model"]
        if model == "example1":
            return rational_oracle([1j, 1 - 1j])
        if model == "rational":
            return rational_oracle([complex(re, im) for re, im in spec["poles"]])
        if model == "rankone":
            return rankone_oracle(spec["a"])
        if model == "traceclass":
            return rankone_oracle(op["csv_a"], CSV_MATCH_TOL)
        if model == "squarewell":
            v0, radius = spec["v0"], spec["radius"]
            poles = self.well(v0, radius)["expected"]
            return Oracle(poles, lambda z, s: any(ps == s and same_pole(z, p) for p, ps in poles)
                          or squarewell_is_pole(z, s, v0, radius))
        raise ValueError(f"no oracle for model {model!r}")
