"""Seeded inputs for every workload.

Standard library only: generating inputs must not import numpy, so that the
set-up time measured afterwards pays for every import itself.

Each workload is a fixed number of *rounds* (``ROUNDS``), run in order and
then again from the first while time is left.  A round has a fixed composition
of model families and parameter strata; only the values inside each stratum
come from the seed, as a seed-rotated golden-ratio sequence that covers the
stratum evenly in every run.  Runs with different seeds therefore measure the
same mix with the same share of known-defect inputs, while every run still
sees fresh parameters.
"""

from __future__ import annotations

import json
import math
import os
import random

# Distinct rounds of a run: each op is judged once and counted once in
# ``attempted``, however often the rounds repeat in the time given.
ROUNDS = {"sweep": 40, "traceclass": 4, "decay": 3, "cli": 3}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# log10 |a| strata of the rank-one coupling.  Sweeps draw log-uniform decades
# in both signs; the top decade reaches a = 31.6, whose resonance 30.6-11.2i lies
# far outside the finder's default regions.  The slower workloads, with fewer
# ops per run, use a weak and a strong stratum so that every run holds the same
# share of couplings whose poles lie far out on the real axis.
A_DECADES = ((-1.5, -0.5), (-0.5, 0.5), (0.5, 1.5))
A_WEAK = (-1.0, 0.4)  # |a| in [0.1, 2.5]
A_STRONG = (1.2, 1.5)  # |a| in [15.8, 31.6]
DECAY_BASIS_SIZES = (32, 40, 48)
DECAY_GRID = (2**14, 400.0)
DECAY_TIMES = "0:3:0.1"
# Square-well pool by strength sqrt(v0)*radius.  A new bound state appears
# at (n - 1/2)*pi, so the pool holds wells with 0, 1, 2 and 3 bound states in
# fixed shares whatever the seed.  Decay and cli use the two weaker wells.
WELL_STRENGTHS = ((0.3, 1.4), (1.7, 4.5), (4.9, 7.6), (8.0, 10.8))
WELLS_PER_STRENGTH = 4
CSV_ROWS = 4000
# Fixed, unmeasured first op of each in-process workload: set-up does the same
# work for every seed.
WARMUP = {
    "sweep": {"kind": "sweep", "spec": '{"model": "example1"}'},
    "traceclass": {"kind": "traceclass", "a": -2.0},
    "decay": {"kind": "decay", "spec": '{"model": "example1"}', "basis_n": DECAY_BASIS_SIZES[-1]},
}


def _rational_poles(rng: random.Random, signs, re_max: float = 5.0,
                    im_range: tuple[float, float] = (0.2, 5.0), apart: float = 0.3) -> list[list[float]]:
    """One pole per sign (+1 upper, -1 lower half plane), pairwise and conjugate-pairwise apart.

    The separation keeps every given pole a distinct pole of S: a pole next to
    the conjugate of another nearly cancels out of the product.
    """
    poles: list[complex] = []
    while len(poles) < len(signs):
        p = complex(rng.uniform(-re_max, re_max), signs[len(poles)] * rng.uniform(*im_range))
        if all(abs(p - q) > apart and abs(p - q.conjugate()) > apart for q in poles):
            poles.append(p)
    return [[p.real, p.imag] for p in poles]


def _sweep_rational(rng: random.Random, count: int) -> list[list[float]]:
    """``count`` poles, each in a random half plane."""
    return _rational_poles(rng, [rng.choice((-1, 1)) for _ in range(count)])


def _near_rational(rng: random.Random, signs) -> dict:
    """Poles within reach of the decay pipeline's basis sizes, and a unit apart:
    closely spaced poles test the finder's resolution, which ``sweep`` covers."""
    return {"model": "rational", "poles": _rational_poles(rng, signs, 2.0, (0.5, 2.0), 1.0)}


def _squarewell(rng: random.Random, strength: tuple[float, float]) -> dict:
    radius = rng.uniform(0.5, 2.0)
    return {"model": "squarewell", "v0": (rng.uniform(*strength) / radius) ** 2, "radius": radius}


def spec_text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


class Inputs:
    """All inputs of one run, drawn from one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"{workload}:{seed}")
        self.wells = [_squarewell(self._rng, s) for _ in range(WELLS_PER_STRENGTH) for s in WELL_STRENGTHS]
        self._strata: dict = {}  # stratum -> [offset, points drawn]
        self.csv_couplings = [self._coupling(A_WEAK, 1), self._coupling(A_WEAK, -1)]
        self._rounds: list[list[dict]] = []
        self.n_rounds = ROUNDS[workload]
        self.warmup = WARMUP.get(workload)

    def _coupling(self, stratum: tuple[float, float], sign: int) -> float:
        """Next rank-one coupling of the log10 |a| stratum with the given sign."""
        slot = self._strata.get((stratum, sign))
        if slot is None:
            slot = self._strata[(stratum, sign)] = [self._rng.random(), 0]
        u = (slot[0] + slot[1] * GOLDEN) % 1.0
        slot[1] += 1
        lo, hi = stratum
        return sign * 10 ** (lo + (hi - lo) * u)

    def round(self, r: int) -> list[dict]:
        """Ops of round r; rounds are drawn in order, so r is reproducible."""
        while len(self._rounds) <= r:
            self._rounds.append(getattr(self, "_round_" + self.workload)(len(self._rounds)))
        return self._rounds[r]

    def weak_well(self, r: int) -> dict:
        """Well of round r for decay and cli: the two weakest strengths in turn,
        a different well each time the pool allows."""
        return self.wells[r % 2 + len(WELL_STRENGTHS) * (r // 2 % WELLS_PER_STRENGTH)]

    # -- workloads -----------------------------------------------------------

    def _round_sweep(self, r: int) -> list[dict]:
        rng = self._rng
        specs = [{"model": "example1"}]
        # 1 to 4 poles, every count equally often
        specs += [{"model": "rational", "poles": _sweep_rational(rng, 1 + (2 * r + i) % 4)} for i in range(2)]
        specs += [self.wells[(2 * r + i) % len(self.wells)] for i in range(2)]
        specs += [{"model": "rankone", "a": self._coupling(d, s)} for d in A_DECADES for s in (1, -1)]
        ops = [{"kind": "sweep", "spec": spec_text(s)} for s in specs]
        rng.shuffle(ops)
        return ops

    def _round_traceclass(self, r: int) -> list[dict]:
        rng = self._rng
        strata = (A_DECADES[0], A_DECADES[1], A_STRONG)
        ops = [{"kind": "traceclass", "a": self._coupling(d, s)} for d in strata for s in (1, -1)]
        rng.shuffle(ops)
        return ops

    def _round_decay(self, r: int) -> list[dict]:
        rng = self._rng
        specs = [
            {"model": "example1"},
            _near_rational(rng, (-1, 1)),
            _near_rational(rng, (-1, -1)),
            {"model": "rankone", "a": self._coupling(A_WEAK, 1)},
            {"model": "rankone", "a": self._coupling(A_STRONG, 1)},
            {"model": "rankone", "a": self._coupling(A_STRONG if r % 2 else A_WEAK, -1)},
            self.weak_well(r),
        ]
        ops = []
        for i, s in enumerate(specs):
            size = DECAY_BASIS_SIZES[(len(specs) * r + i) % len(DECAY_BASIS_SIZES)]
            ops.append({"kind": "decay", "spec": spec_text(s), "basis_n": size})
        rng.shuffle(ops)
        return ops

    def _round_cli(self, r: int) -> list[dict]:
        rng = self._rng
        even = r % 2 == 0
        res_specs = [
            {"model": "example1"},
            _near_rational(rng, (-1, 1) if even else (-1, -1, 1)),
            self.weak_well(r),
            {"model": "rankone", "a": self._coupling(A_STRONG if even else A_WEAK, 1)},
            {"model": "rankone", "a": self._coupling(A_WEAK if even else A_STRONG, -1)},
        ]
        ops = [{"kind": "cli", "command": "resonances", "spec": spec_text(s)} for s in res_specs]
        ops.append({"kind": "cli", "command": "resonances",
                    "spec": spec_text({"model": "traceclass", "file": self.csv_name(r % 2)}),
                    "csv_a": self.csv_couplings[r % 2]})
        decay_spec = {"model": "example1"} if even else self.wells[(r + 1) % 2]
        ops.append({"kind": "cli", "command": "decay", "spec": spec_text(decay_spec),
                    "basis_n": DECAY_BASIS_SIZES[-1]})
        ops.append({"kind": "cli", "command": "verify"})
        rng.shuffle(ops)
        return ops

    # -- files written at set-up -----------------------------------------------

    @staticmethod
    def csv_name(i: int) -> str:
        return f"formfactor{i}.csv"

    def write_files(self, work: str) -> None:
        """Rank-one form factors ``sqrt(2/pi) lam^(1/4)/(lam+1)`` sampled for CSV loading."""
        if self.workload != "cli":
            return
        for i, a in enumerate(self.csv_couplings):
            rows = ["lambda,re_a_0_0,im_a_0_0,re_b_0_0,im_b_0_0"]
            for j in range(1, CSV_ROWS + 1):
                k = 0.01 * j * (1.0 + j / 1000)  # momentum grid out to k = 200, finer near threshold
                lam = k * k
                e = math.sqrt(2 / math.pi) * lam**0.25 / (lam + 1)
                rows.append(f"{lam!r},{e!r},0.0,{a * e!r},0.0")
            with open(os.path.join(work, self.csv_name(i)), "w") as fh:
                fh.write("\n".join(rows) + "\n")
