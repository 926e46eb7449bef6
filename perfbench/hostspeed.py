"""Speed of the host, measured alongside the program, to take host drift out of timings.

The benchmark runs on a few cores of a shared host whose speed shifts in
steps of up to 50% that last tens of seconds, as load elsewhere on the host
comes and goes; a whole run can fall into a slow stretch.  A fixed reference
probe is timed between ops, and a timing taken at time t is scaled by
``reference_ms / probe_ms(t)``, where ``probe_ms(t)`` is the median of the
probe samples nearest to t: it then reads as on a host where the probe takes
``reference_ms``.  The probe does not call the program, so a change to the
program moves the scaled timings in full.  Raw timings are recorded beside
the scaled ones.

Three probes, matched to what the ops spend their time on:

* in-process pole finding (``sweep``, ``traceclass``): ``kernel``, complex
  arithmetic in the interpreter, element-wise numpy on 4096 points, FFTs of
  length 2^14 and 48x48 eigenvalue problems;
* in-process decay pipelines: ``array_kernel``, FFTs of length 2^16 and
  products of an 8192x48 matrix, the large-array work those pipelines do.
  ``kernel`` does not follow them: its time swings between two levels 40%
  apart within seconds while decay ops hold within 10%.  It writes into
  buffers allocated once, so that it does not move malloc's mmap threshold
  and with it the program's peak RSS;
* CLI ops, whose cost is mostly interpreter start and imports: a fresh
  interpreter that imports numpy and runs ``kernel`` once.  The in-process
  kernel does not follow these costs (scaling CLI timings by it widened
  their spread across runs instead of narrowing it).
"""

from __future__ import annotations

import bisect
import functools
import statistics
import subprocess
import time

# Probe times that define the reference speed: about the fastest seen for each
# probe on a shared 2-vCPU x86-64 virtual machine with one BLAS thread.  Any
# fixed value would do; these keep scaled timings close to raw ones.
REFERENCE_MS = 8.0  # kernel
ARRAY_REFERENCE_MS = 9.0  # array_kernel
PROCESS_REFERENCE_MS = 200.0  # fresh interpreter that imports numpy and runs the kernel
NEAREST = 5  # probe samples whose median gives the host speed at a time
SAMPLE_EVERY_S = 0.5
RUNS_PER_SAMPLE = 2  # an in-process sample is the fastest of these back-to-back runs


@functools.cache
def _arrays():
    """numpy and the kernel's inputs, loaded at the first sample so that importing
    this module leaves the program's set-up to pay for numpy."""
    import numpy as np

    rng = np.random.default_rng(12345)
    return np, rng.random(4096) + 1j * rng.random(4096), rng.random(1 << 14), rng.random((48, 48))


@functools.cache
def _large_arrays():
    """Inputs and output buffers of ``array_kernel``."""
    import numpy as np

    rng = np.random.default_rng(12345)
    big = rng.random(1 << 16) + 1j * rng.random(1 << 16)
    tall = rng.random((8192, 48))
    buffers = (np.empty_like(big), np.empty_like(big), np.empty_like(tall), np.empty((48, 48)))
    return np, big, tall, rng.random((48, 48)), buffers


def kernel() -> None:
    np, x, f, m = _arrays()
    s = 0j
    for j in range(2500):
        s += complex(j, 1.0) * (1 + 0.5j) / (j + 1)
    for _ in range(15):
        y = np.exp(1j * x) * x / (x + 2.0)
        float(np.abs(y).sum())
    for _ in range(4):
        np.fft.ifft(np.fft.fft(f))
    for _ in range(3):
        np.linalg.eigvals(m)


def array_kernel() -> None:
    np, big, tall, square, (spectrum, back, product, gram) = _large_arrays()
    for _ in range(2):
        np.fft.fft(big, out=spectrum)
        np.fft.ifft(spectrum, out=back)
    np.matmul(tall, square, out=product)
    np.matmul(tall.T, tall, out=gram)


def fresh_process_probe(argv: list[str], env: dict):
    """A probe that times a fresh interpreter running ``argv`` (for CLI ops,
    whose cost is process start and imports as much as computation)."""
    def probe() -> float:
        t0 = time.perf_counter()
        # pipes make run() wait on end-of-file; a bare wait with a timeout polls
        # the child at up to 50 ms intervals, which would quantize the time
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t0
    return probe


def in_process_probe(fn):
    """A probe that times ``fn`` in this process: the fastest of RUNS_PER_SAMPLE
    runs, as the first run after an op often finds the caches cold, which says
    nothing about the host.  The first call also runs ``fn`` once untimed, to
    load numpy and warm its FFT and LAPACK paths."""
    warm = []

    def probe() -> float:
        if not warm:
            fn()
            warm.append(True)
        runs = []
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - t0)
        return min(runs)
    return probe


class HostSpeed:
    """Probe samples over a run; ``scale(t)`` converts a timing taken at t.

    ``probe()`` returns seconds; ``reference_ms`` is its time at the
    reference speed.
    """

    def __init__(self, probe, reference_ms: float):
        self.probe = probe
        self.reference_ms = reference_ms
        self.times: list[float] = []  # perf_counter at the middle of each sample
        self.probe_ms: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = self.probe()
        end = time.perf_counter()
        i = bisect.bisect(self.times, (start + end) / 2)
        self.times.insert(i, (start + end) / 2)
        self.probe_ms.insert(i, 1e3 * seconds)
        self.spent_s += end - start

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def local_probe_ms(self, t: float) -> float:
        """Median of the NEAREST probe samples closest in time to t."""
        i = bisect.bisect(self.times, t)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.times)):
            if lo > 0 and (hi >= len(self.times) or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.probe_ms[lo:hi])

    def scale(self, t: float) -> float:
        """Factor that turns a timing taken at t into one at the reference speed."""
        return self.reference_ms / self.local_probe_ms(t)

    def median_probe_ms(self) -> float:
        return statistics.median(self.probe_ms)
