"""Spans around calls into the program's public functions.

``Tracer.install`` replaces each traced function by a wrapper wherever the
program looks it up: its module, every module that bound it with
``from ... import``, and the ``verify.SUITES`` table.  Methods of the
scattering-matrix models are wrapped on each class that defines them.
Spans (name, start, end, parent, op id) stay in memory; self time is a span's
duration minus the part of it covered by its child spans.

Counts recorded on return (points evaluated, Newton iterations, candidates)
depend only on the inputs, so they repeat exactly for a given seed.  FFT byte
counts are computed from array sizes (16 bytes per complex sample, read and
written once); no hardware counters are used.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

FUNCTIONS = {
    "smatrix": ("trace_T", "build_L"),
    "finder": ("find_resonances", "scan_region", "winding_number", "refine", "rim_scan"),
    "hardy": ("fourier", "project_hardy", "project_half_line", "cauchy_eval", "mt_expand",
              "mt_synthesize"),
    "semigroup": ("apply_C", "build_polar_isometry", "semigroup_matrix"),
    "subspace": ("build_N_basis", "build_M_and_T", "transition_curve", "resolve_B"),
    "verify": ("hardy_suite", "semigroup_suite", "smatrix_suite", "subspace_suite"),
}
METHODS = ("pole_condition", "boundary", "eval_physical")
FFT_BYTES_PER_POINT = 2 * 16


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _probe(name, fn, args, kwargs, out, counts):
    """Work counts of one returned call."""
    if name == "smatrix.pole_condition":
        counts[name + ".points"] += _size(args[1])
    elif name == "smatrix.boundary":
        counts[name + ".points"] += _size(args[1])
    elif name == "finder.rim_scan":
        counts[name + ".points"] += _arg(fn, args, kwargs, "n")
        counts["finder.rim_roots"] += len(out)
    elif name == "finder.scan_region":
        counts["finder.candidates"] += len(out)
    elif name == "finder.find_resonances":
        counts["finder.kept"] += len(out)
    elif name == "finder.refine":
        counts[name + ".iterations"] += out.refinement_iterations
    elif name == "hardy.mt_expand":
        n_theta = _arg(fn, args, kwargs, "n_theta")
        counts[name + ".fft_points"] += n_theta
        counts["hardy.fft_bytes"] += FFT_BYTES_PER_POINT * n_theta
    elif name == "hardy.fourier":
        counts["hardy.fft_bytes"] += FFT_BYTES_PER_POINT * _size(args[0].samples)
    elif name == "subspace.build_M_and_T":
        n_theta = _arg(fn, args, kwargs, "n_theta")
        cols = args[1].coefs.shape[1]
        counts["hardy.fft_bytes"] += 2 * FFT_BYTES_PER_POINT * n_theta * cols
        counts["subspace.dim_T"] += out[1].dim
        counts["subspace.working_dim"] += out[1].working_dim


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            _probe(name, fn, args, kwargs, out, counts)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr) if not isinstance(obj, dict) else obj[attr]))
        if isinstance(obj, dict):
            obj[attr] = value
        else:
            setattr(obj, attr, value)

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "scatres" or name.startswith("scatres.")}
        for short, names in FUNCTIONS.items():
            module = mods.get("scatres." + short)
            if module is None:  # not imported by this workload
                continue
            for fname in names:
                orig = getattr(module, fname)
                wrapped = self.wrap(f"{short}.{fname}", orig)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)
                suites = getattr(mods.get("scatres.verify"), "SUITES", {})
                for key, value in list(suites.items()):
                    if value is orig:
                        self._set(suites, key, wrapped)
        smatrix = mods["scatres.smatrix"]
        for cls in vars(smatrix).values():
            if isinstance(cls, type) and issubclass(cls, smatrix.SMatrixModel):
                for meth in METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self.wrap(f"smatrix.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    # -- aggregation -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self milliseconds and counts per span name."""
        calls: Counter = Counter()
        self_ms: defaultdict = defaultdict(float)
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_ms[name] += 1e3 * own
        return {"calls": dict(calls), "self_ms": dict(self_ms), "counts": dict(self.counts)}


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals, clipped to it."""
    children: defaultdict = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def merge(summaries) -> dict:
    total = {"calls": Counter(), "self_ms": defaultdict(float), "counts": Counter()}
    for s in summaries:
        total["calls"].update(s["calls"])
        total["counts"].update(s["counts"])
        for k, v in s["self_ms"].items():
            total["self_ms"][k] += v
    return {k: dict(v) for k, v in total.items()}
