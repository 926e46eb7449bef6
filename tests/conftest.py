import os
import subprocess
import sys

import numpy as np
import pytest

import scatres as sr

N_DEFAULT = 2**14
L_DEFAULT = 400.0


@pytest.fixture(scope="session")
def grid():
    return sr.make_grid(N_DEFAULT, L_DEFAULT)


@pytest.fixture(scope="session")
def big_grid():
    # for tests whose tolerances the spec does not tie to the default grid
    return sr.make_grid(2**15, 1600.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def ex1_bases(grid):
    model = sr.example1()
    nb = sr.build_N_basis(model, 16, "upper_poles", grid)
    mb, tb = sr.build_M_and_T(model, nb)
    return model, nb, mb, tb


@pytest.fixture(scope="session")
def rankone_bases(grid):
    model = sr.RankOneModel(1.0)
    nb = sr.build_N_basis(model, 24, "rim_poles", grid)
    mb, tb = sr.build_M_and_T(model, nb)
    return model, nb, mb, tb


def rational_sum(grid, poles, weights=None):
    lam = grid.points()
    weights = weights or [1.0] * len(poles)
    return sr.GridFunction(grid, sum(w / (lam - p) for w, p in zip(weights, poles)))


LOWER_POINTS = (-1j, 1 - 0.5j, -2 - 2j, 0.3 - 3j)


def lower_cauchy_leak(f):
    """``max |C_- f(z)| sqrt(pi) / ||f||`` over points below the axis.

    The Cauchy integral below the axis vanishes on the upper Hardy class, so
    this measures how far grid samples are from a member of it.
    """
    worst = max(np.abs(sr.cauchy_eval(f, z)).max() for z in LOWER_POINTS)
    return worst * np.sqrt(np.pi) / sr.norm(f)


def run_python(*args, cwd=None, **env):
    """Run a fresh interpreter that imports this checkout of scatres, with extra ``env``."""
    src = os.path.dirname(os.path.dirname(sr.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


def count_trace_T(monkeypatch):
    """Wrap ``smatrix.trace_T``, where the models look it up; return the list of each call's ``z`` shape."""
    calls, inner = [], sr.smatrix.trace_T

    def counted(data, z):
        calls.append(np.shape(z))
        return inner(data, z)

    monkeypatch.setattr(sr.smatrix, "trace_T", counted)
    return calls
