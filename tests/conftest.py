"""Shared fixtures and independent numerical oracles for the test suite."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vortexlab.lattice import ForcingGeometry
from vortexlab.simulate import SimConfig, simulate
from vortexlab.spectral import Basis, InteractionTable, SpectralField

# Property tests draw the same examples on every run, replay no stored
# failures and carry no per-example deadline, so timings on a loaded machine
# cannot fail them.
settings.register_profile("vortexlab", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("vortexlab")

# The canonical four-mode forcing used throughout: sin and cos on (1,0), (1,1).
FORCING = ((1, 0), (1, 1))
Z_STAR = frozenset({(1, 0), (-1, 0), (1, 1), (-1, -1)})
# A one-signed forcing: (-1, -2) without its negative. At radius 3 the
# lattice search reaches 3 modes and the Galerkin closure holds 16 of 28.
ONE_SIGNED = frozenset({(-1, -2), (0, 2), (0, -2)})


def eval_basis_mode(label, x1, x2):
    """Pointwise values of one real Fourier mode on the torus.

    Positive-class labels (k2 > 0, or k2 == 0 and k1 > 0) are sine modes;
    negative-class labels are cosine modes.  Computed directly from the
    trigonometric definition, independent of the package internals.
    """
    k1, k2 = label
    phase = k1 * x1 + k2 * x2
    if (k2 > 0) or (k2 == 0 and k1 > 0):
        return np.sin(phase)
    return np.cos(phase)


def torus_grid(n=64):
    """Uniform n x n quadrature grid on [0, 2*pi)^2 (exact for trig polys)."""
    t = np.arange(n) * (2.0 * np.pi / n)
    x1, x2 = np.meshgrid(t, t, indexing="ij")
    return x1, x2


def grid_integral(values):
    """Integral over the torus by the exact uniform trapezoid rule."""
    return float(np.mean(values)) * (2.0 * np.pi) ** 2


def project_on_basis(values, basis, x1, x2):
    """Coefficients of a grid function in the real Fourier basis.

    Uses <f, e_k> / ||e_k||^2 with ||e_k||^2 = 2*pi^2, by direct quadrature.
    """
    coeffs = np.zeros(len(basis.modes))
    for idx, label in enumerate(basis.modes):
        mode = eval_basis_mode(label, x1, x2)
        coeffs[idx] = grid_integral(values * mode) / (2.0 * np.pi ** 2)
    return coeffs


def field_from_dict(basis, entries):
    f = SpectralField(basis, np.zeros(len(basis.modes)))
    for label, value in entries.items():
        f.coeffs[basis.index[tuple(label)]] = value
    return f


def traced_peak(fn, *args):
    """Peak traced bytes while fn(*args) runs; tracing stops if fn raises."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def random_fields(draw, count):
    """A basis of random radius in [1.5, 5] and `count` random fields on it."""
    basis = Basis.build(draw(st.floats(1.5, 5.0)))
    coeffs = draw(arrays(np.float64, (count, len(basis)),
                         elements=st.floats(-1.0, 1.0)))
    return basis, [SpectralField(basis, c) for c in coeffs]


@pytest.fixture(scope="session")
def basis4():
    return Basis.build(4.0)


@pytest.fixture(scope="session")
def basis8():
    return Basis.build(8.1)


def closure_run(case):
    """(run, seed): a zero-argument simulate call whose drive reaches a
    Galerkin closure smaller than the basis, and the modes it drives.

    "two-controls" and "one-control" control (1, 0) and (-1, -1), or (1, 0)
    alone, at radius 4; "signed-initial" starts from data on those two
    modes with a -0 on (-2, 2), off their closure; "one-signed-block" runs
    three noise paths under ONE_SIGNED at radius 3.
    """
    if case == "one-signed-block":
        cfg = SimConfig(nu=0.5, forcing=ForcingGeometry(ONE_SIGNED),
                        radius=3.0, dt=1e-3, t_final=0.05, seed=3)
        return (lambda: simulate(cfg, [0, 1, 2])), ONE_SIGNED
    driven = [(1, 0)] if case == "one-control" else [(1, 0), (-1, -1)]
    basis, control = Basis.build(4.0), np.zeros((20, 4))
    initial = None
    if case == "signed-initial":
        initial = field_from_dict(basis, {(1, 0): 0.3, (-1, -1): -0.2,
                                          (-2, 2): -0.0})
    else:  # columns follow sorted(Z_STAR): (-1, -1), (-1, 0), (1, 0), (1, 1)
        cols = [sorted(Z_STAR).index(k) for k in driven]
        control[:, cols] = np.random.default_rng(31).uniform(
            -0.3, 0.3, (20, len(cols)))
    cfg = SimConfig(nu=0.5, forcing=ForcingGeometry(Z_STAR), dt=1e-2,
                    t_final=0.2, radius=4.0, initial=initial)
    return (lambda: simulate(cfg, increments=np.zeros_like(control),
                             control=control)), frozenset(driven)


def whole_ball(monkeypatch):
    """Every table's closure reads as its whole basis: no row or term of
    simulate or L(w) drops, as before closures were taken."""
    monkeypatch.setattr(InteractionTable, "closure",
                        lambda self, seed: np.ones(len(self.basis), bool))
