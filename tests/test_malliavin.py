"""Noise covariance: forward/backward agreement, spectra, bracket identities."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vortexlab import malliavin
from vortexlab.lattice import ForcingGeometry
from vortexlab.malliavin import (DEFAULT_EPSILONS, MalliavinForm,
                                 PAIRING_PREFACTOR, bracket_decomposition,
                                 bracket_pairing, malliavin_backward_form,
                                 malliavin_forward, min_eigenvalue_tail,
                                 pairing_rhs, wilson_interval)
from vortexlab.simulate import SimConfig, block_size, simulate
from vortexlab.spectral import (Basis, SpectralField, TWO_PI_SQ, adjoint_C,
                                nonlinearity_B)

from conftest import Z_STAR, field_from_dict

CANONICAL = ForcingGeometry(frozenset(Z_STAR))
FORCED = tuple(sorted(Z_STAR))


def make_traj(nu=1.0, radius=3.0, dt=1e-3, t_final=0.2, seed=21):
    cfg = SimConfig(nu=nu, forcing=CANONICAL, radius=radius, dt=dt,
                    t_final=t_final, seed=seed)
    return simulate(cfg)


# ------------------------------------------------------- closed-form base

def test_zero_trajectory_diagonal_closed_form():
    # With w == 0 the tangent flow is the heat semigroup, so the covariance
    # is diagonal on the forced modes with entries (1-e^{-2 nu lam t})/(2 nu lam).
    nu, dt, t = 0.8, 5e-4, 0.1
    cfg = SimConfig(nu=nu, forcing=CANONICAL, radius=3.0, dt=dt, t_final=t)
    traj = simulate(cfg, increments=np.zeros((cfg.n_steps(), 4)))
    form = malliavin_forward(traj, t, FORCED)
    lam = np.array([k[0] ** 2 + k[1] ** 2 for k in FORCED], dtype=float)
    want = np.diag((1.0 - np.exp(-2 * nu * lam * t)) / (2 * nu * lam))
    assert np.max(np.abs(form.matrix - want)) < 5e-4
    # off-diagonals vanish identically on the zero trajectory
    off = form.matrix - np.diag(np.diag(form.matrix))
    assert np.max(np.abs(off)) == 0.0


def test_short_time_diagonal_is_approximately_t():
    traj = make_traj(dt=1e-3, t_final=0.01)
    form = malliavin_forward(traj, 1e-3, FORCED)
    d = np.diag(form.matrix)
    assert np.allclose(d, 1e-3, rtol=0.05)


# ------------------------------------------- representation cross-checks

def test_gram_equals_lyapunov():
    traj = make_traj(radius=2.0, dt=2e-3, t_final=0.1)
    sub = [(1, 0), (1, 1), (0, 1), (-1, 0)]
    for t in (0.1, 0.0):
        a = malliavin_forward(traj, t, sub, method="gram")
        b = malliavin_forward(traj, t, sub, method="lyapunov")
        scale = max(1.0, np.max(np.abs(a.matrix)))
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12 * scale
    # at t = 0 no noise has entered: the Gram and its spectrum are exactly 0
    assert not np.any(a.matrix) and not np.any(a.eigenvalues())


def test_forward_quadratic_form_matches_backward():
    traj = make_traj(radius=3.0, dt=1e-3, t_final=0.2)
    basis = traj.basis
    sub = list(basis.modes)
    form = malliavin_forward(traj, 0.2, sub)
    rng = np.random.default_rng(30)
    for _ in range(10):
        c = rng.standard_normal(len(sub))
        phi = SpectralField(basis, c.copy())
        # the matrix acts on plain coordinates; the L2 quadratic form
        # carries the mode normalization |e_k|^2 = 2 pi^2
        want = TWO_PI_SQ * float(c @ form.matrix @ c)
        got = malliavin_backward_form(traj, 0.2, phi)
        assert got == pytest.approx(want, rel=2e-3)


def test_malliavin_invalid_method_and_bad_subspace():
    traj = make_traj(t_final=0.01)
    with pytest.raises(ValueError):
        malliavin_forward(traj, 0.01, FORCED, method="nope")
    with pytest.raises(ValueError):
        malliavin_forward(traj, 0.01, [(9, 9)])


# ------------------------------------------------------ structural facts

def test_form_validation_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        MalliavinForm(FORCED, np.array([[1.0, 0.5], [0.1, 1.0]]), 0.1, None)
    with pytest.raises(ValueError):
        MalliavinForm(((1, 0), (0, 1)), np.array([[1.0, 0.0], [0.0, -0.3]]),
                      0.1, None)
    # the symmetry tolerance scales with the entries
    with pytest.raises(ValueError):
        MalliavinForm(((1, 0), (0, 1)), 1e-20 * np.array([[1.0, 0.5], [0.1, 1.0]]),
                      0.1, None)


def test_quadratic_form_monotone_in_time():
    traj = make_traj(t_final=0.2)
    basis = traj.basis
    rng = np.random.default_rng(31)
    phi = SpectralField(basis, rng.standard_normal(len(basis)))
    vals = [malliavin_backward_form(traj, t, phi)
            for t in (0.05, 0.1, 0.15, 0.2)]
    # later quadratic forms integrate the same nonnegative density longer
    # (with matching terminal data per t, each is separately nonnegative)
    assert all(v >= 0.0 for v in vals)


def test_degenerate_forcing_kills_unreached_directions():
    # Forcing only +-(1,0): that single pair interacts with nothing, so the
    # covariance restricted to any other direction vanishes.
    geom = ForcingGeometry(frozenset({(1, 0), (-1, 0)}))
    cfg = SimConfig(nu=1.0, forcing=geom, radius=3.0, dt=1e-3, t_final=0.1)
    init = field_from_dict(cfg.basis(), {(1, 0): 0.5, (-1, 0): -0.2})
    cfg = SimConfig(nu=1.0, forcing=geom, radius=3.0, dt=1e-3, t_final=0.1,
                    initial=init)
    traj = simulate(cfg, path_index=2)
    sub = [(0, 1), (2, 1), (0, -1), (-2, -1)]
    form = malliavin_forward(traj, 0.1, sub)
    assert np.max(np.abs(form.matrix)) == 0.0


def test_covariance_psd_and_symmetric_across_paths():
    for p in range(5):
        traj = make_traj(seed=77 + p, t_final=0.05)
        form = malliavin_forward(traj, 0.05, FORCED)
        assert np.array_equal(form.matrix, form.matrix.T)
        vals = np.linalg.eigvalsh(form.matrix)
        assert vals[0] >= -1e-12


@pytest.mark.parametrize("t", [0.05, 0.002])   # 0.002: fewer rows than modes
def test_gram_spectrum_matches_eigvalsh_and_bounds(t):
    traj = make_traj(radius=3.0, t_final=0.05, seed=78)
    form = malliavin_forward(traj, t, list(traj.basis.modes))
    M = form.matrix
    vals = form.eigenvalues()
    tr = float(np.trace(M))
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(M))) <= 1e-14 * tr
    assert vals[-1] <= tr * (1.0 + 1e-12)
    assert vals[0] <= np.min(np.diag(M))   # interlacing


def test_graded_spectrum_stays_positive():
    # At radius 4 the far modes are reached only through long bracket
    # chains, so diag(M) falls to ~1e-52 against lambda_max ~ 0.02;
    # eigvalsh(M) resolves only ~1e-17 and returns negative values here.
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=4.0, dt=1e-3,
                    t_final=0.02, seed=5)
    table = min_eigenvalue_tail(cfg, 0.02, list(cfg.basis().modes), n_paths=2)
    assert np.all(table.lambda_min > 0.0)
    assert np.all(table.lambda_min_h1 > 0.0)


# ------------------------------------------------------------ tail table

def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_min_eigenvalue_tail_runs_and_orders():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=2e-3,
                    t_final=0.05, seed=3)
    table = min_eigenvalue_tail(cfg, 0.05, [(1, 0), (1, 1)], n_paths=8)
    assert np.all(np.diff(table.epsilons) < 0)
    assert np.all(np.diff(table.frequencies) <= 0)  # smaller eps, rarer event
    assert np.all(table.lambda_min <= table.lambda_max + 1e-15)
    assert np.all(table.trace > 0)
    assert table.intervals.shape == (len(DEFAULT_EPSILONS), 2)


def test_min_eigenvalue_tail_warns_on_unreachable_subspace():
    geom = ForcingGeometry(frozenset({(1, 0), (-1, 0)}))
    cfg = SimConfig(nu=1.0, forcing=geom, radius=2.0, dt=2e-3,
                    t_final=0.05, seed=3)
    with pytest.warns(UserWarning, match="not reachable"):
        table = min_eigenvalue_tail(cfg, 0.05, [(0, 1)], n_paths=4)
    assert np.all(table.lambda_min <= 1e-10)


def test_min_eigenvalue_tail_checks_reachability_on_the_simulated_basis():
    # the initial field pins the basis to radius 3: (2, 0) is reachable in
    # the radius-6 ball of config.radius but not in the radius-3 ball
    initial = SpectralField(Basis.build(3.0))
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, dt=2e-3, t_final=0.01,
                    initial=initial, seed=3)
    assert cfg.radius == 6.0
    with pytest.warns(UserWarning, match="not reachable"):
        min_eigenvalue_tail(cfg, 0.01, [(2, 0)], n_paths=1)


def spy_forward(monkeypatch):
    """Record (traj, returned form) of every malliavin_forward call made
    through the module attribute, as the benchmark's check captures it."""
    calls = []

    def spy(traj, t, subspace, *args, **kwargs):
        form = malliavin_forward(traj, t, subspace, *args, **kwargs)
        calls.append((traj, form))
        return form

    monkeypatch.setattr(malliavin, "malliavin_forward", spy)
    return calls


def test_min_eigenvalue_tail_calls_malliavin_forward_once_per_path(
        monkeypatch):
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=11)
    calls = spy_forward(monkeypatch)
    min_eigenvalue_tail(cfg, 0.02, [(0, 1), (2, 1)], n_paths=5)
    assert len(calls) == 5
    for p, (traj, form) in enumerate(calls):
        assert isinstance(form, MalliavinForm)
        assert form.trajectory is traj
        assert np.array_equal(traj.states, simulate(cfg, path_index=p).states)


@pytest.mark.filterwarnings("ignore:subspace modes")
@pytest.mark.parametrize("radius, modes, n_paths, t", [
    (3.0, 1, 3, 0.02), (3.0, 4, 3, 0.03), (3.0, None, 3, 0.02),
    (5.0, 1, 10, 0.01), (5.0, None, 10, 0.008)])
def test_block_swept_forms_equal_lone_forms_bitwise(monkeypatch, radius,
                                                    modes, n_paths, t):
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=radius, dt=1e-3,
                    t_final=0.03 if radius == 3.0 else 0.01, seed=12)
    basis = cfg.basis()
    sub = list(basis.modes)[:modes] if modes else list(basis.modes)
    size = block_size(basis, (cfg.grid_index(t) + 1) * len(basis) * len(sub),
                      n_paths)
    assert (size < n_paths) == (radius == 5.0)  # radius 5 crosses a block
    calls = spy_forward(monkeypatch)
    table = min_eigenvalue_tail(cfg, t, sub, n_paths)
    assert len(calls) == n_paths
    for p, (traj, form) in enumerate(calls):
        lone = malliavin_forward(traj, t, sub)
        assert np.array_equal(form.factor, lone.factor)
        assert np.array_equal(form.matrix, lone.matrix)
        assert table.lambda_min[p] == lone.eigenvalues()[0]


def test_min_eigenvalue_tail_memory_is_one_block():
    # many paths: the peak is that of one full block, whatever n_paths is
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=13)
    sub = [(0, 1), (2, 1), (0, -1), (-2, -1)]
    basis = cfg.basis()
    per_path = (cfg.grid_index(0.02) + 1) * len(basis) * len(sub)
    size = block_size(basis, per_path, 10 ** 6)
    peaks = []
    for n_paths in (size, size, 3 * size + 1):  # the first run warms caches
        tracemalloc.start()
        min_eigenvalue_tail(cfg, 0.02, sub, n_paths)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    history = 8 * size * per_path
    assert peaks[1] <= 3 * history
    assert peaks[2] <= 1.25 * peaks[1]


# -------------------------------------------------- bracket decomposition

def test_bracket_reconstruction_matches_derivative():
    traj = make_traj(radius=3.0, dt=5e-4, t_final=0.1, seed=41)
    basis = traj.basis
    rng = np.random.default_rng(42)
    phi = SpectralField(basis, rng.standard_normal(len(basis)))
    dec = bracket_decomposition(traj, 0.02, 0.1, phi)
    dt = traj.config.dt
    dU = np.gradient(dec.U, dt, axis=0, edge_order=2)
    rec = dec.reconstructed_derivative()
    scale = np.max(np.abs(dU))
    err = np.max(np.abs(dU - rec)[2:-2]) / scale
    assert err < 0.05   # O(dt) + central-difference error on a rough path


def test_bracket_r_plus_wiener_tracks_forced_state():
    traj = make_traj(dt=5e-4, t_final=0.1, seed=43)
    basis = traj.basis
    phi = SpectralField.single_mode(basis, (2, 1))
    dec = bracket_decomposition(traj, 0.0, 0.1, phi)
    forced_states = traj.states[:, traj.forced_indices]
    # the forced components split into absolutely continuous drift plus the
    # raw Wiener path, up to the O(dt) one-step convolution error
    err = np.max(np.abs(dec.R + dec.W - forced_states))
    assert err < 5e-3


def test_bracket_zero_terminal_data_is_zero():
    traj = make_traj(t_final=0.05)
    phi = SpectralField(traj.basis)
    dec = bracket_decomposition(traj, 0.0, 0.05, phi)
    assert np.max(np.abs(dec.U)) == 0.0
    assert np.max(np.abs(dec.X)) == 0.0
    assert np.max(np.abs(dec.Y)) == 0.0


def test_bracket_pairing_identity_random_states():
    # (Y_j, e_l) under the half pairing equals
    # pi^2 c(j, l) [U at -(canonical(l-j)) + U at -(l+j)].
    traj = make_traj(radius=4.0, t_final=0.01)
    basis = traj.basis
    rng = np.random.default_rng(50)
    plus = [k for k in basis.modes if (k[1] > 0) or (k[1] == 0 and k[0] > 0)]
    worst = 0.0
    us = [SpectralField(basis, rng.standard_normal(len(basis)))
          for _ in range(20)]
    states = np.array([u.coeffs for u in us])
    for j in [(1, 0), (1, 1), (2, 1)]:
        ej = SpectralField.single_mode(basis, j)
        ys = [(adjoint_C(u, ej) - nonlinearity_B(ej, u)).coeffs for u in us]
        for l in plus:
            if l == j:
                continue
            el = SpectralField.single_mode(basis, l).coeffs
            lhs = np.array([bracket_pairing(y, el) for y in ys])
            rhs = pairing_rhs(basis, states, j, l)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


def test_full_pairing_constant_is_twice_the_half_pairing():
    # Under the full integral pairing <f, g> = int f g the same identity
    # holds with prefactor 2 pi^2, i.e. exactly twice pairing_rhs.
    traj = make_traj(radius=4.0, t_final=0.01)
    basis = traj.basis
    rng = np.random.default_rng(51)
    u = SpectralField(basis, rng.standard_normal(len(basis)))
    j, l = (1, 0), (3, 1)
    ej = SpectralField.single_mode(basis, j)
    y = adjoint_C(u, ej) - nonlinearity_B(ej, u)
    el = SpectralField.single_mode(basis, l)
    from vortexlab.spectral import inner
    lhs_full = inner(y, el)
    rhs_half = pairing_rhs(basis, u.coeffs, j, l)
    assert lhs_full == pytest.approx(2.0 * rhs_half, abs=1e-12)
    assert PAIRING_PREFACTOR == pytest.approx(math.pi ** 2)
