"""Noise covariance: forward/backward agreement, spectra, bracket identities."""
import math
import warnings

import numpy as np
import pytest

from vortexlab import flows, malliavin, spectral
from vortexlab import simulate as simulate_module
from vortexlab.lattice import ForcingGeometry
from vortexlab.flows import adjoint_sweep
from vortexlab.malliavin import (DEFAULT_EPSILONS, GRAM_CHUNK, MalliavinForm,
                                 PAIRING_PREFACTOR, bracket_decomposition,
                                 lyapunov_covariance, malliavin_backward_form,
                                 malliavin_forward, min_eigenvalue_tail,
                                 pairing_rhs, wilson_interval)
from vortexlab.modes import norm2
from vortexlab.simulate import SimConfig, block_size, simulate
from vortexlab.spectral import (Basis, SpectralField, TWO_PI_SQ, adjoint_C,
                                build_interaction_table, nonlinearity_B)

from conftest import Z_STAR, field_from_dict, traced_peak

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
    # a lone path, and a block of three paths checked path by path
    traj = make_traj(radius=2.0, dt=2e-3, t_final=0.1)
    block = simulate(traj.config, range(3))
    sub = [(1, 0), (1, 1), (0, 1), (-1, 0)]
    idx = (Ellipsis,) + np.ix_(*2 * [[traj.basis.index[k] for k in sub]])
    n = len(traj.basis)
    for t in (0.1, 0.0):
        for tr in (block, traj):
            a = malliavin_forward(tr, t, sub)
            b = lyapunov_covariance(tr, t)
            assert b.shape == tr.states.shape[1:-1] + (n, n)  # at t = 0 too
            scale = max(1.0, np.max(np.abs(a.matrix)))
            assert np.max(np.abs(a.matrix - b[idx])) < 1e-12 * scale
        b = lyapunov_covariance(block, t)
        for p in range(3):
            lone = simulate(traj.config, [p])
            assert np.array_equal(b[p], lyapunov_covariance(lone, t))
    # at t = 0 no noise has entered: the Gram and its spectrum are exactly 0
    assert not np.any(a.matrix)
    assert a.lambda_min() == 0.0 and a.lambda_max() == 0.0


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


def test_malliavin_rejects_a_subspace_outside_the_basis():
    traj = make_traj(t_final=0.01)
    with pytest.raises(ValueError):
        malliavin_forward(traj, 0.01, [(9, 9)])


# ------------------------------------------------------ structural facts

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
    traj = simulate(cfg, [2])
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
    lo, hi = form.lambda_min(), form.lambda_max()
    ref = np.linalg.eigvalsh(M)
    tr = float(np.trace(M))
    assert 0.0 <= lo <= hi
    assert max(abs(lo - ref[0]), abs(hi - ref[-1])) <= 1e-14 * tr
    assert hi <= tr * (1.0 + 1e-12)
    assert lo <= np.min(np.diag(M))   # interlacing


def test_graded_spectrum_stays_positive():
    # At radius 4 the far modes are reached only through long bracket
    # chains, so diag(M) falls to ~1e-52 against lambda_max ~ 0.02;
    # eigvalsh(M) resolves only ~1e-17 and returns negative values here.
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=4.0, dt=1e-3,
                    t_final=0.02, seed=5)
    table = min_eigenvalue_tail(cfg, 0.02, list(cfg.basis().modes), n_paths=2)
    assert np.all(table.lambda_min > 0.0)
    assert np.all(table.lambda_min_h1 > 0.0)


def hestenes_singular_values(X, tol=1e-15, max_sweeps=100):
    """Ascending singular values by one-sided Jacobi (Hestenes).

    Rotates column pairs until every pair is orthogonal to tol; the column
    norms are then the singular values. Each one is resolved relative to
    itself on a column-graded X (Demmel & Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1992), where an SVD resolves only eps * sigma_max.
    """
    A = np.array(X, dtype=float)
    n = A.shape[1]
    for _ in range(max_sweeps):
        done = True
        for i in range(n - 1):
            for j in range(i + 1, n):
                a, b = A[:, i] @ A[:, i], A[:, j] @ A[:, j]
                c = A[:, i] @ A[:, j]
                if abs(c) <= tol * math.sqrt(a * b):
                    continue
                done = False
                zeta = (b - a) / (2.0 * c)
                tan = math.copysign(1.0 / (abs(zeta) + math.hypot(1.0, zeta)),
                                    zeta)
                cos = 1.0 / math.sqrt(1.0 + tan * tan)
                A[:, i], A[:, j] = (cos * A[:, i] - cos * tan * A[:, j],
                                    cos * tan * A[:, i] + cos * A[:, j])
        if done:
            return np.sort(np.linalg.norm(A, axis=0))
    raise RuntimeError("one-sided Jacobi did not converge")


def factor_form(X):
    R = np.linalg.qr(X, mode="r")
    return MalliavinForm(tuple(range(X.shape[1])), R, 0.0)


def tall_factor(traj, t, sub):
    """The Gram's tall factor X, M = X^T X, from the stacked sweep: the
    forced rows scaled by the square roots of the trapezoid weights."""
    cols = np.eye(len(traj.basis))[:, [traj.basis.index[k] for k in sub]]
    hist = np.stack(list(adjoint_sweep(traj, t, cols, 0.0,
                                       discrete_transpose=True))[::-1])
    weights = np.full(len(hist), traj.config.dt)
    weights[[0, -1]] = 0.5 * traj.config.dt
    X = np.sqrt(weights)[:, None, None] * hist[:, traj.forced_indices]
    return X.reshape(-1, len(sub))


@pytest.mark.parametrize("m", [6, 12, 24])
def test_lambda_min_resolves_a_graded_factor(m):
    # X = B diag(d), B Gaussian (not orthonormal: LAPACK's SVD already
    # resolves Q diag(d)), d from 1 to 1e-20 in shuffled order
    rng = np.random.default_rng(70 + m)
    worst = 0.0
    for _ in range(20):
        X = rng.standard_normal((4 * m, m)) * rng.permutation(
            np.logspace(0, -20, m))
        w = rng.uniform(0.1, 1.0, m)
        form = factor_form(X)
        for got, ref in ((form.lambda_min(), hestenes_singular_values(X)),
                         (form.lambda_min(w), hestenes_singular_values(X * w))):
            worst = max(worst, abs(got / ref[0] ** 2 - 1.0))
    assert worst <= 1e-12


def test_lambda_min_of_the_operator_matches_one_sided_jacobi():
    # the gram-r4 config at sim seed 3: a spectrum over 44 decades, where
    # the squared singular values of the tall factor missed lambda_min 40x
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=4.0, dt=1e-3,
                    t_final=0.1, seed=3)
    traj = simulate(cfg)
    sub = list(traj.basis.modes)
    form = malliavin_forward(traj, 0.1, sub)
    X = tall_factor(traj, 0.1, sub)
    w = 1.0 / np.sqrt([float(norm2(k)) for k in sub])   # the unit H1 ball
    for got, ref in ((form.lambda_min(), hestenes_singular_values(X)),
                     (form.lambda_min(w), hestenes_singular_values(X * w))):
        assert ref[-1] / ref[0] > 1e20          # graded far past eps
        assert got == pytest.approx(ref[0] ** 2, rel=1e-10)


@pytest.mark.parametrize("nodes", [GRAM_CHUNK - 1, GRAM_CHUNK, GRAM_CHUNK + 1,
                                   2 * GRAM_CHUNK])
def test_folded_factor_equals_the_one_shot_gram(nodes):
    # R^T R, folded a chunk of nodes at a time, against X^T X of the history
    traj = make_traj(radius=3.0, t_final=0.13, seed=17)
    t = traj.times[nodes - 1]
    sub = list(traj.basis.modes)
    X = tall_factor(traj, t, sub)
    M = malliavin_forward(traj, t, sub).matrix
    assert np.max(np.abs(M - X.T @ X)) <= 1e-14 * np.max(np.abs(X.T @ X))


def test_block_lambda_min_is_zero_on_a_singular_factor():
    # a zero on R's diagonal gives exactly 0, per path of a block, with no
    # LinAlgError from the inverse: at t = 0, and under degenerate forcing,
    # where (1, 0) is forced and the other two modes are never reached
    sub = [(1, 0), (0, 1), (2, 1)]
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=18)
    geom = ForcingGeometry(frozenset({(1, 0), (-1, 0)}))
    init = field_from_dict(cfg.basis(), {(1, 0): 0.5, (-1, 0): -0.2})
    degenerate = SimConfig(nu=0.5, forcing=geom, radius=3.0, dt=1e-3,
                           t_final=0.02, initial=init, seed=18)
    w = np.array([1.0, 2.0, 3.0])
    for c, t in ((cfg, 0.0), (degenerate, 0.02)):
        form = malliavin_forward(simulate(c, range(3)), t, sub)
        diag = np.diagonal(form.factor, axis1=1, axis2=2)
        assert np.all(np.any(diag == 0.0, axis=1))
        assert np.all(form.lambda_min() == 0.0)
        assert np.all(form.lambda_min(w) == 0.0)
    assert np.all(diag[:, 0] != 0.0) and np.all(form.lambda_max() > 0.0)
    # a stack of a regular and a singular factor: 0 only where singular
    good = malliavin_forward(simulate(cfg), 0.02, sub)
    R = np.stack([good.factor, np.zeros((3, 3))])
    form = MalliavinForm(tuple(sub), R, 0.02)
    assert form.lambda_min()[0] == good.lambda_min() > 0.0
    assert form.lambda_min()[1] == 0.0


def test_lambda_min_below_the_double_range_of_its_inverse():
    # inv(R) inv(R)^T overflows here; scaled by a power of two it does not,
    # and the power comes back exactly: lambda_min = 2^-1040, a subnormal
    R = np.stack([np.diag([1.0, 2.0 ** -520]), np.diag([1.0, 2.0])])
    form = MalliavinForm(((1, 0), (0, 1)), R, 0.0)
    assert np.array_equal(form.lambda_min(), [2.0 ** -1040, 1.0])
    assert np.array_equal(form.lambda_min(np.array([1.0, 2.0])),
                          [2.0 ** -1038, 1.0])
    # far below it the value is 0, and never a LinAlgError
    R[0, 1, 1] = 2.0 ** -600
    assert np.array_equal(MalliavinForm(((1, 0), (0, 1)), R, 0.0).lambda_min(),
                          [0.0, 1.0])



def test_tail_lambda_min_is_zero_where_the_inverse_gram_overflows():
    # all 212 modes at radius 8.1 after 8 steps: max |inv(R)| ~ 7e170, so
    # the true lambda_min is below 1e-341, which is 0.0 in double precision
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=8.1, dt=1e-3,
                    t_final=0.008, seed=3)
    sub = list(cfg.basis().modes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # no overflow in the matmul
        table = min_eigenvalue_tail(cfg, 0.008, sub, n_paths=1)
    assert table.lambda_min[0] == table.lambda_min_h1[0] == 0.0
    assert 0.0 < table.lambda_max[0] <= table.trace[0]


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


def test_min_eigenvalue_tail_rejects_no_paths_before_simulating(monkeypatch):
    # the empty path set raises at simulate_blocks' call, before any
    # simulate, instead of NaN frequencies and a failed Wilson count
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=2e-3,
                    t_final=0.05, seed=3)
    monkeypatch.setattr(simulate_module, "simulate", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="simulate needs at least one"):
            min_eigenvalue_tail(cfg, 0.05, [(1, 0), (1, 1)], n_paths=0)


def test_min_eigenvalue_tail_warns_on_unreachable_subspace():
    geom = ForcingGeometry(frozenset({(1, 0), (-1, 0)}))
    cfg = SimConfig(nu=1.0, forcing=geom, radius=2.0, dt=2e-3,
                    t_final=0.05, seed=3)
    with pytest.warns(UserWarning, match="not reachable"):
        table = min_eigenvalue_tail(cfg, 0.05, [(0, 1)], n_paths=4)
    assert np.all(table.lambda_min <= 1e-10)


def test_min_eigenvalue_tail_checks_reachability_on_the_simulated_basis():
    # the initial field pins the basis to radius 3, where the closure of
    # {+-(1, 1), +-(0, 2)} is 6 modes without (2, 0): lambda_min is 0 there;
    # the radius-6 ball of config.radius closes over (2, 0)
    geom = ForcingGeometry(frozenset({(1, 1), (-1, -1), (0, 2), (0, -2)}))
    for radius in (3.0, 6.0):
        cfg = SimConfig(nu=1.0, forcing=geom, dt=2e-3, t_final=0.1,
                        initial=SpectralField(Basis.build(radius)), seed=3)
        assert cfg.radius == 6.0
        closure = simulate(cfg).closure.mask
        if radius == 3.0:
            assert closure.sum() == 6 and not closure[cfg.basis().index[(2, 0)]]
            with pytest.warns(UserWarning, match="not reachable"):
                table = min_eigenvalue_tail(cfg, 0.1, [(2, 0)], n_paths=2)
            assert np.all(table.lambda_min == 0.0)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = min_eigenvalue_tail(cfg, 0.1, [(2, 0)], n_paths=2)
            assert np.all(table.lambda_min > 0.0)


def test_min_eigenvalue_tail_warns_exactly_off_the_galerkin_closure():
    # a triad of two excited unforced modes short-cuts the lattice search:
    # (3, 0) is in the closure (16 modes) though the search reaches 12, and
    # lambda_min is > 0 on it; (-2, -1) is off it, where lambda_min is 0
    geom = ForcingGeometry(frozenset({(0, 2), (0, -2), (1, -2), (-1, 2)}))
    cfg = SimConfig(nu=0.5, forcing=geom, radius=3.0, dt=1e-3, t_final=0.3,
                    seed=3)
    assert simulate(cfg).closure.mask.sum() == 16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = min_eigenvalue_tail(cfg, 0.3, [(3, 0)], n_paths=4)
    assert np.all(table.lambda_min > 0.0)
    with pytest.warns(UserWarning, match=r"\[\(-2, -1\)\] .* exactly 0"):
        table = min_eigenvalue_tail(cfg, 0.3, [(3, 0), (-2, -1)], n_paths=4)
    assert np.all(table.lambda_min == 0.0)


def test_min_eigenvalue_tail_closure_holds_the_initial_field():
    # +-(1, 0) alone never reaches (0, 1), but the initial (1, 1) does
    geom = ForcingGeometry(frozenset({(1, 0), (-1, 0)}))
    initial = field_from_dict(Basis.build(2.0), {(1, 1): 0.5})
    cfg = SimConfig(nu=1.0, forcing=geom, dt=2e-3, t_final=0.05,
                    initial=initial, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = min_eigenvalue_tail(cfg, 0.05, [(0, 1)], n_paths=4)
    assert np.all(table.lambda_min > 0.0)


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


def test_min_eigenvalue_tail_calls_malliavin_forward_once_per_block(
        monkeypatch):
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=11)
    sub = [(0, 1), (2, 1)]
    calls = spy_forward(monkeypatch)
    min_eigenvalue_tail(cfg, 0.02, sub, n_paths=5)
    assert len(calls) == 1                  # radius 3 takes 91 paths a block
    traj, form = calls[0]
    assert form.trajectory is traj and form.matrix.shape == (5, 2, 2)
    for p in range(5):
        assert np.array_equal(traj.states[:, p], simulate(cfg, [p]).states)
    # one path is a lone form, as the benchmark's Gram check reads it
    calls.clear()
    table = min_eigenvalue_tail(cfg, 0.02, sub, n_paths=1)
    assert len(calls) == 1
    traj, form = calls[0]
    assert isinstance(form, MalliavinForm) and form.trajectory is traj
    assert (form.t, form.subspace, form.matrix.shape) == (0.02, tuple(sub),
                                                          (2, 2))
    assert np.array_equal(traj.states, simulate(cfg).states)
    vals = np.linalg.eigvalsh(form.matrix)
    tol = 1e-10 * float(np.trace(form.matrix))
    assert abs(vals[0] - table.lambda_min[0]) <= tol
    assert abs(vals[-1] - table.lambda_max[0]) <= tol


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
    m = len(sub)
    size = block_size(cfg, n_paths)            # the tail's blocks
    assert (size < n_paths) == (radius == 5.0)  # radius 5 crosses a block
    calls = spy_forward(monkeypatch)
    table = min_eigenvalue_tail(cfg, t, sub, n_paths)
    assert len(calls) == -(-n_paths // size)
    p = 0
    for block, form in calls:
        # a block of one path is a lone form
        factor = form.factor.reshape(-1, m, m)
        matrix = form.matrix.reshape(-1, m, m)
        lam = np.reshape(form.lambda_min(), -1)
        for b in range(len(factor)):
            lone = malliavin_forward(simulate(cfg, [p]), t, sub)
            assert np.array_equal(factor[b], lone.factor)
            assert np.array_equal(matrix[b], lone.matrix)
            assert lam[b] == lone.lambda_min() == table.lambda_min[p]
            p += 1
    assert p == n_paths


def test_min_eigenvalue_tail_memory_is_one_block():
    # many paths: the peak is that of one full block, whatever n_paths is
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=13)
    sub = [(0, 1), (2, 1), (0, -1), (-2, -1)]
    basis = cfg.basis()
    states = (cfg.n_steps() + 1) * len(basis)
    size = block_size(cfg, 10 ** 6)            # the tail's blocks
    peaks = [traced_peak(min_eigenvalue_tail, cfg, 0.02, sub, n_paths)
             for n_paths in (size, size, 3 * size + 1)]  # the first warms
    # a block holds its states and, while it steps, the simulator's
    # per-path triad arrays
    triads = len(build_interaction_table(basis))
    assert peaks[1] <= 3 * 8 * size * (states + triads)
    assert peaks[2] <= 1.25 * peaks[1]


def test_min_eigenvalue_tail_peak_is_one_block_of_states():
    # t << t_final: the block's states, not its short history, set the peak
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=2.0, dt=1e-3,
                    t_final=0.2, seed=14)
    basis = cfg.basis()
    states = (cfg.n_steps() + 1) * len(basis)
    size = block_size(cfg, 682)
    min_eigenvalue_tail(cfg, 0.001, [(1, 0)], 682)  # warms caches
    peak = traced_peak(min_eigenvalue_tail, cfg, 0.001, [(1, 0)], 682)
    assert peak <= 2 * 8 * size * states


@pytest.mark.parametrize("steps", [100, 2000])
def test_gram_memory_does_not_grow_with_the_steps(steps):
    # the factor is folded as the sweep runs: no node history is kept
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=4.0, dt=1e-3,
                    t_final=steps * 1e-3, seed=16)
    traj = simulate(cfg)
    sub = list(traj.basis.modes)
    assert traced_peak(malliavin_forward, traj, cfg.t_final, sub) <= 2 ** 21


@pytest.mark.parametrize("m", [1, 4, 17, 48])
def test_gram_forms_are_bitwise_symmetric(m):
    traj = make_traj(radius=4.0, t_final=0.02, seed=15)
    form = malliavin_forward(traj, 0.02, list(traj.basis.modes)[:m])
    assert np.array_equal(form.matrix, form.matrix.T)


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


def test_bracket_y_equals_the_per_forced_mode_loop():
    traj = make_traj(radius=3.0, dt=1e-3, t_final=0.05, seed=43)
    basis = traj.basis
    phi = SpectralField(basis, np.random.default_rng(44).standard_normal(
        len(basis)))
    dec = bracket_decomposition(traj, 0.01, 0.05, phi)
    table = build_interaction_table(basis)
    n = len(basis)
    ref = np.empty_like(dec.Y)
    for a, f in enumerate(traj.forced_indices):
        ref[a] = -dec.U @ table.linearization(np.eye(n)[f])
    assert np.array_equal(dec.Y, ref)


def test_bracket_keeps_no_stack_on_the_table(monkeypatch):
    # each Y_j comes from a lone linearization(e_j), so the split leaves the
    # table's arrays as a lone-path sweep does: no stack of n_forced matrices
    monkeypatch.setattr(spectral, "_TABLE_CACHE", {})  # a fresh table
    traj = make_traj(radius=8.1, dt=1e-3, t_final=0.004)
    table = build_interaction_table(traj.basis)
    phi = SpectralField.single_mode(traj.basis, (2, 1))

    def held():
        return sum(a.nbytes for v in vars(table).values()
                   for a in (v if isinstance(v, tuple) else (v,))
                   if isinstance(a, np.ndarray))

    for _ in adjoint_sweep(traj, 0.004, phi.coeffs[:, None], 0.0):
        pass
    lone = held()
    bracket_decomposition(traj, 0.0, 0.004, phi)
    assert held() <= lone


def test_bracket_r_plus_wiener_tracks_forced_state():
    traj = make_traj(dt=5e-4, t_final=0.1, seed=43)
    basis = traj.basis
    phi = SpectralField.single_mode(basis, (2, 1))
    dec = bracket_decomposition(traj, 0.0, 0.1, phi)
    forced_states = traj.states[:, traj.forced_indices]
    # R is defined as the forced states minus the Wiener path, so the sum
    # gives the states back to rounding
    err = np.max(np.abs(dec.R + dec.W - forced_states))
    assert err <= 1e-15 * np.max(np.abs(forced_states))


def test_bracket_split_is_the_backward_equation_at_every_node():
    # L(w) is linear in w, so X + sum_j Y_j W_j is nu |k|^2 U - L(w_i)^T U
    traj = make_traj(radius=3.0, dt=5e-4, t_final=0.1, seed=41)
    basis = traj.basis
    phi = SpectralField(basis, np.random.default_rng(42).standard_normal(
        len(basis)))
    dec = bracket_decomposition(traj, 0.02, 0.1, phi)
    table = build_interaction_table(basis)
    lam = basis.laplacian_symbol()
    i0 = traj.grid_index(0.02)
    rhs = np.array([traj.config.nu * lam * U
                    - table.linearization(traj.states[i0 + i]).T @ U
                    for i, U in enumerate(dec.U)])
    err = np.max(np.abs(dec.reconstructed_derivative() - rhs))
    assert err <= 1e-13 * np.max(np.abs(rhs))


def test_bracket_r_has_a_vanishing_quadratic_variation():
    # R moves O(dt) per step, so its QV is O(dt) of W's
    ratios = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        traj = make_traj(nu=1.0, radius=3.0, dt=dt, t_final=0.1, seed=43)
        phi = SpectralField.single_mode(traj.basis, (2, 1))
        dec = bracket_decomposition(traj, 0.0, 0.1, phi)
        ratios.append(np.sum(np.diff(dec.R, axis=0) ** 2)
                      / np.sum(np.diff(dec.W, axis=0) ** 2))
    assert max(ratios) < 1e-3
    assert ratios[0] > ratios[1] > ratios[2]


# each lone-path function with its arguments after the trajectory
LONE_PATH = {
    "backward_form": (malliavin_backward_form, lambda phi: (0.01, phi)),
    "bracket_decomposition": (bracket_decomposition,
                              lambda phi: (0.0, 0.01, phi)),
    "adjoint_flow": (flows.adjoint_flow, lambda phi: (0.01, phi, 0.0)),
    "tangent_flow": (flows.tangent_flow, lambda phi: (0.0, phi, 0.01)),
    "duality_drift": (flows.duality_drift,
                      lambda phi: ((2, 1), 0.0, 0.01, phi)),
    "second_variation": (flows.second_variation,
                         lambda phi: (0.0, phi, 0.0, phi, 0.01)),
    "control_gradient": (flows.control_gradient,
                         lambda phi: (np.ones(1), np.array([0]))),
}


@pytest.mark.parametrize("n_paths", [2, 30])
@pytest.mark.parametrize("name", list(LONE_PATH))
def test_lone_path_functions_reject_a_block(monkeypatch, name, n_paths):
    # a block's node is (P, n, 1): U[forced, 0] would read paths, not modes
    block = simulate(make_traj(t_final=0.01).config, range(n_paths))
    phi = SpectralField.single_mode(block.basis, (2, 1))
    for module, sweep in ((malliavin, "adjoint_sweep"),
                          (flows, "adjoint_sweep"), (flows, "tangent_sweep"),
                          (flows, "Stepper")):
        monkeypatch.setattr(module, sweep, None)  # no sweep runs
    fn, args = LONE_PATH[name]
    with pytest.raises(ValueError, match=f"^{fn.__name__} takes one path"):
        fn(block, *args(phi))


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
        ys = [adjoint_C(u, ej).coeffs - nonlinearity_B(ej, u).coeffs
              for u in us]
        for l in plus:
            if l == j:
                continue
            el = SpectralField.single_mode(basis, l).coeffs
            lhs = PAIRING_PREFACTOR * np.array([y @ el for y in ys])
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
    y = SpectralField(basis, adjoint_C(u, ej).coeffs
                      - nonlinearity_B(ej, u).coeffs)
    el = SpectralField.single_mode(basis, l)
    from vortexlab.spectral import inner
    lhs_full = inner(y, el)
    rhs_half = pairing_rhs(basis, u.coeffs, j, l)
    assert lhs_full == pytest.approx(2.0 * rhs_half, abs=1e-12)
    assert PAIRING_PREFACTOR == pytest.approx(math.pi ** 2)


@pytest.mark.parametrize("call, match", [
    (lambda traj, phi: bracket_decomposition(traj, 0.02, 0.02, phi),
     "need t0 < T"),
    (lambda traj, phi: bracket_decomposition(traj, 0.02, 0.01, phi),
     "need t0 < T"),
    (lambda traj, phi: pairing_rhs(traj.basis, phi.coeffs, (1, 0), (0, -1)),
     "positive-class"),
    (lambda traj, phi: pairing_rhs(traj.basis, phi.coeffs, (-1, -1), (0, 1)),
     "positive-class"),
])
def test_bracket_functions_reject_invalid_windows_and_modes(call, match):
    traj = make_traj(t_final=0.02)
    phi = SpectralField.single_mode(traj.basis, (2, 1))
    with pytest.raises(ValueError, match=match):
        call(traj, phi)
