"""Variational flows: tangent, adjoint duality, second variation, control."""
import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexlab import flows
from vortexlab import simulate as simulate_module
from vortexlab.flows import (Stepper, adjoint_flow, adjoint_sweep,
                             control_gradient, control_search, duality_drift,
                             second_variation, tangent_flow, tangent_sweep)
from vortexlab.malliavin import malliavin_backward_form, malliavin_forward
from vortexlab.lattice import ForcingGeometry
from vortexlab.simulate import SimConfig, simulate, simulate_blocks
from vortexlab.spectral import (Basis, InteractionTable, SpectralField,
                                build_interaction_table, inner)

from conftest import (Z_STAR, closure_run, field_from_dict, random_fields,
                      traced_peak, whole_ball)

CANONICAL = ForcingGeometry(frozenset(Z_STAR))


def make_traj(nu=1.0, radius=3.0, dt=1e-3, t_final=0.2, seed=5, initial=None):
    cfg = SimConfig(nu=nu, forcing=CANONICAL, radius=radius, dt=dt,
                    t_final=t_final, seed=seed, initial=initial)
    return simulate(cfg)


def test_tangent_flow_matches_finite_differences():
    traj = make_traj()
    basis = traj.basis
    rng = np.random.default_rng(2)
    phi = SpectralField(basis, rng.standard_normal(len(basis)))
    got = tangent_flow(traj, 0.0, phi, 0.2)
    eps = 1e-6
    cfg = traj.config
    base = SpectralField(basis, traj.states[0].copy())

    def endpoint(direction, scale):
        init = SpectralField(basis, base.coeffs + scale * direction.coeffs)
        c = SimConfig(nu=cfg.nu, forcing=cfg.forcing, dt=cfg.dt,
                      t_final=cfg.t_final, seed=cfg.seed, initial=init)
        return simulate(c, increments=traj.increments).states[-1]

    fd = (endpoint(phi, eps) - endpoint(phi, -eps)) / (2 * eps)
    assert np.max(np.abs(got.coeffs - fd)) < 1e-7


def test_tangent_flow_linearity_and_window():
    traj = make_traj(t_final=0.1)
    basis = traj.basis
    rng = np.random.default_rng(3)
    a = SpectralField(basis, rng.standard_normal(len(basis)))
    b = SpectralField(basis, rng.standard_normal(len(basis)))
    ja = tangent_flow(traj, 0.02, a, 0.08)
    jb = tangent_flow(traj, 0.02, b, 0.08)
    jab = tangent_flow(traj, 0.02, SpectralField(basis, a.coeffs + 2 * b.coeffs),
                       0.08)
    assert np.allclose(jab.coeffs, ja.coeffs + 2 * jb.coeffs, atol=1e-13)
    # degenerate window is the identity
    same = tangent_flow(traj, 0.05, a, 0.05)
    assert np.array_equal(same.coeffs, a.coeffs)


def test_flow_histories_hold_the_shortened_flows_endpoints():
    # hist[k] is, bit for bit, the endpoint of the same flow over the
    # window cut short at times[i0 + k]
    traj = make_traj(t_final=0.02, dt=2e-3)
    cols = np.random.default_rng(4).standard_normal((len(traj.basis), 2))
    i0, i1 = 2, 8
    s, t = traj.times[i0], traj.times[i1]
    hist = np.stack(list(tangent_sweep(traj, s, cols, t)))
    assert hist.shape == (i1 - i0 + 1, len(traj.basis), 2)
    for k in range(i1 - i0 + 1):
        *_, end = tangent_sweep(traj, s, cols, traj.times[i0 + k])
        assert np.array_equal(hist[k], end)
    for discrete in (False, True):
        # the backward sweep, stacked in time order
        hist = np.stack(list(adjoint_sweep(traj, t, cols, s,
                                           discrete_transpose=discrete))[::-1])
        assert hist.shape == (i1 - i0 + 1, len(traj.basis), 2)
        for k in range(i1 - i0 + 1):
            *_, end = adjoint_sweep(traj, t, cols, traj.times[i0 + k],
                                    discrete_transpose=discrete)
            assert np.array_equal(hist[k], end)


def test_adjoint_duality_discrete_transpose_exact():
    traj = make_traj(t_final=0.1)
    basis = traj.basis
    rng = np.random.default_rng(4)
    for _ in range(5):
        phi = SpectralField(basis, rng.standard_normal(len(basis)))
        psi = SpectralField(basis, rng.standard_normal(len(basis)))
        lhs = inner(tangent_flow(traj, 0.0, phi, 0.1), psi)
        rhs = inner(phi, adjoint_flow(traj, 0.1, psi, 0.0,
                                      discrete_transpose=True))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


@pytest.mark.parametrize("steps", [100, 2000])
def test_adjoint_flow_holds_one_node_at_a_time(steps):
    # the endpoint alone is kept: the peak does not grow with the steps
    traj = make_traj(nu=0.5, radius=4.0, t_final=steps * 1e-3, seed=16)
    phi = SpectralField.single_mode(traj.basis, (2, 1))
    for transpose in (False, True):
        assert traced_peak(adjoint_flow, traj, traj.config.t_final, phi, 0.0,
                           transpose) <= 2 ** 18


@pytest.mark.parametrize("steps", [100, 2000])
def test_one_node_callers_hold_one_node_at_a_time(steps):
    # the tangent endpoint, the second variation's warm-up flows and the
    # backward form reduce their sweeps as they run: no history is kept
    traj = make_traj(nu=0.5, radius=4.0, t_final=steps * 1e-3, seed=16)
    t = traj.config.t_final
    phi = SpectralField.single_mode(traj.basis, (2, 1))
    psi = SpectralField.single_mode(traj.basis, (-1, 2))
    for fn, args in ((tangent_flow, (0.0, phi, t)),
                     (second_variation, (0.0, phi, t / 2, psi, t)),
                     (malliavin_backward_form, (t, phi))):
        assert traced_peak(fn, traj, *args) <= 2 ** 18, fn.__name__


@given(random_fields(5), st.integers(0, 3))
def test_stepper_transpose_is_exact_property(drawn, i):
    # <U, tangent(i, V)> = <transpose(i, U), V> on random (n, 2) blocks
    # along a trajectory started from a random field on a random radius
    _, (w0, *cols) = drawn
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, dt=1e-3, t_final=4e-3,
                    initial=w0)
    V = np.stack([f.coeffs for f in cols[:2]], axis=1)
    U = np.stack([f.coeffs for f in cols[2:]], axis=1)
    stepper = Stepper(simulate(cfg), np.hstack((V, U)))
    lhs = U.T @ stepper.tangent(i, V)
    rhs = stepper.transpose(i, U).T @ V
    # l1 norms, which do not underflow as squares would on tiny fields
    tol = 1e-13 * np.abs(U).sum() * np.abs(V).sum() + np.finfo(float).tiny
    assert np.max(np.abs(lhs - rhs)) <= tol


def test_stepper_steps_are_their_formulas_bitwise():
    # updating the matmul's output in place keeps every operand and its
    # order, on a lone path and on a block of two; the leading +0 nodes
    # (node 0 of a noisy path, nodes 0..6 of zero data undriven on the
    # first 6 steps) share one zero L, which must give the same bits
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.01, seed=5)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((len(cfg.basis()), 3))
    X[::4] = -0.0
    drive = rng.standard_normal((10, 2, 4))
    drive[:6] = 0.0
    lone = simulate(cfg, [0], np.zeros((10, 4)), drive[:, 0])
    for traj, zeros in ((simulate(cfg), 1), (simulate(cfg, [0, 3]), 1),
                        (lone, 7), (simulate(cfg, [0, 3], drive), 7)):
        stepper = Stepper(traj, X)
        assert stepper.zeros == zeros
        D, dt = stepper.decay, stepper.dt
        for i in (0, 4, 6, 7):
            L = stepper.table.linearization(traj.states[i])
            for got, want in ((stepper.tangent(i, X), D * (X + dt * (L @ X))),
                              (stepper.transpose(i, X),
                               D * X + dt * (L.mT @ (D * X))),
                              (stepper.adjoint(i, X),
                               D * (X + dt * (L.mT @ X)))):
                assert got.tobytes() == want.tobytes()


def recorded_run(case):
    """A zero-argument simulate call: the closure runs, the drive cases of
    test_stepper_steps_are_their_formulas_bitwise, -0 data driven on one
    mode, a forcing-free run and an all-zero control."""
    if case in ("two-controls", "one-control", "signed-initial",
                "one-signed-block"):
        return closure_run(case)[0]
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.01, seed=5)
    basis, zero = cfg.basis(), np.zeros((10, 4))
    drive = np.random.default_rng(7).standard_normal((10, 2, 4))
    drive[:6] = 0.0
    if case == "minus-zero-initial":  # a control on (1, 0) alone
        cfg = SimConfig(nu=1.0, forcing=CANONICAL, dt=1e-3, t_final=0.01,
                        initial=SpectralField(basis, np.full(len(basis), -0.0)))
        drive = zero.copy()
        drive[:, 2] = 0.2
    elif case == "forcing-free":
        cfg = SimConfig(nu=0.5, forcing=ForcingGeometry(frozenset()),
                        dt=1e-2, t_final=0.2, initial=field_from_dict(
                            basis, {(1, 2): 0.3, (-2, 1): -0.2}))
    return {"noise": lambda: simulate(cfg),
            "noise-block": lambda: simulate(cfg, [0, 3]),
            "late-control": lambda: simulate(cfg, [0], zero, drive[:, 0]),
            "late-noise-block": lambda: simulate(cfg, [0, 3], drive),
            "minus-zero-initial": lambda: simulate(cfg, [0], zero, drive),
            "forcing-free": lambda: simulate(cfg),
            "zero-control": lambda: simulate(cfg, [0], zero, zero)}[case]


@pytest.mark.parametrize("case", [
    "two-controls", "one-control", "signed-initial", "one-signed-block",
    "noise", "noise-block", "late-control", "late-noise-block",
    "minus-zero-initial", "forcing-free", "zero-control"])
def test_simulate_records_its_zero_nodes_and_closure_for_the_stepper(
        case, monkeypatch):
    # zero_nodes counts the leading nodes whose every bit is zero, and a
    # mode off the recorded closure is +-0 at every node, on every path;
    # the Stepper takes both, and the run's decay, from the record and asks
    # for no closure: columns +0 off a split closure step on it, all others
    # on the whole ball
    traj = recorded_run(case)()
    nodes = traj.states.reshape(len(traj.times), -1, len(traj.basis))
    bits = nodes.reshape(len(nodes), -1).view(np.int64).any(axis=1)
    assert traj.zero_nodes == (np.argmax(bits) if bits.any() else len(bits))
    mask = traj.closure.mask
    whole = build_interaction_table(traj.basis).whole
    assert (traj.closure is whole) == mask.all()
    assert whole.split
    assert not nodes[:, :, ~mask].any()
    monkeypatch.setattr(InteractionTable, "closure", None)
    ones = np.ones((len(traj.basis), 1))
    stepper = Stepper(traj, ones)
    assert stepper.zeros == traj.zero_nodes
    assert stepper.closure is whole
    assert Stepper(traj, 0 * ones).closure is (traj.closure
                                               if traj.closure.split else whole)
    assert np.shares_memory(stepper.decay, traj.decay)


def deterministic_traj(dt, t_final=0.1):
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=dt,
                    t_final=t_final)
    basis = cfg.basis()
    init = field_from_dict(basis, {(1, 0): 0.8, (1, 1): -0.6, (2, 1): 0.4,
                                   (0, -1): 0.5})
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=dt,
                    t_final=t_final, initial=init)
    zero = np.zeros((cfg.n_steps(), 4))
    return simulate(cfg, increments=zero)


def test_adjoint_duality_continuous_first_order():
    rng = np.random.default_rng(6)
    n_modes = len(deterministic_traj(1e-2).basis)
    phi_c = rng.standard_normal(n_modes)
    psi_c = rng.standard_normal(n_modes)

    def gap(dt):
        traj = deterministic_traj(dt)
        basis = traj.basis
        phi = SpectralField(basis, phi_c)
        psi = SpectralField(basis, psi_c)
        lhs = inner(tangent_flow(traj, 0.0, phi, 0.1), psi)
        rhs = inner(phi, adjoint_flow(traj, 0.1, psi, 0.0))
        return abs(lhs - rhs) / max(1.0, abs(lhs))

    g1 = gap(1e-3)
    g2 = gap(5e-4)
    assert g1 < 1e-3
    assert g2 < 0.75 * g1


def test_duality_drift_small_and_first_order():
    rng = np.random.default_rng(8)
    phi_c = rng.standard_normal(len(deterministic_traj(1e-2).basis))

    def drift(dt):
        traj = deterministic_traj(dt)
        basis = traj.basis
        phi = SpectralField(basis, phi_c)
        raw = duality_drift(traj, (1, 0), 0.0, 0.1, phi)
        ref = abs(inner(tangent_flow(
            traj, 0.0, SpectralField.single_mode(basis, (1, 0)), 0.1), phi))
        return raw / max(ref, 1e-12)

    d1 = drift(1e-3)
    d2 = drift(5e-4)
    assert d1 < 1e-3
    assert d2 < 0.75 * d1


def test_second_variation_matches_mixed_finite_differences():
    traj = make_traj(t_final=0.1)
    basis = traj.basis
    cfg = traj.config
    rng = np.random.default_rng(10)
    phi1 = SpectralField(basis, rng.standard_normal(len(basis)))
    phi2 = SpectralField(basis, rng.standard_normal(len(basis)))
    got = second_variation(traj, 0.0, phi1, 0.0, phi2, 0.1)

    def endpoint(a, b):
        init = SpectralField(
            basis, traj.states[0] + a * phi1.coeffs + b * phi2.coeffs)
        c = SimConfig(nu=cfg.nu, forcing=cfg.forcing, dt=cfg.dt,
                      t_final=cfg.t_final, seed=cfg.seed, initial=init)
        return simulate(c, increments=traj.increments).states[-1]

    e = 1e-4
    fd = (endpoint(e, e) - endpoint(e, -e)
          - endpoint(-e, e) + endpoint(-e, -e)) / (4 * e * e)
    assert np.max(np.abs(got.coeffs - fd)) < 1e-6


def test_second_variation_symmetric_and_zero_before_start():
    traj = make_traj(t_final=0.1)
    basis = traj.basis
    rng = np.random.default_rng(12)
    phi1 = SpectralField(basis, rng.standard_normal(len(basis)))
    phi2 = SpectralField(basis, rng.standard_normal(len(basis)))
    a = second_variation(traj, 0.02, phi1, 0.05, phi2, 0.1)
    b = second_variation(traj, 0.05, phi2, 0.02, phi1, 0.1)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)
    zero = second_variation(traj, 0.02, phi1, 0.05, phi2, 0.05)
    assert np.max(np.abs(zero.coeffs)) == 0.0


def test_control_gradient_matches_finite_differences():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=5e-3,
                    t_final=0.1)
    basis = cfg.basis()
    n = cfg.n_steps()
    rng = np.random.default_rng(14)
    control = 0.3 * rng.standard_normal((n, 4))
    projection = [(0, 1), (-1, -1), (1, 0)]
    proj_idx = np.array([basis.index[k] for k in projection])
    target = np.array([0.1, -0.2, 0.05])

    def objective(ctrl):
        traj = simulate(cfg, increments=np.zeros_like(ctrl), control=ctrl)
        r = traj.states[-1][proj_idx] - target
        return 0.5 * float(r @ r), traj, r

    _, traj, r = objective(control)
    grad = control_gradient(traj, r, proj_idx)
    eps = 1e-5
    coords = [(int(i), int(f)) for i, f in
              zip(rng.integers(0, n, 20), rng.integers(0, 4, 20))]
    for i, f in coords:
        cp = control.copy(); cp[i, f] += eps
        cm = control.copy(); cm[i, f] -= eps
        fd = (objective(cp)[0] - objective(cm)[0]) / (2 * eps)
        assert grad[i, f] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_control_gradient_agrees_with_gramian_columns():
    # On any trajectory the gradient is G^T r where G maps control rates to
    # the projected endpoint through the tangent flow; assemble G explicitly
    # from the last node of tangent_sweep and compare.
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=1e-2,
                    t_final=0.05)
    basis = cfg.basis()
    n = cfg.n_steps()
    lam = basis.laplacian_symbol()
    decay = np.exp(-cfg.nu * lam * cfg.dt)
    rng = np.random.default_rng(15)
    control = 0.2 * rng.standard_normal((n, 4))
    traj = simulate(cfg, increments=np.zeros_like(control), control=control)
    forced = traj.forced_indices
    projection = [(1, 1), (0, 1)]
    proj_idx = np.array([basis.index[k] for k in projection])
    r = rng.standard_normal(len(proj_idx))

    G = np.zeros((len(proj_idx), n, 4))
    for i in range(n):
        cols = np.zeros((len(basis), 4))
        for f_pos, f_idx in enumerate(forced):
            cols[f_idx, f_pos] = cfg.dt * decay[f_idx]
        *_, prop = tangent_sweep(traj, (i + 1) * cfg.dt, cols, cfg.t_final)
        G[:, i, :] = prop[proj_idx, :]
    want = np.einsum("a,aif->if", r, G)
    got = control_gradient(traj, r, proj_idx)
    assert np.max(np.abs(got - want)) < 1e-12


def test_control_gradient_window_is_the_full_gradient_bitwise():
    # from nonzero data every row of the full gradient is live; the window
    # [s, t] keeps rows >= i0 bit for bit and gives exact +0 before i0
    basis = Basis.build(3.0)
    init = field_from_dict(basis, {(1, 0): 0.3, (2, 1): -0.2, (0, 1): 0.1})
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, dt=1e-2, t_final=0.2,
                    initial=init)
    control = 0.2 * np.random.default_rng(9).standard_normal((20, 4))
    traj = simulate(cfg, increments=np.zeros_like(control), control=control)
    proj_idx = np.array([basis.index[k] for k in [(0, 1), (1, 1)]])
    r = np.array([0.05, -0.1])
    full = control_gradient(traj, r, proj_idx)
    assert np.all(np.any(full, axis=1))
    for i0 in (0, 1, 7, 19):
        got = control_gradient(traj, r, proj_idx, 0.01 * i0)
        assert got[i0:].tobytes() == full[i0:].tobytes()
        assert not np.any(got[:i0]) and not np.signbit(got[:i0]).any()


def test_control_search_builds_no_zero_operator(monkeypatch):
    # the search starts from zero data at zero control, and every iterate
    # is zero on [0, s]: those nodes share one zero L, and the window's
    # gradients stop at s; the sweeps of all three steps build L 57 times
    # when every node builds its own
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-2,
                    t_final=0.2)
    calls = []
    build = InteractionTable.linearization
    monkeypatch.setattr(InteractionTable, "linearization",
                        lambda *a: calls.append(1) or build(*a))
    res = control_search(cfg, [(1, 0), (0, 1)], [0.1, 0.05], 0.1, 0.2,
                         max_iters=3)
    assert res.iterations == 3
    assert len(calls) <= 18


@pytest.mark.parametrize("case", ["two-controls", "one-control",
                                  "signed-initial", "one-signed-block"])
def test_sweeps_on_a_closure_are_the_whole_ball_sweeps_bitwise(case,
                                                                monkeypatch):
    # a mode that is +-0 at every node adds only +-0 terms, so a run on
    # the closure of the modes seen, and its sweeps, keep the whole ball's
    # bits; columns on and off the closure step to the same bits
    traj = closure_run(case)[0]()
    basis, t = traj.basis, traj.config.t_final
    mask = traj.closure.mask
    assert not mask.all()
    subspace = [(1, 0), (0, 2), basis.modes[np.argmin(mask)]]  # last: off
    idx = np.array([basis.index[k] for k in subspace])
    phi = np.eye(len(basis))[:, idx]

    def sweeps():
        out = [malliavin_forward(traj, t, subspace).factor,
               *adjoint_sweep(traj, t, phi, 0.0),
               *tangent_sweep(traj, 0.0, phi, t)]
        if traj.states.ndim == 2:
            out.append(control_gradient(traj, np.array([0.1, -0.05, 0.2]),
                                        idx))
        return out

    reduced = sweeps()
    with monkeypatch.context() as m:
        whole_ball(m)
        traj = closure_run(case)[0]()  # recorded on the whole ball
        assert traj.closure is build_interaction_table(basis).whole
        full = sweeps()
    assert len(reduced) == len(full)
    for got, want in zip(reduced, full):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def inner_case(case):
    """(trajectory, columns, split): a noisy radius-3 run whose closure
    L(w) splits or not, and columns on or off it, or control-r8's search
    drive at radius 8.1 with its projection's residual columns."""
    if case == "r8-control":
        cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=8.1, dt=5e-3,
                        t_final=0.1)
        control = np.zeros((cfg.n_steps(), 4))  # drives (-1, -1), (1, 0)
        control[:, [0, 2]] = np.random.default_rng(8).uniform(
            -0.3, 0.3, (cfg.n_steps(), 2))
        traj = simulate(cfg, increments=np.zeros_like(control),
                        control=control)
        idx = np.array([traj.basis.index[k]
                        for k in [(0, 1), (-1, -1), (1, 0)]])
        cols = np.zeros((len(traj.basis), 1))
        cols[idx, 0] = [0.1, -0.05, 0.15]
        return traj, cols, True
    forcing = ({(1, 1), (-1, -1), (0, 2), (0, -2)} if case == "cross"
               else {(1, 0), (-1, -1)})
    cfg = SimConfig(nu=0.5, forcing=ForcingGeometry(frozenset(forcing)),
                    radius=3.0, dt=1e-3, t_final=0.02, seed=3)
    traj = simulate(cfg)
    E = traj.closure.mask
    cols = np.eye(len(E))[:, np.flatnonzero(E)[[0, 2, 3]]]
    cols[E, 1] *= -1.0  # a -0 on every mode of E but one
    if case == "off-columns":
        cols[np.argmin(E), 0] = 0.5
    elif case == "minus-zero-off":
        cols[np.argmin(E), 2] = -0.0
    return traj, cols, case in ("split", "r8-control")


@pytest.mark.parametrize("case", ["split", "cross", "off-columns",
                                  "minus-zero-off", "r8-control"])
def test_sweeps_on_the_inner_block_are_the_full_term_sweeps_bitwise(
        case, monkeypatch):
    # columns +0 off a split closure step on its E x E terms alone; a
    # closure with cross terms, or columns not +0 off it, step on the whole
    # ball's terms
    traj, cols, split = inner_case(case)
    closure, t = traj.closure, traj.config.t_final
    table = build_interaction_table(traj.basis)
    n_modes = {"split": 14, "cross": 6, "r8-control": 106}
    assert closure.mask.sum() == n_modes.get(case, 14)
    assert closure.split == (case != "cross")
    assert 0 < len(closure.rows[2]) < len(table.live[2])
    idx = np.flatnonzero(cols.any(axis=1))
    subspace = [traj.basis.modes[i] for i in idx]

    def sweeps():
        if case == "r8-control":
            return [control_gradient(traj, cols[idx, 0], idx)]
        out = [*adjoint_sweep(traj, t, cols, 0.0),
               *adjoint_sweep(traj, t, cols, 0.0, True),
               *tangent_sweep(traj, 0.0, cols, t)]
        # the Gram steps eye's columns and the gradient a residual padded
        # with +0, so neither holds the -0 off E
        if case != "minus-zero-off":
            out += [malliavin_forward(traj, t, subspace).factor,
                    control_gradient(traj, cols[idx, 0], idx)]
        return out

    terms, linearization = [], InteractionTable.linearization
    monkeypatch.setattr(InteractionTable, "linearization",
                        lambda self, w, closure: terms.append(
                            2 * len(closure.rows[2]))
                        or linearization(self, w, closure))
    got = sweeps()
    want_terms = 2 * len((closure if split else table.whole).rows[2])
    assert terms and set(terms) == {want_terms}
    terms.clear()
    traj.closure = table.whole  # every term
    want = sweeps()
    assert set(terms) == {2 * len(table.live[2])}
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()  # sign bits included


def test_control_search_trivial_target():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=1e-2,
                    t_final=0.05)
    res = control_search(cfg, [(1, 0), (1, 1)], [0.0, 0.0], 0.0, 0.05)
    assert res.converged
    assert res.residual == 0.0
    assert np.max(np.abs(res.control)) == 0.0


def test_control_search_rejects_t_before_t_final():
    # the search always matches the endpoint at t_final
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=1e-2,
                    t_final=0.05)
    with pytest.raises(ValueError, match="t_final"):
        control_search(cfg, [(1, 0), (1, 1)], [0.1, -0.05], 0.0, 0.02)


def test_control_search_rejects_bad_start():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=1e-2,
                    t_final=0.05)
    for s in (0.013, -0.2, 0.05, 0.5):   # off grid, negative, s >= t
        with pytest.raises(ValueError):
            control_search(cfg, [(1, 0), (1, 1)], [0.1, -0.05], s, 0.05)


def test_control_search_reaches_forced_target():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=2e-3,
                    t_final=0.1)
    projection = [(1, 0), (1, 1)]
    target = [0.3, -0.2]
    res = control_search(cfg, projection, target, 0.0, 0.1, tol=1e-6)
    assert res.converged, res.residual
    assert res.residual < 1e-3
    assert np.allclose(res.achieved, target, atol=2e-3)
    # objective history is monotone nonincreasing under backtracking
    hist = np.array(res.history)
    assert np.all(np.diff(hist) <= 1e-15)


def test_control_search_kicks_a_zero_gradient():
    # (0, 1) is unforced, so at zero control its endpoint coefficient and
    # the first gradient are exactly zero; the search kicks the control on
    # [s, t] with a fixed ramp and descends from there
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-2,
                    t_final=0.2)
    kicked = control_search(cfg, [(0, 1)], [0.05], 0.1, 0.2, max_iters=1)
    want = np.zeros((20, 4))
    want[10:] = 0.1 * np.linspace(0.5, 1.0, 10)[:, None]
    assert np.array_equal(kicked.control, want)
    assert kicked.iterations == 1
    assert kicked.history[0] == 0.5 * 0.05 ** 2
    # on the whole horizon the descent after the kick reaches the target
    res = control_search(cfg, [(0, 1)], [0.05], 0.0, 0.2, max_iters=40)
    assert res.residual < 5e-3


def test_control_search_stops_on_a_target_off_the_closure(monkeypatch):
    # +-(1, 0) are parallel, so their closure is the two forced modes and
    # (0, 1) stays exactly 0 under every control: the search stops after its
    # first objective, with no kick and no gradient sweep
    cfg = SimConfig(nu=0.5, forcing=ForcingGeometry(frozenset({(1, 0),
                                                               (-1, 0)})),
                    radius=3.0, dt=1e-2, t_final=0.2)
    calls = []
    for name in ("simulate", "adjoint_sweep"):
        run = getattr(flows, name)
        monkeypatch.setattr(flows, name, lambda *a, run=run, name=name, **k:
                            calls.append(name) or run(*a, **k))
    res = control_search(cfg, [(0, 1)], [0.05], 0.0, 0.2)
    assert calls == ["simulate"]
    assert res.iterations == 0 and not res.converged
    assert res.history == [0.5 * 0.05 ** 2]
    assert res.residual == 0.05
    assert not res.control.any()


def test_control_search_stops_when_backtracking_finds_no_lower_objective():
    # a forced target is reached to rounding; below that no trial step lowers
    # J, so the backtracking runs out long before max_iters
    cfg = SimConfig(nu=0.5, forcing=ForcingGeometry(frozenset({(1, 0),
                                                               (-1, 0)})),
                    radius=2.0, dt=1e-2, t_final=0.1)
    res = control_search(cfg, [(1, 0)], [0.3], 0.0, 0.1, tol=1e-300,
                         max_iters=200)
    assert 0 < res.iterations < 200 and not res.converged
    assert len(res.history) == res.iterations + 1
    assert np.all(np.diff(res.history) <= 0.0)
    assert 0.0 < res.residual < 1e-15


@pytest.mark.parametrize("call, match", [
    (lambda traj, phi: tangent_sweep(traj, 0.02, phi.coeffs, 0.01),
     "need s <= t"),
    (lambda traj, phi: duality_drift(traj, (1, 0), 0.01, 0.01, phi),
     "need s < t"),
    (lambda traj, phi: control_search(traj.config, [(1, 0), (1, 1)], [0.1],
                                      0.0, traj.config.t_final),
     "target length"),
])
def test_flows_reject_invalid_windows_and_targets(call, match):
    traj = make_traj(t_final=0.02)
    phi = SpectralField.single_mode(traj.basis, (2, 1))
    with pytest.raises(ValueError, match=match):
        call(traj, phi)


@pytest.mark.parametrize("call, match", [
    (lambda traj, phi: tangent_sweep(traj, 0.01, phi, 0.02005), "not on"),
    (lambda traj, phi: adjoint_sweep(traj, 0.01, phi, 0.02), "need s <= t"),
    (lambda traj, phi: adjoint_sweep(traj, 0.03, phi, 0.0, True), "not on"),
    (lambda traj, phi: simulate_blocks(traj.config, []), "at least one path"),
])
def test_sweeps_and_block_loops_check_their_arguments_at_the_call(
        monkeypatch, call, match):
    # plain functions that return a generator: the check runs at the call,
    # before any Stepper or simulate call
    for fn in (tangent_sweep, adjoint_sweep, simulate_blocks):
        assert not inspect.isgeneratorfunction(fn)
    traj = make_traj(t_final=0.02)
    phi = SpectralField.single_mode(traj.basis, (2, 1)).coeffs
    monkeypatch.setattr(flows, "Stepper", None)
    monkeypatch.setattr(simulate_module, "simulate", None)
    with pytest.raises(ValueError, match=match):
        call(traj, phi)


def test_block_tangent_sweep_is_stacked_at_every_node_and_bitwise_lone():
    # a block's nodes are (P, n, m) from node 0 on, as the adjoint sweep's
    cfg = make_traj(t_final=0.02).config
    block = simulate(cfg, range(3))
    cols = np.random.default_rng(7).standard_normal((len(block.basis), 2))
    nodes = list(tangent_sweep(block, 0.0, cols, 0.02))
    assert len(nodes) == 21
    assert all(V.shape == (3, len(block.basis), 2) for V in nodes)
    for b in range(3):
        lone = list(tangent_sweep(simulate(cfg, [b]), 0.0, cols, 0.02))
        for V, want in zip(nodes, lone, strict=True):
            assert np.array_equal(V[b], want)
            assert np.array_equal(np.signbit(V[b]), np.signbit(want))
