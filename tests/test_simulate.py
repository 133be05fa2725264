"""Path simulator: exact heat decay, replay, blow-up, energy balance."""
import math

import numpy as np
import pytest

from vortexlab.lattice import ForcingGeometry
from vortexlab.simulate import (BLOWUP_LIMIT, BlowUpError, SimConfig,
                                Trajectory, forcing_energy_rate, noise_scale,
                                simulate, simulate_blocks)
from vortexlab.spectral import (Basis, SpectralField, TWO_PI_SQ,
                                build_interaction_table)

from conftest import (Z_STAR, closure_run, field_from_dict, traced_peak,
                      whole_ball)

EMPTY = ForcingGeometry(frozenset())
CANONICAL = ForcingGeometry(frozenset(Z_STAR))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(nu=0.0, forcing=EMPTY)
    with pytest.raises(ValueError):
        SimConfig(nu=1.0, forcing=EMPTY, dt=2.0, t_final=1.0)
    with pytest.raises(ValueError):
        SimConfig(nu=1.0, forcing=ForcingGeometry(frozenset({(7, 0), (-7, 0)})),
                  radius=6.0)
    with pytest.raises(ValueError, match="whole number of steps"):
        SimConfig(nu=1.0, forcing=EMPTY, dt=0.3, t_final=1.0)
    # forced modes are checked against the basis simulated on, which is the
    # initial field's when one is given (radius 2 lacks (2, 1))
    wide = ForcingGeometry(frozenset({(2, 1), (-2, -1), (1, 1), (-1, -1)}))
    with pytest.raises(ValueError, match="outside basis"):
        SimConfig(nu=0.5, forcing=wide, dt=1e-2, t_final=0.05,
                  initial=SpectralField(Basis.build(2.0)))
    # representation error in t_final / dt is not a partial step
    assert SimConfig(nu=1.0, forcing=EMPTY, dt=0.002, t_final=0.05).n_steps() == 25


def test_basis_is_built_once_per_radius():
    assert (SimConfig(nu=1.0, forcing=EMPTY, radius=3.0).basis()
            is SimConfig(nu=1.0, forcing=EMPTY, radius=3.0).basis())


def test_single_mode_heat_decay_is_exact():
    # No forcing, single mode: the integrator reproduces e^{-nu |k|^2 t}
    # exactly on every grid node (the linear part is integrated exactly and
    # a lone mode has no self-interaction).
    basis = Basis.build(4.0)
    init = SpectralField.single_mode(basis, (2, 1), 0.7)
    cfg = SimConfig(nu=0.3, forcing=EMPTY, dt=1e-2, t_final=0.5, initial=init)
    traj = simulate(cfg)
    idx = basis.index[(2, 1)]
    want = 0.7 * np.exp(-0.3 * 5.0 * traj.times)
    assert np.max(np.abs(traj.states[:, idx] - want)) < 1e-13
    others = np.delete(traj.states, idx, axis=1)
    assert np.max(np.abs(others)) == 0.0


def test_replay_is_bit_exact():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0,
                    dt=1e-3, t_final=0.1, seed=42)
    a = simulate(cfg, [3])
    b = simulate(cfg, [3], increments=a.increments)
    assert np.array_equal(a.states, b.states)
    # fresh draw from the same (seed, path) is also identical
    c = simulate(cfg, [3])
    assert np.array_equal(a.states, c.states)
    # different path index decorrelates
    d = simulate(cfg, [4])
    assert not np.array_equal(a.increments, d.increments)


def test_blow_up_raises():
    basis = Basis.build(3.0)
    rng = np.random.default_rng(1)
    init = SpectralField(basis, 1e6 * rng.standard_normal(len(basis)))
    cfg = SimConfig(nu=1e-6, forcing=EMPTY, dt=0.5, t_final=10.0, initial=init)
    with pytest.raises(BlowUpError):
        simulate(cfg)


def test_nan_increments_raise_blow_up():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=1e-2,
                    t_final=0.1)
    incs = np.full((cfg.n_steps(), len(Z_STAR)), np.nan)
    with pytest.raises(BlowUpError):
        simulate(cfg, increments=incs)


# (1, 0) and (-1, 0) share a norm, so no triad row links them: from zero
# data, step 1 puts exactly gain * dW on them and the drift stays zero
PAIR = ForcingGeometry(frozenset({(1, 0), (-1, 0)}))
PAIR_CFG = SimConfig(nu=1.0, forcing=PAIR, radius=2.0, dt=1e-2, t_final=2e-2)


def _increment_for(value):
    """A Wiener increment that step 1 turns into exactly `value`."""
    dt = PAIR_CFG.dt
    gain = noise_scale(1.0, np.ones(1), dt)[0] / math.sqrt(dt)
    x = value / gain
    for _ in range(64):
        if gain * x == value:
            return x
        x = np.nextafter(x, math.inf if gain * x < value else -math.inf)
    raise AssertionError(f"no increment gives {value!r}")


def test_blow_up_check_is_exact_at_the_limit():
    # the largest entry is exactly the limit; the sum of squares fails the
    # fast bound, so the exact max decides, and the state passes
    incs = np.zeros((2, 2))
    incs[0] = _increment_for(BLOWUP_LIMIT), _increment_for(-9e11)
    traj = simulate(PAIR_CFG, increments=incs)
    w = traj.states[1]
    assert np.abs(w).max() == BLOWUP_LIMIT
    assert not np.dot(w, w) <= 0.25 * BLOWUP_LIMIT ** 2
    assert np.abs(traj.states[2]).max() < BLOWUP_LIMIT  # decayed, no noise
    above = np.nextafter(BLOWUP_LIMIT, math.inf)
    for bad in (_increment_for(above), _increment_for(-above), np.nan,
                np.inf, -np.inf):
        incs = np.zeros((2, 2))
        incs[0, 1] = bad
        with pytest.raises(BlowUpError, match="at step 1 on path 0;"):
            simulate(PAIR_CFG, increments=incs)


def test_blow_up_check_names_the_first_bad_path_of_a_block():
    limit = _increment_for(BLOWUP_LIMIT)
    above = _increment_for(np.nextafter(BLOWUP_LIMIT, math.inf))
    incs = np.zeros((2, 4, 2))  # paths at the limit, over it, NaN, over it
    incs[0] = [[limit, 1.0], [2.0, above], [np.nan, 3.0], [above, -above]]
    with pytest.raises(BlowUpError) as err:
        simulate(PAIR_CFG, [4, 9, 6, 1], incs)
    assert str(err.value) == (
        "state magnitude exceeded 1e+12 or became non-finite at step 1 on "
        "path 9; reduce dt")
    # the path at the limit passes in a block too
    traj = simulate(PAIR_CFG, [4, 1], incs[:, [0, 0]])
    assert np.abs(traj.states[1]).max() == BLOWUP_LIMIT


def test_simulate_blocks_are_bit_identical_to_lone_paths():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=4.0, dt=1e-3,
                    t_final=0.02, seed=9)
    # a radius-4 block holds 2**16 // 2352 = 27 paths, so these 60 paths,
    # in no particular order, fill two blocks and part of a third
    paths = list(range(100, 40, -1))
    size = 2 ** 16 // len(build_interaction_table(cfg.basis()))
    assert len(paths) > 2 * size
    blocks = list(simulate_blocks(cfg, paths))
    assert [block for block, _ in blocks] == [paths[:size],
                                              paths[size:2 * size],
                                              paths[2 * size:]]
    for block, traj in blocks:
        assert np.array_equal(traj.states, simulate(cfg, block).states)
        for b, p in enumerate(block):
            ref = simulate(cfg, [p])
            assert np.array_equal(traj.states[:, b], ref.states)
            assert np.array_equal(traj.increments[:, b], ref.increments)


def test_block_paths_equal_lone_paths_bitwise():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=9)
    paths = [7, 2, 30]
    block = simulate(cfg, paths)
    n = len(cfg.basis())
    assert block.states.shape == (cfg.n_steps() + 1, len(paths), n)
    assert block.increments.shape == (cfg.n_steps(), len(paths), len(Z_STAR))
    for b, p in enumerate(paths):
        lone = simulate(cfg, [p])
        assert np.array_equal(block.states[:, b], lone.states)
        assert np.array_equal(block.increments[:, b], lone.increments)
        # the per-path series of a block are its columns
        assert np.array_equal(block.wiener_path()[:, b], lone.wiener_path())
        for got, want in zip(block.enstrophy_balance(),
                             lone.enstrophy_balance()):
            assert np.array_equal(got[:, b], want)


def test_one_path_block_keeps_lone_shapes():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.02, seed=9)
    shape = (cfg.n_steps(), len(Z_STAR))
    block = simulate(cfg, [4])
    assert block.states.shape == (cfg.n_steps() + 1, len(cfg.basis()))
    assert block.increments.shape == shape
    [(paths, lone)] = simulate_blocks(cfg, [4])
    assert paths == [4] and lone.states.shape == block.states.shape
    assert np.array_equal(block.states, lone.states)
    incs = np.random.default_rng(1).normal(0.0, 0.03, shape)
    replay = simulate(cfg, [0], increments=incs)
    assert replay.states.shape == block.states.shape
    assert np.array_equal(replay.increments, incs)
    assert np.array_equal(replay.states, simulate(cfg, increments=incs).states)


def test_simulate_blocks_start_every_path_from_the_initial_field():
    basis = Basis.build(3.0)
    rng = np.random.default_rng(4)
    init = SpectralField(basis, 0.3 * rng.standard_normal(len(basis)))
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.05, initial=init, seed=2)
    [(paths, block)] = simulate_blocks(cfg, range(5))
    for b, p in enumerate(paths):
        assert np.array_equal(block.states[0, b], init.coeffs)
        assert np.array_equal(block.states[:, b], simulate(cfg, [p]).states)


def test_blow_up_in_a_block_names_the_path():
    # at this dt some noise paths drive the explicit step unstable
    cfg = SimConfig(nu=1e-3, forcing=CANONICAL, radius=3.0, dt=0.1,
                    t_final=6.0, seed=5)
    paths = range(3, 10)
    blown = []             # (step, message) of each serial blow-up
    for p in paths:
        try:
            simulate(cfg, [p])
        except BlowUpError as err:
            blown.append((int(str(err).split("at step ")[1].split()[0]),
                          str(err)))
    # the block mixes paths that blow up with paths that do not
    assert 0 < len(blown) < len(paths)
    with pytest.raises(BlowUpError) as err:
        list(simulate_blocks(cfg, paths))
    assert str(err.value) == min(blown)[1]


def test_grid_index_rejects_off_grid_times():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0,
                    dt=1e-2, t_final=0.1)
    traj = simulate(cfg)
    assert traj.grid_index(0.05) == 5
    with pytest.raises(ValueError):
        traj.grid_index(0.0512)
    with pytest.raises(ValueError):
        traj.grid_index(-0.01)
    with pytest.raises(ValueError):
        traj.grid_index(0.2)


def test_config_grid_index_matches_trajectory():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0,
                    dt=1e-2, t_final=0.1)
    traj = simulate(cfg)
    for i, t in enumerate(traj.times):
        assert cfg.grid_index(float(t)) == traj.grid_index(float(t)) == i
    for bad in (0.0512, -0.01, 0.11, 0.2):
        with pytest.raises(ValueError):
            cfg.grid_index(bad)


def test_wiener_path_is_cumulative_sum():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0,
                    dt=1e-2, t_final=0.2, seed=7)
    traj = simulate(cfg)
    W = traj.wiener_path()
    assert np.array_equal(W[0], np.zeros(4))
    assert np.allclose(np.diff(W, axis=0), traj.increments, atol=0)
    # increment variance should be about dt
    var = np.var(traj.increments)
    assert 0.3 * cfg.dt < var < 3.0 * cfg.dt


def test_noise_scale_matches_ou_variance():
    # Integrated OU variance over one step: (1 - e^{-2 nu lam dt})/(2 nu lam),
    # cross-checked against high-resolution quadrature of the kernel.
    nu, dt = 0.7, 1e-2
    lam = np.array([1.0, 5.0, 13.0])
    want = np.sqrt((1 - np.exp(-2 * nu * lam * dt)) / (2 * nu * lam))
    got = noise_scale(nu, lam, dt)
    assert np.allclose(got, want, rtol=0, atol=0)
    s = np.linspace(0.0, dt, 20001)
    for i, l in enumerate(lam):
        kernel = np.exp(-2 * nu * l * (dt - s))
        assert np.trapezoid(kernel, s) == pytest.approx(got[i] ** 2, rel=1e-6)


def test_forcing_energy_rate_counts_modes():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0,
                    dt=1e-2, t_final=0.1)
    traj = simulate(cfg)
    assert forcing_energy_rate(traj) == pytest.approx(4 * TWO_PI_SQ)


def test_deterministic_balance_residual_small():
    # Zero noise: r(t) reduces to the O(dt) quadrature error of the exact
    # dissipation balance.
    basis = Basis.build(3.0)
    init = field_from_dict(basis, {(1, 0): 1.0, (1, 1): -0.5, (2, 1): 0.3})
    cfg = SimConfig(nu=0.5, forcing=EMPTY, dt=1e-3, t_final=0.5, initial=init)
    traj = simulate(cfg)
    r = traj.enstrophy_balance()[2]
    drift_free = r + forcing_energy_rate(traj) * traj.times  # remove -E0 t
    assert np.max(np.abs(drift_free)) < 5e-3


def _reference_balance(traj):
    """The series and the residual as first written: one 64-node mode sum
    per weight, and the residual from both series."""
    def mode_sum(lam):
        out = np.empty(traj.states.shape[:-1])
        for i in range(0, len(out), 64):
            out[i:i + 64] = np.sum(lam * traj.states[i:i + 64] ** 2, axis=-1)
        return TWO_PI_SQ * out

    e, h1 = mode_sum(1.0), mode_sum(traj.basis.laplacian_symbol())
    integral = np.zeros_like(e)
    np.cumsum(0.5 * traj.config.dt * (h1[1:] + h1[:-1]), axis=0,
              out=integral[1:])
    times = traj.times.reshape((-1,) + (1,) * (e.ndim - 1))
    return e, h1, (e - e[0] + 2.0 * traj.config.nu * integral
                   - forcing_energy_rate(traj) * times)


@pytest.mark.parametrize("paths", [[3], [0, 5, 2]], ids=["lone", "block"])
def test_enstrophy_balance_is_the_reference_bitwise(paths):
    # 151 nodes: two full 64-node chunks and a short one
    basis = Basis.build(3.0)
    w0 = np.random.default_rng(25).uniform(-0.5, 0.5, len(basis))
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, dt=2e-3, t_final=0.3, seed=4,
                    initial=SpectralField(basis, w0))
    traj = simulate(cfg, paths)
    assert len(traj.times) % 64 != 0
    got = traj.enstrophy_balance()
    for a, b in zip(got, _reference_balance(traj)):
        assert a.shape == traj.states.shape[:-1]
        assert a.tobytes() == b.tobytes()


def test_enstrophy_balance_memory_is_bounded():
    # in units of one (nodes, P) series: the three outputs, the integral and
    # the residual's temporaries come to about 6, the series and two 64-node
    # chunks of squares to about 8 (3.1 a chunk here), and the whole block's
    # squares to 48
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=4.0, dt=1e-3,
                    t_final=1.0)
    traj = simulate(cfg, range(8))
    series = 8 * traj.states[..., 0].size
    assert traj.states.shape == (1001, 8, 48)
    traj.enstrophy_balance()  # warm-up
    assert traced_peak(traj.enstrophy_balance) <= 10 * series


def test_stochastic_residual_mean_near_zero():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0,
                    dt=1e-3, t_final=0.3, seed=11)
    finals = [simulate(cfg, [p]).enstrophy_balance()[2][-1]
              for p in range(60)]
    finals = np.array(finals)
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean()) < 4.0 * se + 0.05


def test_control_steers_forced_modes():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0,
                    dt=1e-3, t_final=0.05)
    n = cfg.n_steps()
    control = np.ones((n, 4))
    zero_inc = np.zeros((n, 4))
    traj = simulate(cfg, increments=zero_inc, control=control)
    forced_vals = traj.states[-1][traj.forced_indices]
    assert np.all(forced_vals > 0.0)


def test_control_shape_is_checked_before_any_step():
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=1e-2,
                    t_final=0.1)
    n = cfg.n_steps()
    for control, paths in ((np.ones((n, 1)), [0]),      # would broadcast
                           (np.ones((n - 1, 4)), [0]),  # one row short
                           (np.ones((n, 4)), [0, 1])):  # a block of paths
        with pytest.raises(ValueError, match="control has shape"):
            simulate(cfg, paths, control=control)


def test_simulate_needs_a_path_before_any_work(monkeypatch):
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=3.0, dt=1e-2,
                    t_final=0.2)

    def no_work(*args):
        raise AssertionError("simulate did work before the check")
    monkeypatch.setattr(SimConfig, "basis", no_work)
    for paths in ((), [], range(0)):
        with pytest.raises(ValueError, match="at least one path"):
            simulate(cfg, paths)


@pytest.mark.parametrize("k", [0, 8, 20])
def test_zero_data_idles_until_the_first_driven_step(k):
    # a +0 state stays +0 on the undriven steps, so a run whose control is
    # zero on the first k steps is a run of the last n - k steps, shifted;
    # its first k + 1 nodes are +0, down to the sign bit
    def run(t_final, control):
        cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-2,
                        t_final=t_final)
        return simulate(cfg, increments=np.zeros_like(control),
                        control=control).states
    control = np.random.default_rng(30).standard_normal((20, 4))
    control[:k] = 0.0
    states = run(0.2, control)
    assert not np.any(states[:k + 1]) and not np.signbit(states[:k + 1]).any()
    if k < 20:
        shifted = run(round(0.01 * (20 - k), 12), control[k:])
        assert states[k:].tobytes() == shifted.tobytes()
        assert np.all(np.any(states[k + 1:], axis=1))


def test_negative_zero_data_is_stepped():
    # -0 is not +0: its undriven steps keep the unforced modes' sign bits
    # (a forced mode takes -0 + (+0) noise = +0), so the loop may not skip
    basis = Basis.build(3.0)
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, dt=1e-2, t_final=0.2,
                    initial=SpectralField(basis, np.full(len(basis), -0.0)))
    traj = simulate(cfg, increments=np.zeros((20, 4)))
    assert not np.any(traj.states)
    assert np.signbit(np.delete(traj.states, traj.forced_indices, 1)).all()


def _reference_states(cfg, paths, increments, control=None):
    """The step loop as first written, one fresh temporary per operation."""
    basis, P = cfg.basis(), len(paths)
    table, lam, n = (build_interaction_table(basis), basis.laplacian_symbol(),
                     len(basis))
    forced = np.array([basis.index[k] for k in sorted(cfg.forcing.z_star)])
    off = n * np.arange(P)[:, None]
    j, k, l, hit = ((off + a).ravel()
                    for a in (table.j, table.k, table.l, forced))
    sym, decay, gain = (np.tile(a, P) for a in (
        table.sym, np.exp(-cfg.nu * lam * cfg.dt),
        noise_scale(cfg.nu, lam[forced], cfg.dt) / math.sqrt(cfg.dt)))
    dW = increments.reshape(cfg.n_steps(), -1)
    states = [np.tile(cfg.initial.coeffs, P)]
    for i in range(cfg.n_steps()):
        w = states[-1]
        drift = -np.bincount(l, weights=sym * w[j] * w[k], minlength=P * n)
        if control is not None:
            drift[hit] += control[i]
        w = decay * (w + cfg.dt * drift)
        w[hit] += gain * dW[i]
        states.append(w)
    return np.array(states)


@pytest.mark.parametrize("radius, paths, controlled",
                         [(8.1, [0], True), (3.0, [5, 1, 8], False),
                          (8.1, [6, 2], False), (3.0, [0], True)])
def test_step_loop_is_the_reference_loop_bitwise(radius, paths, controlled):
    # the drift's products keep the order (sym * w_j) * w_k and the in-place
    # update keeps every operand, so the states match down to the sign bits;
    # the reference sums every table row, and with exact and signed zeros
    # in the field the dead (sym = 0) rows add +-0 terms
    rng, basis = np.random.default_rng(22), Basis.build(radius)
    w0 = rng.uniform(-0.5, 0.5, len(basis))
    w0[::5], w0[2::5] = 0.0, -0.0
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, dt=5e-3, t_final=0.1, seed=3,
                    initial=SpectralField(basis, w0))
    control = None
    if controlled:
        control = rng.standard_normal((cfg.n_steps(), len(Z_STAR)))
        control[::4] = 0.0
        traj = simulate(cfg, paths, np.zeros_like(control), control)
    else:
        traj = simulate(cfg, paths)
        assert np.any(traj.increments)
    want = _reference_states(cfg, paths, traj.increments, control)
    assert traj.states.tobytes() == want.tobytes()


def test_simulate_memory_per_step_is_bounded():
    # a step allocates only bincount's output: beyond the states, the peak
    # is the drift's two product buffers and a few small arrays
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=8.1, dt=5e-3,
                    t_final=0.1)
    control = np.full((cfg.n_steps(), len(Z_STAR)), 0.1)
    zeros = np.zeros_like(control)
    traj = simulate(cfg, [0], zeros, control)  # warm-up: builds the table
    table = build_interaction_table(traj.basis)
    peak = traced_peak(simulate, cfg, [0], zeros, control)
    assert peak <= traj.states.nbytes + 2.25 * 8 * len(table.l)


@pytest.mark.parametrize("case, size, rows", [
    ("two-controls", 24, 268), ("one-control", 1, 0),
    ("signed-initial", 24, 268), ("one-signed-block", 16, 96)])
def test_simulate_on_a_closure_is_the_whole_ball_run_bitwise(
        case, size, rows, monkeypatch):
    # the drift drops the live rows with a factor off the closure of the
    # driven modes (1,072 at radius 4, 320 at radius 3); with no row left,
    # the zero row keeps the drift float
    run, seed = closure_run(case)
    traj = run()
    n, table = len(traj.basis), build_interaction_table(traj.basis)
    closure = table.closure(np.array([k in seed for k in traj.basis.modes]))
    assert traj.closure is closure  # the run recorded the cached value
    E = closure.mask
    assert (E.sum(), len(closure.rows[0])) == (size, rows)
    with monkeypatch.context() as m:
        whole_ball(m)
        full = run()
    assert np.array_equal(traj.states, full.states)
    assert np.array_equal(np.signbit(traj.states), np.signbit(full.states))
    # off the closure every node reads +0, but for the -0 data of
    # "signed-initial", which keeps its sign bit as it steps
    off = traj.states.reshape(-1, n)[:, ~E]
    assert not off.any()
    signed = np.zeros(n, bool)
    signed[traj.basis.index[-2, 2]] = case == "signed-initial"
    assert np.array_equal(np.signbit(off), np.broadcast_to(signed[~E],
                                                           off.shape))


@pytest.mark.parametrize("paths, shape", [
    ([0], (3, 2)), ([0], (2, 1, 2)), ([0, 1], (2, 2)), ([0, 1], (2, 2, 3))])
def test_simulate_rejects_increments_of_the_wrong_shape(paths, shape):
    # one path takes (steps, n_forced), a block (steps, P, n_forced)
    with pytest.raises(ValueError, match=r"increments have shape .* need"):
        simulate(PAIR_CFG, paths, increments=np.zeros(shape))
