"""Quadratic variation toolkit: partitions, estimators, tail bounds."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexlab import quadvar
from vortexlab.quadvar import (BLOCK_EXPONENT, CASCADE_RATIO, SampledProcess,
                               cascade_table, chi_square_cdf,
                               chi_square_small_ball_bound,
                               chi_square_small_ball_bound_corrected,
                               cross_qv, ensemble_bytes, event_frequencies,
                               holder_constant, holder_exceeds,
                               holder_transfer, omega_a_bound, omega_b_bound,
                               partition_node_count, partition_scheme,
                               qv_estimate, sample_wiener_ensemble)

from conftest import traced_peak


# ----------------------------------------------------- sampled processes

def test_sampled_process_validates_grid():
    t = np.linspace(0.0, 1.0, 11)
    sp = SampledProcess(t, t ** 2)
    assert sp.grid_index(0.3) == 3 and isinstance(sp.grid_index(0.3), int)
    with pytest.raises(ValueError):
        sp.grid_index(0.35)
    assert np.array_equal(sp.grid_index(t[::5]), [0, 5, 10])
    with pytest.raises(ValueError):
        sp.grid_index(np.array([0.1, 0.2, 0.35, 0.4]))
    with pytest.raises(ValueError):
        SampledProcess(np.array([0.0, 0.1, 0.15]), np.zeros(3))


def test_qv_of_smooth_process_vanishes_under_refinement():
    t = np.linspace(0.0, 1.0, 1 << 12 | 1)
    z = SampledProcess(t, np.sin(3 * t))
    prev = None
    for n in (8, 32, 128, 512):
        part = t[:: len(t) // n]
        qv = qv_estimate(z, list(part) + [1.0])
        if prev is not None:
            assert qv < 0.5 * prev
        prev = qv
    # QV of a C^1 path over n pieces is O(1/n): ~ 9/(2*512) here
    assert prev < 0.01


def test_qv_of_wiener_path_converges_to_time():
    n_fine = 1 << 12
    t = np.linspace(0.0, 1.0, n_fine + 1)
    paths = sample_wiener_ensemble(t, 1, 100, seed=2)
    errs = []
    for n in (16, 64, 256, 1024):
        stride = n_fine // n
        part = t[::stride]
        qvs = [qv_estimate(SampledProcess(t, paths[p, 0]), part)
               for p in range(paths.shape[0])]
        errs.append(np.mean(np.abs(np.array(qvs) - 1.0)))
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_cross_qv_of_independent_wieners_is_small():
    n_fine = 1 << 11
    t = np.linspace(0.0, 1.0, n_fine + 1)
    paths = sample_wiener_ensemble(t, 2, 200, seed=5)
    vals = np.array([cross_qv(SampledProcess(t, paths[p, 0]),
                              SampledProcess(t, paths[p, 1]), t)
                     for p in range(paths.shape[0])])
    # mean 0, variance = sum dt^2 = 1/n
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se
    assert vals.var(ddof=1) == pytest.approx(1.0 / n_fine, rel=0.4)


def test_cross_qv_rejects_a_decreasing_partition():
    # unsorted, the products pair the wrong increments: 1.3617 against
    # 1.2396 on the sorted partition
    t = np.linspace(0.0, 1.0, 11)
    z = SampledProcess(t, np.sin(3 * t))
    with pytest.raises(ValueError, match="nondecreasing"):
        cross_qv(z, z, [0.0, 0.5, 0.2, 1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        qv_estimate(z, [0.0, 0.5, 0.2, 1.0])
    assert qv_estimate(z, [0.0, 0.2, 0.5, 1.0]) == pytest.approx(1.2396,
                                                                 abs=1e-4)


# ------------------------------------------------------------ partitions

def test_partition_scheme_example():
    s = partition_scheme(0.01, 1.0)
    assert s.m == 100
    assert s.delta == pytest.approx(0.01 ** (5.0 / 3.0))
    counts = s.counts()
    lower = 0.01 ** (-2.0 / 3.0)
    # interior blocks hold between delta_cap^{-2/3} and that plus one
    # fine increments (the last node is clipped to the block edge)
    assert np.all(counts >= math.floor(lower))
    assert np.all(counts <= math.ceil(lower) + 1)
    assert s.block_times[0] == 0.0 and s.block_times[-1] == 1.0
    for k in range(s.m):
        nodes = s.nodes[s.starts[k]:s.starts[k + 1] + 1]
        assert nodes[0] == s.block_times[k]
        assert nodes[-1] == s.block_times[k + 1]
        assert np.all(np.diff(nodes) > 0)


def test_partition_scheme_single_block_and_validation():
    s = partition_scheme(1.0, 1.0)
    assert s.m == 1
    with pytest.raises(ValueError):
        partition_scheme(2.0, 1.0)
    with pytest.raises(ValueError):
        partition_scheme(0.0, 1.0)


def test_partition_node_count_matches_scheme():
    for dc, horizon in [(0.02, 1.0), (0.0085, 1.0), (0.2, 1.0), (0.3, 1.0),
                        (1.0, 1.0), (0.07, 2.0), (0.5, 1.0), (0.03, 2.5),
                        (0.004, 1.0), (0.25, 0.7), (0.001, 1.0)]:
        want = len(partition_scheme(dc, horizon).nodes)
        assert partition_node_count(dc, horizon) == want, (dc, horizon)
    # at delta_cap = 0.001, t_k + M delta falls 4.3e-19 short of t_(k+1) in
    # 8 blocks; each block must still end on its block time, with no
    # sub-GRID_TOL step before it
    s = partition_scheme(0.001, 1.0)
    assert len(s.nodes) == 100_001
    assert np.array_equal(s.nodes[s.starts[1:]], s.block_times[1:])
    assert np.diff(s.nodes).min() > quadvar.GRID_TOL
    # the CLI's quadvar default grid at delta_cap = 1e-4, never built
    assert partition_node_count(1e-4, 1.0) == 4_650_001
    with pytest.raises(ValueError):
        partition_node_count(2.0, 1.0)
    # 3 * 0.3 rounds one ulp below 0.9; the last block still ends on it
    s = partition_scheme(0.3, 0.9)
    assert partition_node_count(0.3, 0.9) == len(s.nodes)
    assert s.block_times[-1] == s.nodes[-1] == 0.9


def test_partition_block_count_bound():
    for dc, T in [(0.03, 1.0), (0.07, 2.0), (0.5, 1.0)]:
        s = partition_scheme(dc, T)
        assert s.m <= T / dc + 1


# ------------------------------------------------------- Hoelder machinery

def test_holder_constant_exact_for_linear_function():
    t = np.linspace(0.0, 1.0, 101)
    # |s - r| / |s - r|^alpha maximized at the largest gap <= 1
    c = holder_constant(t, 2.0 * t, 0.5)
    assert c == pytest.approx(2.0, rel=1e-12)
    zero = holder_constant(t, np.ones_like(t), 0.5)
    assert zero == 0.0


def test_holder_constant_window_restriction():
    # pairs further apart than 1 are ignored
    t = np.linspace(0.0, 3.0, 301)
    v = np.zeros_like(t)
    v[-1] = 10.0  # jump at t=3; against t=2..3 only
    c_all = holder_constant(t, v, 0.25)
    assert c_all == pytest.approx(10.0 / 0.01 ** 0.25, rel=1e-9)


def _holder_cases():
    rng = np.random.default_rng(17)
    cases = []
    for n, alpha in [(2, 0.25), (300, 0.25), (701, 0.5)]:
        t = np.sort(rng.uniform(0.0, 2.5, n))
        v = np.cumsum(rng.standard_normal(n))
        cases.append(pytest.param(t, v, alpha, id=f"n{n}-alpha{alpha}"))
    t = rng.uniform(0.0, 2.5, 200)
    t[50] = t[120]
    v = np.cumsum(rng.standard_normal(200))
    cases.append(pytest.param(t, v, 0.25, id="unsorted-duplicate"))
    t = np.sort(rng.uniform(0.0, 2.5, 150))
    v = np.cumsum(rng.standard_normal((3, 4, 150)), axis=-1)
    cases.append(pytest.param(t, v, 0.25, id="batch-3x4"))
    return cases


def _assert_exceeds_matches(t, v, alpha, constants):
    """holder_exceeds against constants > level at each series' own
    constant, the float just below it, 0, a level above every constant and
    a negative one."""
    c = np.unique(constants)
    for level in [*c, *np.nextafter(c, -np.inf), 0.0, c.max() + 1.0, -1.0]:
        got = holder_exceeds(t, v, alpha, level)
        assert isinstance(got, bool) if v.ndim == 1 else got.dtype == bool
        assert np.array_equal(got, constants > level), level


@pytest.mark.parametrize("t, v, alpha", _holder_cases())
def test_holder_constant_block_scan_matches_dense(t, v, alpha):
    got = holder_constant(t, v, alpha)
    if v.ndim == 1:
        assert isinstance(got, float)
    assert np.shape(got) == v.shape[:-1]
    for idx in np.ndindex(v.shape[:-1]):
        series = v[idx]
        # dense oracle: every pair at once
        dtmat = np.abs(t[:, None] - t[None, :])
        mask = (dtmat > 0.0) & (dtmat <= 1.0 + quadvar.GRID_TOL)
        dv = np.abs(series[:, None] - series[None, :])
        want = np.max(np.where(mask, dv / np.where(mask, dtmat, 1.0) ** alpha,
                               0.0))
        assert np.asarray(got)[idx] == want
    _assert_exceeds_matches(t, v, alpha, got)


def _dense_holder(t, series, alpha):
    """Every pair at once, as in the block-scan oracle test above."""
    dtmat = np.abs(t[:, None] - t[None, :])
    mask = (dtmat > 0.0) & (dtmat <= 1.0 + quadvar.GRID_TOL)
    dv = np.abs(series[:, None] - series[None, :])
    return np.max(np.where(mask, dv / np.where(mask, dtmat, 1.0) ** alpha,
                           0.0))


@st.composite
def holder_inputs(draw):
    """Unsorted times with duplicates over spans up to 3, shaped series."""
    n = draw(st.integers(2, 70))
    grid = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=n))
    t = np.array(draw(st.lists(st.sampled_from(grid), min_size=n,
                               max_size=n)))
    lead = draw(st.sampled_from([(), (3,), (2, 2)]))
    kind = draw(st.sampled_from(["constant", "ramp", "spike", "noise"]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "constant":
        v = np.full(lead + (n,), gen.standard_normal())
    elif kind == "ramp":
        v = gen.standard_normal(lead + (1,)) * t
    elif kind == "spike":
        v = np.zeros(lead + (n,))
        v[..., gen.integers(n)] = gen.standard_normal()
    else:
        v = gen.standard_normal(lead + (n,))
    return t, v, draw(st.sampled_from([0.25, 0.5, 1.0]))


@given(holder_inputs())
def test_holder_constant_equals_dense_oracle(case):
    t, v, alpha = case
    got = holder_constant(t, v, alpha)
    assert np.shape(got) == v.shape[:-1]
    for idx in np.ndindex(v.shape[:-1]):
        assert np.asarray(got)[idx] == _dense_holder(t, v[idx], alpha)
    _assert_exceeds_matches(t, v, alpha, got)


def test_holder_constant_keeps_a_max_that_beats_the_seed_by_an_ulp():
    # The max is (15, 16), across two blocks, and the seed misses it: block
    # 0's argmin is node 0. The seed's best, (40, 41), has a gap one ulp
    # wider, so the (0, 1) bound beats it only by rounding and must not be
    # pruned.
    t = np.arange(48) / 47.0
    assert t[41] - t[40] > t[16] - t[15]
    v = np.full(48, 0.5)
    v[[0, 15, 40]] = 0.0
    v[[16, 41]] = 1.0
    got = holder_constant(t, v, 0.25)
    assert got == 1.0 / (t[16] - t[15]) ** 0.25 == _dense_holder(t, v, 0.25)
    assert got > 1.0 / (t[41] - t[40]) ** 0.25
    # at the seed's level only the bounds and tiles can find (15, 16)
    assert holder_exceeds(t, v, 0.25, 1.0 / (t[41] - t[40]) ** 0.25)
    assert not holder_exceeds(t, v, 0.25, got)


def test_holder_constant_trivial_inputs():
    t = np.linspace(0.0, 1.0, 701)
    for n in (701, 1, 2):
        got = holder_constant(t[:n], np.zeros((0, 2, n)), 0.25)
        assert got.shape == (0, 2) and got.dtype == np.float64
    one = holder_constant(t[:1], np.ones((3, 2, 1)), 0.25)
    assert one.shape == (3, 2) and one.dtype == np.float64
    assert not one.any()
    assert holder_constant(t[:1], np.ones(1), 0.25) == 0.0
    assert isinstance(holder_constant(t[:1], np.ones(1), 0.25), float)
    two = holder_constant(t[:2], np.array([0.0, 1.0]), 0.5)
    assert two == 1.0 / t[1] ** 0.5
    with pytest.raises(ValueError):
        holder_constant(t, np.zeros(701), -0.25)
    with pytest.raises(ValueError):
        holder_constant(t[:2], np.zeros((0, 2, 701)), 0.25)
    # the decision on the same inputs, at levels below, at and above 0
    for n in (701, 1, 2):
        got = holder_exceeds(t[:n], np.zeros((0, 2, n)), 0.25, 1.0)
        assert got.shape == (0, 2) and got.dtype == bool
    assert not holder_exceeds(t[:1], np.ones((3, 2, 1)), 0.25, 0.0).any()
    assert holder_exceeds(t[:1], np.ones((3, 2, 1)), 0.25, -1.0).all()
    assert holder_exceeds(t[:1], np.ones(1), 0.25, 0.0) is False
    assert holder_exceeds(t[:2], np.array([0.0, 1.0]), 0.5, 1) is True
    with pytest.raises(ValueError):
        holder_exceeds(t[:2], np.zeros((0, 2, 701)), 0.25, 1.0)


def _lag_holder(t, v, alpha):
    """The dense scan lag by lag in O(N) memory: each pair's float as above."""
    best = np.zeros(v.shape[:-1])
    for d in range(1, len(t)):
        dt = t[d:] - t[:-d]
        mask = (dt > 0.0) & (dt <= 1.0 + quadvar.GRID_TOL)
        dv = np.abs(v[..., d:] - v[..., :-d])
        ratios = np.where(mask, dv / np.where(mask, dt, 1.0) ** alpha, 0.0)
        np.maximum(best, ratios.max(axis=-1), out=best)
    return best


def test_holder_constant_chunked_scan_matches_lag_scan():
    # 2942 sorted nodes split the seed, the block rows and the scored tiles
    # into many chunks each
    t = partition_scheme(0.0085, 1.0).nodes
    v = np.stack([sample_wiener_ensemble(t, 3, 1, seed=8)[0],
                  np.random.default_rng(8).standard_normal((3, len(t)))])
    assert np.array_equal(holder_constant(t, v, 0.25), _lag_holder(t, v, 0.25))
    # one spike per series, in every block row in turn: its max pairs lie
    # off the seed, and only pairs with the spike are nonzero
    spikes = np.arange(5, len(t), quadvar.HOLDER_BLOCK)
    v = np.zeros((len(spikes), len(t)))
    v[np.arange(len(spikes)), spikes] = np.linspace(1.0, 2.0, len(spikes))
    dt = np.abs(t[None, :] - t[spikes, None])   # the dense rows of the spikes
    mask = (dt > 0.0) & (dt <= 1.0 + quadvar.GRID_TOL)
    dv = np.abs(v - v[np.arange(len(spikes)), spikes, None])
    want = np.where(mask, dv / np.where(mask, dt, 1.0) ** 0.25,
                    0.0).max(axis=1)
    assert np.array_equal(holder_constant(t, v, 0.25), want)


def test_holder_constant_memory_is_bounded():
    t = partition_scheme(0.0085, 1.0).nodes
    assert len(t) == 2942
    v = sample_wiener_ensemble(t, 1, 1, seed=3)[0, 0]
    peak = traced_peak(holder_constant, t, v, 0.25)
    assert peak < 32 * 2 ** 20      # a dense N x N scan peaks near 272 MiB


def test_holder_constant_batched_memory_is_bounded():
    t = partition_scheme(0.0085, 1.0).nodes
    paths = sample_wiener_ensemble(t, 2, 50, seed=3)
    peak = traced_peak(holder_constant, t, paths, 0.25)
    assert peak <= 8 * paths.nbytes     # O(N) per series, not per pair
    _assert_decision_memory_is_bounded(t, paths)


def _assert_decision_memory_is_bounded(t, paths):
    """At the median constant the seed decides some series and leaves the
    rest to the bounds and tiles, which copy their values."""
    level = np.median(holder_constant(t, paths, 0.25))
    peak = traced_peak(holder_exceeds, t, paths, 0.25, level)
    assert peak <= 8 * paths.nbytes


@pytest.mark.parametrize("delta_cap, batch", [(0.0085, (50, 2)), (0.003, ())],
                         ids=["50x2-paths", "one-long-series"])
def test_holder_constant_iid_noise_memory_is_bounded(delta_cap, batch):
    # iid values give every block a wide range, so the fewest pairs prune;
    # a single series on 16,335 nodes has far more block pairs than nodes,
    # so no temporary may hold one entry per pair of blocks
    t = partition_scheme(delta_cap, 1.0).nodes
    paths = np.random.default_rng(3).standard_normal(batch + (len(t),))
    peak = traced_peak(holder_constant, t, paths, 0.25)
    assert peak <= 8 * paths.nbytes
    _assert_decision_memory_is_bounded(t, paths)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -0.25])
@pytest.mark.parametrize("scan", [
    holder_constant, lambda t, v, alpha: holder_exceeds(t, v, alpha, 1.0)],
    ids=["constant", "exceeds"])
def test_holder_alpha_must_be_finite_and_nonnegative(scan, alpha):
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="alpha"):
        scan(t, np.cumsum(np.ones((2, 11)), axis=-1), alpha)


# ------------------------------------------------------------ bad events

def test_event_frequencies_shapes_and_bounds():
    s = partition_scheme(0.2, 1.0)
    t = s.nodes
    paths = sample_wiener_ensemble(t, 2, 50, seed=9)
    f = event_frequencies(paths, s)
    assert f.n_paths == 50
    for freq, ci in [(f.freq_a, f.ci_a), (f.freq_b, f.ci_b),
                     (f.freq_c, f.ci_c)]:
        assert 0.0 <= ci[0] <= freq <= ci[1] <= 1.0
    assert f.bound_a == pytest.approx(omega_a_bound(0.2, 1.0, 2))
    assert f.bound_b == pytest.approx(omega_b_bound(0.2, 1.0, 2))


def test_event_b_impossible_with_single_process():
    s = partition_scheme(0.2, 1.0)
    t = s.nodes
    paths = sample_wiener_ensemble(t, 1, 30, seed=10)
    f = event_frequencies(paths, s)
    assert f.freq_b == 0.0


def test_event_c_is_max_of_sup_and_holder():
    s = partition_scheme(0.3, 1.0)
    t = s.nodes
    paths = sample_wiener_ensemble(t, 1, 30, seed=12)
    f = event_frequencies(paths, s)
    thresh = 0.3 ** (-1.0 / 28.0)
    sup = np.array([np.max(np.abs(w)) > thresh for w in paths[:, 0]])
    want = np.array([max(np.max(np.abs(w)), holder_constant(t, w, 0.25))
                     > thresh for w in paths[:, 0]])
    assert 0.0 < f.freq_c < 1.0
    assert np.any(want & ~sup)      # some paths are decided by the scan
    assert f.freq_c == want.mean()


def test_event_c_on_two_processes_matches_per_path_reference():
    # a path has event c when either process does; the scan decides it on
    # the processes whose sup norm leaves it open
    s = partition_scheme(0.5, 1.0)
    t = s.nodes
    paths = sample_wiener_ensemble(t, 2, 30, seed=13)
    thresh = 0.5 ** (-1.0 / 28.0)
    sup = np.array([max(np.max(np.abs(w)) for w in path) > thresh
                    for path in paths])
    want = np.array([max(max(np.max(np.abs(w)), holder_constant(t, w, 0.25))
                         for w in path) > thresh for path in paths])
    assert 0.0 < want.mean() < 1.0
    assert np.any(want & ~sup)
    assert event_frequencies(paths, s, "c").freq_c == want.mean()
    got = [event_frequencies(paths[p:p + 1], s, "c").freq_c
           for p in range(len(paths))]
    assert np.array_equal(got, want)


def test_event_selection_skips_work():
    s = partition_scheme(0.2, 1.0)
    t = s.nodes
    paths = sample_wiener_ensemble(t, 2, 20, seed=11)
    f = event_frequencies(paths, s, events="ab")
    assert f.freq_c == 0.0 and f.ci_c == (0.0, 1.0)
    full = event_frequencies(paths, s)
    assert f.freq_a == full.freq_a and f.freq_b == full.freq_b


def _block_loop_hits(paths, scheme, events, blocks=None):
    """Per-path a and b indicators, one block slice at a time: the reference
    for the run pass of event_frequencies, over the first `blocks` blocks
    (all by default)."""
    n_paths, n_proc, _ = paths.shape
    times = scheme.nodes
    thresh_b = scheme.delta_cap ** (3.0 / 14.0) / (3.0 * n_proc ** 2)
    hit_a = np.zeros(n_paths, dtype=bool)
    hit_b = np.zeros(n_paths, dtype=bool)
    iu = np.triu_indices(n_proc, k=1)
    for k in range(blocks or scheme.m):
        pos = slice(scheme.starts[k], scheme.starts[k + 1] + 1)
        dt = np.diff(times[pos])
        incr = np.diff(paths[:, :, pos], axis=2) / np.sqrt(dt)
        if "a" in events:
            qa = np.mean(incr ** 2, axis=2)       # (n_paths, N)
            hit_a |= np.any(qa <= 0.5, axis=1)
        if "b" in events and n_proc > 1:
            cross = np.abs(np.einsum("pit,pjt->pij", incr, incr)) / len(dt)
            hit_b |= np.any(cross[:, iu[0], iu[1]] >= thresh_b, axis=1)
    return hit_a, hit_b


@pytest.mark.parametrize("events", ["a", "b", "ab"])
@pytest.mark.parametrize("one_block_runs", [False, True],
                         ids=["default-runs", "one-block-runs"])
@pytest.mark.parametrize("delta_cap, horizon, n_proc, n_paths", [
    (0.5, 0.5, 2, 200), (0.5, 0.5, 1, 200), (0.3, 1.0, 2, 200),
    (0.5, 1.0, 3, 200), (0.0085, 0.3, 2, 100),
    pytest.param(0.5, 1.0, 20, 110, id="decided-in-the-first-run")])
def test_event_ab_runs_match_block_loop(delta_cap, horizon, n_proc, n_paths,
                                        one_block_runs, events, monkeypatch):
    # on a one-path slice each frequency is that path's indicator
    if one_block_runs:
        monkeypatch.setattr(quadvar, "_RUN_VALUES", 1)
    s = partition_scheme(delta_cap, horizon)
    paths = sample_wiener_ensemble(s.nodes, n_proc, n_paths, seed=1)
    want_a, want_b = _block_loop_hits(paths, s, events)
    got = [event_frequencies(paths[p:p + 1], s, events)
           for p in range(n_paths)]
    assert np.array_equal([f.freq_a for f in got], want_a)
    assert np.array_equal([f.freq_b for f in got], want_b)
    whole = event_frequencies(paths, s, events)
    assert (whole.freq_a, whole.freq_b) == (want_a.mean(), want_b.mean())
    if n_proc < 20:
        # some path never has event a, so the pass runs to the last block
        assert 0.0 < _block_loop_hits(paths, s, "a")[0].mean() < 1.0
        return
    # 20 processes: block 0 decides every path, and a run holds fewer than
    # two blocks' products, so the pass must stop after block 0; inf - inf
    # past it would raise
    first_a, first_b = _block_loop_hits(paths, s, events, blocks=1)
    pairs = n_proc * (n_proc + 1) // 2 if "b" in events else n_proc
    assert quadvar._RUN_VALUES < 2 * n_paths * pairs * s.counts().max()
    assert first_a.all() == ("a" in events)
    assert first_b.all() == ("b" in events)
    paths[:, :, s.starts[1] + 1:] = np.inf
    with np.errstate(invalid="raise"):
        whole = event_frequencies(paths, s, events)
    assert (whole.freq_a, whole.freq_b) == (want_a.mean(), want_b.mean())


@pytest.mark.parametrize("delta_cap, n_paths, share", [
    (0.003, 50, 1 / 8),     # 12.8 MB: no temporary spans the ensemble
    (0.2, 10_000, 2)])      # one block holds more than a run's budget
def test_event_ab_memory_is_bounded(delta_cap, n_paths, share):
    s = partition_scheme(delta_cap, 1.0)
    paths = sample_wiener_ensemble(s.nodes, 2, n_paths, seed=3)
    peak = traced_peak(event_frequencies, paths, s, "ab")
    assert peak <= share * paths.nbytes


def test_event_a_alone_forms_only_the_diagonal_products():
    # 1,000 processes have 500,500 pairs, but event a reads only the 1,000
    # products of each process with itself (27 MiB against 0.11 MiB)
    s = partition_scheme(0.5, 1.0)
    paths = sample_wiener_ensemble(s.nodes, 1000, 1, seed=5)
    alone = event_frequencies(paths, s, "a")
    for events in ("ab", "abc"):
        full = event_frequencies(paths, s, events)
        assert (alone.freq_a, alone.ci_a) == (full.freq_a, full.ci_a)
    peak = traced_peak(event_frequencies, paths, s, "a")
    assert peak <= 4 * paths.nbytes


@pytest.mark.parametrize("delta_cap, n_proc, n_paths", [
    (0.5, 400, 2), (0.2, 150, 3), (0.02, 60, 10)])
def test_ensemble_bytes_bounds_the_sampling_and_ab_peak(delta_cap, n_proc,
                                                        n_paths):
    # when one block's pair products fill a run, the estimate bounds the
    # traced peak of sampling and the a/b pass from above, within 20%
    s = partition_scheme(delta_cap, 1.0)

    def sample_and_pass():
        event_frequencies(sample_wiener_ensemble(s.nodes, n_proc, n_paths),
                          s, "ab")

    peak = traced_peak(sample_and_pass)
    want = ensemble_bytes(delta_cap, 1.0, n_proc, n_paths)
    assert peak <= want <= 1.2 * peak


@pytest.mark.parametrize("delta_cap, n_proc, n_paths", [
    (0.02, 5, 2),           # 19 blocks a run
    (0.0015, 1, 2),         # 53 blocks a run
    (0.02, 60, 10)])        # one block fills a run
def test_ab_bytes_bounds_the_ab_pass_of_a_whole_run(delta_cap, n_proc,
                                                    n_paths):
    # a run of blocks frees its increments and products before the next;
    # scaled down, event b never decides and every run is made
    s = partition_scheme(delta_cap, 1.0)
    ab = quadvar._ab_bytes(delta_cap, 1.0, n_proc, n_paths)
    for scale in (1.0, 1e-3):
        paths = scale * sample_wiener_ensemble(s.nodes, n_proc, n_paths)
        event_frequencies(paths, s, "ab")   # warm-up: first-call allocations
        peak = traced_peak(event_frequencies, paths, s, "ab")
        assert peak <= ab <= 2 * peak


@pytest.mark.parametrize("delta_cap, n_proc, n_paths, scale", [
    (0.02, 2, 200, 100.0),      # the sup norm decides every path
    (0.02, 2, 200, 1.0),        # it leaves about a quarter open
    (0.02, 1, 400, 1.0),        # about half
    (0.5, 1, 3000, 1.0),        # 5 nodes pad to 16 per series
    (0.003, 2, 3, 1.0),         # 16,335 nodes, two paths a group
    (0.02, 2, 200, 1e-3),       # scaled down: every path is open
    (0.0015, 1, 2, 1e-3),       # 51,334 nodes, one path a group
    (0.5, 40, 10, 1e-3)])
def test_ensemble_bytes_bounds_the_sampling_and_three_event_peak(
        delta_cap, n_proc, n_paths, scale):
    # the a/b pass frees its temporaries before event c, which scans the
    # open paths a group at a time; the estimate counts the larger pass
    s = partition_scheme(delta_cap, 1.0)

    def sample_and_pass():
        paths = sample_wiener_ensemble(s.nodes, n_proc, n_paths)
        paths *= scale
        event_frequencies(paths, s)

    sample_and_pass()   # warm-up: numpy's first-call allocations
    peak = traced_peak(sample_and_pass)
    assert peak <= ensemble_bytes(delta_cap, 1.0, n_proc, n_paths)


def test_omega_bound_values():
    # pinned desk-scale values of the analytic bounds
    assert omega_a_bound(0.04, 1.0, 2) == pytest.approx(12.58, abs=0.01)
    b = omega_b_bound(0.04, 1.0, 2)
    assert b == pytest.approx(6 * 4 / 0.04 * math.exp(-0.04 ** (-19 / 42) / 12))


# ------------------------------------------------------- chi-square tails

def test_chi_square_cdf_against_closed_forms():
    # dof 2 is an exponential: P = 1 - e^{-x/2}
    for x in (0.1, 1.0, 3.0, 10.0):
        assert chi_square_cdf(x, 2) == pytest.approx(1 - math.exp(-x / 2),
                                                     abs=1e-12)
    # dof 1: P = erf(sqrt(x/2)); the density's endpoint singularity limits
    # the quadrature to ~1e-9 there
    for x in (0.5, 2.0, 6.0):
        assert chi_square_cdf(x, 1) == pytest.approx(math.erf(math.sqrt(x / 2)),
                                                     abs=1e-8)
    assert chi_square_cdf(-1.0, 4) == 0.0


def test_chi_square_cdf_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof in (1, 2, 5, 50, 200):
        for x in (0.3 * dof, dof, 2.0 * dof):
            assert chi_square_cdf(x, dof) == pytest.approx(
                float(scipy_stats.chi2.cdf(x, dof)), abs=1e-8)


def test_chi_square_cdf_series_to_rel_1e12():
    scipy_stats = pytest.importorskip("scipy.stats")
    smallest = 1.0
    for dof in (1, 2, 3, 5, 50, 200, 1000):
        for ratio in (0.05, 0.3, 1.0, 2.0, 5.0):
            x = ratio * dof
            want = float(scipy_stats.chi2.cdf(x, dof))
            got = chi_square_cdf(x, dof)
            assert abs(got - want) <= 1e-12 * want, (dof, x, got, want)
            if want > 0.0:
                smallest = min(smallest, want)
    assert smallest < 1e-40     # the relative bound holds deep in the tail
    assert chi_square_cdf(1e5, 2) == 1.0


def test_small_ball_bound_pinned_values():
    # c = 0.5, M = 100: gamma = c - 1 - ln c, bound = e^{-gamma M/2}/sqrt(pi M)
    small, cross = chi_square_small_ball_bound(0.5, 100)
    gamma = 0.5 - 1.0 - math.log(0.5)
    assert small == pytest.approx(
        math.exp(-50 * gamma) / math.sqrt(100 * math.pi), rel=1e-12)
    assert small == pytest.approx(3.62e-6, rel=0.01)
    assert cross == pytest.approx(2 * math.exp(-0.25 * 0.25 * 100), rel=1e-12)
    assert cross == pytest.approx(3.86e-3, rel=0.01)


def test_small_ball_bound_domain():
    with pytest.raises(ValueError):
        chi_square_small_ball_bound(1.5, 100)
    with pytest.raises(ValueError):
        chi_square_small_ball_bound(0.9, 10)   # M <= 2/(1-c)
    with pytest.raises(ValueError):
        chi_square_small_ball_bound_corrected(0.0, 100)


def test_corrected_bound_dominates_exact_cdf():
    # The corrected prefactor sqrt(M/(4 pi)) provably dominates the CDF;
    # the uncorrected literature constant does not (acceptance 10 asserts
    # that the CDF exceeds it by an analytic sandwich factor).
    for c in (0.3, 0.5, 0.7):
        for m in (50, 100, 200):
            exact = chi_square_cdf(c * m, m)
            assert exact <= chi_square_small_ball_bound_corrected(c, m)


def test_corrected_vs_literature_ratio_is_m_over_two():
    # the two prefactors differ by exactly M/2
    for c in (0.3, 0.6):
        m = 120
        small, _ = chi_square_small_ball_bound(c, m)
        corr = chi_square_small_ball_bound_corrected(c, m)
        assert corr / small == pytest.approx(m / 2.0, rel=1e-12)


# ------------------------------------------------------- Hoelder transfer

def test_holder_transfer_near_extremal_family():
    # G(s) = eps * sin(s / eps^((1+gamma)/(1+alpha))): the derivative has
    # sup exactly eps^((alpha-gamma)/(1+alpha)), the stated bound's rate.
    alpha, gamma = 0.5, 0.25
    for eps in (1e-2, 1e-3):
        scale = eps ** ((1 + gamma) / (1 + alpha))
        t = np.linspace(0.0, 1.0, 4001)
        h = eps / scale * np.cos(t / scale)
        rep = holder_transfer(SampledProcess(t, h), alpha, gamma, eps)
        assert rep.premise_sup_ok            # sup|G| <= eps by construction
        assert rep.conclusion_sup_ok
        rate = eps ** ((alpha - gamma) / (1 + alpha))
        assert rep.sup_h == pytest.approx(rate, rel=1e-3)
        assert rep.bound_sup >= rep.sup_h


def test_holder_transfer_integral_variant():
    alpha, gamma, eps, ell = 0.5, 0.25, 1e-3, 1.0
    t = np.linspace(0.0, 1.0, 2001)
    g = 0.5 * eps * np.sin(40 * t)          # int |g| < eps, small sup
    rep = holder_transfer(SampledProcess(t, g), alpha, gamma, eps, ell)
    assert rep.premise_integral_ok
    assert rep.conclusion_integral_ok
    assert rep.sup_h < rep.bound_integral


def test_holder_transfer_vacuous_when_premise_fails():
    t = np.linspace(0.0, 1.0, 501)
    rep = holder_transfer(SampledProcess(t, 5.0 + t), 0.5, 0.25, 1e-4)
    assert not rep.premise_sup_ok and rep.conclusion_sup_ok
    assert not rep.premise_integral_ok and rep.conclusion_integral_ok


def test_holder_transfer_validation():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        holder_transfer(SampledProcess(t, t), 0.25, 0.5, 1e-3)
    with pytest.raises(ValueError):
        holder_transfer(SampledProcess(t, t), 0.5, 0.25, -1.0)


# --------------------------------------------------------------- cascade

def test_cascade_table_exponents():
    rows = cascade_table(1e-3, 3, 1.0, 2)
    assert [r["level"] for r in rows] == [1, 2, 3]
    assert rows[0]["exponent"] == pytest.approx(CASCADE_RATIO)
    assert rows[1]["exponent"] == pytest.approx(CASCADE_RATIO ** 2)
    for r in rows:
        assert r["inner_eps"] == pytest.approx(1e-3 ** r["exponent"])
        assert r["delta_cap"] == pytest.approx(r["inner_eps"] ** BLOCK_EXPONENT)
        assert r["bound_a"] >= 0.0 and r["bound_b"] >= 0.0
    assert CASCADE_RATIO == pytest.approx(1.0 / 152.0)
    assert BLOCK_EXPONENT == pytest.approx(14.0 / 75.0)
    with pytest.raises(ValueError):
        cascade_table(2.0, 2, 1.0, 2)


# -------------------------------------------------------------- sampling

def test_wiener_ensemble_statistics_and_reproducibility():
    t = np.linspace(0.0, 1.0, 201)
    a = sample_wiener_ensemble(t, 2, 50, seed=4)
    b = sample_wiener_ensemble(t, 2, 50, seed=4)
    assert np.array_equal(a, b)
    c = sample_wiener_ensemble(t, 2, 50, seed=5)
    assert not np.array_equal(a, c)
    # terminal variance ~ 1
    var = a[:, :, -1].var()
    assert 0.6 < var < 1.6
    with pytest.raises(ValueError):
        sample_wiener_ensemble(np.array([0.1, 0.2]), 1, 1)
