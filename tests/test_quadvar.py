"""Quadratic variation toolkit: partitions, estimators, tail bounds."""
import math
import tracemalloc

import numpy as np
import pytest

from vortexlab import quadvar
from vortexlab.quadvar import (BLOCK_EXPONENT, CASCADE_RATIO, SampledProcess,
                               cascade_table, chi_square_cdf,
                               chi_square_small_ball_bound,
                               chi_square_small_ball_bound_corrected,
                               cross_qv, event_frequencies, holder_constant,
                               holder_transfer, omega_a_bound, omega_b_bound,
                               partition_scheme, qv_estimate,
                               sample_wiener_ensemble)


# ----------------------------------------------------- sampled processes

def test_sampled_process_validates_grid():
    t = np.linspace(0.0, 1.0, 11)
    sp = SampledProcess(t, t ** 2)
    assert sp.grid_index(0.3) == 3
    with pytest.raises(ValueError):
        sp.grid_index(0.35)
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
    for k, nodes in enumerate(s.block_nodes):
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


def test_holder_constant_memory_is_bounded():
    t = partition_scheme(0.0085, 1.0).all_nodes()
    assert len(t) == 2942
    v = sample_wiener_ensemble(t, 1, 1, seed=3)[0, 0]
    tracemalloc.start()
    try:
        holder_constant(t, v, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20      # a dense N x N scan peaks near 272 MiB


def test_holder_constant_batched_memory_is_bounded():
    t = partition_scheme(0.0085, 1.0).all_nodes()
    paths = sample_wiener_ensemble(t, 2, 50, seed=3)
    tracemalloc.start()
    try:
        holder_constant(t, paths, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * paths.nbytes     # O(N) per series, not per pair


# ------------------------------------------------------------ bad events

def test_event_frequencies_shapes_and_bounds():
    s = partition_scheme(0.2, 1.0)
    t = s.all_nodes()
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
    t = s.all_nodes()
    paths = sample_wiener_ensemble(t, 1, 30, seed=10)
    f = event_frequencies(paths, s)
    assert f.freq_b == 0.0


def test_event_c_is_max_of_sup_and_holder():
    s = partition_scheme(0.3, 1.0)
    t = s.all_nodes()
    paths = sample_wiener_ensemble(t, 1, 30, seed=12)
    f = event_frequencies(paths, s)
    thresh = 0.3 ** (-1.0 / 28.0)
    sup = np.array([np.max(np.abs(w)) > thresh for w in paths[:, 0]])
    want = np.array([max(np.max(np.abs(w)), holder_constant(t, w, 0.25))
                     > thresh for w in paths[:, 0]])
    assert 0.0 < f.freq_c < 1.0
    assert np.any(want & ~sup)      # some paths are decided by the scan
    assert f.freq_c == want.mean()


def test_event_selection_skips_work():
    s = partition_scheme(0.2, 1.0)
    t = s.all_nodes()
    paths = sample_wiener_ensemble(t, 2, 20, seed=11)
    f = event_frequencies(paths, s, events="ab")
    assert f.freq_c == 0.0 and f.ci_c == (0.0, 1.0)
    full = event_frequencies(paths, s)
    assert f.freq_a == full.freq_a and f.freq_b == full.freq_b


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
