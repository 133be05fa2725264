"""Two-scale partitions, quadratic-variation estimators and tail bounds.

The estimator recovers sum_i int Y_i^2 ds from squared increments of
Z = X + sum_i Y_i W_i along refining partitions, without adaptedness of the
coefficient processes. The companion machinery (coarse blocks of width Delta
subdivided at delta = Delta^(5/3), the small-ball events on the subdivided
increments, chi-square tails, Hoelder transfer inequalities) quantifies when
the finite-sample estimate is trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng

GRID_TOL = 1e-9
_RUN_VALUES = 2 ** 13    # a/b products per run; 2**14 grew peak RSS
_SCAN_VALUES = 2 ** 16   # padded values per event-c Hoelder scan


@dataclass
class SampledProcess:
    """A real process recorded on a uniform grid over [0, T]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if len(self.times) < 2:
            raise ValueError("need at least two nodes")
        steps = np.diff(self.times)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=GRID_TOL):
            raise ValueError("time grid must be uniform")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def grid_index(self, t):
        """Grid index of a time, or an index array for an array of times."""
        t = np.asarray(t, dtype=float)
        dt = self.times[1] - self.times[0]
        i = np.rint((t - self.times[0]) / dt).astype(int)
        off = (i < 0) | (i >= len(self.times))
        if not off.any():
            off = np.abs(self.times[i] - t) > GRID_TOL
        if off.any():
            raise ValueError(f"time {t[off][0]} is not on the sample grid")
        return int(i) if i.ndim == 0 else i


def qv_estimate(z: SampledProcess, partition) -> float:
    """Sum of squared increments of z over the given partition times."""
    return cross_qv(z, z, partition)


def cross_qv(z1: SampledProcess, z2: SampledProcess, partition) -> float:
    """Sum of increment products of two processes over a shared partition."""
    i1, i2 = z1.grid_index(partition), z2.grid_index(partition)
    if np.any(np.diff(i1) < 0):
        raise ValueError("partition times must be nondecreasing")
    return float(np.sum(np.diff(z1.values[i1]) * np.diff(z2.values[i2])))


@dataclass
class PartitionScheme:
    """Blocks of width delta_cap subdivided at delta = delta_cap^(5/3)."""

    delta_cap: float                # coarse block width
    delta: float                    # fine subdivision width
    horizon: float
    block_times: np.ndarray         # t_0 .. t_m, t_m = horizon
    m: int                          # number of blocks
    nodes: np.ndarray               # sorted node union s_0(0) .. s_M(m-1)
    starts: np.ndarray              # block k is nodes[starts[k]:starts[k+1]+1]

    def counts(self) -> np.ndarray:
        """M(k) per block: number of fine increments inside block k."""
        return np.diff(self.starts)


def _block_counts(delta_cap: float, horizon: float):
    """(delta, m, steps per full block, steps in the last block)."""
    if not GRID_TOL < delta_cap <= horizon:
        raise ValueError("need GRID_TOL < delta_cap <= horizon")
    delta = delta_cap ** (5.0 / 3.0)
    m = math.ceil((horizon - GRID_TOL) / delta_cap)
    last = horizon - (m - 1) * delta_cap
    return (delta, m, math.ceil((delta_cap - GRID_TOL) / delta),
            math.ceil((last - GRID_TOL) / delta))


def partition_scheme(delta_cap: float, horizon: float) -> PartitionScheme:
    """Block k holds t_k + l delta for l < M(k), then ends on t_(k+1)."""
    delta, m, full, last = _block_counts(delta_cap, horizon)
    block_times = np.append(np.arange(m) * delta_cap, horizon)
    nodes = np.concatenate([
        (block_times[:-2, None] + np.arange(full) * delta).ravel(),
        block_times[-2] + np.arange(last) * delta, block_times[-1:]])
    starts = np.append(np.arange(m) * full, (m - 1) * full + last)
    return PartitionScheme(delta_cap, delta, horizon, block_times, m, nodes,
                           starts)


def partition_node_count(delta_cap: float, horizon: float) -> int:
    """len(partition_scheme(delta_cap, horizon).nodes), from the same block
    counts and without building the partition."""
    _, m, full, last = _block_counts(delta_cap, horizon)
    return 1 + (m - 1) * full + last


def _ab_bytes(delta_cap: float, horizon: float, n_processes: int,
              n_paths: int) -> int:
    """Peak of event_frequencies' a/b pass: the pair indices and masks, then
    per run 2 time arrays and per block of it 2 increments per process, 2
    products and a mean per pair; 8 KiB for the rest."""
    _, m, full, _ = _block_counts(delta_cap, horizon)
    pairs = n_processes * (n_processes + 1) // 2    # triu_indices, 2 masks
    run = min(m, max(1, _RUN_VALUES // (n_paths * pairs * full)))  # blocks
    return 2 ** 13 + 18 * pairs + 8 * run * (
        2 * full + n_paths * (2 * full * n_processes + pairs * (2 * full + 1)))


def ensemble_bytes(delta_cap: float, horizon: float, n_processes: int,
                   n_paths: int) -> int:
    """The Wiener ensemble's bytes plus the larger peak of the event passes,
    which run one after the other; event c's also covers the sampling. Event
    c holds 3 extremes per process and 2 flags per path, then scans a group
    of open paths: its copy, padded and kept copies, 4 padded time arrays
    and 8 seed temporaries of a quarter group (at least 2**12 values each)."""
    n_times = partition_node_count(delta_cap, horizon)
    pad = -(-n_times // HOLDER_BLOCK) * HOLDER_BLOCK
    group = min(n_paths, max(1, _SCAN_VALUES // (n_processes * pad)))
    group *= n_processes * pad
    c = 8 * (n_paths * (3 * n_processes + 2) + 3 * group + 4 * pad
             + 8 * max(group // 4, 2 ** 12))
    return 8 * n_paths * n_processes * n_times + max(
        _ab_bytes(delta_cap, horizon, n_processes, n_paths), c)


def sample_wiener_ensemble(times, n_processes: int, n_paths: int,
                           seed: int = 0) -> np.ndarray:
    """Exact Wiener samples at the given times, shape (n_paths, N, n_times).

    Path p is rng.normals(seed, rng.WIENER, [p], ...)'s one block, so any path
    can be regenerated in isolation.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and increase")
    sd = np.sqrt(np.diff(times))
    out = np.zeros((n_paths, n_processes, len(times)))
    for p, xi in enumerate(rng.normals(seed, rng.WIENER, range(n_paths),
                                       (len(sd), n_processes))):
        out[p, :, 1:] = np.cumsum(sd[:, None] * xi, axis=0).T
    return out


HOLDER_BLOCK = 16
"""Sorted nodes per block of the Hoelder scan (8 and 32 measured slower)."""

_POW_MARGIN = 1.0 + 1e-12    # covers libm pow rounding in the block bounds


def _ratios(dv, dt, alpha):
    """|dv| / dt^alpha where 0 < dt <= 1, else 0: the dense scan's floats."""
    mask = (dt > 0.0) & (dt <= 1.0 + GRID_TOL)
    return np.where(mask, dv / np.where(mask, dt, 1.0) ** alpha, 0.0)


def holder_constant(times, values, alpha: float) -> float | np.ndarray:
    """Grid-level alpha-Hoelder constant over pairs with 0 < |s-r| <= 1.

    values has shape (..., N) over the N grid times and the result has shape
    (...), a float for a single series; alpha must be finite and >= 0. An
    empty batch or fewer than two nodes gives zeros without a scan.

    The scan is an exact branch-and-bound over blocks of HOLDER_BLOCK
    consecutive sorted nodes. Each series' running max starts from the exact
    ratios among its blocks' argmin and argmax nodes, which are grid pairs.
    A block pair I <= J is bounded by its value spread over its smallest gap
    (the smallest positive step inside a block when I = J) and is scored
    densely only if that bound, widened for pow rounding, beats the running
    max, or skipped whole when its smallest gap exceeds 1. The seed, the
    bounds and the tiles run over chunks of block rows and of tiles, each
    temporary at most max(S*N/4, 4096) elements for S series, so memory
    stays O(N) per series whatever the number of blocks. Every scored pair is
    the dense expression on the same floats and max is exact in any order,
    so the result is the dense N x N scan's, bit for bit.
    """
    best = _block_scan(times, values, alpha, 0.0)
    return float(best) if best.ndim == 0 else best


def holder_exceeds(times, values, alpha: float, level: float):
    """holder_constant(times, values, alpha) > level per series, from the
    same scan with its running max started at level; only the series that
    the seed leaves at or below level go on to the bounds and tiles."""
    hit = _block_scan(times, values, alpha, max(level, 0.0), level) > level
    return bool(hit) if hit.ndim == 0 else hit


def _block_scan(times, values, alpha, start, level=np.inf):
    """max(start, Hoelder constant) per series; the seed's once above level."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    times, values = np.asarray(times, float), np.asarray(values, float)
    if times.shape != values.shape[-1:]:
        raise ValueError("need one time per value along the last axis")
    out = np.full(values.shape[:-1], start, dtype=float)
    n, b = len(times), HOLDER_BLOCK
    if n < 2 or not out.size:
        return out
    flat = best = out.reshape(-1)
    nb = -(-n // b)
    # the last block repeats the last node; its zero gaps are masked out
    pick = np.argsort(times, kind="stable")[np.minimum(np.arange(nb * b),
                                                       n - 1)]
    t = times[pick].reshape(nb, b)
    v = values.reshape(-1, n)[:, pick].reshape(len(best), nb, b)
    chunk = max(v.size // 4, 2 ** 12)          # elements per temporary
    lo, hi = v.argmin(axis=2), v.argmax(axis=2)
    vmin, vmax = v.min(axis=2), v.max(axis=2)
    blocks = np.arange(nb)
    t_lo, t_hi = t[blocks, lo], t[blocks, hi]
    first, last = t[:, 0], t[:, -1]
    steps = np.diff(t, axis=1)
    inner = np.where(steps > 0.0, steps, np.inf).min(axis=1)
    rows = max(1, chunk // (len(v) * nb))
    tiles = max(1, chunk // (b * b))
    # row blocks i0:i1 and their window i0:stop; gaps only grow down a
    # column, so later blocks are out of the window
    windows = []
    for i0 in range(0, nb, rows):
        i1 = min(i0 + rows, nb)
        stop = np.searchsorted(first - last[i1 - 1], 1.0 + GRID_TOL, "right")
        windows.append((i0, i1, stop))
    # the seed pairs each block's argmin and argmax with its window's
    for i0, i1, stop in windows:
        r, c = slice(i0, i1), slice(i0, stop)
        seed = np.maximum(
            _ratios(np.abs(vmax[:, None, c] - vmin[:, r, None]),
                    np.abs(t_hi[:, None, c] - t_lo[:, r, None]), alpha),
            _ratios(np.abs(vmax[:, r, None] - vmin[:, None, c]),
                    np.abs(t_hi[:, r, None] - t_lo[:, None, c]), alpha))
        np.maximum(best, seed.max(axis=(1, 2)), out=best)
    del seed
    keep = np.flatnonzero(~(best > level))    # the seed decides the rest
    best, v, vmin, vmax = best[keep], v[keep], vmin[keep], vmax[keep]
    for i0, i1, stop in windows if len(keep) else ():
        r, c = slice(i0, i1), slice(i0, stop)
        row, col = blocks[r, None], blocks[None, c]
        gap = np.where(col > row, first[col] - last[row],
                       np.where(col == row, inner[row], np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            ub = np.maximum(vmax[:, None, c] - vmin[:, r, None],
                            vmax[:, r, None] - vmin[:, None, c])
            ub *= np.where(gap <= 1.0 + GRID_TOL, gap ** -alpha, 0.0)
            ub *= _POW_MARGIN
            hits = np.flatnonzero(ub > best[:, None, None])
        del ub
        for k in range(0, len(hits), tiles):
            s, i, j = np.unravel_index(hits[k:k + tiles], (len(v), i1 - i0,
                                                          stop - i0))
            i += i0
            j += i0
            tile = _ratios(np.abs(v[s, j][:, None, :] - v[s, i][:, :, None]),
                           t[j][:, None, :] - t[i][:, :, None], alpha)
            np.maximum.at(best, s, tile.max(axis=(1, 2)))
    flat[keep] = best
    return out


@dataclass
class EventFrequencies:
    n_paths: int
    freq_a: float
    freq_b: float
    freq_c: float
    ci_a: tuple
    ci_b: tuple
    ci_c: tuple
    bound_a: float
    bound_b: float


def omega_a_bound(delta_cap: float, horizon: float, n_processes: int) -> float:
    """Analytic tail bound for the small-squared-increment event."""
    x = delta_cap ** (-2.0 / 3.0)
    return 2.0 * horizon * n_processes / math.sqrt(math.pi) * x * math.exp(-x / 20.0)


def omega_b_bound(delta_cap: float, horizon: float, n_processes: int) -> float:
    """Analytic tail bound for the large-cross-increment event."""
    return (6.0 * n_processes ** 2 * horizon / delta_cap
            * math.exp(-delta_cap ** (-19.0 / 42.0) / (3.0 * n_processes ** 2)))


def wilson_interval(successes: int, n: int):
    """Wilson score 95% confidence interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = 1.96
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def event_frequencies(wiener_paths: np.ndarray, scheme: PartitionScheme,
                      events: str = "abc") -> EventFrequencies:
    """Empirical frequencies of the three bad events over an ensemble.

    wiener_paths has shape (n_paths, N, n_times) sampled on scheme.nodes,
    which block k spans from scheme.starts[k] to scheme.starts[k+1]. Event
    a: some block/process has mean normalized squared increment <= 1/2.
    Event b: some block and process pair has mean normalized cross product
    >= delta_cap^(3/14) / (3 N^2). Both come from one pass over runs of
    whole blocks: per run one diff, the products of every process pair
    (only of each process with itself without event b) and one reduceat at
    the block starts, each temporary near _RUN_VALUES values (one block's
    when that is more), stopping once every path has each requested event.
    Event c: some process exceeds delta_cap^(-1/28) in the max of sup norm
    and 1/4-Hoelder constant; the sup norm is checked first, and
    holder_exceeds decides the paths it leaves open, _SCAN_VALUES padded
    values a call. `events` selects which indicators to report; skipped
    events report frequency 0 with the trivial [0, 1] interval.
    """
    paths = np.asarray(wiener_paths, dtype=float)
    if paths.ndim != 3:
        raise ValueError("expected (n_paths, N, n_times) ensemble")
    n_paths, n_proc, n_times = paths.shape
    times = scheme.nodes
    if len(times) != n_times:
        raise ValueError("ensemble does not match the node times")
    thresh_b = scheme.delta_cap ** (3.0 / 14.0) / (3.0 * n_proc ** 2)
    thresh_c = scheme.delta_cap ** (-1.0 / 28.0)
    hit_a, hit_b, hit_c = np.zeros((3, n_paths), dtype=bool)
    wanted = [e in events for e in "abc"]
    if "a" in events or "b" in events:
        pa, pb = (np.triu_indices(n_proc) if "b" in events  # pa == pb: a
                  else 2 * (np.arange(n_proc),))
        starts, counts = scheme.starts, scheme.counts()
        run = max(1, _RUN_VALUES // (n_paths * len(pa) * counts.max()))
        for k0 in range(0, scheme.m, run):
            k1 = min(k0 + run, scheme.m)
            pos = slice(starts[k0], starts[k1] + 1)
            dt = np.diff(times[pos])
            incr = np.diff(paths[:, :, pos], axis=2) / np.sqrt(dt)
            prod = incr[:, pa]
            prod *= incr[:, pb]
            mean = np.add.reduceat(prod, starts[k0:k1] - starts[k0], axis=2)
            mean /= counts[k0:k1]                   # (n_paths, pairs, blocks)
            hit_a |= np.any(mean[:, pa == pb] <= 0.5, axis=(1, 2))
            hit_b |= np.any(np.abs(mean[:, pa < pb]) >= thresh_b, axis=(1, 2))
            del incr, prod, mean                    # before the next run
            if all(h.all() for h, w in zip((hit_a, hit_b), wanted) if w):
                break                               # every path is decided
    if "c" in events:
        hit_c |= np.any(np.maximum(paths.max(axis=2), -paths.min(axis=2))
                        > thresh_c, axis=1)         # no |paths| copy
        open_ = np.flatnonzero(~hit_c)
        pad = -(-n_times // HOLDER_BLOCK) * HOLDER_BLOCK
        step = max(1, _SCAN_VALUES // (n_proc * pad))
        for g in np.split(open_, range(step, len(open_), step)):
            hit_c[g] = holder_exceeds(times, paths[g], 0.25, thresh_c).any(1)
    hits = [h & w for h, w in zip((hit_a, hit_b, hit_c), wanted)]
    return EventFrequencies(
        n_paths, *(float(h.mean()) for h in hits),
        *(wilson_interval(int(h.sum()), n_paths) if w else (0.0, 1.0)
          for h, w in zip(hits, wanted)),
        omega_a_bound(scheme.delta_cap, scheme.horizon, n_proc),
        omega_b_bound(scheme.delta_cap, scheme.horizon, n_proc))


def _log_poisson_term(n: float, y: float) -> float:
    """log(e^-y y^n / Gamma(n+1)). From n = 40 on, Stirling's series (next
    term < 4e-15) replaces lgamma, so no large logarithms cancel."""
    if n < 40.0:
        return n * math.log(y) - y - math.lgamma(n + 1.0)
    d = y - n
    return (n * math.log1p(d / n) - d - 0.5 * math.log(2.0 * math.pi * n)
            - (1.0 / 12 - (1.0 / 360 - 1.0 / (1260 * n * n)) / (n * n)) / n)


def chi_square_cdf(x: float, dof: int) -> float:
    """P(chi^2_dof <= x) = P(dof/2, x/2) by the series of A&S 6.5.29,
    P(a, y) = sum_k e^-y y^(a+k) / Gamma(a+k+1), each term carried in logs.

    The sum stops past the peak once a term is below 1e-17 of it. When the
    Chernoff bound (y/a)^a e^(a-y) on 1 - P is below e^-40, under half an
    ulp of 1, the result is 1.0.
    """
    if x <= 0:
        return 0.0
    a, y = 0.5 * dof, 0.5 * x
    if y > a and a * math.log(y / a) + a - y < -40.0:
        return 1.0
    total, k = 0.0, 0
    while True:
        term = math.exp(_log_poisson_term(a + k, y))
        total += term
        if k > y - a and term <= 1e-17 * total:
            return min(total, 1.0)
        k += 1


def chi_square_small_ball_bound(c: float, m_terms: int):
    """Literature constants for chi-square small balls and cross-term tails.

    Returns (small_ball, cross_tail). small_ball is the literature's stated
    constant e^(-gamma M/2) / sqrt(pi M), gamma = c - 1 - ln c, returned
    verbatim. It is not a bound: the exact P(chi^2_M <= c M) exceeds it by
    a factor between e^(-1/(6M)) (1 + cM/(M+2)) and (M+2)/((1-c)M+2), which
    tends to 1/(1-c). chi_square_small_ball_bound_corrected is the provable
    bound. P(|sum eta_l eta'_l| >= c M) <= cross_tail.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    if m_terms <= 2.0 / (1.0 - c):
        raise ValueError("need M > 2 / (1 - c)")
    gamma = c - 1.0 - math.log(c)
    small_ball = math.exp(-0.5 * gamma * m_terms) / math.sqrt(math.pi * m_terms)
    cross_tail = 2.0 * math.exp(-0.25 * c * c * m_terms)
    return small_ball, cross_tail


def chi_square_small_ball_bound_corrected(c: float, m_terms: int) -> float:
    """Provable variant of the small-ball bound.

    Bounding the incomplete-gamma integrand at its right endpoint and using
    Gamma(M/2) >= sqrt(4 pi / M) (M/2e)^(M/2) gives prefactor sqrt(M/(4 pi))
    instead of 1/sqrt(pi M); the exact CDF does sit below this one.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    if m_terms <= 2.0 / (1.0 - c):
        raise ValueError("need M > 2 / (1 - c)")
    gamma = c - 1.0 - math.log(c)
    return math.sqrt(m_terms / (4.0 * math.pi)) * math.exp(-0.5 * gamma * m_terms)


@dataclass
class HolderTransferReport:
    alpha: float
    gamma: float
    eps: float
    ell: float
    sup_h: float                 # sup of the supplied series
    holder_h: float              # its Hoelder constant
    sup_g: float                 # sup of its running integral
    integral_power: float        # int |series|^ell
    c_fitted: float              # Hoelder constant in units of eps^-gamma
    premise_integral_ok: bool
    bound_integral: float
    conclusion_integral_ok: bool
    premise_sup_ok: bool
    bound_sup: float
    conclusion_sup_ok: bool


def holder_transfer(series: SampledProcess, alpha: float, gamma: float,
                    eps: float, ell: float = 1.0) -> HolderTransferReport:
    """Check the two Hoelder-interpolation implications on a sample series.

    Implication 1 treats the series as the derivative H of its running
    integral G: if sup|G| <= eps and H_alpha(H) <= c eps^-gamma then
    sup|H| <= (2+c) eps^((alpha-gamma)/(1+alpha)). Implication 2 treats the
    series as G itself: if int |G|^ell < eps and H_alpha(G) < c eps^-gamma
    then sup|G| < (1+c) eps^((alpha-gamma)/(1+ell*alpha)). The constant c
    is fitted from the measured Hoelder constant.
    """
    if not alpha > gamma > 0:
        raise ValueError("need alpha > gamma > 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = series.times
    h = series.values
    dt = t[1] - t[0]
    g = np.concatenate([[0.0], np.cumsum(0.5 * dt * (h[1:] + h[:-1]))])
    sup_h = float(np.max(np.abs(h)))
    sup_g = float(np.max(np.abs(g)))
    hold_h = holder_constant(t, h, alpha)
    integral_power = float(np.trapezoid(np.abs(h) ** ell, t))
    c_fit = hold_h * eps ** gamma
    premise_sup = sup_g <= eps
    bound_sup = (2.0 + c_fit) * eps ** ((alpha - gamma) / (1.0 + alpha))
    concl_sup = (not premise_sup) or sup_h <= bound_sup
    premise_int = integral_power < eps
    bound_int = (1.0 + c_fit) * eps ** ((alpha - gamma) / (1.0 + ell * alpha))
    concl_int = (not premise_int) or sup_h < bound_int
    return HolderTransferReport(
        alpha, gamma, eps, ell, sup_h, hold_h, sup_g, integral_power, c_fit,
        premise_int, bound_int, concl_int, premise_sup, bound_sup, concl_sup)


CASCADE_RATIO = 1.0 / 152.0
BLOCK_EXPONENT = 14.0 / 75.0


def cascade_table(eps: float, levels: int, horizon: float,
                  n_processes: int):
    """Exponent cascade for the composite bad event.

    Level j uses the inner scale eps^((1/152)^j) and block width
    (inner scale)^(14/75); rows carry the analytic event-a and event-b
    bounds at that width. Probabilities are astronomically small at desk
    scale, so only the exponent arithmetic is exposed.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    rows = []
    for j in range(1, levels + 1):
        exponent = CASCADE_RATIO ** j
        inner = eps ** exponent
        width = inner ** BLOCK_EXPONENT
        rows.append({
            "level": j,
            "exponent": exponent,
            "inner_eps": inner,
            "delta_cap": width,
            "bound_a": omega_a_bound(width, horizon, n_processes),
            "bound_b": omega_b_bound(width, horizon, n_processes),
        })
    return rows
