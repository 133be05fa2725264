"""Time integration of the truncated stochastic vorticity system.

One step of the scheme: the nonlinear drift is evaluated explicitly, the
stiff diagonal viscous part is applied as an exact exponential factor, and
each forced mode receives a Gaussian increment with the exact variance of
the stochastic convolution over one step, (1 - exp(-2 nu |l|^2 dt)) /
(2 nu |l|^2). Unforced modes receive no noise.

Trajectories record the full state at every node together with the Wiener
increments that produced it, so adjoint passes and bit-exact replays need no
recomputation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from .lattice import ForcingGeometry
from .spectral import (TWO_PI_SQ, Basis, Closure, SpectralField,
                       build_interaction_table)

BLOWUP_LIMIT = 1e12


@dataclass
class SimConfig:
    nu: float
    forcing: ForcingGeometry
    radius: float = 6.0
    dt: float = 1e-3
    t_final: float = 1.0
    initial: SpectralField | None = None
    seed: int = 0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        # the seed is the Philox key's first word, taken as given
        if (not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < rng.SEED_END):
            raise ValueError("seed must be an integer in [0, 2**64)")
        if self.dt <= 0 or self.t_final <= 0 or self.dt >= self.t_final:
            raise ValueError("need 0 < dt < t_final")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError("t_final must be a whole number of steps dt")
        # the radius of basis(), read without building it
        r = self.radius if self.initial is None else self.initial.basis.radius
        for k in self.forcing.z_star:
            if k[0] ** 2 + k[1] ** 2 > r ** 2:
                raise ValueError(f"forced mode {k} outside basis radius")

    def basis(self) -> Basis:
        if self.initial is not None:
            return self.initial.basis
        return Basis.build(self.radius)

    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def grid_index(self, t: float) -> int:
        """Step index of t in [0, t_final]; rejects off-grid times."""
        i = int(round(t / self.dt))
        if (not 0 <= i <= self.n_steps()
                or abs(i * self.dt - t) > 1e-9 * max(1.0, abs(t))):
            raise ValueError(f"time {t} is not on the step grid")
        return i


class BlowUpError(RuntimeError):
    """The explicit nonlinearity went unstable; dt is too large."""


@dataclass
class Trajectory:
    """One path or a block of P paths: states (n_steps + 1, P, n_modes);
    a block's increments and series have one column per path."""
    config: SimConfig
    basis: Basis
    times: np.ndarray            # (n_steps + 1,)
    states: np.ndarray           # (n_steps + 1, [P,] n_modes)
    increments: np.ndarray       # (n_steps, [P,] n_forced) Wiener increments
    forced_modes: tuple          # canonical order of the forced modes
    forced_indices: np.ndarray   # their positions in the basis
    decay: np.ndarray            # (n_modes,) one step's exp(-nu |k|^2 dt)
    zero_nodes: int              # nodes 0 .. zero_nodes - 1 are all +0
    closure: Closure             # modes off its mask stay +-0

    def grid_index(self, t: float) -> int:
        return self.config.grid_index(t)

    def wiener_path(self) -> np.ndarray:
        """Cumulative Wiener values W(t_i) per forced mode, W(0) = 0."""
        out = np.zeros((len(self.times),) + self.increments.shape[1:])
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out

    def enstrophy_balance(self) -> tuple:
        """(enstrophy, h1, residual) from one read of the states, one column
        per path on a block. The residual |w(t)|^2 - |w(0)|^2 + 2 nu int_0^t
        |w|_1^2 ds - E0 t (trapezoid rule) is a martingale with mean ~ 0."""
        e, h1 = np.empty((2,) + self.states.shape[:-1])
        for i in range(0, len(e), 64):  # no block-size temporary
            sq = self.states[i:i + 64] ** 2
            e[i:i + 64] = TWO_PI_SQ * np.sum(sq, axis=-1)
            sq *= self.basis.laplacian_symbol()
            h1[i:i + 64] = TWO_PI_SQ * np.sum(sq, axis=-1)
        integral = np.zeros_like(e)
        np.cumsum(0.5 * self.config.dt * (h1[1:] + h1[:-1]), axis=0,
                  out=integral[1:])
        times = self.times.reshape((-1,) + (1,) * (e.ndim - 1))
        return e, h1, (e - e[0] + 2.0 * self.config.nu * integral
                       - forcing_energy_rate(self) * times)


def noise_scale(nu: float, lam: np.ndarray, dt: float) -> np.ndarray:
    """Std dev of the one-step Ornstein-Uhlenbeck convolution per mode."""
    return np.sqrt((1.0 - np.exp(-2.0 * nu * lam * dt)) / (2.0 * nu * lam))


def simulate_blocks(config: SimConfig, paths) -> Iterator[tuple]:
    """A generator of (block, simulate(config, block)) for consecutive blocks
    of the path index sequence `paths` (non-empty, checked here), in order, of
    `block_size` paths. Every bin of a block's drift sums a lone path's terms
    in its order, so the block size shows in no output. A caller drops each
    block before asking for the next, so one block is alive at a time."""
    if not len(paths):
        raise ValueError("simulate needs at least one path")
    size = block_size(config, len(paths))
    blocks = (paths[i:i + size] for i in range(0, len(paths), size))
    return ((block, simulate(config, block)) for block in blocks)


def block_size(config: SimConfig, n_paths: int) -> int:
    """Paths per block, at least one: at most 2**16 ordered triads per step
    (drift buffers of 256 KiB) and 2**23 state values (64 MiB) per block."""
    basis = config.basis()
    states = (config.n_steps() + 1) * len(basis)
    n_table = max(len(build_interaction_table(basis)), 1)
    return max(1, min(2 ** 16 // n_table, 2 ** 23 // max(states, 1), n_paths))


def simulate(config: SimConfig, paths=(0,), increments=None,
             control=None) -> Trajectory:
    """Advance the truncated system on the path indices `paths` and record
    the full trajectory.

    The paths' states step as one flat (P * n,) vector: path b occupies
    entries b*n .. (b+1)*n - 1, so the triad indices are shifted by b*n and
    the per-mode factors are tiled. A lone path keeps the 2-D shapes and
    runs on the table's own arrays. The drift sums only the live rows, as
    L(w) does, with j and k in the table's `closure` of the modes w_0 or a
    noise or control column drives; the modes off it stay +-0.
    A step allocates no state-sized array but bincount's output;
    blow-up is a sum-of-squares bound, then the exact max |w_i| if it fails.
    A +0 state stays +0 until a noise or control row is nonzero, so those
    steps are skipped: its drift bins start and stay at +0, and the step
    writes (-0) dt + (+0) = +0, which the skipped nodes hold from np.zeros.
    The trajectory records both for the sweeps: `zero_nodes` and `closure`.

    increments: optional Wiener increments to replay, in the trajectory's
    shape (all zeros for a deterministic run); a copy is kept. When omitted
    they are one rng.SIMULATE block per path, and step i is row i.

    control: optional (n_steps, n_forced) deterministic forcing rates added
    to a lone path's drift on the forced modes (the controllability probe).
    """
    if not len(paths):
        raise ValueError("simulate needs at least one path")
    basis = config.basis()
    table = build_interaction_table(basis)
    lam = basis.laplacian_symbol()
    forced_modes = tuple(sorted(config.forcing.z_star))
    forced = np.array([basis.index[k] for k in forced_modes], dtype=np.intp)
    n_steps, n, P = config.n_steps(), len(basis), len(paths)

    decay = np.exp(-config.nu * lam * config.dt)
    sqrt_dt = math.sqrt(config.dt)
    # per-unit-increment gain; applied to dW so replays are bit-exact
    gain = noise_scale(config.nu, lam[forced], config.dt) / sqrt_dt
    shape = (n_steps, P, len(forced)) if P > 1 else (n_steps, len(forced))
    if increments is None:
        incs = np.empty((n_steps, P, len(forced)))
        for b, xi in enumerate(rng.normals(config.seed, rng.SIMULATE, paths,
                                           (n_steps, len(forced)))):
            incs[:, b] = sqrt_dt * xi
        incs = incs.reshape(shape)
    else:
        incs = np.array(increments, dtype=float)
        if incs.shape != shape:
            raise ValueError(f"increments have shape {incs.shape}, need {shape}")
    if control is not None and (P > 1 or np.shape(control) != shape):
        raise ValueError(f"control has shape {np.shape(control)} on {P} "
                         f"paths, need {(n_steps, len(forced))} on one path")
    noise = np.tile(gain, P) * incs.reshape(n_steps, -1)  # row i: step i

    states = np.zeros((n_steps + 1, P * n))
    if config.initial is not None:
        states[0] = np.tile(config.initial.coeffs, P)
    drive = noise if control is None else np.hstack((noise, control))
    start = 0  # the first driven step, if every bit of w_0 is zero
    if zero_w0 := not states[0].view(np.int64).any():
        start = next((i for i, row in enumerate(drive) if row.any()), n_steps)
    seed = states[0, :n] != 0  # drive column c drives forced[c % n_forced]
    seed[np.resize(forced, drive.shape[1])[drive.any(axis=0)]] = True
    closure = table.closure(seed)
    (j, k, l, sym), hit = closure.rows, forced  # hit: the flat forced entries
    if P > 1:
        off = n * np.arange(P)[:, None]
        j, k, l, hit = ((off + a).ravel() for a in (j, k, l, forced))
        sym, decay = np.tile(sym, P), np.tile(decay, P)
    if not len(l):  # no rows: one zero row keeps bincount's drift float
        (j, k, l), sym = np.zeros((3, 1), dtype=np.intp), np.zeros(1)

    # take's default mode="raise" copies through a temporary; j, k are valid
    a, b = np.empty(len(l)), np.empty(len(l))
    for i in range(start, n_steps):
        w = states[i]
        np.multiply(sym, w.take(j, out=a, mode="wrap"), out=a)
        np.multiply(a, w.take(k, out=b, mode="wrap"), out=a)
        drift = np.bincount(l, weights=a, minlength=P * n)
        np.negative(drift, out=drift)  # (x - c) * -dt would give -0 for +0
        if control is not None:
            drift[hit] += control[i]
        drift *= config.dt
        drift += w
        w = np.multiply(decay, drift, out=states[i + 1])
        w[hit] += noise[i]
        # each |w_i| <= sqrt(w.w) <= 5e11 < limit; NaN, inf reach the max
        if (not np.dot(w, w) <= 0.25 * BLOWUP_LIMIT ** 2
                and not np.abs(w).max() <= BLOWUP_LIMIT):
            bad = ~np.all(np.abs(w.reshape(P, n)) <= BLOWUP_LIMIT, axis=1)
            raise BlowUpError(
                f"state magnitude exceeded {BLOWUP_LIMIT:g} or became "
                f"non-finite at step {i + 1} on path {paths[np.argmax(bad)]}; "
                "reduce dt")

    return Trajectory(
        config=config, basis=basis, times=config.dt * np.arange(n_steps + 1),
        states=states.reshape(n_steps + 1, P, n) if P > 1 else states,
        increments=incs, forced_modes=forced_modes, forced_indices=forced,
        decay=decay[:n], zero_nodes=start + zero_w0, closure=closure)


def forcing_energy_rate(traj: Trajectory) -> float:
    """The Ito input rate: sum of |e_k|^2 over forced modes."""
    return TWO_PI_SQ * len(traj.forced_modes)

