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

import csv
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from .lattice import ForcingGeometry
from .spectral import TWO_PI_SQ, Basis, SpectralField, build_interaction_table

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
    config: SimConfig
    basis: Basis
    times: np.ndarray            # (n_steps + 1,)
    states: np.ndarray           # (n_steps + 1, n_modes)
    increments: np.ndarray       # (n_steps, n_forced) Wiener increments
    forced_modes: tuple          # canonical order of the forced modes
    forced_indices: np.ndarray   # their positions in the basis

    def n_steps(self) -> int:
        return len(self.times) - 1

    def grid_index(self, t: float) -> int:
        return self.config.grid_index(t)

    def wiener_path(self) -> np.ndarray:
        """Cumulative Wiener values W(t_i) per forced mode, W(0) = 0."""
        out = np.zeros((len(self.times), len(self.forced_modes)))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out

    def enstrophy_series(self) -> np.ndarray:
        return TWO_PI_SQ * np.sum(self.states ** 2, axis=1)

    def h1_series(self) -> np.ndarray:
        lam = self.basis.laplacian_symbol()
        return TWO_PI_SQ * np.sum(lam * self.states ** 2, axis=1)

    def to_jsonl(self, path):
        """One record per node: time, coefficients, incoming increments."""
        with open(path, "w") as fh:
            header = {
                "nu": self.config.nu,
                "dt": self.config.dt,
                "t_final": self.config.t_final,
                "radius": self.basis.radius,
                "seed": self.config.seed,
                "forcing": [list(k) for k in self.forced_modes],
            }
            fh.write(json.dumps({"header": header}) + "\n")
            for i, t in enumerate(self.times):
                rec = {
                    "time": float(t),
                    "coeffs": [float(c) for c in self.states[i]],
                    "increments": (
                        [float(c) for c in self.increments[i - 1]] if i > 0 else []),
                }
                fh.write(json.dumps(rec) + "\n")

    def norms_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "enstrophy", "h1_sq"])
            for t, e, h in zip(self.times, self.enstrophy_series(), self.h1_series()):
                writer.writerow([repr(float(t)), repr(float(e)), repr(float(h))])


def noise_scale(nu: float, lam: np.ndarray, dt: float) -> np.ndarray:
    """Std dev of the one-step Ornstein-Uhlenbeck convolution per mode."""
    return np.sqrt((1.0 - np.exp(-2.0 * nu * lam * dt)) / (2.0 * nu * lam))


def simulate(config: SimConfig, path_index: int = 0,
             increments: np.ndarray | None = None,
             control: np.ndarray | None = None) -> Trajectory:
    """Advance the truncated system and record the full trajectory.

    increments: optional (n_steps, n_forced) Wiener increments to replay
    (pass an all-zero array for a deterministic run); a copy is kept. When
    omitted they are one rng.SIMULATE block per path, and step i is row i.

    control: optional (n_steps, n_forced) deterministic forcing rates added
    to the drift on the forced modes (the controllability probe's knob).
    """
    return _advance(config, config.basis(), [path_index], increments,
                    control)(0)


def simulate_paths(config: SimConfig, paths) -> Iterator[Trajectory]:
    """One trajectory per path index, in order, each bit-identical to
    simulate(config, path_index=p).

    Paths advance side by side in blocks whose size follows from the
    config (`block_size` over the states' values). Every bin of the block's
    drift sums the same terms in the same order as a lone path's, so the
    block size shows in no output.
    """
    paths = list(paths)
    basis = config.basis()
    size = block_size(basis, (config.n_steps() + 1) * len(basis), len(paths))
    for start in range(0, len(paths), size):
        block = paths[start:start + size]
        trajectory = _advance(config, basis, block)
        yield from map(trajectory, range(len(block)))


def block_size(basis: Basis, per_path: int, n_paths: int) -> int:
    """Paths per block, at least one: at most 2**16 ordered triads per step
    (temporaries of 256 KiB) and 2**23 stored values (64 MiB) per block."""
    n_table = max(len(build_interaction_table(basis)), 1)
    return max(1, min(2 ** 16 // n_table, 2 ** 23 // max(per_path, 1), n_paths))


def _advance(config: SimConfig, basis: Basis, paths, increments=None,
             control=None) -> Callable[[int], Trajectory]:
    """Step the paths' states as one flat (P * n,) vector.

    Path b occupies entries b*n .. (b+1)*n - 1, so the triad indices are
    shifted by b*n and the per-mode factors are tiled. A lone path runs on
    the table's own arrays: per-call copies of them cost page faults on
    every step's temporaries at large radii. Returns the function that
    cuts out the trajectory of block position b, so a caller holds one
    path's copy at a time.
    """
    table = build_interaction_table(basis)
    lam = basis.laplacian_symbol()
    forced_modes = tuple(sorted(config.forcing.z_star))
    forced = np.array([basis.index[k] for k in forced_modes], dtype=np.intp)
    n_steps = config.n_steps()
    n = len(basis)
    P = len(paths)

    decay = np.exp(-config.nu * lam * config.dt)
    sqrt_dt = math.sqrt(config.dt)
    # per-unit-increment gain; applied to dW so replays are bit-exact
    gain = noise_scale(config.nu, lam[forced], config.dt) / sqrt_dt
    shape = (n_steps, len(forced))
    if increments is None:
        incs = np.empty((n_steps, P, len(forced)))
        for b, p in enumerate(paths):
            incs[:, b] = sqrt_dt * rng.normals(config.seed, rng.SIMULATE, p,
                                               shape)
    else:
        incs = np.array(increments, dtype=float)
        if incs.shape != shape:
            raise ValueError(f"increments have shape {incs.shape}, need {shape}")
        incs = incs[:, None]
    dW = incs.reshape(n_steps, -1)    # row i: step i's increments, path-major

    # hit: the forced entries of the flat state
    j, k, l, sym, hit = table.j, table.k, table.l, table.sym, forced
    if P > 1:
        off = n * np.arange(P)[:, None]
        j, k, l, hit = ((off + a).ravel() for a in (j, k, l, forced))
        sym, decay, gain = (np.tile(a, P) for a in (sym, decay, gain))

    states = np.zeros((n_steps + 1, P * n))
    if config.initial is not None:
        states[0] = np.tile(config.initial.coeffs, P)

    w = states[0].copy()
    for i in range(n_steps):
        drift = -np.bincount(l, weights=sym * w[j] * w[k], minlength=P * n)
        if control is not None:
            drift[hit] += control[i]
        w = decay * (w + config.dt * drift)
        w[hit] += gain * dW[i]
        if not np.max(np.abs(w)) <= BLOWUP_LIMIT:  # also rejects NaN
            bad = ~np.all(np.abs(w.reshape(P, n)) <= BLOWUP_LIMIT, axis=1)
            raise BlowUpError(
                f"state magnitude exceeded {BLOWUP_LIMIT:g} or became "
                f"non-finite at step {i + 1} on path {paths[np.argmax(bad)]}; "
                "reduce dt")
        states[i + 1] = w

    times = config.dt * np.arange(n_steps + 1)
    return lambda b: Trajectory(
        config=config, basis=basis, times=times,
        states=np.ascontiguousarray(states[:, b * n:(b + 1) * n]),
        increments=np.ascontiguousarray(incs[:, b]),
        forced_modes=forced_modes, forced_indices=forced)


def forcing_energy_rate(traj: Trajectory) -> float:
    """The Ito input rate: sum of |e_k|^2 over forced modes."""
    return TWO_PI_SQ * len(traj.forced_modes)


def enstrophy_residual(traj: Trajectory) -> np.ndarray:
    """Pathwise Ito enstrophy balance residual on the trajectory grid.

    r(t_i) = |w(t_i)|^2 - |w(0)|^2 + 2 nu int_0^{t_i} |w|_1^2 ds - E0 t_i
    with trapezoid quadrature; a discrete martingale with mean ~ 0.
    """
    e = traj.enstrophy_series()
    h1 = traj.h1_series()
    dt = traj.config.dt
    integral = np.zeros_like(e)
    np.cumsum(0.5 * dt * (h1[1:] + h1[:-1]), out=integral[1:])
    e0 = forcing_energy_rate(traj)
    return e - e[0] + 2.0 * traj.config.nu * integral - e0 * traj.times
