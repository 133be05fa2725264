"""The benchmark's workloads: op configs drawn from a seed, and result checks.

Each workload turns the workload seed into a stream of `run_experiment`
configs, one per op, and checks every op's artifacts against invariants
that hold for any seed (no golden checksums: a change of noise streams
legitimately changes every seeded number). A failed check raises
`CheckFailed`; the harness counts it as a failed op.

Import this module only after `run.prepare()` has put the program on the
import path.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from vortexlab import flows
from vortexlab.lattice import ForcingGeometry
from vortexlab.malliavin import malliavin_backward_form
from vortexlab.simulate import SimConfig, simulate
from vortexlab.spectral import TWO_PI_SQ, Basis, SpectralField

CANONICAL_FORCING = [[1, 0], [-1, 0], [1, 1], [-1, -1]]
SEED_RANGE = 2 ** 31


class CheckFailed(Exception):
    """An op's output broke an invariant."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sim_config(config, **extra) -> SimConfig:
    sim = config["sim"]
    return SimConfig(nu=sim["nu"],
                     forcing=ForcingGeometry(frozenset(map(tuple, sim["forcing"]))),
                     radius=sim["radius"], dt=sim["dt"], t_final=sim["t_final"],
                     seed=sim["seed"], **extra)


def _ball(radius):
    r = int(math.floor(radius))
    return [[k1, k2] for k1 in range(-r, r + 1) for k2 in range(-r, r + 1)
            if (k1, k2) != (0, 0) and k1 * k1 + k2 * k2 <= radius * radius]


def _check_spectrum(out_dir: Path, n_paths: int):
    """Shared malliavin checks; returns (lambda_min, lambda_max) per path."""
    _, rows = _read_rows(out_dir / "spectrum.csv")
    _require(len(rows) == n_paths, f"spectrum.csv has {len(rows)} rows")
    vals = np.array([[float(v) for v in row[1:]] for row in rows])
    _require(np.all(np.isfinite(vals)), "non-finite spectrum entry")
    lam_min, lam_min_h1, lam_max, trace = vals.T
    _require(np.all(lam_min > 0.0), "lambda_min <= 0 on some path")
    _require(np.all(lam_min_h1 > 0.0), "H1 lambda_min <= 0 on some path")
    _require(np.all(lam_min <= lam_max), "lambda_min > lambda_max")
    _require(np.all(lam_max <= trace * (1.0 + 1e-12)), "lambda_max > trace")
    _, rows = _read_rows(out_dir / "tail.csv")
    eps, freq, lo, hi = np.array([[float(v) for v in row] for row in rows]).T
    _require(np.all((freq >= 0.0) & (freq <= 1.0)), "tail frequency out of [0,1]")
    _require(np.all((lo <= freq) & (freq <= hi)), "Wilson interval misses frequency")
    order = np.argsort(eps)
    _require(np.all(np.diff(freq[order]) >= 0.0), "tail not monotone in epsilon")
    expect = [(lam_min < e).mean() for e in eps]
    _require(np.allclose(freq, expect, rtol=0.0, atol=1e-12),
             "tail frequencies disagree with the spectrum")
    return lam_min, lam_max


class TailR3:
    """Many short radius-3 paths: per-path fixed costs dominate."""

    name = "tail-r3"
    capture = None
    n_paths = 10

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])

    def next_config(self):
        return {"kind": "malliavin",
                "sim": {"nu": 0.5, "forcing": CANONICAL_FORCING, "radius": 3.0,
                        "dt": 1e-3, "t_final": 0.1,
                        "seed": int(self.rng.integers(SEED_RANGE))},
                "analysis": {"subspace": [[0, 1], [2, 1], [0, -1], [-2, -1]],
                             "t": 0.1, "n_paths": self.n_paths}}

    def check(self, config, out_dir, manifest, captured):
        _check_spectrum(out_dir, self.n_paths)


class GramR4:
    """One wide radius-4 Gram assembly over all 48 modes."""

    name = "gram-r4"
    capture = ("malliavin", "malliavin_forward")

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])
        self.check_rng = np.random.default_rng([seed, 1])

    def next_config(self):
        return {"kind": "malliavin",
                "sim": {"nu": 0.5, "forcing": CANONICAL_FORCING, "radius": 4.0,
                        "dt": 1e-3, "t_final": 0.1,
                        "seed": int(self.rng.integers(SEED_RANGE))},
                "analysis": {"subspace": _ball(4.0), "t": 0.1, "n_paths": 1}}

    def check(self, config, out_dir, manifest, captured):
        """The op's forward Gram against the backward form on a random phi.

        `captured` is the op's MalliavinForm; its spectrum must be the one
        the op wrote.
        """
        lam_min, lam_max = _check_spectrum(out_dir, 1)
        if captured is None:
            return {"gram_unchecked": 1}
        M, traj = captured.matrix, captured.trajectory
        vals = np.linalg.eigvalsh(M)
        tol = 1e-10 * float(np.trace(M))
        _require(abs(vals[0] - lam_min[0]) <= tol and abs(vals[-1] - lam_max[0]) <= tol,
                 "spectrum.csv disagrees with the assembled Gram")
        c = self.check_rng.standard_normal(len(captured.subspace))
        phi = SpectralField(traj.basis)
        for mode, coeff in zip(captured.subspace, c):
            phi.coeffs[traj.basis.index[tuple(mode)]] = coeff
        fwd = TWO_PI_SQ * float(c @ M @ c)
        bwd = malliavin_backward_form(traj, captured.t, phi)
        rel = abs(fwd - bwd) / fwd
        _require(rel <= 1e-3, f"forward vs backward form: rel {rel:.2e} > 1e-3")


class ControlR8:
    """Endpoint-control search at radius 8.1: table construction dominates."""

    name = "control-r8"
    capture = ("flows", "control_search")
    projection = [[0, 1], [-1, -1], [1, 0]]
    max_iters = 2
    n_fd = 3
    fd_eps = 1e-5

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])
        self.basis = None

    def next_config(self):
        # every target component nonzero, so the search starts downhill
        target = (self.rng.uniform(0.05, 0.2, len(self.projection))
                  * self.rng.choice([-1.0, 1.0], len(self.projection)))
        return {"kind": "control",
                "sim": {"nu": 0.5, "forcing": CANONICAL_FORCING, "radius": 8.1,
                        "dt": 5e-3, "t_final": 0.1,
                        "seed": int(self.rng.integers(SEED_RANGE))},
                "analysis": {"projection": self.projection,
                             "target": [float(v) for v in target], "t": 0.1,
                             "max_iters": self.max_iters}}

    def check(self, config, out_dir, manifest, captured):
        """Replay the control, then check residual, history and gradient."""
        info = manifest["artifacts"]["control.csv"]
        _, rows = _read_rows(out_dir / "control.csv")
        control = np.array([[float(v) for v in row[1:]] for row in rows])
        target = np.array(config["analysis"]["target"])
        if self.basis is None:
            self.basis = Basis.build(config["sim"]["radius"])
        # a zero initial field pins cfg.basis() to one Basis object, so the
        # replays below share one interaction table
        cfg = _sim_config(config, initial=SpectralField(self.basis))
        proj_idx = np.array([self.basis.index[tuple(k)] for k in self.projection])
        _require(control.shape == (cfg.n_steps(), len(CANONICAL_FORCING)),
                 "control.csv has wrong shape")

        def objective(ctrl):
            traj = simulate(cfg, increments=np.zeros_like(ctrl), control=ctrl)
            r = traj.states[-1][proj_idx] - target
            return 0.5 * float(r @ r), traj, r

        J, traj, r = objective(control)
        achieved = np.array(info["achieved"])
        _require(np.allclose(traj.states[-1][proj_idx], achieved,
                             rtol=1e-9, atol=1e-12),
                 "replayed control does not reach the reported endpoint")
        _require(math.isclose(info["residual"], math.sqrt(2.0 * J),
                              rel_tol=1e-9, abs_tol=1e-12),
                 "reported residual disagrees with the replay")
        # zero control from a zero state ends at zero: J0 = |target|^2 / 2
        _require(J <= 0.5 * float(target @ target) * (1.0 + 1e-12),
                 "search ended above its starting objective")
        grad = flows.control_gradient(traj, r, proj_idx)
        flat = np.argsort(np.abs(grad), axis=None)[-self.n_fd:]
        for i, f in zip(*np.unravel_index(flat, grad.shape)):
            cp = control.copy()
            cp[i, f] += self.fd_eps
            cm = control.copy()
            cm[i, f] -= self.fd_eps
            fd = (objective(cp)[0] - objective(cm)[0]) / (2.0 * self.fd_eps)
            rel = abs(grad[i, f] - fd) / max(abs(fd), 1e-12)
            _require(rel <= 1e-4, f"adjoint gradient vs central difference: "
                                  f"rel {rel:.2e} > 1e-4")
        if captured is None:
            return {"history_unchecked": 1}
        _require(np.all(np.diff(captured.history) <= 0.0),
                 "objective history increased")


class QuadvarC:
    """Quadratic-variation bad-event ensemble: dense Hoelder scans dominate."""

    name = "quadvar-c"
    capture = None

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])

    def next_config(self):
        return {"kind": "quadvar",
                "sim": {"nu": 0.5, "forcing": CANONICAL_FORCING,
                        "seed": int(self.rng.integers(SEED_RANGE))},
                "analysis": {"delta_cap": 0.02, "horizon": 1.0,
                             "n_processes": 2, "n_paths": 20}}

    def check(self, config, out_dir, manifest, captured):
        _, rows = _read_rows(out_dir / "events.csv")
        _require([row[0] for row in rows] == ["small_quadratic_variation",
                                              "large_cross_variation",
                                              "large_holder_norm"],
                 "events.csv lists the wrong events")
        cells = [[_number(cell) for cell in row[1:]] for row in rows]
        for row, values in zip(rows, cells):
            freq, lo, hi = (v for v, _ in values[:3])
            _require(0.0 <= lo <= freq <= hi <= 1.0,
                     f"Wilson interval misses the {row[0]} frequency")
        # event a: the analytic bound must not sit below the whole interval
        _require(cells[0][1][0] <= cells[0][3][0],
                 "event-a frequency exceeds its analytic bound")
        return {"numpy_repr_cells":
                sum(bad for values in cells for _, bad in values)}


def _number(cell: str):
    """(value, 1 if the cell was written as a numpy repr like np.float64(x))."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        return float(cell[len("np.float64("):-1]), 1
    return float(cell), 0


WORKLOADS = {w.name: w for w in (TailR3, GramR4, ControlR8, QuadvarC)}
