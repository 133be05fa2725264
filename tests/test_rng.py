"""Noise streams: one module draws every number, streams never overlap."""
import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexlab
from vortexlab import rng
from vortexlab.lattice import ForcingGeometry
from vortexlab.quadvar import sample_wiener_ensemble
from vortexlab.simulate import SimConfig, simulate

from conftest import Z_STAR

CANONICAL = ForcingGeometry(frozenset(Z_STAR))


def test_only_rng_module_uses_numpy_random():
    src = Path(vortexlab.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if "np.random" in p.read_text())
    assert users == ["rng.py"]


def test_package_imports_only_stdlib_and_numpy():
    # numpy is pyproject.toml's only runtime dependency; scipy is a test extra
    src = Path(vortexlab.__file__).parent
    outside = set()
    for p in src.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{p.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] not in ("numpy", "vortexlab")}
    assert outside == set()


def test_consecutive_steps_share_no_draw():
    # six forced modes: an overlapping step stream repeats draws here
    six = ForcingGeometry(frozenset(Z_STAR) | {(0, 1), (0, -1)})
    cfg = SimConfig(nu=0.5, forcing=six, radius=3.0, dt=1e-4, t_final=0.2,
                    seed=5)
    incs = simulate(cfg, [2]).increments
    assert incs.shape == (2000, 6)
    shared = [i for i in range(len(incs) - 1)
              if np.intersect1d(incs[i], incs[i + 1]).size]
    assert shared == []


def test_simulate_and_wiener_streams_share_no_normal():
    # dt = 0.25 makes both scalings (by 0.5) exact, so equal draws would
    # show as equal increments
    cfg = SimConfig(nu=1.0, forcing=CANONICAL, radius=2.0, dt=0.25,
                    t_final=25.0, seed=9)
    sim = simulate(cfg, [3]).increments                       # 100 x 4
    wiener = sample_wiener_ensemble([0.0, 0.25], 400, 4, seed=9)[3, :, 1]
    assert sim.size == wiener.size == 400
    assert np.intersect1d(sim, wiener).size == 0


def test_simulate_draws_one_block_per_path():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.05, seed=2 ** 64 - 3)
    traj = simulate(cfg, [6])
    want = math.sqrt(cfg.dt) * rng.normals(cfg.seed, rng.SIMULATE, 6, (50, 4))
    assert np.array_equal(traj.increments, want)


def test_each_seed_is_its_own_key():
    # a key word past 2**63 - 1 once went through float64: seeds 2**63 and
    # 2**63 + 1 drew the same normals, and negative seeds drew seed 0's
    a, b = (rng.normals(s, rng.SIMULATE, 0, 8) for s in (2 ** 63, 2 ** 63 + 1))
    assert not np.array_equal(a, b)
    # below 2**63 the key is the plain pair, so those seeds keep their draws
    plain = np.random.Philox(counter=[0, 0, 0, rng.SIMULATE], key=[5, 3])
    assert np.array_equal(rng.normals(5, rng.SIMULATE, 3, 8),
                          np.random.Generator(plain).standard_normal(8))
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                      t_final=0.05, seed=seed)


def test_replayed_increments_are_copied():
    cfg = SimConfig(nu=0.5, forcing=CANONICAL, radius=3.0, dt=1e-3,
                    t_final=0.05, seed=1)
    incs = simulate(cfg).increments.copy()
    traj = simulate(cfg, increments=incs)
    incs[:] = 7.0
    assert not np.any(traj.increments == 7.0)
    assert np.array_equal(traj.increments, simulate(cfg).increments)
