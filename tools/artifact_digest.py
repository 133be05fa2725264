"""One sha256 per CLI kind, and one overall, over a fixed list of configs.

Each config runs through `vortexlab.cli.run_experiment` in a temporary
directory. A kind's digest covers, config by config and file by file in
name order, every data artifact and the manifest without its
`wall_time_s`, the one field that differs between equal runs. Two
checkouts whose digests agree wrote the same bytes for every config.

    python tools/artifact_digest.py            # the checkout holding this file
    python tools/artifact_digest.py OTHER_DIR  # the checkout at OTHER_DIR

The second form imports `OTHER_DIR/src`, so the same list runs on a
checkout that has no `tools/` directory, such as a parent commit.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

CANONICAL = [[1, 0], [-1, 0], [1, 1], [-1, -1]]
ONE_SIGNED = [[-1, -2], [0, 2], [0, -2]]  # closure 16 of the 28 modes
SUBSPACE = [[0, 1], [2, 1], [0, -1], [-2, -1]]


def _sim(radius, dt, t_final, seed=0, forcing=CANONICAL, **extra):
    return dict(nu=0.5, forcing=forcing, radius=radius, dt=dt,
                t_final=t_final, seed=seed, **extra)


def _control(sim, s=0.0, max_iters=10):
    return {"kind": "control", "sim": sim,
            "analysis": {"projection": [[0, 1], [-1, -1], [1, 0]],
                         "target": [0.1, -0.05, 0.15], "t": sim["t_final"],
                         "s": s, "max_iters": max_iters}}


CONFIGS = [
    {"kind": "lattice", "sim": _sim(3.0, 1e-3, 0.1)},
    {"kind": "lattice", "sim": _sim(3.0, 1e-3, 0.1, forcing=ONE_SIGNED)},
    {"kind": "simulate", "sim": _sim(4.0, 1e-3, 0.05, seed=7),
     "analysis": {"n_paths": 2}},
    {"kind": "simulate", "sim": _sim(3.0, 1e-2, 0.2, forcing=[],
                                     initial={"1,2": 0.3, "-2,1": -0.2})},
    {"kind": "simulate", "sim": _sim(3.0, 1e-3, 0.05, seed=3,
                                     forcing=ONE_SIGNED),
     "analysis": {"n_paths": 3}},
    {"kind": "malliavin", "sim": _sim(3.0, 1e-3, 0.1, seed=11),
     "analysis": {"subspace": SUBSPACE, "t": 0.1, "n_paths": 100}},
    {"kind": "malliavin", "sim": _sim(4.0, 1e-3, 0.1, seed=12),
     "analysis": {"subspace": SUBSPACE, "t": 0.1, "n_paths": 100}},
    {"kind": "malliavin", "sim": _sim(3.0, 1e-3, 0.1, seed=13,
                                      forcing=ONE_SIGNED),
     "analysis": {"subspace": [[0, 2], [-1, -2], [1, 0]], "t": 0.1,
                  "n_paths": 20}},
    {"kind": "quadvar", "sim": {"nu": 0.5, "forcing": CANONICAL, "seed": 5},
     "analysis": {"delta_cap": 0.02, "horizon": 1.0, "n_processes": 2,
                  "n_paths": 20}},
    _control(_sim(3.0, 1e-2, 0.2)),
    _control(_sim(3.0, 1e-2, 0.2), s=0.1),
    _control(_sim(3.0, 1e-2, 0.2, initial={"0,1": 0.2, "2,1": -0.1})),
    _control(_sim(8.1, 5e-3, 0.1), max_iters=2),
    {"kind": "bracket", "sim": _sim(3.0, 1e-3, 0.1, seed=2),
     "analysis": {"phi_mode": [1, 2], "t0": 0.02, "t1": 0.08}},
    {"kind": "bracket", "sim": _sim(3.0, 1e-3, 0.1, seed=2,
                                    forcing=ONE_SIGNED),
     "analysis": {"phi_mode": [0, 2], "t0": 0.02, "t1": 0.08}},
]


def digests(run_experiment) -> dict:
    """{kind: sha256 hex} over CONFIGS, plus "all" over the kinds' digests."""
    by_kind = {}
    for number, config in enumerate(CONFIGS):
        h = by_kind.setdefault(config["kind"], hashlib.sha256())
        with tempfile.TemporaryDirectory() as out:
            manifest = run_experiment(json.loads(json.dumps(config)), out)
            manifest.pop("wall_time_s")
            h.update(f"{number}:manifest:".encode())
            h.update(json.dumps(manifest, sort_keys=True).encode())
            for path in sorted(Path(out).iterdir()):
                if path.name != "manifest.json":
                    h.update(f"{number}:{path.name}:".encode())
                    h.update(path.read_bytes())
    out = {kind: h.hexdigest() for kind, h in sorted(by_kind.items())}
    out["all"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
    return out


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root.resolve() / "src"))
    import warnings

    from vortexlab.cli import run_experiment
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-signed tail warns
        for kind, digest in digests(run_experiment).items():
            print(f"{kind:10s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
