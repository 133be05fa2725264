"""Command line driver: JSON config in, manifest plus CSV/JSONL out.

Subcommands mirror the library modules (lattice, simulate, malliavin,
quadvar, control, bracket). A run writes its result tables plus a
manifest.json echoing the config verbatim; result tables are byte-identical
under a fixed (config, seed) pair. Malformed or schema-violating configs
exit with status 2 before any artifact is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, rng
from .lattice import ForcingGeometry, is_generating, reachable_modes
from .malliavin import (DEFAULT_EPSILONS, PAIRING_PREFACTOR,
                        bracket_decomposition, min_eigenvalue_tail,
                        pairing_rhs)
from .modes import is_plus
from .quadvar import (GRID_TOL, ensemble_bytes, event_frequencies,
                      partition_scheme, sample_wiener_ensemble)
from .simulate import SimConfig, simulate, simulate_blocks
from .spectral import Basis, SpectralField


QUADVAR_BUDGET_BYTES = 2 ** 30
"""Largest quadvar ensemble and event pass, as quadvar.ensemble_bytes."""


class ConfigError(Exception):
    """Invalid configuration; message is path-addressed."""


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _check_keys(block, path, required, optional=()):
    if not isinstance(block, dict):
        _fail(path, "expected an object")
    for key in block:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in block:
            _fail(f"{path}.{key}", "missing required key")


def _check_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, ints past doubles
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, "must be positive")
    return float(value)


def _check_int(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _check_seed(value, path):
    if _check_int(value, path, 0) >= rng.SEED_END:
        _fail(path, f"must be at most {rng.SEED_END - 1}")
    return value


def _check_mode_list(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of [kx, ky] pairs")
    out = []
    for i, item in enumerate(value):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(c, int) and not isinstance(c, bool)
                           for c in item)):
            _fail(f"{path}[{i}]", "expected a pair of integers")
        if tuple(item) == (0, 0):
            _fail(f"{path}[{i}]", "the zero mode is excluded")
        out.append(tuple(item))
    return out


def _check_modes_in_ball(value, path, radius):
    modes, seen = _check_mode_list(value, path), set()
    for i, (k1, k2) in enumerate(modes):
        if k1 * k1 + k2 * k2 > radius * radius:
            _fail(f"{path}[{i}]", "mode outside the basis radius")
        if (k1, k2) in seen:
            _fail(f"{path}[{i}]", "repeated mode")
        seen.add((k1, k2))
    return modes


def _check_grid_time(value, path, cfg: SimConfig, positive=False):
    """A time on cfg's step grid inside [0, t_final]."""
    t = _check_number(value, path, positive)
    try:
        cfg.grid_index(t)
    except ValueError:
        _fail(path, f"must be a multiple of sim.dt in [0, {cfg.t_final}]")
    return t


_ANALYSIS_SCHEMAS = {
    "lattice": ((), ()),
    "simulate": ((), ("n_paths",)),
    "malliavin": (("subspace", "t"), ("n_paths", "epsilons")),
    "quadvar": (("delta_cap",), ("horizon", "n_processes", "n_paths")),
    "control": (("projection", "target", "t"), ("s", "max_iters", "tol")),
    "bracket": (("phi_mode", "t0", "t1"), ()),
}

KINDS = tuple(sorted(_ANALYSIS_SCHEMAS))


def parse_config(raw: dict, seed=None) -> dict:
    """Validate a raw JSON config; returns it with parsed helper objects.
    A seed that is not None overrides sim.seed."""
    _check_keys(raw, "config", ("kind", "sim"), ("analysis", "out"))
    kind = raw["kind"]
    if kind not in KINDS:
        _fail("config.kind", f"must be one of {', '.join(KINDS)}")
    sim = raw["sim"]
    _check_keys(sim, "sim", ("nu", "forcing"),
                ("radius", "dt", "t_final", "initial", "seed"))
    nu = _check_number(sim["nu"], "sim.nu", positive=True)
    forcing = _check_mode_list(sim["forcing"], "sim.forcing") \
        if sim["forcing"] != [] else []
    if sim["forcing"] == [] and kind != "simulate":
        _fail("sim.forcing", "must be non-empty for this experiment kind")
    radius = _check_number(sim.get("radius", 6.0), "sim.radius")
    if radius < 1:
        _fail("sim.radius", "must be at least 1, or the basis is empty")
    dt = _check_number(sim.get("dt", 1e-3), "sim.dt", positive=True)
    t_final = _check_number(sim.get("t_final", 1.0), "sim.t_final",
                            positive=True)
    _check_seed(sim.get("seed", 0), "sim.seed")
    if seed is not None:  # the override stands in sim.seed's place
        raw = dict(raw, sim=dict(sim, seed=_check_seed(seed, "--seed")))
    seed = raw["sim"].get("seed", 0)
    initial = sim.get("initial", {})
    if not isinstance(initial, dict):
        _fail("sim.initial", "expected an object of 'kx,ky' -> coefficient")
    init_field = SpectralField(Basis.build(radius)) if initial else None
    for key, val in initial.items():
        try:
            kx, ky = (int(part) for part in key.split(","))
        except ValueError:
            _fail(f"sim.initial.{key}", "key must look like 'kx,ky'")
        coeff = _check_number(val, f"sim.initial.{key}")
        if (kx, ky) == (0, 0):
            _fail(f"sim.initial.{key}", "the zero mode is excluded")
        if (kx, ky) not in init_field.basis.index:
            _fail(f"sim.initial.{kx},{ky}", "mode outside the basis radius")
        init_field.coeffs[init_field.basis.index[(kx, ky)]] = coeff
    try:
        cfg = SimConfig(nu=nu, forcing=ForcingGeometry(frozenset(forcing)),
                        radius=radius, dt=dt, t_final=t_final,
                        initial=init_field, seed=seed)
    except ValueError as exc:
        _fail("sim", str(exc))
    analysis = raw.get("analysis", {})
    required, optional = _ANALYSIS_SCHEMAS[kind]
    _check_keys(analysis, "analysis", required, optional)
    out = raw.get("out", ".")
    if not isinstance(out, str):
        _fail("config.out", "expected a path string")
    parsed = dict(raw)
    parsed["_sim"] = cfg
    parsed["_analysis"] = _check_analysis(kind, analysis, cfg)
    return parsed


def _check_analysis(kind, a, cfg: SimConfig) -> dict:
    """The analysis values with defaults filled in, checked against cfg."""
    if kind == "simulate":
        return {"n_paths": _check_int(a.get("n_paths", 1), "analysis.n_paths", 1)}
    if kind == "malliavin":
        epsilons = a.get("epsilons", list(DEFAULT_EPSILONS))
        if not isinstance(epsilons, list) or not epsilons:
            _fail("analysis.epsilons", "expected a non-empty list of numbers")
        return {
            "subspace": _check_modes_in_ball(a["subspace"], "analysis.subspace",
                                             cfg.radius),
            "t": _check_grid_time(a["t"], "analysis.t", cfg, positive=True),
            "n_paths": _check_int(a.get("n_paths", 100), "analysis.n_paths", 1),
            "epsilons": [_check_number(e, f"analysis.epsilons[{i}]", positive=True)
                         for i, e in enumerate(epsilons)],
        }
    if kind == "quadvar":
        delta_cap = _check_number(a["delta_cap"], "analysis.delta_cap",
                                  positive=True)
        horizon = _check_number(a.get("horizon", 1.0), "analysis.horizon",
                                positive=True)
        if delta_cap > horizon:
            _fail("analysis.delta_cap", "must not exceed the horizon")
        if delta_cap <= GRID_TOL:
            _fail("analysis.delta_cap", f"must exceed {GRID_TOL:g}")
        n_processes = _check_int(a.get("n_processes", 2),
                                 "analysis.n_processes", 1)
        n_paths = _check_int(a.get("n_paths", 100), "analysis.n_paths", 1)
        nbytes = ensemble_bytes(delta_cap, horizon, n_processes, n_paths)
        if nbytes > QUADVAR_BUDGET_BYTES:
            _fail("analysis", f"the Wiener ensemble and its event pass need "
                  f"{nbytes / 2 ** 30:.3g} GiB, over the "
                  f"{QUADVAR_BUDGET_BYTES / 2 ** 30:g} GiB budget; raise "
                  "delta_cap or lower n_paths or n_processes")
        return {
            "delta_cap": delta_cap,
            "horizon": horizon,
            "n_processes": n_processes,
            "n_paths": n_paths,
        }
    if kind == "control":
        projection = _check_modes_in_ball(a["projection"], "analysis.projection",
                                          cfg.radius)
        target = a["target"]
        if not isinstance(target, list) or len(target) != len(projection):
            _fail("analysis.target", "must match the projection length")
        t = _check_grid_time(a["t"], "analysis.t", cfg, positive=True)
        if cfg.grid_index(t) != cfg.n_steps():
            _fail("analysis.t", "must equal sim.t_final, the matched endpoint")
        s = _check_grid_time(a.get("s", 0.0), "analysis.s", cfg)
        if s >= t:
            _fail("analysis.s", "must come before analysis.t")
        return {
            "projection": projection,
            "target": [_check_number(v, f"analysis.target[{i}]")
                       for i, v in enumerate(target)],
            "s": s,
            "t": t,
            "max_iters": _check_int(a.get("max_iters", 200),
                                    "analysis.max_iters", 0),
            "tol": _check_number(a.get("tol", 1e-8), "analysis.tol",
                                 positive=True),
        }
    if kind == "bracket":
        t0 = _check_grid_time(a["t0"], "analysis.t0", cfg)
        t1 = _check_grid_time(a["t1"], "analysis.t1", cfg, positive=True)
        if t0 >= t1:
            _fail("analysis.t0", "must come before analysis.t1")
        return {"phi_mode": _check_modes_in_ball([a["phi_mode"]],
                                                 "analysis.phi_mode",
                                                 cfg.radius)[0],
                "t0": t0, "t1": t1}
    return {}


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _run_lattice(parsed, out_dir: Path):
    geometry = parsed["_sim"].forcing
    radius = parsed["_sim"].radius
    result = reachable_modes(geometry, radius)
    generating, reason = is_generating(geometry)
    # the shells are disjoint: each reached mode is written with the shell
    # that holds it (-1 for a forced mode that no shell holds)
    shell_of = {m: n for n, shell in enumerate(result.shells) for m in shell}
    rows = sorted((shell_of.get(m, -1), m) for m in result.reached)
    _write_csv(out_dir / "reachability.csv", ["kx", "ky", "shell"],
               [[m[0], m[1], n] for n, m in rows])
    summary = {
        "is_generating": generating,
        "reason": reason,
        "covers_ball": result.covers_ball(radius),
        "n_reached": len(result.reached),
    }
    return {"reachability.csv": summary}


def _run_simulate(parsed, out_dir: Path):
    cfg = parsed["_sim"]
    header = json.dumps({"header": {
        "nu": cfg.nu, "dt": cfg.dt, "t_final": cfg.t_final,
        "radius": cfg.basis().radius, "seed": cfg.seed,
        "forcing": [list(k) for k in sorted(cfg.forcing.z_star)]}}) + "\n"
    info = {}
    n_paths = parsed["_analysis"]["n_paths"]
    for block, traj in simulate_blocks(cfg, range(n_paths)):
        # path b is column b of the block; a lone path is a block of one
        times, P = traj.times.tolist(), len(block)
        states = traj.states.reshape(len(times), P, -1)
        incs = traj.increments.reshape(len(times) - 1, P, -1)
        enstrophy, h1, residual = (a.reshape(len(times), P)
                                   for a in traj.enstrophy_balance())
        for b, p in enumerate(block):
            # one record per node: time, coefficients, incoming increments
            with open(out_dir / f"trajectory_{p}.jsonl", "w") as fh:
                fh.write(header)
                for i, t in enumerate(times):
                    fh.write(json.dumps({
                        "time": t, "coeffs": states[i, b].tolist(),
                        "increments": incs[i - 1, b].tolist() if i else [],
                    }) + "\n")
            _write_csv(out_dir / f"norms_{p}.csv",
                       ["time", "enstrophy", "h1_sq"],
                       zip(times, enstrophy[:, b].tolist(),
                           h1[:, b].tolist()))
            info[f"trajectory_{p}.jsonl"] = {
                "final_enstrophy": float(enstrophy[-1, b]),
                "final_residual": float(residual[-1, b]),
            }
        del traj, states, incs  # the block is freed before the next one
    return info


def _run_malliavin(parsed, out_dir: Path):
    a = parsed["_analysis"]
    n_paths = a["n_paths"]
    table = min_eigenvalue_tail(parsed["_sim"], a["t"], a["subspace"], n_paths,
                                a["epsilons"])
    _write_csv(out_dir / "spectrum.csv",
               ["path", "lambda_min", "lambda_min_h1", "lambda_max", "trace"],
               [[p, float(table.lambda_min[p]), float(table.lambda_min_h1[p]),
                 float(table.lambda_max[p]), float(table.trace[p])]
                for p in range(n_paths)])
    _write_csv(out_dir / "tail.csv",
               ["epsilon", "frequency", "wilson_low", "wilson_high"],
               [[float(e), float(f), float(lo), float(hi)]
                for e, f, (lo, hi) in zip(table.epsilons, table.frequencies,
                                          table.intervals)])
    return {"tail.csv": {}}


def _run_quadvar(parsed, out_dir: Path):
    a = parsed["_analysis"]
    n_paths = a["n_paths"]
    scheme = partition_scheme(a["delta_cap"], a["horizon"])
    paths = sample_wiener_ensemble(scheme.nodes, a["n_processes"], n_paths,
                                   seed=parsed["_sim"].seed)
    freq = event_frequencies(paths, scheme)
    rows = [
        ["small_quadratic_variation", freq.freq_a, freq.ci_a[0],
         freq.ci_a[1], freq.bound_a],
        ["large_cross_variation", freq.freq_b, freq.ci_b[0], freq.ci_b[1],
         freq.bound_b],
        ["large_holder_norm", freq.freq_c, freq.ci_c[0], freq.ci_c[1],
         float("nan")],
    ]
    _write_csv(out_dir / "events.csv",
               ["event", "frequency", "wilson_low", "wilson_high",
                "analytic_bound"], rows)
    return {"events.csv": {"n_paths": n_paths, "m": scheme.m,
                           "delta": scheme.delta}}


def _run_control(parsed, out_dir: Path):
    from .flows import control_search
    cfg = parsed["_sim"]
    a = parsed["_analysis"]
    result = control_search(cfg, a["projection"], np.array(a["target"]),
                            a["s"], a["t"], max_iters=a["max_iters"],
                            tol=a["tol"])
    forced = sorted(cfg.forcing.z_star)
    header = ["step"] + [f"h_{k[0]}_{k[1]}" for k in forced]
    _write_csv(out_dir / "control.csv", header,
               [[i] + [float(v) for v in row]
                for i, row in enumerate(result.control)])
    return {"control.csv": {
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "achieved": [float(v) for v in result.achieved],
        "history": [float(v) for v in result.history],
    }}


def _run_bracket(parsed, out_dir: Path):
    a = parsed["_analysis"]
    traj = simulate(parsed["_sim"])
    basis = traj.basis
    phi = SpectralField.single_mode(basis, a["phi_mode"])
    bd = bracket_decomposition(traj, a["t0"], a["t1"], phi)
    recon = bd.reconstructed_derivative()
    rows = []
    for i, s in enumerate(bd.times):
        rows.append([float(s), float(np.max(np.abs(bd.U[i]))),
                     float(np.max(np.abs(bd.X[i]))),
                     float(np.max(np.abs(recon[i])))])
    _write_csv(out_dir / "bracket.csv",
               ["s", "sup_U", "sup_X", "sup_reconstructed_dU"], rows)
    plus = [k for k in basis.modes if is_plus(k)]
    worst = 0.0
    for a, j in enumerate(bd.forced_modes):
        if not is_plus(j):
            continue
        for l in plus:
            li = basis.index[l]
            lhs_series = PAIRING_PREFACTOR * bd.Y[a, :, li]
            rhs_series = pairing_rhs(basis, bd.U, j, l)
            worst = max(worst, float(np.max(np.abs(lhs_series - rhs_series))))
    return {"bracket.csv": {"max_pairing_violation": worst,
                            "pairing_prefactor": float(PAIRING_PREFACTOR)}}


_RUNNERS = {
    "lattice": _run_lattice,
    "simulate": _run_simulate,
    "malliavin": _run_malliavin,
    "quadvar": _run_quadvar,
    "control": _run_control,
    "bracket": _run_bracket,
}


def run_experiment(raw_config: dict, out_dir=None, seed=None) -> dict:
    """Validate, dispatch, and persist one experiment; returns the manifest."""
    parsed = parse_config(raw_config, seed)
    out = Path(out_dir) if out_dir is not None else Path(parsed.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    manifest = {
        "config": {k: v for k, v in parsed.items() if not k.startswith("_")},
        "version": __version__,
        "rng": rng.SCHEME,
        "status": "partial",
        "artifacts": {},
    }
    try:
        manifest["artifacts"] = _RUNNERS[parsed["kind"]](parsed, out)
        manifest["status"] = "complete"
    finally:
        # a runtime failure still leaves the partial manifest behind
        manifest["wall_time_s"] = time.monotonic() - start
        with open(out / "manifest.json", "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="spectral vorticity laboratory experiment runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print("error: config root must be an object", file=sys.stderr)
        return 2
    raw["kind"] = args.kind if "kind" not in raw else raw["kind"]
    if raw["kind"] != args.kind:
        print(f"error: config kind {raw['kind']!r} does not match "
              f"subcommand {args.kind!r}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(raw, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:                      # noqa: BLE001
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(manifest['artifacts'])} "
          f"(status {manifest['status']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
