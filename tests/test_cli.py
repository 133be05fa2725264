"""Experiment runner: config validation, artifacts, reproducibility."""
import dataclasses
import filecmp
import importlib.util
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from vortexlab import cli, rng
from vortexlab import simulate as simulate_module
from vortexlab.cli import ConfigError, main, parse_config, run_experiment
from vortexlab.simulate import block_size, simulate

from conftest import whole_ball

BASE_SIM = {
    "nu": 1.0,
    "forcing": [[1, 0], [-1, 0], [1, 1], [-1, -1]],
    "radius": 2.0,
    "dt": 0.002,
    "t_final": 0.05,
    "seed": 7,
}


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------- validation

def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"kind": "lattice", "sim": BASE_SIM, "bogus": 1})
    with pytest.raises(ConfigError):
        parse_config({"kind": "lattice",
                      "sim": dict(BASE_SIM, extra=2)})


def test_readme_json_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"kind": "nope", "sim": BASE_SIM})
    with pytest.raises(ConfigError):
        parse_config({"kind": "lattice", "sim": dict(BASE_SIM, nu=-1.0)})
    with pytest.raises(ConfigError):
        parse_config({"kind": "lattice",
                      "sim": dict(BASE_SIM, forcing=[[0, 0]])})
    with pytest.raises(ConfigError):
        parse_config({"kind": "lattice",
                      "sim": dict(BASE_SIM, seed=True)})
    # empty forcing only allowed for plain simulation
    with pytest.raises(ConfigError):
        parse_config({"kind": "lattice", "sim": dict(BASE_SIM, forcing=[])})
    parse_config({"kind": "simulate", "sim": dict(BASE_SIM, forcing=[])})
    # with no forced mode to fall outside it, radius 0.5 leaves the basis empty
    with pytest.raises(ConfigError, match=r"sim\.radius: must be at least 1"):
        parse_config({"kind": "simulate",
                      "sim": dict(BASE_SIM, forcing=[], radius=0.5)})


def test_parse_config_initial_keys():
    cfg = {"kind": "simulate",
           "sim": dict(BASE_SIM, initial={"1,0": 0.5})}
    parsed = parse_config(cfg)
    initial = parsed["_sim"].initial
    assert initial.coeffs[initial.basis.index[(1, 0)]] == 0.5
    assert np.count_nonzero(initial.coeffs) == 1
    with pytest.raises(ConfigError):
        parse_config({"kind": "simulate",
                      "sim": dict(BASE_SIM, initial={"oops": 0.5})})
    with pytest.raises(ConfigError,
                       match=r"sim\.initial\.0,0: the zero mode is excluded"):
        parse_config({"kind": "simulate",
                      "sim": dict(BASE_SIM, initial={"0,0": 0.5})})


# ---------------------------------------------------------- subcommands

def test_lattice_subcommand(tmp_path, capsys):
    cfg = {"sim": dict(BASE_SIM, radius=6.0)}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["lattice", "--config", path, "--out", str(out)]) == 0
    assert "status complete" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    summary = manifest["artifacts"]["reachability.csv"]
    assert summary["is_generating"] is True
    assert summary["covers_ball"] is True
    rows = (out / "reachability.csv").read_text().strip().splitlines()
    assert rows[0] == "kx,ky,shell"
    assert len(rows) > 10
    # each reached mode is written once, with the one shell that holds it
    assert len(rows) - 1 == summary["n_reached"]
    labels = [tuple(row.split(",")[:2]) for row in rows[1:]]
    assert len(set(labels)) == len(labels)
    # past 64 shells the search still runs to its fixed point
    path = write_config(tmp_path, "c30.json",
                        {"sim": dict(BASE_SIM, radius=30.0)})
    out = tmp_path / "out30"
    assert main(["lattice", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = manifest["artifacts"]["reachability.csv"]
    assert summary["covers_ball"] is True and summary["n_reached"] == 2820


def test_simulate_subcommand_heat_decay(tmp_path):
    # empty forcing, one seeded mode: the recorded coefficients must follow
    # the exact heat decay
    cfg = {"sim": dict(BASE_SIM, forcing=[], initial={"1,1": 1.0})}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trajectory_0.jsonl").read_text().strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["forcing"] == []
    recs = [json.loads(x) for x in lines[1:]]
    basis_modes = []   # reconstruct the (1,1) column from the lex order
    r = 2.0
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            if (k1, k2) != (0, 0) and k1 * k1 + k2 * k2 <= r * r:
                basis_modes.append((k1, k2))
    basis_modes.sort()
    col = basis_modes.index((1, 1))
    for rec in recs:
        want = np.exp(-1.0 * 2.0 * rec["time"])
        assert rec["coeffs"][col] == pytest.approx(want, abs=1e-12)


def test_simulate_jsonl_roundtrip(tmp_path):
    raw = {"kind": "simulate", "sim": dict(BASE_SIM, dt=1e-2, seed=3)}
    run_experiment(raw, out_dir=tmp_path)
    cfg = parse_config(raw)["_sim"]
    traj = simulate(cfg)
    lines = (tmp_path / "trajectory_0.jsonl").read_text().strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["nu"] == 1.0 and header["seed"] == 3
    recs = [json.loads(x) for x in lines[1:]]
    assert len(recs) == cfg.n_steps() + 1
    states = np.array([r["coeffs"] for r in recs])
    assert np.array_equal(states, traj.states)
    incs = np.array([r["increments"] for r in recs[1:]])
    assert np.array_equal(incs, traj.increments)


def test_simulate_norms_csv(tmp_path):
    raw = {"kind": "simulate", "sim": dict(BASE_SIM, dt=1e-2, seed=3)}
    run_experiment(raw, out_dir=tmp_path)
    traj = simulate(parse_config(raw)["_sim"])
    rows = (tmp_path / "norms_0.csv").read_text().strip().splitlines()
    assert rows[0] == "time,enstrophy,h1_sq"
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    enstrophy, h1, _ = traj.enstrophy_balance()
    assert np.array_equal(values[:, 1], enstrophy)
    assert np.array_equal(values[:, 2], h1)


def test_simulate_writes_each_path_of_every_block(tmp_path):
    # radius 4 takes 27 paths a block, so 30 paths are blocks of 27 and 3
    raw = {"kind": "simulate",
           "sim": dict(BASE_SIM, radius=4.0, dt=1e-2, t_final=0.05),
           "analysis": {"n_paths": 30}}
    manifest = run_experiment(raw, out_dir=tmp_path)
    cfg = parse_config(raw)["_sim"]
    assert block_size(cfg, 30) == 27
    assert len(manifest["artifacts"]) == 30
    for p in range(30):
        traj = simulate(cfg, [p])
        lines = (tmp_path / f"trajectory_{p}.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["header"]["radius"] == 4.0
        recs = [json.loads(x) for x in lines[1:]]
        assert [r["time"] for r in recs] == traj.times.tolist()
        assert np.array_equal([r["coeffs"] for r in recs], traj.states)
        assert np.array_equal([r["increments"] for r in recs[1:]],
                              traj.increments)
        assert recs[0]["increments"] == []
        rows = (tmp_path / f"norms_{p}.csv").read_text().strip().splitlines()
        values = np.array([[float(v) for v in row.split(",")]
                           for row in rows[1:]])
        enstrophy, h1, residual = traj.enstrophy_balance()
        assert np.array_equal(values, np.column_stack(
            [traj.times, enstrophy, h1]))
        info = manifest["artifacts"][f"trajectory_{p}.jsonl"]
        assert info == {"final_enstrophy": float(enstrophy[-1]),
                        "final_residual": float(residual[-1])}


def test_malliavin_subcommand(tmp_path):
    cfg = {"sim": BASE_SIM,
           "analysis": {"subspace": [[1, 0], [1, 1]], "t": 0.05,
                        "n_paths": 5, "epsilons": [0.1, 0.01]}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["malliavin", "--config", path, "--out", str(out)]) == 0
    spectrum = (out / "spectrum.csv").read_text().strip().splitlines()
    assert len(spectrum) == 6
    tail = (out / "tail.csv").read_text().strip().splitlines()
    assert tail[0] == "epsilon,frequency,wilson_low,wilson_high"
    assert len(tail) == 3
    # the tail is its frequencies; the manifest lists it with nothing fitted
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"]["tail.csv"] == {}


def test_quadvar_subcommand(tmp_path):
    cfg = {"sim": BASE_SIM,
           "analysis": {"delta_cap": 0.2, "horizon": 1.0,
                        "n_processes": 2, "n_paths": 20}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["quadvar", "--config", path, "--out", str(out)]) == 0
    rows = (out / "events.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert rows[1].startswith("small_quadratic_variation")
    for row in rows[1:]:
        for cell in row.split(",")[1:]:
            float(cell)    # plain float reprs, never "np.float64(...)"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"]["events.csv"]["m"] == 5


def test_control_subcommand(tmp_path):
    cfg = {"sim": BASE_SIM,
           "analysis": {"projection": [[1, 0], [1, 1]],
                        "target": [0.1, -0.05], "t": 0.05}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    info = manifest["artifacts"]["control.csv"]
    assert info["converged"] is True
    assert info["residual"] < 1e-3
    # the search's objective history: the start plus one value per iteration
    assert len(info["history"]) == info["iterations"] + 1
    assert info["history"][-1] == pytest.approx(info["residual"] ** 2 / 2,
                                                rel=1e-12)
    assert all(isinstance(v, float) for v in info["history"])
    rows = (out / "control.csv").read_text().strip().splitlines()
    assert rows[0] == "step,h_-1_-1,h_-1_0,h_1_0,h_1_1"


def test_control_runs_on_a_basis_without_triads(tmp_path):
    # radius 1: four modes and no triads, so the drift is linear
    cfg = {"sim": {"nu": 0.5, "forcing": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                   "radius": 1.0, "dt": 0.01, "t_final": 0.1},
           "analysis": {"projection": [[1, 0]], "target": [0.1], "t": 0.1,
                        "max_iters": 3}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", path, "--out", str(out)]) == 0
    info = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert info["control.csv"]["iterations"] == 3
    rows = (out / "control.csv").read_text().strip().splitlines()
    assert rows[0] == "step,h_-1_0,h_0_-1,h_0_1,h_1_0"
    assert len(rows) == 11


def test_bracket_subcommand(tmp_path):
    cfg = {"sim": dict(BASE_SIM, radius=3.0),
           "analysis": {"phi_mode": [2, 1], "t0": 0.01, "t1": 0.05}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["bracket", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    info = manifest["artifacts"]["bracket.csv"]
    assert info["max_pairing_violation"] < 1e-10
    rows = (out / "bracket.csv").read_text().strip().splitlines()
    assert rows[0] == "s,sup_U,sup_X,sup_reconstructed_dU"


# ------------------------------------------------------------ exit codes

def test_exit_2_on_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["lattice", "--config", str(p)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_exit_2_on_missing_file(tmp_path):
    assert main(["lattice", "--config", str(tmp_path / "absent.json")]) == 2


def test_exit_2_on_non_object_root(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    assert main(["lattice", "--config", str(p)]) == 2


def test_exit_2_on_kind_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, "c.json",
                        {"kind": "simulate", "sim": BASE_SIM})
    assert main(["lattice", "--config", path]) == 2
    assert "does not match" in capsys.readouterr().err


MALLIAVIN = {"subspace": [[1, 0], [1, 1]], "t": 0.05}
CONTROL = {"projection": [[1, 0], [1, 1]], "target": [0.1, -0.05], "t": 0.05}
BRACKET = {"phi_mode": [2, 1], "t0": 0.01, "t1": 0.05}


def test_exit_2_on_schema_error_writes_no_manifest(tmp_path):
    cfg = {"sim": BASE_SIM, "analysis": {"bogus_key": 1}}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["malliavin", "--config", path, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


def test_quadvar_budget_counts_the_event_pass():
    # the ensemble is tiny either way; the pass's pair products grow as
    # n_processes squared and reject 20,000 processes
    def parse(n_processes):
        return parse_config({"kind": "quadvar", "sim": BASE_SIM, "analysis": {
            "delta_cap": 0.5, "n_processes": n_processes, "n_paths": 1}})

    assert parse(1_000)["_analysis"]["n_processes"] == 1_000
    with pytest.raises(ConfigError, match="event pass need 10.8 GiB"):
        parse(20_000)


def test_quadvar_budget_counts_event_c():
    # one path of 4.65M nodes per process: the ensemble is 0.17 GiB at 5
    # processes, and event c scans the path's five series at once
    def parse(n_processes):
        return parse_config({"kind": "quadvar", "sim": BASE_SIM, "analysis": {
            "delta_cap": 1e-4, "n_processes": n_processes, "n_paths": 1}})

    assert parse(4)["_analysis"]["n_processes"] == 4
    with pytest.raises(ConfigError, match="event pass need 1.18 GiB"):
        parse(5)


# each is rejected before its runner starts
@pytest.mark.parametrize("kind, sim, analysis", [
    pytest.param("simulate", {}, {"n_paths": 2.5}, id="n_paths-fraction"),
    pytest.param("simulate", {}, {"n_paths": -3}, id="n_paths-negative"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, epsilons="x"),
                 id="epsilons-string"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, epsilons=[]),
                 id="epsilons-empty"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, epsilons=[0.1, -1.0]),
                 id="epsilons-negative"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, t=0.031), id="t-off-grid"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, t=0.06), id="t-past-end"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, subspace=[[3, 0]]),
                 id="subspace-outside-radius"),
    pytest.param("malliavin", {}, dict(MALLIAVIN, subspace=[[1, 1], [1, 1]]),
                 id="subspace-repeated-mode"),
    pytest.param("quadvar", {}, {"delta_cap": 0.2, "n_processes": 0},
                 id="n_processes-zero"),
    pytest.param("quadvar", {}, {"delta_cap": 2.0}, id="delta_cap-past-horizon"),
    pytest.param("quadvar", {}, {"delta_cap": 1e-10},
                 id="delta_cap-below-grid-tol"),
    pytest.param("quadvar", {}, {"delta_cap": 1e-4},
                 id="quadvar-ensemble-over-budget"),
    # an ensemble of 0.8 MB whose a/b pass would hold about 10 GiB of pair
    # products; never run
    pytest.param("quadvar", {}, {"delta_cap": 0.5, "n_processes": 20_000,
                                 "n_paths": 1},
                 id="quadvar-event-pass-over-budget"),
    # an ensemble of 0.17 GiB whose event c scan needs 1 GiB more; never run
    pytest.param("quadvar", {}, {"delta_cap": 1e-4, "n_processes": 5,
                                 "n_paths": 1},
                 id="quadvar-event-c-over-budget"),
    pytest.param("control", {}, dict(CONTROL, tol="a"), id="tol-string"),
    pytest.param("control", {}, dict(CONTROL, max_iters=1.5),
                 id="max_iters-fraction"),
    pytest.param("control", {}, dict(CONTROL, t=0.02), id="control-t-not-final"),
    pytest.param("control", {}, dict(CONTROL, s=0.05), id="control-s-not-before-t"),
    pytest.param("control", {}, dict(CONTROL, target=[0.1]),
                 id="target-length"),
    pytest.param("control", {}, dict(CONTROL, projection=[[2, 2]], target=[0.1]),
                 id="projection-outside-radius"),
    pytest.param("control", {}, dict(CONTROL, projection=[[1, 0], [1, 0]]),
                 id="projection-repeated-mode"),
    pytest.param("bracket", {"radius": 3.0}, dict(BRACKET, phi_mode=[3, 1]),
                 id="phi_mode-outside-radius"),
    pytest.param("bracket", {"radius": 3.0}, dict(BRACKET, t0=0.05),
                 id="bracket-t0-not-before-t1"),
    pytest.param("simulate", {"dt": 0.3, "t_final": 1.0}, {},
                 id="horizon-not-whole-steps"),
    pytest.param("simulate", {"initial": {"3,0": 1.0}}, {},
                 id="initial-outside-radius"),
    pytest.param("simulate", {"forcing": [], "radius": 0.5}, {},
                 id="radius-below-one"),
])
def test_exit_2_on_invalid_value_writes_no_manifest(tmp_path, monkeypatch,
                                                    kind, sim, analysis):
    def runner_started(parsed, out_dir):
        raise AssertionError("the runner started on an invalid config")

    monkeypatch.setitem(cli._RUNNERS, kind, runner_started)
    cfg = {"sim": dict(BASE_SIM, **sim), "analysis": analysis}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


# each exits 2 from the parser, before the output directory is made
@pytest.mark.parametrize("kind, cfg, argv, message", [
    pytest.param("lattice", {"sim": [1.0]}, [], "sim: expected an object",
                 id="block-not-an-object"),
    pytest.param("lattice", {"sim": {"forcing": BASE_SIM["forcing"]}}, [],
                 "sim.nu: missing required key", id="key-missing"),
    pytest.param("lattice", {"sim": dict(BASE_SIM, nu=math.inf)}, [],
                 "sim.nu: must be finite", id="number-not-finite"),
    pytest.param("lattice", {"sim": dict(BASE_SIM, nu=10 ** 400)}, [],
                 "sim.nu: must be finite", id="integer-of-401-digits"),
    pytest.param("lattice", {"sim": dict(BASE_SIM, forcing="x")}, [],
                 "sim.forcing: expected a non-empty list",
                 id="mode-list-not-a-list"),
    pytest.param("malliavin", {"sim": BASE_SIM,
                               "analysis": dict(MALLIAVIN, subspace=[])}, [],
                 "analysis.subspace: expected a non-empty list",
                 id="mode-list-empty"),
    pytest.param("lattice", {"sim": dict(BASE_SIM, forcing=[[1, 0], [1, 0.5]])},
                 [], "sim.forcing[1]: expected a pair of integers",
                 id="pair-not-two-integers"),
    pytest.param("simulate", {"sim": dict(BASE_SIM, initial=[0.5])}, [],
                 "sim.initial: expected an object", id="initial-not-an-object"),
    pytest.param("lattice", {"sim": BASE_SIM, "out": 3}, [],
                 "config.out: expected a path string", id="out-not-a-string"),
    pytest.param("simulate", {"sim": dict(BASE_SIM, seed=-1)}, [],
                 "sim.seed: must be at least 0", id="seed-negative"),
    pytest.param("simulate", {"sim": dict(BASE_SIM, seed=2 ** 64)}, [],
                 "sim.seed: must be at most 18446744073709551615",
                 id="seed-past-64-bits"),
    pytest.param("simulate", {"sim": BASE_SIM}, ["--seed", "-3"],
                 "--seed: must be at least 0", id="seed-override-negative"),
    pytest.param("simulate", {"sim": BASE_SIM},
                 ["--seed", "18446744073709551616"],
                 "--seed: must be at most 18446744073709551615",
                 id="seed-override-past-64-bits"),
])
def test_exit_2_on_rejected_value_writes_nothing(tmp_path, capsys, kind, cfg,
                                                 argv, message):
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_repeated_mode_is_named_by_its_path(tmp_path, capsys):
    # a repeated mode makes the projected matrix singular by construction
    # (and a control target unreachable): the second copy is named
    sim = dict(BASE_SIM, radius=3.0, seed=1)
    cfg = {"sim": sim, "analysis": dict(MALLIAVIN,
                                        subspace=[[2, 1], [2, 1], [0, 1]])}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["malliavin", "--config", path, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()
    assert "analysis.subspace[1]: repeated mode" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"analysis\.projection\[2\]: repeated"):
        parse_config({"kind": "control", "sim": BASE_SIM, "analysis": dict(
            CONTROL, projection=[[1, 0], [0, 1], [1, 0]], target=[1, 2, 3])})
    # a mode and its negative are distinct basis functions (sine, cosine)
    parse_config({"kind": "control", "sim": BASE_SIM, "analysis": dict(
        CONTROL, projection=[[1, 0], [-1, 0]])})


def test_exit_1_on_runtime_failure_writes_partial_manifest(tmp_path):
    # huge dt + huge initial data blows up mid-run
    sim = dict(BASE_SIM, forcing=[], dt=0.4, t_final=4.0, radius=3.0,
               initial={"1,1": 1e9, "2,1": -1e9, "1,0": 1e9})
    path = write_config(tmp_path, "c.json", {"sim": sim})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "partial"


# -------------------------------------------------------- reproducibility

def test_data_artifacts_byte_identical_across_runs(tmp_path):
    cfg = {"sim": BASE_SIM,
           "analysis": {"subspace": [[1, 0], [1, 1]], "t": 0.05,
                        "n_paths": 3}}
    path = write_config(tmp_path, "c.json", cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["malliavin", "--config", path, "--out", str(out1)]) == 0
    assert main(["malliavin", "--config", path, "--out", str(out2)]) == 0
    for name in ("spectrum.csv", "tail.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    # manifests agree except for wall time
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_work_skipping_shortcuts_change_no_artifact_byte(monkeypatch):
    # the closure's rows, its E x E block and the leading zero nodes skip
    # only +-0 work: the artifact digest tool's configs, every CLI kind,
    # write the same bytes with each shortcut off
    spec = importlib.util.spec_from_file_location(
        "artifact_digest",
        Path(__file__).parents[1] / "tools" / "artifact_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert {c["kind"] for c in tool.CONFIGS} == set(cli.KINDS)
    seen = []

    @dataclasses.dataclass
    class Recorded(simulate_module.Trajectory):
        def __post_init__(self):
            seen.append((self.zero_nodes, self.closure))

    @dataclasses.dataclass
    class EveryNode(simulate_module.Trajectory):
        def __post_init__(self):
            self.zero_nodes = 0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-signed tail warns
        monkeypatch.setattr(simulate_module, "Trajectory", Recorded)
        fast = tool.digests(run_experiment)
        whole_ball(monkeypatch)
        monkeypatch.setattr(simulate_module, "Trajectory", EveryNode)
        slow = tool.digests(run_experiment)
    # the first pass took each shortcut: zero nodes, a split closure
    # smaller than the ball, and one with cross terms
    assert any(zeros for zeros, _ in seen)
    assert {(c.mask.all(), c.split) for _, c in seen} >= {
        (False, True), (False, False)}
    assert slow == fast


def test_seed_override_changes_results(tmp_path):
    cfg = {"sim": BASE_SIM, "analysis": {"n_paths": 1}}
    path = write_config(tmp_path, "c.json", cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2),
                 "--seed", "123"]) == 0
    assert not filecmp.cmp(out1 / "trajectory_0.jsonl",
                           out2 / "trajectory_0.jsonl", shallow=False)
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["config"]["sim"]["seed"] == 123


def test_run_experiment_api_returns_manifest(tmp_path):
    manifest = run_experiment(
        {"kind": "lattice", "sim": dict(BASE_SIM, radius=4.0)},
        out_dir=tmp_path)
    assert manifest["status"] == "complete"
    assert "reachability.csv" in manifest["artifacts"]
    assert manifest["config"]["kind"] == "lattice"
    assert manifest["rng"] == rng.SCHEME
