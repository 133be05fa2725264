"""vortexlab benchmark: one client, a closed loop of `run_experiment` ops.

Run from the repository root:

    python3 bench/run.py --workload gram-r4 --seed 1 --seconds 25 --trace 0

Each op is one `vortexlab.cli.run_experiment` call on a config drawn from
the workload seed; the next op starts when the previous one and its
(untimed) correctness check are done. Everything runs in this process
except the set-up probes, which repeat this process's set-up in fresh
interpreters, one after another, before the timed phase.

Op times are reported in probe units ("ref"): each op's wall time divided
by the mean time of a fixed speed probe run just before and just after it
(see `SpeedProbe`), so that the host's speed drift cancels out. Wall-clock
figures are printed and recorded next to them.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced ops on the same configs and prints the per-module metrics plus the
tracing overhead. The last stdout line is the JSON result; a record of the
run goes to .bench_results/ under the repository root.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4          # fresh-process set-ups on top of this process's own
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
WALL_CLOCK = (("ops_per_s", "op/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_wall_s", "s"), ("probe_p50_s", "s"))
REF_PROBE_S = 0.075       # median probe time on the 2-vCPU VM it was tuned on


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare():
    """Pin BLAS/OpenMP to one thread, then import vortexlab from ROOT/src.

    An op's BLAS calls are small (48x48 at most), so a second thread only
    spins, and on a shared host it makes op times depend on what the other
    cores run. Raises ImportError when the checkout has no program to measure.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vortexlab
    if not Path(vortexlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vortexlab comes from {vortexlab.__file__}, "
                          f"not from {src}")


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "platform": platform.platform(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


class Runner:
    """Runs, times and checks ops of one workload inside one directory."""

    def __init__(self, workload, out_dir: Path):
        from vortexlab import cli
        from tracing import module_sites
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.findings = Counter()   # check notes that do not fail an op
        self.captured = None
        # keep the last return value of the function the check reads, at
        # every module attribute that holds it; one extra call per use
        original = None
        if workload.capture is not None:
            module, attr = workload.capture
            original = getattr(importlib.import_module(f"vortexlab.{module}"),
                               attr, None)
        if original is not None:
            def keep(*args, **kwargs):
                self.captured = original(*args, **kwargs)
                return self.captured
            for mod, key in module_sites(original):
                setattr(mod, key, keep)

    def execute(self, config, tracer=None):
        """One op; returns (seconds, manifest or None, traceback or None)."""
        self.captured = None
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            manifest = self.cli.run_experiment(config, out_dir=self.out_dir)
            error = None
        except Exception:  # noqa: BLE001 - any raise is a failed op
            manifest, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        return elapsed, manifest, error

    def verify(self, config, manifest, error):
        """Counts the op; returns (passed, bytes of its data artifacts)."""
        self.attempted += 1
        size = sum(p.stat().st_size for p in self.out_dir.glob("*")
                   if p.name != "manifest.json")
        if error is None:
            try:
                self.findings.update(self.workload.check(
                    config, self.out_dir, manifest, self.captured) or {})
            except Exception:  # noqa: BLE001 - a raising check fails the op
                error = traceback.format_exc()
        if error is not None:
            self.failed += 1
            print(f"op {self.attempted} failed:\n{error}", file=sys.stderr)
        return error is None, size


def setup_probe_times(args):
    """[seconds, cost in ref] of the set-ups of SETUP_PROBES fresh
    interpreters, run one by one."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup"])
    return out


class SpeedProbe:
    """A fixed task that uses no vortexlab code, to time the host.

    The host's CPU speed drifts by up to half within a minute, and the work
    that fills an op slows with it. Each op is bracketed by two runs of this
    probe; the op's wall time divided by their mean is its cost in probe
    units ("ref"), from which the drift cancels. The probe mixes, in about
    equal time, the five kinds of work ops are made of: interpreter loops,
    `np.add.at` scatter-adds, chains of ufuncs on small arrays, ufuncs on
    dense N x N arrays, and page faults on fresh memory (half of a quadvar-c
    op is kernel time spent faulting in its large temporaries). All of its
    memory is made once (about 7 MiB) and stays resident, so the probe adds
    a constant to `peak_rss_mb` and never sets a peak of its own.
    """

    def __init__(self):
        import mmap

        import numpy as np
        rng = np.random.default_rng(12345)
        self.np = np
        self.idx = rng.integers(0, 2000, 50000)
        self.val = rng.standard_normal(50000)
        self.out = np.zeros(2000)
        self.small = rng.standard_normal(28)
        self.times = np.linspace(0.0, 1.0, 300)
        self.path = np.cumsum(rng.standard_normal(300))
        self.dt = np.empty((300, 300))
        self.dv = np.empty((300, 300))
        self.ratio = np.empty((300, 300))
        self.mask = np.empty((300, 300), dtype=bool)
        self.region = mmap.mmap(-1, 4 << 20)
        self.pages = np.frombuffer(self.region, dtype=np.float64)
        self.pages.fill(1.0)
        self.dontneed = mmap.MADV_DONTNEED

    def __call__(self) -> float:
        np, small, t, v = self.np, self.small, self.times, self.path
        dt, dv, ratio, mask = self.dt, self.dv, self.ratio, self.mask
        start = time.perf_counter()
        acc = 0
        for i in range(150000):
            acc += i * i
        for _ in range(110):
            np.add.at(self.out, self.idx, self.val)
        x = small
        for _ in range(5500):
            x = np.tanh(x * 0.5 + small)
        for _ in range(9):
            # a Hoelder-ratio scan, as quadvar's dense kernels do it
            np.abs(np.subtract.outer(t, t, out=dt), out=dt)
            np.greater(dt, 0.0, out=mask)
            np.abs(np.subtract.outer(v, v, out=dv), out=dv)
            ratio.fill(1.0)
            np.copyto(ratio, dt, where=mask)
            np.power(ratio, 0.3, out=ratio)
            np.divide(dv, ratio, out=ratio)
            np.multiply(ratio, mask, out=ratio)
            ratio.max()
        for _ in range(5):
            # drop the region's pages, then fault them back in, zero-filled
            self.region.madvise(self.dontneed)
            self.pages.fill(1.0)
        return time.perf_counter() - start

    def cost(self, seconds: float) -> float:
        """seconds just spent, in probe units, by two probe runs after them."""
        self()
        return seconds / (0.5 * (self() + self()))


def untraced_loop(runner, probe, args):
    """Timed ops, each between two probe runs; returns (times, probes, passed)
    with probes[i] and probes[i + 1] around times[i]."""
    times, probes, passed = [], [probe()], 0
    deadline = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < deadline:
        config = runner.workload.next_config()
        elapsed, manifest, error = runner.execute(config)
        probes.append(probe())
        ok, _ = runner.verify(config, manifest, error)
        times.append(elapsed)
        passed += ok
    return times, probes, passed


def traced_loop(runner, args):
    """Pairs of one untraced and one traced op on the same config."""
    from tracing import Tracer, summarize_op
    tracer = Tracer()
    plain, traced, summaries, sizes, first_spans = [], [], [], [], None
    deadline = time.perf_counter() + args.seconds
    n_pairs = 0
    while n_pairs == 0 or time.perf_counter() < deadline:
        config = runner.workload.next_config()
        runs = {}
        # alternate which side runs first, so warm caches favour neither
        for with_trace in (n_pairs % 2 == 1, n_pairs % 2 == 0):
            elapsed, manifest, error = runner.execute(
                config, tracer if with_trace else None)
            spans = list(tracer.spans) if with_trace else None
            ok, size = runner.verify(config, manifest, error)
            runs[with_trace] = (elapsed, ok, spans, size)
        n_pairs += 1
        (t_plain, ok_plain, _, _), (t_traced, ok_traced, spans, size) = \
            runs[False], runs[True]
        if ok_plain and ok_traced:
            plain.append(t_plain)
            traced.append(t_traced)
            summaries.append(summarize_op(spans))
            sizes.append(size)
            first_spans = first_spans or spans
    return tracer, plain, traced, summaries, sizes, first_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        prepare()
    except ImportError as exc:
        print(f"error: cannot import vortexlab from the checkout: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    out_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(workload, out_dir)
        warmup = workload.next_config()
        elapsed, manifest, error = runner.execute(warmup)
        setup_s = time.perf_counter() - T_START
        probe = SpeedProbe()
        setup = [setup_s, probe.cost(setup_s)]
        if args.setup_probe:
            print(json.dumps({"setup": setup}))
            return 0
        runner.verify(warmup, manifest, error)
        if args.trace:
            return report_traced(args, runner, *traced_loop(runner, args))
        setups = [setup] + setup_probe_times(args)
        return report_untraced(args, runner, setups,
                               *untraced_loop(runner, probe, args))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass


def finish(args, runner, record, metrics):
    """Print the record, a metric table and, last, the JSON result."""
    record["env"] = environment(args)
    record["op_fail_ratio"] = runner.failed / max(runner.attempted, 1)
    record["check_findings"] = dict(runner.findings)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
        fh.write("\n")
    summary = {k: v for k, v in record.items()
               if k not in ("op_counts", "first_op_spans", "op_times_s",
                            "probe_times_s")}
    print("# record " + json.dumps(summary))
    for key, m in metrics.items():
        flag = "  MISSING" if key in record.get("missing", ()) else ""
        print(f"# {key:42s} {m['value']:.6g} {m['unit']}{flag}")
    for key, unit in WALL_CLOCK:
        if key in record:
            print(f"# {key:42s} {record[key]:.6g} {unit}  (wall clock)")
    print(f"# op_fail_ratio {record['op_fail_ratio']:.6g} "
          f"({runner.failed} of {runner.attempted})")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def report_untraced(args, runner, setups, times, probes, passed):
    costs = [t / (0.5 * (a + b)) for t, a, b in zip(times, probes, probes[1:])]
    tail_ref, tail_pct = tail(costs)
    metrics = {
        "op_mean_ref": {"value": statistics.mean(costs), "unit": "ref"},
        "op_p50_ref": {"value": statistics.median(costs), "unit": "ref"},
        "op_tail_ref": {"value": tail_ref, "unit": "ref"},
        # set-up cost converted back to seconds at the probe's typical speed
        "setup_s": {"value": REF_PROBE_S * statistics.median(
            cost for _, cost in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "unit": "MiB"},
    }
    # wall-clock figures, as a user sees them on this host at this moment;
    # recorded, not gated, because the host's speed drift moves them
    record = {"ops_per_s": passed / sum(times),
              "op_p50_s": statistics.median(times),
              "op_tail_s": tail(times)[0],
              "setup_wall_s": statistics.median(wall for wall, _ in setups),
              "probe_p50_s": statistics.median(probes),
              "op_samples": len(times), "op_tail_percentile": tail_pct,
              "setup_samples": setups, "op_times_s": times,
              "probe_times_s": probes}
    return finish(args, runner, record, metrics)


def report_traced(args, runner, tracer, plain, traced, summaries, sizes,
                  first_spans):
    from tracing import per_layer_metrics
    overhead = (statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
                if traced else 0.0)
    metrics, missing = per_layer_metrics(summaries, sizes, traced, overhead,
                                         tracer.missing)
    record = {"traced_ops": len(traced), "untraced_op_p50_s":
              statistics.median(plain) if plain else None,
              "traced_op_p50_s": statistics.median(traced) if traced else None,
              "missing": missing,
              "op_counts": [{span: {k: v for k, v in agg.items() if k != "self_s"}
                             for span, agg in summary.items()}
                            for summary in summaries],
              "artifact_bytes": sizes,
              "first_op_spans": first_spans}
    return finish(args, runner, record, metrics)


if __name__ == "__main__":
    sys.exit(main())
