"""Benchmark of the regimeweave CLI: wall time per subcommand on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reference --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run imports the package from ``src/``, writes the workload's config under
``perfbench/out/``, times a cold ``import regimeweave`` plus ``load_config``
in fresh interpreters (``setup_s``), then repeats the workload's pipeline of
``regimeweave.cli.main`` calls in-process until ``--seconds`` have passed
(at least twice) and reports medians.  Every call is an operation:
its exit code must be 0, its artifacts must hash the same as the first
call's, and the first call's outputs are checked against independent
oracles (``oracles.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates untraced pipelines with pipelines traced by
``spans.Tracer`` and reports the per-layer ones.  ``--workload all`` runs
every workload both ways in child processes and prints every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

import oracles  # noqa: E402  (sibling modules of this script)
from spans import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

SETUP_REPEATS = 5
MIN_ITERATIONS = 2
MC_TOLERANCE = 1e-3  # relative stderr that mc_cost_to_tol_s prices
HEADLINE_POLICY = "pi-hat (optimal)"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# (metric, span, statistic, scale, unit); statistic "call" divides the
# span's inclusive time by its calls, "work" by its counted work units,
# "per_path" divides the work units by the calls.
LAYER_SPANS = (
    ("markov.simulate_path.us_per_call", "markov.simulate_path", "call", 1e6, "us/call"),
    ("markov.jumps_per_path", "markov.simulate_path", "per_path", 1.0, "jumps/path"),
    ("markov.rng_stream.us_per_call", "markov.rng_stream", "call", 1e6, "us/call"),
    ("montecarlo.estimate_value_factor.us_per_path", "montecarlo.estimate_value_factor", "work", 1e6, "us/path"),
    ("montecarlo.estimate_regime_factor.us_per_path", "montecarlo.estimate_regime_factor", "work", 1e6, "us/path"),
    ("hjb.loading_integral.ns_per_segment", "hjb.loading_integral", "work", 1e9, "ns/segment"),
    ("montecarlo.grid_points_per_path", "montecarlo.merged_time_grid", "per_path", 1.0, "points/path"),
    ("montecarlo.merged_time_grid.us_per_call", "montecarlo.merged_time_grid", "call", 1e6, "us/call"),
    ("portfolio.evaluate_policy.us_per_path", "portfolio.evaluate_policy", "work", 1e6, "us/path"),
    ("portfolio.simulate_wealth.us_per_call", "portfolio.simulate_wealth", "call", 1e6, "us/call"),
    ("hjb.solve_regime_factors.ms_per_call", "hjb.solve_regime_factors", "call", 1e3, "ms/call"),
    ("portfolio.build_solution.ms_per_call", "portfolio.build_solution", "call", 1e3, "ms/call"),
    ("hjb.hjb_residual.us_per_call", "hjb.hjb_residual", "call", 1e6, "us/call"),
    ("portfolio.value_fn.us_per_call", "portfolio.value_fn", "call", 1e6, "us/call"),
    ("markov.transition_probabilities.us_per_call", "markov.transition_probabilities", "call", 1e6, "us/call"),
    ("compose.compose_copula.us_per_call", "compose.compose_copula", "call", 1e6, "us/call"),
    ("compose.bivariate_normal_cdf.ns_per_point", "compose.bivariate_normal_cdf", "work", 1e9, "ns/point"),
)
# untraced medians of the subcommands that have no end-to-end metric
CLI_TIMES = ("compose", "simulate", "evaluate", "validate")


class Checks:
    """Operations attempted and failed; each failure is kept by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.details: dict[str, float] = {}

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def import_cli():
    """Import ``regimeweave.cli`` from this checkout's ``src/``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import regimeweave.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"regimeweave was imported from {cli.__file__}, not from {SRC}")
    return cli


def artifact_digest(out_dir: Path) -> tuple[str, dict[str, str], int]:
    """Digest over every artifact of a call, the per-file hashes, total bytes."""
    files, total = {}, 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        files[path.name] = hashlib.sha256(data).hexdigest()
        total += len(data)
    listing = "".join(f"{name} {digest}\n" for name, digest in files.items())
    return hashlib.sha256(listing.encode()).hexdigest(), files, total


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as stream:
        return list(csv.DictReader(line for line in stream if not line.startswith("#")))


class Pipeline:
    """Runs one workload's subcommands through ``cli.main`` and checks them."""

    def __init__(self, cli, workload: Workload, seed: int, checks: Checks, work_dir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.checks = checks
        self.work_dir = work_dir
        self.config_path = work_dir / "config.json"
        self.document = workload.write_config(ROOT, self.config_path)
        self.digests: dict[str, str] = {}
        self.files: dict[str, dict[str, str]] = {}
        self.bytes: dict[str, int] = {}
        self.relative_stderr: float | None = None
        generator = oracles.compound_generator(
            self.document, cli.load_config(self.config_path).generator.rates
        )
        self.factors = oracles.regime_factor_solution(self.document, generator)

    def run(self, repeat: bool = True) -> dict[str, list[float]]:
        """One iteration: each subcommand, ``repeats`` times if ``repeat``."""
        times: dict[str, list[float]] = {}
        for command in self.workload.commands:
            for _ in range(command.repeats if repeat else 1):
                times.setdefault(command.name, []).append(self.call(command))
        return times

    def call(self, command: Command) -> float:
        out_dir = self.work_dir / command.name
        argv = [
            command.name, "--config", str(self.config_path), "--out", str(out_dir),
            "--seed", str(self.seed), *command.args,
        ]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        self.checks.record(f"{command.name}: exit code 0", code == 0)

        out_dir.mkdir(parents=True, exist_ok=True)
        digest, files, size = artifact_digest(out_dir)
        if command.name in self.digests:
            self.checks.record(
                f"{command.name}: artifacts identical across calls", digest == self.digests[command.name]
            )
        else:
            self.digests[command.name], self.files[command.name] = digest, files
            self.bytes[command.name] = size
            self.check_outputs(command.name, out_dir)
        return elapsed

    def check_outputs(self, name: str, out_dir: Path) -> None:
        checks = self.checks
        try:
            if name == "validate":
                report = json.loads((out_dir / "validate_report.json").read_text())
                checks.record("validate: n_failed == 0", report["results"]["n_failed"] == 0)
            elif name == "solve" and self.document.get("case") == "rho0":
                worst = 0.0
                for row in read_table(out_dir / "value_factor_mc.csv"):
                    z = oracles.value_factor_z(
                        self.document, self.factors, float(row["t"]), float(row["y"]),
                        int(row["regime"].split()[0]), float(row["estimate"]), float(row["stderr"]),
                    )
                    worst = max(worst, abs(z))
                    checks.record(f"solve: estimate at t={row['t']} y={row['y']} within 4 stderr",
                                  abs(z) <= oracles.Z_LIMIT)
                checks.details["solve.max_abs_z"] = worst
            elif name == "solve":
                report = json.loads((out_dir / "solve_report.json").read_text())
                gap = oracles.h0_gap(self.document, self.factors, report["results"]["h_at_0"])
                checks.details["solve.h0_relative_gap"] = gap
                checks.record("solve: h(0) matches the DOP853 oracle", gap <= oracles.H0_REL_TOL)
            if name == self.workload.mc_command:
                self.relative_stderr = headline_relative_stderr(name, out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            checks.record(f"{name}: outputs readable ({exc})", False)


def headline_relative_stderr(name: str, out_dir: Path) -> float:
    """Relative stderr of the headline estimate of a Monte Carlo subcommand.

    For ``evaluate`` it is the optimal policy's score; for the ``solve``
    value-factor grid it is the root mean square over the grid.
    """
    if name == "evaluate":
        row = next(r for r in read_table(out_dir / "evaluation.csv") if r["policy"] == HEADLINE_POLICY)
        return float(row["stderr"]) / abs(float(row["estimate"]))
    rows = read_table(out_dir / "value_factor_mc.csv")
    return statistics.fmean((float(r["stderr"]) / float(r["estimate"])) ** 2 for r in rows) ** 0.5


SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import regimeweave
from regimeweave.cli import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def measure_setup(config_path: Path) -> list[float]:
    """Seconds for a cold import plus ``load_config``, once per fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config_path)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def measure(cli, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Checks, dict]:
    """One benchmark run; returns metrics as {name: (value, unit)}, checks, record."""
    checks = Checks()
    work_dir = OUT / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    pipeline = Pipeline(cli, workload, seed, checks, work_dir)
    setup_samples = measure_setup(pipeline.config_path)
    setup_s = statistics.median(setup_samples)

    samples: dict[str, list[float]] = {}
    tracer = Tracer()
    traced_iterations = iterations = 0
    start = time.perf_counter()
    while iterations < (1 if trace else MIN_ITERATIONS) or time.perf_counter() - start < seconds:
        for name, values in pipeline.run().items():
            samples.setdefault(name, []).extend(values)
        iterations += 1
        if trace:
            tracer.install()
            try:
                pipeline.run(repeat=False)
            finally:
                tracer.uninstall()
            traced_iterations += 1

    medians = {name: statistics.median(values) for name, values in samples.items()}
    pipeline_s = sum(medians.values())
    if trace:
        metrics = layer_metrics(tracer, traced_iterations, pipeline_s, sum(pipeline.bytes.values()), medians)
        spans = {
            name: {"calls": st.calls, "inclusive_s": st.inclusive, "self_s": st.self_time, "work": st.work}
            for name, st in sorted(tracer.stats.items())
        }
    else:
        spans = {}
        mc_time = medians[workload.mc_command]
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (medians["solve"], "s"),
            "pipeline_s": (pipeline_s, "s"),
            "mc_cost_to_tol_s": (mc_time * (pipeline.relative_stderr / MC_TOLERANCE) ** 2, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "iterations": iterations,
        "traced_iterations": traced_iterations,
        "setup_samples_s": setup_samples,
        "samples_s": samples,
        "medians_s": medians,
        "headline_relative_stderr": pipeline.relative_stderr,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "check_details": checks.details,
        "artifact_digests": pipeline.digests,
        "artifact_files": pipeline.files,
        "spans": spans,
    }
    return metrics, checks, record


def layer_metrics(tracer: Tracer, iterations: int, untraced_pipeline_s: float,
                  bytes_written: int, medians: dict[str, float]) -> dict:
    """Per-layer metrics from the traced iterations; absent layers read 0."""
    metrics = {}
    for metric, span, statistic, scale, unit in LAYER_SPANS:
        stats = tracer.stat(span)
        if statistic == "per_path":
            value = stats.work / stats.calls if stats.calls else 0.0
        else:
            count = stats.calls if statistic == "call" else stats.work
            value = stats.inclusive / count * scale if count else 0.0
        metrics[metric] = (value, unit)
    metrics["hjb.solve_regime_factors.calls"] = (
        tracer.stat("hjb.solve_regime_factors").calls / iterations, "calls/pipeline"
    )
    for module in MODULES:
        metrics[f"{module}.self_s"] = (tracer.module_self[module] / iterations, "s")
    metrics["cli.bytes_written"] = (bytes_written, "bytes")
    traced_pipeline_s = tracer.root_seconds / iterations
    metrics["trace.pipeline_s"] = (traced_pipeline_s, "s")
    metrics["trace.overhead_s"] = (traced_pipeline_s - untraced_pipeline_s, "s")
    for name in CLI_TIMES:
        metrics[f"cli.{name}_s"] = (medians.get(name, 0.0), "s")
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
        "regimeweave_threads": os.environ.get("REGIMEWEAVE_THREADS", "unset"),
        "commit": commit,
    }


def baseline_note(workload: Workload, seed: int, digests: dict[str, str]) -> str:
    """Whether the artifacts match the digests recorded in ``baseline.json``."""
    if not BASELINE.exists():
        return "no recorded baseline"
    recorded = json.loads(BASELINE.read_text())["workloads"].get(workload.name, {})
    if recorded.get("seed") != seed:
        return f"no recorded digests for seed {seed}"
    if recorded.get("artifact_digests") == digests:
        return "artifacts match the recorded baseline"
    changed = sorted(k for k in digests if recorded.get("artifact_digests", {}).get(k) != digests[k])
    return "artifacts differ from the recorded baseline in: " + ", ".join(changed)


def run_one(args) -> int:
    try:
        cli = import_cli()
        workload = WORKLOADS[args.workload]
        seed = args.seed if args.seed is not None else workload.config_document(ROOT)["numerics"]["seed"]
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark cannot start: {exc!r}", file=sys.stderr)
        return 2
    metrics, checks, record = measure(cli, workload, seed, args.seconds, bool(args.trace))
    record["environment"] = env = environment()
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    result_file = OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {workload.name}, seed {seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{record['iterations']} iterations, {record['traced_iterations']} traced")
    print(f"environment: {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['commit']}, "
          + ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<48} {checks.failed / checks.attempted:>14.6g} "
          f"({checks.failed} of {checks.attempted} operations)")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    note = baseline_note(workload, seed, record["artifact_digests"])
    print(f"{note}; record in {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own interpreter."""
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
                return done.returncode or 1
            print("\n".join(lines[:-1]))
            all_correct &= json.loads(lines[-1])["correct"]
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the config's)")
    parser.add_argument("--seconds", type=float, default=24.0, help="minimum measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    os.environ["REGIMEWEAVE_THREADS"] = "1"  # the workloads are single-threaded closed loops
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
