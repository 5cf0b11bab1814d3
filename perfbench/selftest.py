"""Smoke test of the benchmark at tiny path counts.

Runs every workload once untraced and once traced, asserts that each
metric named in ``BENCHMARK.json`` is emitted with its unit and that no
operation fails, then forces one oracle check to fail and asserts that
the failure is counted.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import oracles
import run
from workloads import WORKLOADS, Workload

TINY_PATHS = "64"


def tiny(workload: Workload) -> Workload:
    """The workload with every path count cut to ``TINY_PATHS`` and no repeats."""
    commands = []
    for command in workload.commands:
        args = list(command.args)
        if "--paths" in args:
            args[args.index("--paths") + 1] = TINY_PATHS
        commands.append(dataclasses.replace(command, args=tuple(args), repeats=1))
    return dataclasses.replace(workload, commands=tuple(commands))


def require(condition: bool, message) -> None:
    if not condition:
        raise AssertionError(message)


def expected_units(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def smoke(cli, workload: Workload, trace: bool) -> run.Checks:
    seed = workload.config_document(run.ROOT)["numerics"]["seed"]
    metrics, checks, _ = run.measure(cli, tiny(workload), seed, seconds=0.0, trace=trace)
    emitted = {name: unit for name, (value, unit) in metrics.items()}
    expected = expected_units("per_layer" if trace else "end_to_end")
    require(emitted == expected, f"{workload.name}: emitted {emitted}, expected {expected}")
    for name, (value, _) in metrics.items():
        require(isinstance(value, (int, float)) and value == value, f"{name} is not a number: {value}")
    return checks


def main() -> int:
    os.environ["REGIMEWEAVE_THREADS"] = "1"
    cli = run.import_cli()
    for workload in WORKLOADS.values():
        for trace in (False, True):
            checks = smoke(cli, workload, trace)
            require(checks.attempted > 0 and not checks.failures, (workload.name, checks.failures))
            print(f"ok: {workload.name} trace {int(trace)}, {checks.attempted} operations")

    tolerance = oracles.H0_REL_TOL
    oracles.H0_REL_TOL = -1.0  # no gap can pass: the h(0) check must fail
    try:
        checks = smoke(cli, WORKLOADS["reference"], trace=False)
    finally:
        oracles.H0_REL_TOL = tolerance
    share = checks.failed / checks.attempted
    require(checks.failures == ["solve: h(0) matches the DOP853 oracle"] and share > 0.0, checks.failures)
    print(f"ok: a forced check failure is counted, failed_share {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
