"""Paired benchmark of two source trees: alternating parent/change runs of ``perfbench/run.py``.

Usage (from the repository root)::

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 bench/paired.py --parent /tmp/parent --change . --label my_change --pairs 10 --seconds 8

Each side runs in a staging tree of its own, built from the side's ``src/``
and ``configs/`` and the change's benchmark files (``perfbench/`` and
``BENCHMARK.json``), so both sides are measured by the same benchmark and
differ only in the code under test.  For each workload named in the change's
``BENCHMARK.json``, pair ``i`` (from 1) runs ``run.py --trace 0`` once on
each side, the parent first in odd pairs and the change first in even ones,
so that a drift of the machine's speed favours neither side.

Writes ``BENCH_<label>_before.json`` (parent) and ``BENCH_<label>_after.json``
(change) to ``--out-dir``: per workload the seed, the pair count, the
operations attempted and failed, every run's end-to-end metrics, and each
metric's median and quartiles over the runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PROTOCOL = "alternating parent/change pairs, odd pairs parent first; same benchmark files on both sides"


def stage(side: Path, change: Path, tree: Path) -> Path:
    """A tree of ``side``'s code and configs with ``change``'s benchmark files."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for source, name in ((side, "src"), (side, "configs"), (change, "perfbench")):
        shutil.copytree(source / name, tree / name, ignore=skip)
    shutil.copy2(change / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One ``run.py --trace 0`` of ``workload`` in ``tree``: its result line and its record."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload}: exit code {done.returncode}\n{done.stderr}")
    (record_file,) = (tree / "perfbench" / "out").glob(f"{workload}-seed*-trace0.json")
    record = json.loads(record_file.read_text())
    record_file.unlink()
    return {"result": json.loads(lines[-1]), "seed": record["seed"], "environment": record["environment"]}


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive) of each metric."""
    summary = {}
    for name, unit in sorted(units.items()):
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    return summary


def measure(trees: dict[str, Path], workloads: list[str], pairs: int, seconds: float) -> dict:
    """Per side and workload, the runs of every pair in alternating order."""
    found = {side: {} for side in SIDES}
    for workload in workloads:
        for pair in range(1, pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                one = run_once(trees[side], workload, seconds)
                entry = found[side].setdefault(workload, {"runs": [], "attempted": 0, "failures": 0})
                metrics = one["result"]["metrics"]
                entry["runs"].append({name: metric["value"] for name, metric in metrics.items()})
                entry["units"] = {name: metric["unit"] for name, metric in metrics.items()}
                entry["attempted"] += one["result"]["attempted"]
                entry["failures"] += one["result"]["failed"]
                entry["seed"], entry["environment"] = one["seed"], one["environment"]
                print(f"pair {pair} {side:<6} {workload:<12} "
                      f"mc_cost_to_tol_s {metrics['mc_cost_to_tol_s']['value']:.6g}", flush=True)
    return found


def document(label: str, commit: str, seconds: float, pairs: int, found: dict) -> dict:
    workloads = []
    for workload, entry in found.items():
        workloads.append({
            "workload": workload,
            "seed": f"config seed {entry['seed']}",
            "pairs": pairs,
            "attempted": entry["attempted"],
            "failures": entry["failures"],
            "runs": entry["runs"],
            "summary": summarize(entry["runs"], entry["units"]),
        })
    return {
        "command": f"python3 perfbench/run.py --workload W --trace 0 ({seconds:g} s runs)",
        "commit": commit,
        "environment": next(iter(found.values()))["environment"],
        "label": label,
        "protocol": PROTOCOL,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--label", required=True, help="names BENCH_<label>_{before,after}.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=24.0, help="minimum measuring time of a run")
    parser.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parent)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    change = args.change.resolve()
    workloads = [w["name"] for w in json.loads((change / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory(prefix="paired-") as work:
        trees = {side: stage(getattr(args, side).resolve(), change, Path(work) / side) for side in SIDES}
        try:
            found = measure(trees, workloads, args.pairs, args.seconds)
        except (RuntimeError, ValueError) as exc:
            print(f"paired benchmark failed: {exc}", file=sys.stderr)
            return 1
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for side, suffix, commit in zip(SIDES, ("before", "after"), ("parent", "this change")):
        label = f"{args.label}_{suffix}"
        out = args.out_dir / f"BENCH_{label}.json"
        out.write_text(json.dumps(
            document(label, commit, args.seconds, args.pairs, found[side]), indent=1, sort_keys=True
        ) + "\n")
        print(f"wrote {out}")
    failures = sum(entry["failures"] for side in SIDES for entry in found[side].values())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
