"""The benchmark's workloads: which config, which subcommands, how often.

Each workload is a closed loop in one process and one thread: the next
``regimeweave.cli.main`` call starts when the previous one returns.

* ``reference`` runs ``configs/reference.json`` (the paper's 4-regime model
  with correlated income) through all five subcommands.  Paths average
  about one jump, so per-path overhead dominates the Monte Carlo calls and
  ``solve`` is the one call dominated by the factor ODE.
* ``rho0_grid`` runs ``configs/rho_zero.json`` with ``"case": "rho0"``
  through ``solve`` only: 50 grid points of ``estimate_value_factor``, no
  factor ODE and no wealth simulation.  A batched path engine moves it; a
  faster ODE integrator does not.
* ``fast_copula`` keeps the reference market on fast marginals coupled by a
  Gaussian copula at correlation 0.6.  Paths average about 54 jumps, so
  per-jump work outweighs per-path overhead, and copula composition and
  the bivariate-normal CDF run on every config load.

``reference`` and ``fast_copula`` use fewer paths than their config so that
several pipelines fit in one run; compose, solve and simulate take
milliseconds, so they repeat within an iteration to give a steady median.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...] = ()
    repeats: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str  # committed config, relative to the repository root
    edits: dict = field(default_factory=dict)  # top-level sections replaced in the copy
    commands: tuple[Command, ...] = ()
    mc_command: str = "evaluate"  # the subcommand whose estimates set mc_cost_to_tol_s

    def config_document(self, root: Path) -> dict:
        document = json.loads((root / self.base_config).read_text())
        document.update(self.edits)
        return document

    def write_config(self, root: Path, path: Path) -> dict:
        """Write the workload's config to ``path`` and return its document."""
        document = self.config_document(root)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return document


def _pipeline(paths: int) -> tuple[Command, ...]:
    mc = ("--paths", str(paths))
    return (
        Command("compose", repeats=10),
        Command("solve", repeats=3),
        Command("simulate", repeats=10),
        Command("evaluate", ("--compare", "0.5,1.0", *mc)),
        Command("validate", mc),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", "configs/reference.json", commands=_pipeline(2000)),
        Workload(
            "rho0_grid",
            "configs/rho_zero.json",
            edits={"case": "rho0"},
            commands=(Command("solve", ("--paths", "1000")),),
            mc_command="solve",
        ),
        Workload(
            "fast_copula",
            "configs/reference.json",
            edits={
                "chains": {
                    "epsilon": [[-30, 30], [20, -20]],
                    "zeta": [[-8, 8], [40, -40]],
                    "composition": {"method": "copula", "correlation": 0.6},
                }
            },
            commands=_pipeline(1000),
        ),
    )
}
