"""Batch front end for compound-chain portfolio models.

Reads a JSON model configuration and runs one of five subcommands:
``compose`` (compound generator, embedded chain, stationary law),
``solve`` (income loading, regime factors or sampled value factors,
strategy, value grid), ``simulate`` (sample paths), ``evaluate``
(policy scores against the value prediction), and ``validate`` (the
cross-check battery).  All tables are CSV with 17-significant-digit
floats and all reports are JSON with sorted keys and shortest round-trip
floats, so a rerun with the same config and seed writes byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .compose import (
    CompoundChainSpec,
    CopulaSpec,
    NonGenerator,
    QuadratureFailure,
    Unsupported,
    compose_copula,
    compose_independent,
)
from .hjb import (
    FACTOR_RTOL, PER_REGIME, MarketModel, StepTooCoarse, _check_steps, _unit_value, hjb_residual,
    solve_income_loading, solve_regime_factors,
)
from .markov import (
    GeneratorError,
    GeneratorMatrix,
    InvalidInput,
    RngStream,
    embedded_chain,
    stationary_distribution,
    transition_probabilities,
    validate_generator,
)
from .montecarlo import BLOCK, estimate_regime_factor, estimate_value_mc
from .portfolio import (
    NORMAL_INCOME,
    Strategy,
    _check_case,
    _evaluate_policies,
    build_solution,
    hedge_weight,
    merton_weight,
    optimal_strategy,
    simulate_wealth,
    value_function,
)

HASH_LENGTH = 12
# table rows formatted at a time, so a long table's text never sits in memory whole
TABLE_BATCH = 256


class ParseError(ValueError):
    """The config file is missing, unreadable, or not JSON."""


class ValidationError(InvalidInput):
    """The config or a flag breaks a rule; ``problems`` pairs each config path with a message."""


@dataclass(frozen=True)
class ModelConfig:
    """Validated model configuration plus the raw document it came from."""

    document: dict
    config_hash: str
    chain: CompoundChainSpec | None
    generator: GeneratorMatrix
    mapping: object | None
    market: MarketModel
    case: str
    n_steps: int
    n_paths: int
    dt: float | None
    seed: int


@dataclass(frozen=True)
class RunReport:
    """Artifact manifest for one subcommand run, persisted as
    ``<command>_report.json``: the inputs, each output file with its
    provenance, and the headline results."""

    command: str
    config_hash: str
    seed: int
    inputs: dict
    outputs: dict
    provenance: dict
    results: dict


# ---------------------------------------------------------------------------
# configuration loading


def load_config(path: str | Path) -> ModelConfig:
    """Read and validate a JSON model configuration.

    The loader checks JSON types and keys; the range rules belong to
    :class:`MarketModel` and :class:`CopulaSpec`, whose problems it puts
    under their config paths (dotted JSON notation, for example
    ``market.rho`` or ``market.regimes[2].sigma``).  Every violation is
    collected before raising, so one round trip surfaces all problems.

    Raises
    ------
    ParseError
        Unreadable file or malformed JSON.
    ValidationError
        Schema or invariant violations, with one message per problem.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError(f"config {path} must hold a JSON object at the top level")

    problems: list[tuple[str, str]] = []
    chain, generator, mapping = _load_chains(document, problems)
    market = _load_market(document, generator, problems)
    n_steps, n_paths, dt, seed = _load_numerics(document, problems)
    case = _load_case(document, market, problems)
    for key in sorted(set(document) - {"chains", "market", "numerics", "case"}):
        problems.append((key, "unknown top-level section"))
    if problems:
        raise ValidationError(problems)
    return ModelConfig(
        document=document,
        config_hash=hashlib.sha256(raw).hexdigest()[:HASH_LENGTH],
        chain=chain,
        generator=generator,
        mapping=mapping,
        market=market,
        case=case,
        n_steps=n_steps,
        n_paths=n_paths,
        dt=dt,
        seed=seed,
    )


def _number(section, path, problems, *, required=True, default=None):
    """The number under ``path``'s last key, or NaN where a problem is
    reported, so that a library constructor still checks the other fields."""
    key = path.rpartition(".")[2]
    if key not in section:
        if required:
            problems.append((path, "missing required field"))
            return math.nan
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append((path, f"expected a number, got {value!r}"))
        return math.nan
    if not math.isfinite(value):
        problems.append((path, f"must be finite, got {value!r}"))
        return math.nan
    return float(value)


def _integer(section, path, problems, *, default=None):
    key = path.rpartition(".")[2]
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append((path, f"expected an integer, got {value!r}"))
        return None
    return value


def _unknown_keys(section, path, known, problems):
    for key in sorted(set(section) - known):
        problems.append((f"{path}.{key}", "unknown field"))


def _check(problems, path, rule, value, *args):
    """Put each problem a library ``rule`` finds in ``value``, unless None, under ``path``."""
    try:
        if value is not None:
            rule(value, *args)
    except InvalidInput as exc:
        problems.extend((path, message) for _, message in exc.problems)


def _load_generator(raw, path, problems):
    try:
        return validate_generator(raw)
    except (GeneratorError, TypeError, ValueError) as exc:
        problems.append((path, str(exc)))
        return None


# the config path of each field of the library objects the loader builds
CONFIG_PATHS = {
    MarketModel: {
        "rate": "market.r", "correlation": "market.rho", "risk_aversion": "market.gamma",
        "horizon": "market.T", "n_regimes": "market.regimes",
        "stock_drift": "market.regimes[{}].alpha", "stock_vol": "market.regimes[{}].sigma",
        "income_drift": "market.regimes[{}].mu", "income_vol": "market.regimes[{}].delta",
    },
    CopulaSpec: {"correlation": "chains.composition.correlation", "fd_step": "chains.composition.fd_step"},
}


def _build(cls, problems, **fields):
    """``cls(**fields)``, or None with each of its problems added under its config
    path, unless the loader has reported that path or its parent (passing NaN)."""
    try:
        return cls(**fields)
    except InvalidInput as exc:
        reported = {path for path, _ in problems}
        for field, message in exc.problems:
            name, _, index = field.partition("[")
            path = CONFIG_PATHS[cls][name].format(index.rstrip("]"))
            if path not in reported and path.rpartition(".")[0] not in reported:
                problems.append((path, message))
        return None


def _load_chains(document, problems):
    section = document.get("chains")
    if not isinstance(section, dict):
        problems.append(("chains", "required section must be a JSON object"))
        return None, None, None
    _unknown_keys(section, "chains", {"compound", "epsilon", "zeta", "composition"}, problems)
    has_compound = "compound" in section
    has_parts = "epsilon" in section or "zeta" in section
    if has_compound and has_parts:
        problems.append(("chains", "give either compound or epsilon/zeta, not both"))
        return None, None, None
    if has_compound:
        if "composition" in section:
            problems.append(("chains.composition", "meaningless with a direct compound generator"))
        return None, _load_generator(section["compound"], "chains.compound", problems), None
    if "epsilon" not in section or "zeta" not in section:
        problems.append(("chains", "needs either compound or both epsilon and zeta"))
        return None, None, None
    eps = _load_generator(section["epsilon"], "chains.epsilon", problems)
    zeta = _load_generator(section["zeta"], "chains.zeta", problems)
    compose = _load_composition(section.get("composition"), problems)
    if eps is None or zeta is None or compose is None:
        return None, None, None
    try:
        chain = compose(eps, zeta)
    except (Unsupported, NonGenerator, QuadratureFailure) as exc:
        problems.append(("chains.composition", str(exc)))
        return None, None, None
    return chain, chain.generator, chain.mapping


def _load_composition(section, problems):
    """The section's composition as a function of the two chains, or None."""
    if section is None:
        return compose_independent
    if not isinstance(section, dict):
        problems.append(("chains.composition", "must be a JSON object"))
        return None
    method = section.get("method")
    if method == "independent":
        _unknown_keys(section, "chains.composition", {"method"}, problems)
        return compose_independent
    if method == "copula":
        _unknown_keys(section, "chains.composition", {"method", "correlation", "fd_step"}, problems)
        paths = CONFIG_PATHS[CopulaSpec]
        copula = _build(
            CopulaSpec, problems,
            correlation=_number(section, paths["correlation"], problems),
            fd_step=_number(section, paths["fd_step"], problems, required=False, default=1e-4),
        )
        return None if copula is None else lambda eps, zeta: compose_copula(eps, zeta, copula)
    problems.append(("chains.composition.method", f"expected 'independent' or 'copula', got {method!r}"))
    return None


def _load_market(document, generator, problems):
    section = document.get("market")
    if not isinstance(section, dict):
        problems.append(("market", "required section must be a JSON object"))
        return None
    _unknown_keys(section, "market", {"r", "rho", "gamma", "T", "regimes"}, problems)
    paths = CONFIG_PATHS[MarketModel]
    scalars = ("rate", "correlation", "risk_aversion", "horizon")
    fields = {name: _number(section, paths[name], problems) for name in scalars}
    regimes = section.get("regimes")
    if not isinstance(regimes, list) or not regimes:
        problems.append(("market.regimes", "must be a non-empty array of regime objects"))
        regimes = []
    fields.update((name, []) for name in PER_REGIME)
    for k, entry in enumerate(regimes):
        if isinstance(entry, dict):
            _unknown_keys(entry, f"market.regimes[{k}]", {"alpha", "sigma", "mu", "delta"}, problems)
        else:
            problems.append((f"market.regimes[{k}]", "must be a JSON object"))
        for name in PER_REGIME:
            value = _number(entry, paths[name].format(k), problems) if isinstance(entry, dict) else math.nan
            fields[name].append(value)
    if generator is None:  # a stand-in for a chain that failed, so the market's rules still run
        generator = GeneratorMatrix(rates=np.zeros((len(regimes), len(regimes))), n_states=len(regimes))
    return _build(MarketModel, problems, generator=generator, **fields)


def _load_numerics(document, problems):
    section = document.get("numerics", {})
    if not isinstance(section, dict):
        problems.append(("numerics", "must be a JSON object"))
        return 2048, 20000, None, 0
    _unknown_keys(section, "numerics", {"n_steps", "n_paths", "dt", "seed"}, problems)
    n_steps = _integer(section, "numerics.n_steps", problems, default=2048)
    _check(problems, "numerics.n_steps", _check_steps, n_steps)
    n_paths = _integer(section, "numerics.n_paths", problems, default=20000)
    if n_paths is not None and n_paths < 2:
        problems.append(("numerics.n_paths", f"must be at least 2, got {n_paths}"))
    dt = _number(section, "numerics.dt", problems, required=False)
    if dt is not None and dt <= 0.0:
        problems.append(("numerics.dt", f"must be positive, got {dt:g}"))
    seed = _integer(section, "numerics.seed", problems, default=0)
    _check(problems, "numerics.seed", RngStream, seed)
    return n_steps if n_steps else 2048, n_paths if n_paths else 20000, dt, seed if seed else 0


def _load_case(document, market, problems):
    case = document.get("case", NORMAL_INCOME)
    # a market that broke its own rules leaves only the case's name to check
    _check(problems, "case", _check_case, case, 0.0 if market is None else market.correlation)
    return case


# ---------------------------------------------------------------------------
# deterministic output helpers


def _json_text(value) -> str:
    """JSON with sorted keys and shortest round-trip floats; arrays become lists."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False, default=lambda v: v.tolist())


def _cells(column) -> list[str]:
    """One column's cells: floats to 17 significant digits with negative zero
    normalized (``+ 0.0``), anything else through ``str``."""
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return [format(v, ".17g") for v in (values + 0.0).tolist()]
    return [str(v) for v in values.tolist()]


class _Artifacts:
    """Writes one subcommand's files into ``out_dir`` and records each file's
    name and provenance under its key for the run report."""

    def __init__(self, command: str, config: ModelConfig, out_dir: Path):
        self.command = command
        self.config = config
        self.out_dir = out_dir
        self.outputs: dict[str, str] = {}
        self.provenance: dict[str, str] = {}

    def _record(self, key: str, name: str, provenance: str) -> Path:
        self.outputs[key] = name
        self.provenance[key] = provenance
        return self.out_dir / name

    def table(self, key, units, provenance, header, columns, name=None) -> None:
        """Write ``<key>.csv`` (or ``name``) under units, provenance, config and
        seed comments; ``columns`` holds one sequence per ``header`` entry."""
        path = self._record(key, name or f"{key}.csv", provenance)
        with open(path, "w", newline="") as stream:
            stream.write(f"# units: {units}\n# provenance: {provenance}\n")
            stream.write(f"# config: {self.config.config_hash} seed: {self.config.seed}\n")
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            for lo in range(0, len(columns[0]), TABLE_BATCH):
                writer.writerows(zip(*(_cells(column[lo : lo + TABLE_BATCH]) for column in columns)))

    def json(self, key: str, name: str, value) -> None:
        """Write a closed-form JSON artifact."""
        self._record(key, name, "closed-form").write_text(_json_text(value) + "\n")

    def report(self, results: dict, **inputs) -> RunReport:
        """Write ``<command>_report.json``, which lists itself, and return it."""
        path = self._record("report", f"{self.command}_report.json", "closed-form")
        report = RunReport(
            command=self.command,
            config_hash=self.config.config_hash,
            seed=self.config.seed,
            inputs={"config": self.config.document, **inputs},
            outputs=self.outputs,
            provenance=self.provenance,
            results=results,
        )
        path.write_text(_json_text(vars(report)) + "\n")
        return report


def _state_labels(n_states: int, mapping) -> list[str]:
    if mapping is None:
        return [str(k) for k in range(n_states)]
    return ["{} (eps={},zeta={})".format(k, *mapping.pair(k)) for k in range(n_states)]


def _sim_steps(config: ModelConfig) -> int:
    dt = config.dt if config.dt is not None else config.market.horizon / 256.0
    return max(2, math.ceil(config.market.horizon / dt))


def parse_grid(text: str) -> list[np.ndarray]:
    """Parse at most three ``start:stop:count`` axis specs separated by commas."""
    axes = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ParseError(f"grid axis {part!r} must have the form start:stop:count")
        try:
            start, stop, count = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as exc:
            raise ParseError(f"grid axis {part!r}: {exc}") from exc
        if count < 1:
            raise ParseError(f"grid axis {part!r}: count must be at least 1")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ParseError(f"--grid axis {part!r}: start and stop must be finite")
        axes.append(np.linspace(start, stop, count))
    if len(axes) > 3:
        raise ParseError("--grid accepts at most three axes: t, x, y")
    return axes


def _parse_levels(text: str) -> list[float]:
    """Parse the comma-separated constant positions of ``--compare``."""
    try:
        levels = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"--compare: {exc}") from exc
    for level in levels:
        if not math.isfinite(level):
            raise ParseError(f"--compare: positions must be finite, got {level}")
    return levels


# ---------------------------------------------------------------------------
# subcommands


def cmd_compose(config: ModelConfig, out_dir: Path) -> RunReport:
    """Emit the compound generator, embedded chain, and stationary law; a chain without
    a unique stationary law or with an absorbing state is a config error and writes no file."""
    out = _Artifacts("compose", config, out_dir)
    generator = config.generator
    labels = _state_labels(generator.n_states, config.mapping)
    method = config.chain.method if config.chain is not None else "direct"
    try:
        stationary, embedded = stationary_distribution(generator), embedded_chain(generator)
    except GeneratorError as exc:
        raise ValidationError([("chains", str(exc))]) from exc
    results = {"method": method, "n_states": generator.n_states, "stationary_distribution": stationary}
    if method == "copula":
        diff = generator.rates - compose_independent(config.chain.eps, config.chain.zeta).generator.rates
        results["max_abs_rate_diff"] = float(np.max(np.abs(diff)))
    header = ["state", *labels]

    out.json("compound_generator_json", "compound_generator.json", {
        "config": config.config_hash, "labels": labels, "method": method,
        "n_states": generator.n_states, "provenance": "closed-form", "rates": generator.rates,
    })
    out.table("compound_generator_csv", "off-diagonal entries are jump rates per unit time",
              "closed-form", header, [labels, *generator.rates.T],
              name="compound_generator.csv")
    out.table("embedded_chain", "jump-destination probabilities, dimensionless", "closed-form",
              header, [labels, *embedded.probs.T])
    out.table("stationary_distribution", "long-run occupancy probabilities, dimensionless",
              "closed-form", ["state", "probability"], [labels, stationary])
    if method == "copula":
        out.table("independent_diff", "copula minus independent compound rates per unit time",
                  "closed-form", header, [labels, *diff.T])
    return out.report(results)


def cmd_solve(
    config: ModelConfig,
    out_dir: Path,
    grid: list[np.ndarray] | None = None,
    n_paths: int | None = None,
) -> RunReport:
    """Emit the income loading, regime or value factors, strategy, and value grid.

    The value is the unit value of :func:`~regimeweave.portfolio.value_function` times the
    factor ODE's ``h_k(t)``, or for rho0 times the regime factor sampled once per (t, regime),
    each point on the stream ids after the previous one's; the rho0 table of value factors
    is that sample times the exact ``exp(m(t) y)`` for each income ``y``.  All is computed
    before the first file is written, so a config error leaves none.
    """
    out = _Artifacts("solve", config, out_dir)
    market, horizon, n_regimes = config.market, config.market.horizon, config.market.n_regimes
    _check_case(config.case, market.correlation)
    labels = np.array(_state_labels(n_regimes, config.mapping), dtype=object)
    axes = grid or []
    defaults = [np.linspace(0.0, 0.9 * horizon, 5), np.linspace(0.0, 2.0, 5), np.linspace(-1.0, 1.0, 5)]
    t_axis, x_axis, y_axis = [*axes, *defaults[len(axes):]]
    # the sampled regime factor needs time left before the horizon
    closed = config.case == NORMAL_INCOME
    below = t_axis <= horizon if closed else t_axis < horizon
    if not np.all((t_axis >= 0.0) & below):
        raise ParseError(f"grid: t values must lie in [0, {horizon:g}{']' if closed else ')'}")

    loading = solve_income_loading(market)
    results = {"case": config.case, "m_at_0": float(loading.value(0.0))}
    if closed:
        factors = solve_regime_factors(market, n_steps=config.n_steps)
        factor = factors.value(t_axis)
        results["h_at_0"] = factors.value(0.0)
    else:
        n_mc = n_paths if n_paths is not None else config.n_paths
        blocks = -(-n_mc // BLOCK)  # point p draws from stream ids p * blocks onward, one per block
        points = itertools.product(t_axis, range(n_regimes))
        estimates = [estimate_regime_factor(market, t, k, n_mc, RngStream(config.seed, p * blocks))
                     for p, (t, k) in enumerate(points)]
        factor, stderr = (np.reshape([getattr(est, name) for est in estimates], (-1, n_regimes))
                          for name in ("value", "stderr"))
        with np.errstate(over="ignore"):  # an income factor past the float range is reported here
            income = np.exp(np.multiply.outer(loading.value(t_axis), y_axis))
        overflow = np.argwhere(np.isinf(income))
        if overflow.size:
            i, j = overflow[0]
            raise ParseError(f"grid: exp(m(t) y) overflows at t = {t_axis[i]:g}, y = {y_axis[j]:g}")
        # the value factor g(t, y, k) is exp(m(t) y) times h_k(t), sampled on the same paths
        factor_columns = [
            *(axis.ravel() for axis in np.meshgrid(t_axis, y_axis, labels, indexing="ij")),
            *((income[:, :, None] * part[:, None, :]).ravel() for part in (factor, stderr)),
            np.full(income.size * n_regimes, n_mc),
        ]
        results["n_paths"] = n_mc
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range is reported below
        unit = _unit_value(market, loading, *np.ix_(t_axis, x_axis, y_axis))[..., None]
        values = (unit * factor[:, None, None, :]).ravel()
        stderrs = [] if closed else [(np.abs(unit) * stderr[:, None, None, :]).ravel()]
    points = np.meshgrid(t_axis, x_axis, y_axis, labels, indexing="ij")
    columns = [*(axis.ravel() for axis in points), values, *stderrs]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        t, x, y = (column[bad[0]] for column in columns[:3])
        raise ParseError(f"grid: the value leaves the float range at t = {t:g}, x = {x:g}, y = {y:g}")

    curve_t = np.linspace(0.0, horizon, 201)
    out.table("income_loading", "t in time units; m is the exponent loading per unit income",
              "closed-form", ["t", "m"], [curve_t, loading.value(curve_t)])
    merton, hedge = (weight(market, curve_t[:, None], np.arange(n_regimes))
                     for weight in (merton_weight, hedge_weight))
    weights = np.stack([merton, hedge, merton + hedge], axis=-1).reshape(len(curve_t), -1)
    strategy_columns = [f"{part}[{label}]" for label in labels for part in ("merton", "hedge", "total")]
    out.table("strategy", "money units held in the stock", "closed-form", ["t", *strategy_columns],
              [curve_t, *weights.T])
    if closed:
        out.table("regime_factors", "dimensionless multiplicative value factors", "ODE",
                  ["t", *[f"h[{label}]" for label in labels]],
                  [curve_t, *factors.value(curve_t).T])
    else:
        out.table("value_factor_mc", "dimensionless wealth-free value factors", "MC±stderr",
                  ["t", "y", "regime", "estimate", "stderr", "n_paths"], factor_columns)
    out.table("value_grid", "expected terminal utility, dimensionless", "ODE" if closed else "MC±stderr",
              ["t", "x", "y", "regime", "value", "stderr"][: len(columns)], columns)
    return out.report(results)


def cmd_simulate(
    config: ModelConfig,
    out_dir: Path,
    wealth_start: float = 1.0,
    income_start: float = 0.0,
    regime: int = 0,
    n_paths: int | None = None,
) -> RunReport:
    """Emit sample (wealth, income, regime) paths under the optimal strategy."""
    out = _Artifacts("simulate", config, out_dir)
    market = config.market
    strategy = optimal_strategy(market, config.case)
    n = n_paths if n_paths is not None else min(config.n_paths, 16)
    n_sim = _sim_steps(config)
    labels = np.array(_state_labels(market.n_regimes, config.mapping), dtype=object)

    paths = simulate_wealth(
        market, strategy, 0.0, wealth_start, income_start, regime, n, n_sim, RngStream(config.seed, 0)
    )
    times, wealth, income, held = (
        np.concatenate([getattr(p, name) for p in paths]) for name in ("times", "wealth", "income", "regimes")
    )
    positions = _cells(np.concatenate([np.append(path.positions, 0.0) for path in paths]))
    positions[n_sim :: n_sim + 1] = [""] * n  # a path's horizon node holds no position
    out.table("paths", "t in time units; wealth, income, position in money units",
              "MC sample paths (exact conditional Gaussian steps at uniform nodes)",
              ["path", "t", "wealth", "income", "regime", "position"],
              [np.repeat(np.arange(n), n_sim + 1), times, wealth, income, labels[held], positions])
    terminal = wealth[n_sim :: n_sim + 1]
    results = {
        "n_paths": n,
        "terminal_wealth_max": float(terminal.max()),
        "terminal_wealth_mean": float(terminal.mean()),
        "terminal_wealth_min": float(terminal.min()),
    }
    return out.report(results, i0=regime, n_paths=n, x0=wealth_start, y0=income_start)


def cmd_evaluate(
    config: ModelConfig,
    out_dir: Path,
    wealth_start: float = 1.0,
    income_start: float = 0.0,
    regime: int = 0,
    comparisons: Sequence[float] = (),
    n_paths: int | None = None,
) -> RunReport:
    """Score the optimal strategy and constant comparisons on common paths."""
    out = _Artifacts("evaluate", config, out_dir)
    market = config.market
    bundle = build_solution(market, config.case, n_steps=config.n_steps)
    n = n_paths if n_paths is not None else config.n_paths

    policies = [("pi-hat (optimal)", bundle.strategy)]
    for level in comparisons:
        policies.append((f"constant pi={level:g}", Strategy(position=lambda t, regime, level=level: level)))
    # one simulation of the chain paths pairs every policy on identical paths
    strategies = [replace(strategy, label=name) for name, strategy in policies]
    try:
        estimates = _evaluate_policies(
            market, strategies, 0.0, wealth_start, income_start, regime, n, RngStream(config.seed, 0)
        )
    except OverflowError as exc:
        # the optimum is scored first, so a message naming another policy names a comparison
        if repr(policies[0][0]) in str(exc):
            raise
        raise ParseError(f"--compare: {exc}") from exc
    # after the scoring, which rejects a regime index out of range
    predicted = float(bundle.value(0.0, wealth_start, income_start, regime))
    rows, scored = [], {}
    for (name, _), est in zip(policies, estimates):
        rows.append([name, est.value, est.stderr, est.n_paths, predicted, est.value - predicted])
        scored[name] = {"estimate": est.value, "stderr": est.stderr,
                        "control_mean_gap": est.mean_gap, "control_mean_panels": est.mean_panels}
    out.table("evaluation", "expected terminal utility, dimensionless", "MC±stderr",
              ["policy", "estimate", "stderr", "n_paths", "predicted_value", "gap"], list(zip(*rows)))
    return out.report(
        {"policies": scored, "predicted_value": predicted},
        comparisons=list(comparisons), i0=regime, n_paths=n, x0=wealth_start, y0=income_start,
    )


def _validate_stream_id(check: str, regime: int = 0) -> int:
    """First key of one ``validate`` check: bits 56 and up name the check and
    bits 32-55 the regime, so checks of fewer than 2**32 blocks each and
    fewer than 2**24 regimes draw from disjoint keys by construction."""
    return {"policy": 0, "factor": (1 << 56) + (regime << 32), "rho0": 2 << 56}[check]


def cmd_validate(config: ModelConfig, out_dir: Path, n_paths: int | None = None) -> RunReport:
    """Run the cross-check battery and emit pass/fail rows with margins."""
    out = _Artifacts("validate", config, out_dir)
    market = config.market
    n_mc = n_paths if n_paths is not None else min(config.n_paths, 20000)
    rows, summary = [], {}

    def check(name, provenance, margin, tolerance, detail):
        status = "pass" if margin <= tolerance else "fail"
        rows.append([name, provenance, status, margin, tolerance, detail])
        summary[name] = {"margin": margin, "status": status, "tolerance": tolerance}

    if config.chain is None:
        for name, reason in (
            ("kronecker_oracle", "compound generator given directly"),
            ("simultaneous_jumps_zero", "no component chains"),
            ("marginal_preservation", "no component chains"),
        ):
            check(name, "closed-form", 0.0, 0.0, f"skipped: {reason}")
    else:
        eps, zeta = config.chain.eps, config.chain.zeta
        independent = compose_independent(eps, zeta)
        oracle = _loop_kronecker(eps.rates, zeta.rates)
        scale = max(np.max(np.abs(eps.rates)), np.max(np.abs(zeta.rates)))
        check("kronecker_oracle", "closed-form",
              float(np.max(np.abs(independent.generator.rates - oracle))), 1e-13 * scale,
              "independent composition vs loop-built Kronecker sum")
        check("simultaneous_jumps_zero", "closed-form", _simultaneous_mass(independent), 0.0,
              "rates where both components would jump at once")
        check("marginal_preservation", "closed-form",
              max(_marginal_gap(independent, t) for t in (0.1, 1.0, 5.0)), 1e-10,
              "compound time-t law marginalized vs component laws at t in {0.1, 1, 5}")

    factors = solve_regime_factors(market, n_steps=config.n_steps)
    worst = 0.0
    for regime in range(market.n_regimes):
        rng = RngStream(config.seed, _validate_stream_id("factor", regime))
        est = estimate_regime_factor(market, 0.0, regime, n_mc, rng)
        worst = max(worst, _gap(est.value, float(factors.value(0.0, regime)), est.stderr))
    check("h_mc_vs_ode", "MC±stderr", worst, 4.0,
          f"regime factors at t=0, {n_mc} paths per regime, gap in stderr units")

    value = value_function(market, factors=factors)
    strategy = optimal_strategy(market, config.case)
    (est,) = _evaluate_policies(
        market, [strategy], 0.0, 1.0, 0.0, 0, n_mc, RngStream(config.seed, _validate_stream_id("policy"))
    )
    predicted = float(value(0.0, 1.0, 0.0, 0))
    check("policy_vs_value", "MC±stderr", _gap(est.value, predicted, est.stderr), 4.0,
          f"optimal-policy score vs value prediction, {n_mc} paths, gap in stderr units")

    ratio = 0.0
    times = np.linspace(0.05 * market.horizon, 0.95 * market.horizon, 3)
    mesh = np.meshgrid(times, (0.0, 1.0, 2.0), (-0.5, 0.0, 0.5), indexing="ij")
    for regime in range(market.n_regimes):
        residual = hjb_residual(market, value, *mesh, regime)
        ratio = max(ratio, float(np.max(np.abs(residual) / (1.0 + np.abs(value(*mesh, regime))))))
    check("hjb_residual", "ODE", ratio, 1e-4,
          "max |residual| / (1 + |V|) over a 3x3x3 grid and all regimes")

    market_rho0 = replace(market, correlation=0.0)
    hedge = hedge_weight(market_rho0, np.linspace(0.0, market.horizon, 7)[:, None], np.arange(market.n_regimes))
    hedge_mass = float(np.max(np.abs(hedge)))
    check("rho_zero_hedge", "closed-form", hedge_mass, 0.0,
          "hedge position with correlation forced to 0")
    rng = RngStream(config.seed, _validate_stream_id("rho0"))
    est0 = estimate_value_mc(market_rho0, 0.0, 1.0, 0.2, 0, n_mc, rng)
    predicted0 = float(value_function(market_rho0, n_steps=config.n_steps)(0.0, 1.0, 0.2, 0))
    gap0 = _gap(est0.value, predicted0, est0.stderr)
    check("rho_zero_value", "MC±stderr", gap0, 4.0,
          f"sampled vs deterministic value at zero correlation, {n_mc} paths, stderr units")

    units = "margin and tolerance are check-specific: rates, probabilities, stderr units, residual ratios"
    out.table("validation", units, "closed-form / ODE / MC±stderr per row",
              ["check", "provenance", "status", "margin", "tolerance", "detail"], list(zip(*rows)))
    n_failed = sum(entry["status"] == "fail" for entry in summary.values())
    return out.report({"checks": summary, "n_checks": len(rows), "n_failed": n_failed})


def _gap(estimate: float, prediction: float, stderr: float) -> float:
    """``|estimate - prediction|`` in stderr units, or in the factor solve's accepted relative
    error where that is larger: paths from an absorbing regime are alike, with stderr 0 or noise."""
    return abs(estimate - prediction) / max(stderr, FACTOR_RTOL * abs(prediction))


def _loop_kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # element-by-element rebuild, deliberately independent of np.kron
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            row = i + n * j
            for i2 in range(n):
                out[row, i2 + n * j] += a[i, i2]
            for j2 in range(m):
                out[row, i + n * j2] += b[j, j2]
    return out


def _simultaneous_mass(chain: CompoundChainSpec) -> float:
    i, j = np.array([chain.mapping.pair(k) for k in range(chain.mapping.n_compound)]).T
    both = (i[:, None] != i) & (j[:, None] != j)  # pairs of states where both components differ
    return float(np.max(np.abs(chain.generator.rates[both]), initial=0.0))


def _marginal_gap(chain: CompoundChainSpec, t: float) -> float:
    n, m = chain.eps.n_states, chain.zeta.n_states
    joint = transition_probabilities(chain.generator, t).probs.reshape(m, n, m, n)
    p_eps = transition_probabilities(chain.eps, t).probs
    p_zeta = transition_probabilities(chain.zeta, t).probs
    gap_eps = np.max(np.abs(joint.sum(axis=2) - p_eps[None, :, :]))
    gap_zeta = np.max(np.abs(joint.sum(axis=3) - p_zeta[:, None, :]))
    return float(max(gap_eps, gap_zeta))


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimeweave",
        description="Compose compound regime chains and solve the income-hedging portfolio model.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, run, start_state=False):
        sub = subparsers.add_parser(name, help=summary)
        sub.add_argument("--config", required=True, help="path to the JSON model configuration")
        sub.add_argument("--seed", type=int, default=None, help="override numerics.seed")
        sub.add_argument("--out", default="out", help="output directory, created if missing")
        sub.add_argument("--paths", type=int, default=None, help="override the Monte Carlo path count")
        if start_state:
            sub.add_argument("--x0", type=float, default=1.0, help="initial wealth in money units")
            sub.add_argument("--y0", type=float, default=0.0, help="initial income level in money units")
            sub.add_argument("--i0", type=int, default=0, help="initial compound regime index")
        sub.set_defaults(run=run)
        return sub

    # each handler looks its cmd_* function up when it runs
    command("compose", "emit the compound chain artifacts",
            lambda config, out_dir, args: cmd_compose(config, out_dir))
    solve = command("solve", "emit loading, factors, strategy, and value tables",
                    lambda config, out_dir, args: cmd_solve(
                        config, out_dir, grid=parse_grid(args.grid) if args.grid else None,
                        n_paths=args.paths))
    solve.add_argument("--grid", default=None,
                       help="up to three comma-separated axes start:stop:count for t, x, y")
    command("simulate", "emit sample wealth/income/regime paths",
            lambda config, out_dir, args: cmd_simulate(
                config, out_dir, args.x0, args.y0, args.i0, n_paths=args.paths),
            start_state=True)
    evaluate = command("evaluate", "score policies against the value prediction",
                       lambda config, out_dir, args: cmd_evaluate(
                           config, out_dir, args.x0, args.y0, args.i0,
                           comparisons=_parse_levels(args.compare), n_paths=args.paths),
                       start_state=True)
    evaluate.add_argument("--compare", default="",
                          help="comma-separated constant stock positions to score against the optimum")
    command("validate", "run the cross-check battery",
            lambda config, out_dir, args: cmd_validate(config, out_dir, n_paths=args.paths))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on validation failure, 2 on config errors."""
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = load_config(args.config)
        problems = []  # every bad flag, reported in one error
        _check(problems, "--seed", RngStream, args.seed)
        # a single sample path is fine; a standard error needs two
        floor = 1 if args.command == "simulate" else 2
        if args.paths is not None and args.paths < floor:
            problems.append(("--paths", f"must be at least {floor}, got {args.paths}"))
        for flag in ("x0", "y0"):
            value = getattr(args, flag, 0.0)  # compose, solve and validate take no start state
            if not math.isfinite(value):
                problems.append((f"--{flag}", f"must be finite, got {value}"))
        if not 0 <= getattr(args, "i0", 0) < config.market.n_regimes:
            problems.append(("--i0", f"must lie in [0, {config.market.n_regimes}), got {args.i0}"))
        if problems:
            raise ValidationError(problems)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = args.run(config, out_dir, args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepTooCoarse as exc:
        print(f"config error: numerics.n_steps: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"config error: market: {exc}", file=sys.stderr)
        return 2
    for name in sorted(report.outputs):
        print(f"{name}: {Path(args.out) / report.outputs[name]}")
    print(f"# {args.command}: wall {time.perf_counter() - started:.2f} s", file=sys.stderr)
    if args.command == "validate" and report.results["n_failed"]:
        print(
            f"validation failed: {report.results['n_failed']} of"
            f" {report.results['n_checks']} checks",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
