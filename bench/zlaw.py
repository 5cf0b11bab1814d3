"""Z-laws of the Monte Carlo estimators against their ODE values, over 300 seeds at 2000 paths.

Usage (from the repository root, with the package installed or ``src`` on ``PYTHONPATH``)::

    python3 bench/zlaw.py {optimal,half,factor}

For each of the three committed configs the check scores 300 estimates, from
seeds 1 to 300, as z-scores against an ODE value, prints one line of their law,
and exits nonzero at the first config whose z-scores have a mean off 0 or a
spread off 1 by four of its own standard errors:

- ``optimal``: the optimal policy's score against the value function;
- ``half``: half the optimum, against ``-(1/gamma) e^{start} f_0(0)``, where
  ``f' = -(c_pi f + Q f)``, ``f(T) = 1``, by Radau, and ``c_pi`` is built here
  from the ``merton_weight`` and ``hedge_weight`` positions, not from the
  library's coefficients;
- ``factor``: regime 0's factor against the factor ODE.

Each estimate starts at time 0 in regime 0, with wealth 1 and income 0.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from regimeweave.cli import load_config
from regimeweave.hjb import solve_regime_factors
from regimeweave.markov import RngStream
from regimeweave.montecarlo import estimate_regime_factor
from regimeweave.portfolio import evaluate_policy, hedge_weight, merton_weight, optimal_strategy, value_function

SEEDS = 300
PATHS = 2000
CONFIGS = ("configs/reference.json", "configs/rho_zero.json", "configs/copula.json")


def optimal(config):
    """The optimal policy's value and its estimate from a seed."""
    market = config.market
    strategy = optimal_strategy(market, config.case)
    value = float(value_function(market, n_steps=config.n_steps)(0.0, 1.0, 0.0, 0))
    return value, lambda seed: evaluate_policy(market, strategy, 0.0, 1.0, 0.0, 0, PATHS, RngStream(seed))


def half(config):
    """Half the optimal policy's Feynman-Kac value by Radau, and its estimate from a seed."""
    from scipy.integrate import solve_ivp

    market, factor = config.market, 0.5
    strategy = optimal_strategy(market, config.case).scaled(factor)
    r, horizon, gamma, rho = market.rate, market.horizon, market.risk_aversion, market.correlation
    regimes, q = np.arange(market.n_regimes), market.generator.rates
    scale = gamma * np.exp(r * horizon)  # gamma e^{r T}, from t = 0

    def rate(u):
        held = np.exp(-r * u) * factor * (merton_weight(market, u, regimes) + hedge_weight(market, u, regimes))
        annuity = (np.exp(-r * u) - np.exp(-r * horizon)) / r if r else horizon - u
        sigma, delta = market.stock_vol, market.income_vol
        var = (held * sigma + annuity * delta * rho) ** 2 + (annuity * delta) ** 2 * (1.0 - rho**2)
        return scale**2 * var / 2.0 - scale * (held * market.excess_return() + annuity * market.income_drift)

    solved = solve_ivp(lambda u, f: -(rate(u) * f + q @ f), (horizon, 0.0), np.ones(len(regimes)),
                       method="Radau", rtol=1e-12, atol=1e-14, jac=lambda u, f: -(np.diag(rate(u)) + q))
    if not solved.success:
        sys.exit(f"Radau failed: {solved.message}")
    value = -np.exp(-scale * 1.0) * solved.y[0, -1] / gamma  # start wealth 1, income 0, regime 0
    return value, lambda seed: evaluate_policy(market, strategy, 0.0, 1.0, 0.0, 0, PATHS, RngStream(seed))


def factor(config):
    """Regime 0's factor from the ODE at time 0, and its estimate from a seed."""
    market = config.market
    value = float(solve_regime_factors(market, n_steps=config.n_steps).value(0.0, 0))
    return value, lambda seed: estimate_regime_factor(market, 0.0, 0, PATHS, RngStream(seed))


def z_law(name: str, value: float, estimate) -> None:
    """Print the law of the z-scores of seeds 1 to ``SEEDS``; exit if it is off the standard normal's."""
    z = np.array([(est.value - value) / est.stderr for est in map(estimate, range(1, SEEDS + 1))])
    print(f"{name}: mean z {z.mean():.3f}, sd z {z.std(ddof=1):.3f}, max |z| {np.abs(z).max():.2f}")
    if abs(z.mean()) >= 4.0 / np.sqrt(SEEDS) or abs(z.std(ddof=1) - 1.0) >= 4.0 / np.sqrt(2.0 * (SEEDS - 1)):
        sys.exit("z-scores off their standard normal law")


def main() -> None:
    checks = {"optimal": optimal, "half": half, "factor": factor}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=checks)
    args = parser.parse_args()
    for path in CONFIGS:
        z_law(path, *checks[args.check](load_config(path)))


if __name__ == "__main__":
    main()
