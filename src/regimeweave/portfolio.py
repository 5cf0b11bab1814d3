"""Optimal stock positions, wealth simulation, and policy evaluation.

Positions are money amounts held in the stock, not fractions of wealth:
with exponential utility the optimal position is wealth-independent and
splits into a myopic mean-variance part and an income hedge.  Wealth paths
use an integrating-factor scheme that compounds interest exactly within
each step, so a zero-position, zero-income path earns the riskless rate to
machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .hjb import IncomeLoading, MarketModel, RegimeFactorTable, solve_income_loading, solve_regime_factors
from .markov import RngStream
from .montecarlo import MCEstimate, _accumulate, _estimate, _simulate_grids

__all__ = [
    "CaseMismatch",
    "RHO_ZERO",
    "NORMAL_INCOME",
    "Strategy",
    "WealthPath",
    "SolutionBundle",
    "utility",
    "merton_weight",
    "hedge_weight",
    "optimal_strategy",
    "value_function",
    "build_solution",
    "simulate_wealth",
    "evaluate_policy",
]

RHO_ZERO = "rho0"
NORMAL_INCOME = "normal_income"


class CaseMismatch(ValueError):
    """Requested solution case contradicts the market's parameters."""


@dataclass(frozen=True)
class Strategy:
    """Feedback rule for the money amount held in the stock.

    ``position(t, income, regime)`` must accept numpy arrays broadcast
    against each other; wealth never enters because exponential utility
    makes the optimum wealth-free.
    """

    position: Callable[[float, float, int], float]
    label: str = ""

    def __call__(self, t, income, regime):
        return self.position(t, income, regime)

    def scaled(self, factor: float) -> "Strategy":
        def scaled_position(t, income, regime):
            return factor * self.position(t, income, regime)

        suffix = f" x{factor:g}" if self.label else f"x{factor:g}"
        return Strategy(position=scaled_position, label=self.label + suffix)


@dataclass(frozen=True)
class WealthPath:
    """Joint wealth/income trajectory on a jump-refined grid.

    ``regimes`` and ``positions`` apply on ``[times[k], times[k+1])``.
    """

    times: NDArray[np.float64]
    wealth: NDArray[np.float64]
    income: NDArray[np.float64]
    regimes: NDArray[np.int64]
    positions: NDArray[np.float64]


@dataclass(frozen=True)
class SolutionBundle:
    """Everything the solved model offers: curves, strategy, and value."""

    market: MarketModel
    case: str
    loading: IncomeLoading
    factors: RegimeFactorTable
    strategy: Strategy
    value: Callable[[float, float, float, int], float]


def utility(wealth, risk_aversion: float):
    """Exponential utility ``-exp(-risk_aversion * wealth) / risk_aversion``."""
    if risk_aversion <= 0:
        raise ValueError("risk_aversion must be positive")
    out = -np.exp(-risk_aversion * np.asarray(wealth, dtype=float)) / risk_aversion
    return out if out.ndim else float(out)


def merton_weight(market: MarketModel, t, regime):
    """Myopic position: excess return over ``risk_aversion * variance``,
    discounted by the remaining riskless growth."""
    tau = market.horizon - np.asarray(t, dtype=float)
    excess = market.excess_return()[regime]
    vol = market.stock_vol[regime]
    out = excess / (market.risk_aversion * vol**2 * np.exp(market.rate * tau))
    return out if np.ndim(out) else float(out)


def hedge_weight(market: MarketModel, t, regime):
    """Income-hedging position, zero when stock and income are uncorrelated.

    Closed form ``-income_vol * correlation * expm1(rate * tau) /
    (rate * stock_vol * exp(rate * tau))`` with the zero-rate limit
    ``-income_vol * correlation * tau / stock_vol``.
    """
    tau = market.horizon - np.asarray(t, dtype=float)
    ivol = market.income_vol[regime]
    vol = market.stock_vol[regime]
    rho = market.correlation
    if market.rate == 0.0:
        out = -ivol * rho * tau / vol
    else:
        r = market.rate
        out = -ivol * rho * np.expm1(r * tau) / (r * vol * np.exp(r * tau))
    return out if np.ndim(out) else float(out)


def optimal_strategy(market: MarketModel, case: str = NORMAL_INCOME) -> Strategy:
    """Optimal feedback position for the requested solution case.

    ``"normal_income"`` covers correlated arithmetic income and returns the
    myopic plus hedge position; ``"rho0"`` is the uncorrelated special case
    and requires ``market.correlation == 0``, where the hedge vanishes and
    only the myopic part remains.
    """
    _check_case(market, case)
    if case == RHO_ZERO:

        def position(t, income, regime):
            return merton_weight(market, t, regime)

    else:

        def position(t, income, regime):
            return merton_weight(market, t, regime) + hedge_weight(market, t, regime)

    return Strategy(position=position, label=case)


def value_function(
    market: MarketModel,
    factors: RegimeFactorTable | None = None,
    n_steps: int = 2048,
):
    """Closed-form value function ``V(t, wealth, income, regime)``.

    Solves the regime-factor ODE if no table is supplied.  The returned
    callable broadcasts over array arguments.
    """
    if factors is None:
        factors = solve_regime_factors(market, n_steps=n_steps)
    loading = solve_income_loading(market)
    gamma = market.risk_aversion

    def value(t, wealth, income, regime):
        growth = np.exp(market.rate * (market.horizon - np.asarray(t, dtype=float)))
        exponent = -gamma * np.asarray(wealth, dtype=float) * growth + loading.value(t) * np.asarray(
            income, dtype=float
        )
        out = -np.exp(exponent) / gamma * factors.value(t, regime)
        return out if np.ndim(out) else float(out)

    return value


def build_solution(market: MarketModel, case: str = NORMAL_INCOME, n_steps: int = 2048) -> SolutionBundle:
    """Solve the model end to end: loading, factors, strategy, and value."""
    _check_case(market, case)
    factors = solve_regime_factors(market, n_steps=n_steps)
    return SolutionBundle(
        market=market,
        case=case,
        loading=solve_income_loading(market),
        factors=factors,
        strategy=optimal_strategy(market, case),
        value=value_function(market, factors=factors),
    )


def _check_case(market: MarketModel, case: str) -> None:
    if case not in (RHO_ZERO, NORMAL_INCOME):
        raise ValueError(f"unknown case {case!r}; expected {RHO_ZERO!r} or {NORMAL_INCOME!r}")
    if case == RHO_ZERO and market.correlation != 0.0:
        raise CaseMismatch(
            f"case 'rho0' requires zero correlation, market has {market.correlation}"
        )


def simulate_wealth(
    market: MarketModel,
    strategy: Strategy,
    t_start: float,
    wealth_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    n_steps: int,
    rng: RngStream,
) -> list[WealthPath]:
    """Simulate joint (regime, income, wealth) paths under a strategy.

    The stock and income shocks are correlated standard normals; interest
    compounds exactly through an integrating factor, with the position,
    income level, and regime frozen over each step:

        wealth[k] = exp(rate (t_k - t_0)) * (wealth_start
                    + sum of discounted step cashflows before t_k)

    Paths are drawn in the block layout of :mod:`~regimeweave.montecarlo`
    with two sets of grid normals (stock, then income shocks): path ``k`` is
    scenario ``k`` of :func:`evaluate_policy` with the same ``rng`` and
    arguments, and does not depend on ``n_paths``.  The draws never depend
    on the strategy, so two strategies simulated on the same stream see
    identical scenarios (common random numbers).
    """
    paths = []
    grids = _simulate_grids(market, regime, t_start, n_paths, n_steps, rng, 2)
    for _, lengths, times, regimes, shocks in grids:
        wealth, income, positions = _wealth_rows(
            market, strategy, t_start, wealth_start, income_start, times, regimes, *shocks
        )
        for r, n in enumerate(lengths):
            paths.append(WealthPath(
                times[r, :n], wealth[r, :n], income[r, :n],
                regimes[r, : n - 1], np.array(positions[r, : n - 1]),
            ))
    return paths


def _wealth_rows(
    market, strategy, t_start, wealth_start, income_start, times, regimes, stock_shock, income_shock
):
    """Wealth, income and positions on grids, one path per row of the last
    axis, as :func:`simulate_wealth` describes."""
    dt = np.diff(times)
    sqrt_dt = np.sqrt(dt)
    rho = market.correlation
    joint = rho * stock_shock + np.sqrt(1.0 - rho**2) * income_shock
    income = _accumulate(
        income_start, market.income_drift[regimes] * dt + market.income_vol[regimes] * sqrt_dt * joint
    )
    positions = np.broadcast_to(
        np.asarray(strategy(times[..., :-1], income[..., :-1], regimes), dtype=float), dt.shape
    )

    r = market.rate
    accrual = np.expm1(r * dt) / r if r != 0.0 else dt  # integral of exp(r s) over a step
    cash = (
        positions * market.excess_return()[regimes] + income[..., :-1]
    ) * accrual + positions * market.stock_vol[regimes] * sqrt_dt * stock_shock
    discount = np.exp(-r * (times[..., 1:] - t_start))
    wealth = _accumulate(wealth_start, discount * cash)
    wealth *= np.exp(r * (times - t_start))
    return wealth, income, positions


def evaluate_policy(
    market: MarketModel,
    strategy: Strategy,
    t_start: float,
    wealth_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    n_steps: int,
    rng: RngStream,
) -> MCEstimate:
    """Expected terminal utility of a strategy by path simulation.

    Block ``b`` of :data:`~regimeweave.montecarlo.BLOCK` paths draws from
    key ``[rng.seed, rng.stream_id + b]``; running different strategies with
    the same ``rng`` pairs them on identical scenarios.
    """
    (estimate,) = _evaluate_policies(
        market, [strategy], t_start, wealth_start, income_start, regime, n_paths, n_steps, rng
    )
    return estimate


def _evaluate_policies(
    market, strategies, t_start, wealth_start, income_start, regime, n_paths, n_steps, rng
) -> list[MCEstimate]:
    """:func:`evaluate_policy` of each strategy, all on one simulation of
    the scenarios; each estimate equals its own call's."""
    values = np.empty((len(strategies), n_paths))
    grids = _simulate_grids(market, regime, t_start, n_paths, n_steps, rng, 2)
    for index, lengths, times, regimes, shocks in grids:
        for row, strategy in zip(values, strategies):
            wealth, _, _ = _wealth_rows(
                market, strategy, t_start, wealth_start, income_start, times, regimes, *shocks
            )
            row[index] = utility(wealth[np.arange(len(index)), lengths - 1], market.risk_aversion)
    return [_estimate(row) for row in values]
