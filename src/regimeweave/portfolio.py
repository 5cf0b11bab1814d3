"""Optimal stock positions, wealth simulation, and policy evaluation.

Positions are money amounts held in the stock, not fractions of wealth:
with exponential utility the optimal position is wealth-independent and
splits into a myopic mean-variance part and an income hedge.  Wealth paths
use an integrating-factor scheme that compounds interest exactly within
each step, so a zero-position, zero-income path earns the riskless rate to
machine precision.  Policies are scored conditional on the regime path,
along which terminal wealth is Gaussian, so no wealth grid is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .hjb import IncomeLoading, MarketModel, RegimeFactorTable, solve_income_loading, solve_regime_factors
from .markov import InvalidInput, RngStream
from .montecarlo import MCEstimate, _check_start, _estimate, _simulate_chains, _simulate_grids

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

# 3-node Gauss-Legendre rule on [0, 1] for the segment integrals of evaluate_policy
QUAD_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
QUAD_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


class CaseMismatch(InvalidInput):
    """Requested solution case contradicts the market's parameters."""


@dataclass(frozen=True)
class Strategy:
    """Feedback rule for the money amount held in the stock.

    ``position(t, regime)`` must accept numpy arrays broadcast against each
    other; neither wealth nor income enters, because exponential utility
    makes the optimum free of both.
    """

    position: Callable[[float, int], float]
    label: str = ""

    def __call__(self, t, regime):
        return self.position(t, regime)

    def scaled(self, factor: float) -> "Strategy":
        def scaled_position(t, regime):
            return factor * self.position(t, regime)

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
    if not 0.0 < risk_aversion < np.inf:
        raise InvalidInput([("risk_aversion", f"must be positive and finite, got {float(risk_aversion)!r}")])
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
    _check_case(case, market.correlation)
    if case == RHO_ZERO:

        def position(t, regime):
            return merton_weight(market, t, regime)

    else:

        def position(t, regime):
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

    def value(t, wealth, income, regime):
        out = _unit_value(market, loading, t, wealth, income) * factors.value(t, regime)
        return out if np.ndim(out) else float(out)

    return value


def _unit_value(market: MarketModel, loading: IncomeLoading, t, wealth, income):
    """``-(1/gamma) exp(-gamma wealth e^{rate (horizon - t)} + m(t) income)``: both cases' value
    is this times a factor ``f_k(t)``, the ODE table's or the sampled income-0 one."""
    gamma = market.risk_aversion
    growth = np.exp(market.rate * (market.horizon - np.asarray(t, dtype=float)))
    wealth, income = np.asarray(wealth, dtype=float), np.asarray(income, dtype=float)
    return -np.exp(-gamma * wealth * growth + loading.value(t) * income) / gamma


def build_solution(market: MarketModel, case: str = NORMAL_INCOME, n_steps: int = 2048) -> SolutionBundle:
    """Solve the model end to end: loading, factors, strategy, and value."""
    _check_case(case, market.correlation)
    factors = solve_regime_factors(market, n_steps=n_steps)
    return SolutionBundle(
        market=market,
        case=case,
        loading=solve_income_loading(market),
        factors=factors,
        strategy=optimal_strategy(market, case),
        value=value_function(market, factors=factors),
    )


def _check_case(case: str, correlation: float) -> None:
    if case not in (RHO_ZERO, NORMAL_INCOME):
        raise InvalidInput([("case", f"unknown case {case!r}; expected {RHO_ZERO!r} or {NORMAL_INCOME!r}")])
    if case == RHO_ZERO and correlation != 0.0:
        raise CaseMismatch([("case", f"{RHO_ZERO!r} requires zero correlation, got {correlation:g}")])


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

    Each path steps over ``n_steps`` uniform steps refined at its chain
    path's jumps, with its regime, position and income level frozen over a
    step, an error of first order in the step.  The stock and income shocks
    are correlated standard normals; interest compounds exactly through an
    integrating factor:

        wealth[k] = exp(rate (t_k - t_0)) * (wealth_start
                    + sum of discounted step cashflows before t_k)

    Paths are drawn in the block layout of :mod:`~regimeweave.montecarlo`
    with two sets of grid normals (stock, then income shocks): path ``k``
    runs on chain path ``k`` of :func:`evaluate_policy` with the same ``rng``
    and arguments, and does not depend on ``n_paths``.  The draws never
    depend on the strategy, so two strategies simulated on the same stream
    see identical scenarios (common random numbers).
    """
    _check_start(wealth_start=wealth_start, income_start=income_start)
    paths = []
    grids = _simulate_grids(market, regime, t_start, n_paths, n_steps, rng)
    for lengths, times, regimes, shocks in grids:
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
        np.asarray(strategy(times[..., :-1], regimes), dtype=float), dt.shape
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


def _accumulate(start: float, steps: NDArray[np.float64]) -> NDArray[np.float64]:
    """``start``, then ``start`` plus the running sums of ``steps`` along the last axis."""
    out = np.empty(steps.shape[:-1] + (steps.shape[-1] + 1,))
    out[..., 0] = start
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    out[..., 1:] += start
    return out


def evaluate_policy(
    market: MarketModel,
    strategy: Strategy,
    t_start: float,
    wealth_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    rng: RngStream,
) -> MCEstimate:
    """Expected terminal utility of a strategy, conditional on the regime path.

    Each path draws only the regime chain.  Given it, a position that
    depends on ``(t, regime)`` makes terminal wealth Gaussian with mean
    ``e^{r tau} M`` and variance ``e^{2 r tau} S``, where, with ``x`` and
    ``y`` the start wealth and income, ``D(u) = exp(-r (u - t))`` and
    ``K(u)`` the integral of ``D`` from ``u`` to the horizon,

        M = x + y K(t) + integral of [D pi (alpha - r) + K mu] du
        S = integral of [(D pi sigma + K delta rho)^2 + K^2 delta^2 (1 - rho^2)] du

    so the path contributes the exact conditional expected utility
    ``-exp(-gamma e^{r tau} M + gamma^2 e^{2 r tau} S / 2) / gamma``
    (conditional Monte Carlo; Glasserman 2004, section 4.5).  Both
    integrals run over the path's segments with a 3-node Gauss-Legendre
    rule, whose error (about 4e-11 of the value on segments 1.8 long) lies
    far below the statistical one, and no time step enters.  Block ``b`` of
    :data:`~regimeweave.montecarlo.BLOCK` paths draws from key
    ``[rng.seed, rng.stream_id + b]``; running different strategies with
    the same ``rng`` pairs them on identical chain paths.  Raises
    :class:`InvalidInput` for a non-finite start and :class:`OverflowError`
    when the expected utility leaves the float range.
    """
    (estimate,) = _evaluate_policies(
        market, [strategy], t_start, wealth_start, income_start, regime, n_paths, rng
    )
    return estimate


def _evaluate_policies(
    market, strategies, t_start, wealth_start, income_start, regime, n_paths, rng
) -> list[MCEstimate]:
    """:func:`evaluate_policy` of each strategy, all on one simulation of
    the chain paths; each estimate equals its own call's."""
    _check_start(wealth_start=wealth_start, income_start=income_start)
    r, gamma, horizon = market.rate, market.risk_aversion, market.horizon
    rho = market.correlation
    excess, vol, drift = market.excess_return(), market.stock_vol, market.income_drift
    hedged, unhedged = rho * market.income_vol, (1.0 - rho**2) * market.income_vol**2
    scale = gamma * np.exp(r * (horizon - t_start))  # gamma e^{r tau}
    start = wealth_start + income_start * _annuity(r, t_start, t_start, horizon)
    values = np.empty((len(strategies), n_paths))
    chunks = _simulate_chains(market.generator, regime, t_start, horizon, n_paths, rng)
    # an overflow leaves inf or NaN in the estimates, which raise below
    with np.errstate(over="ignore", invalid="ignore"):
        for first, counts, starts, ends, states, _ in chunks:
            # node k of segment s sits at [k, s], so the per-regime
            # coefficients, looked up at the segments' shape, broadcast over nodes
            span = ends - starts
            weights = QUAD_WEIGHTS[:, None] * span
            nodes = starts + QUAD_NODES[:, None] * span
            discount = np.exp(-r * (nodes - t_start))
            annuity = _annuity(r, nodes, t_start, horizon)
            # the strategy-free parts: expected income and its unhedgeable variance
            income_mean = drift[states] * (weights * annuity).sum(axis=0)
            income_var = unhedged[states] * (weights * annuity**2).sum(axis=0)
            hedge = annuity * hedged[states]
            terms = np.empty((2, len(strategies), len(states)))
            for k, strategy in enumerate(strategies):
                position = discount * strategy(nodes, states)
                terms[0, k] = excess[states] * (weights * position).sum(axis=0) + income_mean
                risk = position * vol[states] + hedge
                terms[1, k] = (weights * risk**2).sum(axis=0) + income_var
            mean, var = np.add.reduceat(terms, np.cumsum(counts) - counts, axis=-1)
            values[:, first : first + len(counts)] = -np.exp(
                -scale * (start + mean) + scale**2 * var / 2.0
            ) / gamma
        estimates = [_estimate(row) for row in values]
    for strategy, est in zip(strategies, estimates):
        if not np.isfinite([est.value, est.stderr]).all():
            raise OverflowError(
                f"expected utility of policy {strategy.label!r} exceeds the float range"
                f" over horizon {market.horizon}"
            )
    return estimates


def _annuity(rate: float, u, t_start: float, horizon: float):
    """``K(u)``: integral of ``exp(-rate (s - t_start))`` over ``s`` from ``u``
    to ``horizon``, in the cancellation-safe ``expm1`` form."""
    if rate == 0.0:
        return horizon - u
    return -np.exp(-rate * (u - t_start)) * np.expm1(-rate * (horizon - u)) / rate
