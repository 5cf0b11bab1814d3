"""Optimal stock positions, wealth simulation, and policy evaluation.

Positions are money amounts held in the stock, not fractions of wealth:
with exponential utility the optimal position is wealth-independent and
splits into a myopic mean-variance part and an income hedge.  A strategy
is a pair of per-regime coefficients, so its exponent rate is quadratic
in the income loading, like the regime factor's growth rate.  Given the
regime path, discounted wealth plus discounted future income is Gaussian
with independent increments, and so is income; their moments are linear
in each segment's closed-form loading integrals.  Policies are scored on
the terminal moments in closed form, and wealth paths are sampled exactly
from each uniform step's moments, so no time step or quadrature enters
either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .hjb import (
    IncomeLoading, MarketModel, RegimeFactorTable, _frozen_array, _unit_value, solve_income_loading,
    solve_regime_factors,
)
from .markov import InvalidInput, RngStream
from .montecarlo import MCEstimate, _check_start, _first_jump_estimates, _segment_sums, _simulate_chains

__all__ = [
    "CaseMismatch",
    "RHO_ZERO",
    "NORMAL_INCOME",
    "Strategy",
    "WealthPath",
    "PolicyEstimate",
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


class CaseMismatch(InvalidInput):
    """Requested solution case contradicts the market's parameters."""


@dataclass(frozen=True)
class Strategy:
    """Money amount held in the stock: in regime ``i`` at time ``t``,

        a_i e^{-r (T - t)} + b_i (1 - e^{-r (T - t)}) / r

    (``b_i (T - t)`` at ``r = 0``), ``r`` and ``T`` its market's ``rate`` and
    ``horizon``; discounted, ``a D(T) + b K(u)`` (:func:`evaluate_policy`).  The
    optimum holds ``a = excess / (gamma sigma^2)``, ``b = -rho delta / sigma``,
    a constant amount ``c`` holds ``a = c``, ``b = r c``.  Neither wealth nor
    income enters: exponential utility makes the optimum free of both.
    """

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    rate: float
    horizon: float
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frozen_array(self.a))
        object.__setattr__(self, "b", _frozen_array(self.b))

    @classmethod
    def constant(cls, market: MarketModel, level, label: str = "") -> "Strategy":
        """The amount ``level`` in every regime, or ``level[i]`` in regime ``i``, at all times."""
        a = np.broadcast_to(np.asarray(level, dtype=float), (market.n_regimes,))
        return cls(a=a, b=market.rate * a, rate=market.rate, horizon=market.horizon, label=label)

    def position(self, t, regime):
        """The amount held at ``t`` in ``regime``, broadcast against each other."""
        tau = self.horizon - np.asarray(t, dtype=float)
        r = self.rate
        annuity = tau if r == 0.0 else -np.expm1(-r * tau) / r
        out = self.a[regime] * np.exp(-r * tau) + self.b[regime] * annuity
        return out if np.ndim(out) else float(out)

    __call__ = position

    def scaled(self, factor: float) -> "Strategy":
        suffix = f" x{factor:g}" if self.label else f"x{factor:g}"
        return replace(self, a=factor * self.a, b=factor * self.b, label=self.label + suffix)


@dataclass(frozen=True)
class WealthPath:
    """Joint wealth/income trajectory at uniform nodes: ``regimes[k]`` is the
    regime at ``times[k]``, after any jump there, and ``positions[k]`` the
    position taken there, one for each node before the horizon."""

    times: NDArray[np.float64]
    wealth: NDArray[np.float64]
    income: NDArray[np.float64]
    regimes: NDArray[np.int64]
    positions: NDArray[np.float64]


@dataclass(frozen=True)
class PolicyEstimate(MCEstimate):
    """A policy's score, with ``mean_gap``, the rounding bound of its control's
    mean, which moves the score by at most the control's slope times it; 0 for a
    start that cannot be left."""

    mean_gap: float


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

    Both cases hold the myopic plus hedge position.  ``"normal_income"``
    covers correlated arithmetic income; ``"rho0"`` is the uncorrelated
    special case and requires ``market.correlation == 0``, where the hedge
    is zero and only the myopic part remains.
    """
    _check_case(case, market.correlation)
    a = market.excess_return() / (market.risk_aversion * market.stock_vol**2)
    b = -market.correlation * market.income_vol / market.stock_vol
    return Strategy(a=a, b=b, rate=market.rate, horizon=market.horizon, label=case)


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

    Given the chain path, ``Z = D X + K Y`` and income ``Y`` (``D``, ``K``
    as in :func:`evaluate_policy`) are Gaussian with independent
    increments, so each of ``n_steps`` uniform steps draws income from its
    law, then ``Z`` given income, exactly (Glasserman 2004, section 3.3),
    and wealth is ``X = (Z - K Y) / D``.  A step's moments sum those of its
    pieces, cut at the path's jumps (a jump on a node ends the step before
    it), each linear in the piece's closed-form loading integrals
    (:func:`_moment_coefficients`).  Its chain paths are plain samples, not
    conditioned on the first jump as :func:`evaluate_policy`'s are, so
    path ``k`` does not run on chain path ``k`` of :func:`evaluate_policy`.
    It reads two normals a step in the layout of
    :mod:`~regimeweave.montecarlo`, and does not depend on ``n_paths``.  No
    draw depends on the strategy, so strategies simulated on the same
    stream share their scenarios (common random numbers).  Raises
    :class:`ValueError` for a start time outside ``[0, horizon)``.
    """
    _check_start(wealth_start=wealth_start, income_start=income_start)
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    r, horizon = market.rate, market.horizon
    times = np.linspace(float(t_start), float(horizon), n_steps + 1)
    times.flags.writeable = False  # shared by every path
    loading, table = solve_income_loading(market), _moment_coefficients(market, strategy, t_start)
    # D and K at the nodes, K = -m e^{-r tau} / gamma
    discount = np.exp(-r * (times - t_start))
    annuity = -loading.value(times) * (np.exp(-r * (horizon - t_start)) / market.risk_aversion)
    paths = []
    for _, counts, starts, _, states, normals in _simulate_chains(
        market.generator, regime, t_start, horizon, n_paths, rng, n_steps
    ):
        # a row's pieces: one from each node, the horizon's empty, and one from each jump
        n_rows, sizes = len(counts), counts + n_steps
        jump = np.delete(np.arange(len(starts)), np.cumsum(counts) - counts)  # the segments jumps open
        # the jump opening segment s of row r follows s - r - 1 jumps, the (n_steps + 1) r nodes of
        # earlier rows and the nodes of its row before it, so a jump on a node comes before the node
        at_jump = jump - 1 + n_steps * np.repeat(np.arange(n_rows), counts - 1)
        at_jump += np.searchsorted(times, starts[jump])
        is_jump = np.bincount(at_jump, minlength=sizes.sum()).astype(bool)
        at_node = np.flatnonzero(~is_jump)
        lo = np.empty(len(is_jump))
        lo[at_jump], lo[at_node] = starts[jump], np.tile(times, n_rows)
        hi = np.maximum(np.append(lo[1:], horizon), lo)  # the row's next piece's start; the horizon's is empty
        k = states[np.repeat(np.arange(n_rows), sizes) + np.cumsum(is_jump)]
        # mean of Z and of Y, variance of Z and of Y, and their covariance, summed over each step's pieces
        steps = _segment_sums(loading, table, lo, hi, k, at_node).reshape(len(table), n_rows, n_steps + 1)
        mean_z, mean_y, var_z, var_y, cov = steps[..., :-1]  # the horizon's empty piece dropped
        # each step draws income, then Z given income
        root_y = np.sqrt(var_y)
        beta = np.divide(cov, root_y, out=np.zeros_like(cov), where=root_y > 0.0)
        shock_z = beta * normals[:, 1] + np.sqrt(np.maximum(var_z - beta**2, 0.0)) * normals[:, 0]
        z = np.cumsum(np.insert(mean_z + shock_z, 0, wealth_start + income_start * annuity[0], axis=1), axis=1)
        income = np.cumsum(np.insert(mean_y + root_y * normals[:, 1], 0, income_start, axis=1), axis=1)
        wealth = (z - income * annuity) / discount
        wealth[:, 0] = wealth_start
        regimes = k[at_node].reshape(n_rows, n_steps + 1)
        positions = np.array(np.broadcast_to(strategy(times[:-1], regimes[:, :-1]), var_y.shape), dtype=float)
        paths += [WealthPath(times, *rows) for rows in zip(wealth, income, regimes, positions)]
    return paths


def evaluate_policy(
    market: MarketModel,
    strategy: Strategy,
    t_start: float,
    wealth_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    rng: RngStream,
) -> PolicyEstimate:
    """Expected terminal utility of a strategy, conditional on the regime path.

    Each path draws only the regime chain.  Given it, terminal wealth is
    Gaussian with mean ``e^{r tau} M`` and variance ``e^{2 r tau} S``, where,
    with ``x`` and ``y`` the start wealth and income, ``D(u) = exp(-r (u - t))``
    and ``K(u)`` the integral of ``D`` from ``u`` to the horizon,

        M = x + y K(t) + integral of [D pi (alpha - r) + K mu] du
        S = integral of [(D pi sigma + K delta rho)^2 + K^2 delta^2 (1 - rho^2)] du

    so the path contributes the exact conditional expected utility
    ``-exp(a) / gamma``, ``a = -gamma e^{r tau} M + gamma^2 e^{2 r tau} S / 2``
    (conditional Monte Carlo; Glasserman 2004, section 4.5).  As ``D pi =
    a_i D(T) + b_i K`` and ``K`` is the loading ``m`` over ``-gamma e^{r tau}``,
    ``a`` is the start term ``-gamma e^{r tau} (x + y K(t))`` plus the path
    integral of ``constant + linear m + quadratic m^2``
    (:func:`_rate_coefficients`), summed over the segments in closed form.

    The estimate runs on the regime factor's estimator
    (:func:`~regimeweave.montecarlo._first_jump_estimates`): conditioned on
    the first jump, the branch that never leaves ``regime`` valued once, and
    each path's utility controlled by its exponent, whose mean is one matrix
    exponential (:func:`~regimeweave.hjb._growth_mean`), which cuts the
    optimal policy's variance 800- to 49000-fold on the committed configs.
    The :class:`PolicyEstimate` reports that mean's rounding bound beside
    the sampling error.  A start regime that cannot be left scores exactly.  Block ``b`` of
    :data:`~regimeweave.montecarlo.BLOCK` paths draws from key ``[rng.seed,
    rng.stream_id + b]``; running different strategies with the same ``rng``
    pairs them on identical chain paths.  Raises :class:`InvalidInput` for a
    non-finite start or a strategy of another market, :class:`ValueError`
    for a start time outside ``[0, horizon)`` or a start regime out of
    range, and :class:`OverflowError` when the expected utility leaves the
    float range.
    """
    (estimate,) = _evaluate_policies(
        market, [strategy], t_start, wealth_start, income_start, regime, n_paths, rng
    )
    return estimate


def _evaluate_policies(
    market, strategies, t_start, wealth_start, income_start, regime, n_paths, rng
) -> list[PolicyEstimate]:
    """:func:`evaluate_policy` of each strategy, all on one simulation of
    the chain paths; each estimate equals its own call's."""
    _check_start(wealth_start=wealth_start, income_start=income_start)
    gamma, horizon = market.risk_aversion, market.horizon
    # the exponent's start term, -gamma e^{r tau} (x + y K(t)) = -gamma e^{r tau} x + m(t) y
    growth = np.exp(market.rate * (horizon - t_start))
    start = -gamma * wealth_start * growth + solve_income_loading(market).value(t_start) * income_start
    with np.errstate(over="ignore", invalid="ignore"):  # a coefficient past the float range raises below
        rates = np.stack([_rate_coefficients(market, strategy) for strategy in strategies])
    estimates, gaps = _first_jump_estimates(market, regime, t_start, n_paths, rng, rates, start, -gamma, [
        f"expected utility of policy {strategy.label!r} exceeds the float range over horizon {horizon}"
        for strategy in strategies
    ])
    return [PolicyEstimate(est.value, est.stderr, est.n_paths, float(gap)) for est, gap in zip(estimates, gaps)]


def _rate_coefficients(market: MarketModel, strategy: Strategy) -> NDArray[np.float64]:
    """Per regime ``(constant, linear, quadratic)`` of the strategy's exponent rate in the
    loading ``m`` (:func:`evaluate_policy`), ``gamma^2 var / 2 - gamma mean`` of the
    :func:`_moment_coefficients` of ``Z`` at the horizon, where ``D = 1``; with ``e =
    sigma b + rho delta``,

        constant = (gamma sigma a)^2 / 2 - gamma (alpha - r) a
        linear = mu + (alpha - r) b - gamma sigma a e
        quadratic = (e^2 + (1 - rho^2) delta^2) / 2

    free of the start time; the optimum's are :func:`~regimeweave.hjb.growth_coefficients`."""
    mean, _, variance, _, _ = _moment_coefficients(market, strategy, market.horizon)
    return market.risk_aversion**2 * variance / 2.0 - market.risk_aversion * mean


def _moment_coefficients(market: MarketModel, strategy: Strategy, t_start: float) -> NDArray[np.float64]:
    """``(5, 3, n_regimes)``: the per-regime coefficients of a piece's length and integrals of
    ``m`` and ``m^2`` in the means of ``Z`` and ``Y``, their variances and their covariance
    (:func:`simulate_wealth`), from ``D pi = a D(T) + b K`` and ``K = -k m``."""
    _check_strategy(market, strategy)
    a, b, rho, drift = strategy.a, strategy.b, market.correlation, market.income_drift
    excess, sigma, delta = market.excess_return(), market.stock_vol, market.income_vol
    discount = np.exp(-market.rate * (market.horizon - t_start))  # D(T)
    held, k = a * discount, discount / market.risk_aversion
    exposure = sigma * b + rho * delta
    square = (exposure**2 + (1.0 - rho**2) * delta**2) * k**2
    zero = np.zeros_like(a)
    return np.stack([
        [excess * held, -(excess * b + drift) * k, zero],
        [drift, zero, zero],
        [(sigma * held) ** 2, -2.0 * sigma * held * exposure * k, square],
        [delta**2, zero, zero],
        [rho * delta * sigma * held, -(rho * delta * sigma * b + delta**2) * k, zero],
    ])


def _check_strategy(market: MarketModel, strategy: Strategy) -> None:
    """Raise :class:`~regimeweave.markov.InvalidInput` unless ``strategy`` is held in ``market``."""
    n, r, horizon = market.n_regimes, market.rate, market.horizon
    if (strategy.a.shape, strategy.b.shape, strategy.rate, strategy.horizon) != ((n,), (n,), r, horizon):
        rule = f"needs one (a, b) per regime ({n}) at the market's rate {r!r} and horizon {horizon!r}"
        raise InvalidInput([("strategy", rule)])
