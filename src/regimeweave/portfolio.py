"""Optimal stock positions, wealth simulation, and policy evaluation.

Positions are money amounts held in the stock, not fractions of wealth:
with exponential utility the optimal position is wealth-independent and
splits into a myopic mean-variance part and an income hedge.  Given the
regime path, discounted wealth plus discounted future income is Gaussian
with independent increments, and so is income; one segment-integral rule
gives their moments.  Policies are scored on the terminal moments in
closed form, and wealth paths are sampled exactly from each uniform
step's moments, so no time step enters either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .hjb import (
    IncomeLoading, MarketModel, RegimeFactorTable, _unit_value, solve_income_loading, solve_regime_factors,
)
from .markov import InvalidInput, RngStream, transition_probabilities
from .montecarlo import MCEstimate, _check_start, _first_jump_estimates, _first_jump_split, _simulate_chains

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

# 3-node Gauss-Legendre rule on [0, 1] for the segment integrals
QUAD_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
QUAD_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
# the most change in exponent of exp(-2 rate u), the fastest integrand, across a piece of the segment rule
PIECE_EXPONENT = 0.1
# the control's mean: its fewest panels, the agreement of two runs that ends the
# doubling, and the most matrix entries of one run's exponential stack
MIN_PANELS = 8
MEAN_TOL = 1e-12
MEAN_ENTRIES = 2**20


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
    """A policy's score, with the accuracy of its control's mean: ``mean_gap``,
    the exponent mean's last doubling gap (its part of ``stderr``), and
    ``mean_panels``, the panels of its quadrature; 0 for a start that cannot be left."""

    mean_gap: float
    mean_panels: int


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
    and wealth is ``X = (Z - K Y) / D``.  A step's moments sum the 3-node
    rule of :func:`evaluate_policy` over the step's own pieces, cut at the
    path's jumps (a jump on a node ends the step before it), so the only
    error is the rule's on each piece.  Its chain paths are plain samples,
    not conditioned on the first jump as :func:`evaluate_policy`'s are, so
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
    r, horizon, rho = market.rate, market.horizon, market.correlation
    times = np.linspace(float(t_start), float(horizon), n_steps + 1)
    times.flags.writeable = False  # shared by every path
    discount, annuity = np.exp(-r * (times - t_start)), _annuity(r, times, t_start, horizon)
    drift, variance = market.income_drift, market.income_vol**2
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
        k, span = states[np.repeat(np.arange(n_rows), sizes) + np.cumsum(is_jump)], hi - lo
        annuity_int, square_int, ((position_int, risk_int),) = _segment_integrals(
            market, [strategy], t_start, lo, hi, k
        )
        # mean of Z and of Y, variance of Z and of Y, and their covariance, summed over each step's pieces
        moments = np.stack([
            market.excess_return()[k] * position_int + drift[k] * annuity_int,
            drift[k] * span,
            risk_int + (1.0 - rho**2) * variance[k] * square_int,
            variance[k] * span,
            rho * (market.income_vol * market.stock_vol)[k] * position_int + variance[k] * annuity_int,
        ])
        steps = np.add.reduceat(moments, at_node, axis=-1).reshape(len(moments), n_rows, n_steps + 1)
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
    integrals run over the path's segments by :func:`_segment_integrals`,
    whose error (about 1e-10 of the value on a segment 10 long) lies far
    below the statistical one, and no time step enters.

    The estimate is conditioned on the first jump by the estimator that
    :func:`~regimeweave.montecarlo.estimate_regime_factor` uses: the chain
    stays in ``regime`` up to the horizon with probability ``stay =
    exp(-exit_rate * (horizon - t_start))``, and each path contributes
    ``stay`` times the utility on that one-segment path, from the same
    segment integrals, plus ``1 - stay`` times its own, its first jump
    conditioned to land before the horizon.

    The utility on a path is ``-exp(a) / gamma`` for the exponent ``a``
    above, a sum of path integrals whose mean ``E[a]`` needs only the chain's
    law ``exp(Q s)``, not the factor ODE.  So every path, and the branch that
    stays, scores ``u - beta (a - E[a])``, a control variate (Glasserman
    2004, section 4.1) with a constant ``beta``: the estimate stays
    unbiased, and the optimal policy's variance falls 800- to 49000-fold on
    the committed configs.  The returned :class:`PolicyEstimate`'s
    ``stderr`` adds ``|beta|`` times the gap of ``E[a]``'s quadrature to the
    sampling error, and reports that gap and the quadrature's panels.  A
    start regime that cannot be left scores exactly, with no control.  Block ``b`` of
    :data:`~regimeweave.montecarlo.BLOCK` paths draws from key
    ``[rng.seed, rng.stream_id + b]``; running different strategies with
    the same ``rng`` pairs them on identical chain paths.  Raises
    :class:`InvalidInput` for a non-finite start, :class:`ValueError` for a
    start time outside ``[0, horizon)`` or a start regime out of range, and
    :class:`OverflowError` when the expected utility leaves the float range.
    """
    (estimate,) = _evaluate_policies(
        market, [strategy], t_start, wealth_start, income_start, regime, n_paths, rng
    )
    return estimate


def _evaluate_policies(
    market, strategies, t_start, wealth_start, income_start, regime, n_paths, rng
) -> list[PolicyEstimate]:
    """:func:`evaluate_policy` of each strategy, all on one simulation of
    the chain paths; each estimate equals its own call's.

    The exponent ``a`` is the path integral of :func:`_exponent_rates` plus
    the start term ``-gamma e^{r tau} (x + y K(t))``, and ``E[a]`` comes from
    :func:`_exponent_mean`; :func:`~regimeweave.montecarlo._first_jump_estimates`
    scores ``u = -exp(a) / gamma`` under its control.
    """
    _check_start(wealth_start=wealth_start, income_start=income_start)
    r, gamma, horizon = market.rate, market.risk_aversion, market.horizon
    # the exponent's start term, -gamma e^{r tau} (x + y K(t))
    start = wealth_start + income_start * _annuity(r, t_start, t_start, horizon)
    start *= -gamma * np.exp(r * (horizon - t_start))

    def exponents(counts, starts, ends, states):
        """Each strategy's exponent ``a`` on each path of a chunk."""
        integrals = _segment_integrals(market, strategies, t_start, starts, ends, states)
        return np.add.reduceat(_exponent_rates(market, t_start, *integrals, states), np.cumsum(counts) - counts,
                               axis=-1) + start

    _, leave = _first_jump_split(market.generator, regime, t_start, horizon)
    n = len(strategies)
    mean, gap, panels = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or NaN, which raises below
        if leave:  # a start that cannot be left scores exactly, with no control
            mean, gap, panels = _exponent_mean(market, strategies, t_start, regime)
        mean = mean + start
    estimates = _first_jump_estimates(market, regime, t_start, n_paths, rng, exponents, mean, gap, -gamma, [
        f"expected utility of policy {strategy.label!r} exceeds the float range over horizon {horizon}"
        for strategy in strategies
    ])
    return [PolicyEstimate(est.value, est.stderr, est.n_paths, float(g), int(p))
            for est, g, p in zip(estimates, gap, panels)]


def _exponent_rates(market, t_start, annuity, square, per_strategy, states):
    """Each strategy's exponent rate ``c_pi = gamma^2 e^{2 r tau} s / 2 -
    gamma e^{r tau} m`` from :func:`_integrands`, ``m`` and ``s`` the
    integrands of ``M`` and ``S`` in :func:`evaluate_policy`; or, being linear
    in them, its integrals from :func:`_segment_integrals`."""
    scale = market.risk_aversion * np.exp(market.rate * (market.horizon - t_start))  # gamma e^{r tau}
    unhedged = (1.0 - market.correlation**2) * market.income_vol**2  # income variance the stock cannot hedge
    mean = market.excess_return()[states] * per_strategy[:, 0] + market.income_drift[states] * annuity
    return scale**2 * (per_strategy[:, 1] + unhedged[states] * square) / 2.0 - scale * mean


def _exponent_mean(market, strategies, t_start, regime):
    """``(mean, gap, panels)``: each strategy's ``E[integral of c_pi(u, X_u)
    du]`` from ``t_start`` to the horizon, the chain ``X`` in ``regime`` at
    ``t_start`` and ``c_pi`` from :func:`_exponent_rates`.

    It needs only the chain's law ``p(u)``, row ``regime`` of ``exp(Q (u -
    t_start))``, from one batched
    :func:`~regimeweave.markov.transition_probabilities` call at the nodes
    of a composite 3-node Gauss-Legendre rule.  Its panels start at about
    two per expected jump of the fastest state, at least :data:`MIN_PANELS`
    and at most what keeps two runs within :data:`MEAN_ENTRIES`, and double
    until two runs agree to :data:`MEAN_TOL` (relative above one), or until
    a run would pass :data:`MEAN_ENTRIES`.
    Each strategy keeps its own first such run, so its entry does not depend
    on the others: ``mean`` is the finer run, ``gap`` its difference from the
    one before, and ``panels`` the finer run's panels.
    """
    n, rows = market.n_regimes, len(strategies)
    span = market.horizon - t_start
    panels = 1 << int(np.ceil(np.log2(max(MIN_PANELS, 2.0 * market.generator.exit_rates().max() * span))))
    most = MEAN_ENTRIES // (6 * n * n)  # a run of `panels` holds 3 panels n^2 entries, the next twice that
    panels = min(panels, 1 << max(most.bit_length() - 1, 0))
    mean, gap, settled_at = np.empty(rows), np.empty(rows), np.zeros(rows, dtype=np.int64)
    previous = None
    while not settled_at.all():
        width = span / panels
        offsets = (width * (np.arange(panels)[:, None] + QUAD_NODES)).ravel()  # u - t_start at each node
        weights = np.tile(width * QUAD_WEIGHTS, panels)[:, None]
        laws = transition_probabilities(market.generator, offsets).probs[:, regime] * weights
        integrands = _integrands(market, strategies, t_start, t_start + offsets[:, None], np.arange(n))
        run = np.einsum("knj,nj->k", _exponent_rates(market, t_start, *integrands, np.arange(n)), laws)
        if previous is not None:
            last = 6 * panels * n * n > MEAN_ENTRIES  # the next run would pass the bound
            change = np.abs(run - previous)
            settle = (settled_at == 0) & (last | (change <= MEAN_TOL * np.maximum(1.0, np.abs(run))))
            mean[settle], gap[settle], settled_at[settle] = run[settle], change[settle], panels
        previous, panels = run, 2 * panels
    return mean, gap, settled_at


def _segment_integrals(market, strategies, t_start, starts, ends, states):
    """:func:`_integrands` integrated over each segment, from ``starts`` to
    ``ends`` in ``states``, by the 3-node Gauss-Legendre rule on the fewest
    equal pieces that keep ``2 |rate|`` times a piece's length within
    :data:`PIECE_EXPONENT` (one piece on the committed configs).  The count
    depends on the segment alone, and piece ``j`` of every segment that has
    one is added in turn, so memory stays that of the segments."""
    span = ends - starts
    pieces = np.maximum(np.ceil(2.0 * abs(market.rate) * span / PIECE_EXPONENT), 1.0)
    width = span / pieces
    totals = _piece_integrals(market, strategies, t_start, starts, width, states)
    for j in range(1, int(pieces.max(initial=1.0))):
        live = np.flatnonzero(pieces > j)
        step = width[live]
        parts = _piece_integrals(market, strategies, t_start, starts[live] + j * step, step, states[live])
        for total, part in zip(totals, parts):
            total[..., live] += part
    return totals


def _piece_integrals(market, strategies, t_start, starts, width, states):
    """:func:`_integrands` by the 3-node Gauss-Legendre rule on pieces ``width`` long from ``starts``."""
    # node k of piece s sits at [k, s]; per-regime coefficients at the pieces' shape broadcast over nodes
    weights = QUAD_WEIGHTS[:, None] * width
    integrands = _integrands(market, strategies, t_start, starts + QUAD_NODES[:, None] * width, states)
    return tuple((weights * f).sum(axis=-2) for f in integrands)


def _integrands(market, strategies, t_start, times, states):
    """``(K, K^2, per_strategy)`` at ``times`` in ``states``, broadcast against
    each other (``D``, ``K`` as in :func:`evaluate_policy`); ``per_strategy[k]``
    holds strategy ``k``'s ``D pi`` and ``(D pi sigma + K rho delta)^2``."""
    r, horizon = market.rate, market.horizon
    discount = np.exp(-r * (times - t_start))
    annuity = _annuity(r, times, t_start, horizon)
    hedge = annuity * (market.correlation * market.income_vol)[states]
    per_strategy = np.empty((len(strategies), 2, *hedge.shape))
    for k, strategy in enumerate(strategies):
        position = discount * strategy(times, states)
        per_strategy[k, 0] = position
        per_strategy[k, 1] = (position * market.stock_vol[states] + hedge) ** 2
    return annuity, annuity**2, per_strategy


def _annuity(rate: float, u, t_start: float, horizon: float):
    """``K(u)``: integral of ``exp(-rate (s - t_start))`` over ``s`` from ``u``
    to ``horizon``, in the cancellation-safe ``expm1`` form."""
    if rate == 0.0:
        return horizon - u
    return -np.exp(-rate * (u - t_start)) * np.expm1(-rate * (horizon - u)) / rate
