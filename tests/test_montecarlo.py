"""Tests for the path-sampling estimators of the value-function pieces."""

from __future__ import annotations

import bisect
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec, solve_ivp

from regimeweave import montecarlo, portfolio
from regimeweave.cli import load_config
from regimeweave.hjb import (
    IncomeLoading,
    MarketModel,
    _growth_mean,
    _unit_value,
    growth_coefficients,
    solve_income_loading,
    solve_regime_factors,
)
from regimeweave.markov import InvalidInput, RegimePath, RngStream, simulate_path, validate_generator
from regimeweave.montecarlo import (
    MCEstimate,
    NonZeroRho,
    estimate_regime_factor,
    estimate_value_mc,
)
from regimeweave.portfolio import (
    evaluate_policy,
    optimal_strategy,
    simulate_wealth,
    value_function,
)

REPO = Path(__file__).resolve().parents[1]
Q2 = validate_generator([[-0.5, 0.5], [0.3, -0.3]])


def make_market(**overrides):
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=[0.08, 0.03],
        stock_vol=[0.25, 0.4],
        income_drift=[0.02, -0.01],
        income_vol=[0.12, 0.2],
        generator=Q2,
    )
    params.update(overrides)
    return MarketModel(**params)


def single_regime_market(**overrides):
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=[0.08],
        stock_vol=[0.25],
        income_drift=[0.02],
        income_vol=[0.12],
        generator=validate_generator([[0.0]]),
    )
    params.update(overrides)
    return MarketModel(**params)


def twin_regime_market(**overrides):
    """Two regimes with identical parameters: the chain's jumps change nothing."""
    params = dict(
        stock_drift=[0.08, 0.08],
        stock_vol=[0.25, 0.25],
        income_drift=[0.02, 0.02],
        income_vol=[0.12, 0.12],
    )
    params.update(overrides)
    return make_market(**params)


def closed_form_factor(market, t_start, income_start, regime=0):
    """Wealth-free factor on a path that stays in ``regime``: lognormal
    expectation in closed form."""
    loading = solve_income_loading(market)
    coeffs = growth_coefficients(market)
    exponent = (
        loading.value(t_start) * income_start
        + market.income_drift[regime] * loading.integral(t_start, market.horizon)
        + coeffs.quadratic[regime] * loading.square_integral(t_start, market.horizon)
        + coeffs.constant[regime] * (market.horizon - t_start)
    )
    return float(np.exp(exponent))


def sampled_value_factor(market, t_start, income_start, regime, n_paths, rng):
    """The wealth-free value factor ``exp(m(t) y) h_regime(t)`` that
    :func:`estimate_value_mc` samples: its estimate at zero wealth, whose unit
    value is ``-exp(m(t) y) / gamma``, times ``-gamma``."""
    est = estimate_value_mc(market, t_start, 0.0, income_start, regime, n_paths, rng)
    gamma = market.risk_aversion
    return MCEstimate(-gamma * est.value, gamma * est.stderr, est.n_paths)


class TestEstimateRegimeFactor:
    def test_single_regime_is_exact(self):
        # no chain randomness: every path yields the same closed-form value
        market = single_regime_market()
        est = estimate_regime_factor(market, 0.0, 0, 16, RngStream(seed=1))
        coeffs = growth_coefficients(market)
        loading = solve_income_loading(market)
        expected = np.exp(
            coeffs.constant[0] * 2.0
            + coeffs.linear[0] * loading.integral(0.0, 2.0)
            + coeffs.quadratic[0] * loading.square_integral(0.0, 2.0)
        )
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_matches_ode_solution(self):
        market = make_market()
        table = solve_regime_factors(market)
        for regime in (0, 1):
            est = estimate_regime_factor(market, 0.0, regime, 4000, RngStream(seed=21))
            target = table.value(0.0, regime)
            assert est.stderr < 0.01 * target
            assert abs(est.value - target) < 4 * est.stderr

    def test_interior_start_time(self):
        market = make_market()
        table = solve_regime_factors(market)
        est = estimate_regime_factor(market, 1.3, 1, 3000, RngStream(seed=22))
        assert abs(est.value - table.value(1.3, regime=1)) < 4 * est.stderr

    def test_deterministic_given_stream(self):
        market = make_market()
        a = estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed=23))
        b = estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed=23))
        assert a == b
        c = estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed=23, stream_id=7))
        assert c.value != a.value

    def test_argument_validation(self):
        market = make_market()
        with pytest.raises(ValueError, match="t_start"):
            estimate_regime_factor(market, 2.5, 0, 100, RngStream(seed=26))
        with pytest.raises(ValueError, match="two paths"):
            estimate_regime_factor(market, 0.0, 0, 1, RngStream(seed=26))


class TestEstimateValueFactor:
    # the zero-correlation value factor exp(m(t) y) h(t), as estimate_value_mc samples it

    def test_rejects_nonzero_correlation(self):
        market = make_market(correlation=0.4)
        with pytest.raises(NonZeroRho, match="requires zero correlation, got 0.4"):
            estimate_value_mc(market, 0.0, 1.0, 1.0, 0, 100, RngStream(seed=31))

    def test_deterministic_income_single_regime(self):
        market = single_regime_market(income_vol=[0.0])
        est = sampled_value_factor(market, 0.0, 1.0, 0, 4, RngStream(seed=32))
        assert est.value == pytest.approx(closed_form_factor(market, 0.0, 1.0), rel=1e-14)
        assert est.stderr == 0.0

    def test_gaussian_income_single_regime(self):
        # a regime that cannot be left takes only the closed-form branch
        market = single_regime_market()
        est = sampled_value_factor(market, 0.0, 1.0, 0, 4000, RngStream(seed=33))
        assert est.value == pytest.approx(closed_form_factor(market, 0.0, 1.0), rel=1e-14)
        assert est.stderr == 0.0

    @pytest.mark.parametrize("t_start", [0.0, 1.9])
    def test_gaussian_income_on_the_jump_branch(self, t_start):
        # every path jumps, between regimes that differ in nothing: given the
        # chain path the Gaussian income is integrated exactly, so every
        # path gives the closed form and only rounding varies
        market = twin_regime_market()
        est = sampled_value_factor(market, t_start, 1.0, 0, 4000, RngStream(seed=37))
        target = closed_form_factor(market, t_start, 1.0)
        assert est.value == pytest.approx(target, rel=1e-13)
        assert est.stderr <= 1e-14 * target

    def test_first_jump_lands_before_the_horizon(self):
        # at t 1.9 of 2 a plain sample would jump on about 3% of its paths
        market = make_market()
        for _, counts, _, _, _, _ in montecarlo._simulate_chains(
            market.generator, 1, 1.9, market.horizon, 300, RngStream(38), first_jump_by_end=True
        ):
            assert counts.min() >= 2

    def test_matches_separable_solution_two_regimes(self):
        market = make_market()
        table = solve_regime_factors(market)
        loading = solve_income_loading(market)
        y0 = 0.8
        for regime in (0, 1):
            est = sampled_value_factor(market, 0.0, y0, regime, 3000, RngStream(seed=35))
            target = float(np.exp(loading.value(0.0) * y0) * table.value(0.0, regime))
            assert abs(est.value - target) < 4 * est.stderr

    def test_interior_start(self):
        market = make_market()
        table = solve_regime_factors(market)
        loading = solve_income_loading(market)
        est = sampled_value_factor(market, 0.9, -0.3, 1, 3000, RngStream(seed=36))
        target = float(np.exp(loading.value(0.9) * -0.3) * table.value(0.9, regime=1))
        assert abs(est.value - target) < 4 * est.stderr


class TestEstimateValueMc:
    def test_scales_value_factor(self):
        # the unit value, wealth and income in one exponent, times the regime factor's sample
        market = make_market()
        factor = estimate_regime_factor(market, 0.0, 0, 400, RngStream(seed=41))
        value = estimate_value_mc(market, 0.0, 2.0, 1.0, 0, 400, RngStream(seed=41))
        gamma, m = market.risk_aversion, solve_income_loading(market).value(0.0)
        scale = -np.exp(-gamma * 2.0 * np.exp(market.rate * market.horizon) + m * 1.0) / gamma
        assert value.value == pytest.approx(scale * factor.value, rel=1e-15)
        assert value.stderr == pytest.approx(abs(scale) * factor.stderr, rel=1e-15)
        assert value.value < 0

    def test_matches_closed_form_value(self):
        market = make_market()
        table = solve_regime_factors(market)
        loading = solve_income_loading(market)
        x0, y0, regime = 1.5, 0.8, 1
        est = estimate_value_mc(market, 0.0, x0, y0, regime, 4000, RngStream(seed=42))
        gamma = market.risk_aversion
        target = (
            -np.exp(-gamma * x0 * np.exp(market.rate * market.horizon) + loading.value(0.0) * y0)
            / gamma
            * table.value(0.0, regime)
        )
        assert abs(est.value - target) < 4 * est.stderr

    def test_overflow_raises(self):
        # exp(gamma * 1e4 * growth) leaves the float range: no inf estimate, no warning
        market = load_config(REPO / "configs" / "rho_zero.json").market
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float range"):
                estimate_value_mc(market, 0.0, -1e4, 0.0, 0, 100, RngStream(seed=44))

    def test_wealth_and_income_share_one_exponent(self):
        # m(0) y is 918 at y = -300, so exp(m(0) y) alone overflows, but the wealth
        # term -gamma x e^{rT} is -312 at x = 200 and the value's exponent is 606;
        # pricing the income factor first used to raise an overflow here
        config = load_config(REPO / "configs" / "rho_zero.json")
        market = config.market
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_value_mc(market, 0.0, 200.0, -300.0, 0, 2000, RngStream(seed=45))
        target = value_function(market, n_steps=config.n_steps)(0.0, 200.0, -300.0, 0)
        assert np.isfinite([est.value, est.stderr]).all() and est.value < -1e262
        assert abs(est.value - target) < 4 * est.stderr

    def test_estimate_is_dataclass_with_counts(self):
        market = make_market()
        est = estimate_value_mc(market, 0.0, 1.0, 1.0, 0, 64, RngStream(seed=43))
        assert isinstance(est, MCEstimate)
        assert type(est.value) is float and type(est.stderr) is float
        assert est.n_paths == 64


# Stream contract: an estimator over n paths with stream ``rng`` equals, to
# the last bit, the same estimate computed one path at a time in plain loops
# over paths drawn in the block layout of the montecarlo module docstring:
# block b of BLOCK paths draws its (BLOCK, head) exponentials and uniforms,
# then an extension for the paths still moving each time they run past the
# drawn width, then its grid normals, all from Philox key [seed, sid + b].

CONTRACT_CHAINS = {
    "slow": ([[-0.5, 0.5], [0.3, -0.3]], 300),
    "absorbing": ([[-2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, -3.0]], 40),
    # about 1700 jumps a path, past the largest head of 1024 columns
    "past_block": ([[-1000.0, 1000.0], [800.0, -800.0]], 5),
}


def contract_market(chain, **overrides):
    rates, _ = CONTRACT_CHAINS[chain]
    n = len(rates)
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=np.linspace(0.08, 0.03, n),
        stock_vol=np.linspace(0.25, 0.4, n),
        income_drift=np.linspace(0.02, -0.01, n),
        income_vol=np.linspace(0.12, 0.2, n),
        generator=validate_generator(rates),
    )
    params.update(overrides)
    return MarketModel(**params)


def layout_paths(market, regime, t_start, n_paths, rng, n_steps=0, first_jump_by_end=False):
    """``(path, normals)`` of each of ``n_paths`` paths, drawn block by block
    in the documented layout with a scalar loop over each path's jumps, and
    with ``n_steps`` each path's ``(2, n_steps)`` normals, else ``None``;
    with ``first_jump_by_end`` each path's first jump is conditioned to land
    before the horizon."""
    rates = market.generator.rates
    lam = (-np.diag(rates)).tolist()
    off = rates - np.diag(np.diag(rates))
    cum = [np.cumsum(off[i] / lam[i]).tolist() if lam[i] else None for i in range(len(lam))]
    t_end = market.horizon
    head = montecarlo._block_head(max(lam) * (t_end - t_start))
    out = []
    for b in range(-(-n_paths // montecarlo.BLOCK)):
        gen = np.random.Generator(np.random.Philox(key=[rng.seed, rng.stream_id + b]))
        block = range(montecarlo.BLOCK)
        exps, unis = gen.standard_exponential((len(block), head)), gen.random((len(block), head))
        draws = {r: (exps[r].tolist(), unis[r].tolist()) for r in block}
        if first_jump_by_end and lam[regime]:
            # the first waiting time, inverted from the exponential truncated at the horizon
            leave = -np.expm1(-lam[regime] * (t_end - t_start))
            first = t_start - np.log1p(np.expm1(-exps[:, 0].copy()) * leave) / lam[regime]
        times, states = [[float(t_start)] for _ in block], [[regime] for _ in block]
        moving = list(block) if lam[regime] else []
        while moving:
            still = []
            for r in moving:
                for e, u in zip(*draws[r]):
                    state = states[r][-1]
                    if first_jump_by_end and len(times[r]) == 1:
                        t = float(first[r])
                    else:
                        t = times[r][-1] + e / lam[state]
                    if t >= t_end:
                        break
                    destination = bisect.bisect_right(cum[state], u * cum[state][-1])
                    times[r].append(t)
                    states[r].append(destination)
                    if not lam[destination]:
                        break
                else:
                    still.append(r)
            moving = still
            if moving:  # one more draw for the paths still moving, in path order
                exps = gen.standard_exponential((len(moving), head))
                unis = gen.random((len(moving), head))
                draws = {r: (exps[i].tolist(), unis[i].tolist()) for i, r in enumerate(moving)}
        paths = [
            RegimePath(t_start, t_end, np.array(times[r]), np.array(states[r]), market.n_regimes)
            for r in block
        ]
        kept = paths[: n_paths - b * len(block)]
        # the kept paths' normals, path-major, after the block's chain draws
        normals = gen.standard_normal((len(kept), 2, n_steps)) if n_steps else [None] * len(kept)
        out += zip(kept, normals)
    return out


def loop_estimate(values):
    values = np.asarray(values)
    return MCEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(len(values))),
        n_paths=len(values),
    )


def loop_exponent(market, path):
    """The path's integrated growth rate, its segment terms summed on their own."""
    coeffs = growth_coefficients(market)
    loading = solve_income_loading(market)
    starts, ends, states = path.segments()
    terms = (
        coeffs.constant[states] * (ends - starts)
        + coeffs.linear[states] * loading.integral(starts, ends)
        + coeffs.quadratic[states] * loading.square_integral(starts, ends)
    )
    return np.add.reduceat(terms, [0])[0]


def loop_regime_estimate(market, paths):
    """The controlled regime factor from loop oracles: each path's factor
    ``exp(a)`` less ``beta (a - E[a])``, mixed with the same on the branch that
    never leaves the start regime, its first jump conditioned to land before
    the horizon.  ``E[a]`` is :func:`hjb._growth_mean`'s and ``beta`` the
    factor's slope at the sampled branch's mean exponent.  A start that cannot
    be left gives its one value with a standard error of 0."""
    path = paths[0][0]
    regime, t_start = int(path.states[0]), path.t_start
    exits = market.generator.exit_rates()[regime] * (market.horizon - t_start)
    stay, leave = float(np.exp(-exits)), float(-np.expm1(-exits))
    stay_path = RegimePath(t_start, path.t_end, np.array([t_start]), np.array([regime]), market.n_regimes)
    stayed = loop_exponent(market, stay_path)
    if not leave:
        return MCEstimate(float(np.exp(stayed)), 0.0, len(paths))
    coeffs = growth_coefficients(market)
    rates = np.stack([coeffs.constant, coeffs.linear, coeffs.quadratic])[None]
    mean = _growth_mean(market, rates, t_start)[0][0, regime]
    slope = np.exp((mean - stay * stayed) / leave)

    def controlled(a):
        return np.exp(a) - slope * (a - mean)

    return loop_estimate([
        float(stay * controlled(stayed) + leave * controlled(loop_exponent(market, path))) for path, _ in paths
    ])


def oracle_rates(market, strategy, t_start, u, states):
    """The integrands of a path's terminal wealth mean and variance at times
    ``u`` in ``states`` (broadcast), from the wealth dynamics as written."""
    r, horizon, rho = market.rate, market.horizon, market.correlation
    excess, vol = market.excess_return()[states], market.stock_vol[states]
    drift, income_vol = market.income_drift[states], market.income_vol[states]
    discount = np.exp(-r * (u - t_start))
    annuity = (discount - np.exp(-r * (horizon - t_start))) / r  # integral of the discount from u on
    position = strategy(u, states)
    mean = discount * position * excess + annuity * drift
    var = (discount * position * vol + annuity * income_vol * rho) ** 2 + (annuity * income_vol) ** 2 * (1 - rho**2)
    return mean, var


def loop_policy_exponent(market, strategy, t_start, wealth_start, income_start, path):
    """Exponent ``a`` of the conditional expected utility ``-exp(a) / gamma``
    of a strategy on one chain path, its segment integrals by adaptive
    Gauss-Kronrod quadrature, all segments of the path in one vector-valued
    ``quad_vec`` call."""
    r, horizon = market.rate, market.horizon
    starts, ends, states = path.segments()
    span = ends - starts

    def integrands(s):
        mean, var = oracle_rates(market, strategy, t_start, starts + s * span, states)
        return np.concatenate([mean * span, var * span])

    integrals, _ = quad_vec(integrands, 0.0, 1.0, epsabs=0.0, epsrel=1e-14, norm="max")
    annuity = -np.expm1(-r * (horizon - t_start)) / r
    mean = wealth_start + income_start * annuity + integrals[: len(span)].sum()
    var = integrals[len(span) :].sum()
    scale = market.risk_aversion * np.exp(r * (horizon - t_start))
    return float(-scale * mean + scale**2 * var / 2.0)


def ode_exponent_mean(market, strategy, t_start, wealth_start, income_start):
    """``E[a]`` from each start regime: ``mu' = -(c + Q mu)``, ``mu(horizon) =
    0``, for the exponent's rate ``c`` in every regime, by scipy's Radau, less
    the start's ``gamma e^{r tau} (x + y K(t))``."""
    r, horizon = market.rate, market.horizon
    scale = market.risk_aversion * np.exp(r * (horizon - t_start))
    q, regimes = market.generator.rates, np.arange(market.n_regimes)

    def slope(t, mu):
        mean, var = oracle_rates(market, strategy, t_start, t, regimes)
        return -(scale**2 * var / 2.0 - scale * mean + q @ mu)

    solved = solve_ivp(slope, (horizon, t_start), np.zeros(len(regimes)), method="Radau",
                       rtol=1e-13, atol=1e-15, jac=lambda t, mu: -q)
    assert solved.success
    annuity = -np.expm1(-r * (horizon - t_start)) / r
    return solved.y[:, -1] - scale * (wealth_start + income_start * annuity)


def loop_policy_estimate(market, strategy, t_start, wealth_start, income_start, regime, paths):
    """The controlled policy estimate from loop oracles: each path's utility
    ``u`` less ``beta (a - E[a])``, ``beta`` the utility's slope at the
    sampled branch's mean exponent, mixed with the branch that stays."""
    gamma = market.risk_aversion
    stay_path = RegimePath(t_start, market.horizon, np.array([t_start]), np.array([regime]), market.n_regimes)
    stayed = loop_policy_exponent(market, strategy, t_start, wealth_start, income_start, stay_path)
    exits = market.generator.exit_rates()[regime] * (market.horizon - t_start)
    stay, leave = float(np.exp(-exits)), float(-np.expm1(-exits))
    mean = ode_exponent_mean(market, strategy, t_start, wealth_start, income_start)[regime]
    slope = -np.exp((mean - stay * stayed) / leave) / gamma if leave else 0.0

    def controlled(a):
        return -np.exp(a) / gamma - slope * (a - mean)

    return loop_estimate([
        stay * controlled(stayed)
        + leave * controlled(loop_policy_exponent(market, strategy, t_start, wealth_start, income_start, path))
        for path, _ in paths
    ])


GL8_NODES, GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)  # on [-1, 1]


def oracle_moments(market, strategy, t_start, starts, ends, states):
    """Mean and variance of the increments of ``Z = D X + K Y`` and of income
    ``Y``, and their covariance, over each piece ``[starts, ends)`` spent in
    ``states``, as rows ``(mean Z, var Z, cov, mean Y, var Y)``: the
    integrands by 8-node Gauss-Legendre quadrature, income's in closed form."""
    r, horizon, rho = market.rate, market.horizon, market.correlation
    half = (ends - starts) / 2.0
    u = starts + half * (1.0 + GL8_NODES[:, None])
    excess, vol = market.excess_return()[states], market.stock_vol[states]
    drift, income_vol = market.income_drift[states], market.income_vol[states]
    discount = np.exp(-r * (u - t_start))
    annuity = (discount - np.exp(-r * (horizon - t_start))) / r
    stock = discount * strategy(u, states) * vol + annuity * income_vol * rho
    free = annuity * income_vol * np.sqrt(1.0 - rho**2)
    integrands = [
        discount * strategy(u, states) * excess + annuity * drift,
        stock**2 + free**2,
        stock * income_vol * rho + free * income_vol * np.sqrt(1.0 - rho**2),
    ]
    quadratures = [(GL8_WEIGHTS[:, None] * half * f).sum(axis=0) for f in integrands]
    return np.array([*quadratures, drift * 2 * half, income_vol**2 * 2 * half])


def loop_income_path(market, t_start, income_start, path, normals):
    """Income at the uniform nodes of one chain path given its normals: each
    step adds the closed-form drift and variance of its pieces between jumps,
    summed in ``np.add.reduceat``'s order (the first piece plus the sum of the
    rest), and its normal scaled by the root of that variance."""
    times = np.linspace(t_start, market.horizon, normals.shape[1] + 1)
    starts, ends, states = path.segments()
    drift, variance = market.income_drift[states], market.income_vol[states] ** 2
    income = [income_start]
    for j in range(1, len(times)):
        lo, hi = np.maximum(starts, times[j - 1]), np.minimum(ends, times[j])
        inside = lo < hi
        span = (hi - lo)[inside]
        mean, var = (pieces[0] + pieces[1:].sum() for pieces in (drift[inside] * span, variance[inside] * span))
        income.append(income[-1] + (mean + math.sqrt(var) * float(normals[1, j - 1])))
    return np.array(income)


def loop_wealth_path(market, strategy, t_start, wealth_start, income_start, path, normals):
    """Wealth at the uniform nodes of one chain path given its normals, by
    exact conditional Gaussian steps from per-step moments: each step's
    pieces between jumps integrated on their own."""
    r, horizon = market.rate, market.horizon
    times = np.linspace(t_start, horizon, normals.shape[1] + 1)
    starts, ends, states = path.segments()
    discount = np.exp(-r * (times - t_start))
    annuity = (discount - np.exp(-r * (horizon - t_start))) / r
    z, y = wealth_start + income_start * annuity[0], income_start
    wealth = [wealth_start]
    for j in range(1, len(times)):
        lo, hi = np.maximum(starts, times[j - 1]), np.minimum(ends, times[j])
        inside = lo < hi
        mean_z, var_z, cov, mean_y, var_y = oracle_moments(
            market, strategy, t_start, lo[inside], hi[inside], states[inside]
        ).sum(axis=1)
        beta = cov / np.sqrt(var_y)
        y += mean_y + np.sqrt(var_y) * normals[1, j - 1]
        z += mean_z + beta * normals[1, j - 1] + np.sqrt(max(var_z - beta**2, 0.0)) * normals[0, j - 1]
        wealth.append((z - annuity[j] * y) / discount[j])
    return np.array(wealth)


@pytest.fixture(params=["whole_blocks", "chunks_of_3"])
def layout(request, monkeypatch):
    """The default layout, or blocks of three paths with two columns per
    draw, stepped two blocks a sweep, so that blocks split, calls span many
    sweeps and most paths need extension rounds, at the same column in
    different blocks; chunks of at most five segments hold a few paths each."""
    if request.param == "chunks_of_3":
        monkeypatch.setattr(montecarlo, "BLOCK", 3)
        monkeypatch.setattr(montecarlo, "SWEEP", 2)
        monkeypatch.setattr(montecarlo, "SEGMENTS", 5)
        monkeypatch.setattr(montecarlo, "_block_head", lambda mean_jumps: 2)


@pytest.mark.parametrize("chain", list(CONTRACT_CHAINS))
class TestStreamContract:
    @pytest.mark.parametrize("first_jump_by_end", [False, True])
    def test_flat_segments(self, chain, layout, first_jump_by_end):
        # each path's run of flat segments is its chain path's segments, in path order
        market = contract_market(chain)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            rng = RngStream(65, 2)
            paths = layout_paths(market, regime, 0.3, n, rng, first_jump_by_end=first_jump_by_end)
            chunks = montecarlo._simulate_chains(
                market.generator, regime, 0.3, market.horizon, n, rng, first_jump_by_end=first_jump_by_end
            )
            got = []
            for first, counts, starts, ends, states, normals in chunks:
                assert first == len(got) and normals is None
                ends_at = np.cumsum(counts)
                assert ends_at[-1] == len(starts) == len(ends) == len(states)
                for lo, hi in zip(ends_at - counts, ends_at):
                    got.append((starts[lo:hi], ends[lo:hi], states[lo:hi]))
            assert len(got) == n
            for (path, _), segments in zip(paths, got):
                for expected, flat in zip(path.segments(), segments):
                    assert np.array_equal(flat, expected)

    def test_regime_factor(self, chain, layout):
        market = contract_market(chain)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.3, n, RngStream(61, 5), first_jump_by_end=True)
            expected = loop_regime_estimate(market, paths)
            assert estimate_regime_factor(market, 0.3, regime, n, RngStream(61, 5)) == expected

    @pytest.mark.parametrize("with_income", [True, False])
    def test_value_factor(self, chain, layout, with_income):
        # the zero-correlation value is the unit value times the loop's regime factor
        market = contract_market(chain)
        n = CONTRACT_CHAINS[chain][1]
        income_start = 0.7 if with_income else 0.0
        unit = float(_unit_value(market, solve_income_loading(market), 0.4, 1.0, income_start))
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.4, n, RngStream(62), first_jump_by_end=True)
            factor = loop_regime_estimate(market, paths)
            got = estimate_value_mc(market, 0.4, 1.0, income_start, regime, n, RngStream(62))
            assert got == MCEstimate(unit * factor.value, abs(unit) * factor.stderr, n)

    def test_policy(self, chain, layout):
        market = contract_market(chain, correlation=0.3)
        strategy = optimal_strategy(market).scaled(0.8)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.2, n, RngStream(63, 9), first_jump_by_end=True)
            expected = loop_policy_estimate(market, strategy, 0.2, 1.0, 0.5, regime, paths)
            got = evaluate_policy(market, strategy, 0.2, 1.0, 0.5, regime, n, RngStream(63, 9))
            # the closed-form segment sums leave up to 1.7e-14 of the value here,
            # on segments up to 1.8 long; one path off the layout moves the mean
            # by orders of magnitude more
            assert got.n_paths == n
            assert abs(got.value - expected.value) <= 1e-13 * abs(expected.value)
            assert abs(got.stderr - expected.stderr) <= 1e-13 * abs(expected.value)

    def test_wealth_paths(self, chain, layout):
        market = contract_market(chain, correlation=0.3)
        strategy = optimal_strategy(market).scaled(0.8)
        n = CONTRACT_CHAINS[chain][1]
        times = np.linspace(0.2, market.horizon, 14)
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.2, n, RngStream(63, 9), 13)
            got = simulate_wealth(market, strategy, 0.2, 1.0, 0.5, regime, n, 13, RngStream(63, 9))
            assert len(got) == n
            for row, (path, normals) in zip(got, paths):
                # the regime at a node is the state after every jump at or before it
                regimes = path.states[np.searchsorted(path.times, times, side="right") - 1]
                assert np.array_equal(row.times, times)
                assert np.array_equal(row.regimes, regimes)
                assert np.array_equal(row.positions, strategy(times[:-1], regimes[:-1]))
                assert np.array_equal(row.income, loop_income_path(market, 0.2, 0.5, path, normals))
                wealth = loop_wealth_path(market, strategy, 0.2, 1.0, 0.5, path, normals)
                assert_allclose(row.wealth, wealth, rtol=0, atol=1e-12)


def test_wealth_steps_on_a_jump_at_a_node_and_many_jumps_a_step(monkeypatch):
    # path 0 jumps exactly at node 2, which leaves an empty piece ending step 1,
    # and twice inside step 4; path 1 jumps once inside step 1
    market = contract_market("slow", correlation=0.3)
    strategy = optimal_strategy(market).scaled(0.8)
    times = np.linspace(0.2, market.horizon, 7)
    inside = times[4] + np.array([0.1, 0.6]) * (times[5] - times[4])
    paths = [
        RegimePath(0.2, market.horizon, np.array([0.2, times[2], *inside]), np.array([0, 1, 0, 1]), 2),
        RegimePath(0.2, market.horizon, np.array([0.2, (times[1] + times[2]) / 2.0]), np.array([0, 1]), 2),
    ]
    normals = np.random.default_rng(3).standard_normal((2, 2, 6))
    segments = [np.concatenate(part) for part in zip(*(path.segments() for path in paths))]
    chunk = (0, np.array([4, 2]), *segments, normals)
    monkeypatch.setattr(portfolio, "_simulate_chains", lambda *args: iter([chunk]))
    pieces, integrals = [], IncomeLoading._integrals

    def recording_integrals(loading, starts, ends):
        out = integrals(loading, starts, ends)
        pieces.append((starts, ends, out))
        return out

    monkeypatch.setattr(IncomeLoading, "_integrals", recording_integrals)
    got = simulate_wealth(market, strategy, 0.2, 1.0, 0.5, 0, 2, 6, RngStream(1))
    # the regime at node 2 is the one after the jump there
    assert np.array_equal(got[0].regimes, [0, 0, 1, 1, 1, 1, 1])
    assert np.array_equal(got[1].regimes, [0, 0, 1, 1, 1, 1, 1])
    # the empty piece before node 2 integrates to exactly zero, and so adds nothing to step 1
    ((starts, ends, (integral, square_integral)),) = pieces
    empty = np.flatnonzero((starts == times[2]) & (ends == times[2]))
    assert len(empty) == 1
    assert not integral[empty].any() and not square_integral[empty].any()
    for row, path, row_normals in zip(got, paths, normals):
        assert np.array_equal(row.income, loop_income_path(market, 0.2, 0.5, path, row_normals))
        wealth = loop_wealth_path(market, strategy, 0.2, 1.0, 0.5, path, row_normals)
        assert_allclose(row.wealth, wealth, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chain", ["slow", "absorbing"])
def test_value_factor_is_the_income_factor_times_its_value_at_zero_income(chain):
    # the rho0 grid of `solve` samples each (t, regime) once and prices every income
    # with it; so the sampled value must be the unit value times one income-free
    # sample, the regime factor on the same paths, at every start and income
    market = contract_market(chain)
    n = CONTRACT_CHAINS[chain][1]
    loading = solve_income_loading(market)
    for t_start in (0.0, 0.4, 1.9):
        for regime in range(market.n_regimes):
            factor = estimate_regime_factor(market, t_start, regime, n, RngStream(63, 2))
            for income_start in (-1.5, -0.3, 0.0, 0.7, 2.0):
                got = estimate_value_mc(market, t_start, 0.5, income_start, regime, n, RngStream(63, 2))
                unit = float(_unit_value(market, loading, t_start, 0.5, income_start))
                assert got == MCEstimate(unit * factor.value, abs(unit) * factor.stderr, n)


def wealth_path_bytes(paths):
    return b"".join(
        getattr(path, name).tobytes()
        for path in paths for name in ("times", "wealth", "income", "regimes", "positions")
    )


@pytest.mark.parametrize("chain", ["slow", "absorbing"])
def test_paths_are_a_prefix_of_more_paths(chain, layout, monkeypatch):
    # path k's wealth path depends neither on how many paths follow it nor on
    # the paths it is computed with: the second run computes every path alone
    market = contract_market(chain, correlation=0.3)
    strategy = optimal_strategy(market)
    n = 2 * montecarlo.BLOCK - 2
    fewer = simulate_wealth(market, strategy, 0.1, 1.0, 0.3, 0, n, 11, RngStream(64, 3))
    monkeypatch.setattr(montecarlo, "SEGMENTS", 1)
    more = simulate_wealth(market, strategy, 0.1, 1.0, 0.3, 0, n + 5, 11, RngStream(64, 3))
    assert len(fewer) == n and len(more) == n + 5
    for a, b in zip(fewer, more):
        assert wealth_path_bytes([a]) == wealth_path_bytes([b])


@pytest.mark.parametrize("n_steps", [4, 8])
def test_terminal_wealth_has_its_conditional_law(n_steps):
    # given the chain path terminal wealth is Gaussian with the moments that
    # evaluate_policy integrates, so exact steps at any step count leave
    # standardized residuals of mean 0 and variance 1; holding position and
    # income over a step left a variance of 0.80 at 4 steps and 0.88 at 8
    config = load_config(REPO / "configs" / "reference.json")
    market, n = config.market, 20000
    strategy = optimal_strategy(market, config.case)
    rng = RngStream(5)
    paths = simulate_wealth(market, strategy, 0.0, 1.0, 0.0, 0, n, n_steps, rng)
    growth = np.exp(market.rate * market.horizon)
    residuals = []
    for _, counts, starts, ends, states, _ in montecarlo._simulate_chains(
        market.generator, 0, 0.0, market.horizon, n, rng
    ):
        moments = oracle_moments(market, strategy, 0.0, starts, ends, states)
        mean, var = np.add.reduceat(moments[:2], np.cumsum(counts) - counts, axis=1)
        terminal = np.array([path.wealth[-1] for path in paths[len(residuals) :][: len(counts)]])
        residuals.extend((terminal / growth - 1.0 - mean) / np.sqrt(var))
    residuals = np.array(residuals)
    assert len(residuals) == n
    assert abs(residuals.mean()) < 4.0 / np.sqrt(n)
    assert abs(residuals.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / (n - 1))


@pytest.mark.parametrize("chain, t_start", [("slow", 0.1), ("absorbing", 0.1), ("past_block", 1.97)])
def test_policy_values_are_a_prefix_of_more_paths(chain, t_start, layout, monkeypatch):
    # path k's conditional utility depends neither on how many paths follow
    # it nor on the paths it is evaluated with: the second run evaluates every
    # path alone, and past_block paths of about 25 jumps would regroup a sum
    # taken with another path's segments
    market = contract_market(chain, correlation=0.3)
    strategies = [optimal_strategy(market), optimal_strategy(market).scaled(0.8)]
    n = 2 * montecarlo.BLOCK - 2
    seen, estimate = [], montecarlo._estimate

    def recording_estimate(values):
        seen.append(values.copy())
        return estimate(values)

    monkeypatch.setattr(montecarlo, "_estimate", recording_estimate)
    portfolio._evaluate_policies(market, strategies, t_start, 1.0, 0.3, 0, n, RngStream(64, 3))
    monkeypatch.setattr(montecarlo, "SEGMENTS", 1)
    portfolio._evaluate_policies(market, strategies, t_start, 1.0, 0.3, 0, n + 5, RngStream(64, 3))
    fewer, more = seen[:2], seen[2:]
    for values_a, values_b in zip(fewer, more):
        assert len(values_a) == n and len(values_b) == n + 5
        assert np.array_equal(values_a, values_b[:n])


def test_policy_values_sum_each_path_alone(monkeypatch):
    # about 54 jumps a path on the copula config's fast chain: the rounding of
    # a sum of that many terms depends on its order, which a sum running
    # across the paths of a chunk would change; with one segment a chunk
    # every path is summed alone
    market = load_config(REPO / "configs" / "copula.json").market
    strategies = [optimal_strategy(market), optimal_strategy(market).scaled(0.5)]
    seen, estimate = [], montecarlo._estimate

    def recording_estimate(values):
        seen.append(values.copy())
        return estimate(values)

    monkeypatch.setattr(montecarlo, "_estimate", recording_estimate)
    portfolio._evaluate_policies(market, strategies, 0.0, 1.0, 0.3, 0, 300, RngStream(66))
    monkeypatch.setattr(montecarlo, "SEGMENTS", 1)
    portfolio._evaluate_policies(market, strategies, 0.0, 1.0, 0.3, 0, 300, RngStream(66))
    chunks = montecarlo._simulate_chains(market.generator, 0, 0.0, market.horizon, 300, RngStream(66))
    assert np.concatenate([counts for _, counts, _, _, _, _ in chunks]).min() > 8
    for together, alone in zip(seen[:2], seen[2:]):
        assert np.array_equal(together, alone)


def test_first_jump_conditioning_cuts_the_policy_variance():
    # about 35% of reference's paths never leave the start regime; scoring
    # that branch in closed form leaves only the jump branch's variance
    config = load_config(REPO / "configs" / "reference.json")
    market, n, rng = config.market, 2000, RngStream(config.seed, 0)
    strategy = optimal_strategy(market, config.case)
    conditioned = evaluate_policy(market, strategy, 0.0, 1.0, 0.0, 0, n, rng)
    scale = market.risk_aversion * np.exp(market.rate * market.horizon)
    values = []
    for _, counts, starts, ends, states, _ in montecarlo._simulate_chains(
        market.generator, 0, 0.0, market.horizon, n, rng
    ):
        moments = oracle_moments(market, strategy, 0.0, starts, ends, states)
        mean, var = np.add.reduceat(moments[:2], np.cumsum(counts) - counts, axis=1)
        values.extend(-np.exp(-scale * (1.0 + mean) + scale**2 * var / 2.0) / market.risk_aversion)
    plain = loop_estimate(values)
    assert conditioned.stderr <= 0.7 * plain.stderr
    assert abs(conditioned.value - plain.value) <= 4.0 * np.hypot(conditioned.stderr, plain.stderr)


@pytest.mark.parametrize("config", ["reference", "copula"])
def test_control_mean_matches_radau(config):
    # each strategy's control mean from one matrix exponential, against the
    # backward ODE mu' = -(c + Q mu), mu(horizon) = 0, for every start regime
    market = load_config(REPO / "configs" / f"{config}.json").market
    strategies = [optimal_strategy(market), optimal_strategy(market).scaled(0.5),
                  portfolio.Strategy.constant(market, 0.7, label="constant")]
    expected = np.array([ode_exponent_mean(market, strategy, 0.3, 0.0, 0.0) for strategy in strategies])
    coefficients = np.stack([portfolio._rate_coefficients(market, strategy) for strategy in strategies])
    mean, gap = _growth_mean(market, coefficients, 0.3)
    assert np.all(np.abs(mean - expected) <= 1e-12 * np.maximum(1.0, np.abs(mean)))
    assert np.all((0.0 < gap) & (gap <= 1e-12))
    for k in range(len(strategies)):  # each strategy's entry is its own call's
        alone = _growth_mean(market, coefficients[k : k + 1], 0.3)
        assert np.array_equal(alone[0][0], mean[k]) and alone[1][0] == gap[k]


def test_policy_scores_are_centred_on_the_value_with_calibrated_stderr():
    # the controlled estimate against the factor ODE's value at 100 seeds: its
    # z-scores have mean 0 and spread 1 to within four of their own standard
    # errors (over 1000 seeds, a 40-seed window's spread ranged 0.77 to 1.40)
    config = load_config(REPO / "configs" / "reference.json")
    market, seeds = config.market, 100
    strategy = optimal_strategy(market, config.case)
    value = float(portfolio.value_function(market, n_steps=config.n_steps)(0.0, 1.0, 0.0, 0))
    scores = (evaluate_policy(market, strategy, 0.0, 1.0, 0.0, 0, 500, RngStream(seed)) for seed in range(1, seeds + 1))
    z = np.array([(est.value - value) / est.stderr for est in scores])
    assert abs(z.mean()) < 4.0 / np.sqrt(seeds)
    assert abs(z.std(ddof=1) - 1.0) < 4.0 / np.sqrt(2.0 * (seeds - 1))


def test_control_cuts_the_policy_variance():
    # a path's utility and its exponent correlate almost perfectly, so the
    # control leaves a small part of the first-jump estimator's variance
    config = load_config(REPO / "configs" / "reference.json")
    market, n, rng = config.market, 2000, RngStream(config.seed, 0)
    strategy = optimal_strategy(market, config.case)
    controlled = evaluate_policy(market, strategy, 0.0, 1.0, 0.0, 0, n, rng)
    scale = market.risk_aversion * np.exp(market.rate * market.horizon)
    leave = float(-np.expm1(-market.generator.exit_rates()[0] * market.horizon))
    values = []
    for _, counts, starts, ends, states, _ in montecarlo._simulate_chains(
        market.generator, 0, 0.0, market.horizon, n, rng, first_jump_by_end=True
    ):
        moments = oracle_moments(market, strategy, 0.0, starts, ends, states)
        mean, var = np.add.reduceat(moments[:2], np.cumsum(counts) - counts, axis=1)
        values.extend(-np.exp(-scale * (1.0 + mean) + scale**2 * var / 2.0) / market.risk_aversion)
    uncontrolled = leave * loop_estimate(values).stderr  # the branch that stays adds no variance
    assert controlled.stderr <= 0.05 * uncontrolled


def test_regime_factors_are_centred_on_the_ode_with_calibrated_stderr():
    # the controlled factor against the factor ODE at 100 seeds: its z-scores
    # have mean 0 and spread 1 to within four of their own standard errors
    config = load_config(REPO / "configs" / "reference.json")
    market, seeds = config.market, 100
    factor = float(solve_regime_factors(market, n_steps=config.n_steps).value(0.0, 0))
    estimates = (estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed)) for seed in range(1, seeds + 1))
    z = np.array([(est.value - factor) / est.stderr for est in estimates])
    assert abs(z.mean()) < 4.0 / np.sqrt(seeds)
    assert abs(z.std(ddof=1) - 1.0) < 4.0 / np.sqrt(2.0 * (seeds - 1))


@pytest.mark.parametrize("config", ["reference", "rho_zero", "copula"])
def test_control_cuts_the_regime_factor_variance(config):
    # a path's factor exp(a) and its exponent a correlate almost perfectly, so
    # the control leaves a small part of the first-jump estimator's variance
    config = load_config(REPO / "configs" / f"{config}.json")
    market, n, rng = config.market, 1000, RngStream(config.seed, 0)
    controlled = estimate_regime_factor(market, 0.0, 0, n, rng)
    leave = float(-np.expm1(-market.generator.exit_rates()[0] * market.horizon))
    paths = layout_paths(market, 0, 0.0, n, rng, first_jump_by_end=True)
    factors = [np.exp(loop_exponent(market, path)) for path, _ in paths]
    uncontrolled = leave * loop_estimate(factors).stderr  # the branch that stays adds no variance
    assert controlled.stderr <= 0.05 * uncontrolled


@pytest.mark.parametrize("regime", [2, -1])  # n_regimes of the two-regime market, and -1
def test_start_regime_out_of_range_is_a_value_error(regime):
    # not an IndexError from a lookup by the regime before the chain is simulated
    market = make_market()
    strategy = optimal_strategy(market)
    calls = [
        lambda: estimate_regime_factor(market, 0.0, regime, 4, RngStream(1)),
        lambda: estimate_value_mc(market, 0.0, 1.0, 0.5, regime, 4, RngStream(1)),
        lambda: evaluate_policy(market, strategy, 0.0, 1.0, 0.5, regime, 4, RngStream(1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"initial_state {regime} out of range"):
            call()


@pytest.mark.parametrize("t_start", [-1.0, 2.0, 3.0, np.nan])  # the market's horizon is 2
def test_start_time_out_of_range_is_a_value_error(t_start):
    # one rule for every chain consumer: policy scoring and wealth paths used to
    # accept a negative start, and a start at or past the horizon was blamed on t_end
    market = make_market()
    strategy = optimal_strategy(market)
    calls = [
        lambda: estimate_regime_factor(market, t_start, 0, 4, RngStream(1)),
        lambda: estimate_value_mc(market, t_start, 1.0, 0.5, 0, 4, RngStream(1)),
        lambda: evaluate_policy(market, strategy, t_start, 1.0, 0.5, 0, 4, RngStream(1)),
        lambda: simulate_wealth(market, strategy, t_start, 1.0, 0.5, 0, 4, 3, RngStream(1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"t_start must lie in \[0, horizon\), got {t_start}"):
            call()


@pytest.mark.parametrize("n_paths", [-1, 0, 1])
def test_too_few_paths_is_a_value_error_before_any_chain(n_paths, monkeypatch):
    # -1 used to raise numpy's "negative dimensions", and 1 simulated a whole
    # block before the standard error rejected it
    def no_chains(*args, **kwargs):
        raise AssertionError("chains simulated for a path count that cannot give an estimate")

    monkeypatch.setattr(montecarlo, "_simulate_chains", no_chains)
    market = make_market()
    calls = [
        lambda: estimate_regime_factor(market, 0.0, 0, n_paths, RngStream(1)),
        lambda: evaluate_policy(market, optimal_strategy(market), 0.0, 1.0, 0.5, 0, n_paths, RngStream(1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^need at least two paths for a standard error$"):
            call()


def test_an_absorbing_start_simulates_no_chains(monkeypatch):
    # every path stays, so the estimate is the stay branch's one value; the key range
    # of the paths is still checked, as a simulation would check it
    def no_chains(*args, **kwargs):
        raise AssertionError("chains simulated from a start that cannot be left")

    monkeypatch.setattr(montecarlo, "_simulate_chains", no_chains)
    market = contract_market("absorbing")
    calls = [
        lambda n, rng: estimate_regime_factor(market, 0.1, 1, n, rng),
        lambda n, rng: evaluate_policy(market, optimal_strategy(market), 0.1, 1.0, 0.5, 1, n, rng),
    ]
    for call in calls:
        estimate = call(128, RngStream(1, 2**64 - 1))
        assert estimate.stderr == 0.0 and estimate.n_paths == 128
        with pytest.raises(InvalidInput, match="stream_id"):
            call(129, RngStream(1, 2**64 - 1))


def test_float_range_is_an_overflow_error_without_warnings():
    # an income variance of 10^4 takes every regime factor past the float range, as
    # the factor ODE finds; the sampled factors used to come back inf with a NaN
    # stderr after three RuntimeWarnings
    market = make_market(income_vol=[100.0, 100.0])
    strategy = optimal_strategy(market)
    factors = r"^regime factors exceed the float range over horizon 2\.0$"
    calls = [
        (lambda: solve_regime_factors(market), factors),
        (lambda: estimate_regime_factor(market, 0.0, 0, 64, RngStream(1)), factors),
        (lambda: estimate_value_mc(market, 0.0, 1.0, 0.5, 0, 64, RngStream(1)), factors),
        (lambda: evaluate_policy(market, strategy, 0.0, 1.0, 0.5, 0, 64, RngStream(1)),
         "policy 'normal_income' exceeds the float range over horizon 2.0"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in calls:
            with pytest.raises(OverflowError, match=message):
                call()


def test_value_factor_income_scale_past_the_float_range_is_an_overflow_error():
    # m(0) is about -3.09 here, so at zero wealth the value's exponent m(0) y passes
    # the float range at y = -300 on a healthy market; the estimate used to be inf
    # with an inf stderr
    market = make_market()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="value at wealth 0, income -300 exceeds the float range"):
            estimate_value_mc(market, 0.0, 0.0, -300.0, 0, 64, RngStream(1))


def test_past_block_chain_crosses_the_block():
    # past simulate_path's 1024-variate block, and past the largest head of a block
    market = contract_market("past_block")
    path = simulate_path(market.generator, 0, 0.3, market.horizon, RngStream(61, 5))
    assert path.n_jumps() > 1024
    head = montecarlo._block_head(-market.generator.rates.min() * (market.horizon - 0.3))
    chunks = montecarlo._simulate_chains(market.generator, 0, 0.3, market.horizon, 5, RngStream(61, 5))
    n_jumps = np.concatenate([counts - 1 for _, counts, _, _, _, _ in chunks])
    assert head == 1024 and len(n_jumps) == 5 and n_jumps.min() > head


def test_group_size_invariance(monkeypatch):
    market = make_market(correlation=0.2)
    strategy = optimal_strategy(market)
    market0 = make_market()

    def estimates():
        return (
            estimate_regime_factor(market, 0.0, 0, 300, RngStream(24)),
            estimate_value_mc(market0, 0.1, 1.0, 0.4, 1, 300, RngStream(25)),
            evaluate_policy(market, strategy, 0.0, 1.0, 0.3, 1, 300, RngStream(26)),
            wealth_path_bytes(simulate_wealth(market, strategy, 0.0, 1.0, 0.3, 1, 300, 9, RngStream(27))),
        )

    base = estimates()
    for segments in (1, 7, 64, 10**6):
        for sweep in range(1, 8):
            monkeypatch.setattr(montecarlo, "SEGMENTS", segments)
            monkeypatch.setattr(montecarlo, "SWEEP", sweep)
            assert estimates() == base, (segments, sweep)


def test_stream_ids_must_stay_in_range():
    # the last block's key must fit: one block of 128 paths at the top id passes
    market = contract_market("slow")
    estimate_regime_factor(market, 0.0, 0, 128, RngStream(1, 2**64 - 1))
    with pytest.raises(ValueError, match="stream_id"):
        estimate_regime_factor(market, 0.0, 0, 129, RngStream(1, 2**64 - 1))


def test_memory_does_not_grow_with_the_path_count():
    # a call steps at most SWEEP blocks at a time, so its peak is that of one
    # sweep; about 54 jumps a path on the copula config's fast chain
    market = load_config(REPO / "configs" / "copula.json").market

    def peak(n_paths):
        tracemalloc.start()
        try:
            estimate_regime_factor(market, 0.0, 0, n_paths, RngStream(71))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_sweep = peak(montecarlo.SWEEP * montecarlo.BLOCK)
    assert peak(20000) <= 1.5 * one_sweep
