"""Tests for positions, wealth simulation, and policy evaluation."""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from regimeweave.hjb import MarketModel
from regimeweave.markov import InvalidInput, RngStream, validate_generator
from regimeweave.montecarlo import _simulate_chains, estimate_value_mc
from regimeweave.portfolio import (
    NORMAL_INCOME,
    RHO_ZERO,
    CaseMismatch,
    Strategy,
    build_solution,
    evaluate_policy,
    hedge_weight,
    merton_weight,
    optimal_strategy,
    simulate_wealth,
    utility,
    value_function,
)

Q2 = validate_generator([[-0.5, 0.5], [0.3, -0.3]])


def make_market(**overrides):
    params = dict(
        rate=0.03,
        correlation=0.4,
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


class TestUtility:
    def test_values_and_shape(self):
        assert utility(0.0, 2.0) == -0.5
        assert utility(1.0, 1.0) == pytest.approx(-np.exp(-1.0), rel=1e-15)
        out = utility(np.array([0.0, 1.0]), 1.5)
        assert out.shape == (2,)

    def test_monotone_increasing_concave(self):
        x = np.linspace(-1.0, 3.0, 50)
        u = utility(x, 1.5)
        assert np.all(np.diff(u) > 0)
        assert np.all(np.diff(u, 2) < 0)

    def test_rejects_bad_aversion(self):
        with pytest.raises(ValueError):
            utility(1.0, 0.0)

    @pytest.mark.parametrize("risk_aversion", [np.nan, np.inf])
    def test_rejects_nan_and_infinite_aversion(self, risk_aversion):
        # the market's own rule, 0 < risk_aversion < inf
        with pytest.raises(InvalidInput, match="risk_aversion"):
            utility(1.0, risk_aversion)


class TestPositions:
    def test_merton_hand_substitution(self):
        market = make_market()
        # excess 0.05, vol 0.25, gamma 1.5, remaining growth exp(0.03 * 2)
        expected = 0.05 / (1.5 * 0.25**2 * np.exp(0.06))
        assert merton_weight(market, 0.0, 0) == pytest.approx(expected, abs=1e-15)

    def test_merton_scales_inversely_with_aversion(self):
        a = merton_weight(make_market(risk_aversion=1.5), 0.5, 1)
        b = merton_weight(make_market(risk_aversion=3.0), 0.5, 1)
        assert b == pytest.approx(a / 2.0, rel=1e-15)

    def test_hedge_hand_substitution(self):
        market = make_market()
        tau = 2.0
        expected = -0.12 * 0.4 * np.expm1(0.03 * tau) / (0.03 * 0.25 * np.exp(0.03 * tau))
        assert hedge_weight(market, 0.0, 0) == pytest.approx(expected, abs=1e-15)

    def test_hedge_zero_rate_limit(self):
        market = make_market(rate=0.0)
        assert hedge_weight(market, 0.5, 0) == pytest.approx(-0.12 * 0.4 * 1.5 / 0.25, rel=1e-15)
        tiny = make_market(rate=1e-10)
        assert hedge_weight(tiny, 0.5, 0) == pytest.approx(
            hedge_weight(market, 0.5, 0), rel=1e-8
        )

    def test_hedge_vanishes_without_correlation(self):
        market = make_market(correlation=0.0)
        for t in (0.0, 1.0, 1.9):
            assert hedge_weight(market, t, 0) == 0.0
            assert hedge_weight(market, t, 1) == 0.0

    def test_hedge_independent_of_aversion(self):
        a = hedge_weight(make_market(risk_aversion=1.5), 0.3, 1)
        b = hedge_weight(make_market(risk_aversion=4.0), 0.3, 1)
        assert a == b

    def test_positions_vanish_at_horizon_when_discounted(self):
        market = make_market()
        assert hedge_weight(market, 2.0, 0) == 0.0
        assert merton_weight(market, 2.0, 0) == pytest.approx(0.05 / (1.5 * 0.0625), rel=1e-15)


class TestOptimalStrategy:
    def test_normal_income_combines_parts(self):
        market = make_market()
        strat = optimal_strategy(market, NORMAL_INCOME)
        t, regime = 0.7, 1
        expected = merton_weight(market, t, regime) + hedge_weight(market, t, regime)
        assert strat(t, regime) == pytest.approx(expected, abs=1e-15)

    def test_rho_zero_case(self):
        market = make_market(correlation=0.0)
        strat = optimal_strategy(market, RHO_ZERO)
        assert strat(0.7, 0) == pytest.approx(merton_weight(market, 0.7, 0), abs=1e-15)

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            optimal_strategy(make_market(), RHO_ZERO)
        with pytest.raises(ValueError, match="unknown case"):
            optimal_strategy(make_market(), "lognormal")

    def test_scaled_strategy(self):
        strat = optimal_strategy(make_market(), NORMAL_INCOME)
        bumped = strat.scaled(1.25)
        assert bumped(0.7, 1) == pytest.approx(1.25 * strat(0.7, 1), rel=1e-15)

class TestSimulateWealth:
    def test_riskless_growth_exact(self):
        # no position and no income leaves pure compounding
        market = make_market(income_drift=[0.0, 0.0], income_vol=[0.0, 0.0])
        idle = Strategy(position=lambda t, i: 0.0 * np.asarray(t), label="idle")
        for path in simulate_wealth(market, idle, 0.0, 2.0, 0.0, 0, 4, 64, RngStream(seed=1)):
            assert_allclose(path.wealth, 2.0 * np.exp(0.03 * path.times), rtol=1e-14)

    def test_deterministic_income_accrual(self):
        # deterministic income integrates against the discount factor exactly,
        # up to the quadrature's rounding, at any step count
        market = make_market(
            generator=validate_generator([[0.0, 0.0], [0.0, 0.0]]),
            income_vol=[0.0, 0.0],
        )
        idle = Strategy(position=lambda t, i: 0.0 * np.asarray(t), label="idle")
        oracle = 1.0 * np.exp(0.03 * 2.0) + quad(
            lambda s: np.exp(0.03 * (2.0 - s)) * (0.5 + 0.02 * s), 0.0, 2.0, epsabs=0.0, epsrel=1e-13
        )[0]
        for n_steps in (1, 8, 512):
            (path,) = simulate_wealth(market, idle, 0.0, 1.0, 0.5, 0, 1, n_steps, RngStream(seed=2))
            assert path.wealth[-1] == pytest.approx(oracle, rel=1e-12), n_steps

    def test_zero_vol_income_integrates_drift_exactly(self):
        # each of the chain path's segments accrues its own regime's drift
        market = make_market(income_vol=[0.0, 0.0])
        paths = simulate_wealth(market, optimal_strategy(market), 0.0, 1.0, 1.0, 0, 8, 8, RngStream(seed=7))
        chains = _simulate_chains(market.generator, 0, 0.0, market.horizon, 8, RngStream(seed=7))
        ((_, counts, starts, ends, states, _),) = chains
        accrued = np.add.reduceat(market.income_drift[states] * (ends - starts), np.cumsum(counts) - counts)
        assert counts.max() > 1
        for path, drift in zip(paths, accrued):
            assert path.income[-1] == pytest.approx(1.0 + drift, abs=1e-14)

    def test_single_regime_income_terminal_moments(self):
        market = make_market(
            correlation=0.0,
            stock_drift=[0.08],
            stock_vol=[0.25],
            income_drift=[0.02],
            income_vol=[0.12],
            generator=validate_generator([[0.0]]),
        )
        paths = simulate_wealth(
            market, optimal_strategy(market), 0.0, 1.0, 1.0, 0, 4000, 4, RngStream(seed=14)
        )
        finals = np.array([path.income[-1] for path in paths])
        assert finals.mean() == pytest.approx(1.0 + 0.02 * 2.0, abs=4 * 0.12 * np.sqrt(2 / 4000))
        assert finals.var(ddof=1) == pytest.approx(0.12**2 * 2.0, rel=0.1)

    def test_constant_position_moments(self):
        # zero rate and income: X_T = x0 + pi (alpha T + sigma B_T) exactly
        market = make_market(
            rate=0.0,
            generator=validate_generator([[0.0, 0.0], [0.0, 0.0]]),
            income_drift=[0.0, 0.0],
            income_vol=[0.0, 0.0],
        )
        hold = Strategy(position=lambda t, i: 2.0 + 0.0 * np.asarray(t), label="hold")
        paths = simulate_wealth(market, hold, 0.0, 1.0, 0.0, 0, 3000, 16, RngStream(seed=3))
        finals = np.array([path.wealth[-1] for path in paths])
        expected_mean = 1.0 + 2.0 * 0.08 * 2.0
        expected_var = (2.0 * 0.25) ** 2 * 2.0
        assert finals.mean() == pytest.approx(expected_mean, abs=4 * np.sqrt(expected_var / 3000))
        assert finals.var(ddof=1) == pytest.approx(expected_var, rel=0.15)

    def test_reproducible_and_shared_scenarios(self):
        market = make_market()
        strat = optimal_strategy(market, NORMAL_INCOME)
        a = simulate_wealth(market, strat, 0.0, 1.0, 0.5, 0, 4, 32, RngStream(seed=4))
        b = simulate_wealth(market, strat, 0.0, 1.0, 0.5, 0, 4, 32, RngStream(seed=4))
        # a different strategy on the same stream sees the same scenarios
        c = simulate_wealth(market, strat.scaled(2.0), 0.0, 1.0, 0.5, 0, 4, 32, RngStream(seed=4))
        for pa, pb, pc in zip(a, b, c):
            assert_allclose(pa.wealth, pb.wealth, atol=0)
            assert_allclose(pc.times, pa.times, atol=0)
            assert_allclose(pc.income, pa.income, atol=0)
            assert_allclose(pc.positions, 2.0 * pa.positions, rtol=1e-15)
            assert not np.allclose(pc.wealth, pa.wealth)

    def test_needs_a_step(self):
        market = make_market()
        with pytest.raises(ValueError, match="n_steps must be positive"):
            simulate_wealth(market, optimal_strategy(market), 0.0, 1.0, 0.0, 0, 4, 0, RngStream(seed=6))

    def test_path_fields_consistent(self):
        market = make_market()
        strat = optimal_strategy(market, NORMAL_INCOME)
        paths = simulate_wealth(market, strat, 0.5, 1.0, 0.2, 1, 3, 16, RngStream(seed=5))
        assert len(paths) == 3
        for path in paths:
            assert np.array_equal(path.times, np.linspace(0.5, 2.0, 17))
            assert path.wealth[0] == 1.0
            assert path.income[0] == 0.2
            assert path.regimes[0] == 1
            assert len(path.wealth) == len(path.income) == len(path.regimes) == len(path.times)
            assert len(path.positions) == len(path.times) - 1
        # one path is the first of more
        (single,) = simulate_wealth(market, strat, 0.5, 1.0, 0.2, 1, 1, 16, RngStream(seed=5))
        for name in ("times", "wealth", "income", "regimes", "positions"):
            assert np.array_equal(getattr(single, name), getattr(paths[0], name))


class TestEvaluatePolicy:
    def test_optimal_policy_attains_value(self):
        market = make_market()
        bundle = build_solution(market, NORMAL_INCOME)
        x0, y0, regime = 1.0, 0.5, 0
        est = evaluate_policy(
            market, bundle.strategy, 0.0, x0, y0, regime, 4000, RngStream(seed=6)
        )
        target = bundle.value(0.0, x0, y0, regime)
        assert abs(est.value - target) < 4 * est.stderr

    def test_perturbed_policies_do_worse(self):
        market = make_market()
        strat = optimal_strategy(market, NORMAL_INCOME)
        args = (0.0, 1.0, 0.5, 0, 2000)
        best = evaluate_policy(market, strat, *args, RngStream(seed=7))
        for factor in (0.5, 0.75, 1.25, 1.5):
            worse = evaluate_policy(market, strat.scaled(factor), *args, RngStream(seed=7))
            assert worse.value <= best.value + 2 * worse.stderr

    def test_matches_value_factor_estimator_at_rho_zero(self):
        market = make_market(correlation=0.0)
        strat = optimal_strategy(market, RHO_ZERO)
        x0, y0, regime = 1.0, 0.5, 1
        policy = evaluate_policy(market, strat, 0.0, x0, y0, regime, 3000, RngStream(seed=8))
        direct = estimate_value_mc(market, 0.0, x0, y0, regime, 3000, RngStream(seed=9))
        spread = np.hypot(policy.stderr, direct.stderr)
        assert abs(policy.value - direct.value) < 4 * spread


class TestConditionalEvaluation:
    def test_single_regime_is_exact(self):
        # a chain that never jumps gives every path the same value
        market = make_market(
            stock_drift=[0.08], stock_vol=[0.25], income_drift=[0.02], income_vol=[0.12],
            generator=validate_generator([[0.0]]),
        )
        bundle = build_solution(market, NORMAL_INCOME)
        est = evaluate_policy(market, bundle.strategy, 0.3, 1.0, 0.5, 0, 64, RngStream(seed=10))
        target = bundle.value(0.3, 1.0, 0.5, 0)
        assert abs(est.value - target) <= 1e-10 * abs(target)
        assert est.stderr < 1e-15 * abs(target)  # zero but for the rounding of the mean

    def test_absorbing_start_is_exact(self):
        # regime 1 cannot be left: every path takes the branch that stays,
        # scored as a chain that has regime 1 alone scores it
        market = make_market(correlation=0.3, generator=validate_generator([[-0.5, 0.5], [0.0, 0.0]]))
        alone = make_market(
            correlation=0.3, stock_drift=[0.03], stock_vol=[0.4], income_drift=[-0.01], income_vol=[0.2],
            generator=validate_generator([[0.0]]),
        )
        bundle = build_solution(alone, NORMAL_INCOME)
        est = evaluate_policy(market, optimal_strategy(market), 0.3, 1.0, 0.5, 1, 300, RngStream(seed=14))
        assert est == evaluate_policy(alone, bundle.strategy, 0.3, 1.0, 0.5, 0, 300, RngStream(seed=14))
        target = bundle.value(0.3, 1.0, 0.5, 0)
        assert abs(est.value - target) <= 1e-10 * abs(target)
        assert est.stderr == 0.0
        assert est.mean_gap == 0.0 and est.mean_panels == 0  # no control where no path leaves

    @pytest.mark.parametrize("horizon", [5.0, 10.0])
    def test_a_long_absorbing_start_matches_the_value_function(self, horizon):
        # the one segment [0, horizon] is as long as a segment gets: a single
        # 3-node rule on it was 3e-8 (horizon 5) and 5e-6 (horizon 10) off
        market = make_market(horizon=horizon, generator=validate_generator([[0.0, 0.0], [0.3, -0.3]]))
        est = evaluate_policy(market, optimal_strategy(market), 0.0, 1.0, 0.5, 0, 64, RngStream(seed=16))
        target = value_function(market)(0.0, 1.0, 0.5, 0)
        assert abs(est.value - target) <= 1e-9 * abs(target)

    def test_long_segments_take_no_more_memory_than_short_ones(self):
        # at rate 0.1 each path's one segment takes 10 pieces of the rule at
        # horizon 5 and 80 at horizon 40; memory must stay that of the 2048
        # segments (about 1 MB), where all pieces laid out at once take 7.2 and 56.5 MB
        def peak(horizon):
            market = make_market(
                rate=0.1, risk_aversion=0.5, horizon=horizon, stock_drift=[0.15, 0.13], income_vol=[0.02, 0.03],
                generator=validate_generator([[0.0, 0.0], [0.3, -0.3]]),
            )
            tracemalloc.start()
            try:
                evaluate_policy(market, optimal_strategy(market), 0.0, 1.0, 0.5, 0, 2048, RngStream(seed=17))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40.0) <= 1.25 * peak(5.0)

    def test_a_start_left_at_a_tiny_rate_scores_finitely(self):
        # leaving has probability 2e-20: the sampled branch's mean exponent, a
        # difference of two near-equal exponents over that chance, carries no
        # digits, and taken as it is its slope would overflow the estimate
        market = make_market(generator=validate_generator([[-1e-20, 1e-20], [0.3, -0.3]]))
        bundle = build_solution(market, NORMAL_INCOME)
        est = evaluate_policy(market, bundle.strategy, 0.0, 1.0, 0.5, 0, 64, RngStream(seed=3))
        target = bundle.value(0.0, 1.0, 0.5, 0)
        assert abs(est.value - target) <= 1e-10 * abs(target)
        assert est.stderr <= 1e-15 * abs(target)

    def test_a_branch_of_weight_zero_adds_nothing(self):
        # regime 0 is left at rate 1000 for good: staying there to the horizon
        # has probability exp(-2000), which is 0, and a utility beyond the
        # float range; the paths that leave score finitely
        market = make_market(generator=validate_generator([[-1000.0, 1000.0], [0.0, 0.0]]))
        bold = Strategy(position=lambda t, i: np.where(i == 0, 100.0, 0.0), label="bold")
        stuck = replace(market, generator=validate_generator([[0.0, 0.0], [0.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = evaluate_policy(market, bold, 0.0, 1.0, 0.0, 0, 64, RngStream(seed=15))
            # where staying is certain, its utility is the estimate, and it raises
            with pytest.raises(OverflowError, match="policy 'bold' exceeds the float range"):
                evaluate_policy(stuck, bold, 0.0, 1.0, 0.0, 0, 64, RngStream(seed=15))
        assert np.isfinite([est.value, est.stderr]).all() and est.stderr > 0.0

    def test_idle_strategy_without_income_risk_is_deterministic(self):
        # no position and no income shock leave S = 0, and with one income
        # drift in both regimes the chain's jumps change nothing
        market = make_market(income_drift=[0.02, 0.02], income_vol=[0.0, 0.0])
        idle = Strategy(position=lambda t, i: 0.0, label="idle")
        t, x, y = 0.4, 1.3, 0.5
        est = evaluate_policy(market, idle, t, x, y, 0, 300, RngStream(seed=11))
        r, mu, tau = market.rate, 0.02, market.horizon - t
        wealth = x * np.exp(r * tau) + y * np.expm1(r * tau) / r + mu * (np.expm1(r * tau) - r * tau) / r**2
        assert est.value == pytest.approx(utility(wealth, market.risk_aversion), rel=1e-13)

    def test_overflow_is_an_error(self):
        market = make_market(risk_aversion=50.0, horizon=50.0)
        hold = Strategy(position=lambda t, i: 2.0, label="hold")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="policy 'hold' exceeds the float range"):
                evaluate_policy(market, hold, 0.0, 1.0, 0.0, 0, 64, RngStream(seed=12))


@pytest.mark.parametrize("field, wealth_start, income_start", [
    ("wealth_start", np.nan, 0.0), ("wealth_start", -np.inf, 0.0),
    ("income_start", 1.0, np.inf), ("income_start", 1.0, np.nan),
])
def test_non_finite_start_is_invalid_input(field, wealth_start, income_start):
    # NaN wealth used to leave the float range, infinite income to score 0 +- 0,
    # and NaN wealth to simulate NaN paths; the zero-correlation samplers
    # returned NaN or an infinite value with a NaN stderr
    market = make_market()
    strategy = optimal_strategy(market, NORMAL_INCOME)
    args = (market, strategy, 0.0, wealth_start, income_start, 0, 8)
    with pytest.raises(InvalidInput, match=f"^{field}: must be finite") as caught:
        evaluate_policy(*args, RngStream(seed=13))
    assert [name for name, _ in caught.value.problems] == [field]
    with pytest.raises(InvalidInput, match=f"^{field}: must be finite"):
        simulate_wealth(*args, 16, RngStream(seed=13))
    uncorrelated = replace(market, correlation=0.0)
    with pytest.raises(InvalidInput, match=f"^{field}: must be finite") as caught:
        estimate_value_mc(uncorrelated, 0.0, wealth_start, income_start, 0, 8, RngStream(seed=13))
    assert [name for name, _ in caught.value.problems] == [field]


class TestSolutionBundleAndValue:
    def test_bundle_pieces_agree(self):
        market = make_market()
        bundle = build_solution(market, NORMAL_INCOME)
        value = value_function(market, factors=bundle.factors)
        t, x, y, regime = 0.4, 1.2, -0.3, 1
        assert bundle.value(t, x, y, regime) == pytest.approx(value(t, x, y, regime), rel=1e-15)
        assert bundle.case == NORMAL_INCOME

    def test_terminal_value_is_utility(self):
        market = make_market()
        value = value_function(market)
        for x in (-1.0, 0.0, 2.5):
            assert value(2.0, x, 3.0, 0) == pytest.approx(utility(x, 1.5), rel=1e-12)

    def test_value_increases_with_wealth_and_income(self):
        market = make_market()
        value = value_function(market)
        assert value(0.5, 2.0, 0.5, 0) > value(0.5, 1.0, 0.5, 0)
        assert value(0.5, 1.0, 1.5, 0) > value(0.5, 1.0, 0.5, 0)

    def test_build_solution_checks_case(self):
        with pytest.raises(CaseMismatch):
            build_solution(make_market(), RHO_ZERO)
