"""Tests for the income loading, regime factors, and the PDE residual."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from regimeweave.hjb import (
    SMALL_EXPONENT,
    ConcavityViolation,
    IncomeLoading,
    MarketModel,
    StepTooCoarse,
    _growth_mean,
    _int_expm1,
    _int_expm1_sq,
    _magnus_grid,
    _partials,
    growth_coefficients,
    hjb_residual,
    regime_growth_rate,
    solve_income_loading,
    solve_regime_factors,
)
from regimeweave.markov import InvalidInput, _expm_stack, validate_generator
from regimeweave.portfolio import Strategy, _rate_coefficients, optimal_strategy

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


def single_regime_market(**overrides):
    params = dict(
        rate=0.03,
        correlation=0.4,
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


def stiff_market(scale):
    """The reference four-regime market with its chain's rates scaled up."""
    rates = [
        [-0.7, 0.5, 0.2, 0.0],
        [0.3, -0.5, 0.0, 0.2],
        [0.7, 0.0, -1.2, 0.5],
        [0.0, 0.7, 0.3, -1.0],
    ]
    return MarketModel(
        rate=0.03,
        correlation=0.35,
        risk_aversion=1.2,
        horizon=1.5,
        stock_drift=[0.09, 0.04, 0.07, 0.02],
        stock_vol=[0.22, 0.35, 0.28, 0.4],
        income_drift=[0.02, 0.0, 0.015, -0.01],
        income_vol=[0.12, 0.18, 0.1, 0.22],
        generator=validate_generator(np.array(rates) * scale),
    )


def radau_factors(market):
    """Dense implicit (Radau) solution of the factor ODE in time to horizon."""

    def system(s):
        return np.diag(regime_growth_rate(market, market.horizon - s)) + market.generator.rates

    sol = solve_ivp(
        lambda s, h: system(s) @ h,
        (0.0, market.horizon),
        np.ones(market.n_regimes),
        method="Radau",
        jac=lambda s, h: system(s),
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    return sol.sol


def closed_form_value(market, table, loading):
    """Assemble the separable candidate from its computed pieces."""

    def value(t, x, y, regime):
        growth = np.exp(market.rate * (market.horizon - t))
        exponent = -market.risk_aversion * x * growth + loading.value(t) * y
        return -np.exp(exponent) / market.risk_aversion * table.value(t, regime)

    return value


class TestMarketModel:
    def test_collects_all_problems(self):
        with pytest.raises(ValueError) as err:
            make_market(risk_aversion=-1.0, horizon=0.0, stock_vol=[0.25, 0.0])
        message = str(err.value)
        assert "risk_aversion" in message
        assert "horizon" in message
        assert "stock_vol" in message
        assert isinstance(err.value, InvalidInput)
        assert [field for field, _ in err.value.problems] == ["risk_aversion", "horizon", "stock_vol[1]"]

    def test_regime_count_mismatch(self):
        with pytest.raises(ValueError, match="per regime"):
            make_market(stock_drift=[0.08, 0.03, 0.05])

    def test_regime_count_mismatch_is_one_problem(self):
        # three regimes on a four-state chain: one count problem, not one per array
        q4 = validate_generator(np.roll(np.eye(4), 1, axis=1) - np.eye(4))
        three = [0.1, 0.2, 0.3]
        with pytest.raises(InvalidInput) as err:
            make_market(stock_drift=three, stock_vol=three, income_drift=three, income_vol=three, generator=q4)
        assert [field for field, _ in err.value.problems] == ["n_regimes"]

    def test_correlation_range(self):
        with pytest.raises(ValueError, match="correlation"):
            make_market(correlation=1.2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", np.nan),
            ("rate", np.inf),
            ("risk_aversion", np.inf),
            ("horizon", np.inf),
            ("stock_drift", [0.1, np.inf]),
            ("stock_vol", [0.25, np.nan]),
            ("income_drift", [np.nan, 0.0]),
            ("income_vol", [0.1, np.inf]),
        ],
    )
    def test_rejects_non_finite_inputs(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_market(**{field: value})


class TestIncomeLoading:
    def test_terminal_value_and_sign(self):
        m = solve_income_loading(make_market())
        assert m.value(2.0) == 0.0
        assert m.value(0.0) < 0.0

    def test_closed_form_values(self):
        m = IncomeLoading(risk_aversion=1.5, rate=0.03, horizon=2.0)
        tau = 2.0 - 0.7
        assert m.value(0.7) == pytest.approx(-(1.5 / 0.03) * np.expm1(0.03 * tau), rel=1e-15)

    def test_zero_rate_limit(self):
        m = IncomeLoading(risk_aversion=1.5, rate=0.0, horizon=2.0)
        assert m.value(0.5) == pytest.approx(-1.5 * 1.5, abs=1e-15)
        tiny = IncomeLoading(risk_aversion=1.5, rate=1e-12, horizon=2.0)
        assert m.value(0.5) == pytest.approx(tiny.value(0.5), rel=1e-10)

    @pytest.mark.parametrize("rate", [0.05, 1e-8, -0.02])
    def test_solves_backward_ode(self, rate):
        # m'(t) = -rate m(t) + risk_aversion with m(horizon) = 0,
        # integrated in time-to-horizon s where n'(s) = rate n(s) - gamma
        gamma, horizon = 1.5, 2.0
        m = IncomeLoading(risk_aversion=gamma, rate=rate, horizon=horizon)
        sol = solve_ivp(
            lambda s, n: rate * n - gamma,
            (0.0, horizon),
            [0.0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for t in (0.0, 0.3, 1.1, 1.9):
            assert m.value(t) == pytest.approx(float(sol.sol(horizon - t)[0]), abs=1e-9)

    @pytest.mark.parametrize("rate", [0.05, 0.0, 1e-8, -0.02])
    def test_integral_matches_quadrature(self, rate):
        m = IncomeLoading(risk_aversion=1.5, rate=rate, horizon=2.0)
        for a, b in ((0.0, 2.0), (0.3, 1.7), (1.2, 1.3)):
            oracle, _ = quad(m.value, a, b, epsabs=1e-13, epsrel=1e-13)
            assert m.integral(a, b) == pytest.approx(oracle, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("rate", [0.05, 0.0, 1e-8, -0.02])
    def test_square_integral_matches_quadrature(self, rate):
        m = IncomeLoading(risk_aversion=1.5, rate=rate, horizon=2.0)
        for a, b in ((0.0, 2.0), (0.3, 1.7), (1.2, 1.3)):
            oracle, _ = quad(lambda s: m.value(s) ** 2, a, b, epsabs=1e-13, epsrel=1e-13)
            assert m.square_integral(a, b) == pytest.approx(oracle, rel=1e-9, abs=1e-13)

    def test_tiny_segment_against_midpoint_rule(self):
        m = IncomeLoading(risk_aversion=1.5, rate=0.03, horizon=2.0)
        a, width = 1.0, 1e-9
        assert m.integral(a, a + width) == pytest.approx(
            m.value(a + width / 2) * width, rel=1e-9
        )
        assert m.square_integral(a, a + width) == pytest.approx(
            m.value(a + width / 2) ** 2 * width, rel=1e-9
        )

    def test_integral_additivity_and_vectorization(self):
        m = IncomeLoading(risk_aversion=1.5, rate=0.05, horizon=2.0)
        whole = m.integral(0.2, 1.8)
        assert m.integral(0.2, 1.1) + m.integral(1.1, 1.8) == pytest.approx(whole, rel=1e-13)
        a = np.array([0.0, 0.5, 1.0])
        b = np.array([0.5, 1.0, 1.5])
        assert_allclose(m.integral(a, b), [m.integral(x, y) for x, y in zip(a, b)], rtol=1e-14)

    @pytest.mark.parametrize("rate", [0.05, 0.0, -0.02])
    def test_shared_integrals_equal_public_methods(self, rate):
        # segments of 0.1 and shorter take the series branch at |rate| <= 0.05, longer ones the direct one
        m = IncomeLoading(risk_aversion=1.5, rate=rate, horizon=2.0)
        a = np.array([0.0, 0.3, 1.2, 1.9, 1.0, 0.5])
        b = np.array([2.0, 1.7, 1.3, 1.9 + 1e-3, 1.0, 1.9])
        if rate:
            assert {True, False} == set(np.abs(rate * (b - a)) < SMALL_EXPONENT)
        integral, square = m._integrals(a, b)
        assert np.array_equal(integral, m.integral(a, b))
        assert np.array_equal(square, m.square_integral(a, b))
        for k in range(len(a)):
            assert integral[k] == m.integral(a[k], b[k])
            assert square[k] == m.square_integral(a[k], b[k])

    @pytest.mark.parametrize("rate", [-0.7, -0.05, 0.0, 0.05, 2.5])
    def test_one_branch_forms_equal_the_two_branch_forms(self, rate):
        # each form is computed only where it is used; the values are those of
        # computing both everywhere and picking one, bit for bit, on either
        # side of the threshold and at it
        threshold = SMALL_EXPONENT / abs(rate) if rate else 1.0
        delta = np.concatenate([threshold * (1.0 + np.linspace(-1e-3, 1e-3, 2001)), [threshold, 0.0, 1e-12, 40.0]])
        for got, expected in ((_int_expm1, two_branch_int_expm1), (_int_expm1_sq, two_branch_int_expm1_sq)):
            assert np.array_equal(got(rate, delta), expected(rate, delta))
            assert got(rate, np.float64(threshold)) == expected(rate, np.float64(threshold))

    def test_reversed_segment_rejected(self):
        m = IncomeLoading(risk_aversion=1.5, rate=0.05, horizon=2.0)
        with pytest.raises(ValueError):
            m.integral(1.0, 0.5)


class TestGrowthCoefficients:
    def test_hand_computed_values(self):
        c = growth_coefficients(make_market())
        # first regime: excess 0.05, vol 0.25, income drift 0.02, income vol 0.12
        assert c.constant[0] == pytest.approx(-(0.05**2) / (2 * 0.25**2), abs=1e-15)
        assert c.linear[0] == pytest.approx(0.02 - 0.4 * 0.12 * 0.05 / 0.25, abs=1e-15)
        assert c.quadratic[0] == pytest.approx((1 - 0.4**2) * 0.12**2 / 2, abs=1e-15)

    def test_zero_correlation_decouples_linear_term(self):
        c = growth_coefficients(make_market(correlation=0.0))
        assert_allclose(c.linear, [0.02, -0.01], atol=1e-15)
        assert_allclose(c.quadratic, np.array([0.12, 0.2]) ** 2 / 2, atol=1e-15)

    def test_growth_rate_at_horizon_is_constant_part(self):
        market = make_market()
        c = growth_coefficients(market)
        assert_allclose(regime_growth_rate(market, market.horizon), c.constant, atol=1e-15)

    def test_evaluate_shapes(self):
        c = growth_coefficients(make_market())
        assert c.evaluate(0.0).shape == (2,)
        assert c.evaluate(np.zeros(5)).shape == (5, 2)


def growth_markets():
    """Markets of 2 to 8 regimes, each off-diagonal rate zero or between 1e-3
    and 1e3 on a log scale, a rate of 0, 0.02 or -0.03, and a horizon between
    0.01 and 50 on a log scale."""
    rate = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))

    @st.composite
    def of_size(draw, n):
        q = np.reshape(draw(st.lists(rate, min_size=n * n, max_size=n * n)), (n, n))

        def per_regime(lo, hi):
            return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

        return MarketModel(
            rate=draw(st.sampled_from([0.0, 0.02, -0.03])),
            correlation=draw(st.floats(-0.9, 0.9)),
            risk_aversion=draw(st.floats(0.5, 3.0)),
            horizon=draw(st.floats(-2.0, np.log10(50.0)).map(lambda e: 10.0**e)),
            stock_drift=per_regime(0.0, 0.12),
            stock_vol=per_regime(0.1, 0.5),
            income_drift=per_regime(-0.05, 0.05),
            income_vol=per_regime(0.0, 0.3),
            generator=validate_generator(q - np.diag(q.sum(axis=1))),
        )

    return st.integers(2, 8).flatmap(of_size)


def strategy_rates(market, factor, level):
    """``(rows, 3, n_regimes)`` rate coefficients of the optimum, the optimum
    scaled by ``factor``, and the constant amount ``level``."""
    optimum = optimal_strategy(market)
    strategies = [optimum, optimum.scaled(factor), Strategy.constant(market, level)]
    return np.stack([_rate_coefficients(market, strategy) for strategy in strategies])


# Radau at these tolerances takes thousands of steps on the stiffest chains: few examples keep Tier-1's time
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(growth_markets(), st.floats(0.0, 0.99), st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
def test_growth_mean_matches_radau(market, fraction, factor, level):
    # each control's mean from one matrix exponential, against the backward ODE
    # mu' = -(c + Q mu), mu(horizon) = 0, for every start regime, for the
    # optimal, a scaled and a constant strategy, solved together
    t, q, n = fraction * market.horizon, market.generator.rates, market.n_regimes
    tau = market.horizon - t
    rates = strategy_rates(market, factor, level)
    loading = solve_income_loading(market)

    def rate(u):
        m = loading.value(u)
        return (rates[:, 0] + rates[:, 1] * m + rates[:, 2] * m**2).ravel()

    # errors relative to the integral of the rate's parts in size, which cancel where the rate is near 0
    m = loading.value(t)
    size = tau * (np.abs(rates[:, 0]) + np.abs(rates[:, 1] * m) + rates[:, 2] * m**2).max(axis=1)
    jac = np.kron(np.eye(len(rates)), -q)
    solved = solve_ivp(lambda u, mu: -(rate(u) + jac @ -mu), (market.horizon, t), np.zeros(len(rates) * n),
                       method="Radau", rtol=1e-13, atol=1e-15 * size.min() or 1.0, jac=lambda u, mu: jac)
    assert solved.success
    # scaling and squaring rounds in proportion to the 1-norm of Q tau: on chains whose rates
    # span six decades that bound, not 1e-12, holds (up to 1.2e-11 seen, where scipy's expm
    # stays near 1e-14)
    tolerance = max(1e-12, 32 * 2.0**-53 * np.abs(q).sum(axis=0).max() * tau)
    mean, _ = _growth_mean(market, rates, t)
    assert np.all(np.abs(mean - solved.y[:, -1].reshape(len(rates), n)).max(axis=1) <= tolerance * size)
    # the optimum's rate is the regime factor's
    assert_allclose(rate(t)[:n], regime_growth_rate(market, t), rtol=1e-13, atol=1e-15)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(growth_markets(), st.floats(0.0, 0.99), st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
def test_growth_mean_gap_covers_its_rounding(market, fraction, factor, level):
    # the reported gap bounds the mean's distance from scipy's expm of the same
    # (mu, m^2, m, 1) system, built here from its equations
    t, n = fraction * market.horizon, market.n_regimes
    r, gamma = market.rate, market.risk_aversion
    rates = strategy_rates(market, factor, level)
    mean, gap = _growth_mean(market, rates, t)
    for row, coefficients in enumerate(rates):
        system = np.zeros((n + 3, n + 3))  # d/du of (mu, m^2, m, 1)
        system[:n, :n] = -market.generator.rates
        constant, linear, quadratic = coefficients
        system[:n, n], system[:n, n + 1], system[:n, n + 2] = -quadratic, -linear, -constant
        system[n, n], system[n, n + 1] = -2.0 * r, 2.0 * gamma
        system[n + 1, n + 1], system[n + 1, n + 2] = -r, gamma
        oracle = expm(-(market.horizon - t) * system)[:n, -1]
        assert 0.0 < gap[row] and np.abs(mean[row] - oracle).max() <= gap[row]


def test_growth_mean_of_a_non_finite_rate_is_nan():
    # a coefficient past the float range leaves that row's mean and gap NaN, and no other row's
    market = make_market()
    rates = strategy_rates(market, 0.5, 1.0)
    with np.errstate(over="ignore"):
        rates[2] = _rate_coefficients(market, Strategy.constant(market, 1e200))
    mean, gap = _growth_mean(market, rates, 0.0)
    assert np.isnan(mean[2]).all() and np.isnan(gap[2])
    assert np.array_equal(mean[:2], _growth_mean(market, rates[:2], 0.0)[0])


class TestSolveRegimeFactors:
    def test_terminal_condition(self):
        table = solve_regime_factors(make_market())
        assert_allclose(table.value(2.0), [1.0, 1.0], atol=1e-12)

    def test_single_regime_closed_form(self):
        # one regime decouples: the factor is the exponential of the
        # integrated growth rate, available exactly via the loading integrals
        market = single_regime_market()
        table = solve_regime_factors(market)
        coeffs = growth_coefficients(market)
        loading = solve_income_loading(market)
        for t in (0.0, 0.37, 1.0, 1.85):
            exponent = (
                coeffs.constant[0] * (market.horizon - t)
                + coeffs.linear[0] * loading.integral(t, market.horizon)
                + coeffs.quadratic[0] * loading.square_integral(t, market.horizon)
            )
            assert table.value(t, regime=0) == pytest.approx(np.exp(exponent), rel=1e-9)

    def test_zero_income_matches_matrix_exponential(self):
        # constant growth rates turn the system into a linear constant-
        # coefficient ODE solved by a matrix exponential
        market = make_market(income_drift=[0.0, 0.0], income_vol=[0.0, 0.0])
        table = solve_regime_factors(market)
        coeffs = growth_coefficients(market)
        system = np.diag(coeffs.constant) + Q2.rates
        for t in (0.0, 0.6, 1.3, 2.0):
            oracle = expm(system * (market.horizon - t)) @ np.ones(2)
            assert_allclose(table.value(t), oracle, rtol=1e-8)

    def test_general_market_matches_adaptive_integrator(self):
        market = make_market()
        table = solve_regime_factors(market)
        coeffs = growth_coefficients(market)
        loading = solve_income_loading(market)

        def rhs(s, h):
            c = coeffs.evaluate(loading.value(market.horizon - s))
            return c * h + Q2.rates @ h

        sol = solve_ivp(
            rhs,
            (0.0, market.horizon),
            np.ones(2),
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for t in (0.0, 0.21, 0.77, 1.5, 1.93):
            assert_allclose(table.value(t), sol.sol(market.horizon - t), rtol=1e-8)

    def test_step_too_coarse(self):
        # strong drift over a long horizon cannot be resolved with 8 steps
        market = make_market(
            horizon=5.0, stock_drift=[0.3, 0.25], stock_vol=[0.1, 0.1]
        )
        with pytest.raises(StepTooCoarse, match="increase n_steps"):
            solve_regime_factors(market, n_steps=8)

    @pytest.mark.parametrize("scale", [1000.0, 1500.0])
    def test_stiff_chain_matches_radau(self, scale):
        # the reference chain sped up: no overflow or underflow anywhere, a
        # checked error estimate, and factors that agree with an implicit
        # integrator built for stiff systems
        market = stiff_market(scale)
        with np.errstate(all="raise"):
            table = solve_regime_factors(market, n_steps=1024)
        assert np.isfinite(table.error_estimate) and table.error_estimate <= 1e-9
        sol = radau_factors(market)
        for t in (0.0, 0.3, 0.75, 1.2, 1.5):
            assert_allclose(table.value(t), sol(market.horizon - t), rtol=1e-8)

    def test_very_stiff_chain_is_checked_or_too_coarse(self):
        market = stiff_market(1e5)
        with np.errstate(all="raise"):
            try:
                table = solve_regime_factors(market, n_steps=1024)
            except StepTooCoarse as err:
                estimate = float(re.search(r"error (\S+) exceeds", str(err)).group(1))
                assert np.isfinite(estimate) and estimate > 1e-9
                return
        assert table.error_estimate <= 1e-9
        sol = radau_factors(market)
        for t in (0.0, 0.75, 1.5):
            assert_allclose(table.value(t), sol(market.horizon - t), rtol=1e-8)

    @pytest.mark.parametrize("n_steps", [8, 64, 1024, 2050])
    def test_overflow_is_not_a_step_problem(self, n_steps):
        # the reference market over 40 years: growth rates reach ~180, so the
        # factors leave the float range whatever the step count
        market = replace(stiff_market(1.0), horizon=40.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="float range"):
                solve_regime_factors(market, n_steps=n_steps)

    def test_error_estimate_is_kept(self):
        table = solve_regime_factors(make_market())
        assert np.isfinite(table.error_estimate)
        assert 0.0 <= table.error_estimate <= 1e-9

    def test_n_steps_validation(self):
        with pytest.raises(ValueError):
            solve_regime_factors(make_market(), n_steps=7)
        with pytest.raises(ValueError):
            solve_regime_factors(make_market(), n_steps=4)

    def test_values_positive(self):
        table = solve_regime_factors(make_market())
        assert np.all(table.values > 0)

    def test_range_gate_with_boundary_slack(self):
        table = solve_regime_factors(make_market())
        spacing = table.times[1] - table.times[0]
        table.value(2.0 + 0.5 * spacing)  # within slack
        for t in (-spacing, 2.0 + spacing):  # one full step either side
            assert np.all(np.isfinite(table.value(t)))
        with pytest.raises(ValueError, match="outside"):
            table.value(2.0 + 2.0 * spacing)
        with pytest.raises(ValueError, match="outside"):
            table.value(-2.0 * spacing)
        for t in ([0.5, 2.0 + 1.5 * spacing], np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="outside"):
                table.value(t)


class TestMagnusChaining:
    @pytest.mark.parametrize("n_steps", [8, 10, 62, 1024, 2050])
    @pytest.mark.parametrize("market", [make_market(), stiff_market(1.0), stiff_market(1000.0)],
                             ids=["two_regime", "reference", "stiff"])
    def test_blocks_match_sequential_steps(self, monkeypatch, market, n_steps):
        captured = []

        def record(a):
            steps = _expm_stack(a)
            captured.append(steps.copy())  # the chaining overwrites its steps
            return steps

        monkeypatch.setattr("regimeweave.hjb._expm_stack", record)
        grid = _magnus_grid(market, n_steps)
        (steps,) = captured
        expected = np.empty((n_steps + 1, market.n_regimes))
        expected[0] = 1.0
        for k in range(n_steps):
            expected[k + 1] = steps[k] @ expected[k]
        assert grid.shape == expected.shape
        assert_allclose(grid, expected, rtol=1e-14, atol=0.0)


class TestHermiteTable:
    def test_nodes_are_exact(self):
        table = solve_regime_factors(make_market())
        assert np.array_equal(table.value(table.times), table.values)
        for k in (0, 1, 777, len(table.times) - 2, len(table.times) - 1):
            assert table.value(float(table.times[k])).tolist() == table.values[k].tolist()
            assert table.value(float(table.times[k]), 1) == table.values[k, 1]

    @pytest.mark.parametrize(
        "market, n_steps, upto",
        [
            (make_market(), 2048, 2.0),
            # a 1024-step grid does not resolve the chain's transient, which
            # decays like exp(-1000 (horizon - t)), so stop short of it
            (stiff_market(1000.0), 1024, 1.45),
        ],
        ids=["make_market", "stiff_x1000"],
    )
    def test_between_nodes_matches_radau(self, market, n_steps, upto):
        table = solve_regime_factors(market, n_steps=n_steps)
        sol = radau_factors(market)
        mid = (table.times[1:] + table.times[:-1]) / 2.0
        t = np.concatenate([mid, np.random.default_rng(5).uniform(0.0, market.horizon, 500)])
        t = t[t <= upto]
        assert_allclose(table.value(t), sol(market.horizon - t).T, rtol=1e-9)

    def test_past_horizon_continues_the_last_cubic(self):
        table = solve_regime_factors(make_market())
        spacing = table.times[1] - table.times[0]
        t = table.times[-1] + 0.5 * spacing
        w = t - table.times[-2]
        c = table.coefficients[:, -2]
        assert_allclose(table.value(t), ((c[3] * w + c[2]) * w + c[1]) * w + c[0], rtol=1e-14)


def two_branch_int_expm1(r, delta):
    """The integral of ``expm1(r w)``, both the series and the direct form
    computed everywhere, one picked by the size of ``r delta``."""
    z = r * delta
    series = r * delta**2 * (1.0 / 2.0 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z * (1.0 / 120.0 + z / 720.0))))
    direct = (np.expm1(z) - z) / np.where(r == 0.0, 1.0, r)
    return np.where(np.abs(z) < SMALL_EXPONENT, series, direct)


def two_branch_int_expm1_sq(r, delta):
    """The integral of ``expm1(r w)**2``, as :func:`two_branch_int_expm1`."""
    z = r * delta
    series = r**2 * delta**3 * (
        1.0 / 3.0 + z * (1.0 / 4.0 + z * (7.0 / 60.0 + z * (1.0 / 24.0 + z * (31.0 / 2520.0 + z / 320.0))))
    )
    safe_r = np.where(r == 0.0, 1.0, r)
    direct = np.expm1(2.0 * z) / (2.0 * safe_r) - 2.0 * np.expm1(z) / safe_r + delta
    return np.where(np.abs(z) < SMALL_EXPONENT, series, direct)


class TestExpmStack:
    """:mod:`regimeweave.markov`'s matrix-exponential kernel, on the Magnus
    steps' general matrices as well as on generators."""

    @pytest.mark.parametrize("norm", 10.0 ** np.arange(-4.0, 3.5, 0.5))
    def test_matches_scipy_at_each_norm(self, norm):
        # one stack per 1-norm, so each runs the Taylor degree its norm picks; half
        # are generators, half general matrices up to norm 1 (past it, a general
        # matrix's exponential loses digits to its conditioning, in scipy as here)
        rng = np.random.default_rng(int(100 * np.log10(norm)) + 1000)
        stack = rng.standard_normal((40, 4, 4))
        generators = slice(None) if norm > 1.0 else slice(20)
        stack[generators] = np.abs(stack[generators])  # nonnegative off the diagonal, zero row sums
        diag = np.arange(4)
        stack[generators, diag, diag] = 0.0
        stack[generators, diag, diag] = -stack[generators].sum(axis=2)
        stack *= norm / np.abs(stack).sum(axis=-2).max()
        for a, e in zip(stack, _expm_stack(stack)):
            ref = expm(a)
            assert np.abs(e - ref).sum(axis=0).max() <= 1e-12 * np.abs(ref).sum(axis=0).max()

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_matches_scipy_on_generator_stacks(self, n):
        # one stack mixes 1-norms from 1e-6 to 1e3, so its small members are
        # squared many more times than they need
        rng = np.random.default_rng(11 + n)
        size = 300
        stack = rng.uniform(0.0, 1.0, (size, n, n)) * (rng.uniform(size=(size, n, n)) < 0.7)
        diag = np.arange(n)
        stack[:, diag, diag] = 0.0
        stack[:, diag, diag] = -stack.sum(axis=2)
        norms = np.abs(stack).sum(axis=-2).max(axis=-1)
        scale = 10.0 ** rng.uniform(-6.0, 3.0, size)
        stack *= (scale / np.where(norms > 0, norms, 1.0))[:, None, None]
        stack[:, diag, diag] -= rng.uniform(0.01, 1.0, (size, n)) * np.minimum(scale, 1.0)[:, None]
        assert np.all(np.diagonal(stack, axis1=1, axis2=2) < 0)
        got = _expm_stack(stack)
        for a, e in zip(stack, got):
            ref = expm(a)
            assert np.abs(e - ref).sum(axis=0).max() <= 1e-12 * np.abs(ref).sum(axis=0).max()

    def test_matches_scipy_on_general_matrices(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((200, 4, 4))
        stack *= (10.0 ** rng.uniform(-6.0, 0.5, 200) / np.abs(stack).sum(axis=-2).max(axis=-1))[
            :, None, None
        ]
        for a, e in zip(stack, _expm_stack(stack)):
            assert_allclose(e, expm(a), rtol=1e-12, atol=1e-12 * np.abs(expm(a)).max())


def controlled_generator(market, value_fn, t, x, y, regime, portfolio):
    """The dynamic-programming operator at a given stock position, from the
    finite-difference partials that :func:`hjb_residual` takes."""
    v, v_t, v_x, v_y, v_xx, v_yy, v_xy = _partials(value_fn, t, x, y, regime, 1e-4)
    excess, vol = market.excess_return()[regime], market.stock_vol[regime]
    ivol, rho = market.income_vol[regime], market.correlation
    chain = sum(
        market.generator.rates[regime, j] * (v if j == regime else value_fn(t, x, y, j))
        for j in range(market.n_regimes)
    )
    return float(
        v_t
        + 0.5 * portfolio**2 * vol**2 * v_xx
        + (market.rate * x + portfolio * excess + y) * v_x
        + market.income_drift[regime] * v_y
        + 0.5 * ivol**2 * v_yy
        + portfolio * vol * rho * ivol * v_xy
        + chain
    )


@pytest.fixture(scope="module")
def solved():
    market = make_market()
    table = solve_regime_factors(market)
    loading = solve_income_loading(market)
    return market, table, loading


class TestHjbOperator:
    def test_residual_small_on_solution(self, solved):
        market, table, loading = solved
        value = closed_form_value(market, table, loading)
        for t in (0.0, 0.9, 2.0):
            for x in (-1.0, 0.0, 2.0):
                for y in (-0.5, 0.0, 1.0):
                    for regime in (0, 1):
                        v = value(t, x, y, regime)
                        res = hjb_residual(market, value, t, x, y, regime)
                        assert abs(res) < 3e-5 * (1.0 + abs(v))

    def test_optimum_dominates_perturbed_controls(self, solved):
        market, table, loading = solved
        value = closed_form_value(market, table, loading)
        t, x, y, regime = 0.9, 1.0, 0.5, 0
        at_best = hjb_residual(market, value, t, x, y, regime)
        # recover the first-order-condition position, then move off it
        excess = market.excess_return()[regime]
        vol = market.stock_vol[regime]
        growth = np.exp(market.rate * (market.horizon - t))
        best = (excess / vol**2 + market.correlation * market.income_vol[regime]
                * loading.value(t) / vol) / (market.risk_aversion * growth)
        on = controlled_generator(market, value, t, x, y, regime, best)
        assert on == pytest.approx(at_best, rel=1e-6, abs=1e-12)
        for shift in (-1.0, -0.2, 0.2, 1.0):
            off = controlled_generator(market, value, t, x, y, regime, best + shift)
            assert off < at_best - 1e-12

    def test_distorted_factor_inflates_residual(self, solved):
        market, table, loading = solved
        good = closed_form_value(market, table, loading)

        def bad(t, x, y, regime):
            bump = 1.01 if regime == 0 else 1.0
            return good(t, x, y, regime) * bump

        t, x, y = 0.9, 1.0, 0.5
        res_good = abs(hjb_residual(market, good, t, x, y, 0))
        res_bad = abs(hjb_residual(market, bad, t, x, y, 0))
        assert res_bad > 5 * res_good

    def test_step_sits_above_the_rounding_floor(self, solved):
        # a table moved by 1e-14 relative rounds the value function differently,
        # and second differences amplify that rounding by 1 / step**2
        market, table, loading = solved
        scale = 1.0 + 1e-14
        moved = replace(table, values=table.values * scale, coefficients=table.coefficients * scale)
        value, moved_value = closed_form_value(market, table, loading), closed_form_value(market, moved, loading)
        mesh = np.meshgrid(np.linspace(0.1, 1.9, 7), [-1.0, 0.0, 2.0], [-0.5, 0.0, 1.0], indexing="ij")

        def shift(**step):
            return max(
                np.abs(
                    hjb_residual(market, moved_value, *mesh, k, **step)
                    - hjb_residual(market, value, *mesh, k, **step)
                ).max()
                for k in range(market.n_regimes)
            )

        assert shift() < 0.05 * shift(relative_step=1e-5)

    @pytest.mark.parametrize("relative_step", [0.0, -1e-4, np.nan, np.inf])
    def test_rejects_a_bad_relative_step(self, solved, relative_step):
        # a zero step used to end in a ConcavityViolation at V_xx = nan after three
        # RuntimeWarnings, and NaN or inf in a time outside the tabulated range
        market, table, loading = solved
        value = closed_form_value(market, table, loading)
        with pytest.raises(InvalidInput) as caught:
            hjb_residual(market, value, 0.3, 1.0, 0.0, 0, relative_step=relative_step)
        assert caught.value.problems == (
            ("relative_step", f"must be positive and finite, got {float(relative_step)!r}"),
        )

    def test_concavity_violation(self, solved):
        market, _, _ = solved

        def convex(t, x, y, regime):
            return x**2 + y**2 + t

        with pytest.raises(ConcavityViolation):
            hjb_residual(market, convex, 0.9, 1.0, 0.5, 0)

    @pytest.mark.parametrize("regime", [0, 1])
    def test_broadcast_equals_scalar_calls(self, solved, regime):
        market, table, loading = solved
        value = closed_form_value(market, table, loading)
        mesh = np.meshgrid([0.1, 0.9, 1.9], [-1.0, 0.0, 2.0], [-0.5, 0.0, 1.0], indexing="ij")
        residual = hjb_residual(market, value, *mesh, regime)
        assert residual.shape == (3, 3, 3)
        for index in np.ndindex(residual.shape):
            scalar = hjb_residual(market, value, *(float(axis[index]) for axis in mesh), regime)
            assert type(scalar) is float
            assert residual[index] == scalar

    def test_broadcasts_mixed_shapes(self, solved):
        market, table, loading = solved
        value = closed_form_value(market, table, loading)
        residual = hjb_residual(market, value, np.array([0.1, 0.9]), 1.0, np.array([[0.0], [0.5]]), 0)
        assert residual.shape == (2, 2)
        assert residual[1, 0] == hjb_residual(market, value, 0.1, 1.0, 0.5, 0)

    def test_concavity_violation_names_first_failing_point(self, solved):
        market, table, loading = solved
        good = closed_form_value(market, table, loading)

        def partly_convex(t, x, y, regime):
            # convex in wealth wherever the income level is positive
            return np.where(np.asarray(y) > 0.0, np.asarray(x, dtype=float) ** 2, good(t, x, y, regime))

        mesh = np.meshgrid([0.1, 0.9], [0.0, 1.0], [-0.5, 0.5], indexing="ij")
        with pytest.raises(ConcavityViolation, match=r"at \(t=0\.1, x=0\.0, y=0\.5, regime=1\)"):
            hjb_residual(market, partly_convex, *mesh, 1)
