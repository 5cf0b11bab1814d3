"""End-to-end acceptance checks with pinned tolerances.

One test per criterion, each printing a single pass line with its
observed margin.  Every random input is seed-pinned, so the Monte Carlo
comparisons are deterministic; a failure here means a regression, not
statistical noise.  Runtime bounds are asserted with the tolerances.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from regimeweave.cli import main
from regimeweave.compose import CopulaSpec, compose_copula, compose_independent
from regimeweave.hjb import MarketModel, hjb_residual, solve_income_loading, solve_regime_factors
from regimeweave.markov import (
    RngStream,
    simulate_path,
    stationary_distribution,
    transition_probabilities,
    validate_generator,
)
from regimeweave.montecarlo import estimate_regime_factor, estimate_value_mc
from regimeweave.portfolio import (
    build_solution,
    evaluate_policy,
    hedge_weight,
    merton_weight,
    value_function,
)

REFERENCE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "reference.json")

EPS2 = validate_generator([[-0.5, 0.5], [0.3, -0.3]])
ZETA2 = validate_generator([[-0.2, 0.2], [0.7, -0.7]])
Q3 = validate_generator([[-1.0, 0.6, 0.4], [0.5, -1.2, 0.7], [0.3, 0.9, -1.2]])


def _report(number: int, label: str, detail: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS  {detail}")


def _random_generator(rng: np.random.Generator, size: int):
    rates = rng.uniform(0.05, 2.0, size=(size, size))
    np.fill_diagonal(rates, 0.0)
    rates[np.diag_indices(size)] = -rates.sum(axis=1)
    return validate_generator(rates)


def _loop_kronecker_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # entry-by-entry oracle, deliberately independent of the np.kron path
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


def _pair_indices(mapping):
    pairs = np.array([mapping.pair(k) for k in range(mapping.n_compound)])
    return pairs[:, 0], pairs[:, 1]


def _single_market(**overrides) -> MarketModel:
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=[0.08],
        stock_vol=[0.25],
        income_drift=[0.02],
        income_vol=[0.0],
        generator=validate_generator([[0.0]]),
    )
    params.update(overrides)
    return MarketModel(**params)


def _two_regime_market(**overrides) -> MarketModel:
    params = dict(
        rate=0.03,
        correlation=0.4,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=[0.08, 0.03],
        stock_vol=[0.25, 0.4],
        income_drift=[0.02, -0.01],
        income_vol=[0.12, 0.2],
        generator=EPS2,
    )
    params.update(overrides)
    return MarketModel(**params)


def _four_regime_market() -> MarketModel:
    chain = compose_independent(EPS2, ZETA2)
    return MarketModel(
        rate=0.03,
        correlation=0.35,
        risk_aversion=1.2,
        horizon=1.5,
        stock_drift=[0.09, 0.04, 0.07, 0.02],
        stock_vol=[0.22, 0.35, 0.28, 0.4],
        income_drift=[0.02, 0.0, 0.015, -0.01],
        income_vol=[0.12, 0.18, 0.1, 0.22],
        generator=chain.generator,
    )


def test_criterion_01_independent_composition_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(200):
        eps = _random_generator(rng, int(rng.integers(2, 5)))
        zeta = _random_generator(rng, int(rng.integers(2, 5)))
        chain = compose_independent(eps, zeta)
        oracle = _loop_kronecker_sum(eps.rates, zeta.rates)
        scale = max(np.max(np.abs(eps.rates)), np.max(np.abs(zeta.rates)))
        worst = max(worst, float(np.max(np.abs(chain.generator.rates - oracle))) / scale)
        first, second = _pair_indices(chain.mapping)
        both_jump = (first[:, None] != first[None, :]) & (second[:, None] != second[None, :])
        assert np.all(chain.generator.rates[both_jump] == 0.0)
    assert worst <= 1e-15

    # the hand-expanded four-state pattern for 2x2 components
    a0, a1, b0, b1 = 0.5, 0.3, 0.2, 0.7
    expected = np.array(
        [
            [-(a0 + b0), a0, b0, 0.0],
            [a1, -(a1 + b0), 0.0, b0],
            [b1, 0.0, -(a0 + b1), a0],
            [0.0, b1, a1, -(a1 + b1)],
        ]
    )
    assert_array_equal(compose_independent(EPS2, ZETA2).generator.rates, expected)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "composition exactness", f"max rel gap {worst:.1e} over 200 pairs, {elapsed:.2f} s")


def test_criterion_02_marginal_preservation():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    pairs = [
        (EPS2, ZETA2),
        (_random_generator(rng, 3), _random_generator(rng, 2)),
        (_random_generator(rng, 4), _random_generator(rng, 3)),
    ]
    worst = 0.0
    for eps, zeta in pairs:
        chain = compose_independent(eps, zeta)
        n, m = eps.n_states, zeta.n_states
        for t in (0.1, 1.0, 5.0):
            joint = transition_probabilities(chain.generator, t).probs.reshape(m, n, m, n)
            eps_gap = np.abs(joint.sum(axis=2) - expm(eps.rates * t)[None, :, :])
            zeta_gap = np.abs(joint.sum(axis=3) - expm(zeta.rates * t)[:, None, :])
            worst = max(worst, float(max(eps_gap.max(), zeta_gap.max())))
    assert worst < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, "marginal preservation", f"max marginal gap {worst:.1e}, {elapsed:.2f} s")


def test_criterion_03_copula_identity_matches_independent():
    started = time.perf_counter()
    independent = compose_independent(EPS2, ZETA2).generator.rates
    gaps = {}
    for fd_step in (1e-3, 1e-4):
        coupled = compose_copula(EPS2, ZETA2, CopulaSpec(correlation=0.0, fd_step=fd_step))
        gaps[fd_step] = float(np.max(np.abs(coupled.generator.rates - independent)))
        assert gaps[fd_step] <= 10.0 * fd_step
    shrink = gaps[1e-3] / gaps[1e-4]
    assert shrink >= 5.0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        3,
        "copula consistency",
        f"gaps {gaps[1e-3]:.1e} / {gaps[1e-4]:.1e}, shrink {shrink:.0f}x, {elapsed:.2f} s",
    )


def test_criterion_04_chain_simulation_statistics():
    started = time.perf_counter()
    pi = stationary_distribution(Q3)
    jump_rate = float(pi @ Q3.exit_rates())
    horizon = 1.0e6 / jump_rate
    path = simulate_path(Q3, 0, 0.0, horizon, RngStream(42))

    occupancy_gap = float(np.max(np.abs(path.occupancy() - pi)))
    assert occupancy_gap < 0.01

    starts, ends, states = path.segments()
    durations = ends - starts
    hold_gap = 0.0
    for state in range(Q3.n_states):
        # the truncated final segment is negligible across ~1e6 jumps
        mean_hold = float(durations[states == state].mean())
        hold_gap = max(hold_gap, abs(mean_hold * Q3.exit_rates()[state] - 1.0))
    assert hold_gap < 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        4,
        "chain statistics",
        f"{path.n_jumps()} jumps, occupancy gap {occupancy_gap:.1e},"
        f" holding-mean gap {hold_gap:.1e}, {elapsed:.1f} s",
    )


def test_criterion_05_income_loading_closed_form():
    started = time.perf_counter()
    gamma, horizon = 1.5, 2.0
    worst = 0.0
    for rate in (0.03, 1e-8):
        market = _single_market(rate=rate, risk_aversion=gamma, horizon=horizon)
        loading = solve_income_loading(market)
        # backward ODE in s = horizon - t: dm/ds = rate * m - gamma, m(0) = 0
        numeric = solve_ivp(
            lambda s, m: rate * m - gamma,
            (0.0, horizon),
            [0.0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        grid = np.linspace(0.0, horizon, 1000)
        worst = max(worst, float(np.max(np.abs(loading.value(grid) - numeric.sol(horizon - grid)[0]))))
    assert worst < 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(5, "income loading", f"max abs gap {worst:.1e} incl rate 1e-8, {elapsed:.2f} s")


def test_criterion_06_regime_factor_three_ways():
    started = time.perf_counter()

    # (a) single regime against direct quadrature of the growth-rate integral
    market1 = _two_regime_market(
        correlation=0.4,
        stock_drift=[0.08],
        stock_vol=[0.25],
        income_drift=[0.02],
        income_vol=[0.12],
        generator=validate_generator([[0.0]]),
    )
    table1 = solve_regime_factors(market1)
    gamma, rate, horizon = 1.5, 0.03, 2.0
    alpha, sigma, mu, delta, rho = 0.08, 0.25, 0.02, 0.12, 0.4
    constant = -((alpha - rate) ** 2) / (2.0 * sigma**2)
    linear = mu - rho * delta * (alpha - rate) / sigma
    quadratic = (1.0 - rho**2) * delta**2 / 2.0

    def growth(s: float) -> float:
        loading = -gamma / rate * math.expm1(rate * (horizon - s))
        return constant + linear * loading + quadratic * loading**2

    gap_a = 0.0
    for t in (0.0, 0.3, 0.9, 1.5, 1.95):
        integral, _ = quad(growth, t, horizon, epsabs=1e-13, limit=200)
        gap_a = max(gap_a, abs(float(table1.value(t, 0)) / math.exp(integral) - 1.0))
    assert gap_a < 1e-6

    # (b) constant growth rates against a matrix-exponential oracle
    drift3, vol3 = np.array([0.08, 0.05, 0.02]), np.array([0.2, 0.3, 0.45])
    market3 = _two_regime_market(
        stock_drift=drift3,
        stock_vol=vol3,
        income_drift=[0.0, 0.0, 0.0],
        income_vol=[0.0, 0.0, 0.0],
        generator=Q3,
    )
    table3 = solve_regime_factors(market3)
    rates3 = -((drift3 - 0.03) ** 2) / (2.0 * vol3**2)
    gap_b = 0.0
    for t in (0.0, 0.7, 1.4, 1.9):
        oracle = expm((2.0 - t) * (np.diag(rates3) + Q3.rates)) @ np.ones(3)
        gap_b = max(gap_b, float(np.max(np.abs(table3.value(t) / oracle - 1.0))))
    assert gap_b < 1e-8

    # (c) Monte Carlo on the four-regime compound model
    market4 = _four_regime_market()
    table4 = solve_regime_factors(market4)
    worst_z = 0.0
    for regime in range(market4.n_regimes):
        est = estimate_regime_factor(
            market4, 0.0, regime, 100_000, RngStream(55801, regime * 1_000_000)
        )
        worst_z = max(worst_z, abs(est.value - float(table4.value(0.0, regime))) / est.stderr)
    assert worst_z < 3.0

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        6,
        "regime factors",
        f"quad rel {gap_a:.1e}, expm rel {gap_b:.1e}, MC worst z {worst_z:.2f}, {elapsed:.1f} s",
    )


def test_criterion_07_zero_correlation_value():
    started = time.perf_counter()

    # deterministic-income degenerate case: every path is identical, so the
    # estimate collapses onto the closed form and stderr onto rounding noise
    market1 = _single_market(rate=0.0)
    gamma, horizon, alpha, sigma, mu = 1.5, 2.0, 0.08, 0.25, 0.02
    x0, y0 = 0.8, 0.5
    closed = (
        -math.exp(
            -gamma * x0
            - gamma * horizon * y0
            - alpha**2 / (2.0 * sigma**2) * horizon
            - mu * gamma * horizon**2 / 2.0
        )
        / gamma
    )
    est1 = estimate_value_mc(market1, 0.0, x0, y0, 0, 100_000, RngStream(991))
    gap1 = abs(est1.value - closed)
    assert gap1 <= 3.0 * est1.stderr + 1e-13 * (1.0 + abs(closed))

    # two-regime zero-correlation model against the deterministic value
    market2 = _two_regime_market(rate=0.02, correlation=0.0)
    deterministic = float(value_function(market2)(0.0, 1.0, 0.3, 0))
    est2 = estimate_value_mc(market2, 0.0, 1.0, 0.3, 0, 100_000, RngStream(991))
    z = abs(est2.value - deterministic) / est2.stderr
    assert z < 3.0

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report(
        7,
        "zero-correlation value",
        f"degenerate gap {gap1:.1e}, cross-check z {z:.2f}, {elapsed:.1f} s",
    )


def test_criterion_08_policy_optimality():
    started = time.perf_counter()
    market = _two_regime_market()
    bundle = build_solution(market)
    predicted = float(bundle.value(0.0, 1.0, 0.0, 0))

    optimal = evaluate_policy(
        market, bundle.strategy, 0.0, 1.0, 0.0, 0, 100_000, RngStream(991, 0)
    )
    z = abs(optimal.value - predicted) / optimal.stderr
    assert z < 3.0

    edges = []
    for factor in (0.75, 1.25):
        perturbed = evaluate_policy(
            market, bundle.strategy.scaled(factor), 0.0, 1.0, 0.0, 0, 100_000,
            RngStream(991, 0),
        )
        # same streams pair the policies; the combined stderr is conservative
        combined = math.sqrt(perturbed.stderr**2 + optimal.stderr**2)
        edges.append((perturbed.value - optimal.value) / combined)
        assert perturbed.value - optimal.value <= 2.0 * combined

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report(
        8,
        "policy optimality",
        f"value z {z:.2f}, perturbed edges {edges[0]:+.2f} / {edges[1]:+.2f} stderr,"
        f" {elapsed:.1f} s",
    )


def test_criterion_09_hjb_residual_grid():
    started = time.perf_counter()
    market = _two_regime_market()
    factors = solve_regime_factors(market)
    value = value_function(market, factors=factors)

    def distorted(t, x, y, regime):
        return value(t, x, y, regime) * (1.01 if regime == 0 else 1.0)

    base, inflated = [], []
    for t in np.linspace(0.2, 1.8, 5):
        for x in np.linspace(0.0, 2.0, 5):
            for y in np.linspace(-1.0, 1.0, 5):
                for regime in range(market.n_regimes):
                    magnitude = 1.0 + abs(float(value(t, x, y, regime)))
                    residual = abs(hjb_residual(market, value, t, x, y, regime))
                    assert residual < 1e-4 * magnitude
                    base.append(residual / magnitude)
                    inflated.append(
                        abs(hjb_residual(market, distorted, t, x, y, regime)) / magnitude
                    )
    inflation = float(np.median(inflated) / np.median(base))
    assert inflation >= 10.0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        9,
        "HJB residual",
        f"max ratio {max(base):.1e}, 1% distortion inflates median {inflation:.0f}x,"
        f" {elapsed:.1f} s",
    )


def test_criterion_10_strategy_algebra():
    started = time.perf_counter()

    # myopic part by hand: (0.10 - 0.03) / (2 * 0.2^2) with no discount left
    growth_market = _single_market(
        stock_drift=[0.10], stock_vol=[0.2], risk_aversion=2.0, horizon=3.0
    )
    assert abs(float(merton_weight(growth_market, 3.0, 0)) - 0.875) < 1e-10
    assert abs(float(merton_weight(growth_market, 2.0, 0)) - 0.875 / math.exp(0.03)) < 1e-10

    # hedge by hand one year out: -delta rho expm1(r) / (r sigma e^r)
    hedge_market = _single_market(
        stock_vol=[0.2], income_vol=[0.1], correlation=0.5, horizon=2.0
    )
    by_hand = -0.1 * 0.5 * math.expm1(0.03) / (0.03 * 0.2 * math.exp(0.03))
    assert abs(float(hedge_weight(hedge_market, 1.0, 0)) - by_hand) < 1e-10
    assert abs(by_hand + 0.2463) < 1e-4

    # no correlation, no hedge, exactly
    no_rho = _single_market(income_vol=[0.1], correlation=0.0)
    for t in (0.0, 0.5, 1.7):
        assert float(hedge_weight(no_rho, t, 0)) == 0.0

    # doubling gamma halves the myopic part and leaves the hedge untouched
    previous = None
    for gamma_value in (0.5, 1.0, 2.0, 4.0):
        market = _single_market(income_vol=[0.1], correlation=0.5, risk_aversion=gamma_value)
        myopic = float(merton_weight(market, 0.4, 0))
        hedge = float(hedge_weight(market, 0.4, 0))
        if previous is not None:
            assert_allclose(myopic, previous[0] / 2.0, rtol=1e-14)
            assert hedge == previous[1]
        previous = (myopic, hedge)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(10, "strategy algebra", f"hand values reproduced to 1e-10, {elapsed:.2f} s")


def test_criterion_11_reproducibility(tmp_path, monkeypatch):
    started = time.perf_counter()
    first, second, threaded = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["validate", "--config", REFERENCE_CONFIG, "--out", str(first)]) == 0
    assert main(["validate", "--config", REFERENCE_CONFIG, "--out", str(second)]) == 0
    monkeypatch.setenv("REGIMEWEAVE_THREADS", "3")
    assert main(["validate", "--config", REFERENCE_CONFIG, "--out", str(threaded)]) == 0
    for name in ("validation.csv", "validate_report.json"):
        reference_bytes = (first / name).read_bytes()
        assert (second / name).read_bytes() == reference_bytes
        assert (threaded / name).read_bytes() == reference_bytes

    elapsed = time.perf_counter() - started
    _report(11, "reproducibility", f"byte-identical reports across reruns and threads, {elapsed:.1f} s")
