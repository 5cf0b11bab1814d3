"""
Solving the regime-switching investment problem
===============================================

An investor with exponential utility trades one stock and a bank
account while receiving a stochastic income stream.  Stock drift,
volatility, and the income dynamics all switch with a compound regime
chain.  The script assembles the closed-form pieces of the solution,
prints the optimal monetary stock position per regime, and checks the
result against the dynamic-programming equation.
"""

import numpy as np

from regimeweave import (
    MarketModel,
    build_solution,
    compose_independent,
    hedge_weight,
    hjb_residual,
    merton_weight,
    validate_generator,
)

# Market mood and income climate combine into four compound regimes.
mood = validate_generator([[-0.5, 0.5], [0.3, -0.3]])
climate = validate_generator([[-0.2, 0.2], [0.7, -0.7]])
chain = compose_independent(mood, climate)

# Regime-dependent coefficients in compound-state order: stock drift
# alpha, stock volatility sigma, income drift mu, income volatility
# delta.  Correlation rho couples the stock and income noises.
market = MarketModel(
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

# One call builds the income loading m(t), the regime factors h_i(t),
# the optimal strategy, and the value function.
bundle = build_solution(market)

# The income loading converts a unit of income rate into utility
# exposure; it vanishes at the horizon.
for t in (0.0, 0.75, 1.5):
    print(f"m({t:4.2f}) = {float(bundle.loading.value(t)) + 0.0:+.4f}")
print()

# The optimal stock position splits into a myopic part and an
# income-hedging part.  Both are monetary amounts, independent of
# wealth under exponential utility.
print("optimal position at t = 0 by regime:")
print(f"{'regime':>6} {'myopic':>9} {'hedge':>9} {'total':>9}")
for regime in range(market.n_regimes):
    myopic = float(merton_weight(market, 0.0, regime))
    hedge = float(hedge_weight(market, 0.0, regime))
    total = float(bundle.strategy(0.0, regime))
    print(f"{regime:>6} {myopic:>9.4f} {hedge:>9.4f} {total:>9.4f}")
print()

# The value function is separable: wealth enters through a single
# exponential, income through exp(m(t) y), and the regime through a
# multiplicative factor h_i(t).
for regime in range(market.n_regimes):
    v = float(bundle.value(0.0, 1.0, 0.2, regime))
    print(f"V(0, x=1, y=0.2, regime={regime}) = {v:+.6f}")
print()

# Spot-check the dynamic-programming equation: the residual should sit
# at the level of the factor-table interpolation error.  The residual
# broadcasts over time, wealth and income, so one call covers a regime.
mesh = np.meshgrid(np.linspace(0.1, 1.4, 4), (0.0, 1.0), (-0.5, 0.5), indexing="ij")
worst = max(
    float(np.abs(hjb_residual(market, bundle.value, *mesh, regime)).max())
    for regime in range(market.n_regimes)
)
print(f"max |HJB residual| over the spot grid: {worst:.2e}")
