"""
Cross-checking the closed forms by simulation
=============================================

Every analytic piece of the solution has an independent Monte Carlo
counterpart.  The script estimates the regime factors along simulated
chain paths, scores the optimal strategy by its expected utility
conditional on simulated regime paths, and shows that deliberately
mis-scaled strategies score worse on the same paths.
"""

import dataclasses

from regimeweave import (
    MarketModel,
    RngStream,
    build_solution,
    estimate_regime_factor,
    estimate_value_mc,
    evaluate_policy,
    solve_regime_factors,
    validate_generator,
    value_function,
)

chain = validate_generator([[-0.5, 0.5], [0.3, -0.3]])
market = MarketModel(
    rate=0.03,
    correlation=0.4,
    risk_aversion=1.5,
    horizon=2.0,
    stock_drift=[0.08, 0.03],
    stock_vol=[0.25, 0.4],
    income_drift=[0.02, -0.01],
    income_vol=[0.12, 0.2],
    generator=chain,
)

# Regime factors: the backward ODE solution against a pathwise
# expectation over simulated regime histories.
factors = solve_regime_factors(market)
print("regime factors at t = 0, ODE versus Monte Carlo:")
for regime in range(market.n_regimes):
    est = estimate_regime_factor(market, 0.0, regime, 40_000, RngStream(11, regime))
    ode = float(factors.value(0.0, regime))
    z = (est.value - ode) / est.stderr
    print(f"  regime {regime}: ode {ode:.5f}  mc {est.value:.5f} +- {est.stderr:.5f}  z {z:+.2f}")
print()

# Direct value sampler: available in the uncorrelated case, where the
# income integral decouples from the stock noise.  Given the regime path
# the income integral is Gaussian and integrates in closed form, so only
# chain paths are sampled, and the branch on which the chain never leaves
# its start regime enters in closed form too, so every sampled path jumps.
t0, x0, y0, regime0 = 0.0, 1.0, 0.2, 0
uncorrelated = dataclasses.replace(market, correlation=0.0)
deterministic = float(value_function(uncorrelated)(t0, x0, y0, regime0))
est = estimate_value_mc(uncorrelated, t0, x0, y0, regime0, 40_000, RngStream(23))
print("zero-correlation value, deterministic versus direct sampling:")
print(f"  deterministic {deterministic:.6f}")
print(f"  simulated     {est.value:.6f} +- {est.stderr:.6f}"
      f"  z {(est.value - deterministic) / est.stderr:+.2f}")
print()

# With correlation the check scores the optimal strategy along simulated
# regime paths: given a path, terminal wealth is Gaussian, so each path
# contributes its expected utility in closed form, and as above the branch
# that never leaves the start regime enters in closed form.  The optimum and two
# mis-scaled variants are paired on the same chain paths, which removes
# most of the comparison noise.  Expected utility is negative; closer to
# zero is better, and the utility cost of mis-scaling is second order.
bundle = build_solution(market)
predicted = float(bundle.value(t0, x0, y0, regime0))
print(f"value prediction at correlation 0.4: {predicted:.6f}")
print("expected utility under competing strategies (same chain paths):")
scores = {}
for label, factor in (("optimal", 1.0), ("75% of optimal", 0.75), ("125% of optimal", 1.25)):
    strategy = bundle.strategy if factor == 1.0 else bundle.strategy.scaled(factor)
    result = evaluate_policy(market, strategy, t0, x0, y0, regime0, 40_000, RngStream(31, 0))
    scores[label] = result
    print(f"  {label:<16} {result.value:.6f} +- {result.stderr:.6f}")
best = max(scores, key=lambda label: scores[label].value)
gaps = ", ".join(
    f"{label}: {scores[best].value - score.value:.1e}"
    for label, score in scores.items()
    if label != best
)
print(f"best strategy on shared chain paths: {best} (utility gaps {gaps})")
