"""Independent oracles for the benchmark's output checks.

The regime factors solve ``dh/ds = (diag(c(s)) + Q) h`` in time to horizon
``s``, with ``h(0) = 1``, where ``c`` is quadratic in the income loading
``m = -(gamma / r) expm1(r s)``.  Here that system is built from the config
document and integrated with scipy's DOP853 at ``rtol = 1e-13``, sharing no
code with the package's fixed-step RK4 solver.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

ODE_RTOL = 1e-13
H0_REL_TOL = 1e-9
Z_LIMIT = 4.0


def compound_generator(document: dict, composed_rates) -> np.ndarray:
    """Compound rate matrix of a config, state ``k = eps + n_eps * zeta``.

    Direct and independent compositions are rebuilt here; a copula
    composition has no closed form, so ``composed_rates`` (the package's
    result, checked by ``validate``) is used for it.
    """
    chains = document["chains"]
    if "compound" in chains:
        return np.array(chains["compound"], dtype=float)
    if chains.get("composition", {}).get("method", "independent") == "independent":
        eps = np.array(chains["epsilon"], dtype=float)
        zeta = np.array(chains["zeta"], dtype=float)
        return np.kron(np.eye(len(zeta)), eps) + np.kron(zeta, np.eye(len(eps)))
    return np.array(composed_rates, dtype=float)


def regime_factor_solution(document: dict, generator: np.ndarray):
    """Dense DOP853 solution of the factor ODE; ``sol(s)`` is ``h`` at ``t = T - s``."""
    market = document["market"]
    r, rho, gamma, horizon = market["r"], market["rho"], market["gamma"], market["T"]
    regimes = market["regimes"]
    alpha = np.array([g["alpha"] for g in regimes])
    sigma = np.array([g["sigma"] for g in regimes])
    mu = np.array([g["mu"] for g in regimes])
    delta = np.array([g["delta"] for g in regimes])
    constant = -((alpha - r) ** 2) / (2.0 * sigma**2)
    linear = mu - rho * delta * (alpha - r) / sigma
    quadratic = (1.0 - rho**2) * delta**2 / 2.0

    def rhs(s, h):
        m = -gamma * s if r == 0.0 else -(gamma / r) * np.expm1(r * s)
        return (constant + linear * m + quadratic * m * m) * h + generator @ h

    solution = solve_ivp(
        rhs, (0.0, horizon), np.ones(len(regimes)), method="DOP853",
        rtol=ODE_RTOL, atol=1e-300, dense_output=True,
    )
    if not solution.success:
        raise ArithmeticError(f"oracle ODE failed: {solution.message}")
    return solution


def income_loading(document: dict, t) -> np.ndarray:
    market = document["market"]
    r, gamma, tau = market["r"], market["gamma"], market["T"] - np.asarray(t, dtype=float)
    return -gamma * tau if r == 0.0 else -(gamma / r) * np.expm1(r * tau)


def h0_gap(document: dict, solution, h_at_0) -> float:
    """Largest relative gap between a reported ``h(0)`` and the oracle."""
    oracle = solution.sol(document["market"]["T"])
    return float(np.max(np.abs(np.asarray(h_at_0) - oracle) / np.abs(oracle)))


def value_factor_z(document: dict, solution, t, y, regime, estimate, stderr) -> float:
    """Gap of a sampled value factor from ``exp(m(t) y) h_k(t)`` in stderr units."""
    exact = np.exp(income_loading(document, t) * y) * solution.sol(document["market"]["T"] - t)[regime]
    return float((estimate - exact) / stderr)
