"""Dynamic-programming machinery for regime-switching portfolio choice.

The market has a riskless account at a constant rate, one stock whose drift
and volatility switch with a finite-state regime chain, and an income stream
whose level follows an arithmetic diffusion correlated with the stock.  For
exponential utility of terminal wealth the value function separates into

    value(t, x, y, regime) =
        -(1/gamma) * exp(-gamma * x * exp(rate*(horizon-t)) + m(t) * y)
        * factor[regime](t)

where ``m`` is a deterministic loading on the income level (an
:class:`IncomeLoading`) and the per-regime factors solve a linear ODE system
coupled through the chain's rate matrix (a :class:`RegimeFactorTable`),
integrated with a fourth-order Magnus exponential integrator whose error is
estimated by step doubling, and interpolated between steps by cubic Hermite
polynomials on the ODE's own slopes.  This module computes both pieces and
the residual of the dynamic-programming equation, which verifies candidate
value functions that need not be separable.  The closed form and the
sampler price with one unit value, the formula's first line (``_unit_value``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .markov import GeneratorMatrix, InvalidInput, _expm_stack

__all__ = [
    "StepTooCoarse",
    "ConcavityViolation",
    "MarketModel",
    "IncomeLoading",
    "GrowthCoefficients",
    "RegimeFactorTable",
    "solve_income_loading",
    "growth_coefficients",
    "regime_growth_rate",
    "solve_regime_factors",
    "hjb_residual",
]

# below this, exp-based segment integrals switch to their power series
SMALL_EXPONENT = 1e-2
# largest step-doubling estimate of the factor solve's relative error
FACTOR_RTOL = 1e-9
PER_REGIME = ("stock_drift", "stock_vol", "income_drift", "income_vol")


class StepTooCoarse(RuntimeError):
    """Step-doubling error estimate of the factor ODE exceeded the requested tolerance."""


class ConcavityViolation(ArithmeticError):
    """Candidate value function is not concave in wealth at the probe point."""


@dataclass(frozen=True)
class MarketModel:
    """Regime-switching market primitives.

    Parameters
    ----------
    rate : float
        Riskless interest rate (continuously compounded, any sign).
    correlation : float
        Instantaneous correlation between the stock's and the income's
        Brownian drivers, in [-1, 1].
    risk_aversion : float
        Absolute risk aversion of the exponential utility, > 0.
    horizon : float
        Terminal time, > 0.
    stock_drift, stock_vol : array_like
        Per-regime stock drift and volatility; volatility strictly positive.
    income_drift, income_vol : array_like
        Per-regime arithmetic drift and volatility of the income level;
        volatility nonnegative.
    generator : GeneratorMatrix
        Rate matrix of the regime chain; its size fixes the regime count.

    Raises :class:`~regimeweave.markov.InvalidInput` with every broken rule, a
    per-regime entry by index (``stock_vol[1]``), a count mismatch once.
    """

    rate: float
    correlation: float
    risk_aversion: float
    horizon: float
    stock_drift: NDArray[np.float64]
    stock_vol: NDArray[np.float64]
    income_drift: NDArray[np.float64]
    income_vol: NDArray[np.float64]
    generator: GeneratorMatrix

    def __post_init__(self) -> None:
        for name in PER_REGIME:
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        sigma, delta = self.stock_vol, self.income_vol
        problems = []
        for name, holds, rule in (
            ("rate", np.isfinite(self.rate), "must be finite"),
            ("correlation", -1.0 <= self.correlation <= 1.0, "must lie in [-1, 1]"),
            ("risk_aversion", 0.0 < self.risk_aversion < np.inf, "must be positive and finite"),
            ("horizon", 0.0 < self.horizon < np.inf, "must be positive and finite"),
            ("stock_drift", np.isfinite(self.stock_drift), "must be finite"),
            ("stock_vol", (0.0 < sigma) & (sigma < np.inf), "must be positive and finite"),
            ("income_drift", np.isfinite(self.income_drift), "must be finite"),
            ("income_vol", (0.0 <= delta) & (delta < np.inf), "must be nonnegative and finite"),
        ):
            entries = np.ravel(getattr(self, name)).tolist()
            for k in np.flatnonzero(~np.ravel(holds)).tolist():
                field = f"{name}[{k}]" if name in PER_REGIME else name
                problems.append((field, f"{rule}, got {entries[k]!r}"))
        n = self.generator.n_states
        shapes = sorted({getattr(self, name).shape for name in PER_REGIME} - {(n,)})
        if shapes:
            rule = f"per-regime arrays need one entry per regime ({n})"
            problems.append(("n_regimes", f"{rule}, got shape {', '.join(map(str, shapes))}"))
        if problems:
            raise InvalidInput(problems)

    @property
    def n_regimes(self) -> int:
        return self.generator.n_states

    def excess_return(self) -> NDArray[np.float64]:
        return self.stock_drift - self.rate


def _frozen_array(values) -> NDArray[np.float64]:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class IncomeLoading:
    """Deterministic exponent loading on the income level.

    Solves the scalar backward equation ``m'(t) = -rate * m(t) +
    risk_aversion`` with ``m(horizon) = 0``; in closed form

        m(t) = -(risk_aversion / rate) * expm1(rate * (horizon - t))

    with the ``rate -> 0`` limit ``-risk_aversion * (horizon - t)``.  The
    loading is negative before the horizon: income still to be received
    substitutes for wealth.  Segment integrals of ``m`` and ``m**2`` are
    exact, switching to power series where the exponential forms would
    cancel catastrophically.
    """

    risk_aversion: float
    rate: float
    horizon: float

    def value(self, t):
        tau = self.horizon - np.asarray(t, dtype=float)
        if self.rate == 0.0:
            out = -self.risk_aversion * tau
        else:
            out = -(self.risk_aversion / self.rate) * np.expm1(self.rate * tau)
        return out if out.ndim else float(out)

    def integral(self, a, b):
        """Exact ``integral of m(s) ds`` over ``[a, b]`` (elementwise)."""
        out = self._integrals(a, b)[0]
        return out if out.ndim else float(out)

    def square_integral(self, a, b):
        """Exact ``integral of m(s)**2 ds`` over ``[a, b]`` (elementwise)."""
        out = self._integrals(a, b)[1]
        return out if out.ndim else float(out)

    def _integrals(self, a, b):
        """Both segment integrals as arrays, sharing their exponentials."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(b < a):
            raise ValueError("segment end must not precede its start")
        u1, delta = self.horizon - b, b - a  # integrate in time-to-horizon coordinates
        r, scale = self.rate, self.risk_aversion
        if r == 0.0:
            u2 = u1 + delta
            return -scale * (u2**2 - u1**2) / 2.0, scale**2 * (u2**3 - u1**3) / 3.0
        grown, e1, int_e = np.exp(r * u1), np.expm1(r * u1), _int_expm1(r, delta)
        j1 = grown * int_e + e1 * delta
        j2 = np.exp(2.0 * r * u1) * _int_expm1_sq(r, delta) + 2.0 * grown * e1 * int_e + e1**2 * delta
        return -(scale / r) * j1, (scale / r) ** 2 * j2


def _int_expm1(r: float, delta):
    """``integral of (exp(r w) - 1) dw`` from 0 to delta, cancellation-safe."""
    return _by_size(r, delta, lambda z, d: r * d**2 * (
        1.0 / 2.0 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z * (1.0 / 120.0 + z / 720.0)))
    ), lambda z, d: (np.expm1(z) - z) / r)


def _int_expm1_sq(r: float, delta):
    """``integral of (exp(r w) - 1)**2 dw`` from 0 to delta, cancellation-safe."""
    return _by_size(r, delta, lambda z, d: r**2 * d**3 * (
        1.0 / 3.0 + z * (1.0 / 4.0 + z * (7.0 / 60.0 + z * (1.0 / 24.0 + z * (31.0 / 2520.0 + z / 320.0))))
    ), lambda z, d: np.expm1(2.0 * z) / (2.0 * r) - 2.0 * np.expm1(z) / r + d)


def _by_size(r: float, delta, series, direct):
    """``series(z, delta)`` where ``z = r delta`` is below :data:`SMALL_EXPONENT`
    in size, ``direct(z, delta)`` elsewhere (never at ``r = 0``), each computed
    only where it is used, on the whole array where one form covers it."""
    delta = np.asarray(delta, dtype=float)
    z = r * delta
    small = np.abs(z) < SMALL_EXPONENT
    if small.all():
        return series(z, delta)
    if not small.any():
        return direct(z, delta)
    out = np.empty_like(z)
    out[small] = series(z[small], delta[small])
    out[~small] = direct(z[~small], delta[~small])
    return out


def solve_income_loading(market: MarketModel) -> IncomeLoading:
    """Income loading implied by the market's rate, risk aversion, and horizon."""
    return IncomeLoading(
        risk_aversion=market.risk_aversion, rate=market.rate, horizon=market.horizon
    )


def _unit_value(market: MarketModel, loading: IncomeLoading, t, wealth, income):
    """``-(1/gamma) exp(-gamma wealth e^{rate (horizon - t)} + m(t) income)``, one exponent: the
    value is this times a regime factor ``h_k(t)``, the ODE table's or a sampled one."""
    gamma = market.risk_aversion
    growth = np.exp(market.rate * (market.horizon - np.asarray(t, dtype=float)))
    wealth, income = np.asarray(wealth, dtype=float), np.asarray(income, dtype=float)
    return -np.exp(-gamma * wealth * growth + loading.value(t) * income) / gamma


@dataclass(frozen=True)
class GrowthCoefficients:
    """Per-regime growth rate of the value factor, quadratic in the loading.

    ``rate_i(m) = constant_i + linear_i * m + quadratic_i * m**2`` with

    * ``constant = -(excess return)^2 / (2 vol^2)`` (half squared Sharpe,
      entering with a minus: better investment opportunities shrink the
      factor and raise utility),
    * ``linear = income drift - correlation * income vol * excess / vol``
      (income drift net of the hedgeable part),
    * ``quadratic = (1 - correlation^2) * income vol^2 / 2`` (unhedgeable
      income variance).
    """

    constant: NDArray[np.float64]
    linear: NDArray[np.float64]
    quadratic: NDArray[np.float64]

    def evaluate(self, loading_value):
        m = np.asarray(loading_value, dtype=float)[..., None]
        out = self.constant + self.linear * m + self.quadratic * m**2
        return out


def growth_coefficients(market: MarketModel) -> GrowthCoefficients:
    """Constant, linear, and quadratic loadings of the factor growth rate."""
    excess = market.excess_return()
    rho = market.correlation
    return GrowthCoefficients(
        constant=_frozen_array(-(excess**2) / (2.0 * market.stock_vol**2)),
        linear=_frozen_array(
            market.income_drift - rho * market.income_vol * excess / market.stock_vol
        ),
        quadratic=_frozen_array((1.0 - rho**2) * market.income_vol**2 / 2.0),
    )


def regime_growth_rate(market: MarketModel, t):
    """Growth rates ``c_i(t)`` of all regime factors; shape ``t.shape + (n_regimes,)``."""
    loading = solve_income_loading(market)
    return growth_coefficients(market).evaluate(loading.value(t))


def _growth_mean(market: MarketModel, coefficients, t: float):
    """``(mean, gap)`` of each rate ``c = constant + linear m + quadratic m^2`` in ``coefficients``,
    a ``(rows, 3, n_regimes)`` stack of per-regime ``(constant, linear, quadratic)``:
    ``mean[k, i] = E[integral of c_k(u, X_u) du from t to horizon | X_t = i]`` and ``gap[k]``
    a bound on row ``k``'s rounding.

    ``mu`` solves ``mu' = -Q mu - constant - linear m - quadratic m^2``, ``mu(horizon) = 0``,
    and the loading's ``m' = -rate m + gamma`` gives ``(m^2)' = -2 rate m^2 + 2 gamma m``:
    so ``(mu, m^2, m, 1)`` is linear, ``v' = L v``, and ``mu(t)`` heads the last column of
    ``exp(-(horizon - t) L)`` (Van Loan, *IEEE TAC* 23(3), 1978), from
    :func:`~regimeweave.markov._expm_stack` with no quadrature and no ``rate -> 0`` branch.
    Each row takes its own exponential, so that its mean does not depend on the rows beside
    it, as a stack's shared squarings would make it; a row with a non-finite coefficient
    has a NaN mean and gap.  Scaling and squaring rounds in proportion to the 1-norm of
    ``(horizon - t) L`` (Higham, *SIAM J. Matrix Anal. Appl.* 26(4), 2005), so ``gap`` is
    ``2^-51 (1 + that norm)`` times the column's largest entry.
    """
    n, rows = market.n_regimes, len(coefficients)
    r, gamma = market.rate, market.risk_aversion
    generator = np.zeros((rows, n + 3, n + 3))
    generator[:, :n, :n] = -market.generator.rates
    generator[:, :n, n:] = -np.swapaxes(coefficients[:, ::-1], 1, 2)  # columns quadratic, linear, constant
    generator[:, n, n : n + 2] = -2.0 * r, 2.0 * gamma
    generator[:, n + 1, n + 1 :] = -r, gamma
    mean, gap = np.full((rows, n), np.nan), np.full(rows, np.nan)
    for k, exponent in enumerate(-(market.horizon - t) * generator):
        if np.isfinite(exponent).all():
            column = _expm_stack(exponent)[:, -1]
            mean[k] = column[:n]
            gap[k] = 2.0**-51 * (1.0 + np.abs(exponent).sum(axis=0).max()) * np.abs(column).max()
    return mean, gap


@dataclass(frozen=True)
class RegimeFactorTable:
    """Per-regime value factors ``h_i(t)`` on a uniform grid.

    Values come from a fourth-order Magnus integration of the coupled linear
    ODE

        h_i'(t) = -c_i(t) h_i(t) - sum_j rates[i, j] h_j(t),  h_i(horizon) = 1

    on a uniform grid.  Between nodes they are interpolated by the cubic
    Hermite polynomial through both nodes' values and exact ODE slopes
    (dense output, Hairer, Norsett & Wanner, *Solving ODEs I*, II.6).
    ``coefficients[p, k]`` multiplies ``(t - times[k])**p``: row ``k`` is
    step ``k``'s cubic, and one extra last row re-expands the last step's
    cubic about the horizon, so every node is returned exactly.
    ``error_estimate`` is the step-doubling estimate of the relative error at
    ``t = 0``.  Queries are allowed up to one grid spacing outside ``[0,
    horizon]`` so that finite-difference probes at the boundary stay usable;
    anything further, or NaN, raises ``ValueError``.
    """

    times: NDArray[np.float64]
    values: NDArray[np.float64]
    coefficients: NDArray[np.float64]
    error_estimate: float

    @property
    def n_regimes(self) -> int:
        return self.values.shape[1]

    def value(self, t, regime: int | None = None):
        t = np.asarray(t, dtype=float)
        times = self.times
        slack = times[1] - times[0]
        # written so that NaN fails the check too
        if t.size and not (t.min() >= times[0] - slack and t.max() <= times[-1] + slack):
            raise ValueError(f"time outside the tabulated range [{times[0]}, {times[-1]}]")
        k = np.maximum(times.searchsorted(t, "right") - 1, 0)
        w = t - times[k]
        c = self.coefficients.take(k, axis=1)
        if regime is None:
            # a full-size offset keeps Horner's loops contiguous
            w = np.repeat(w[..., None], c.shape[-1], axis=-1)
        else:
            c = c[..., regime]
        out = ((c[3] * w + c[2]) * w + c[1]) * w + c[0]
        return out if np.ndim(out) else float(out)


def _check_steps(n_steps: int) -> None:
    if n_steps < 8 or n_steps % 2:
        raise InvalidInput([("n_steps", f"must be an even integer >= 8, got {n_steps}")])


def solve_regime_factors(market: MarketModel, n_steps: int = 2048) -> RegimeFactorTable:
    """Integrate the regime-factor ODE backward from the horizon.

    Fourth-order Magnus integrator with two Gauss points (Iserles &
    Norsett 1999; Blanes, Casas, Oteo & Ros 2009) and ``n_steps`` uniform
    steps on ``[0, horizon]``: each step multiplies by the exponential of a
    matrix built from the system at its Gauss nodes.  All of a run's step
    exponentials are computed in one batched call and chained in blocks of
    ``CHAIN_BLOCK`` steps, with batched prefix products inside a block and
    one matrix-vector product per block between them.  The global error is
    estimated by comparing against a half-resolution run (their gap is about
    15 times the fine-grid error for a fourth-order method); if the estimate
    exceeds :data:`FACTOR_RTOL` relative to the solution, :class:`StepTooCoarse` is
    raised rather than returning a table that would silently miss the
    requested accuracy.  Factors that leave the float range raise
    :class:`OverflowError`.
    """
    _check_steps(n_steps)
    fine = _magnus_grid(market, n_steps)
    coarse = _magnus_grid(market, n_steps // 2)
    if not np.all(np.isfinite(fine)):
        raise OverflowError(
            f"regime factors exceed the float range over horizon {market.horizon}"
        )
    gap = np.abs(fine[-1] - coarse[-1]) / np.abs(fine[-1])
    estimate = float(gap.max()) / 15.0
    # a coarse run that overflowed leaves a NaN estimate: too coarse as well
    if not estimate <= FACTOR_RTOL:
        raise StepTooCoarse(
            f"estimated relative error {estimate:.3e} exceeds rtol={FACTOR_RTOL:.1e}; "
            f"increase n_steps above {n_steps}"
        )
    if np.any(fine <= 0):
        raise ArithmeticError("regime factors must stay positive")

    horizon = market.horizon
    times = horizon - np.linspace(0.0, horizon, n_steps + 1)[::-1]
    values = fine[::-1]
    coefficients = _hermite_coefficients(market, times, values)
    for arr in (times, values, coefficients):
        arr.flags.writeable = False
    return RegimeFactorTable(
        times=times, values=values, coefficients=coefficients, error_estimate=estimate
    )


def _hermite_coefficients(
    market: MarketModel, times: NDArray[np.float64], values: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Cubic Hermite coefficients ``(4, n_steps + 1, n_regimes)`` in powers of ``t - times[k]``.

    Step ``k`` matches ``values`` and the exact slopes ``h' = -(c(t) h +
    rates h)`` at both of its nodes; the extra last row is the last step's
    cubic re-expanded about the horizon.
    """
    slopes = -(regime_growth_rate(market, times) * values + values @ market.generator.rates.T)
    dt = np.diff(times)[:, None]
    y0, y1, m0, m1 = values[:-1], values[1:], slopes[:-1], slopes[1:]
    secant = (y1 - y0) / dt
    c2 = (3.0 * secant - 2.0 * m0 - m1) / dt
    c3 = (m0 + m1 - 2.0 * secant) / dt**2
    end = [y1[-1], m1[-1], c2[-1] + 3.0 * c3[-1] * dt[-1], c3[-1]]
    return np.concatenate([np.stack([y0, m0, c2, c3]), np.stack(end)[:, None]], axis=1)


# Gauss-Legendre nodes of [0, 1] used by the Magnus step
GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
# steps whose exponentials are multiplied together in one batch
CHAIN_BLOCK = 32


def _magnus_grid(market: MarketModel, n_steps: int) -> NDArray[np.float64]:
    """Factors at time to horizon ``s = k * horizon / n_steps``, ``k = 0..n_steps``.

    ``dh/ds = A(s) h`` with ``A(s) = diag(c(horizon - s)) + rates``.  Step
    ``k`` applies ``exp(Omega_k)``, ``Omega_k = dt/2 (A_1 + A_2) + sqrt(3)/12
    dt^2 [A_2, A_1]`` with ``A_i`` at the step's two Gauss nodes; the
    commutator reduces to ``(d_i - d_j) rates[i, j]`` with ``d = c_2 - c_1``.

    The step exponentials are chained in blocks of ``CHAIN_BLOCK`` steps,
    the last padded with identities: batched matmuls form every block's
    prefix products, one matvec per block carries the factors from block
    start to block start, and one ``einsum`` applies each prefix product to
    its block's start.  The step exponentials are non-negative matrices and
    the factors positive, so a product that overflows leaves every factor it
    produces non-finite, where the caller's check sees it.
    """
    dt = market.horizon / n_steps
    nodes = (np.arange(n_steps)[:, None] + GAUSS_NODES) * dt
    c = regime_growth_rate(market, market.horizon - nodes)  # (n_steps, 2, n_regimes)
    q = market.generator.rates
    d = c[:, 1] - c[:, 0]
    n = market.n_regimes
    n_blocks = -(-n_steps // CHAIN_BLOCK)
    omega = np.zeros((n_blocks * CHAIN_BLOCK, n, n))  # the padding steps' exponential is the identity
    omega[:n_steps] = dt * q + (np.sqrt(3.0) / 12.0 * dt**2) * (d[:, :, None] - d[:, None, :]) * q
    regimes = np.arange(n)
    omega[:n_steps, regimes, regimes] += dt / 2.0 * (c[:, 0] + c[:, 1])
    prefix = _expm_stack(omega).reshape(n_blocks, CHAIN_BLOCK, n, n).swapaxes(0, 1)
    starts = np.ones((n_blocks, n))  # factors at each block's start, rows past 0 filled below
    # factors that leave the float range are reported by the caller's isfinite check
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, CHAIN_BLOCK):  # in place: prefix[k, b] becomes block b's steps k..0 multiplied
            prefix[k] = prefix[k] @ prefix[k - 1]
        for b in range(n_blocks - 1):
            starts[b + 1] = prefix[-1, b] @ starts[b]
        chained = np.einsum("kbij,bj->bki", prefix, starts).reshape(-1, n)
    return np.concatenate([np.ones((1, n)), chained[:n_steps]])


# ---------------------------------------------------------------------------
# PDE residual
# ---------------------------------------------------------------------------


def hjb_residual(
    market: MarketModel,
    value_fn,
    t: ArrayLike,
    x: ArrayLike,
    y: ArrayLike,
    regime: int,
    relative_step: float = 1e-4,
) -> float | NDArray[np.float64]:
    """Residual of the dynamic-programming equation at its own best control.

    The first-order condition gives the candidate position

        portfolio = -(excess * V_x + vol * correlation * income_vol * V_xy)
                    / (vol^2 * V_xx)

    which requires ``V_xx < 0``; otherwise the supremum is unbounded and
    :class:`ConcavityViolation` is raised, naming the first such point.  A
    correct value function makes the returned residual vanish up to
    differencing error: central differences at steps ``relative_step *
    max(1, |t|)`` (likewise in ``x`` and ``y``), whose default, near
    eps**(1/4), balances the value function's rounding, which second
    differences amplify by ``1 / step**2``, against their ``step**2``
    truncation error.  ``t``, ``x`` and ``y`` broadcast against each other
    and ``value_fn`` is called on whole arrays, for one scalar ``regime``;
    every operation is elementwise, so each entry equals the scalar call at
    its point, and scalar arguments return a ``float``.  A ``relative_step``
    not positive and finite is an :class:`~regimeweave.markov.InvalidInput`.
    """
    if not 0.0 < relative_step < np.inf:
        raise InvalidInput([("relative_step", f"must be positive and finite, got {float(relative_step)!r}")])
    t, x, y = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, x, y)))
    v, v_t, v_x, v_y, v_xx, v_yy, v_xy = _partials(value_fn, t, x, y, regime, relative_step)
    if not np.all(v_xx < 0):
        at = np.unravel_index(np.argmin(v_xx < 0), v_xx.shape)  # the first failing point
        point = f"(t={t[at]}, x={x[at]}, y={y[at]}, regime={regime})"
        raise ConcavityViolation(f"V_xx = {v_xx[at]:.3e} at {point}")
    excess = float(market.excess_return()[regime])
    vol = float(market.stock_vol[regime])
    idrift = float(market.income_drift[regime])
    ivol = float(market.income_vol[regime])
    best = -(excess * v_x + vol * market.correlation * ivol * v_xy) / (vol**2 * v_xx)
    chain = 0.0
    for j in range(market.n_regimes):
        vj = v if j == regime else np.asarray(value_fn(t, x, y, j), dtype=float)
        chain += market.generator.rates[regime, j] * vj
    out = (
        v_t
        + 0.5 * best**2 * vol**2 * v_xx
        + (market.rate * x + best * excess + y) * v_x
        + idrift * v_y
        + 0.5 * ivol**2 * v_yy
        + best * vol * market.correlation * ivol * v_xy
        + chain
    )
    return out if out.ndim else float(out)


def _partials(value_fn, t, x, y, regime, relative_step):
    def f(tt, xx, yy):
        return np.asarray(value_fn(tt, xx, yy, regime), dtype=float)

    ht = relative_step * np.maximum(1.0, np.abs(t))
    hx = relative_step * np.maximum(1.0, np.abs(x))
    hy = relative_step * np.maximum(1.0, np.abs(y))
    v = f(t, x, y)
    v_t = (f(t + ht, x, y) - f(t - ht, x, y)) / (2.0 * ht)
    f_xp, f_xm = f(t, x + hx, y), f(t, x - hx, y)
    f_yp, f_ym = f(t, x, y + hy), f(t, x, y - hy)
    v_x = (f_xp - f_xm) / (2.0 * hx)
    v_y = (f_yp - f_ym) / (2.0 * hy)
    v_xx = (f_xp - 2.0 * v + f_xm) / hx**2
    v_yy = (f_yp - 2.0 * v + f_ym) / hy**2
    v_xy = (
        f(t, x + hx, y + hy) - f(t, x + hx, y - hy) - f(t, x - hx, y + hy) + f(t, x - hx, y - hy)
    ) / (4.0 * hx * hy)
    return v, v_t, v_x, v_y, v_xx, v_yy, v_xy
