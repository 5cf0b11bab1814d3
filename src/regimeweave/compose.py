"""Compound chains built from two marginal regime processes.

A pair of independent chains (sizes m and n) composes into a single chain on
m*n states via the Kronecker sum of the rate matrices.  Dependence between
the marginal jump processes is introduced through a Gaussian copula on the
short-horizon jump indicators, with the compound rate matrix recovered by
finite-difference extrapolation.

The copula needs the standard normal CDF and quantile; both come from the
standard library (``math.erfc`` and ``statistics.NormalDist``), so the
module depends on numpy alone.

Compound state numbering puts the first component fastest: state ``(i, j)``
maps to ``i + m * j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .markov import GeneratorMatrix, InvalidInput, validate_generator

__all__ = [
    "Unsupported",
    "NonGenerator",
    "QuadratureFailure",
    "StateMapping",
    "CopulaSpec",
    "CompoundChainSpec",
    "kronecker_sum",
    "compose_independent",
    "compose_copula",
    "marginalize",
    "bivariate_normal_cdf",
    "gaussian_copula",
]

TWO_PI = 2.0 * np.pi

# roundoff allowance on top of each rate's Richardson gap: negative
# extrapolated rates beyond gap + clamp abort composition, smaller ones are
# clamped to zero
RATE_CLAMP = 1e-8


class Unsupported(ValueError):
    """Requested composition is outside the implemented family."""


class NonGenerator(ValueError):
    """Extrapolated rates do not form a valid rate matrix."""


class QuadratureFailure(ArithmeticError):
    """Bivariate normal quadrature produced an out-of-bounds probability."""


@dataclass(frozen=True)
class StateMapping:
    """Bijection between pairs ``(i, j)`` and compound indices ``i + n_first * j``."""

    n_first: int
    n_second: int

    def __post_init__(self) -> None:
        if self.n_first < 1 or self.n_second < 1:
            raise ValueError("component chains need at least one state each")

    @property
    def n_compound(self) -> int:
        return self.n_first * self.n_second

    def index(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_first and 0 <= j < self.n_second):
            raise ValueError(f"pair ({i}, {j}) out of range")
        return i + self.n_first * j

    def pair(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self.n_compound:
            raise ValueError(f"compound index {k} out of range")
        return k % self.n_first, k // self.n_first


@dataclass(frozen=True)
class CopulaSpec:
    """Gaussian-copula coupling of the two marginal jump processes.

    ``correlation`` is the copula's normal-score correlation, not the
    correlation of the regime indicators themselves.  ``fd_step`` is the
    short horizon used to extrapolate compound rates; the leading
    finite-horizon error is removed by a step-halving (Richardson)
    combination, leaving an error of order ``fd_step**2``.  Raises :class:`InvalidInput`.
    """

    correlation: float
    fd_step: float = 1e-4

    def __post_init__(self) -> None:
        problems = []
        if not -1.0 <= self.correlation <= 1.0:
            problems.append(("correlation", f"must lie in [-1, 1], got {float(self.correlation)!r}"))
        if not 0.0 < self.fd_step <= 0.1:
            problems.append(("fd_step", f"must lie in (0, 0.1], got {float(self.fd_step)!r}"))
        if problems:
            raise InvalidInput(problems)


@dataclass(frozen=True)
class CompoundChainSpec:
    """A compound chain together with its parents and index mapping."""

    eps: GeneratorMatrix
    zeta: GeneratorMatrix
    mapping: StateMapping
    generator: GeneratorMatrix
    method: str  # "independent" or "copula"
    copula: CopulaSpec | None = None


def kronecker_sum(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Kronecker sum with the first argument on the fast index.

    Satisfies ``expm(kronecker_sum(a, b)) == kron(expm(b), expm(a))``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[0], b.shape[0]
    return np.kron(np.eye(n), a) + np.kron(b, np.eye(m))


def compose_independent(eps: GeneratorMatrix, zeta: GeneratorMatrix) -> CompoundChainSpec:
    """Compound rate matrix of two independent chains.

    Each compound state ``(i, j)`` jumps either in the first coordinate at
    the first chain's rates or in the second at the second chain's rates;
    simultaneous moves get rate exactly zero.
    """
    mapping = StateMapping(eps.n_states, zeta.n_states)
    q = kronecker_sum(eps.rates, zeta.rates)
    return CompoundChainSpec(
        eps=eps,
        zeta=zeta,
        mapping=mapping,
        generator=validate_generator(q),
        method="independent",
    )


def compose_copula(
    eps: GeneratorMatrix, zeta: GeneratorMatrix, copula: CopulaSpec
) -> CompoundChainSpec:
    """Compound rates for copula-coupled two-state marginal chains.

    Over a short horizon ``h`` each marginal either holds or jumps; the pair
    of hold indicators is coupled by a Gaussian copula on their survival
    probabilities ``u = exp(-rate_i h)`` and ``v = exp(-rate_j h)``.  Joint
    transition probabilities follow by inclusion-exclusion, rates are the
    probabilities divided by ``h``, and two step sizes are combined as
    ``2 r(h/2) - r(h)`` to cancel the O(h) bias from multiple jumps.

    Both finite-horizon estimates are probabilities over ``h``, hence
    nonnegative, so the extrapolation can fall below zero by at most its
    own Richardson gap ``|r(h/2) - r(h)|``: a joint move that is rarer than
    O(h) at negative correlation.  Such a joint rate is clamped to zero and
    its negative mass added to both single moves, so each component's move
    rate stays its extrapolated marginal rate and each component is Markov.

    Only 2x2 marginals are supported: with more states the copula on hold
    indicators does not pin down which destination a joint jump selects.

    Raises
    ------
    Unsupported
        If either marginal chain has more than two states.
    NonGenerator
        If an extrapolated off-diagonal rate is negative by more than its
        Richardson gap plus ``RATE_CLAMP``.
    """
    if eps.n_states != 2 or zeta.n_states != 2:
        raise Unsupported(
            f"copula composition needs two-state marginals, got "
            f"{eps.n_states} and {zeta.n_states}"
        )
    h = copula.fd_step
    half, full = _copula_rates(eps, zeta, copula.correlation, np.array([h / 2, h]))
    off = 2.0 * half - full
    np.fill_diagonal(off, 0.0)
    gap = np.abs(half - full)
    excess = -off - gap
    if excess.max() > RATE_CLAMP:
        s, t = divmod(int(np.argmax(excess)), 4)
        raise NonGenerator(
            f"extrapolated rate {off[s, t]:.3e} from state {s} to {t} is negative beyond "
            f"its Richardson gap {gap[s, t]:.3e} plus the {RATE_CLAMP} clamp"
        )
    s = np.arange(4)[:, None]
    joint = np.minimum(off[s, s ^ 3], 0.0)  # a negative joint rate, moved onto both single moves
    off[s, s ^ np.array([1, 2, 3])] += joint * [1.0, 1.0, -1.0]
    off[off < 0] = 0.0  # a single move below zero by rounding
    np.fill_diagonal(off, -off.sum(axis=1))
    return CompoundChainSpec(
        eps=eps,
        zeta=zeta,
        mapping=StateMapping(2, 2),
        generator=validate_generator(off),
        method="copula",
        copula=copula,
    )


def _copula_rates(
    eps: GeneratorMatrix, zeta: GeneratorMatrix, correlation: float, steps: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Finite-horizon rate estimates ``P_h / h``, one 4x4 matrix per step ``h``.

    All copula values come from one ``gaussian_copula`` call.  State
    ``s = i + 2 j`` moves the first coordinate at ``s ^ 1``, the second at
    ``s ^ 2`` and both at ``s ^ 3``.
    """
    h = steps[:, None]
    u = np.exp(-np.tile(eps.exit_rates(), 2) * h)  # first chain holds, [step, s]
    v = np.exp(-np.repeat(zeta.exit_rates(), 2) * h)  # second chain holds
    both_hold = gaussian_copula(u, v, correlation)
    s = np.arange(4)
    q = np.zeros((len(steps), 4, 4))
    q[:, s, s ^ 1] = (v - both_hold) / h
    q[:, s, s ^ 2] = (u - both_hold) / h
    q[:, s, s ^ 3] = (1.0 - u - v + both_hold) / h
    q[:, s, s] = -(1.0 - both_hold) / h
    return q


def marginalize(
    generator: GeneratorMatrix, mapping: StateMapping, atol: float = 1e-9
) -> tuple[GeneratorMatrix, GeneratorMatrix]:
    """Recover the two marginal rate matrices from a compound chain.

    The rate of a first-coordinate move ``i -> i2`` from compound state
    ``(i, j)`` is summed over all second-coordinate destinations.  If that
    sum varies with ``j`` by more than ``atol`` the first coordinate alone is
    not Markov and a ``ValueError`` is raised; likewise for the second.
    """
    q = generator.rates
    if q.shape[0] != mapping.n_compound:
        raise ValueError(
            f"generator has {q.shape[0]} states but mapping expects {mapping.n_compound}"
        )
    m, n = mapping.n_first, mapping.n_second
    # reshape to blocks indexed [j, i, j2, i2]
    blocks = q.reshape(n, m, n, m)

    marginals = []
    # summed over the other coordinate's destination, then that coordinate's state moved first:
    # [j, i, i2] for a first-coordinate move, [i, j, j2] for a second-coordinate one
    for name, destination, other in (("first", 2, 0), ("second", 3, 1)):
        rates = np.moveaxis(blocks.sum(axis=destination), other, 0)
        spread = rates.max(axis=0) - rates.min(axis=0)
        np.fill_diagonal(spread, 0.0)
        if spread.max() > atol:
            raise ValueError(
                f"{name}-coordinate rates vary with the other state by {spread.max():.3e}"
            )
        marginal = rates.mean(axis=0)
        np.fill_diagonal(marginal, 0.0)
        np.fill_diagonal(marginal, -marginal.sum(axis=1))
        marginals.append(marginal)
    return validate_generator(marginals[0]), validate_generator(marginals[1])


# ---------------------------------------------------------------------------
# Bivariate normal CDF and the Gaussian copula
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_SQRT1_2 = math.sqrt(0.5)


def _ndtr_scalar(a: float) -> float:
    # Cephes' ndtr: erf near the origin, erfc in the tails
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0 else y


_ndtr_ufunc = np.frompyfunc(_ndtr_scalar, 1, 1)


def _ndtr(x):
    """Standard normal CDF, elementwise."""
    return np.asarray(_ndtr_ufunc(x), dtype=float)


def _ndtri(p):
    """Standard normal quantile, elementwise, with -inf at 0 and +inf at 1.

    Wichura's AS241 as implemented by ``statistics.NormalDist.inv_cdf``.
    """
    from statistics import NormalDist

    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    inv_cdf = NormalDist().inv_cdf

    def quantile(q: float) -> float:
        if q == 0.0:
            return -math.inf
        return math.inf if q == 1.0 else inv_cdf(q)

    return np.asarray(np.frompyfunc(quantile, 1, 1)(p), dtype=float)


def bivariate_normal_cdf(x, y, correlation: float):
    """P(X <= x, Y <= y) for standard normals with the given correlation.

    Quadrature of the tetrachoric series in trigonometric form for moderate
    correlation, switching to an expansion around the perfectly-correlated
    case when ``|correlation| > 0.925``; both branches are accurate to about
    5e-16.  Accepts array arguments broadcast against each other.
    """
    rho = float(correlation)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("arguments must not be NaN")
    # +-38 is already conclusive for a standard normal in double precision,
    # so clipping handles infinite arguments with no separate branch
    h = -np.clip(x, -38.0, 38.0)
    k = -np.clip(y, -38.0, 38.0)
    upper = _bvn_upper(h, k, rho)  # P(X > h, Y > k) = P(X <= x, Y <= y)

    px, py = _ndtr(x), _ndtr(y)
    lo = np.maximum(0.0, px + py - 1.0)
    hi = np.minimum(px, py)
    if np.any(upper < lo - 1e-10) or np.any(upper > hi + 1e-10):
        worst = float(np.max(np.maximum(lo - upper, upper - hi)))
        raise QuadratureFailure(f"probability outside admissible bounds by {worst:.3e}")
    return np.clip(upper, lo, hi) if upper.ndim else float(np.clip(upper, lo, hi))


def _bvn_upper(h, k, rho: float):
    """P(X > h, Y > k) for standard normals; h, k same-shape arrays."""
    if abs(rho) < 0.925:
        base = _ndtr(-h) * _ndtr(-k)
        if rho == 0.0:
            return base
        # integrate the correlation derivative of the CDF from 0 to rho,
        # substituting rho = sin(theta) to flatten the integrand
        hk = h * k
        hs = (h * h + k * k) / 2.0
        asr = np.arcsin(rho)
        sn = np.sin(asr * (_GL_NODES + 1.0) / 2.0)
        expo = (np.multiply.outer(hk, sn) - hs[..., None]) / (1.0 - sn**2)
        return base + (np.exp(expo) @ _GL_WEIGHTS) * asr / (2.0 * TWO_PI)

    # strong correlation: expand around the comonotone limit
    k = -k if rho < 0 else k
    hk = h * k
    bvn = np.zeros_like(h)
    if abs(rho) < 1.0:
        as_ = (1.0 - rho) * (1.0 + rho)
        a = np.sqrt(as_)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / as_ + hk) / 2.0
        mask = asr > -100.0
        bvn = np.where(
            mask,
            a
            * np.exp(np.where(mask, asr, 0.0))
            * (1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0 + c * d * as_**2 / 5.0),
            0.0,
        )
        mask = -hk < 100.0
        b = np.sqrt(bs)
        tail = np.sqrt(TWO_PI) * _ndtr(-b / a)
        bvn = bvn - np.where(
            mask,
            np.exp(np.where(mask, -hk / 2.0, 0.0))
            * tail
            * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0,
        )
        half = a / 2.0
        xs = (half * (_GL_NODES + 1.0)) ** 2  # quadrature in the residual variance
        rs = np.sqrt(1.0 - xs)
        asr = -(bs[..., None] / xs + hk[..., None]) / 2.0
        mask = asr > -100.0
        c1 = c[..., None]
        d1 = d[..., None]
        integrand = np.exp(np.where(mask, asr, 0.0)) * (
            np.exp(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            - (1.0 + c1 * xs * (1.0 + d1 * xs))
        )
        bvn = bvn + half * (np.where(mask, integrand, 0.0) @ _GL_WEIGHTS)
        bvn = -bvn / TWO_PI
    if rho > 0:
        return bvn + _ndtr(-np.maximum(h, k))
    adjust = np.where(
        k > h,
        np.where(h < 0, _ndtr(k) - _ndtr(h), _ndtr(-h) - _ndtr(-k)),
        0.0,
    )
    return adjust - bvn


def gaussian_copula(u, v, correlation: float):
    """Gaussian copula C(u, v) on the unit square."""
    return bivariate_normal_cdf(_ndtri(u), _ndtri(v), correlation)
