"""Compound chains built from two marginal regime processes.

A pair of independent chains (sizes m and n) composes into a single chain on
m*n states via the Kronecker sum of the rate matrices.  Dependence between
the marginal jump processes is introduced through a Gaussian copula on the
short-horizon jump indicators.  The copula sets only the rate at which both
components jump together, recovered by finite-difference extrapolation; each
single move takes the rest of its component's exit rate, so each component
keeps its own law to rounding of its compound rows' total rates.

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

from .markov import GeneratorMatrix, InvalidInput, transition_probabilities, validate_generator

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

# roundoff allowance on top of the joint rate's Richardson gap: an extrapolated
# joint rate outside its Frechet bounds by more than gap + clamp aborts
# composition, a nearer one is clipped to the bound
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
    short horizon used to extrapolate the joint-move rate, the only rate the
    copula sets; the leading finite-horizon error is removed by a
    step-halving (Richardson) combination, leaving an error of order
    ``fd_step**2``.  Raises :class:`InvalidInput`.
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
    probabilities ``u = exp(-rate_i h)`` and ``v = exp(-rate_j h)``.  The
    copula sets one number per compound state, the rate of the joint move:
    the chance that both jump, ``1 - u - v + C(u, v)``, over ``h``, with two
    step sizes combined as ``2 r(h/2) - r(h)`` to cancel the O(h) bias from
    multiple jumps.  Each single move is the component's own exit rate less
    the joint rate, and each row is rounded to a grid of ``2 spacing(rate_i +
    rate_j)``, on which it sums to exactly zero in any order.  Each component
    keeps its own rate to ``2 eps (rate_i + rate_j)``, relative to the row's
    total rate, not its own: a rate of 1e-6 beside 1e2 to about 4e-8 of
    itself, one below about ``2**-52`` of the total not at all.

    The joint rate is clipped to its Frechet bounds ``[0, min(rate_i, rate_j)]``,
    which both finite-horizon estimates respect; the extrapolation leaves them
    by at most its Richardson gap ``|r(h/2) - r(h)|``, below zero for a joint
    move rarer than O(h) at negative correlation, above by rounding near comonotone.

    Only 2x2 marginals are supported: with more states the copula on hold
    indicators does not pin down which destination a joint jump selects.

    Raises
    ------
    Unsupported
        If either marginal chain has more than two states.
    NonGenerator
        If an extrapolated joint rate lies outside its bounds by more than its
        Richardson gap plus ``RATE_CLAMP``.
    """
    if eps.n_states != 2 or zeta.n_states != 2:
        raise Unsupported(
            f"copula composition needs two-state marginals, got "
            f"{eps.n_states} and {zeta.n_states}"
        )
    h = copula.fd_step
    first, second = np.tile(eps.exit_rates(), 2), np.repeat(zeta.exit_rates(), 2)  # at s = i + 2 j
    steps = np.array([[h / 2], [h]])
    u, v = np.exp(-first * steps), np.exp(-second * steps)  # each chain holds, [step, s]
    half, full = (1.0 - u - v + gaussian_copula(u, v, copula.correlation)) / steps
    joint = 2.0 * half - full
    bound = np.minimum(first, second)
    gap = np.abs(half - full)
    excess = np.maximum(-joint, joint - bound) - gap
    if excess.max() > RATE_CLAMP:
        s = int(np.argmax(excess))
        raise NonGenerator(
            f"extrapolated joint rate {joint[s]:.3e} from state {s} lies outside [0, {bound[s]:.3e}] "
            f"beyond its Richardson gap {gap[s]:.3e} plus the {RATE_CLAMP} clamp"
        )
    joint = np.clip(joint, 0.0, bound)
    s = np.arange(4)  # state s moves the first coordinate at s ^ 1, the second at s ^ 2, both at s ^ 3
    q = np.zeros((4, 4))
    q[s, s ^ 1], q[s, s ^ 2], q[s, s ^ 3] = first - joint, second - joint, joint
    # on a grid of twice the spacing at the row's total rate every partial sum is exact, so
    # each row sums to exactly zero in any order; a rate, however slow, moves by up to a step
    grid = 2.0 * np.spacing(first + second)[:, None]
    q = np.rint(q / grid) * grid
    np.fill_diagonal(q, -q.sum(axis=1))
    return CompoundChainSpec(
        eps=eps,
        zeta=zeta,
        mapping=StateMapping(2, 2),
        generator=validate_generator(q),
        method="copula",
        copula=copula,
    )


def _component_sums(matrix: NDArray[np.float64], mapping: StateMapping):
    """A compound matrix's entries summed over one coordinate's destination:
    ``[j, i, i2]`` for a first-coordinate move ``i -> i2`` from ``(i, j)``,
    and ``[i, j, j2]`` for a second-coordinate move ``j -> j2``."""
    m, n = mapping.n_first, mapping.n_second
    blocks = matrix.reshape(n, m, n, m)  # [j, i, j2, i2]
    return blocks.sum(axis=2), np.moveaxis(blocks.sum(axis=3), 1, 0)


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
    marginals = []
    for name, rates in zip(("first", "second"), _component_sums(q, mapping)):
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


def _marginal_gap(chain: CompoundChainSpec, t: float) -> float:
    """Largest gap, from any compound state, between the chain's time-``t`` law summed
    over one coordinate and the other coordinate's own law; one ``exp(Q t)`` call a
    chain, so that no law shares the squarings of a larger one."""
    laws = _component_sums(transition_probabilities(chain.generator, t).probs, chain.mapping)
    return float(max(np.max(np.abs(law - transition_probabilities(parent, t).probs))
                     for law, parent in zip(laws, (chain.eps, chain.zeta))))


def _loop_kronecker(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """The Kronecker sum rebuilt row by row, an oracle independent of ``np.kron``."""
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m))
    for i, j in np.ndindex(n, m):  # row i + n j moves the first coordinate, then the second
        out[i + n * j, np.arange(n) + n * j] += a[i]
        out[i + n * j, i + n * np.arange(m)] += b[j]
    return out


def _simultaneous_mass(chain: CompoundChainSpec) -> float:
    """Largest rate of a move in which both coordinates change."""
    i, j = np.array([chain.mapping.pair(k) for k in range(chain.mapping.n_compound)]).T
    both = (i[:, None] != i) & (j[:, None] != j)  # pairs of states where both components differ
    return float(np.max(np.abs(chain.generator.rates[both]), initial=0.0))


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
