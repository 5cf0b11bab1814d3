"""Continuous-time Markov chains: generators, embedded chains, simulation.

The rate matrix convention throughout is ``rates[i, j]`` = jump rate from
state ``i`` to state ``j`` (row = from-state), with zero row sums and the
diagonal holding the negative exit rate.  States are 0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "InvalidInput",
    "GeneratorError",
    "NonSquare",
    "NegativeOffDiagonal",
    "RowSumViolation",
    "AbsorbingState",
    "Reducible",
    "GeneratorMatrix",
    "TransitionMatrix",
    "RegimePath",
    "RngStream",
    "validate_generator",
    "embedded_chain",
    "stationary_distribution",
    "simulate_path",
    "transition_probabilities",
]

ROW_SUM_TOL = 1e-9
# relative to the largest exit rate, so the check is invariant to time units
STATIONARY_RESIDUAL_TOL = 1e-12
# variates per exponential and per uniform block drawn by path simulation
JUMP_BLOCK = 1024


class InvalidInput(ValueError):
    """Inputs that break a type or range rule; ``problems`` holds every violation
    as a ``(field, message)`` pair, an array entry named by index: ``stock_vol[1]``."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(f"{field}: {message}" for field, message in self.problems))


class GeneratorError(ValueError):
    """Base class for rate-matrix validation failures."""


class NonSquare(GeneratorError):
    pass


class NegativeOffDiagonal(GeneratorError):
    pass


class RowSumViolation(GeneratorError):
    pass


class AbsorbingState(GeneratorError):
    pass


class Reducible(GeneratorError):
    pass


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated CTMC rate matrix.

    Construct via :func:`validate_generator`; direct construction skips
    validation and is reserved for internal use on already-clean data.
    """

    rates: NDArray[np.float64]
    n_states: int

    def exit_rates(self) -> NDArray[np.float64]:
        """Per-state exit rates (negative diagonal)."""
        return -np.diag(self.rates)

    def __repr__(self) -> str:  # compact; full matrix via .rates
        return f"GeneratorMatrix(n_states={self.n_states})"


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic probability matrix over a finite state space."""

    probs: NDArray[np.float64]
    n_states: int

    def __post_init__(self) -> None:
        p = self.probs
        if p.shape != (self.n_states, self.n_states):
            raise NonSquare(f"expected ({self.n_states}, {self.n_states}), got {p.shape}")
        if np.any(p < -1e-15) or np.any(p > 1 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if not np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise RowSumViolation("transition-matrix rows must sum to 1 within 1e-12")


@dataclass(frozen=True)
class RegimePath:
    """Piecewise-constant CTMC trajectory on ``[t_start, t_end]``.

    ``times[0] == t_start`` carries the initial state; subsequent entries are
    jump instants, strictly increasing and < ``t_end``.  The state is
    ``states[k]`` on ``[times[k], times[k+1])``.
    """

    t_start: float
    t_end: float
    times: NDArray[np.float64]
    states: NDArray[np.int64]
    n_states: int

    def segments(self) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.int64]]:
        """Return (start, end, state) arrays of the constant-regime segments."""
        starts = self.times
        ends = np.append(self.times[1:], self.t_end)
        return starts, ends, self.states

    def occupancy(self) -> NDArray[np.float64]:
        """Fraction of total time spent in each state."""
        starts, ends, states = self.segments()
        occ = np.zeros(self.n_states)
        np.add.at(occ, states, ends - starts)
        return occ / (self.t_end - self.t_start)

    def n_jumps(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Distinct stream ids under one seed give statistically independent
    substreams (Philox keyed streams).  The Monte Carlo estimators draw
    block ``b`` of their paths from ``stream_id + b``, so a caller keeps two
    estimates independent by giving them disjoint ranges of ids.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        # a float or bool key would be truncated into another key's stream
        problems = [
            (name, f"must be an integer in [0, 2**64), got {v!r}")
            for name, v in (("seed", self.seed), ("stream_id", self.stream_id))
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < 2**64
        ]
        if problems:
            raise InvalidInput(problems)

    def generator(self) -> np.random.Generator:
        # a list key above 2**63 would pass through float64 and lose its low bits
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def validate_generator(rates) -> GeneratorMatrix:
    """Validate a rate matrix and return it with the diagonal repaired.

    Off-diagonal entries must be nonnegative and each row must sum to zero
    within ``1e-9``; the diagonal is then reset to the exact negative sum of
    the off-diagonal row so downstream code can rely on exact zero row sums.

    Raises
    ------
    NonSquare, NegativeOffDiagonal, RowSumViolation
    """
    q = np.array(rates, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise NonSquare(f"rate matrix must be square, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise GeneratorError("rate matrix entries must be finite")
    n = q.shape[0]
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        i, j = np.argwhere(off < 0)[0]
        raise NegativeOffDiagonal(f"negative rate {q[i, j]} at ({i}, {j})")
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums) > ROW_SUM_TOL):
        i = int(np.argmax(np.abs(row_sums)))
        raise RowSumViolation(f"row {i} sums to {row_sums[i]:.3e} (tolerance {ROW_SUM_TOL})")
    q = off
    np.fill_diagonal(q, -off.sum(axis=1))
    q.flags.writeable = False
    return GeneratorMatrix(rates=q, n_states=n)


def embedded_chain(generator: GeneratorMatrix) -> TransitionMatrix:
    """Jump-destination chain of a CTMC: ``P[i, j] = rate(i, j) / exit_rate(i)``.

    Diagonal entries are zero.  Raises :class:`AbsorbingState` if any state
    has zero exit rate.
    """
    q = generator.rates
    lam = generator.exit_rates()
    if np.any(lam == 0):
        raise AbsorbingState(f"state {int(np.argmax(lam == 0))} has zero exit rate")
    p = q / lam[:, None]
    np.fill_diagonal(p, 0.0)
    return TransitionMatrix(probs=p, n_states=generator.n_states)


def stationary_distribution(generator: GeneratorMatrix) -> NDArray[np.float64]:
    """Unique probability vector ``pi`` with ``pi @ Q = 0``.

    Grassmann-Taksar-Heyman elimination (*Oper. Res.* 33(5), 1985): states
    are censored out from the last, each by the rates of the chain left,
    with no subtraction, so every entry is accurate relative to itself
    (O'Cinneide, *Numer. Math.* 65, 1993), along a slow direction as well.
    Raises :class:`Reducible` when a state cannot reach the states before it
    in the censored chain (a zero pivot sum), when the law is not strictly
    positive, or when its residual is not small against the rates.
    """
    q = generator.rates
    a = q.copy()
    for k in range(generator.n_states - 1, 0, -1):
        pivot = a[k, :k].sum()
        if pivot == 0.0:
            raise Reducible(f"state {k} cannot reach states 0-{k - 1} of the chain censored to them")
        a[:k, k] /= pivot
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(generator.n_states)
    for k in range(1, generator.n_states):
        pi[k] = pi[:k] @ a[:k, k]
    pi = pi / pi.sum()
    if np.any(pi <= 0):
        raise Reducible("stationary solution is not strictly positive")
    residual = np.max(np.abs(pi @ q)) / max(generator.exit_rates().max(), np.finfo(float).tiny)
    if residual >= STATIONARY_RESIDUAL_TOL:
        raise Reducible(f"relative stationary residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}")
    return pi


def simulate_path(
    generator: GeneratorMatrix,
    initial_state: int,
    t_start: float,
    t_end: float,
    rng: RngStream,
) -> RegimePath:
    """Simulate one trajectory by exponential holding times and jump draws.

    Holding time in state ``i`` is Exp(exit_rate(i)); the destination is
    drawn from the embedded-chain row.  The path is truncated at the first
    jump time >= ``t_end``.  Identical ``(generator, initial_state, horizon,
    rng)`` reproduce the path exactly.
    """
    _check_path_span(generator, initial_state, t_start, t_end)
    lam, cum = _jump_table(generator)
    gen = rng.generator()
    times = [t_start]
    states = [int(initial_state)]
    t = t_start
    state = int(initial_state)
    exps = np.empty(0)
    unis = np.empty(0)
    k = 0
    while True:
        rate = lam[state]
        if rate == 0.0:
            break
        if k >= len(exps):
            # Draw in fixed-size blocks: one Exp(1) and one U(0,1) per jump,
            # so the stream consumption is a deterministic function of the path.
            exps = gen.standard_exponential(JUMP_BLOCK)
            unis = gen.random(JUMP_BLOCK)
            k = 0
        t = t + exps[k] / rate
        if t >= t_end:
            break
        state = int(np.searchsorted(cum[state], unis[k] * cum[state, -1], side="right"))
        times.append(t)
        states.append(state)
        k += 1
    return RegimePath(
        t_start=float(t_start),
        t_end=float(t_end),
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=np.int64),
        n_states=generator.n_states,
    )


def _check_path_span(generator: GeneratorMatrix, initial_state: int, t_start, t_end) -> None:
    if not 0 <= initial_state < generator.n_states:
        raise ValueError(f"initial_state {initial_state} out of range")
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")


def _jump_table(generator: GeneratorMatrix) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Exit rates and cumulative embedded rows: a jump from ``i`` with uniform
    ``u`` lands on the first index whose entry exceeds ``u * cum[i, -1]``."""
    q = generator.rates
    lam = generator.exit_rates()
    # rows with zero exit rate are never consulted
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cum = np.cumsum(off / np.where(lam[:, None] == 0, 1.0, lam[:, None]), axis=1)
    return lam, cum


def transition_probabilities(generator: GeneratorMatrix, t: float) -> TransitionMatrix:
    """Transition matrix ``exp(Q t)`` computed by uniformization.

    The Poisson-weighted power series of the uniformized jump chain keeps
    every intermediate matrix row-stochastic and nonnegative, unlike the
    naive Taylor series.  Series truncated when the Poisson tail mass drops
    below 1e-14; large ``t`` handled by repeated squaring of a short-time
    factor, which preserves stochasticity as well.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = generator.n_states
    lam_max = float(np.max(generator.exit_rates()))
    if t == 0.0 or lam_max == 0.0:
        return TransitionMatrix(probs=np.eye(n), n_states=n)

    # Split so the base factor has uniformization intensity <= 8.
    n_squarings = max(0, int(np.ceil(np.log2(lam_max * t / 8.0))))
    dt = t / (2**n_squarings)

    w = np.eye(n) + generator.rates / lam_max  # uniformized DTMC, row-stochastic
    mu = lam_max * dt
    weight = np.exp(-mu)
    term = np.eye(n)
    p = weight * term
    mass = weight
    k = 0
    while 1.0 - mass > 1e-14:
        k += 1
        term = term @ w
        weight = weight * mu / k
        p = p + weight * term
        mass += weight
    p /= p.sum(axis=1, keepdims=True)  # remove the truncated tail mass

    for _ in range(n_squarings):
        p = p @ p
        p /= p.sum(axis=1, keepdims=True)  # rounding would otherwise compound over the squarings
    return TransitionMatrix(probs=p, n_states=n)
