"""Monte Carlo estimators for the separable pieces of the value function.

Two probabilistic representations are sampled here, both driven by the
regime chain:

* the regime factor ``h_i(t)`` equals the expectation of the exponential of
  the growth rate integrated along the regime path, which is computable
  exactly per path because the loading integrals have closed forms;
* with zero stock-income correlation the wealth-free factor
  ``g(t, y, regime)`` equals the expectation of
  ``exp(-integral of (risk_aversion * exp(rate*(horizon-s)) * Y_s
  + half squared Sharpe of the current regime) ds)``
  over income paths ``Y``, sampled with per-regime-exact Gaussian steps and
  a trapezoid rule for the time integral.

Path ``k`` of an estimator called with ``rng`` draws from the Philox
stream keyed ``[rng.seed, rng.stream_id + k]`` (Salmon et al., SC'11): its
chain's variate blocks as :func:`~regimeweave.markov.simulate_path` draws
them, then the normals of its jump-refined grid (stock, then income shocks
for wealth paths).  Paths run in chunks of :data:`CHUNK`; only the draws
loop over paths, while the jump loop and the grid arithmetic run over rows
padded past each path's end.  Per-path sums never include the padding, so
every estimate equals the one-path-at-a-time loop bit for bit, whatever
the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .hjb import MarketModel, growth_coefficients, solve_income_loading
from .markov import JUMP_BLOCK, GeneratorMatrix, RegimePath, RngStream, _check_path_span, _jump_table

__all__ = [
    "NonZeroRho",
    "MCEstimate",
    "IncomePath",
    "merged_time_grid",
    "simulate_income_path",
    "estimate_regime_factor",
    "estimate_value_factor",
    "estimate_value_mc",
]

# paths simulated together; results do not depend on it, memory grows with it
CHUNK = 128
# grids evaluated together; bounds the memory of the grid arithmetic
GROUP = 32


class NonZeroRho(ValueError):
    """Estimator only valid when stock and income are uncorrelated."""


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error."""

    value: float
    stderr: float
    n_paths: int


@dataclass(frozen=True)
class IncomePath:
    """Income level on a time grid refined at regime jumps.

    ``regimes[k]`` is the regime in force on ``[times[k], times[k+1])``.
    """

    times: NDArray[np.float64]
    values: NDArray[np.float64]
    regimes: NDArray[np.int64]


def merged_time_grid(
    path: RegimePath, n_steps: int
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Uniform grid over the path's span, refined with the jump times.

    Splitting steps at jumps keeps per-step coefficients constant, so a
    Gaussian Euler step is exact in distribution on every interval.
    Returns the grid and the regime governing each interval.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    uniform = np.linspace(path.t_start, path.t_end, n_steps + 1)
    times = np.union1d(uniform, path.times[1:])
    regimes = path.states[np.searchsorted(path.times, times[:-1], side="right") - 1]
    return times, regimes


def simulate_income_path(
    market: MarketModel,
    path: RegimePath,
    income_start: float,
    n_steps: int,
    rng: RngStream | np.random.Generator | None = None,
    normals: NDArray[np.float64] | None = None,
) -> IncomePath:
    """Sample the income level along a given regime path.

    Per-step increments are ``drift * dt + vol * sqrt(dt) * z`` with the
    regime's coefficients, exact in distribution because the grid is split
    at jumps.  Pass ``normals`` (one standard normal per grid step) to reuse
    or negate draws; otherwise they come from ``rng``.
    """
    market.require_normal_income("simulate_income_path")
    times, regimes = merged_time_grid(path, n_steps)
    dt = np.diff(times)
    if normals is None:
        if rng is None:
            raise ValueError("provide either rng or normals")
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        normals = gen.standard_normal(len(dt))
    elif len(normals) != len(dt):
        raise ValueError(f"need {len(dt)} normals, got {len(normals)}")
    steps = market.income_drift[regimes] * dt + market.income_vol[regimes] * np.sqrt(dt) * normals
    return IncomePath(times=times, values=_accumulate(income_start, steps), regimes=regimes)


def estimate_regime_factor(
    market: MarketModel,
    t_start: float,
    regime: int,
    n_paths: int,
    rng: RngStream,
) -> MCEstimate:
    """Monte Carlo estimate of the regime factor ``h_regime(t_start)``.

    Each path draws only the regime chain; conditional on it the integrated
    growth rate is a sum of closed-form segment integrals, so the only error
    is statistical.  Path ``k`` uses stream ``rng.stream_id + k``.
    """
    _check_horizon(market, t_start)
    coeffs = growth_coefficients(market)
    loading = solve_income_loading(market)
    values = np.empty(n_paths)
    blocks = _simulate_chains(market.generator, regime, t_start, market.horizon, n_paths, rng)
    for index, starts, states, n_jumps, _ in blocks:
        # segment m runs from column m to column m + 1; the padding adds empty segments
        ends = np.concatenate([starts[:, 1:], np.full((len(starts), 1), market.horizon)], axis=1)
        terms = (
            coeffs.constant[states] * (ends - starts)
            + coeffs.linear[states] * loading.integral(starts, ends)
            + coeffs.quadratic[states] * loading.square_integral(starts, ends)
        )
        values[index] = np.exp(_row_sums(terms, n_jumps + 1))
    return _estimate(values)


def estimate_value_factor(
    market: MarketModel,
    t_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    n_steps: int,
    rng: RngStream,
    antithetic: bool = True,
) -> MCEstimate:
    """Monte Carlo estimate of the wealth-free value factor ``g``.

    Valid only for zero stock-income correlation, where the wealth and
    income parts of the problem decouple and the factor has a Feynman-Kac
    form along (chain, income) paths.  The income integral uses a trapezoid
    rule on the jump-refined grid (bias of order ``1/n_steps**2``); the
    regime term is exact.  With ``antithetic=True`` each path evaluates the
    mirrored income draw on the same chain path and averages the pair,
    which counts as a single sample.
    """
    if market.correlation != 0.0:
        raise NonZeroRho(
            f"value-factor sampling requires zero correlation, got {market.correlation}"
        )
    market.require_normal_income("estimate_value_factor")
    _check_horizon(market, t_start)
    gamma = market.risk_aversion
    # half squared Sharpe per regime, the sign-flipped constant growth term
    sharpe_half = -growth_coefficients(market).constant
    values = np.empty(n_paths)
    grids = _simulate_grids(market, regime, t_start, n_paths, n_steps, rng, 1)
    for index, lengths, times, regimes, (z,) in grids:
        dt = np.diff(times)
        discount = gamma * np.exp(market.rate * (market.horizon - times))
        regime_term = _row_sums(sharpe_half[regimes] * dt, lengths - 1)
        drift = market.income_drift[regimes] * dt
        shock = market.income_vol[regimes] * np.sqrt(dt)

        def sample(sign: float) -> NDArray[np.float64]:
            y = discount * _accumulate(income_start, drift + sign * shock * z)
            # the trapezoid rule's terms as np.trapezoid forms them, summed path by path
            income_term = _row_sums(dt * (y[:, 1:] + y[:, :-1]) / 2.0, lengths - 1)
            return np.exp(-income_term - regime_term)

        values[index] = 0.5 * (sample(1.0) + sample(-1.0)) if antithetic else sample(1.0)
    return _estimate(values)


def estimate_value_mc(
    market: MarketModel,
    t_start: float,
    wealth_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    n_steps: int,
    rng: RngStream,
    antithetic: bool = True,
) -> MCEstimate:
    """Monte Carlo estimate of the value function at zero correlation.

    Scales the sampled wealth-free factor by the deterministic wealth term
    ``-(1/gamma) exp(-gamma * wealth * exp(rate * (horizon - t)))``.
    """
    factor = estimate_value_factor(
        market, t_start, income_start, regime, n_paths, n_steps, rng, antithetic
    )
    gamma = market.risk_aversion
    growth = np.exp(market.rate * (market.horizon - t_start))
    scale = -np.exp(-gamma * wealth_start * growth) / gamma
    return MCEstimate(
        value=scale * factor.value,
        stderr=abs(scale) * factor.stderr,
        n_paths=factor.n_paths,
    )


def _accumulate(start: float, steps: NDArray[np.float64]) -> NDArray[np.float64]:
    """``start``, then ``start`` plus the running sums of ``steps`` along the last axis."""
    out = np.empty(steps.shape[:-1] + (steps.shape[-1] + 1,))
    out[..., 0] = start
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    out[..., 1:] += start
    return out


def _row_sums(rows: NDArray[np.float64], lengths: NDArray[np.int64]) -> NDArray[np.float64]:
    """Sum of the first ``lengths[i]`` entries of each row, bit for bit the
    ``ndarray.sum`` of that prefix alone: rows of one length are summed
    together, never with their padding, which would regroup the pairwise sum."""
    out = np.empty(len(lengths))
    for n in np.unique(lengths):
        same = lengths == n
        out[same] = rows[same, :n].sum(axis=-1)
    return out


def _block_head(mean_jumps: float) -> int:
    """Columns kept of each path's variate blocks: enough for all but rare
    paths, which draw their blocks again when they run past them."""
    return int(min(JUMP_BLOCK, mean_jumps + 6.0 * np.sqrt(mean_jumps) + 16.0))


def _simulate_chains(
    generator: GeneratorMatrix, regime: int, t_start, t_end, n_paths: int, rng: RngStream,
    keep_state: bool = False,
):
    """Chain paths, ``CHUNK`` at a time; path ``k`` is the one
    :func:`~regimeweave.markov.simulate_path` draws from stream ``rng.stream_id + k``.

    Yields ``(index, times, states, n_jumps, resume)`` for blocks of up to
    ``GROUP`` paths.  Row ``r`` (path ``index[r]``) holds the start time and
    state, then one column per jump, up to column ``n_jumps[r]``, then
    ``t_end`` and state 0.  With ``keep_state``, ``resume(k)`` returns the
    generator as it stands after path ``k``'s chain draws.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    _check_path_span(generator, regime, t_start, t_end)
    RngStream(rng.seed, rng.stream_id + n_paths - 1)  # every path's key must be valid
    # resetting one Philox per path is several times cheaper than a new generator
    bits = np.random.Philox(key=[rng.seed, rng.stream_id])
    gen = np.random.Generator(bits)
    fresh = bits.state
    lam, cum = _jump_table(generator)
    moving = lam[regime] != 0.0  # an absorbing start state draws nothing
    head = _block_head(lam.max() * (t_end - t_start))
    block_exps, block_unis = np.empty(JUMP_BLOCK), np.empty(JUMP_BLOCK)

    for first in range(0, n_paths, CHUNK):
        n = min(CHUNK, n_paths - first)
        exps, unis = np.empty((n, head)), np.empty((n, head))

        def draw_blocks(i: int, count: int) -> dict | None:
            fresh["state"]["key"][1] = rng.stream_id + first + i
            bits.state = fresh
            for _ in range(count):
                gen.standard_exponential(out=block_exps)
                gen.random(out=block_unis)
            exps[i], unis[i] = block_exps[: exps.shape[1]], block_unis[: exps.shape[1]]
            return bits.state if keep_state else None

        def resume(k: int) -> np.random.Generator:
            bits.state = after[k - first]
            return gen

        after = [draw_blocks(i, int(moving)) for i in range(n)]
        alive = np.arange(n) if moving else np.empty(0, dtype=np.int64)
        t, state = np.full(len(alive), float(t_start)), np.full(len(alive), regime)
        steps = []  # (paths, arrival times, destinations) of each jump in turn
        while alive.size:
            rate = lam[state]
            if not rate.all():
                keep = rate != 0.0
                alive, t, state, rate = alive[keep], t[keep], state[keep], rate[keep]
            column = len(steps) % JUMP_BLOCK
            if column == exps.shape[1] or (steps and column == 0):
                if column:  # past the kept head of the block: keep all of it
                    exps = np.pad(exps, ((0, 0), (0, JUMP_BLOCK - column)))
                    unis = np.pad(unis, ((0, 0), (0, JUMP_BLOCK - column)))
                for i in alive:
                    after[i] = draw_blocks(i, len(steps) // JUMP_BLOCK + 1)
            t = t + exps[alive, column] / rate
            keep = t < t_end
            alive, t, state = alive[keep], t[keep], state[keep]
            rows = cum[state]
            state = (rows <= (unis[alive, column] * rows[:, -1])[:, None]).sum(axis=1)
            steps.append((alive, t, state))
        times = np.full((n, len(steps) + 1), float(t_end))
        states = np.zeros((n, len(steps) + 1), dtype=np.int64)
        times[:, 0], states[:, 0] = t_start, regime
        n_jumps = np.zeros(n, dtype=np.int64)
        for jump, (rows, arrival, destination) in enumerate(steps, start=1):
            times[rows, jump], states[rows, jump], n_jumps[rows] = arrival, destination, jump
        del exps, unis, steps  # free the chunk's draws while its blocks are consumed
        for rows in np.split(np.arange(n), range(GROUP, n, GROUP)):
            width = n_jumps[rows].max() + 1
            yield first + rows, times[rows, :width], states[rows, :width], n_jumps[rows], resume


def _simulate_grids(
    market: MarketModel, regime: int, t_start, n_paths: int, n_steps: int, rng: RngStream, n_sets: int
):
    """Chain paths on jump-refined grids, each followed by ``n_sets`` sets of
    grid normals, as ``(index, lengths, times, regimes, normals)`` blocks of
    up to ``GROUP`` paths: row ``r`` holds path ``index[r]``'s grid, as
    :func:`merged_time_grid` builds it, in its first ``lengths[r]`` entries,
    then the horizon; its step regimes and normals fill the first
    ``lengths[r] - 1`` entries, then the last regime and zeros.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    uniform = np.linspace(float(t_start), float(market.horizon), n_steps + 1)
    blocks = _simulate_chains(market.generator, regime, t_start, market.horizon, n_paths, rng, True)
    for index, chain_times, chain_states, n_jumps, resume in blocks:
        lengths, times, regimes = _padded_grids(
            chain_times, chain_states, n_jumps, uniform, market.n_regimes
        )
        normals = np.zeros((n_sets, len(index), times.shape[1] - 1))
        for r, k in enumerate(index):
            gen = resume(k)
            for z in normals:
                gen.standard_normal(out=z[r, : lengths[r] - 1])
        yield index, lengths, times, regimes, normals


def _padded_grids(chain_times, chain_states, n_jumps, uniform, n_states: int):
    """Grid lengths, grids and step regimes of chain rows, padded as
    :func:`_simulate_grids` yields them."""
    width = int(n_jumps.max())
    column = np.arange(width)
    real = column < n_jumps[:, None]
    jumps = chain_times[:, 1 : width + 1]  # padded with the horizon
    # a jump's slot counts the uniform nodes and the jumps before it; padding goes last
    slots = np.where(real, np.searchsorted(uniform, jumps) + column, len(uniform) + column)
    is_jump = np.zeros((len(n_jumps), len(uniform) + width), dtype=bool)
    np.put_along_axis(is_jump, slots, True, axis=1)
    times = np.empty(is_jump.shape)
    times[is_jump] = jumps.ravel()
    times[~is_jump] = np.tile(uniform, len(n_jumps))
    held = np.minimum(np.cumsum(is_jump[:, :-1], axis=1), n_jumps[:, None])  # jumps so far
    regimes = np.take_along_axis(chain_states[:, : width + 1], held, axis=1)
    lengths = len(uniform) + n_jumps
    # a jump on a node or on another jump merges with it, as in merged_time_grid
    inside = np.arange(times.shape[1] - 1) < lengths[:, None] - 1
    for r in np.flatnonzero(np.any((np.diff(times, axis=1) <= 0.0) & inside, axis=1)):
        count = n_jumps[r] + 1
        path = RegimePath(
            uniform[0], uniform[-1], chain_times[r, :count], chain_states[r, :count], n_states
        )
        grid, grid_regimes = merged_time_grid(path, len(uniform) - 1)
        lengths[r] = len(grid)
        times[r], times[r, : len(grid)] = uniform[-1], grid
        regimes[r], regimes[r, : len(grid) - 1] = grid_regimes[-1], grid_regimes
    return lengths, times, regimes


def _check_horizon(market: MarketModel, t_start: float) -> None:
    if not 0.0 <= t_start < market.horizon:
        raise ValueError(f"t_start must lie in [0, horizon), got {t_start}")


def _estimate(values: NDArray[np.float64]) -> MCEstimate:
    n = len(values)
    return MCEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(n)),
        n_paths=n,
    )
