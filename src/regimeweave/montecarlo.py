"""Monte Carlo estimators for the separable pieces of the value function.

One probabilistic representation is sampled here, driven by the regime
chain: the regime factor ``h_i(t)`` equals the expectation of the
exponential of the growth rate integrated along the regime path, which is
computable exactly per path because the loading integrals have closed
forms.  With zero stock-income correlation the wealth-free part of the
value equals the expectation of
``exp(-integral of (risk_aversion * exp(rate*(horizon-s)) * Y_s
+ half squared Sharpe of the current regime) ds)``
over income paths ``Y``.  Given the regime path the income integral is
Gaussian (conditional Monte Carlo; Glasserman 2004, section 4.5), and its
expected exponential is ``exp(m(t) y)`` times the regime factor's own
per-path sample, so :func:`estimate_value_mc` prices the regime factor's
estimate with the explicit solution's unit value, whose one exponent holds
wealth and income together.

Stream layout (Salmon et al., SC'11): an estimator called with ``rng`` runs
its paths in blocks of :data:`BLOCK`, and block ``b`` (paths ``b * BLOCK``
onward) draws everything from the one Philox key
``[rng.seed, rng.stream_id + b]``, in this order:

1. ``standard_exponential((BLOCK, head))``, then ``random((BLOCK, head))``,
   one column per jump of each row (the regime factor and
   :func:`~regimeweave.portfolio.evaluate_policy` map the first column to a
   first jump conditioned to land before the horizon;
   :func:`~regimeweave.portfolio.simulate_wealth` does not);
2. each time the jump loop runs past the drawn width, one more
   ``(moving, head)`` exponential array and then one more uniform array,
   whose rows go to the paths still moving, in path order;
3. only for :func:`~regimeweave.portfolio.simulate_wealth`,
   ``standard_normal((kept, 2, n_steps))``, path-major, for the block's
   ``kept`` rows below ``n_paths``: a prefix of the block's full draw, so
   path ``r`` reads its two rows of step normals wherever the block ends.
   The regime factor (and so the zero-correlation value) and
   :func:`~regimeweave.portfolio.evaluate_policy` draw chains only, and
   weigh them against the branch that never leaves the start regime,
   valued by their own per-segment code (:func:`_first_jump_estimates`).
   Both are controlled there by each path's own exponent, and the control
   draws nothing either: the factor's mean and a policy's alike are one
   matrix exponential (:func:`~regimeweave.hjb._growth_mean`), and the
   slope is a constant, so a path's value stays its own path's alone.

The first arrays are ``head = m + 3 sqrt(m) + 4`` columns wide (at most
``JUMP_BLOCK``), ``m`` the expected jumps of the fastest state over the
span, so that most paths need no extension and few drawn variates go
unread.

A block always simulates all ``BLOCK`` rows and drops those past
``n_paths``, so a path's sample does not depend on the path count.  Up to
:data:`SWEEP` consecutive blocks step together: one jump loop runs over
the paths of the sweep still moving, and at a drawn width each block with
paths still moving draws its own extension, blocks in order.  Every
per-path operation is elementwise, so a sweep draws and computes exactly
what its blocks would one by one.  The sweep's paths are then laid out as
one flat run of their real segments, and all per-path arithmetic runs on
chunks of whole consecutive paths holding at most :data:`SEGMENTS`
segments and steps (at least one path).  Each path's sum over its segments
is taken alone, by ``np.add.reduceat`` over its run, so every estimate is
bit for bit the same for any ``SWEEP`` and ``SEGMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .hjb import MarketModel, _growth_mean, _unit_value, growth_coefficients, solve_income_loading
from .markov import JUMP_BLOCK, GeneratorMatrix, InvalidInput, RngStream, _check_path_span, _jump_table

__all__ = [
    "NonZeroRho",
    "MCEstimate",
    "estimate_regime_factor",
    "estimate_value_mc",
]

# paths per Philox key; part of the stream layout, so changing it changes every estimate
BLOCK = 128
# blocks whose chains step together; bounds the memory of a call, results do not depend on it
SWEEP = 16
# real segments and steps of a chunk of per-path arithmetic; bounds its memory, results do not depend on it
SEGMENTS = 4096
# below this chance of leaving the start regime, the control's slope is taken at the unconditional mean
RARE_LEAVE = 1e-8


class NonZeroRho(ValueError):
    """Estimator only valid when stock and income are uncorrelated."""


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error."""

    value: float
    stderr: float
    n_paths: int


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
    is statistical.  Block ``b`` of :data:`BLOCK` paths draws from key
    ``[rng.seed, rng.stream_id + b]``.

    The estimate is conditioned on the first jump by
    :func:`_first_jump_estimates`, the branch that never leaves ``regime``
    valued by the same segment sum on its one segment.  So no sample lacks
    the jump branch, as a plain sample of few paths near the horizon often
    does, leaving its standard error blind to the jump variance; and a start
    regime that cannot be left gives the exact factor.  Each path's factor
    ``exp(a)`` is controlled by its own exponent ``a``, whose mean comes
    exactly from one matrix exponential (:func:`~regimeweave.hjb._growth_mean`),
    which cuts the variance 800- to 48000-fold on the committed configs.
    Raises :class:`ValueError` for a start time outside ``[0, horizon)`` or a
    regime out of range, and :class:`OverflowError` past the float range.
    """
    coeffs = growth_coefficients(market)
    rates = np.stack([coeffs.constant, coeffs.linear, coeffs.quadratic])[None]
    message = f"regime factors exceed the float range over horizon {market.horizon}"
    (estimate,), _ = _first_jump_estimates(market, regime, t_start, n_paths, rng, rates, 0.0, 1.0, [message])
    return estimate


def estimate_value_mc(
    market: MarketModel,
    t_start: float,
    wealth_start: float,
    income_start: float,
    regime: int,
    n_paths: int,
    rng: RngStream,
) -> MCEstimate:
    """Monte Carlo estimate of the value function at zero correlation.

    Valid only for zero stock-income correlation, where the linear and
    quadratic growth terms are the income's drift and half its variance.
    Given the chain path the income integral is then Gaussian, so the value
    is the unit value ``-(1/gamma) exp(-gamma * wealth * exp(rate * (horizon
    - t)) + m(t) * income)`` times :func:`estimate_regime_factor`'s sample,
    value and standard error alike, with one exponent for wealth and income
    together.  Raises :class:`NonZeroRho` at nonzero correlation and
    :class:`OverflowError` when the value leaves the float range.
    """
    _check_start(wealth_start=wealth_start, income_start=income_start)
    if market.correlation != 0.0:
        raise NonZeroRho(f"value sampling requires zero correlation, got {market.correlation}")
    factor = estimate_regime_factor(market, t_start, regime, n_paths, rng)
    with np.errstate(over="ignore"):  # an overflow leaves inf or NaN, which raises below
        unit = float(_unit_value(market, solve_income_loading(market), t_start, wealth_start, income_start))
    return _finite(MCEstimate(unit * factor.value, abs(unit) * factor.stderr, factor.n_paths),
                   f"value at wealth {wealth_start:g}, income {income_start:g} exceeds the float range")


def _check_start(**starts: float) -> None:
    """Raise :class:`~regimeweave.markov.InvalidInput` naming each start value that is not finite."""
    problems = [(name, f"must be finite, got {value}") for name, value in starts.items()
                if not np.isfinite(value)]
    if problems:
        raise InvalidInput(problems)


def _first_jump_split(generator: GeneratorMatrix, regime: int, t_start, horizon) -> tuple[float, float]:
    """``(stay, leave)``: the chances that the chain, in ``regime`` at
    ``t_start``, stays there through ``horizon`` and that it leaves before.
    Raises :class:`ValueError` for a start time outside ``[0, horizon)`` or a
    regime out of range, before anything is looked up by the regime."""
    if not 0.0 <= t_start < horizon:
        raise ValueError(f"t_start must lie in [0, horizon), got {t_start}")
    _check_path_span(generator, regime, t_start, horizon)
    exits = generator.exit_rates()[regime] * (horizon - t_start)
    return float(np.exp(-exits)), float(-np.expm1(-exits))


def _segment_sums(loading, coefficients, starts, ends, states, at):
    """Sums over runs of segments of ``constant dt + linear integral of m + quadratic integral
    of m^2``, each segment's integrals of the ``loading`` ``m`` in closed form: a run starts
    at each index of ``at``, and ``coefficients`` holds ``(..., 3, n_regimes)`` per-regime
    ``(constant, linear, quadratic)``, so the result is ``(..., len(at))``.  A path's exponent
    is its run's sum, and each of :func:`~regimeweave.portfolio.simulate_wealth`'s moments
    a step's."""
    integral, square_integral = loading._integrals(starts, ends)
    constant, linear, quadratic = np.moveaxis(coefficients[..., states], -2, 0)
    terms = constant * (ends - starts) + linear * integral + quadratic * square_integral
    return np.add.reduceat(terms, at, axis=-1)


def _first_jump_estimates(market, regime, t_start, n_paths, rng, coefficients, start, divisor, overflow):
    """One controlled estimate of ``E[exp(a) / divisor]`` per row of ``coefficients``, each
    path's exponent ``a`` its :func:`_segment_sums` plus ``start``, conditioned on the first
    jump; and each row's control mean gap.

    With ``stay = exp(-exit_rate * (horizon - t_start))`` the one segment ``[t_start,
    horizon]`` in ``regime`` is integrated once, and each path contributes ``stay`` times
    the value on it plus ``1 - stay`` times its own, its first jump conditioned to land
    before the horizon; a branch of weight 0 adds 0 even where its value is not finite.
    Each value ``f(a) = exp(a) / divisor`` is scored as ``f(a) - beta (a - mean)``, a
    control variate on the exponent (Glasserman 2004, section 4.1) whose mean ``E[a]`` and
    its ``gap`` come from one matrix exponential a row
    (:func:`~regimeweave.hjb._growth_mean`): ``beta = f(m)``, the slope of ``f`` at the
    sampled branch's mean exponent ``m = (mean - stay a_stay) / leave``, taken at ``mean``
    where leaving is rarer than :data:`RARE_LEAVE`; a start that cannot be left is scored
    exactly, with no control and a standard error of 0.  The slope is a constant, so the
    estimate stays unbiased and each path's value its own.  An error ``e`` in ``mean``
    moves the estimate by ``beta e``, which ``|beta| gap`` bounds apart from ``stderr``.  Raises
    :class:`OverflowError` with ``overflow[row]`` for the first row past the float range,
    and warns of nothing."""
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    horizon = market.horizon
    stay, leave = _first_jump_split(market.generator, regime, t_start, horizon)
    loading = solve_income_loading(market)
    rows = len(coefficients)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or NaN, which raises below
        stayed = start + _segment_sums(
            loading, coefficients, np.array([t_start]), np.array([horizon]), np.array([regime]), [0]
        )
        mean, gap, slope = np.zeros(rows), np.zeros(rows), np.zeros(rows)
        if leave:
            means, gap = _growth_mean(market, coefficients, t_start)
            mean = start + means[:, regime]
            # where leaving is so rare that the difference carries no digits, the sampled
            # branch weighs next to nothing and any finite slope will do
            tangent = (mean - (stay * stayed[:, 0] if stay else 0.0)) / leave if leave >= RARE_LEAVE else mean
            slope = np.exp(tangent) / divisor

        def controlled(a):
            return np.exp(a) / divisor - slope[:, None] * (a - mean[:, None])

        if leave:
            values = np.empty((rows, n_paths))
            for first, counts, starts, ends, states, _ in _simulate_chains(
                market.generator, regime, t_start, horizon, n_paths, rng, first_jump_by_end=True
            ):
                paths = np.cumsum(counts) - counts  # each path's first segment
                values[:, first : first + len(counts)] = controlled(
                    start + _segment_sums(loading, coefficients, starts, ends, states, paths)
                )
            sampled = map(_estimate, (stay * controlled(stayed) if stay else 0.0) + leave * values)
        else:  # every path stays: its one value, with no chain to draw and no mean of copies to round
            RngStream(rng.seed, rng.stream_id + (n_paths - 1) // BLOCK)  # the key _simulate_chains checks
            sampled = (MCEstimate(float(value), 0.0, n_paths) for value in controlled(stayed)[:, 0])
        estimates = [_finite(est, message) for est, message in zip(sampled, overflow)]
    return estimates, gap


def _block_head(mean_jumps: float) -> int:
    """Columns of a block's first exponential and uniform arrays, and of each
    extension: about three standard deviations past the expected jumps, so
    that most paths need no extension and few drawn variates go unread."""
    return int(min(JUMP_BLOCK, mean_jumps + 3.0 * np.sqrt(mean_jumps) + 4.0))


def _simulate_chains(
    generator: GeneratorMatrix, regime: int, t_start, t_end, n_paths: int, rng: RngStream,
    n_steps: int = 0, first_jump_by_end: bool = False,
):
    """Chain paths in blocks of ``BLOCK``, block ``b`` drawn from the Philox
    key ``[rng.seed, rng.stream_id + b]`` as the module docstring lays out,
    with two normals a step for ``n_steps`` uniform steps if that is positive.
    With ``first_jump_by_end`` each row's first jump is conditioned to land
    before ``t_end``: its exponential ``e`` maps to the waiting time
    ``-log1p(expm1(-e) * (1 - exp(-rate * (t_end - t_start)))) / rate``.

    The blocks of a sweep of up to ``SWEEP`` step through one jump loop, and
    the sweep's paths are laid out as one flat run of real segments: a path
    with ``n`` jumps owns ``n + 1`` segments, from ``t_start`` in the start
    state, from each jump in its destination, the last one ending at
    ``t_end``.  Yields ``(first, counts, starts, ends, states, normals)`` per
    chunk of whole consecutive paths holding at most ``SEGMENTS`` segments
    and steps (at least one path): path ``first + p`` owns the next
    ``counts[p]`` segments, segment ``s`` running from ``starts[s]`` to
    ``ends[s]`` in ``states[s]``, and ``normals[p]`` holds its ``(2,
    n_steps)`` normals, or is ``None`` without steps.  The rows past
    ``n_paths`` that a block simulates are dropped.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    _, leave = _first_jump_split(generator, regime, t_start, t_end)
    n_blocks = -(-n_paths // BLOCK)
    RngStream(rng.seed, rng.stream_id + n_blocks - 1)  # every block's key must be valid
    lam, cum = _jump_table(generator)
    cum_columns = np.ascontiguousarray(cum.T)  # row j: entry j of every state, for a fast take
    head = _block_head(lam.max() * (t_end - t_start))
    # one bit generator, set to each block's own state in turn: a re-keying costs a fraction of a new one
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)

    for first_block in range(0, n_blocks, SWEEP):
        blocks = range(first_block, min(first_block + SWEEP, n_blocks))
        n_rows = len(blocks) * BLOCK
        exps, unis = np.empty((n_rows, head)), np.empty((n_rows, head))
        saved = []  # each block's state after its draws so far
        for row, b in zip(range(0, n_rows, BLOCK), blocks):
            bits.state = _fresh_state(rng.seed, rng.stream_id + b)
            exps[row : row + BLOCK] = gen.standard_exponential((BLOCK, head))
            unis[row : row + BLOCK] = gen.random((BLOCK, head))
            saved.append(bits.state)
        alive = np.arange(n_rows) if lam[regime] != 0.0 else np.empty(0, dtype=np.int64)
        t, state = np.full(len(alive), float(t_start)), np.full(len(alive), regime)
        steps = []  # (rows, arrival times, destinations) of each jump in turn
        while alive.size:
            column = len(steps) % head
            if steps and column == 0:  # past the drawn width: each block extends its moving rows
                cuts = np.searchsorted(alive, np.arange(len(saved) + 1) * BLOCK)
                for b, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
                    if lo < hi:
                        bits.state = saved[b]
                        exps[alive[lo:hi]] = gen.standard_exponential((hi - lo, head))
                        unis[alive[lo:hi]] = gen.random((hi - lo, head))
                        saved[b] = bits.state
            if first_jump_by_end and not steps:
                t = t - np.log1p(np.expm1(-exps[alive, column]) * leave) / lam[state]
            else:
                t = t + exps[alive, column] / lam[state]
            keep = t < t_end
            alive, t, state = alive[keep], t[keep], state[keep]
            entries = cum_columns.take(state, axis=1)
            state = (entries <= unis[alive, column] * entries[-1]).sum(axis=0)
            steps.append((alive, t, state))
            moving = lam[state] != 0.0
            if not moving.all():
                alive, t, state = alive[moving], t[moving], state[moving]
        del exps, unis  # free the sweep's draws while its paths are laid out and consumed
        jump = np.repeat(np.arange(1, len(steps) + 1), [len(step[0]) for step in steps])
        no_steps = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))
        rows, arrivals, destinations = (np.concatenate(part) for part in zip(no_steps, *steps))
        steps.clear()
        counts = np.bincount(rows, minlength=n_rows) + 1
        ends_at = np.cumsum(counts)  # one past each row's last segment
        offsets = ends_at - counts
        jump += offsets[rows]  # jump m of a row starts its segment m
        starts = np.empty(ends_at[-1])
        states = np.empty(ends_at[-1], dtype=np.int64)
        starts[offsets], states[offsets] = t_start, regime
        starts[jump], states[jump] = arrivals, destinations
        del jump, rows, arrivals, destinations
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[ends_at - 1] = t_end
        kept = min(n_rows, n_paths - first_block * BLOCK)
        normals = None
        if n_steps:
            normals = np.empty((kept, 2, n_steps))
            for row, state in zip(range(0, kept, BLOCK), saved):
                bits.state = state
                normals[row : row + BLOCK] = gen.standard_normal((min(BLOCK, kept - row), 2, n_steps))
        work = np.cumsum(counts + n_steps)  # segments and steps through each row
        lo = 0
        while lo < kept:  # as many whole paths as fit in SEGMENTS segments and steps, at least one
            fit = np.searchsorted(work[lo:kept], work[lo] - counts[lo] - n_steps + SEGMENTS, "right")
            hi = lo + max(1, int(fit))
            segments = slice(offsets[lo], ends_at[hi - 1])
            yield (first_block * BLOCK + lo, counts[lo:hi], starts[segments], ends[segments],
                   states[segments], normals[lo:hi] if n_steps else None)
            lo = hi


def _fresh_state(seed: int, stream_id: int) -> dict:
    """The state a Philox bit generator keyed ``[seed, stream_id]`` starts in, so that
    drawing from it matches ``RngStream(seed, stream_id).generator()`` draw for draw."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _finite(estimate: MCEstimate, message: str) -> MCEstimate:
    """``estimate``, or :class:`OverflowError` with ``message`` if it left the float range."""
    if not np.isfinite([estimate.value, estimate.stderr]).all():
        raise OverflowError(message)
    return estimate


def _estimate(values: NDArray[np.float64]) -> MCEstimate:
    n = len(values)
    return MCEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(n)),
        n_paths=n,
    )
