"""Tests for the path-sampling estimators of the value-function pieces."""

from __future__ import annotations

import bisect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad_vec

from regimeweave import montecarlo, portfolio
from regimeweave.cli import load_config
from regimeweave.hjb import (
    MarketModel,
    growth_coefficients,
    solve_income_loading,
    solve_regime_factors,
)
from regimeweave.markov import RegimePath, RngStream, simulate_path, validate_generator
from regimeweave.montecarlo import (
    MCEstimate,
    NonZeroRho,
    estimate_regime_factor,
    estimate_value_factor,
    estimate_value_mc,
)
from regimeweave.portfolio import (
    _wealth_rows,
    evaluate_policy,
    optimal_strategy,
    simulate_wealth,
)

REPO = Path(__file__).resolve().parents[1]
Q2 = validate_generator([[-0.5, 0.5], [0.3, -0.3]])


def make_market(**overrides):
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=[0.08, 0.03],
        stock_vol=[0.25, 0.4],
        income_drift=[0.02, -0.01],
        income_vol=[0.12, 0.2],
        generator=Q2,
    )
    params.update(overrides)
    return MarketModel(**params)


def single_regime_market(**overrides):
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=[0.08],
        stock_vol=[0.25],
        income_drift=[0.02],
        income_vol=[0.12],
        generator=validate_generator([[0.0]]),
    )
    params.update(overrides)
    return MarketModel(**params)


def twin_regime_market(**overrides):
    """Two regimes with identical parameters: the chain's jumps change nothing."""
    params = dict(
        stock_drift=[0.08, 0.08],
        stock_vol=[0.25, 0.25],
        income_drift=[0.02, 0.02],
        income_vol=[0.12, 0.12],
    )
    params.update(overrides)
    return make_market(**params)


def closed_form_factor(market, t_start, income_start, regime=0):
    """Wealth-free factor on a path that stays in ``regime``: lognormal
    expectation in closed form."""
    loading = solve_income_loading(market)
    coeffs = growth_coefficients(market)
    exponent = (
        loading.value(t_start) * income_start
        + market.income_drift[regime] * loading.integral(t_start, market.horizon)
        + coeffs.quadratic[regime] * loading.square_integral(t_start, market.horizon)
        + coeffs.constant[regime] * (market.horizon - t_start)
    )
    return float(np.exp(exponent))


def merged_time_grid(path, n_steps):
    """The oracle of a path's jump-refined grid: the uniform grid over its span
    united with its jumps, equal times merged, and the regime of each interval
    the state after every jump at or before the interval's start."""
    uniform = np.linspace(path.t_start, path.t_end, n_steps + 1)
    times = np.union1d(uniform, path.times[1:])
    regimes = path.states[np.searchsorted(path.times, times[:-1], side="right") - 1]
    return times, regimes


def grid_rows(market, regime, n_paths, n_steps, rng):
    """``((times, regimes), (jump times, states))`` of each path of
    ``_simulate_grids``: its grid and step regimes, and its chain path from
    ``_simulate_chains`` on the same stream."""
    chains = montecarlo._simulate_chains(market.generator, regime, 0.0, market.horizon, n_paths, rng, n_steps, 2)
    paths = []
    for _, counts, starts, _, states, _ in chains:
        ends_at = np.cumsum(counts)
        paths += [(starts[lo:hi], states[lo:hi]) for lo, hi in zip(ends_at - counts, ends_at)]
    grids = []
    for lengths, times, regimes, _ in montecarlo._simulate_grids(market, regime, 0.0, n_paths, n_steps, rng):
        grids += [(times[r, :n], regimes[r, : n - 1]) for r, n in enumerate(lengths)]
    assert len(grids) == len(paths) == n_paths
    return list(zip(grids, paths))


class TestMergedTimeGrid:
    def test_contains_uniform_nodes_and_jumps(self):
        for (times, regimes), (chain_times, _) in grid_rows(make_market(), 0, 300, 16, RngStream(seed=3)):
            assert np.all(np.isin(np.linspace(0.0, 2.0, 17), times))
            assert np.all(np.isin(chain_times, times))
            assert np.all(np.diff(times) > 0)
            assert len(regimes) == len(times) - 1

    def test_regimes_constant_between_jumps(self):
        for (times, regimes), (chain_times, states) in grid_rows(make_market(), 1, 300, 64, RngStream(seed=9)):
            mid = 0.5 * (times[:-1] + times[1:])
            assert np.array_equal(regimes, states[np.searchsorted(chain_times, mid, side="right") - 1])


class TestEstimateRegimeFactor:
    def test_single_regime_is_exact(self):
        # no chain randomness: every path yields the same closed-form value
        market = single_regime_market()
        est = estimate_regime_factor(market, 0.0, 0, 16, RngStream(seed=1))
        coeffs = growth_coefficients(market)
        loading = solve_income_loading(market)
        expected = np.exp(
            coeffs.constant[0] * 2.0
            + coeffs.linear[0] * loading.integral(0.0, 2.0)
            + coeffs.quadratic[0] * loading.square_integral(0.0, 2.0)
        )
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_matches_ode_solution(self):
        market = make_market()
        table = solve_regime_factors(market)
        for regime in (0, 1):
            est = estimate_regime_factor(market, 0.0, regime, 4000, RngStream(seed=21))
            target = table.value(0.0, regime)
            assert est.stderr < 0.01 * target
            assert abs(est.value - target) < 4 * est.stderr

    def test_interior_start_time(self):
        market = make_market()
        table = solve_regime_factors(market)
        est = estimate_regime_factor(market, 1.3, 1, 3000, RngStream(seed=22))
        assert abs(est.value - table.value(1.3, regime=1)) < 4 * est.stderr

    def test_deterministic_given_stream(self):
        market = make_market()
        a = estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed=23))
        b = estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed=23))
        assert a == b
        c = estimate_regime_factor(market, 0.0, 0, 500, RngStream(seed=23, stream_id=7))
        assert c.value != a.value

    def test_argument_validation(self):
        market = make_market()
        with pytest.raises(ValueError, match="t_start"):
            estimate_regime_factor(market, 2.5, 0, 100, RngStream(seed=26))
        with pytest.raises(ValueError, match="two paths"):
            estimate_regime_factor(market, 0.0, 0, 1, RngStream(seed=26))


class TestEstimateValueFactor:
    def test_rejects_nonzero_correlation(self):
        market = make_market(correlation=0.4)
        with pytest.raises(NonZeroRho):
            estimate_value_factor(market, 0.0, 1.0, 0, 100, RngStream(seed=31))

    def test_deterministic_income_single_regime(self):
        market = single_regime_market(income_vol=[0.0])
        est = estimate_value_factor(market, 0.0, 1.0, 0, 4, RngStream(seed=32))
        assert est.value == pytest.approx(closed_form_factor(market, 0.0, 1.0), rel=1e-14)
        assert est.stderr == 0.0

    def test_gaussian_income_single_regime(self):
        # a regime that cannot be left takes only the closed-form branch
        market = single_regime_market()
        est = estimate_value_factor(market, 0.0, 1.0, 0, 4000, RngStream(seed=33))
        assert est.value == pytest.approx(closed_form_factor(market, 0.0, 1.0), rel=1e-14)
        assert est.stderr == 0.0

    @pytest.mark.parametrize("t_start", [0.0, 1.9])
    def test_gaussian_income_on_the_jump_branch(self, t_start):
        # every path jumps, between regimes that differ in nothing: given the
        # chain path the Gaussian income is integrated exactly, so every
        # path gives the closed form and only rounding varies
        market = twin_regime_market()
        est = estimate_value_factor(market, t_start, 1.0, 0, 4000, RngStream(seed=37))
        target = closed_form_factor(market, t_start, 1.0)
        assert est.value == pytest.approx(target, rel=1e-13)
        assert est.stderr <= 1e-14 * target

    def test_first_jump_lands_before_the_horizon(self):
        # at t 1.9 of 2 a plain sample would jump on about 3% of its paths
        market = make_market()
        for _, counts, _, _, _, _ in montecarlo._simulate_chains(
            market.generator, 1, 1.9, market.horizon, 300, RngStream(38), first_jump_by_end=True
        ):
            assert counts.min() >= 2

    def test_matches_separable_solution_two_regimes(self):
        market = make_market()
        table = solve_regime_factors(market)
        loading = solve_income_loading(market)
        y0 = 0.8
        for regime in (0, 1):
            est = estimate_value_factor(market, 0.0, y0, regime, 3000, RngStream(seed=35))
            target = float(np.exp(loading.value(0.0) * y0) * table.value(0.0, regime))
            assert abs(est.value - target) < 4 * est.stderr

    def test_interior_start(self):
        market = make_market()
        table = solve_regime_factors(market)
        loading = solve_income_loading(market)
        est = estimate_value_factor(market, 0.9, -0.3, 1, 3000, RngStream(seed=36))
        target = float(np.exp(loading.value(0.9) * -0.3) * table.value(0.9, regime=1))
        assert abs(est.value - target) < 4 * est.stderr


class TestEstimateValueMc:
    def test_scales_value_factor(self):
        market = make_market()
        factor = estimate_value_factor(market, 0.0, 1.0, 0, 400, RngStream(seed=41))
        value = estimate_value_mc(market, 0.0, 2.0, 1.0, 0, 400, RngStream(seed=41))
        gamma = market.risk_aversion
        scale = -np.exp(-gamma * 2.0 * np.exp(market.rate * market.horizon)) / gamma
        assert value.value == pytest.approx(scale * factor.value, rel=1e-15)
        assert value.stderr == pytest.approx(abs(scale) * factor.stderr, rel=1e-15)
        assert value.value < 0

    def test_matches_closed_form_value(self):
        market = make_market()
        table = solve_regime_factors(market)
        loading = solve_income_loading(market)
        x0, y0, regime = 1.5, 0.8, 1
        est = estimate_value_mc(market, 0.0, x0, y0, regime, 4000, RngStream(seed=42))
        gamma = market.risk_aversion
        target = (
            -np.exp(-gamma * x0 * np.exp(market.rate * market.horizon) + loading.value(0.0) * y0)
            / gamma
            * table.value(0.0, regime)
        )
        assert abs(est.value - target) < 4 * est.stderr

    def test_estimate_is_dataclass_with_counts(self):
        market = make_market()
        est = estimate_value_mc(market, 0.0, 1.0, 1.0, 0, 64, RngStream(seed=43))
        assert isinstance(est, MCEstimate)
        assert type(est.value) is float and type(est.stderr) is float
        assert est.n_paths == 64


# Stream contract: an estimator over n paths with stream ``rng`` equals, to
# the last bit, the same estimate computed one path at a time in plain loops
# over paths drawn in the block layout of the montecarlo module docstring:
# block b of BLOCK paths draws its (BLOCK, head) exponentials and uniforms,
# then an extension for the paths still moving each time they run past the
# drawn width, then its grid normals, all from Philox key [seed, sid + b].

CONTRACT_CHAINS = {
    "slow": ([[-0.5, 0.5], [0.3, -0.3]], 300),
    "absorbing": ([[-2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, -3.0]], 40),
    # about 1700 jumps a path, past the largest head of 1024 columns
    "past_block": ([[-1000.0, 1000.0], [800.0, -800.0]], 5),
}


def contract_market(chain, **overrides):
    rates, _ = CONTRACT_CHAINS[chain]
    n = len(rates)
    params = dict(
        rate=0.03,
        correlation=0.0,
        risk_aversion=1.5,
        horizon=2.0,
        stock_drift=np.linspace(0.08, 0.03, n),
        stock_vol=np.linspace(0.25, 0.4, n),
        income_drift=np.linspace(0.02, -0.01, n),
        income_vol=np.linspace(0.12, 0.2, n),
        generator=validate_generator(rates),
    )
    params.update(overrides)
    return MarketModel(**params)


def layout_paths(market, regime, t_start, n_paths, rng, n_steps=None, n_sets=0, first_jump_by_end=False):
    """``(path, normals)`` of each of ``n_paths`` paths, drawn block by block
    in the documented layout with a scalar loop over each path's jumps; with
    ``first_jump_by_end`` each path's first jump is conditioned to land
    before the horizon."""
    rates = market.generator.rates
    lam = (-np.diag(rates)).tolist()
    off = rates - np.diag(np.diag(rates))
    cum = [np.cumsum(off[i] / lam[i]).tolist() if lam[i] else None for i in range(len(lam))]
    t_end = market.horizon
    head = montecarlo._block_head(max(lam) * (t_end - t_start))
    out = []
    for b in range(-(-n_paths // montecarlo.BLOCK)):
        gen = np.random.Generator(np.random.Philox(key=[rng.seed, rng.stream_id + b]))
        block = range(montecarlo.BLOCK)
        exps, unis = gen.standard_exponential((len(block), head)), gen.random((len(block), head))
        draws = {r: (exps[r].tolist(), unis[r].tolist()) for r in block}
        if first_jump_by_end and lam[regime]:
            # the first waiting time, inverted from the exponential truncated at the horizon
            leave = -np.expm1(-lam[regime] * (t_end - t_start))
            first = t_start - np.log1p(np.expm1(-exps[:, 0].copy()) * leave) / lam[regime]
        times, states = [[float(t_start)] for _ in block], [[regime] for _ in block]
        moving = list(block) if lam[regime] else []
        while moving:
            still = []
            for r in moving:
                for e, u in zip(*draws[r]):
                    state = states[r][-1]
                    if first_jump_by_end and len(times[r]) == 1:
                        t = float(first[r])
                    else:
                        t = times[r][-1] + e / lam[state]
                    if t >= t_end:
                        break
                    destination = bisect.bisect_right(cum[state], u * cum[state][-1])
                    times[r].append(t)
                    states[r].append(destination)
                    if not lam[destination]:
                        break
                else:
                    still.append(r)
            moving = still
            if moving:  # one more draw for the paths still moving, in path order
                exps = gen.standard_exponential((len(moving), head))
                unis = gen.random((len(moving), head))
                draws = {r: (exps[i].tolist(), unis[i].tolist()) for i, r in enumerate(moving)}
        paths = [
            RegimePath(t_start, t_end, np.array(times[r]), np.array(states[r]), market.n_regimes)
            for r in block
        ]
        if n_sets:
            width = n_steps + max(path.n_jumps() for path in paths)
            normals = gen.standard_normal((n_sets, len(block), width))
        for r, path in enumerate(paths[: n_paths - b * len(block)]):
            if n_sets:
                n_grid = len(merged_time_grid(path, n_steps)[0]) - 1
                out.append((path, normals[:, r, :n_grid]))
            else:
                out.append((path, None))
    return out


def loop_estimate(values):
    values = np.asarray(values)
    return MCEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(len(values))),
        n_paths=len(values),
    )


def loop_exponent(market, path):
    """The path's integrated growth rate, its segment terms summed on their own."""
    coeffs = growth_coefficients(market)
    loading = solve_income_loading(market)
    starts, ends, states = path.segments()
    terms = (
        coeffs.constant[states] * (ends - starts)
        + coeffs.linear[states] * loading.integral(starts, ends)
        + coeffs.quadratic[states] * loading.square_integral(starts, ends)
    )
    return np.add.reduceat(terms, [0])[0]


def loop_regime_factor(market, path):
    """The closed form on the branch that never leaves the start regime, and
    the path's sample on the other, its first jump conditioned to land
    before the horizon."""
    regime = int(path.states[0])
    exits = market.generator.exit_rates()[regime] * (market.horizon - path.t_start)
    stay, leave = float(np.exp(-exits)), float(-np.expm1(-exits))
    jumping = float(np.exp(loop_exponent(market, path)))
    return stay * closed_form_factor(market, path.t_start, 0.0, regime) + leave * jumping


def loop_policy_utility(market, strategy, t_start, wealth_start, income_start, path):
    """Conditional expected utility of a strategy on one chain path, its
    segment integrals by adaptive Gauss-Kronrod quadrature, all segments of
    the path in one vector-valued ``quad_vec`` call."""
    r, horizon, rho = market.rate, market.horizon, market.correlation
    starts, ends, states = path.segments()
    span = ends - starts
    excess, vol = market.excess_return()[states], market.stock_vol[states]
    drift, income_vol = market.income_drift[states], market.income_vol[states]

    def discount(u):
        return np.exp(-r * (u - t_start))

    def annuity(u):  # integral of the discount from u to the horizon
        return (discount(u) - discount(horizon)) / r

    def integrands(s):
        u = starts + s * span
        position = strategy(u, states)
        d, k = discount(u), annuity(u)
        mean = d * position * excess + k * drift
        var = (d * position * vol + k * income_vol * rho) ** 2 + (k * income_vol) ** 2 * (1 - rho**2)
        return np.concatenate([mean * span, var * span])

    integrals, _ = quad_vec(integrands, 0.0, 1.0, epsabs=0.0, epsrel=1e-14, norm="max")
    mean = wealth_start + income_start * annuity(t_start) + integrals[: len(span)].sum()
    var = integrals[len(span) :].sum()
    scale = market.risk_aversion * np.exp(r * (horizon - t_start))
    return float(-np.exp(-scale * mean + scale**2 * var / 2.0) / market.risk_aversion)


@pytest.fixture(params=["whole_blocks", "chunks_of_3"])
def layout(request, monkeypatch):
    """The default layout, or blocks of three paths with two columns per
    draw, stepped two blocks a sweep, so that blocks split, calls span many
    sweeps and most paths need extension rounds, at the same column in
    different blocks; chunks of at most five segments hold a few paths each."""
    if request.param == "chunks_of_3":
        monkeypatch.setattr(montecarlo, "BLOCK", 3)
        monkeypatch.setattr(montecarlo, "SWEEP", 2)
        monkeypatch.setattr(montecarlo, "SEGMENTS", 5)
        monkeypatch.setattr(montecarlo, "_block_head", lambda mean_jumps: 2)


@pytest.mark.parametrize("chain", list(CONTRACT_CHAINS))
class TestStreamContract:
    @pytest.mark.parametrize("first_jump_by_end", [False, True])
    def test_flat_segments(self, chain, layout, first_jump_by_end):
        # each path's run of flat segments is its chain path's segments, in path order
        market = contract_market(chain)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            rng = RngStream(65, 2)
            paths = layout_paths(market, regime, 0.3, n, rng, first_jump_by_end=first_jump_by_end)
            chunks = montecarlo._simulate_chains(
                market.generator, regime, 0.3, market.horizon, n, rng, first_jump_by_end=first_jump_by_end
            )
            got = []
            for first, counts, starts, ends, states, normals in chunks:
                assert first == len(got) and normals is None
                ends_at = np.cumsum(counts)
                assert ends_at[-1] == len(starts) == len(ends) == len(states)
                for lo, hi in zip(ends_at - counts, ends_at):
                    got.append((starts[lo:hi], ends[lo:hi], states[lo:hi]))
            assert len(got) == n
            for (path, _), segments in zip(paths, got):
                for expected, flat in zip(path.segments(), segments):
                    assert np.array_equal(flat, expected)

    def test_regime_factor(self, chain, layout):
        market = contract_market(chain)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.3, n, RngStream(61, 5), first_jump_by_end=True)
            expected = loop_estimate([loop_regime_factor(market, path) for path, _ in paths])
            assert estimate_regime_factor(market, 0.3, regime, n, RngStream(61, 5)) == expected

    @pytest.mark.parametrize("with_income", [True, False])
    def test_value_factor(self, chain, layout, with_income):
        # a zero income start makes the income factor exp(m(t) y) exactly one
        market = contract_market(chain)
        n = CONTRACT_CHAINS[chain][1]
        income_start = 0.7 if with_income else 0.0
        income = float(np.exp(solve_income_loading(market).value(0.4) * income_start))
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.4, n, RngStream(62), first_jump_by_end=True)
            factor = loop_estimate([loop_regime_factor(market, path) for path, _ in paths])
            got = estimate_value_factor(market, 0.4, income_start, regime, n, RngStream(62))
            assert got == MCEstimate(income * factor.value, income * factor.stderr, n)

    def test_policy(self, chain, layout):
        market = contract_market(chain, correlation=0.3)
        strategy = optimal_strategy(market).scaled(0.8)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.2, n, RngStream(63, 9))
            expected = loop_estimate(
                [loop_policy_utility(market, strategy, 0.2, 1.0, 0.5, path) for path, _ in paths]
            )
            got = evaluate_policy(market, strategy, 0.2, 1.0, 0.5, regime, n, RngStream(63, 9))
            # three Gauss-Legendre nodes a segment leave up to 4.2e-11 of the
            # value here, on segments up to 1.8 long; one path off the layout
            # moves the mean by orders of magnitude more
            assert got.n_paths == n
            assert abs(got.value - expected.value) <= 2e-10 * abs(expected.value)
            assert abs(got.stderr - expected.stderr) <= 2e-10 * abs(expected.value)

    def test_wealth_paths(self, chain, layout):
        market = contract_market(chain, correlation=0.3)
        strategy = optimal_strategy(market).scaled(0.8)
        n = CONTRACT_CHAINS[chain][1]
        for regime in range(market.n_regimes):
            paths = layout_paths(market, regime, 0.2, n, RngStream(63, 9), 13, 2)
            got = simulate_wealth(market, strategy, 0.2, 1.0, 0.5, regime, n, 13, RngStream(63, 9))
            assert len(got) == n
            for row, (path, shocks) in zip(got, paths):
                times, regimes = merged_time_grid(path, 13)
                wealth, income, positions = _wealth_rows(
                    market, strategy, 0.2, 1.0, 0.5, times, regimes, *shocks
                )
                assert np.array_equal(row.times, times)
                assert np.array_equal(row.regimes, regimes)
                assert np.array_equal(row.wealth, wealth)
                assert np.array_equal(row.income, income)
                assert np.array_equal(row.positions, positions)


@pytest.mark.parametrize("chain", ["slow", "absorbing"])
def test_value_factor_is_the_income_factor_times_its_value_at_zero_income(chain):
    # the rho0 grid of `solve` samples each (t, regime) at income 0 and scales it by
    # exp(m(t) y); an income-dependent term in the estimator would break that
    market = contract_market(chain)
    n = CONTRACT_CHAINS[chain][1]
    loading = solve_income_loading(market)
    for t_start in (0.0, 0.4, 1.9):
        for regime in range(market.n_regimes):
            factor = estimate_regime_factor(market, t_start, regime, n, RngStream(63, 2))
            for income_start in (-1.5, -0.3, 0.0, 0.7, 2.0):
                got = estimate_value_factor(market, t_start, income_start, regime, n, RngStream(63, 2))
                income = float(np.exp(loading.value(t_start) * income_start))
                assert got == MCEstimate(income * factor.value, income * factor.stderr, n)


@pytest.mark.parametrize("chain", ["slow", "absorbing"])
def test_paths_are_a_prefix_of_more_paths(chain, layout):
    # path k's grid and normals do not depend on how many paths follow it
    market = contract_market(chain)
    n = 2 * montecarlo.BLOCK - 2

    def rows(n_paths):
        out = []
        for lengths, times, regimes, normals in montecarlo._simulate_grids(
            market, 0, 0.1, n_paths, 11, RngStream(64, 3)
        ):
            for r, length in enumerate(lengths):
                steps = length - 1
                out.append((times[r, :length], regimes[r, :steps], normals[:, r, :steps]))
        return out

    fewer, more = rows(n), rows(n + 5)
    assert len(fewer) == n and len(more) == n + 5
    for (times_a, regimes_a, z_a), (times_b, regimes_b, z_b) in zip(fewer, more):
        assert np.array_equal(times_a, times_b)
        assert np.array_equal(regimes_a, regimes_b)
        assert np.array_equal(z_a, z_b)


@pytest.mark.parametrize("chain, t_start", [("slow", 0.1), ("absorbing", 0.1), ("past_block", 1.97)])
def test_policy_values_are_a_prefix_of_more_paths(chain, t_start, layout, monkeypatch):
    # path k's conditional utility depends neither on how many paths follow
    # it nor on the paths it is evaluated with: the second run evaluates every
    # path alone, and past_block paths of about 25 jumps would regroup a sum
    # taken with another path's segments
    market = contract_market(chain, correlation=0.3)
    strategies = [optimal_strategy(market), optimal_strategy(market).scaled(0.8)]
    n = 2 * montecarlo.BLOCK - 2
    seen = []

    def recording_estimate(values):
        seen.append(values.copy())
        return montecarlo._estimate(values)

    monkeypatch.setattr(portfolio, "_estimate", recording_estimate)
    portfolio._evaluate_policies(market, strategies, t_start, 1.0, 0.3, 0, n, RngStream(64, 3))
    monkeypatch.setattr(montecarlo, "SEGMENTS", 1)
    portfolio._evaluate_policies(market, strategies, t_start, 1.0, 0.3, 0, n + 5, RngStream(64, 3))
    fewer, more = seen[:2], seen[2:]
    for values_a, values_b in zip(fewer, more):
        assert len(values_a) == n and len(values_b) == n + 5
        assert np.array_equal(values_a, values_b[:n])


def test_policy_values_sum_each_path_alone(monkeypatch):
    # about 54 jumps a path on the copula config's fast chain: the rounding of
    # a sum of that many terms depends on its order, which a sum running
    # across the paths of a chunk would change; with one segment a chunk
    # every path is summed alone
    market = load_config(REPO / "configs" / "copula.json").market
    strategies = [optimal_strategy(market), optimal_strategy(market).scaled(0.5)]
    seen = []

    def recording_estimate(values):
        seen.append(values.copy())
        return montecarlo._estimate(values)

    monkeypatch.setattr(portfolio, "_estimate", recording_estimate)
    portfolio._evaluate_policies(market, strategies, 0.0, 1.0, 0.3, 0, 300, RngStream(66))
    monkeypatch.setattr(montecarlo, "SEGMENTS", 1)
    portfolio._evaluate_policies(market, strategies, 0.0, 1.0, 0.3, 0, 300, RngStream(66))
    chunks = montecarlo._simulate_chains(market.generator, 0, 0.0, market.horizon, 300, RngStream(66))
    assert np.concatenate([counts for _, counts, _, _, _, _ in chunks]).min() > 8
    for together, alone in zip(seen[:2], seen[2:]):
        assert np.array_equal(together, alone)


def test_past_block_chain_crosses_the_block():
    # past simulate_path's 1024-variate block, and past the largest head of a block
    market = contract_market("past_block")
    path = simulate_path(market.generator, 0, 0.3, market.horizon, RngStream(61, 5))
    assert path.n_jumps() > 1024
    head = montecarlo._block_head(-market.generator.rates.min() * (market.horizon - 0.3))
    chunks = montecarlo._simulate_chains(market.generator, 0, 0.3, market.horizon, 5, RngStream(61, 5))
    n_jumps = np.concatenate([counts - 1 for _, counts, _, _, _, _ in chunks])
    assert head == 1024 and len(n_jumps) == 5 and n_jumps.min() > head


def test_group_size_invariance(monkeypatch):
    market = make_market(correlation=0.2)
    strategy = optimal_strategy(market)
    market0 = make_market()

    def estimates():
        return (
            estimate_regime_factor(market, 0.0, 0, 300, RngStream(24)),
            estimate_value_factor(market0, 0.1, 0.4, 1, 300, RngStream(25)),
            evaluate_policy(market, strategy, 0.0, 1.0, 0.3, 1, 300, RngStream(26)),
        )

    base = estimates()
    for segments in (1, 7, 64, 10**6):
        for sweep in range(1, 8):
            monkeypatch.setattr(montecarlo, "SEGMENTS", segments)
            monkeypatch.setattr(montecarlo, "SWEEP", sweep)
            assert estimates() == base, (segments, sweep)


def test_stream_ids_must_stay_in_range():
    # the last block's key must fit: one block of 128 paths at the top id passes
    market = contract_market("slow")
    estimate_regime_factor(market, 0.0, 0, 128, RngStream(1, 2**64 - 1))
    with pytest.raises(ValueError, match="stream_id"):
        estimate_regime_factor(market, 0.0, 0, 129, RngStream(1, 2**64 - 1))


def test_memory_does_not_grow_with_the_path_count():
    # a call steps at most SWEEP blocks at a time, so its peak is that of one
    # sweep; about 54 jumps a path on the copula config's fast chain
    market = load_config(REPO / "configs" / "copula.json").market

    def peak(n_paths):
        tracemalloc.start()
        try:
            estimate_regime_factor(market, 0.0, 0, n_paths, RngStream(71))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_sweep = peak(montecarlo.SWEEP * montecarlo.BLOCK)
    assert peak(20000) <= 1.5 * one_sweep


def check_merged_grids(monkeypatch, market, t_start, n_steps, counts, starts, states):
    """``_simulate_grids`` on one chunk of flat chain paths, given in place of
    ``_simulate_chains``' own, against the oracle row by row."""
    normals = np.zeros((2, len(counts), n_steps + counts.max() - 1))
    chunk = (0, counts, starts, None, states, normals)
    monkeypatch.setattr(montecarlo, "_simulate_chains", lambda *args: iter([chunk]))
    grids = montecarlo._simulate_grids(market, 0, t_start, len(counts), n_steps, RngStream(0))
    ((lengths, grids, regimes, _),) = grids
    ends_at = np.cumsum(counts)
    for i, (lo, hi) in enumerate(zip(ends_at - counts, ends_at)):
        path = RegimePath(t_start, market.horizon, starts[lo:hi], states[lo:hi], market.n_regimes)
        expected_grid, expected_regimes = merged_time_grid(path, n_steps)
        assert lengths[i] == len(expected_grid)
        assert np.array_equal(grids[i, : lengths[i]], expected_grid)
        assert np.all(grids[i, lengths[i] :] == market.horizon)
        assert np.array_equal(regimes[i, : lengths[i] - 1], expected_regimes)
        assert np.all(regimes[i, lengths[i] - 1 :] == expected_regimes[-1])


def test_batched_grids_match_merged_time_grid_with_ties(monkeypatch):
    # (jumps, states they land in) from state 0 on the absorbing chain, nodes
    # every 0.25: a jump on a node, two equal jumps, equal jumps on a node, a
    # path with no jumps, one absorbed in state 1, jumps near both ends and at
    # the start; equal jumps land in different states, so a merge that keeps
    # the wrong one shows
    paths = [
        ([0.3, 0.7], [2, 0]), ([0.5], [2]), ([0.6, 0.6], [2, 0]), ([1.25, 1.25, 1.25], [2, 0, 1]),
        ([], []), ([0.4, 0.9], [2, 1]), ([0.0001, 1.9999], [1, 0]), ([0.25, 0.3, 0.3, 1.0], [2, 0, 2, 0]),
        ([0.0, 0.1], [2, 0]),
    ]
    counts = np.array([1 + len(jumps) for jumps, _ in paths])
    starts = np.concatenate([[0.0, *jumps] for jumps, _ in paths])
    states = np.concatenate([[0, *landed] for _, landed in paths])
    check_merged_grids(monkeypatch, contract_market("absorbing"), 0.0, 8, counts, starts, states)


@pytest.mark.parametrize("chain", ["slow", "absorbing", "past_block"])
def test_merged_grids_of_tied_chain_paths(chain, monkeypatch):
    # real chain paths, then the same paths with jumps snapped onto nearby
    # nodes and onto the jump before them
    market = contract_market(chain)
    uniform = np.linspace(0.3, market.horizon, 14)
    rng = np.random.default_rng(5)
    for _, counts, starts, _, states, _ in list(montecarlo._simulate_chains(
        market.generator, 0, 0.3, market.horizon, 40, RngStream(67)
    )):
        check_merged_grids(monkeypatch, market, 0.3, 13, counts, starts, states)
        jumps = np.ones(len(starts), dtype=bool)
        jumps[np.cumsum(counts) - counts] = False
        jumps = np.flatnonzero(jumps)
        snapped = starts.copy()
        # onto the node at or below, where that keeps the path in time order
        node = uniform[np.searchsorted(uniform, starts[jumps], side="right") - 1]
        on_node = (rng.random(len(jumps)) < 0.3) & (node >= starts[jumps - 1])
        snapped[jumps[on_node]] = node[on_node]
        # onto the jump before, where there is one
        repeat = jumps[(rng.random(len(jumps)) < 0.3) & np.isin(jumps - 1, jumps)]
        snapped[repeat] = snapped[repeat - 1]
        assert np.any(snapped != starts)
        check_merged_grids(monkeypatch, market, 0.3, 13, counts, snapped, states)
