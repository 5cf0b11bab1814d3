"""Tests for CTMC generators, embedded chains, simulation, and exp(Qt)."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from regimeweave.markov import (
    AbsorbingState,
    InvalidInput,
    NegativeOffDiagonal,
    NonSquare,
    Reducible,
    RngStream,
    RowSumViolation,
    embedded_chain,
    simulate_path,
    stationary_distribution,
    transition_probabilities,
    validate_generator,
)

# Two-state workhorse: rates 0.5 up, 0.3 down.
# pi solves pi0 * 0.5 = pi1 * 0.3, so pi = (3/8, 5/8).
Q2 = [[-0.5, 0.5], [0.3, -0.3]]
PI2 = np.array([0.375, 0.625])

Q3 = [
    [-0.7, 0.5, 0.2],
    [0.3, -0.4, 0.1],
    [0.2, 0.2, -0.4],
]


class TestValidateGenerator:
    def test_accepts_clean_matrix(self):
        g = validate_generator(Q2)
        assert g.n_states == 2
        assert_allclose(g.rates, Q2)
        assert_allclose(g.rates.sum(axis=1), 0.0, atol=0)

    def test_repairs_diagonal_within_tolerance(self):
        q = np.array(Q2)
        q[0, 0] += 3e-10  # row sum off by less than 1e-9
        g = validate_generator(q)
        assert g.rates.sum(axis=1)[0] == 0.0
        assert_allclose(g.rates[0, 0], -0.5)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            validate_generator([[-0.5, 0.5]])
        with pytest.raises(NonSquare):
            validate_generator([1.0, -1.0])

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_generator([[-0.5, 0.5], [-0.1, 0.1]])

    def test_rejects_row_sum_violation(self):
        with pytest.raises(RowSumViolation):
            validate_generator([[-0.5, 0.6], [0.3, -0.3]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            validate_generator([[-np.inf, np.inf], [0.3, -0.3]])

    def test_result_is_read_only(self):
        g = validate_generator(Q2)
        with pytest.raises(ValueError):
            g.rates[0, 0] = 1.0

    def test_exit_rates(self):
        g = validate_generator(Q3)
        assert_allclose(g.exit_rates(), [0.7, 0.4, 0.4])


class TestEmbeddedChain:
    def test_known_rows(self):
        p = embedded_chain(validate_generator(Q3))
        # row i is rates divided by exit rate, zero on the diagonal
        assert_allclose(p.probs[0], [0.0, 5 / 7, 2 / 7])
        assert_allclose(p.probs[1], [0.75, 0.0, 0.25])
        assert_allclose(p.probs[2], [0.5, 0.5, 0.0])

    def test_two_state_is_flip(self):
        p = embedded_chain(validate_generator(Q2))
        assert_allclose(p.probs, [[0.0, 1.0], [1.0, 0.0]])

    def test_absorbing_state_rejected(self):
        with pytest.raises(AbsorbingState):
            embedded_chain(validate_generator([[0.0, 0.0], [0.3, -0.3]]))

class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        pi = stationary_distribution(validate_generator(Q2))
        assert_allclose(pi, PI2, atol=1e-14)

    def test_balance_and_normalization(self):
        g = validate_generator(Q3)
        pi = stationary_distribution(g)
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        assert_allclose(pi @ g.rates, 0.0, atol=1e-14)
        assert np.all(pi > 0)

    def test_reducible_rejected(self):
        block = [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
        with pytest.raises(Reducible):
            stationary_distribution(validate_generator(block))

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_fast_chain_is_not_reducible(self, scale):
        # the residual check is relative to the rates, so time units do not matter
        for rates in (Q3, [[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [2.0, 2.0, -4.0]]):
            slow = stationary_distribution(validate_generator(rates))
            fast = stationary_distribution(validate_generator(np.array(rates) * scale))
            assert_allclose(fast, slow, rtol=1e-10)

    @pytest.mark.parametrize("fast, coupling", [(1e6, 1e-7), (1e3, 1e-9), (1.0, 1e-12), (1.0, 1.0)])
    def test_nearly_decoupled_fast_pairs_keep_their_uniform_law(self, fast, coupling):
        # two fast pairs joined by a slow rate: the rate matrix is symmetric, so the
        # law is exactly uniform however slow the coupling; a residual relative to the
        # fast rates cannot see an error along the slow direction, so check every entry
        pair = np.array([[-fast, fast], [fast, -fast]])
        rates = np.kron(np.eye(2), pair) + coupling * (np.fliplr(np.eye(4)) - np.eye(4))
        pi = stationary_distribution(validate_generator(rates))
        assert np.abs(pi - 0.25).max() <= 4 * np.finfo(float).eps

    def test_transient_state_rejected(self):
        # a unique law exists, but it leaves state 0 empty: not strictly positive
        for rates in ([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [0.0, 3.0, -3.0]],
                      [[-2.0, 2.0, 0.0], [3.0, -3.0, 0.0], [1.0, 0.0, -1.0]]):
            with pytest.raises(Reducible):
                stationary_distribution(validate_generator(rates))

    def test_fast_reducible_still_rejected(self):
        block = np.kron(np.eye(2), [[-1.0, 1.0], [1.0, -1.0]]) * 1e6
        with pytest.raises(Reducible):
            stationary_distribution(validate_generator(block))


class TestTransitionProbabilities:
    def test_identity_at_zero(self):
        p = transition_probabilities(validate_generator(Q3), 0.0)
        assert_allclose(p.probs, np.eye(3))

    def test_two_state_closed_form(self):
        # eigenvalues 0 and -(0.5 + 0.3); spectral form of exp(Qt)
        g = validate_generator(Q2)
        for t in (0.1, 1.0, 5.0):
            decay = np.exp(-0.8 * t)
            expected = np.array(
                [
                    [0.375 + 0.625 * decay, 0.625 - 0.625 * decay],
                    [0.375 - 0.375 * decay, 0.625 + 0.375 * decay],
                ]
            )
            assert_allclose(transition_probabilities(g, t).probs, expected, atol=1e-13)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5):
            q = rng.uniform(0.0, 2.0, size=(n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            g = validate_generator(q)
            for t in (0.05, 0.7, 3.0, 40.0):
                assert_allclose(
                    transition_probabilities(g, t).probs, expm(q * t), atol=1e-12
                )

    def test_fast_chains_stay_stochastic(self):
        # tens of squarings compound the rounding of the row sums past the
        # 1e-12 that TransitionMatrix checks, unless each squaring renormalizes
        fast = np.array([[-1e6, 1e6], [2e6, -2e6]])
        p = transition_probabilities(validate_generator(fast), 5.0).probs
        # exp(-3e6 t) leaves the stationary law in every row
        assert_allclose(p, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], rtol=0, atol=1e-15)
        dense = np.random.default_rng(8).uniform(0.5e4, 1.5e4, size=(4, 4))
        np.fill_diagonal(dense, 0.0)
        np.fill_diagonal(dense, -dense.sum(axis=1))
        p = transition_probabilities(validate_generator(dense), 5.0).probs
        assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert_allclose(p, expm(dense * 5.0), rtol=0, atol=1e-11)

    def test_rows_stochastic_and_nonnegative(self):
        g = validate_generator(Q3)
        p = transition_probabilities(g, 12.0).probs
        assert np.all(p >= 0)
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-14)

    def test_semigroup_property(self):
        g = validate_generator(Q3)
        p1 = transition_probabilities(g, 0.4).probs
        p2 = transition_probabilities(g, 1.1).probs
        p12 = transition_probabilities(g, 1.5).probs
        assert_allclose(p1 @ p2, p12, atol=1e-12)

    def test_long_horizon_reaches_stationary(self):
        g = validate_generator(Q3)
        pi = stationary_distribution(g)
        p = transition_probabilities(g, 200.0).probs
        assert_allclose(p, np.tile(pi, (3, 1)), atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            transition_probabilities(validate_generator(Q2), -1.0)


class TestSimulatePath:
    def test_reproducible_for_same_stream(self):
        g = validate_generator(Q3)
        a = simulate_path(g, 0, 0.0, 50.0, RngStream(seed=7, stream_id=3))
        b = simulate_path(g, 0, 0.0, 50.0, RngStream(seed=7, stream_id=3))
        assert_allclose(a.times, b.times, atol=0)
        assert np.array_equal(a.states, b.states)

    def test_streams_differ(self):
        g = validate_generator(Q3)
        a = simulate_path(g, 0, 0.0, 50.0, RngStream(seed=7, stream_id=0))
        b = simulate_path(g, 0, 0.0, 50.0, RngStream(seed=7, stream_id=1))
        assert a.n_jumps() != b.n_jumps() or not np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("top", [2**64 - 1, 2**64 - 2, 2**63 + 1])
    def test_top_ids_keep_their_key(self, top):
        # every 64-bit id reaches Philox exactly, none collapses onto another
        for stream in (RngStream(seed=1, stream_id=top), RngStream(seed=top, stream_id=1)):
            key = stream.generator().bit_generator.state["state"]["key"]
            assert [int(k) for k in key] == [stream.seed, stream.stream_id]

    def test_path_structure(self):
        g = validate_generator(Q2)
        path = simulate_path(g, 1, 0.0, 30.0, RngStream(seed=11))
        assert path.times[0] == 0.0
        assert path.states[0] == 1
        assert np.all(np.diff(path.times) > 0)
        assert path.times[-1] < 30.0
        # two-state chain always alternates
        assert np.all(np.diff(path.states) != 0)

    def test_state_at_and_segments(self):
        g = validate_generator(Q2)
        path = simulate_path(g, 0, 0.0, 10.0, RngStream(seed=5))
        starts, ends, states = path.segments()
        assert ends[-1] == 10.0
        assert_allclose(starts[1:], ends[:-1], atol=0)
        mid = 0.5 * (starts + ends)
        at = np.searchsorted(path.times, np.append(mid, 0.0), side="right") - 1
        assert list(path.states[at]) == [*states, 0]

    def test_occupancy_near_stationary(self):
        g = validate_generator(Q3)
        path = simulate_path(g, 0, 0.0, 20_000.0, RngStream(seed=3))
        pi = stationary_distribution(g)
        assert_allclose(path.occupancy(), pi, atol=0.01)

    def test_holding_time_means(self):
        # pool holding times per state over a long run; mean ~ 1/exit_rate
        g = validate_generator(Q3)
        path = simulate_path(g, 0, 0.0, 30_000.0, RngStream(seed=19))
        starts, ends, states = path.segments()
        holds = ends - starts
        lam = g.exit_rates()
        for i in range(3):
            observed = holds[:-1][states[:-1] == i].mean()  # last segment is censored
            assert observed == pytest.approx(1.0 / lam[i], rel=0.03)

    def test_paths_crossing_block_boundary(self):
        # reproducible even when the jump count exceeds one draw block
        g = validate_generator(Q3)
        a = simulate_path(g, 0, 0.0, 6000.0, RngStream(seed=2))
        b = simulate_path(g, 0, 0.0, 6000.0, RngStream(seed=2))
        assert np.array_equal(a.states, b.states)
        assert a.n_jumps() > 1024

    def test_bad_arguments(self):
        g = validate_generator(Q2)
        with pytest.raises(ValueError):
            simulate_path(g, 5, 0.0, 1.0, RngStream(seed=1))
        with pytest.raises(ValueError):
            simulate_path(g, 0, 1.0, 1.0, RngStream(seed=1))


class TestRngStream:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream(seed=-1)
        with pytest.raises(ValueError):
            RngStream(seed=0, stream_id=2**64)

    def test_rejects_non_integral_keys(self):
        # a float or bool key would be truncated onto an integer key's stream
        for bad in (1.5, np.float64(2.7), True, np.bool_(False), "3"):
            for kwargs, field in (({"seed": bad}, "seed"), ({"seed": 1, "stream_id": bad}, "stream_id")):
                with pytest.raises(InvalidInput) as err:
                    RngStream(**kwargs)
                assert [name for name, _ in err.value.problems] == [field]
        with pytest.raises(InvalidInput) as err:
            RngStream(seed=1.0, stream_id=-1)
        assert [name for name, _ in err.value.problems] == ["seed", "stream_id"]

    def test_accepts_python_and_numpy_integers(self):
        expected = RngStream(seed=7, stream_id=3).generator().random(4)
        for seed, stream_id in ((np.int64(7), np.uint64(3)), (np.uint32(7), np.int8(3))):
            assert np.array_equal(RngStream(seed, stream_id).generator().random(4), expected)

    def test_generator_reproducible(self):
        a = RngStream(seed=123, stream_id=9).generator().random(8)
        b = RngStream(seed=123, stream_id=9).generator().random(8)
        assert_allclose(a, b, atol=0)
