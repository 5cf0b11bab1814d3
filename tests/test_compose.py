"""Tests for compound-chain composition and the Gaussian copula."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from regimeweave import compose
from regimeweave.compose import (
    RATE_CLAMP,
    CompoundChainSpec,
    CopulaSpec,
    NonGenerator,
    StateMapping,
    Unsupported,
    _copula_rates,
    _ndtr,
    _ndtri,
    bivariate_normal_cdf,
    compose_copula,
    compose_independent,
    gaussian_copula,
    kronecker_sum,
    marginalize,
)
from regimeweave.markov import (
    InvalidInput,
    transition_probabilities,
    validate_generator,
)


def two_state(rate_01: float, rate_10: float):
    return validate_generator([[-rate_01, rate_01], [rate_10, -rate_10]])


REFERENCE_MARGINALS = ((0.5, 0.3), (0.2, 0.7))
FAST_MARGINALS = ((30.0, 20.0), (8.0, 40.0))


def random_generator(rng, n: int):
    q = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return validate_generator(q)


class TestStateMapping:
    def test_two_by_two_layout(self):
        m = StateMapping(2, 2)
        assert [m.index(0, 0), m.index(1, 0), m.index(0, 1), m.index(1, 1)] == [0, 1, 2, 3]

    def test_round_trip(self):
        m = StateMapping(3, 4)
        for k in range(m.n_compound):
            assert m.index(*m.pair(k)) == k

    def test_range_checks(self):
        m = StateMapping(2, 3)
        with pytest.raises(ValueError):
            m.index(2, 0)
        with pytest.raises(ValueError):
            m.pair(6)
        with pytest.raises(ValueError):
            StateMapping(0, 2)


class TestComposeIndependent:
    def test_two_by_two_known_matrix(self):
        # exit rates a0, a1 for the first chain and b0, b1 for the second;
        # each compound state forwards exactly its two one-coordinate moves
        a0, a1, b0, b1 = 0.5, 0.3, 0.2, 0.7
        spec = compose_independent(two_state(a0, a1), two_state(b0, b1))
        expected = np.array(
            [
                [-(a0 + b0), a0, b0, 0.0],
                [a1, -(a1 + b0), 0.0, b0],
                [b1, 0.0, -(a0 + b1), a0],
                [0.0, b1, a1, -(a1 + b1)],
            ]
        )
        assert_allclose(spec.generator.rates, expected, atol=0)

    def test_simultaneous_rates_exactly_zero(self):
        rng = np.random.default_rng(1)
        spec = compose_independent(random_generator(rng, 3), random_generator(rng, 4))
        q = spec.generator.rates
        mp = spec.mapping
        for k in range(mp.n_compound):
            i, j = mp.pair(k)
            for k2 in range(mp.n_compound):
                i2, j2 = mp.pair(k2)
                if i2 != i and j2 != j:
                    assert q[k, k2] == 0.0

    def test_transition_matrix_factorizes(self):
        # exp of a Kronecker sum is the Kronecker product of the exps
        rng = np.random.default_rng(2)
        eps = random_generator(rng, 2)
        zeta = random_generator(rng, 3)
        spec = compose_independent(eps, zeta)
        for t in (0.1, 1.0, 5.0):
            joint = transition_probabilities(spec.generator, t).probs
            factored = np.kron(expm(zeta.rates * t), expm(eps.rates * t))
            assert_allclose(joint, factored, atol=1e-12)

    def test_marginal_preservation(self):
        # summing the joint law over the other coordinate recovers each
        # marginal law from every start state
        rng = np.random.default_rng(3)
        eps = random_generator(rng, 3)
        zeta = random_generator(rng, 2)
        spec = compose_independent(eps, zeta)
        m, n = spec.mapping.n_first, spec.mapping.n_second
        for t in (0.1, 1.0, 5.0):
            joint = transition_probabilities(spec.generator, t).probs
            blocks = joint.reshape(n, m, n, m)
            eps_law = blocks.sum(axis=2)  # [j, i, i2]
            for j in range(n):
                assert_allclose(eps_law[j], expm(eps.rates * t), atol=1e-12)
            zeta_law = blocks.sum(axis=3)  # [j, i, j2]
            for i in range(m):
                assert_allclose(zeta_law[:, i, :], expm(zeta.rates * t), atol=1e-12)

    def test_marginalize_round_trip(self):
        rng = np.random.default_rng(4)
        eps = random_generator(rng, 4)
        zeta = random_generator(rng, 3)
        spec = compose_independent(eps, zeta)
        back_eps, back_zeta = marginalize(spec.generator, spec.mapping)
        assert_allclose(back_eps.rates, eps.rates, atol=1e-13)
        assert_allclose(back_zeta.rates, zeta.rates, atol=1e-13)

    def test_marginalize_rejects_entangled_chain(self):
        # first-coordinate rate depends on the second coordinate
        q = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -5.0, 5.0],
                [0.0, 0.0, 5.0, -5.0],
            ]
        )
        with pytest.raises(ValueError, match="vary"):
            marginalize(validate_generator(q), StateMapping(2, 2))


class TestKroneckerSum:
    def test_exponential_factorization(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2))
        lhs = expm(kronecker_sum(a, b))
        rhs = np.kron(expm(b), expm(a))
        assert_allclose(lhs, rhs, atol=1e-12)


class TestNormalFunctions:
    def test_cdf_matches_scipy(self):
        x = np.concatenate([np.linspace(-37.5, 37.5, 20001), [-1 / np.sqrt(2), 1 / np.sqrt(2)]])
        assert_allclose(_ndtr(x), ndtr(x), rtol=1e-13, atol=0)

    def test_cdf_limits(self):
        assert _ndtr(-np.inf) == 0.0
        assert _ndtr(np.inf) == 1.0
        assert _ndtr(0.0) == 0.5

    def test_quantile_matches_scipy(self):
        p = np.concatenate(
            [
                np.linspace(0.0, 1.0, 20001)[1:-1],
                10.0 ** -np.linspace(1.0, 300.0, 600),
                1.0 - 10.0 ** -np.linspace(1.0, 16.0, 300),
            ]
        )
        assert_allclose(_ndtri(p), ndtri(p), rtol=2e-15, atol=0)

    def test_quantile_endpoints_are_infinite(self):
        assert _ndtri(0.0) == -np.inf
        assert _ndtri(1.0) == np.inf
        assert_allclose(_ndtri([0.0, 1.0]), [-np.inf, np.inf], rtol=0)

    @pytest.mark.parametrize("p", [-1e-300, 1.0 + 1e-15, np.nan, [0.5, 2.0]])
    def test_quantile_rejects_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            _ndtri(p)


class TestBivariateNormalCdf:
    def test_zero_correlation_factorizes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert_allclose(bivariate_normal_cdf(x, y, 0.0), ndtr(x) * ndtr(y), atol=1e-15)

    def test_origin_closed_form(self):
        # C(0, 0) = 1/4 + asin(rho) / (2 pi), exercising both branches
        for rho in (-0.999, -0.6, 0.0, 0.3, 0.9, 0.95, 0.999):
            expected = 0.25 + np.arcsin(rho) / (2 * np.pi)
            assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-15)

    def test_perfect_correlation_limits(self):
        assert bivariate_normal_cdf(0.5, -0.2, 1.0) == pytest.approx(ndtr(-0.2), abs=1e-15)
        assert bivariate_normal_cdf(0.5, -0.2, -1.0) == pytest.approx(
            ndtr(0.5) + ndtr(-0.2) - 1.0, abs=1e-15
        )
        assert bivariate_normal_cdf(-1.0, -1.5, -1.0) == 0.0

    def test_symmetry_in_arguments(self):
        for rho in (0.4, 0.97):
            a = bivariate_normal_cdf(0.8, -1.3, rho)
            b = bivariate_normal_cdf(-1.3, 0.8, rho)
            assert a == pytest.approx(b, abs=1e-15)

    def test_reflection_identity_across_branches(self):
        # P(X<=x, Y<=y; rho) + P(X<=x, Y<=-y; -rho) = P(X<=x)
        rng = np.random.default_rng(9)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        for rho in (0.2, 0.7, 0.93, 0.98, -0.95):
            lhs = bivariate_normal_cdf(x, y, rho) + bivariate_normal_cdf(x, -y, -rho)
            assert_allclose(lhs, ndtr(x), atol=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=15) * 1.5
        y = rng.normal(size=15) * 1.5
        for rho in (-0.97, -0.4, 0.1, 0.6, 0.94):
            cov = [[1.0, rho], [rho, 1.0]]
            oracle = np.array(
                [multivariate_normal(cov=cov).cdf([a, b]) for a, b in zip(x, y)]
            )
            assert_allclose(bivariate_normal_cdf(x, y, rho), oracle, atol=5e-10)

    def test_branch_switch_continuity(self):
        lo = bivariate_normal_cdf(0.4, -0.9, 0.92499999)
        hi = bivariate_normal_cdf(0.4, -0.9, 0.92500001)
        assert abs(hi - lo) < 1e-9

    def test_infinite_arguments(self):
        assert bivariate_normal_cdf(np.inf, 0.3, 0.5) == pytest.approx(ndtr(0.3), abs=1e-15)
        assert bivariate_normal_cdf(-np.inf, 0.3, 0.5) == 0.0
        assert bivariate_normal_cdf(np.inf, np.inf, -0.3) == 1.0

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            bivariate_normal_cdf(0.0, 0.0, 1.5)

    @pytest.mark.parametrize("rho", [0.5, 0.97])  # quadrature and comonotone-expansion branches
    def test_rejects_nan_arguments(self, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in [(np.nan, 0.0), (0.0, np.nan), (np.array([0.1, np.nan]), 0.2)]:
                with pytest.raises(ValueError, match="NaN"):
                    bivariate_normal_cdf(x, y, rho)
            # infinite arguments are clipped, not rejected
            assert bivariate_normal_cdf(np.inf, 0.3, rho) == pytest.approx(ndtr(0.3), abs=1e-15)


class TestGaussianCopula:
    def test_boundaries(self):
        assert gaussian_copula(0.0, 0.7, 0.5) == 0.0
        assert gaussian_copula(0.7, 0.0, 0.5) == 0.0
        assert gaussian_copula(1.0, 0.7, 0.5) == pytest.approx(0.7, abs=1e-15)
        assert gaussian_copula(0.7, 1.0, -0.5) == pytest.approx(0.7, abs=1e-15)

    def test_independence_copula(self):
        rng = np.random.default_rng(11)
        u = rng.random(30)
        v = rng.random(30)
        assert_allclose(gaussian_copula(u, v, 0.0), u * v, atol=1e-14)

    def test_rectangle_volumes_nonnegative(self):
        grid = np.linspace(0.0, 1.0, 21)
        for rho in (-0.99, 0.99):
            c = gaussian_copula(grid[:, None], grid[None, :], rho)
            volume = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
            assert volume.min() > -1e-14

    def test_rejects_out_of_square(self):
        with pytest.raises(ValueError):
            gaussian_copula(1.2, 0.5, 0.0)


class TestComposeCopula:
    def test_zero_correlation_recovers_independent(self):
        eps = two_state(0.5, 0.3)
        zeta = two_state(0.2, 0.7)
        independent = compose_independent(eps, zeta).generator.rates
        errors = {}
        for h in (1e-3, 1e-4):
            spec = compose_copula(eps, zeta, CopulaSpec(correlation=0.0, fd_step=h))
            errors[h] = np.max(np.abs(spec.generator.rates - independent))
            assert errors[h] <= 10 * h
        assert errors[1e-4] <= errors[1e-3] / 5

    def test_result_is_valid_generator(self):
        spec = compose_copula(
            two_state(0.9, 0.4), two_state(0.6, 1.1), CopulaSpec(correlation=0.7)
        )
        q = spec.generator.rates
        assert_allclose(q.sum(axis=1), 0.0, atol=0)
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        assert off.min() >= 0.0
        assert spec.method == "copula"

    def test_positive_correlation_couples_jumps(self):
        # joint moves pick up positive rate while exit rates stay marginal
        eps = two_state(1.0, 0.8)
        zeta = two_state(1.2, 0.9)
        spec = compose_copula(eps, zeta, CopulaSpec(correlation=0.8, fd_step=1e-3))
        q = spec.generator.rates
        mp = spec.mapping
        assert q[mp.index(0, 0), mp.index(1, 1)] > 1e-4
        assert q[mp.index(1, 1), mp.index(0, 0)] > 1e-4

    def test_negative_correlation_keeps_joint_rates_near_zero(self):
        spec = compose_copula(
            two_state(1.0, 0.8), two_state(1.2, 0.9), CopulaSpec(correlation=-0.5)
        )
        q = spec.generator.rates
        mp = spec.mapping
        assert q[mp.index(0, 0), mp.index(1, 1)] <= 1e-10

    def test_marginal_rates_preserved(self):
        eps = two_state(0.5, 0.3)
        zeta = two_state(0.2, 0.7)
        spec = compose_copula(eps, zeta, CopulaSpec(correlation=0.6))
        back_eps, back_zeta = marginalize(spec.generator, spec.mapping, atol=1e-6)
        assert_allclose(back_eps.rates, eps.rates, atol=1e-7)
        assert_allclose(back_zeta.rates, zeta.rates, atol=1e-7)

    def test_rejects_larger_chains(self):
        rng = np.random.default_rng(12)
        with pytest.raises(Unsupported):
            compose_copula(random_generator(rng, 3), two_state(1.0, 1.0), CopulaSpec(0.3))

    def test_copula_spec_validation(self):
        with pytest.raises(ValueError):
            CopulaSpec(correlation=1.5)
        with pytest.raises(ValueError):
            CopulaSpec(correlation=0.0, fd_step=0.0)
        with pytest.raises(InvalidInput) as err:
            CopulaSpec(correlation=-2.0, fd_step=1.0)
        assert [field for field, _ in err.value.problems] == ["correlation", "fd_step"]

    def test_spec_carries_parents(self):
        eps = two_state(0.5, 0.3)
        zeta = two_state(0.2, 0.7)
        spec = compose_copula(eps, zeta, CopulaSpec(correlation=0.25))
        assert isinstance(spec, CompoundChainSpec)
        assert spec.eps is eps and spec.zeta is zeta
        assert spec.copula.correlation == 0.25

    def test_vectorized_rates_equal_scalar_copula_loop(self):
        # one gaussian_copula call over every state and step == one call per pair
        rng = np.random.default_rng(13)
        steps = np.array([5e-5, 1e-4])
        for _ in range(40):
            eps = two_state(*10.0 ** rng.uniform(-2, 2, size=2))
            zeta = two_state(*10.0 ** rng.uniform(-2, 2, size=2))
            for rho in (rng.uniform(-1, 1), -1.0, 0.0, 0.95, 1.0):
                loop = np.zeros((2, 4, 4))
                for t, h in enumerate(steps):
                    for j in range(2):
                        for i in range(2):
                            u = np.exp(-eps.exit_rates()[i] * h)
                            v = np.exp(-zeta.exit_rates()[j] * h)
                            both_hold = float(gaussian_copula(u, v, rho))
                            s = i + 2 * j
                            loop[t, s, s ^ 1] = (v - both_hold) / h
                            loop[t, s, s ^ 2] = (u - both_hold) / h
                            loop[t, s, s ^ 3] = (1.0 - u - v + both_hold) / h
                            loop[t, s, s] = -(1.0 - both_hold) / h
                assert np.array_equal(_copula_rates(eps, zeta, rho, steps), loop)
                expected = 2.0 * loop[0] - loop[1]
                for s in range(4):
                    # a negative joint rate's mass moves onto both single moves, so that
                    # each component's move rate stays as extrapolated
                    if expected[s, s ^ 3] < 0.0:
                        expected[s, s ^ 1] += expected[s, s ^ 3]
                        expected[s, s ^ 2] += expected[s, s ^ 3]
                        expected[s, s ^ 3] = 0.0
                expected = np.maximum(expected, 0.0)
                np.fill_diagonal(expected, 0.0)
                np.fill_diagonal(expected, -expected.sum(axis=1))
                rates = compose_copula(eps, zeta, CopulaSpec(rho, fd_step=1e-4)).generator.rates
                assert np.array_equal(rates, expected)

    @pytest.mark.parametrize(
        "marginals, rho",
        [
            (REFERENCE_MARGINALS, -0.1),
            (REFERENCE_MARGINALS, -0.3),
            (FAST_MARGINALS, -0.1),
            (FAST_MARGINALS, -0.3),
            (FAST_MARGINALS, -0.6),
        ],
    )
    def test_negative_correlation_within_richardson_gap(self, marginals, rho):
        # a joint move rarer than O(h) extrapolates below zero, by less than
        # its own Richardson gap; it is clamped instead of rejected
        eps, zeta = (two_state(*rates) for rates in marginals)
        h = CopulaSpec(rho).fd_step
        half, full = _copula_rates(eps, zeta, rho, np.array([h / 2, h]))
        extrapolated = 2.0 * half - full
        np.fill_diagonal(extrapolated, 0.0)
        clamped = -extrapolated.min()
        assert clamped > RATE_CLAMP
        assert np.all(-extrapolated <= np.abs(half - full))

        spec = compose_copula(eps, zeta, CopulaSpec(rho))
        q = spec.generator.rates
        assert_allclose(q.sum(axis=1), 0.0, atol=1e-12 * np.abs(q).max())
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        assert off.min() >= 0.0

        # the clamp moves the joint rate's mass onto the single moves, so each component
        # is still Markov, at the Richardson-extrapolated exit rates
        back = marginalize(spec.generator, spec.mapping, atol=1e-12 * np.abs(q).max())
        for chain, recovered in zip((eps, zeta), back):
            rate = chain.exit_rates()
            expected = 2.0 * -np.expm1(-rate * h / 2) / (h / 2) + np.expm1(-rate * h) / h
            assert_allclose(recovered.exit_rates(), expected, rtol=0, atol=1e-9)

    def test_clamped_joint_rate_keeps_each_component_markov(self):
        # the joint move extrapolates below zero in two states here; zeroing it alone
        # raised the move rates of those states, and each component's rate came to
        # depend on the other's state by 3.03e-2
        eps, zeta = two_state(79.13, 0.0438), two_state(84.90, 8.355)
        h = CopulaSpec(-0.177).fd_step
        half, full = _copula_rates(eps, zeta, -0.177, np.array([h / 2, h]))
        s = np.arange(4)
        assert (2.0 * half - full)[s, s ^ 3].min() < -1e-3
        spec = compose_copula(eps, zeta, CopulaSpec(-0.177))
        q = spec.generator.rates
        back = marginalize(spec.generator, spec.mapping, atol=1e-12 * np.abs(q).max())
        for chain, recovered in zip((eps, zeta), back):
            rate = chain.exit_rates()
            expected = 2.0 * -np.expm1(-rate * h / 2) / (h / 2) + np.expm1(-rate * h) / h
            assert_allclose(recovered.exit_rates(), expected, rtol=0, atol=1e-9)
        assert q[s, s ^ 3].min() == 0.0 and (q - np.diag(np.diag(q))).min() >= 0.0

    def test_negative_rate_beyond_its_gap_raises(self, monkeypatch):
        real = compose._copula_rates

        def corrupted(eps, zeta, correlation, steps):
            q = real(eps, zeta, correlation, steps)
            q[0, 0, 3] = -1e-3  # a negative joint-jump probability at h/2
            return q

        monkeypatch.setattr(compose, "_copula_rates", corrupted)
        eps, zeta = (two_state(*rates) for rates in REFERENCE_MARGINALS)
        with pytest.raises(NonGenerator, match="from state 0 to 3"):
            compose_copula(eps, zeta, CopulaSpec(0.6))


# the normal-score correlation: either branch of the CDF, the switch between them
# at |rho| = 0.925, and the comonotone and countermonotone ends
CORRELATIONS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, -0.925, 0.925, 1.0]),
    st.floats(0.9, 0.95).map(lambda r: r if r > 0.925 else -r),
)


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(
    st.lists(st.floats(-9.0, 9.0), min_size=2, max_size=12),
    st.lists(st.floats(-9.0, 9.0), min_size=2, max_size=12),
    CORRELATIONS,
)
def test_bivariate_normal_cdf_property(xs, ys, rho):
    # within the Frechet bounds of its marginals, and nondecreasing in x and in y
    x, y = np.sort(xs)[:, None], np.sort(ys)[None, :]
    cdf = bivariate_normal_cdf(x, y, rho)
    px, py = ndtr(x), ndtr(y)
    assert np.all(cdf >= np.maximum(0.0, px + py - 1.0) - 4e-16)
    assert np.all(cdf <= np.minimum(px, py) + 4e-16)
    assert np.diff(cdf, axis=0).min(initial=0.0) >= -4e-16
    assert np.diff(cdf, axis=1).min(initial=0.0) >= -4e-16


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(st.lists(st.floats(-3.0, 2.0).map(lambda e: 10.0**e), min_size=4, max_size=4), CORRELATIONS)
def test_compose_copula_property(rates, rho):
    # a valid generator whose components are each a Markov chain, or NonGenerator
    eps, zeta = two_state(*rates[:2]), two_state(*rates[2:])
    try:
        spec = compose_copula(eps, zeta, CopulaSpec(rho))
    except NonGenerator:
        return
    q = spec.generator.rates
    scale = np.abs(q).max()
    assert (q - np.diag(np.diag(q))).min() >= 0.0
    assert np.abs(q.sum(axis=1)).max() <= 1e-12 * scale
    marginalize(spec.generator, spec.mapping, atol=1e-12 * scale)
