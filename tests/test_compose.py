"""Tests for compound-chain composition and the Gaussian copula."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import ndtr
from scipy.stats import multivariate_normal, poisson

from regimeweave.compose import (
    CompoundChainSpec,
    CopulaSpec,
    StateMapping,
    Unsupported,
    bivariate_normal_cdf,
    compose_copula,
    compose_independent,
    copula_joint_pmf,
    gaussian_copula,
    kronecker_sum,
    marginalize,
)
from regimeweave.markov import (
    transition_probabilities,
    validate_generator,
)


def two_state(rate_01: float, rate_10: float):
    return validate_generator([[-rate_01, rate_01], [rate_10, -rate_10]])


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


class TestCopulaJointPmf:
    def test_zero_correlation_is_product(self):
        y = np.arange(12)
        joint = copula_joint_pmf(y[:, None], y[None, :], 2.5, 4.0, 0.0)
        product = np.outer(poisson.pmf(y, 2.5), poisson.pmf(y, 4.0))
        assert_allclose(joint, product, atol=1e-13)

    def test_marginals_exact_for_any_correlation(self):
        y = np.arange(40)
        for rho in (-0.8, 0.3, 0.95):
            joint = copula_joint_pmf(y[:, None], y[None, :], 3.0, 1.5, rho)
            assert joint.sum() == pytest.approx(1.0, abs=1e-10)
            assert_allclose(joint.sum(axis=1), poisson.pmf(y, 3.0), atol=1e-10)
            assert_allclose(joint.sum(axis=0), poisson.pmf(y, 1.5), atol=1e-10)

    def test_comonotone_matches_min_coupling(self):
        # at correlation 1 the pair is a monotone rearrangement: the mass on
        # (y1, y2) is the overlap of the two CDF intervals
        y = np.arange(15)
        joint = copula_joint_pmf(y[:, None], y[None, :], 2.0, 3.5, 1.0)
        f1 = poisson.cdf(y, 2.0)
        f2 = poisson.cdf(y, 3.5)
        f1_lo = np.concatenate([[0.0], f1[:-1]])
        f2_lo = np.concatenate([[0.0], f2[:-1]])
        overlap = np.maximum(
            0.0,
            np.minimum(f1[:, None], f2[None, :]) - np.maximum(f1_lo[:, None], f2_lo[None, :]),
        )
        assert_allclose(joint, overlap, atol=1e-12)

    def test_correlation_sign_moves_covariance(self):
        y = np.arange(30)
        lam1, lam2 = 2.0, 3.0
        for rho, sign in ((0.6, 1.0), (-0.6, -1.0)):
            joint = copula_joint_pmf(y[:, None], y[None, :], lam1, lam2, rho)
            ey1y2 = float((y[:, None] * y[None, :] * joint).sum())
            assert sign * (ey1y2 - lam1 * lam2) > 0.05

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            copula_joint_pmf(1, 1, -2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            copula_joint_pmf(-1, 1, 2.0, 1.0, 0.0)


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

    def test_spec_carries_parents(self):
        eps = two_state(0.5, 0.3)
        zeta = two_state(0.2, 0.7)
        spec = compose_copula(eps, zeta, CopulaSpec(correlation=0.25))
        assert isinstance(spec, CompoundChainSpec)
        assert spec.eps is eps and spec.zeta is zeta
        assert spec.copula.correlation == 0.25
