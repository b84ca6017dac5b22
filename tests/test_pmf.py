"""Tests for the truncated-distribution algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inarlab import (
    Pmf,
    SeedSpec,
    binomial_pmf,
    convolve,
    point_mass,
    poisson_pmf,
    sample,
    thin,
    total_variation,
)
from inarlab.errors import InvalidParameterError, SamplingBudgetError
from inarlab.pmf import binomial_table


def sup_diff(p: Pmf, q: Pmf) -> float:
    n = max(p.probs.size, q.probs.size)
    a = np.zeros(n)
    b = np.zeros(n)
    a[: p.probs.size] = p.probs
    b[: q.probs.size] = q.probs
    return float(np.abs(a - b).max())


def random_pmf(rng, max_states=10) -> Pmf:
    k = int(rng.integers(1, max_states + 1))
    return Pmf(rng.dirichlet(np.ones(k)))


class TestPoisson:
    def test_first_term_is_exact(self):
        for mean in (0.3, 1.0, 2.5, 7.0):
            assert poisson_pmf(mean).probs[0] == math.exp(-mean)

    def test_convolution_of_poissons_matches_poisson(self):
        c = convolve(poisson_pmf(1.0), poisson_pmf(2.0))
        assert sup_diff(c, poisson_pmf(3.0)) <= 1e-12

    def test_truncation_point_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50

        def oracle_k(mean, budget):
            term = mpmath.e ** (-mpmath.mpf(mean))
            s = term
            k = 0
            while 1 - s > budget:
                k += 1
                term *= mpmath.mpf(mean) / k
                s += term
            return k

        for mean, budget in ((1.0, 1e-12), (2.0, 1e-12), (5.0, 1e-9)):
            p = poisson_pmf(mean, budget)
            assert p.max_state == oracle_k(mean, budget)
            assert p.tail_mass <= budget

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            poisson_pmf(0.0)
        with pytest.raises(InvalidParameterError):
            poisson_pmf(-1.0)
        with pytest.raises(InvalidParameterError):
            poisson_pmf(1.0, tail_budget=0.0)
        with pytest.raises(InvalidParameterError):
            poisson_pmf(1.0, tail_budget=1.0)


class TestBinomial:
    def test_zero_trials_is_point_mass(self):
        for p in (0.0, 0.3, 1.0):
            b = binomial_pmf(0, p)
            assert b.probs.tolist() == [1.0]
            assert b.tail_mass == 0.0

    def test_hand_expansion(self):
        assert np.allclose(binomial_pmf(2, 0.5).probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_normalization(self):
        assert abs(math.fsum(binomial_pmf(10, 0.3).probs.tolist()) - 1.0) <= 1e-14

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            binomial_pmf(3, -0.1)
        with pytest.raises(InvalidParameterError):
            binomial_pmf(3, 1.1)

    @pytest.mark.parametrize("a", [0.001, 0.05, 1 / 9, 0.3, 0.5, 0.7, 0.999])
    def test_table_rows_are_binomial_pmfs_bitwise(self, a):
        n = 60
        table = binomial_table(n, a)
        assert table.shape == (n + 1, n + 1)
        for y in range(n + 1):
            assert np.array_equal(table[y, : y + 1], binomial_pmf(y, a).probs)
            assert not table[y, y + 1 :].any()


class TestConvolve:
    def test_point_mass_is_neutral(self):
        p = poisson_pmf(1.5)
        c = convolve(p, point_mass(0))
        assert np.array_equal(c.probs, p.probs)

    def test_two_bernoullis_match_hand_expansion(self):
        p = 0.3
        c = convolve(binomial_pmf(1, p), binomial_pmf(1, p))
        # direct two-term expansion of (q + p z)^2
        expected = [(1 - p) ** 2, 2 * p * (1 - p), p**2]
        assert np.allclose(c.probs, expected, atol=1e-15)
        assert sup_diff(c, binomial_pmf(2, p)) <= 1e-13

    def test_tail_mass_dominates_inputs(self):
        p = poisson_pmf(1.0)
        q = poisson_pmf(2.0)
        c = convolve(p, q)
        assert c.tail_mass >= max(p.tail_mass, q.tail_mass) - 1e-15


class TestThin:
    def test_poisson_thins_to_poisson(self):
        for lam, a in ((1.0, 0.5), (2.0, 0.3), (0.7, 0.9)):
            assert sup_diff(thin(poisson_pmf(lam), a), poisson_pmf(lam * a)) <= 1e-12

    def test_point_mass_at_zero_is_absorbing(self):
        t = thin(point_mass(0), 0.4)
        assert t.probs.tolist() == [1.0]

    def test_binomial_thins_to_binomial_against_exact_oracle(self):
        # exact rational double sum over (survivorship given start, start law)
        n, p, a = 6, Fraction(1, 2), Fraction(1, 4)
        out = [Fraction(0)] * (n + 1)
        for y in range(n + 1):
            py = math.comb(n, y) * p**y * (1 - p) ** (n - y)
            for z in range(y + 1):
                out[z] += py * math.comb(y, z) * a**z * (1 - a) ** (y - z)
        got = thin(binomial_pmf(n, float(p)), float(a))
        assert np.abs(got.probs - [float(x) for x in out]).max() <= 1e-13
        assert sup_diff(got, binomial_pmf(n, float(p * a))) <= 1e-12

    def test_invalid_rate(self):
        for a in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParameterError):
                thin(point_mass(1), a)


class TestTotalVariation:
    def test_identical_zero_tail(self):
        b = binomial_pmf(4, 0.3)
        assert total_variation(b, b) == 0.0

    def test_identical_poisson_within_tail_budget(self):
        p = poisson_pmf(1.0)
        assert total_variation(p, p) <= 2e-12

    def test_disjoint_point_masses(self):
        assert total_variation(point_mass(0), point_mass(1)) == 1.0

    def test_against_series_summation_oracle(self):
        p = poisson_pmf(1.0, 1e-14)
        q = poisson_pmf(1.1, 1e-14)
        acc = 0.0
        for k in range(200):
            t1 = math.exp(-1.0) / math.factorial(k) if k < 170 else 0.0
            t2 = math.exp(-1.1) * 1.1**k / math.factorial(k) if k < 170 else 0.0
            acc += abs(t1 - t2)
        assert abs(total_variation(p, q) - 0.5 * acc) <= 1e-12

    def test_symmetry(self):
        p = poisson_pmf(2.0)
        q = binomial_pmf(5, 0.4)
        assert total_variation(p, q) == total_variation(q, p)


class TestSample:
    def test_point_mass_yields_constant(self):
        assert np.all(sample(point_mass(0), SeedSpec(1), 100) == 0)

    def test_determinism(self):
        p = poisson_pmf(2.0)
        a = sample(p, SeedSpec(42, 3), 1000)
        b = sample(p, SeedSpec(42, 3), 1000)
        assert np.array_equal(a, b)
        c = sample(p, SeedSpec(42, 4), 1000)
        assert not np.array_equal(a, c)

    def test_refuses_fat_tail(self):
        fat = Pmf(np.array([0.5, 0.4]), 0.1)
        with pytest.raises(SamplingBudgetError):
            sample(fat, SeedSpec(0), 10)

    def test_empirical_law_converges(self):
        p = poisson_pmf(2.0)
        draws = sample(p, SeedSpec(8), 10**6)
        counts = np.bincount(draws, minlength=p.probs.size)
        emp = counts / draws.size
        tv = 0.5 * np.abs(emp[: p.probs.size] - p.probs).sum()
        assert tv <= 3e-3

    def test_count_validation(self):
        with pytest.raises(InvalidParameterError):
            sample(point_mass(0), SeedSpec(0), 0)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SeedSpec(-1)
        with pytest.raises(InvalidParameterError):
            SeedSpec(2**64)
        with pytest.raises(InvalidParameterError):
            SeedSpec(0, -1)

    def test_generator_is_pure(self):
        s = SeedSpec(99, 2)
        assert s.generator().random(4).tolist() == s.generator().random(4).tolist()

    def test_stream_derivation(self):
        s = SeedSpec(99)
        assert s.stream(5) == SeedSpec(99, 5)


class TestPmfInvariants:
    def test_constructor_rejects_bad_mass(self):
        with pytest.raises(InvalidParameterError):
            Pmf(np.array([0.5, 0.4]))  # missing mass, no tail
        with pytest.raises(InvalidParameterError):
            Pmf(np.array([0.5, 0.6]), -0.1)
        with pytest.raises(InvalidParameterError):
            Pmf(np.array([-0.1, 1.1]))

    def test_probs_are_immutable(self):
        p = poisson_pmf(1.0)
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        lam=st.floats(0.1, 5.0),
        a=st.floats(0.05, 0.95),
        b=st.floats(0.05, 0.95),
    )
    def test_thinning_semigroup(self, lam, a, b):
        p = poisson_pmf(lam)
        assert sup_diff(thin(thin(p, a), b), thin(p, a * b)) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_convolve_commutative_associative(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (random_pmf(rng) for _ in range(3))
        assert sup_diff(convolve(p, q), convolve(q, p)) <= 1e-12
        assert (
            sup_diff(convolve(convolve(p, q), r), convolve(p, convolve(q, r))) <= 1e-12
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), a=st.floats(0.05, 0.95))
    def test_thin_distributes_over_convolve(self, seed, a):
        rng = np.random.default_rng(seed)
        p, q = random_pmf(rng), random_pmf(rng)
        lhs = thin(convolve(p, q), a)
        rhs = convolve(thin(p, a), thin(q, a))
        assert sup_diff(lhs, rhs) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lam=st.floats(0.1, 6.0), a=st.floats(0.05, 0.95))
    def test_results_carry_unit_mass(self, lam, a):
        for p in (poisson_pmf(lam), thin(poisson_pmf(lam), a)):
            assert np.all(p.probs >= 0.0)
            assert abs(math.fsum(p.probs.tolist()) + p.tail_mass - 1.0) <= 1e-12
