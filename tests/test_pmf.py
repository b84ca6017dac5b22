"""Tests for the truncated-distribution algebra."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inarlab import (
    MarkovChainSpec,
    Pmf,
    SeedSpec,
    binomial_pmf,
    convolve,
    point_mass,
    poisson_pmf,
    simulate_chain,
    thin,
    total_variation,
)
from inarlab import pmf
from inarlab.errors import InvalidParameterError, SamplingBudgetError
from inarlab.pmf import MASS_TOL, binomial_table, total_off_unit

from . import decimal_oracle as oracle


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

    def test_tables_beyond_the_limit_are_refused_before_allocating(self):
        tracemalloc.start()
        try:
            for mean in (4e6, 1e10, 1e300):
                with pytest.raises(InvalidParameterError, match="needs a table beyond"):
                    poisson_pmf(mean)
            with pytest.raises(InvalidParameterError, match="needs a table beyond"):
                binomial_pmf(10**30, 0.5)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mean", [1e-3, 0.5, 3.0, 30.0, 300.0, 1e4, 1e5])
    def test_terms_against_the_decimal_oracle(self, mean):
        p = poisson_pmf(mean)
        exact = oracle.poisson_terms(mean, p.max_state)
        assert oracle.l1_error(p.probs, exact) <= 1e-15

    @pytest.mark.parametrize("mean, budget", [(1e5, 1e-12), (2e6, 1e-9)])
    def test_wide_tables_meet_the_smallest_k_contract(self, mean, budget):
        """The cut K is the smallest with true tail P(X > K) <= budget, up to
        the double rounding of 1 - fsum; 2e6 at 1e-9 is the widest first
        table the limit admits."""
        k = poisson_pmf(mean, budget).max_state
        before, at = oracle.poisson_tails(mean, k)
        assert at <= budget + CUT_SLACK and before > budget - CUT_SLACK

    def test_cut_points_meet_the_contract_at_small_means(self):
        """Every state cap and comparison law of the benchmark workloads and
        the exact-scan references has a mean of at most 20."""
        for mean in [0.05 * i for i in range(1, 401)] + WORKLOAD_MEANS:
            exact = oracle.poisson_terms(mean, 80)
            for budget in CUT_BUDGETS:
                k = poisson_pmf(mean, budget).max_state
                at = 1 - math.fsum(exact[: k + 1])
                before = at + float(exact[k])
                assert at <= budget + CUT_SLACK and before > budget - CUT_SLACK, (mean, budget)

    def test_cut_points_at_the_workload_means_are_the_smallest_k(self):
        """No slack: each cut is the oracle's.  At mean 20/3 and budget 1e-14
        the lgamma-based terms this replaced cut at 34, whose true tail is
        1.04e-14."""
        for mean in WORKLOAD_MEANS:
            exact = oracle.poisson_terms(mean, 80)
            for budget in CUT_BUDGETS:
                k = next(j for j in range(81) if 1 - sum(exact[: j + 1]) <= budget)
                assert poisson_pmf(mean, budget).max_state == k, (mean, budget)


class TestSmallest:
    """``_smallest`` is the package's one integer search (truncation points,
    superposition depths, gap certificates)."""

    @pytest.mark.parametrize(
        "answer, start, lo",
        [
            (37, 1000, 0),  # below the estimate
            (500, 500, 0),  # at it
            (10**18, 1, 1),  # far above it
            (5, 40, 5),  # the answer is lo
            (0, 123, 0),  # pred holds everywhere
            (1, 1, 1),
        ],
    )
    def test_finds_the_smallest_in_logarithmic_calls(self, answer, start, lo):
        calls = []

        def pred(n):
            calls.append(n)
            return n >= answer

        assert pmf._smallest(pred, start, lo) == answer
        assert min(calls) >= lo
        assert len(calls) <= 2 * math.ceil(math.log2(abs(start - answer) + 1)) + 3


class TestPoissonSearchWork:
    """poisson_pmf builds one table per call and searches its prefix sums."""

    @pytest.mark.parametrize("mean, budget, admitted", [(3.0, 1e-12, True), (1.69, 1e-16, False)])
    def test_one_table_per_call(self, monkeypatch, mean, budget, admitted):
        builds = []
        terms = pmf._poisson_terms

        def counted(k, m):
            builds.append(k.size)
            return terms(k, m)

        monkeypatch.setattr(pmf, "_poisson_terms", counted)
        if admitted:
            poisson_pmf(mean, budget)
        else:
            with pytest.raises(InvalidParameterError, match="unattainable in double precision"):
                poisson_pmf(mean, budget)
        assert len(builds) == 1

    def test_tiny_budget_at_a_wide_mean_takes_few_prefix_sums(self, monkeypatch):
        """The cut K is the smallest with ``1 - fsum(probs[:K + 1]) <= budget``,
        found in at most 40 sums (the counts include the whole-table check
        and the Pmf's own mass check)."""
        sums = []

        def fsum(values):
            sums.append(len(values))
            return math.fsum(values)

        monkeypatch.setattr(pmf, "math", SimpleNamespace(**{**vars(math), "fsum": fsum}))
        p = poisson_pmf(1e5, 1e-16)
        monkeypatch.undo()
        assert len(sums) <= 40
        k = p.max_state
        assert p.tail_mass == 1.0 - math.fsum(p.probs.tolist()) <= 1e-16
        assert 1.0 - math.fsum(p.probs[:k].tolist()) > 1e-16


# The means of every Poisson law the benchmark workloads build: the default
# (a, lambda) grid's innovations and stationary means, and the death-chain start.
WORKLOAD_MEANS = [0.25, 0.5, 0.5 / 0.7, 1.0, 1 / 0.7, 0.5 / 0.3, 2.0, 2 / 0.7, 3.0, 1 / 0.3, 4.0, 2 / 0.3]
CUT_BUDGETS = (1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14)
# the computed tail 1 - fsum(probs) is the true one within the table's L1
# error (below 2.5e-16 at these means) plus half an ulp of 1
CUT_SLACK = 5e-16


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


SIZES = (0, 1, 2, 5, 40, 300, 1413)
RATES = (0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0)


def seeded_sizes_and_rates():
    rng = np.random.default_rng(20170825)
    return [(int(n), float(a)) for n, a in zip(rng.integers(1, 1414, size=12), rng.random(12))]


GRID = [(n, a) for a in RATES for n in SIZES] + seeded_sizes_and_rates()


class TestBinomialAgainstDecimalOracle:
    """Every cell within an ulp of 1/2 of the exact value, every table within
    5e-16 in L1, on the size-rate grid and at seeded sizes and rates."""

    @pytest.mark.parametrize("n, a", GRID)
    def test_pmf_accuracy(self, n, a):
        probs = binomial_pmf(n, a).probs
        exact = oracle.binomial_pmf(n, a)
        assert oracle.max_error(probs, exact) <= 2.0**-53
        assert oracle.l1_error(probs, exact) <= 5e-16

    @pytest.mark.parametrize("a", RATES)
    def test_tables_hold_the_pmfs(self, a):
        table = binomial_table(SIZES[-1], a)
        for n in SIZES:
            assert table[n, : n + 1].tobytes() == binomial_pmf(n, a).probs.tobytes()
        for n, rate in seeded_sizes_and_rates()[:4]:
            row = binomial_table(n, rate)[n]
            assert row.tobytes() == binomial_pmf(n, rate).probs.tobytes()

    @pytest.mark.parametrize("n, a", GRID)
    def test_no_less_accurate_than_scipy(self, n, a):
        """Cross-check against the Boost ufunc behind ``scipy.stats.binom``:
        no larger worst cell error, and no larger L1 error beyond 1e-20 (at
        a = 1 - 1e-9 both round the top cell alike and differ only in cells
        near 1e-9)."""
        stats = pytest.importorskip("scipy.stats")
        exact = oracle.binomial_pmf(n, a)
        ours = binomial_pmf(n, a).probs
        ref = stats.binom.pmf(np.arange(n + 1), n, a)
        assert oracle.max_error(ours, exact) <= oracle.max_error(ref, exact)
        assert oracle.l1_error(ours, exact) <= oracle.l1_error(ref, exact) + 1e-20


class TestLoaderCore:
    def test_stirlerr_table_matches_the_decimal_derivation(self):
        table = pmf._STIRLERR_HALVES
        assert table[0] == 0.0  # n = 0 is never looked up for a term
        for twice in range(1, table.size):
            assert table[twice] == float(oracle.stirlerr(twice)), twice

    def test_stirlerr_series_above_the_table(self):
        """stirlerr enters each term's exponent, so its absolute error is the
        term's relative error; the series' truncation peaks at 1.5e-16 at 15.5."""
        twice = np.arange(31, 400)
        got = pmf._stirlerr(twice / 2.0)
        for t, value in zip(twice.tolist(), got.tolist()):
            assert abs(value - float(oracle.stirlerr(t))) <= 2e-16, t


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


def sample(p: Pmf, seed: SeedSpec, count: int) -> np.ndarray:
    """``count`` inverse-CDF draws from ``p``: the first step of i.i.d. paths of ``p``."""
    return simulate_chain(MarkovChainSpec(p, 0.0, p), 1, count, seed).paths[:, 0]


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

    def test_numpy_integers_are_accepted(self):
        s = SeedSpec(np.uint64(5), np.int32(2))
        assert s == SeedSpec(5, 2)
        assert type(s.root_seed) is int and type(s.stream_index) is int

    @pytest.mark.parametrize("seeds", [(2.5,), (1, 1.7), (True,), (1, False), ("7",)])
    def test_non_integers_are_refused(self, seeds):
        with pytest.raises(InvalidParameterError):
            SeedSpec(*seeds)

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

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.inf, 0.0], [-0.5, 1.5]])
    def test_entries_must_be_finite_and_nonnegative(self, probs):
        with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
            Pmf(np.array(probs))

    def test_total_above_one_is_refused(self):
        with pytest.raises(InvalidParameterError, match=r"total mass 1\.000000001 differs from 1"):
            Pmf(np.array([1 + 1e-9]))

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


def _cells_summing_near(rng, size: int, target: float) -> np.ndarray:
    """Nonnegative cells, some zero and some subnormal, whose fsum is within
    a few ulps of ``target``."""
    cells = rng.random(size) ** 4
    cells[rng.random(size) < 0.2] = 0.0
    cells[rng.random(size) < 0.05] = 5e-324 * rng.integers(1, 1000)
    cells[int(rng.integers(size))] += 0.5  # never all zero
    cells *= target / math.fsum(cells.tolist())
    big = int(np.argmax(cells))
    cells[big] += target - math.fsum(cells.tolist())
    return cells


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


class _Subclass(np.ndarray):
    pass


class TestOwnedAndPadded:
    @pytest.mark.parametrize(
        "make, dtype",
        [
            (lambda: np.full((3, 4), 0.25), np.float64),
            (lambda: np.ones((200, 5), np.int8).T, np.int8),  # a step-major path buffer's transpose
            (lambda: np.arange(24.0).reshape(4, 6)[::2, 1::2], np.float64),
            (lambda: np.array(0.5), np.float64),
        ],
        ids=["C", "Fortran-int8", "strided", "0-d"],
    )
    def test_owned_holds_an_array_of_its_dtype_itself_read_only(self, make, dtype):
        array = make()
        assert pmf._owned(array, dtype) is array
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0

    def test_owned_converts_a_subclass_or_another_dtype_to_a_plain_array(self):
        sub = np.zeros(3).view(_Subclass)
        held = pmf._owned(sub, np.float64)
        assert type(held) is np.ndarray and np.shares_memory(held, sub)
        swapped = np.arange(3.0).astype(">f8")
        held = pmf._owned(swapped, np.float64)
        assert held.dtype == np.dtype(np.float64) and held is not swapped
        assert np.array_equal(held, swapped) and not held.flags.writeable
        assert pmf._owned([1, 2], np.int64).tolist() == [1, 2]

    @pytest.mark.parametrize(
        "array, dtype",
        [
            (np.array([1.5]), np.int64),
            (np.array([np.nan, 1.0]), np.int64),
            (np.array([2**53 + 1]), np.float64),
            (np.array(1.5), np.int64),
        ],
        ids=["fraction", "nan", "beyond-2**53", "0-d-fraction"],
    )
    def test_owned_refuses_a_conversion_that_changes_values(self, array, dtype):
        with pytest.raises(InvalidParameterError, match="would change values"):
            pmf._owned(array, dtype)

    @pytest.mark.parametrize("size", [0, 1, 4, 5, 9])
    @pytest.mark.parametrize(
        "probs",
        [np.random.default_rng(3).random(5), np.array([7, -2, 0, 1, 3]), np.arange(5, dtype=np.int8)],
        ids=["float64", "int64", "int8"],
    )
    def test_padded_is_bitwise_np_pad(self, probs, size):
        want = np.pad(probs[:size], (0, max(0, size - probs.size)))
        got = pmf._padded(probs, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and not np.shares_memory(got, probs)


class TestMassCheck:
    # Mostly masses within a few ulps of 1 +- MASS_TOL and more than four
    # blocks long, where a blockwise float sum can round across the boundary.
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        size=st.sampled_from([4097, 5000, 9001, 65539, 100_000])
        | st.integers(1, 100_000),
        offset=st.sampled_from([-1.0, 1.0] * 4 + [-0.5, 0.5, 0.0, -3.0, 3.0]),
        ulps=st.integers(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_and_total_are_the_exact_sums(self, size, offset, ulps, seed):
        cells = _cells_summing_near(
            np.random.default_rng(seed), size, _ulps_from(1.0 + offset * MASS_TOL, ulps)
        )
        exact = math.fsum(cells.tolist())
        total = total_off_unit(cells)
        assert (total is None) == (abs(exact - 1.0) <= MASS_TOL)
        assert total is None or total == exact

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        size=st.sampled_from([16, 5000, 100_000]),
        tail=st.floats(0.0, 0.5) | st.floats(0.0, 3 * MASS_TOL),
        offset=st.sampled_from([-1.0, 1.0, 0.0]),
        ulps=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
        balanced=st.booleans(),
    )
    def test_pmf_verdict_includes_the_tail(self, size, tail, offset, ulps, seed, balanced):
        # unbalanced cells alone sum to about 1, so any positive tail counts
        target = _ulps_from(1.0 + offset * MASS_TOL - (tail if balanced else 0.0), ulps)
        cells = _cells_summing_near(np.random.default_rng(seed), size, target)
        exact = math.fsum(cells.tolist()) + tail
        if abs(exact - 1.0) <= MASS_TOL:
            Pmf(cells, tail)
        else:
            with pytest.raises(InvalidParameterError, match=f"total mass {exact!r} "):
                Pmf(cells, tail)

    @pytest.mark.parametrize("size", [10, 100_000])
    def test_refusal_prints_the_exact_total(self, size):
        cells = _cells_summing_near(np.random.default_rng(size), size, 1.0 + 3 * MASS_TOL)
        exact = math.fsum(cells.tolist())
        assert total_off_unit(cells) == exact
        with pytest.raises(InvalidParameterError) as info:
            Pmf(cells)
        assert str(info.value) == (
            f"total mass {exact!r} differs from 1 by more than {MASS_TOL}"
        )
