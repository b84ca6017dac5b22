"""Tests for chain constructions, simulation, and exact window laws."""

import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from inarlab import (
    InarParams,
    InnovationDecomposition,
    MarkovChainSpec,
    Pmf,
    SeedSpec,
    SuperpositionConfig,
    TupleLaw,
    binomial_death_chain,
    binomial_pmf,
    check_construction_equivalence,
    convolve,
    iid_chain,
    inar_kernel,
    indicator_chain,
    indicator_chain_spec,
    marginal_at,
    point_mass,
    poisson_death_chain,
    poisson_pmf,
    simulate_chain,
    simulate_inar_direct,
    simulate_inar_superposition,
    thin,
    total_variation,
    transition_matrix,
    window_joint_pmf,
    write_ensemble_csv,
)
from inarlab import chains, pmf
from inarlab.errors import (
    ExplosionLimitError,
    InvalidConfigError,
    InvalidParameterError,
    ResourceLimitError,
    SamplingBudgetError,
)
from inarlab.chains import PathEnsemble, _BLOCK_CELLS, push

from .test_pmf import sup_diff

PARAMS = InarParams(a=0.5, lam=1.0)
INT64 = np.iinfo(np.int64)


class TestInarKernel:
    def test_kernel_at_zero_is_innovation_law(self):
        spec = inar_kernel(PARAMS)
        row = transition_matrix(spec, 1)[0]
        innovation = poisson_pmf(1.0).probs
        assert np.abs(row[: innovation.size] - innovation).max() <= 1e-12
        assert not row[innovation.size :].any()

    def test_kernel_one_hand_value(self):
        # from state 1: both survivors die AND zero innovations arrive
        spec = inar_kernel(PARAMS)
        assert abs(transition_matrix(spec, 1)[1, 0] - 0.5 * math.exp(-1.0)) <= 1e-15

    def test_one_step_push_preserves_stationary_law(self):
        for a in (0.3, 0.5, 0.7):
            for lam in (0.5, 1.0, 2.0):
                spec = inar_kernel(InarParams(a=a, lam=lam))
                pushed = marginal_at(spec, 1)
                assert total_variation(pushed, spec.initial) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            InarParams(a=1.5, lam=1.0)
        with pytest.raises(InvalidParameterError):
            InarParams(a=0.5, lam=-1.0)


class TestDeathKernel:
    """Rows of a pure-death chain's table: Binomial(y, a) from state y."""

    def test_zero_is_absorbing(self):
        trans = transition_matrix(poisson_death_chain(1.0, 0.4), 3)
        assert trans[0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_single_trial(self):
        trans = transition_matrix(binomial_death_chain(1, 0.5, 0.4), 1)
        assert np.allclose(trans[1], [0.6, 0.4], atol=1e-15)

    def test_binomial_coefficient_value(self):
        trans = transition_matrix(poisson_death_chain(1.0, 0.5), 3)
        assert abs(trans[3, 2] - 0.375) <= 1e-15

    def test_support_never_grows(self):
        trans = transition_matrix(poisson_death_chain(1.0, 0.7), 7)
        assert trans.shape == (8, 8)
        for y in range(8):
            assert trans[y, y] > 0.0 and not trans[y, y + 1 :].any()

    def test_spec_is_data_with_a_derived_state_cap(self):
        chain = binomial_death_chain(5, 0.6, 0.4)
        assert (chain.a, chain.innovation.probs.tolist(), chain.state_cap) == (0.4, [1.0], 5)
        with pytest.raises(InvalidParameterError, match=r"a must lie in \[0, 1\]"):
            MarkovChainSpec(point_mass(0), 1.5, point_mass(0))

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_builders_refuse_a_outside_the_open_unit_interval(self, a):
        for build in (
            partial(poisson_death_chain, 1.0),
            partial(binomial_death_chain, 3, 0.5),
            partial(indicator_chain_spec, 0.5),
        ):
            with pytest.raises(InvalidParameterError, match=r"a must lie in \(0, 1\)"):
                build(a)


class TestBinomialDeathChain:
    def test_marginals_thin_the_start(self):
        chain = binomial_death_chain(5, 0.6, 0.4)
        for j in range(6):
            direct = marginal_at(chain, j)
            # independent route: thin the start law j times
            expected = binomial_pmf(5, 0.6)
            for _ in range(j):
                expected = thin(expected, 0.4)
            assert sup_diff(direct, expected) <= 1e-12
            assert sup_diff(direct, binomial_pmf(5, 0.6 * 0.4**j)) <= 1e-12

    def test_step_zero_is_start_law(self):
        chain = binomial_death_chain(4, 0.3, 0.5)
        assert np.array_equal(marginal_at(chain, 0).probs, binomial_pmf(4, 0.3).probs)

    def test_supports_stay_inside_start_range(self):
        chain = binomial_death_chain(4, 0.3, 0.5)
        for j in range(5):
            assert marginal_at(chain, j).max_state <= 4


class TestPoissonDeathChain:
    def test_marginals_are_thinned_poisson(self):
        chain = poisson_death_chain(2.0, 0.5)
        for j in range(11):
            assert sup_diff(marginal_at(chain, j), poisson_pmf(2.0 * 0.5**j)) <= 1e-12

    def test_step_zero(self):
        chain = poisson_death_chain(1.5, 0.3)
        assert np.array_equal(marginal_at(chain, 0).probs, poisson_pmf(1.5).probs)

    def test_mean_decays_geometrically(self):
        chain = poisson_death_chain(2.0, 0.5)
        for j in range(6):
            assert abs(marginal_at(chain, j).mean() - 2.0 * 0.5**j) <= 1e-10

    def test_semigroup_consistency(self):
        chain = poisson_death_chain(2.0, 0.6)
        for j in range(5):
            assert (
                sup_diff(marginal_at(chain, j + 1), thin(marginal_at(chain, j), 0.6))
                <= 1e-12
            )


class TestIndicatorChain:
    def test_paths_are_nonincreasing(self):
        ens = indicator_chain(0.7, 0.5, 12, 500, SeedSpec(5))
        assert np.all(np.diff(ens.paths, axis=1) <= 0)
        assert set(np.unique(ens.paths)) <= {0, 1}

    def test_survival_probability_decays(self):
        ens = indicator_chain(0.8, 0.6, 8, 200_000, SeedSpec(6))
        for k in range(8):
            expected = 0.8 * 0.6**k
            emp = ens.paths[:, k].mean()
            assert abs(emp - expected) <= 4.0 * math.sqrt(expected / 200_000) + 1e-4

    def test_zero_start_gives_zero_paths(self):
        ens = indicator_chain(0.0, 0.5, 6, 100, SeedSpec(7))
        assert not ens.paths.any()


def _chain_reference(spec, length, n_paths, seed):
    """Per-state sampling loop: from each state present, in ascending order,
    draw its kernel row, built as a Pmf from the row-by-row closed form."""
    rng = seed.generator()
    paths = np.empty((n_paths, length), dtype=np.int64)
    paths[:, 0] = pmf._sample_with_rng(spec.initial, rng, n_paths)
    for k in range(1, length):
        prev = paths[:, k - 1]
        for s in np.unique(prev):
            mask = prev == s
            paths[mask, k] = pmf._sample_with_rng(_row_reference(spec, int(s)), rng, mask.sum())
    return paths


def _row_reference(spec, x):
    """Kernel row ``x`` as a validated Pmf: the survivors' Binomial(x, a),
    convolved with the innovation; with no survivors, the innovation."""
    if spec.a == 0.0:
        return spec.innovation
    return convolve(binomial_pmf(x, spec.a), spec.innovation)


STREAM_CHAINS = {  # name -> (spec, length, n_paths)
    "death-poisson": (poisson_death_chain(3.0, 0.6), 30, 2_000),
    "death-binomial": (binomial_death_chain(12, 0.7, 0.8), 25, 2_000),
    "iid": (iid_chain(2.5), 20, 2_000),
    "inar": (inar_kernel(InarParams(a=0.7, lam=1.5)), 25, 2_000),
    "inar-high-rate": (inar_kernel(InarParams(a=0.95, lam=0.3)), 40, 1_000),
}

TABLE_CHAINS = {
    "death-binomial": binomial_death_chain(5, 0.6, 0.4),
    "death-poisson": poisson_death_chain(2.0, 0.7),
    "iid": iid_chain(3.0),
    "indicator": indicator_chain_spec(0.3, 0.6),
    "inar": inar_kernel(InarParams(a=0.9, lam=2.0)),
}


class TestSimulateChain:
    def test_single_step_matches_initial_law(self):
        chain = poisson_death_chain(2.0, 0.5)
        ens = simulate_chain(chain, 1, 100_000, SeedSpec(9))
        counts = np.bincount(ens.paths[:, 0], minlength=chain.initial.probs.size)
        tv = 0.5 * np.abs(counts / 100_000 - chain.initial.probs[: counts.size]).sum()
        assert tv <= 0.01

    def test_death_paths_never_rise(self):
        chain = binomial_death_chain(6, 0.7, 0.5)
        ens = simulate_chain(chain, 10, 2_000, SeedSpec(10))
        assert np.all(np.diff(ens.paths, axis=1) <= 0)

    def test_same_seed_reproduces_ensemble(self):
        chain = poisson_death_chain(1.0, 0.4)
        a = simulate_chain(chain, 5, 300, SeedSpec(11, 2))
        b = simulate_chain(chain, 5, 300, SeedSpec(11, 2))
        assert np.array_equal(a.paths, b.paths)

    def test_refuses_fat_tailed_kernel(self):
        fat = Pmf(np.array([0.5, 0.4]), 0.1)
        spec = MarkovChainSpec(initial=point_mass(0), a=0.5, innovation=fat)
        with pytest.raises(SamplingBudgetError):
            simulate_chain(spec, 3, 10, SeedSpec(0))
        # a single step draws only from the initial law
        assert not simulate_chain(spec, 1, 10, SeedSpec(0)).paths.any()

    @pytest.mark.parametrize("seed", [SeedSpec(3), SeedSpec(2017, 5)], ids=["seed3", "seed2017-5"])
    @pytest.mark.parametrize("construction", sorted(STREAM_CHAINS))
    def test_paths_equal_the_per_state_reference(self, construction, seed):
        spec, length, n_paths = STREAM_CHAINS[construction]
        ens = simulate_chain(spec, length, n_paths, seed)
        assert np.array_equal(ens.paths, _chain_reference(spec, length, n_paths, seed))

    def test_large_state_cap_builds_only_visited_rows(self, monkeypatch):
        # a full table at this state cap would hold about 1e10 cells
        chain = poisson_death_chain(1e5, 0.5)
        assert chain.state_cap > 100_000

        def no_table(*args):
            raise AssertionError("built a binomial table")

        monkeypatch.setattr(chains, "binomial_table", no_table)
        ens = simulate_chain(chain, 4, 20, SeedSpec(4))
        assert np.array_equal(ens.paths, _chain_reference(chain, 4, 20, SeedSpec(4)))

    def test_uniforms_past_a_rows_mass_clamp_to_its_support_end(self):
        class TopSeed:  # every uniform is the largest double below 1
            def generator(self):
                return self

            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        chain = iid_chain(2.5)  # its rows sum to 1 - 4e-13
        ens = simulate_chain(chain, 3, 5, TopSeed())
        assert np.all(ens.paths == chain.innovation.max_state)



def _direct_reference(params, length, n_paths, seed):
    """Column-at-a-time simulation drawing the same variates in the same order."""
    rng = seed.generator()
    x_prev = rng.poisson(params.stationary_mean, n_paths)
    x, u, v = (np.empty((n_paths, length), dtype=np.int64) for _ in range(3))
    for k in range(length):
        u[:, k] = rng.binomial(x_prev, params.a)
        v[:, k] = rng.poisson(params.lam, n_paths)
        x[:, k] = x_prev = u[:, k] + v[:, k]
    return x, u, v


def _superposition(length, n_paths, seed):
    cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
    return simulate_inar_superposition(PARAMS, cfg, length, n_paths, seed)


@pytest.mark.parametrize(
    "simulate",
    [partial(simulate_inar_direct, PARAMS), _superposition],
    ids=["direct", "superposition"],
)
def test_simulators_return_path_major_matrices_without_copies(simulate):
    ens, dec = simulate(7, 500, SeedSpec(11))
    for m in (ens.paths, dec.x, dec.u, dec.v):
        assert m.shape == (500, 7) and m.flags.c_contiguous
    assert np.shares_memory(ens.paths, dec.x)


class _UndrawableSeed:
    """A seed whose generator must never be asked for."""

    def generator(self):
        raise AssertionError("drew before the memory check")


SIMULATORS = {  # name -> (simulate(length, n_paths, seed), int64 arrays held)
    "direct": (partial(simulate_inar_direct, PARAMS), 5),
    "superposition": (
        partial(simulate_inar_superposition, PARAMS, SuperpositionConfig.for_budget(PARAMS)), 5
    ),
    "chain": (partial(simulate_chain, poisson_death_chain(1.0, 0.5)), 1),
    "indicator": (partial(indicator_chain, 0.5, 0.5), 1),
}


@pytest.mark.parametrize("name", SIMULATORS)
def test_simulations_larger_than_memory_are_refused_before_drawing(name, monkeypatch):
    simulate, arrays = SIMULATORS[name]
    need = arrays * 7 * 30 * 8
    monkeypatch.setattr(chains, "_physical_memory", lambda: need - 1)
    with pytest.raises(ResourceLimitError, match="physical memory"):
        simulate(7, 30, _UndrawableSeed())
    monkeypatch.setattr(chains, "_physical_memory", lambda: need)
    assert simulate(7, 30, SeedSpec(1))


@pytest.mark.parametrize("name", SIMULATORS)
@pytest.mark.parametrize("length, n_paths", [(0, 30), (7, 0), (-1, -1)])
def test_empty_simulations_are_refused_before_drawing(name, length, n_paths):
    simulate, _ = SIMULATORS[name]
    with pytest.raises(InvalidParameterError, match="^length and n_paths must be positive$"):
        simulate(length, n_paths, _UndrawableSeed())


def test_physical_memory_is_read_from_the_host():
    assert chains._physical_memory() > 2**20


class TestSimulateInarDirect:
    def test_bitwise_equal_to_column_reference(self):
        for params, seed in ((PARAMS, SeedSpec(12, 3)), (InarParams(0.9, 2.5), SeedSpec(5))):
            ens, dec = simulate_inar_direct(params, 9, 1_000, seed)
            x, u, v = _direct_reference(params, 9, 1_000, seed)
            assert np.array_equal(ens.paths, x)
            assert np.array_equal(dec.x, x)
            assert np.array_equal(dec.u, u)
            assert np.array_equal(dec.v, v)

    def test_decomposition_identity(self):
        _, dec = simulate_inar_direct(PARAMS, 30, 2_000, SeedSpec(12))
        assert np.array_equal(dec.x, dec.u + dec.v)
        assert np.all(dec.u[:, 1:] <= dec.x[:, :-1])

    def test_marginal_is_stationary(self):
        ens, _ = simulate_inar_direct(PARAMS, 4, 200_000, SeedSpec(13))
        target = poisson_pmf(2.0)
        counts = np.bincount(ens.paths[:, 2], minlength=target.probs.size)
        emp = counts / ens.n_paths
        tv = 0.5 * np.abs(emp[: target.probs.size] - target.probs).sum() + 0.5 * max(
            0.0, emp[target.probs.size :].sum()
        )
        assert tv <= 0.01

    def test_lag_one_correlation_matches_thinning_rate(self):
        _, dec = simulate_inar_direct(PARAMS, 6, 300_000, SeedSpec(14))
        r = np.corrcoef(dec.x[:, 4], dec.x[:, 5])[0, 1]
        assert abs(r - PARAMS.a) <= 0.01


class TestSimulateInarSuperposition:
    def test_decomposition_identity(self):
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        _, dec = simulate_inar_superposition(PARAMS, cfg, 10, 2_000, SeedSpec(15))
        assert np.array_equal(dec.x, dec.u + dec.v)
        assert np.all(dec.u[:, 1:] <= dec.x[:, :-1])

    def test_agrees_with_exact_law_where_the_jump_carries_most_mass(self):
        # at a = 0.9 about 200 generations start before the window and each
        # reaches index 0 in one composed-thinning draw
        rep = check_construction_equivalence(
            InarParams(a=0.9, lam=1.0), 100_000, SeedSpec(19)
        )
        assert rep.passed, (rep.statistic, rep.threshold)

    def test_marginal_and_innovation_laws(self):
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        _, dec = simulate_inar_superposition(PARAMS, cfg, 4, 200_000, SeedSpec(16))
        for column, mean in ((dec.x[:, 3], 2.0), (dec.v[:, 3], 1.0)):
            target = poisson_pmf(mean)
            counts = np.bincount(column, minlength=target.probs.size)
            tv = 0.5 * np.abs(counts / column.size - target.probs[: counts.size]).sum()
            assert tv <= 0.01

    def test_depth_budget_invariant_enforced(self):
        with pytest.raises(InvalidConfigError):
            simulate_inar_superposition(
                PARAMS, SuperpositionConfig(depth=3, tail_budget=1e-9), 5, 10, SeedSpec(0)
            )

    def test_minimal_depth_meets_budget(self):
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        assert cfg.neglected_mean(PARAMS) <= 1e-9
        assert PARAMS.lam * PARAMS.a ** (cfg.depth - 1) / (1 - PARAMS.a) > 1e-9

    @pytest.mark.parametrize(
        "params, budget, depth",
        [
            (PARAMS, 1e-15, 51),
            (PARAMS, 1e-20, 68),
            (PARAMS, 5e-324, 1075),  # 0.5**1075 underflows to 0
            (InarParams(0.9, 2.0), 1e-300, 6585),
            (InarParams(1e-300, 1e-300), 0.5, 1),
            # a**depth is 0 from depth 6.7e18 on; stepping down to it one
            # depth at a time would never end
            (InarParams(0.9999999999999999, 1e18), 5e-324, 6711563375777760768),
        ],
    )
    def test_depth_is_the_smallest_meeting_any_budget(self, params, budget, depth):
        cfg = SuperpositionConfig.for_budget(params, budget)
        assert cfg.depth == depth
        assert cfg.neglected_mean(params) <= budget
        if depth > 1:
            assert SuperpositionConfig(depth - 1, budget).neglected_mean(params) > budget

    def test_runs_above_the_generation_budget_are_refused_before_drawing(self, monkeypatch):
        cfg = SuperpositionConfig.for_budget(PARAMS)
        work = (cfg.depth + 7) * (30 + chains._GENERATION_OVERHEAD_PATHS)
        monkeypatch.setattr(chains, "_GENERATION_BUDGET", work - 1)
        with pytest.raises(ResourceLimitError, match="work units, above the superposition budget"):
            simulate_inar_superposition(PARAMS, cfg, 7, 30, _UndrawableSeed())
        monkeypatch.setattr(chains, "_GENERATION_BUDGET", work)
        assert simulate_inar_superposition(PARAMS, cfg, 7, 30, SeedSpec(1))

    def test_agrees_with_exact_window_law(self):
        spec = inar_kernel(PARAMS)
        law = window_joint_pmf(spec, [0, 1, 2], cap=spec.state_cap)
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        ens, _ = simulate_inar_superposition(PARAMS, cfg, 3, 200_000, SeedSpec(17))
        emp: dict[tuple, float] = {}
        for row in map(tuple, ens.paths.tolist()):
            emp[row] = emp.get(row, 0.0) + 1.0 / ens.n_paths
        atoms = set(law.atoms) | set(emp)
        tv = 0.5 * sum(
            abs(law.atoms.get(t, 0.0) - emp.get(t, 0.0)) for t in atoms
        )
        # multinomial mean fluctuation plus a generous deviation allowance
        mean_bound = 0.5 * sum(
            math.sqrt(p * (1 - p) / ens.n_paths) for p in law.atoms.values()
        )
        assert tv <= mean_bound + math.sqrt(math.log(100.0) / ens.n_paths)

    def test_window_laws_are_shift_invariant(self):
        # strict stationarity of the superposition, checked numerically
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        ens, _ = simulate_inar_superposition(PARAMS, cfg, 8, 200_000, SeedSpec(18))

        def empirical_pair_law(k):
            out: dict[tuple, float] = {}
            for row in map(tuple, ens.paths[:, [k, k + 1]].tolist()):
                out[row] = out.get(row, 0.0) + 1.0 / ens.n_paths
            return out

        first, last = empirical_pair_law(0), empirical_pair_law(6)
        atoms = set(first) | set(last)
        tv = 0.5 * sum(abs(first.get(t, 0.0) - last.get(t, 0.0)) for t in atoms)
        assert tv <= 0.01


def window_marginal(law, index: int) -> Pmf:
    """Law of one coordinate of a window law: its mass summed over the other
    axes, with the mass the window law lost as the tail."""
    pos = law.indices.index(index)
    probs = law.mass.sum(axis=tuple(p for p in range(law.mass.ndim) if p != pos))
    return Pmf(probs, max(0.0, 1.0 - math.fsum(probs.tolist())))


class TestWindowJointPmf:
    def test_single_index_is_initial_marginal(self):
        chain = poisson_death_chain(2.0, 0.5)
        law = window_joint_pmf(chain, [0], cap=chain.state_cap)
        assert sup_diff(window_marginal(law, 0), chain.initial) <= 1e-14

    def test_indicator_pair_probability(self):
        law = window_joint_pmf(indicator_chain_spec(0.3, 0.6), [0, 1], cap=1)
        assert abs(law.atoms[(1, 1)] - 0.3 * 0.6) <= 1e-15

    def test_marginalization_matches_marginal_at(self):
        chain = binomial_death_chain(5, 0.6, 0.4)
        law = window_joint_pmf(chain, [0, 2, 3], cap=5)
        for idx in (0, 2, 3):
            assert sup_diff(window_marginal(law, idx), marginal_at(chain, idx)) <= 1e-12

    def test_inar_window_marginal_close(self):
        spec = inar_kernel(PARAMS)
        law = window_joint_pmf(spec, [0, 1], cap=spec.state_cap)
        assert total_variation(window_marginal(law, 1), spec.initial) <= 1e-10

    def test_joint_across_gaps_is_composed_thinning(self):
        # Composed thinning is thinning at the product rate, so the law at
        # indices 1, 3, 4 chains Bin(., a), Bin(., a^2) and Bin(., a).
        a = 0.7
        chain = binomial_death_chain(6, 0.4, a)
        law = window_joint_pmf(chain, [1, 3, 4], cap=6)
        y = np.arange(7)

        def thinning(rate):
            return stats.binom.pmf(y[None, :], y[:, None], rate)

        start = stats.binom.pmf(y, 6, 0.4)
        steps = (thinning(a), thinning(a * a), thinning(a))
        want = np.einsum("w,wx,xy,yz->xyz", start, *steps)
        assert np.abs(law.mass - want).max() <= 1e-15
        # an extra observed index is summed out by split
        wide = law.split([1], [4])
        own = window_joint_pmf(chain, [1, 4], cap=6).split([1], [4])
        assert wide.mass.shape == own.mass.shape
        assert np.abs(wide.mass - own.mass).max() <= 1e-15

    @pytest.mark.parametrize("cap", [0, 1, 8, 100])
    @pytest.mark.parametrize("construction", sorted(TABLE_CHAINS))
    def test_transition_matrix_equals_the_row_reference(self, construction, cap):
        spec = TABLE_CHAINS[construction]
        rows = [_row_reference(spec, x).probs for x in range(cap + 1)]
        want = np.zeros((cap + 1, max(cap + 1, max(row.size for row in rows))))
        for x, row in enumerate(rows):
            want[x, : row.size] = row
        got = transition_matrix(spec, cap)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_unsummed_reorder_is_a_view(self):
        law = window_joint_pmf(inar_kernel(PARAMS), [0, 1, 3], cap=5)
        view = law._sum_to([2, 0, 1])
        assert np.shares_memory(view, law.mass) and not view.flags.writeable
        assert np.array_equal(view, law.mass.transpose(2, 0, 1))
        assert np.array_equal(law._sum_to([1, 0]), law.mass.sum(axis=2).T)
        split = law.split([0, 3], [1])
        assert split.mass.shape == (36, 6) and not np.shares_memory(split.mass, law.mass)

    @pytest.mark.parametrize("bad", [np.nan, -1e-3])
    def test_law_with_a_nan_or_negative_cell_is_refused(self, bad):
        mass = np.full((2, 2), 0.25)
        mass[1, 0] = bad
        with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
            TupleLaw((0, 1), mass, 0.0)

    def test_death_chain_atoms_are_nonincreasing(self):
        chain = poisson_death_chain(2.0, 0.5)
        law = window_joint_pmf(chain, [0, 1, 2], cap=10)
        for atom in law.atoms:
            assert atom[0] >= atom[1] >= atom[2]

    def test_explosion_limit(self):
        spec = inar_kernel(PARAMS)
        with pytest.raises(ExplosionLimitError):
            window_joint_pmf(spec, list(range(6)), cap=30)

    def test_index_validation(self):
        chain = poisson_death_chain(1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            window_joint_pmf(chain, [2, 1], cap=5)
        with pytest.raises(InvalidParameterError):
            window_joint_pmf(chain, [], cap=5)


class TestMarginalAt:
    def test_zero_steps_is_initial(self):
        spec = inar_kernel(PARAMS)
        assert np.array_equal(marginal_at(spec, 0).probs, spec.initial.probs)

    def test_poisson_death_example(self):
        chain = poisson_death_chain(2.0, 0.5)
        assert sup_diff(marginal_at(chain, 3), poisson_pmf(0.25)) <= 1e-12

    def test_inar_marginal_stays_stationary(self):
        spec = inar_kernel(PARAMS)
        for j in (1, 3, 6):
            assert total_variation(marginal_at(spec, j), spec.initial) <= 1e-10

    def test_iid_chain_ignores_state(self):
        chain = iid_chain(1.5)
        assert sup_diff(marginal_at(chain, 4), poisson_pmf(1.5)) <= 1e-12

    def test_matches_step_by_step_pushes(self):
        for spec in (
            inar_kernel(PARAMS),
            poisson_death_chain(3.0, 0.5),
            binomial_death_chain(6, 0.4, 0.7),
            indicator_chain_spec(0.3, 0.5),
        ):
            trans = transition_matrix(spec, spec.state_cap)
            stepped = spec.initial
            for j in range(41):
                law = marginal_at(spec, j)
                assert law.probs.size == stepped.probs.size
                assert float(np.abs(law.probs - stepped.probs).max()) <= 1e-14
                assert abs(law.tail_mass - stepped.tail_mass) <= 1e-14
                stepped = push(stepped, trans)


class TestDecompositionValidation:
    def test_identity_violation_rejected(self):
        x = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            InnovationDecomposition(x, x, x)

    def test_survivor_bound_rejected(self):
        x = np.array([[1, 1]], dtype=np.int64)
        u = np.array([[0, 2]], dtype=np.int64)
        v = np.array([[1, -1]], dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            InnovationDecomposition(x, u, v)

    @pytest.fixture
    def blocks(self):
        """A valid decomposition spanning several row blocks, the last one partial."""
        length = 8
        rows = 3 * (_BLOCK_CELLS // length) + 5
        rng = np.random.default_rng(11)
        x = rng.poisson(2.0, (rows, length))
        u = np.zeros_like(x)
        u[:, 1:] = rng.binomial(x[:, :-1], 0.5)
        InnovationDecomposition(x.copy(), u.copy(), x - u)  # valid as built
        return x, u, x - u

    def test_identity_violation_in_last_block_rejected(self, blocks):
        x, u, v = blocks
        v[-1, -1] += 1
        with pytest.raises(InvalidParameterError, match="x = u"):
            InnovationDecomposition(x, u, v)

    def test_survivor_violation_in_last_block_rejected(self, blocks):
        x, u, v = blocks
        u[-1, -1] = x[-1, -2] + 1
        v[-1, -1] = x[-1, -1] - u[-1, -1]
        with pytest.raises(InvalidParameterError, match="survivors exceed"):
            InnovationDecomposition(x, u, v)


def _allocated_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writer_and_decomposition_allocate_under_a_quarter_matrix(tmp_path):
    """Neither the CSV writer nor the decomposition checks build a full-size temporary."""
    rng = np.random.default_rng(12)
    x = rng.poisson(2.0, (20_000, 200))
    u = np.zeros_like(x)
    u[:, 1:] = rng.binomial(x[:, :-1], 0.5)
    v = x - u
    quarter = x.nbytes // 4
    assert _allocated_peak(lambda: InnovationDecomposition(x, u, v)) < quarter
    ens = PathEnsemble(x, SeedSpec(1), {"construction": "test"})
    assert _allocated_peak(lambda: write_ensemble_csv(ens, tmp_path / "x.csv")) < quarter


def _reference_csv(ensemble, path) -> None:
    """The writer one row at a time with ``str``: the bytes the encoder must match."""
    meta = dict(ensemble.params)
    lines = [
        f"# construction={meta.pop('construction', 'unknown')}",
        f"# params={json.dumps(meta, sort_keys=True)}",
        f"# root_seed={ensemble.seed.root_seed} stream_index={ensemble.seed.stream_index}",
        f"# n_paths={ensemble.n_paths} length={ensemble.length}",
        ",".join(f"t{k}" for k in range(ensemble.length)),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
        for row in ensemble.paths:
            fh.write(",".join(map(str, row.tolist())))
            fh.write("\n")


def _assert_matches_reference(matrix, directory) -> None:
    ens = PathEnsemble(matrix, SeedSpec(3, 1), {"construction": "test", "a": 0.5})
    write_ensemble_csv(ens, directory / "fast.csv")
    _reference_csv(ens, directory / "reference.csv")
    assert (directory / "fast.csv").read_bytes() == (directory / "reference.csv").read_bytes()


_RNG = np.random.default_rng(13)


def _peaked(top):
    """Small counts plus one cell of ``top``: the digit buffer type is set by ``top``."""
    return np.array([[0, 7, 10], [top, 9, 1]], dtype=np.int64)


def _negative_in_last_block():
    m = _RNG.integers(0, 120, (2 * (_BLOCK_CELLS // 10) + 3, 10))
    m[-1, 4] = -7
    return m


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[INT64.min, INT64.max], [INT64.max, INT64.min], [0, -1]]),
        _RNG.integers(-1000, 1000, (7, 9)),
        np.zeros((4, 6), dtype=np.int64),
        np.arange(-5, 5).reshape(10, 1),
        _RNG.integers(-50, 50, (2, _BLOCK_CELLS + 3)),
        _RNG.integers(0, 120, (2 * (_BLOCK_CELLS // 10) + 3, 10)),
        np.array([[9, 10, 99, 100, -9, -10, -99, -100, 0]]),
        np.zeros((0, 5), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
        np.zeros((0, 0), dtype=np.int64),
        *(_peaked(top) for top in (255, 256, 65535, 65536, 2**32 - 1, 2**32)),
        *(_peaked(top) for top in (-255, -256, -65536)),
        _negative_in_last_block(),
    ],
    ids=[
        "int64-extremes", "mixed-signs", "all-zeros", "one-column",
        "row-wider-than-a-block", "rows-not-a-block-multiple", "digit-boundaries",
        "zero-rows", "zero-columns", "empty",
        "top-255", "top-256", "top-65535", "top-65536", "top-2**32-1", "top-2**32",
        "low--255", "low--256", "low--65536", "negative-only-in-last-block",
    ],
)
def test_csv_bytes_equal_the_row_writer(matrix, tmp_path):
    _assert_matches_reference(matrix, tmp_path)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
        elements=st.integers(INT64.min, INT64.max),
    )
)
def test_csv_bytes_equal_the_row_writer_on_random_matrices(tmp_path_factory, matrix):
    _assert_matches_reference(matrix, tmp_path_factory.mktemp("csv"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
        elements=st.integers(-69_999, 69_999),
    )
)
def test_csv_bytes_equal_the_row_writer_on_narrow_magnitudes(tmp_path_factory, matrix):
    """Magnitudes below 70 000 put the digits in 8-, 16- and 32-bit buffers."""
    _assert_matches_reference(matrix, tmp_path_factory.mktemp("csv"))


class TestCsvExport:
    def test_metadata_and_roundtrip(self, tmp_path):
        ens, _ = simulate_inar_direct(PARAMS, 5, 20, SeedSpec(21))
        out = tmp_path / "paths.csv"
        write_ensemble_csv(ens, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# construction=direct"
        assert lines[1].startswith("# params=")
        assert lines[4] == "t0,t1,t2,t3,t4"
        data = np.loadtxt(out, delimiter=",", skiprows=5, dtype=np.int64)
        assert np.array_equal(data, ens.paths)

    def test_identical_runs_identical_files(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            ens, _ = simulate_inar_direct(PARAMS, 4, 10, SeedSpec(22))
            write_ensemble_csv(ens, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
