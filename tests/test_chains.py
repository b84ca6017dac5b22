"""Tests for chain constructions, simulation, and exact window laws."""

import json
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from inarlab import (
    InarParams,
    JointPmf,
    MarkovChainSpec,
    Pmf,
    SeedSpec,
    SuperpositionConfig,
    TripletPmf,
    TupleLaw,
    WindowSpec,
    binomial_death_chain,
    binomial_pmf,
    check_construction_equivalence,
    convolve,
    iid_chain,
    inar_kernel,
    indicator_chain,
    indicator_chain_spec,
    lag_joint,
    marginal_at,
    point_mass,
    poisson_death_chain,
    poisson_pmf,
    rho_star_window,
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
from inarlab.chains import PathEnsemble, _BLOCK_CELLS
from inarlab.cli import main
from inarlab.harness import McConfig

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

    def draw(law, count):  # inverse CDF, clamped at the table's last state
        cdf = np.cumsum(law.probs)
        return np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), cdf.size - 1)

    paths = np.empty((n_paths, length), dtype=np.int64)
    paths[:, 0] = draw(spec.initial, n_paths)
    for k in range(1, length):
        prev = paths[:, k - 1]
        for s in np.unique(prev):
            mask = prev == s
            paths[mask, k] = draw(_row_reference(spec, int(s)), mask.sum())
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


class _UndrawableSeed:
    """A seed whose generator must never be asked for."""

    def generator(self):
        raise AssertionError("drew before the memory check")


SIMULATORS = {  # name -> (simulate(length, n_paths, seed), int64 arrays held)
    "direct": (partial(simulate_inar_direct, PARAMS), 2),
    "superposition": (
        partial(simulate_inar_superposition, PARAMS, SuperpositionConfig.for_budget(PARAMS)), 2
    ),
    "chain": (partial(simulate_chain, poisson_death_chain(1.0, 0.5)), 1),
    "indicator": (partial(indicator_chain, 0.5, 0.5), 1),
}


@pytest.mark.parametrize("name", SIMULATORS)
def test_simulators_hand_over_their_step_major_buffers(name, monkeypatch):
    """Every simulator fills a (length, n_paths) buffer one row per step and
    its holder keeps the transpose as it is: one path per row, each step a
    contiguous column, no array copied on the way in.  The survivors are
    computed on read, in the same layout."""
    uncopied = []

    def owned(array, dtype):
        out = pmf._owned(array, dtype)
        uncopied.append(np.shares_memory(out, array))
        return out

    monkeypatch.setattr(chains, "_owned", owned)
    simulate, _ = SIMULATORS[name]
    ens = simulate(7, 500, SeedSpec(11))
    held = [ens.paths] if ens.v is None else [ens.paths, ens.v]
    assert uncopied == [True] * len(held)
    if ens.v is not None:
        held.append(ens.u)
    for m in held:
        assert m.shape == (500, 7) and m.T.flags.c_contiguous


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
    bad, value = ("length", length) if length < 1 else ("n_paths", n_paths)
    with pytest.raises(InvalidParameterError, match=f"^{bad} must be at least 1, got {value}$"):
        simulate(length, n_paths, _UndrawableSeed())


def test_physical_memory_is_read_from_the_host():
    assert chains._physical_memory() > 2**20


class TestSimulateInarDirect:
    def test_bitwise_equal_to_column_reference(self):
        for params, seed in (
            (PARAMS, SeedSpec(12, 3)),
            (InarParams(0.9, 2.5), SeedSpec(5)),
            (InarParams(0.9, 30.0), SeedSpec(19)),  # x widens to int16
        ):
            ens = simulate_inar_direct(params, 9, 1_000, seed)
            x, u, v = _direct_reference(params, 9, 1_000, seed)
            assert np.array_equal(ens.paths, x)
            assert np.array_equal(ens.u, u)
            assert np.array_equal(ens.v, v)

    def test_decomposition_identity(self):
        ens = simulate_inar_direct(PARAMS, 30, 2_000, SeedSpec(12))
        assert np.array_equal(ens.paths, ens.u + ens.v)
        assert np.all(ens.u[:, 1:] <= ens.paths[:, :-1])

    def test_marginal_is_stationary(self):
        ens = simulate_inar_direct(PARAMS, 4, 200_000, SeedSpec(13))
        target = poisson_pmf(2.0)
        counts = np.bincount(ens.paths[:, 2], minlength=target.probs.size)
        emp = counts / ens.n_paths
        tv = 0.5 * np.abs(emp[: target.probs.size] - target.probs).sum() + 0.5 * max(
            0.0, emp[target.probs.size :].sum()
        )
        assert tv <= 0.01

    def test_lag_one_correlation_matches_thinning_rate(self):
        ens = simulate_inar_direct(PARAMS, 6, 300_000, SeedSpec(14))
        r = np.corrcoef(ens.paths[:, 4], ens.paths[:, 5])[0, 1]
        assert abs(r - PARAMS.a) <= 0.01


class TestSimulateInarSuperposition:
    def test_decomposition_identity(self):
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        ens = simulate_inar_superposition(PARAMS, cfg, 10, 2_000, SeedSpec(15))
        assert np.array_equal(ens.paths, ens.u + ens.v)
        assert np.all(ens.u[:, 1:] <= ens.paths[:, :-1])

    def test_agrees_with_exact_law_where_the_jump_carries_most_mass(self):
        # at a = 0.9 about 200 generations start before the window and each
        # reaches index 0 in one composed-thinning draw
        rep = check_construction_equivalence(
            InarParams(a=0.9, lam=1.0), 100_000, SeedSpec(19)
        )
        assert rep.passed, (rep.statistic, rep.threshold)

    def test_marginal_and_innovation_laws(self):
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        ens = simulate_inar_superposition(PARAMS, cfg, 4, 200_000, SeedSpec(16))
        for column, mean in ((ens.paths[:, 3], 2.0), (ens.v[:, 3], 1.0)):
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
        work = chains._superposition_work(PARAMS, cfg.depth, 7, 30)
        monkeypatch.setattr(chains, "_GENERATION_BUDGET", work - 1)
        with pytest.raises(ResourceLimitError, match="work units, above the superposition budget"):
            simulate_inar_superposition(PARAMS, cfg, 7, 30, _UndrawableSeed())
        monkeypatch.setattr(chains, "_GENERATION_BUDGET", work)
        assert simulate_inar_superposition(PARAMS, cfg, 7, 30, SeedSpec(1))

    def test_in_window_steps_count_toward_the_budget(self):
        """At a near 1 each generation lives through the whole window: some
        35 000 live generations of 200 steps each, which drew for minutes
        while the generation count alone (8.5e6 units) was admitted."""
        params = InarParams(0.999, 1e15)
        cfg = SuperpositionConfig.for_budget(params, 0.5)
        c = chains._GENERATION_OVERHEAD_PATHS
        assert (cfg.depth + 200) * (1 + c) < chains._GENERATION_BUDGET / 10
        assert chains._superposition_work(params, cfg.depth, 200, 1) > chains._GENERATION_BUDGET
        with pytest.raises(ResourceLimitError, match="work units, above the superposition budget"):
            simulate_inar_superposition(params, cfg, 200, 1, _UndrawableSeed())

    def test_work_counts_live_generations_only(self):
        # a = 0.5, lambda = 1, 10**6 paths: a generation lives about 21 steps
        cfg = SuperpositionConfig.for_budget(PARAMS)
        life = 1 + math.log(10**6) / math.log(2)
        c = chains._GENERATION_OVERHEAD_PATHS
        steps = (2 + min(cfg.depth, life)) * min(2, life)
        draws = (cfg.depth + 2) * (10**6 + c)
        assert chains._superposition_work(PARAMS, cfg.depth, 2, 10**6) == draws + steps * c

    def test_agrees_with_exact_window_law(self):
        spec = inar_kernel(PARAMS)
        law = window_joint_pmf(spec, [0, 1, 2], cap=spec.state_cap)
        cfg = SuperpositionConfig.for_budget(PARAMS, 1e-9)
        ens = simulate_inar_superposition(PARAMS, cfg, 3, 200_000, SeedSpec(17))
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
        ens = simulate_inar_superposition(PARAMS, cfg, 8, 200_000, SeedSpec(18))

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
        def binom(n, z, rate):  # the exact cell of the double rate, rounded once
            rate = Fraction(rate)
            return float(math.comb(n, z) * rate**z * (1 - rate) ** (n - z)) if z <= n else 0.0

        def thinning(rate):
            return np.array([[binom(n, z, rate) for z in range(7)] for n in range(7)])

        start = np.array([binom(6, z, 0.4) for z in range(7)])
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

    def test_transition_matrix_is_read_only_and_built_once(self, monkeypatch):
        builds = []
        monkeypatch.setattr(
            chains, "binomial_table", lambda n, a: builds.append(n) or pmf.binomial_table(n, a)
        )
        spec = inar_kernel(PARAMS)
        table = transition_matrix(spec, 6)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        assert transition_matrix(spec, 6) is table
        assert transition_matrix(spec, 7) is not table
        assert builds == [6, 7]
        # a new spec builds its own; the tables are not part of its repr
        other = inar_kernel(PARAMS)
        assert np.array_equal(transition_matrix(other, 6), table) and builds == [6, 7, 6]
        assert "_kernels" not in repr(other)

    def test_gap_powers_are_built_once_per_spec_and_cap(self, monkeypatch):
        """A second law with a gap of 2 reads the first law's power, which is
        read-only; a new spec builds its own, and none shows in its repr."""
        built = []
        power_of = np.linalg.matrix_power
        monkeypatch.setattr(
            np.linalg, "matrix_power", lambda m, n: built.append(n) or power_of(m, n)
        )
        spec = inar_kernel(PARAMS)
        first = window_joint_pmf(spec, [0, 2], 6)
        power = spec._kernels[6, 2]
        assert not power.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            power[0, 0] = 1.0
        window_joint_pmf(spec, [1, 3, 5], 6)
        assert spec._kernels[6, 2] is power and built == [0, 2, 1]
        other = inar_kernel(PARAMS)
        again = window_joint_pmf(other, [0, 2], 6)
        assert built == [0, 2, 1, 0, 2] and other._kernels[6, 2] is not power
        assert np.array_equal(other._kernels[6, 2], power)
        assert again.mass.tobytes() == first.mass.tobytes()
        assert "_kernels" not in repr(other)

    def test_gap_powers_are_kept_only_within_the_budget_and_the_widest_window(self):
        """A power is kept only when its table fits 2**17 cells (cap 361, not
        362) and its exponent is below the widest scannable window (8)."""
        spec = iid_chain(1.0)
        window_joint_pmf(spec, [1, 2], 361)
        window_joint_pmf(spec, [1, 2], 362)
        assert (361, 1) in spec._kernels and (362, 1) not in spec._kernels
        window_joint_pmf(spec, [0, 7, 15], 4)
        window_joint_pmf(spec, [9], 4)
        assert [n for n in range(20) if (4, n) in spec._kernels] == [0, 7]
        assert chains.DEFAULT_MAX_WIDTH == 8

    def test_scans_are_bitwise_equal_with_a_cold_a_warm_and_no_power_cache(self, monkeypatch):
        def scans(spec_of):
            return [
                rho_star_window(spec_of("inar"), 5, 1, 6),
                rho_star_window(spec_of("death"), 4, 1, 10),
                rho_star_window(spec_of("indicator"), 8, 1, 1),
            ]

        makers = {
            "inar": lambda: inar_kernel(PARAMS),
            "death": lambda: poisson_death_chain(3.0, 0.5),
            "indicator": lambda: indicator_chain_spec(0.5, 0.5),
        }
        specs = {kind: make() for kind, make in makers.items()}
        cold = scans(specs.get)
        warm = scans(specs.get)
        monkeypatch.setattr(chains, "_WORK_BUDGET", 0)  # keeps no power at all
        uncached = scans(lambda kind: makers[kind]())
        assert all(len(spec._kernels) > 1 for spec in specs.values())
        assert repr(cold) == repr(warm) == repr(uncached)

    def test_unsummed_reorder_is_a_view(self):
        law = window_joint_pmf(inar_kernel(PARAMS), [0, 1, 3], cap=5)
        view = law._sum_to([2, 0, 1])
        assert np.shares_memory(view, law.mass) and not view.flags.writeable
        assert np.array_equal(view, law.mass.transpose(2, 0, 1))
        assert np.array_equal(law._sum_to([1, 0]), law.mass.sum(axis=2).T)
        split = law.split([0, 3], [1])
        assert split.mass.shape == (36, 6) and not np.shares_memory(split.mass, law.mass)

    def test_law_refuses_writes_through_itself_and_the_callers_array(self):
        """The one mass check holds for every later split: no alias of the
        tensor can turn a cell negative after it."""
        mass = np.full((2, 2), 0.25)
        law = TupleLaw((0, 1), mass, 0.0)
        for alias in (law.mass, mass):
            with pytest.raises(ValueError, match="read-only"):
                alias[0, 0] = -0.25
        assert law.split([0], [1]).mass.tolist() == [[0.25, 0.25], [0.25, 0.25]]

    @pytest.mark.parametrize("bad", [np.nan, -1e-3])
    def test_law_with_a_nan_or_negative_cell_is_refused(self, bad):
        mass = np.full((2, 2), 0.25)
        mass[1, 0] = bad
        with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
            TupleLaw((0, 1), mass, 0.0)

    @pytest.mark.parametrize(
        "indices, shape, message",
        [
            ((0, 1), (2, 3), "mass must have one axis per index, all of one length"),
            ((0, 1, 2), (2, 2), "mass must have one axis per index, all of one length"),
            ((0,), (2, 2), "mass must have one axis per index, all of one length"),
            ((1, 0), (2, 2), "indices must be nonempty, nonnegative, strictly increasing"),
            ((0, 0), (2, 2), "indices must be nonempty, nonnegative, strictly increasing"),
            ((), (), "indices must be nonempty, nonnegative, strictly increasing"),
            ((-1, 0), (2, 2), "index must be at least 0, got -1"),
            ((0, 1.0), (2, 2), "index must be an integer, got 1.0"),
        ],
    )
    def test_law_refuses_indices_and_axes_that_do_not_match(self, indices, shape, message):
        """A tensor that is not one equal axis per increasing index never
        reaches ``split`` (numpy's reshape error) or ``verify_absorbing_split``
        (a bare IndexError), and is never split as a law over fewer indices."""
        mass = np.full(shape, 1.0 / math.prod(shape))
        with pytest.raises(InvalidParameterError) as refused:
            TupleLaw(indices, mass, 0.0)
        assert str(refused.value) == message

    def test_law_reads_its_indices_as_a_tuple_of_ints(self):
        law = TupleLaw([0, np.int64(2)], np.full((2, 2), 0.25), 0.0)
        assert law.indices == (0, 2) and all(type(i) is int for i in law.indices)

    @pytest.mark.parametrize(
        "s, t, missing",
        [
            ([0], [5], 5),
            ([7], [1], 7),
            ([0, 2], [1], 2),
            ([0], [np.int64(3)], np.int64(3)),
            ([np.array(4)], [1], np.array(4)),
        ],
    )
    def test_split_refuses_an_index_the_law_does_not_observe(self, s, t, missing):
        law = window_joint_pmf(poisson_death_chain(2.0, 0.5), [0, 1], 3)
        with pytest.raises(InvalidParameterError) as refused:
            law.split(s, t)
        assert str(refused.value) == f"index {missing!r} is not one of the law's indices (0, 1)"

    def test_split_reads_an_unhashable_index_equal_to_an_observed_one(self):
        law = window_joint_pmf(poisson_death_chain(2.0, 0.5), [0, 1], 3)
        by_array = law.split([np.array(0)], [np.array(1)])
        assert np.array_equal(by_array.mass, law.split([0], [1]).mass)

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

    def test_matches_step_by_step_products(self):
        """One step at a time: the law on {0..cap} times the kernel table,
        the mass from states above the cap dropped into the tail."""
        for spec in (
            inar_kernel(PARAMS),
            poisson_death_chain(3.0, 0.5),
            binomial_death_chain(6, 0.4, 0.7),
            indicator_chain_spec(0.3, 0.5),
        ):
            trans = transition_matrix(spec, spec.state_cap)
            rows = trans.shape[0]
            probs, tail = spec.initial.probs, spec.initial.tail_mass
            for j in range(41):
                law = marginal_at(spec, j)
                assert law.probs.size == probs.size
                assert float(np.abs(law.probs - probs).max()) <= 1e-14
                assert abs(law.tail_mass - tail) <= 1e-14
                probs = probs[:rows] @ trans
                tail = max(0.0, 1.0 - math.fsum(probs.tolist()))


def _rho_n_max(chain, n_max):
    """``inarlab rho --n-max``, its exit-2 refusal raised as the library's."""
    res = CliRunner().invoke(
        main, ["rho", "indicator", "--p0", "0.5", "--a", "0.5", "--cap", "1",
               "--n-max", str(n_max)]
    )
    if res.exit_code == 2:
        raise InvalidParameterError(res.stderr.removeprefix("invalid parameters: ").rstrip())
    assert res.exit_code == 0, res.output


# Every integer argument with a floor: the call given a chain and the value,
# the argument's name, its floor and the class that refuses what is below it.
FLOORS = {
    "SeedSpec.root_seed": (lambda c, v: SeedSpec(v), "root_seed", 0, InvalidParameterError),
    "SeedSpec.stream_index": (
        lambda c, v: SeedSpec(1, v), "stream_index", 0, InvalidParameterError
    ),
    "point_mass": (lambda c, v: point_mass(v), "state", 0, InvalidParameterError),
    "binomial_pmf": (lambda c, v: binomial_pmf(v, 0.5), "n", 0, InvalidParameterError),
    "simulate.length": (
        lambda c, v: simulate_chain(c, v, 3, SeedSpec(1)), "length", 1, InvalidParameterError
    ),
    "simulate.n_paths": (
        lambda c, v: simulate_chain(c, 3, v, SeedSpec(1)), "n_paths", 1, InvalidParameterError
    ),
    "SuperpositionConfig.depth": (
        lambda c, v: SuperpositionConfig(v), "depth", 1, InvalidConfigError
    ),
    "binomial_death_chain": (
        lambda c, v: binomial_death_chain(v, 0.4, 0.5), "n", 1, InvalidParameterError
    ),
    "transition_matrix": (transition_matrix, "cap", 0, InvalidParameterError),
    "require_window_atoms": (
        lambda c, v: chains.require_window_atoms(v, 2), "cap", 0, InvalidParameterError
    ),
    "window_joint_pmf": (
        lambda c, v: window_joint_pmf(c, [v, 2], 3), "index", 0, InvalidParameterError
    ),
    "marginal_at": (marginal_at, "j", 0, InvalidParameterError),
    "WindowSpec.gap": (
        lambda c, v: WindowSpec(4, (0,), (2,), v), "gap", 1, InvalidParameterError
    ),
    "WindowSpec.index": (
        lambda c, v: WindowSpec(4, (v,), (2,), 1), "index", 0, InvalidParameterError
    ),
    "rho_star_window.width": (
        lambda c, v: rho_star_window(c, v, 1, 3), "width", 1, InvalidParameterError
    ),
    "rho_star_window.gap": (
        lambda c, v: rho_star_window(c, 3, v, 3), "gap", 1, InvalidParameterError
    ),
    "lag_joint.n": (lambda c, v: lag_joint(c, v, 3), "n", 1, InvalidParameterError),
    "lag_joint.cap": (lambda c, v: lag_joint(c, 1, v), "cap", 1, InvalidParameterError),
    "McConfig.n_paths": (
        lambda c, v: McConfig(n_paths=v), "n_paths", 10_000, InvalidConfigError
    ),
    "McConfig.path_length": (
        lambda c, v: McConfig(path_length=v), "path_length", 2, InvalidConfigError
    ),
    "rho --n-max": (_rho_n_max, "--n-max", 1, InvalidParameterError),
}


class TestIntegerArguments:
    """Indices, steps and depths are refused unless they are integers, as
    SeedSpec's are; a float is never truncated to the index below it, and an
    integer below its floor is refused with one message."""

    CHAIN = poisson_death_chain(2.0, 0.5)

    @pytest.mark.parametrize("indices", [[0, 1.5], [0.0, 1], [0, True], [0, "1"]])
    def test_window_indices(self, indices):
        with pytest.raises(InvalidParameterError, match="index must be an integer, got"):
            window_joint_pmf(self.CHAIN, indices, cap=5)

    @pytest.mark.parametrize("j", [2.0, 0.5, True, np.bool_(True)])
    def test_marginal_steps(self, j):
        with pytest.raises(InvalidParameterError, match="j must be an integer, got"):
            marginal_at(self.CHAIN, j)

    @pytest.mark.parametrize("depth", [2.5, 3.0, True])
    def test_superposition_depth(self, depth):
        with pytest.raises(InvalidConfigError, match="depth must be an integer, got"):
            SuperpositionConfig(depth)

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda chain, cap: window_joint_pmf(chain, [0, 1], cap),
            lambda chain, cap: lag_joint(chain, 1, cap),
            transition_matrix,
            lambda chain, cap: rho_star_window(chain, 3, 1, cap),
            lambda chain, cap: rho_star_window(chain, 2, 2, cap),
        ],
        ids=[
            "window_joint_pmf",
            "lag_joint",
            "transition_matrix",
            "rho_star_window",
            "rho_star_window_vacuous",
        ],
    )
    def test_caps(self, call, cap):
        with pytest.raises(InvalidParameterError, match="cap must be an integer, got"):
            call(self.CHAIN, cap)

    @pytest.mark.parametrize("value", [4.0, 2.5, True, "4"])
    @pytest.mark.parametrize("name", ["width", "gap"])
    def test_window_width_and_gap(self, name, value):
        width, gap = (value, 1) if name == "width" else (4, value)
        with pytest.raises(InvalidParameterError, match=f"{name} must be an integer, got"):
            rho_star_window(self.CHAIN, width, gap, 5)

    @pytest.mark.parametrize("state", [1.5, 2.0, "2", True])
    def test_point_mass_state(self, state):
        with pytest.raises(InvalidParameterError, match="state must be an integer, got"):
            point_mass(state)

    @pytest.mark.parametrize("name", SIMULATORS)
    @pytest.mark.parametrize(
        "length, n_paths, bad",
        [(2.0, 3, "length"), (2.5, 3, "length"), (True, 3, "length"), (3, 3.0, "n_paths")],
    )
    def test_simulation_sizes(self, name, length, n_paths, bad):
        simulate, _ = SIMULATORS[name]
        with pytest.raises(InvalidParameterError, match=f"{bad} must be an integer, got"):
            simulate(length, n_paths, _UndrawableSeed())

    @pytest.mark.parametrize(
        "width, gap, bad", [(4.5, 1, "width"), (True, 1, "width"), (4, 1.0, "gap"), (4, "1", "gap")]
    )
    def test_window_spec_width_and_gap(self, width, gap, bad):
        with pytest.raises(InvalidParameterError, match=f"{bad} must be an integer, got"):
            WindowSpec(width, (0,), (2,), gap)

    @pytest.mark.parametrize("n", [3.0, 2.5, True, "3", 2.0])
    def test_death_chain_size(self, n):
        with pytest.raises(InvalidParameterError, match="n must be an integer, got"):
            binomial_death_chain(n, 0.4, 0.5)
        with pytest.raises(InvalidParameterError, match="n must be an integer, got"):
            binomial_pmf(n, 0.5)

    @pytest.mark.parametrize("n", [0, -2, np.int64(0)])
    def test_death_chain_size_must_be_positive(self, n):
        with pytest.raises(InvalidParameterError, match=f"^n must be at least 1, got {n}$"):
            binomial_death_chain(n, 0.4, 0.5)

    @pytest.mark.parametrize("n", [-1, np.int64(-2)])
    def test_binomial_trials_must_be_nonnegative(self, n):
        with pytest.raises(InvalidParameterError, match=f"^n must be at least 0, got {n}$"):
            binomial_pmf(n, 0.5)

    @pytest.mark.parametrize("kind", [int, np.int64])
    @pytest.mark.parametrize("call, name, least, error", FLOORS.values(), ids=list(FLOORS))
    def test_floors(self, call, name, least, error, kind):
        """Each integer argument refuses ``least - 1`` and below with the one
        floor message and its own class, and accepts ``least``."""
        for below in (least - 1, least - 3):
            with pytest.raises(InvalidParameterError) as refused:
                call(self.CHAIN, kind(below))
            assert refused.type is error
            assert str(refused.value) == f"{name} must be at least {least}, got {below}"
        call(self.CHAIN, kind(least))

    def test_floor_names_an_integer_too_long_to_print_by_its_size(self):
        with pytest.raises(InvalidParameterError) as refused:
            binomial_pmf(-(10**5000), 0.5)
        assert str(refused.value) == "n must be at least 0, got a 16610-bit integer"

    def test_numpy_integers_are_accepted(self):
        law = window_joint_pmf(self.CHAIN, np.array([0, 2]), cap=5)
        assert law.indices == (0, 2) and all(type(i) is int for i in law.indices)
        assert np.array_equal(law.mass, window_joint_pmf(self.CHAIN, [0, 2], cap=5).mass)
        assert np.array_equal(marginal_at(self.CHAIN, np.int64(3)).probs,
                              marginal_at(self.CHAIN, 3).probs)
        cfg = SuperpositionConfig(np.int32(4))
        assert cfg.depth == 4 and type(cfg.depth) is int
        assert transition_matrix(self.CHAIN, np.int64(3)) is transition_matrix(self.CHAIN, 3)
        chain = binomial_death_chain(np.int64(6), 0.4, 0.5)
        assert chain.description["n"] == 6 and type(chain.description["n"]) is int
        assert point_mass(np.int64(2)).probs.tolist() == [0.0, 0.0, 1.0]
        pair = WindowSpec(np.int64(4), (0,), (2,), np.int32(1))
        assert (pair.width, pair.gap) == (4, 1) and type(pair.width) is type(pair.gap) is int
        ens = simulate_inar_direct(PARAMS, np.int64(3), np.int32(2), SeedSpec(1))
        assert ens.paths.shape == (2, 3)


def _valid_decomposition(rng, rows, length):
    """Counts ``x = u + v`` of ``rows`` paths: Poisson(1) innovations ``v``,
    and survivors ``u`` thinned at rate 0.5 from the previous count (Poisson(1)
    at step 0), so every step has ``0 <= v <= x`` and ``u <= x_prev``."""
    v = rng.poisson(1.0, (rows, length))
    u = np.zeros_like(v)
    u[:, 0] = rng.poisson(1.0, rows)
    x = u + v
    for k in range(1, length):
        u[:, k] = rng.binomial(x[:, k - 1], 0.5)
        x[:, k] = u[:, k] + v[:, k]
    return x, u, v


def _decomposed(x, v) -> PathEnsemble:
    """An ensemble of the counts ``x`` with innovations ``v``."""
    return PathEnsemble(x, SeedSpec(1), {}, v)


class TestDecompositionValidation:
    def test_survivor_bound_rejected(self):
        x = np.array([[1, 3]], dtype=np.int64)
        u = np.array([[0, 2]], dtype=np.int64)
        v = np.array([[1, 1]], dtype=np.int64)
        assert np.array_equal(v, x - u)
        with pytest.raises(InvalidParameterError, match="survivors exceed"):
            _decomposed(x, v)

    @pytest.mark.parametrize("name", ["direct", "superposition"])
    def test_survivors_are_a_new_difference_on_each_read(self, name):
        """x = u + v cannot fail: ``u`` is ``x - v``, bit for bit, built anew
        on each read and never an alias of the held matrices."""
        simulate, _ = SIMULATORS[name]
        ens = simulate(9, 1_000, SeedSpec(23))
        first, second = ens.u, ens.u
        assert first.dtype == np.result_type(ens.paths, ens.v)
        assert np.array_equal(first, np.subtract(ens.paths, ens.v, dtype=np.int64))
        assert np.array_equal(second, first)
        assert first is not second and not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, m) for m in (ens.paths, ens.v))
        assert np.array_equal(ens.paths, first + ens.v)

    @pytest.fixture
    def blocks(self):
        """A valid decomposition spanning several row blocks, the last one partial."""
        length = 8
        rows = 3 * (_BLOCK_CELLS // length) + 5
        x, u, v = _valid_decomposition(np.random.default_rng(11), rows, length)
        _decomposed(x.copy(), v.copy())  # valid as built
        return x, u, v

    def test_survivor_violation_in_first_step_rejected(self, blocks):
        """Survivors one above their source, planted with the innovation kept."""
        x, u, v = blocks
        row = x.shape[0] // 2
        u[row, 1] = x[row, 0] + 1
        x[row, 1] = u[row, 1] + v[row, 1]
        with pytest.raises(InvalidParameterError, match="survivors exceed"):
            _decomposed(x, v)

    def test_survivor_violation_in_last_block_rejected(self, blocks):
        x, u, v = blocks
        u[-1, -1] = x[-1, -2] + 1
        x[-1, -1] = u[-1, -1] + v[-1, -1]
        with pytest.raises(InvalidParameterError, match="survivors exceed"):
            _decomposed(x, v)

    def test_paths_of_two_shapes_rejected(self):
        with pytest.raises(InvalidParameterError, match="paths and v must share a shape"):
            _decomposed(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(InvalidParameterError, match="paths must be a 2-D matrix"):
            _decomposed(np.ones(3), np.ones(3))


VALUE_OBJECTS = {  # the frozen dataclasses that hold ndarray fields
    "Pmf": lambda: poisson_pmf(1.0),
    "MarkovChainSpec": lambda: inar_kernel(PARAMS),
    "PathEnsemble": lambda: PathEnsemble(np.ones((2, 3)), SeedSpec(1), {"a": 0.5}),
    "PathEnsemble-with-v": lambda: _decomposed(np.ones((2, 3)), np.ones((2, 3))),
    "JointPmf": lambda: JointPmf(np.full((2, 2), 0.25)),
    "TripletPmf": lambda: TripletPmf(np.full((2, 2, 2), 0.125)),
}


@pytest.mark.parametrize("make", VALUE_OBJECTS.values(), ids=list(VALUE_OBJECTS))
def test_array_holders_compare_and_hash_by_identity(make):
    """``==`` answers instead of raising on an array's ambiguous truth value,
    and ``hash`` works; equal contents do not make two objects equal."""
    first, second = make(), make()
    assert first == first and hash(first) == hash(first)
    assert first != second
    assert len({first, second}) == 2


HOLDERS = {  # name -> (hold(array), the attribute holding it, a fresh array it takes as is)
    "Pmf": (Pmf, "probs", lambda: np.full(4, 0.25)),
    "TupleLaw": (lambda m: TupleLaw((0, 1), m, 0.0), "mass", lambda: np.full((2, 2), 0.25)),
    "JointPmf": (JointPmf, "mass", lambda: np.full((2, 2), 0.25)),
    "TripletPmf": (TripletPmf, "mass", lambda: np.full((2, 2, 2), 0.125)),
    "PathEnsemble": (
        lambda m: PathEnsemble(m, SeedSpec(1), {}), "paths", lambda: np.ones((2, 3), np.int64)
    ),
    "PathEnsemble-with-v": (
        lambda m: _decomposed(m, np.zeros(m.shape, np.int64)),
        "paths",
        lambda: np.ones((2, 3), np.int64),
    ),
    "PathEnsemble-v": (
        lambda m: _decomposed(np.full(m.shape, 2), m), "v", lambda: np.ones((2, 3), np.int64)
    ),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_holders_own_their_arrays_and_refuse_changed_values(name):
    """An array already of the holder's dtype, in C or Fortran layout, is held
    uncopied and turns read-only for the caller too; a conversion that would
    change a value (2**53 + 1 to float64; 1.5 or NaN to int64) is refused."""
    hold, attribute, make = HOLDERS[name]
    for array in (np.asfortranarray(make()), make()):
        held = getattr(hold(array), attribute)
        assert np.shares_memory(held, array)
        assert not held.flags.writeable and not array.flags.writeable
    changes = [2**53 + 1] if array.dtype == np.float64 else [1.5, np.nan]
    for value in changes:
        with pytest.raises(InvalidParameterError, match="would change values"):
            hold(np.full(array.shape, value))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.bool_])
def test_count_holders_keep_any_signed_width_and_widen_the_rest(dtype):
    """A signed-integer matrix of any width is held uncopied; any other
    integer or bool matrix is held as an int64 copy."""
    signed = np.dtype(dtype).kind == "i"
    for hold, attribute in (
        (lambda m: PathEnsemble(m, SeedSpec(1), {}), "paths"),
        (lambda m: _decomposed(m, np.zeros_like(m)), "paths"),
    ):
        array = np.ones((2, 3), dtype)
        held = getattr(hold(array), attribute)
        assert held.dtype == (dtype if signed else np.int64)
        assert np.shares_memory(held, array) == signed and np.array_equal(held, array)


@pytest.mark.parametrize(
    "hold, message",
    [
        (lambda: Pmf(1.0), "probs must be a nonempty 1-D array"),
        (lambda: Pmf(np.float64(1.0)), "probs must be a nonempty 1-D array"),
        (lambda: JointPmf(np.float64(1.0)), "mass must be 2-dimensional"),
        (lambda: PathEnsemble(np.int64(1), SeedSpec(1), {}), "paths must be a 2-D matrix"),
    ],
    ids=["Pmf-float", "Pmf-float64", "JointPmf-float64", "PathEnsemble-int64"],
)
def test_holders_refuse_a_scalar_by_their_own_shape_rule(hold, message):
    """A 0-d input keeps its shape through ``pmf._owned``, so the holder's
    shape rule refuses it, not a conversion check that read it as 1-D."""
    with pytest.raises(InvalidParameterError) as refused:
        hold()
    assert str(refused.value) == message


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
    """Neither the CSV writer, of any component, nor the ensemble's survivor
    check builds a full-size temporary, whether the paths are held in C or in
    Fortran layout (the transpose of a simulator's step-major buffer)."""
    x, _, v = _valid_decomposition(np.random.default_rng(12), 20_000, 200)
    quarter = x.nbytes // 4
    for order in "CF":
        xo, vo = (np.asarray(m, order=order) for m in (x, v))
        assert _allocated_peak(lambda: _decomposed(xo, vo)) < quarter
        ens = PathEnsemble(xo, SeedSpec(1), {"construction": "test"}, vo)
        for part in "xuv":
            write = partial(write_ensemble_csv, ens, tmp_path / f"{part}.csv", part)
            assert _allocated_peak(write) < quarter


@pytest.mark.parametrize(
    "simulate",
    [partial(simulate_inar_direct, PARAMS), _superposition],
    ids=["direct", "superposition"],
)
def test_decomposed_simulators_peak_under_three_path_matrices(simulate):
    """At most two path-sized matrices live at once, the step-major x and v
    buffers, int8 at this mean, plus per-step int64 vectors: about 2.2-2.4
    int8 matrices.  A survivors matrix, a path-sized copy of either, or a
    buffer in a wider type would make it 3.2 or more.  A tiny run first
    loads what numpy imports on its first draw."""
    simulate(2, 10, SeedSpec(5))
    matrix = 2_000 * 200 * np.dtype(np.int8).itemsize
    assert _allocated_peak(lambda: simulate(200, 2_000, SeedSpec(5))) < 3 * matrix


INT64_PARAMS = InarParams(a=0.5, lam=3e9)  # stationary mean 6e9: x and v need int64


@pytest.mark.parametrize(
    "simulate",
    [
        partial(simulate_inar_direct, INT64_PARAMS),
        partial(
            simulate_inar_superposition, INT64_PARAMS, SuperpositionConfig.for_budget(INT64_PARAMS)
        ),
    ],
    ids=["direct", "superposition"],
)
def test_widening_to_int64_peaks_within_the_memory_guard(simulate):
    """At a mean whose counts need int64, each buffer is widened while the
    other is held: the transient stays within the guard's two int64 matrices
    plus the half matrix its docstring allows for a widening."""
    simulate(2, 10, SeedSpec(5))
    out = []
    matrix = 2_000 * 200 * np.dtype(np.int64).itemsize
    assert _allocated_peak(lambda: out.append(simulate(200, 2_000, SeedSpec(5)))) < 2.5 * matrix
    assert out[0].paths.dtype == out[0].v.dtype == np.int64


WIDE = InarParams(a=0.9, lam=30.0)  # stationary mean 300; each generation about 30
WIDENING_RUNS = {  # name -> (simulate(length, n_paths, seed), length, n_paths)
    "direct-a0.9-lam30": (partial(simulate_inar_direct, WIDE), 40, 300),
    "superposition-a0.9-lam30": (
        partial(simulate_inar_superposition, WIDE, SuperpositionConfig.for_budget(WIDE)), 40, 300
    ),
    "death-poisson-lam40000": (partial(simulate_chain, poisson_death_chain(4e4, 0.5)), 4, 20),
}


def _matrices(ens) -> dict:
    """A simulation's held matrices by name."""
    return {"x": ens.paths} if ens.v is None else {"x": ens.paths, "v": ens.v}


@pytest.mark.parametrize("name", WIDENING_RUNS)
def test_widened_paths_equal_their_int64_stack_in_the_narrowest_type(
    name, monkeypatch, tmp_path
):
    """Counts above int8 (a = 0.9, lambda = 30) and above int16 (a death
    chain from Poisson(40 000)) widen the buffers to the narrowest signed
    type of their maxima.  The paths are those of the same draws stacked in
    int64, and their CSV bytes those of an int64 copy."""
    simulate, length, n_paths = WIDENING_RUNS[name]
    held = _matrices(simulate(length, n_paths, SeedSpec(19)))
    monkeypatch.setattr(chains, "_fitted", lambda buffer, values: buffer.astype(np.int64))
    stacked = _matrices(simulate(length, n_paths, SeedSpec(19)))
    assert held["x"].dtype != np.int8
    for part, matrix in held.items():
        assert matrix.dtype == np.min_scalar_type(-int(matrix.max()) - 1)
        assert stacked[part].dtype == np.int64 and np.array_equal(matrix, stacked[part])
        for copy, label in ((matrix, "held"), (matrix.astype(np.int64), "int64")):
            write_ensemble_csv(PathEnsemble(copy, SeedSpec(19), {}), tmp_path / f"{label}.csv")
        assert (tmp_path / "held.csv").read_bytes() == (tmp_path / "int64.csv").read_bytes()


def test_superposition_widens_on_a_row_sum_that_no_generation_reaches():
    """Every generation stays below 128 while the sums of live generations
    cross it, so only the counts' buffer widens."""
    simulate, length, n_paths = WIDENING_RUNS["superposition-a0.9-lam30"]
    ens = simulate(length, n_paths, SeedSpec(19))
    assert ens.v.max() < 128 < ens.paths.max()
    assert (ens.paths.dtype, ens.v.dtype) == (np.int16, np.int8)


NARROW_PAIRS = {  # x, v: decompositions at the int8 edge
    "count-127": ([[127, 127, 127], [0, 3, 1]], [[0, 0, 127], [0, 3, 1]]),
}


@pytest.mark.parametrize("x, v", NARROW_PAIRS.values(), ids=list(NARROW_PAIRS))
def test_narrow_decompositions_read_as_their_int64_copy(x, v, tmp_path):
    """Held int8 matrices give int8 survivors equal to those of their int64
    copies, and the same CSV bytes."""
    narrow = PathEnsemble(np.array(x, np.int8), SeedSpec(2), {}, np.array(v, np.int8))
    wide = PathEnsemble(np.array(x), SeedSpec(2), {}, np.array(v))
    assert narrow.paths.dtype == narrow.v.dtype == narrow.u.dtype == np.int8
    assert wide.u.dtype == np.int64 and np.array_equal(narrow.u, wide.u)
    for ens, label in ((narrow, "narrow"), (wide, "wide")):
        for part in "xu":
            write_ensemble_csv(ens, tmp_path / f"{label}_{part}.csv", part)
    for part in "xu":
        assert (tmp_path / f"narrow_{part}.csv").read_bytes() == (
            tmp_path / f"wide_{part}.csv"
        ).read_bytes()


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_survivor_refusal_does_not_wrap_in_a_narrow_type(dtype):
    """Survivors 127 exceed their source 0 in int8 as in int64."""
    with pytest.raises(InvalidParameterError, match="survivors exceed their source count"):
        _decomposed(np.array([[0, 127]], dtype), np.array([[0, 0]], dtype))


IMPOSSIBLE_STEPS = {  # x, v, refusal: steps no decomposition can hold
    "negative-innovation-at-step-0": ([[1, 1]], [[-1, 0]], "innovations must be nonnegative"),
    "negative-innovation-later": ([[1, 1]], [[1, -1]], "innovations must be nonnegative"),
    # survivors 100 - (-100) = 200 would read -56 in int8
    "negative-innovation-wrapping": ([[0, 100]], [[0, -100]], "innovations must be nonnegative"),
    # survivors -3 exceed no source
    "innovation-above-count-at-step-0": ([[0, 0]], [[3, 0]], "innovations exceed their count"),
    "innovation-above-count-later": ([[2, 1]], [[0, 3]], "innovations exceed their count"),
    # survivors -228 would exceed no source
    "negative-count": ([[-128, -128]], [[0, 100]], "innovations exceed their count"),
}


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize(
    "x, v, refusal", IMPOSSIBLE_STEPS.values(), ids=list(IMPOSSIBLE_STEPS)
)
def test_impossible_innovations_are_refused(x, v, refusal, dtype):
    """An innovation below 0 or above its count is refused at any step, in a
    narrow type as in int64, before any difference is taken."""
    with pytest.raises(InvalidParameterError, match=refusal):
        _decomposed(np.array(x, dtype), np.array(v, dtype))


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
    """The writer's bytes equal the row writer's, with the matrix held in C
    and in Fortran layout."""
    for order in "CF":
        held = np.asarray(matrix, order=order)
        ens = PathEnsemble(held, SeedSpec(3, 1), {"construction": "test", "a": 0.5})
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


def _assert_survivors_match(u, v, directory) -> None:
    """The survivors written from ``x = u + v`` and ``v`` a row block at a
    time hold the writer's bytes for the matrix ``u``, with both held in C
    and in Fortran layout.  The writer only reads ``paths`` and ``v``, and
    bounds the survivors by [0, max x], so any nonnegative ``u`` and ``v``
    will do; they come in a plain namespace, since an ensemble refuses
    survivors above their source."""
    x = u + v
    params = {"construction": "test"}
    whole = PathEnsemble(u, SeedSpec(3, 1), dict(params, component="u"))
    write_ensemble_csv(whole, directory / "whole.csv")
    for order in "CF":
        held = SimpleNamespace(
            paths=np.asarray(x, order=order), v=np.asarray(v, order=order),
            seed=SeedSpec(3, 1), params=params,
        )
        write_ensemble_csv(held, directory / "blocks.csv", "u")
        assert (directory / "blocks.csv").read_bytes() == (directory / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "u, v",
    [
        (np.zeros((2, 3), np.int64), np.full((2, 3), 5)),  # all survivors 0, bounds of 5
        (np.array([[INT64.max, 0]]), np.array([[0, INT64.max]])),  # counts at the int64 top
        (np.array([[0, 1, 9]]), np.array([[INT64.max, INT64.max - 1, 10]])),
        (np.zeros((0, 4), np.int64), np.zeros((0, 4), np.int64)),
    ],
    ids=["zero-survivors", "int64-top-survivors", "int64-top-innovations", "empty"],
)
def test_survivors_csv_equals_the_whole_matrix_writer_at_the_edges(u, v, tmp_path):
    _assert_survivors_match(u, v, tmp_path)


@pytest.mark.parametrize(
    "x, v",
    [
        (np.array([[INT64.max, 0]]), np.array([[INT64.min, INT64.max]])),
        (np.array([[0, INT64.min]]), np.array([[INT64.max, 0]])),
    ],
    ids=["wrapping-high", "wrapping-low"],
)
def test_pairs_whose_survivors_would_wrap_are_refused(x, v):
    """Survivors ``x - v`` outside int64 come only from an innovation below 0
    or above its count, which an ensemble given its innovations refuses."""
    with pytest.raises(InvalidParameterError, match="innovations"):
        _decomposed(x, v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12).map(lambda s: (2, *s)),
        elements=st.one_of(st.integers(0, 70_000), st.integers(0, INT64.max // 2)),
    )
)
def test_survivors_csv_equals_the_whole_matrix_writer_on_random_pairs(tmp_path_factory, pair):
    _assert_survivors_match(pair[0], pair[1], tmp_path_factory.mktemp("csv"))


@pytest.mark.parametrize(
    "innovations, component, refusal",
    [
        (False, "u", "component u needs innovations, and this ensemble holds none"),
        (False, "v", "component v needs innovations, and this ensemble holds none"),
        (True, "w", "component must be x, u or v, got 'w'"),
        (True, "X", "component must be x, u or v, got 'X'"),
        (True, None, "component must be x, u or v, got None"),
    ],
    ids=["u-without-v", "v-without-v", "unknown", "upper-case", "none"],
)
def test_writer_refuses_a_component_the_ensemble_lacks(tmp_path, innovations, component, refusal):
    x = np.ones((2, 3), np.int64)
    ens = PathEnsemble(x, SeedSpec(1), {}, x if innovations else None)
    out = tmp_path / "never.csv"
    with pytest.raises(InvalidParameterError) as refused:
        write_ensemble_csv(ens, out, component)
    assert str(refused.value) == refusal
    assert not out.exists()


def test_survivors_of_an_ensemble_without_innovations_are_refused():
    with pytest.raises(InvalidParameterError, match="^component u needs innovations"):
        PathEnsemble(np.ones((2, 3)), SeedSpec(1), {}).u


class TestCsvExport:
    def test_metadata_and_roundtrip(self, tmp_path):
        ens = simulate_inar_direct(PARAMS, 5, 20, SeedSpec(21))
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
            ens = simulate_inar_direct(PARAMS, 4, 10, SeedSpec(22))
            write_ensemble_csv(ens, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
