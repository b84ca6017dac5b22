"""Tests for the verification campaign machinery."""

import re
import tracemalloc
from collections import Counter
from decimal import Decimal
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from inarlab import (
    InarParams,
    SeedSpec,
    binomial_pmf,
    check_construction_equivalence,
    check_innovation_independence,
    check_markov_property,
    check_stationary_exact,
    check_stationary_marginal,
    check_thinning_conditional,
    markov_triplet_residual,
    poisson_pmf,
    reports_to_json,
    run_all,
    simulate_inar_direct,
)
from inarlab import chains, harness
from inarlab.chains import PathEnsemble
from inarlab.harness import (
    DEFAULT_A_GRID,
    DEFAULT_LAMBDA_GRID,
    INNOVATION_BUDGET,
    MARKOV_CAP,
    MIN_STRATUM,
    CheckReport,
    McConfig,
    _corrupted_innovation_check,
    _job_seconds,
    _pooled_gof_ratio,
    _split_triplet,
    nonmarkov_control_triplet,
)
from inarlab.errors import InvalidConfigError, InvalidParameterError, ResourceLimitError

from . import decimal_oracle as oracle

PARAMS = InarParams(a=0.5, lam=1.0)
SMALL = dict(n_paths=20_000, path_length=16)


@pytest.fixture(scope="module")
def direct_run():
    return simulate_inar_direct(PARAMS, SMALL["path_length"], SMALL["n_paths"], SeedSpec(31, 7))


def _marginal_columns(paths):
    """The counts at the three time indices the campaign's marginal check reads."""
    length = paths.shape[1]
    return {k: paths[:, k] for k in {0, length // 2, length - 1}}


def _tail(ens):
    """An ensemble's last two steps as the columns x_prev, x, v_prev, v,
    then the last time index."""
    k = ens.paths.shape[1] - 1
    return ens.paths[:, k - 1], ens.paths[:, k], ens.v[:, k - 1], ens.v[:, k], k


def _innovation(ens, *args):
    return check_innovation_independence(*_tail(ens), *args)


def _thinning(ens, params, *args):
    x_prev, x, _, v, k = _tail(ens)
    return check_thinning_conditional(x_prev, x, v, params, k, *args)


def _control(ens, params, seed_index=0, significance=0.01):
    x_prev, _, _, v, k = _tail(ens)
    return _corrupted_innovation_check(params, x_prev, v, k, seed_index, significance)


class TestStationaryMarginal:
    def test_exact_mode(self):
        rep = check_stationary_exact(PARAMS)
        assert rep.check == "stationary-marginal-exact"
        assert rep.provenance == "exact" and rep.seed is None
        assert rep.passed and rep.statistic <= 1e-10

    def test_monte_carlo_mode(self, direct_run):
        rep = check_stationary_marginal(_marginal_columns(direct_run.paths), PARAMS)
        assert rep.provenance == "monte-carlo"
        assert rep.passed

    def test_shuffled_path_positive_control(self):
        # independent draws with the right marginal must also pass
        rng = np.random.default_rng(55)
        fake = rng.poisson(PARAMS.stationary_mean, (SMALL["n_paths"], 8))
        assert check_stationary_marginal(_marginal_columns(fake), PARAMS).passed

    def test_wrong_mean_negative_control(self, direct_run):
        columns = _marginal_columns(direct_run.paths)
        rep = check_stationary_marginal(columns, PARAMS, target_mean=PARAMS.lam)
        assert not rep.passed
        assert rep.check.endswith("-control")


class TestInnovationIndependence:
    def test_direct_construction_passes(self, direct_run):
        assert _innovation(direct_run).passed

    def test_corrupted_control_fails(self, direct_run):
        assert not _control(direct_run, PARAMS).passed


class TestThinningConditional:
    def test_direct_construction_passes(self, direct_run):
        rep = _thinning(direct_run, PARAMS)
        assert rep.passed
        assert rep.params["strata_tested"] >= 3

    def test_zero_stratum_is_trivially_consistent(self, direct_run):
        ens = direct_run
        k = ens.paths.shape[1] - 1
        zero_rows = ens.paths[:, k - 1] == 0
        assert np.all(ens.u[zero_rows, k] == 0)

    def test_survivors_of_a_zero_count_are_impossible(self, direct_run):
        """A zero stratum is Binomial(0, a), the point mass at 0: survivors there
        are impossible counts, and a clean zero stratum is neither tested nor
        counted."""
        ens = direct_run
        k = ens.paths.shape[1] - 1
        zero_rows = ens.paths[:, k - 1] == 0
        assert zero_rows.sum() >= MIN_STRATUM
        x = ens.paths.copy()
        x[zero_rows, k] += 1  # one survivor each; a PathEnsemble would refuse it
        corrupted = SimpleNamespace(paths=x, v=ens.v)
        rep = _thinning(corrupted, PARAMS)
        assert rep.statistic == harness.ERROR_STATISTIC and not rep.passed
        assert rep.to_dict() == _thinning_reference(corrupted, PARAMS).to_dict()
        clean = _thinning(ens, PARAMS)
        assert clean.to_dict() == _thinning_reference(ens, PARAMS).to_dict()
        zeros = np.zeros_like(ens.paths)
        zero_only = SimpleNamespace(paths=zeros, v=zeros)  # u = x - v = 0
        rep = _thinning(zero_only, PARAMS)
        assert (rep.statistic, rep.params["strata_tested"], rep.params["strata_skipped"]) == (
            0.0, 0, 0
        )


def _add_at_table(a, b, lo=None):
    """Contingency table tallied one observation at a time; entry [i, j]
    counts the pairs (a_lo + i, b_lo + j), from the minima by default."""
    a_lo, b_lo = (int(a.min()), int(b.min())) if lo is None else lo
    table = np.zeros((int(a.max()) - a_lo + 1, int(b.max()) - b_lo + 1))
    np.add.at(table, (a - a_lo, b - b_lo), 1.0)
    return table


def _thinning_reference(ens, params, significance=0.01):
    """The thinning check with one mask per previous count."""
    k = ens.paths.shape[1] - 1
    prev, surv = ens.paths[:, k - 1], ens.paths[:, k] - ens.v[:, k]
    strata = [int(x) for x in np.unique(prev) if int((prev == x).sum()) >= MIN_STRATUM]
    skipped = int(np.unique(prev).size) - len(strata)
    worst, tested = 0.0, 0
    alpha = significance / max(1, len(strata))
    for x in strata:
        sel = surv[prev == x]
        if x == 0:
            if np.any(sel != 0):
                worst = max(worst, harness.ERROR_STATISTIC)
            continue
        counts = np.bincount(sel, minlength=x + 1)
        probs = binomial_pmf(x, params.a).probs
        if counts.size > probs.size:
            worst = max(worst, harness.ERROR_STATISTIC)
            continue
        ratio = _pooled_gof_ratio(counts, probs[: counts.size], alpha)
        if ratio is not None:
            worst, tested = max(worst, ratio), tested + 1
    return CheckReport(
        "thinning-conditional", "decomposition",
        {"a": params.a, "index": k, "strata_tested": tested, "strata_skipped": skipped},
        worst, 1.0, "monte-carlo", seed=None,
        note=f"{skipped} strata below {MIN_STRATUM} observations skipped",
    )


TALLY_RUNS = [  # (params, path length, paths, seed)
    (InarParams(a=0.5, lam=1.0), 6, 20_000, SeedSpec(41)),
    (InarParams(a=0.3, lam=2.0), 3, 15_000, SeedSpec(42, 3)),
    (InarParams(a=0.8, lam=0.5), 9, 12_000, SeedSpec(43, 1)),
    (InarParams(a=0.9, lam=20.0), 4, 20_000, SeedSpec(44)),  # no count reaches 0
]
TALLY_IDS = ["seed41", "seed42", "seed43", "seed44-far-from-zero"]


class TestTallies:
    @pytest.mark.parametrize("run", TALLY_RUNS, ids=TALLY_IDS)
    def test_tables_equal_the_add_at_reference(self, run, monkeypatch):
        params, length, n_paths, seed = run
        ens = simulate_inar_direct(params, length, n_paths, seed)
        seen = []
        ratio = harness._contingency_ratio
        monkeypatch.setattr(
            harness, "_contingency_ratio", lambda t, alpha: seen.append(t) or ratio(t, alpha)
        )
        _innovation(ens)
        _control(ens, params)
        k = length - 1
        bumped = ens.v[:, k] + (ens.paths[:, k - 1] > params.stationary_mean)
        pairs = [(ens.paths[:, k - 1], ens.v[:, k]), (ens.u[:, k], ens.v[:, k]),
                 (ens.v[:, k - 1], ens.v[:, k]), (ens.paths[:, k - 1], bumped)]
        assert len(seen) == len(pairs)
        for table, (a, b) in zip(seen, pairs):
            assert np.array_equal(table.astype(np.float64), _add_at_table(a, b))
            # the empty rows and columns below the minima change no statistic
            assert ratio(table, 0.01) == ratio(_add_at_table(a, b, lo=(0, 0)), 0.01)

    @pytest.mark.parametrize("run", TALLY_RUNS, ids=TALLY_IDS)
    def test_thinning_report_equals_the_per_stratum_reference(self, run):
        params, length, n_paths, seed = run
        ens = simulate_inar_direct(params, length, n_paths, seed)
        rep = _thinning(ens, params)
        assert rep.params["strata_skipped"] > 0 and rep.params["strata_tested"] > 0
        assert rep.to_dict() == _thinning_reference(ens, params).to_dict()

    def test_tables_grow_with_the_spread_not_the_size_of_the_counts(self):
        """At a = 0.95, lambda = 150 the counts sit near 3000 with a spread of a few
        hundred; tables from zero would take about 80 MB for the thinning check."""
        params = InarParams(a=0.95, lam=150.0)
        ens = simulate_inar_direct(params, 2, 50_000, SeedSpec(45))
        tracemalloc.start()
        try:
            rep = _thinning(ens, params)
            _innovation(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.params["strata_tested"] > 0
        assert peak < 4 * 2**20


class TestConstructionEquivalence:
    def test_matching_parameters_pass(self):
        rep = check_construction_equivalence(PARAMS, 100_000, SeedSpec(61, 0))
        assert rep.passed
        assert rep.statistic <= rep.threshold

    def test_perturbed_control_fails(self):
        rep = check_construction_equivalence(
            PARAMS, 100_000, SeedSpec(61, 1), perturb_a=0.1
        )
        assert not rep.passed
        assert rep.check.endswith("-control")


GRID = list(product(DEFAULT_A_GRID, DEFAULT_LAMBDA_GRID))


class TestMarkovProperty:
    def test_exact_constructions_have_tiny_residuals(self):
        rep = check_markov_property(PARAMS)
        assert rep.passed and rep.statistic <= 1e-10
        assert set(rep.params["residuals"]) == {"decomposition-identity", "poisson-split"}

    def test_nonmarkov_control_residual(self):
        assert markov_triplet_residual(nonmarkov_control_triplet()) >= 1e-3

    @pytest.mark.parametrize("a, lam", GRID)
    def test_triplets_match_brute_force(self, a, lam):
        assert _cell_gap(_split_triplet(lam, lam / 2.0, a).mass,
                         _split_reference(lam, lam / 2.0, a)) <= 1e-15

    @pytest.mark.parametrize("a, lam", GRID)
    def test_decomposition_identity_matches_the_cell_by_cell_reference(self, a, lam):
        """Both sides of the identity equal the reference to rounding, and the
        report's statistic is rounding alone."""
        params = InarParams(a=a, lam=lam)
        want = _identity_reference(params, harness.DEFAULT_TAIL_BUDGET)
        for side in harness._decomposition_sides(params, harness.DEFAULT_TAIL_BUDGET):
            assert side.shape == want.shape
            assert float(np.abs(side - want).max()) <= 1e-15
        assert check_markov_property(params).statistic <= 1e-15

    def test_death_chain_mutant_fails_at_every_grid_point(self, monkeypatch):
        """Survivors thinned at a + 0.01 instead of a break the identity by more
        than 7e-4 at each default grid point."""
        deaths = harness.poisson_death_chain
        monkeypatch.setattr(
            harness, "poisson_death_chain", lambda lam, a, budget: deaths(lam, a + 0.01, budget)
        )
        for a, lam in GRID:
            rep = check_markov_property(InarParams(a=a, lam=lam))
            assert not rep.passed and rep.params["residuals"]["decomposition-identity"] > 7e-4


def _identity_reference(params, tail_budget):
    """sum_u pi(x0) B(x0, a)(u) I(x1 - u) on the states 0..cap, cell by cell."""
    init = poisson_pmf(params.stationary_mean, tail_budget).probs
    innov = poisson_pmf(params.lam, tail_budget).probs
    top = min(MARKOV_CAP, init.size - 1)
    mass = np.zeros((top + 1, top + 1))
    for x0, x1 in product(range(top + 1), repeat=2):
        survive = binomial_pmf(x0, params.a).probs
        terms = [survive[u] * innov[x1 - u] for u in range(min(x0, x1) + 1) if x1 - u < innov.size]
        mass[x0, x1] = init[x0] * sum(terms)
    return mass


def _split_reference(lam1, lam2, a):
    """((Y1, Y2), Y1+Y2, Z1+Z2) cell by cell, each Z thinning its own Y."""
    p1 = poisson_pmf(lam1, INNOVATION_BUDGET).probs
    p2 = poisson_pmf(lam2, INNOVATION_BUDGET).probs
    size = p1.size + p2.size - 1
    mass = np.zeros((p1.size * p2.size, size, size))
    for y1 in range(p1.size):
        for y2 in range(p2.size):
            z = np.convolve(binomial_pmf(y1, a).probs, binomial_pmf(y2, a).probs)
            mass[y1 * p2.size + y2, y1 + y2, : z.size] = p1[y1] * p2[y2] * z
    return mass / mass.sum()


def _cell_gap(got, want):
    """Largest cell difference once all-zero first-axis rows are dropped and
    both tables are zero-padded to a common shape."""
    got, want = (m[m.reshape(len(m), -1).any(axis=1)] for m in (got, want))
    shape = np.maximum(got.shape, want.shape)
    got, want = (np.pad(m, [(0, s - n) for s, n in zip(shape, m.shape)]) for m in (got, want))
    return float(np.abs(got - want).max())


class TestMcConfig:
    def test_power_floor(self):
        with pytest.raises(InvalidConfigError):
            McConfig(n_paths=5000)

    def test_numpy_integers_are_stored_as_ints(self):
        config = McConfig(n_paths=np.int64(20_000), path_length=np.int32(5))
        assert (config.n_paths, config.path_length) == (20_000, 5)
        assert type(config.n_paths) is type(config.path_length) is int
        assert config == McConfig(n_paths=20_000, path_length=5)

    def test_significance_domain(self):
        with pytest.raises(InvalidConfigError):
            McConfig(significance=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("significance", "0.1"),
            ("significance", True),
            ("truncation_budget", None),
            ("a_grid", ((0.5,),)),
            ("a_grid", "ab"),
            ("lambda_grid", (True,)),
            ("lambda_grid", 1.0),
        ],
    )
    def test_non_numbers_are_refused_by_name(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            McConfig(**{field: value})

    @pytest.mark.parametrize(
        "config",
        [
            McConfig(),
            McConfig(
                n_paths=12_345, path_length=5, seed=SeedSpec(9, 4), significance=0.05,
                truncation_budget=1e-9, a_grid=(0.2, 0.9), lambda_grid=(3.0,),
                negative_controls=True,
            ),
        ],
        ids=["default", "custom"],
    )
    def test_from_dict_inverts_as_dict(self, config):
        assert McConfig.from_dict(config.as_dict()) == config

    def test_from_dict_takes_defaults_and_refuses_unknown_keys(self):
        assert McConfig.from_dict({}) == McConfig()
        with pytest.raises(InvalidConfigError, match=re.escape("unknown keys ['nope']")):
            McConfig.from_dict({"nope": 1})
        with pytest.raises(InvalidConfigError, match=re.escape("unknown keys ['seed']")):
            McConfig.from_dict({"seed": 3, "n_paths": 10_000})

    def test_grid_lists_become_tuples(self):
        config = McConfig(a_grid=[0.5], lambda_grid=[1, 2.0])
        assert config.a_grid == (0.5,) and config.lambda_grid == (1, 2.0)


ALPHAS = (1e-12, 1e-6, 0.01 / 59, 0.01, 0.05, 0.5, 0.99)


class TestChiSquareQuantile:
    def test_critical_value_against_the_decimal_oracle(self):
        for dof in range(1, 120):
            for alpha in ALPHAS:
                got = harness._chi2_critical(alpha, dof)
                exact = oracle.chi2_upper_quantile(alpha, dof, got)
                assert abs(Decimal(got) - exact) <= Decimal("1e-15") * exact, (dof, alpha)

    def test_critical_value_matches_scipy_stats(self):
        """Cross-check: scipy's own quantile is within 2.4e-15 of the oracle
        on this grid, so the two agree to 5e-15 relative."""
        stats = pytest.importorskip("scipy.stats")
        for dof in range(1, 120):
            for alpha in ALPHAS:
                ref = float(stats.chi2.isf(alpha, dof))
                assert harness._chi2_critical(alpha, dof) == pytest.approx(ref, rel=5e-15, abs=0)

    def test_tails_are_complementary(self):
        for dof in (1, 2, 3, 10, 51):
            for x in (0.01, 1.0, float(dof), 3.0 * dof + 10.0):
                upper, density = harness._chi2_tail(x, dof, True)
                lower, same = harness._chi2_tail(x, dof, False)
                assert upper + lower == pytest.approx(1.0, abs=4e-16)
                assert density == pytest.approx(same, rel=1e-14)


class TestChiSquareMatchesScipyStats:
    """Cross-checks of the chi-square statistics against scipy.stats, where
    scipy is installed: each must equal it bit for bit."""

    @staticmethod
    def statistic(table, monkeypatch):
        """The ratio's numerator and the dof it asked the quantile for."""
        seen = []
        monkeypatch.setattr(
            harness, "_chi2_critical", lambda alpha, dof: seen.append(dof) or 1.0
        )
        stat = harness._contingency_ratio(np.asarray(table), 0.01)
        return stat, seen[0]

    @staticmethod
    def reference(table):
        stats = pytest.importorskip("scipy.stats")
        res = stats.chi2_contingency(np.asarray(table, dtype=np.float64), correction=False)
        return float(res.statistic), int(res.dof)

    @pytest.mark.parametrize("seed", range(8))
    def test_unpooled_statistic(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(2, 7, size=2)
        table = rng.integers(200, 400, size=(rows, cols))  # every cell expects >= 100
        stat, dof = self.statistic(table, monkeypatch)
        ref_stat, ref_dof = self.reference(table)
        assert (stat.hex(), dof) == (ref_stat.hex(), ref_dof)

    @pytest.mark.parametrize("seed", range(8))
    def test_pooled_statistic(self, seed, monkeypatch):
        # a sparse last row is the smallest, so it is pooled into the row above
        rng = np.random.default_rng(100 + seed)
        cols = int(rng.integers(2, 5))
        dense = rng.integers(200, 400, size=(cols + 1, cols))
        sparse = rng.integers(0, 2, size=cols)
        sparse[0] = 1
        pooled = dense.copy()
        pooled[-1] += sparse
        stat, dof = self.statistic(np.vstack([dense, sparse]), monkeypatch)
        ref_stat, ref_dof = self.reference(pooled)
        assert (stat.hex(), dof) == (ref_stat.hex(), ref_dof)


@pytest.fixture(scope="module")
def narrow_run():
    """A direct run with one path raised to the count 127, held as int8 and as
    an int64 copy.  That path's last innovation, 127, reads 128 when the
    corrupted control bumps it."""
    ens = simulate_inar_direct(PARAMS, 6, 4_000, SeedSpec(41))
    x, v = ens.paths.astype(np.int64), ens.v.astype(np.int64)
    x[0], v[0] = 127, 0
    v[0, -1] = 127  # no survivors at the last step
    return {
        dtype: PathEnsemble(x.astype(dtype), SeedSpec(41), {}, v.astype(dtype))
        for dtype in (np.int8, np.int64)
    }


def test_checks_read_int8_counts_as_their_int64_copy(narrow_run, monkeypatch):
    def reports(ens):
        return [
            check_stationary_marginal(_marginal_columns(ens.paths), PARAMS).to_dict(),
            _innovation(ens).to_dict(),
            _thinning(ens, PARAMS).to_dict(),
            _control(ens, PARAMS).to_dict(),
        ]

    ens = narrow_run[np.int8]
    assert ens.paths.dtype == ens.v.dtype == np.int8
    assert ens.paths.max() == ens.v.max() == 127
    assert reports(ens) == reports(narrow_run[np.int64])
    bumps = []
    pair_counts = harness._pair_counts
    monkeypatch.setattr(
        harness, "_pair_counts", lambda a, b: bumps.append(int(b.max())) or pair_counts(a, b)
    )
    _control(ens, PARAMS)
    assert bumps == [128]  # a bump in int8 would wrap to -128
    wide = narrow_run[np.int64]
    assert np.array_equal(
        harness._pair_counts(ens.paths[:, -2], ens.v[:, -1]),
        harness._pair_counts(wide.paths[:, -2], wide.v[:, -1]),
    )


class TestStreamedBlock:
    @pytest.mark.parametrize("negative_controls", [False, True], ids=["plain", "controls"])
    @pytest.mark.parametrize("seed", [SeedSpec(83), SeedSpec(84, 5)], ids=["seed83", "seed84-5"])
    @pytest.mark.parametrize(
        "params, path_length",
        [(InarParams(a=0.3, lam=2.0), 2), (InarParams(a=0.7, lam=0.5), 9)],
        ids=["a0.3-length2", "a0.7-length9"],
    )
    def test_reports_equal_the_public_checks_on_the_simulation(
        self, params, path_length, seed, negative_controls
    ):
        config = McConfig(
            n_paths=10_000, path_length=path_length, seed=seed,
            negative_controls=negative_controls,
        )
        ens = simulate_inar_direct(params, path_length, config.n_paths, seed)
        index, significance = seed.stream_index, config.significance
        columns = _marginal_columns(ens.paths)
        expected = [
            check_stationary_marginal(columns, params, "direct", index, significance),
            _innovation(ens, index, significance),
            _thinning(ens, params, index, significance),
        ]
        if negative_controls:
            expected += [
                check_stationary_marginal(
                    columns, params, "direct", index, significance, params.lam
                ),
                _control(ens, params, index, significance),
            ]
        streamed = harness._mc_block(config, params, seed)
        assert [r.to_dict() for r in streamed] == [r.to_dict() for r in expected]

    @pytest.mark.parametrize("negative_controls", [False, True], ids=["plain", "controls"])
    def test_block_calls_each_public_check(self, negative_controls, monkeypatch):
        """The block reaches each Monte Carlo check through its public name,
        the name a wrapper (such as a profiling span) replaces."""
        calls = Counter()
        for name in MC_CHECKS:
            check = getattr(harness, name)
            monkeypatch.setattr(
                harness, name,
                lambda *args, _name=name, _check=check: calls.update([_name]) or _check(*args),
            )
        config = McConfig(n_paths=10_000, path_length=4, negative_controls=negative_controls)
        harness._mc_block(config, PARAMS, SeedSpec(85))
        assert calls == {
            "check_stationary_marginal": 2 if negative_controls else 1,
            "check_innovation_independence": 1,
            "check_thinning_conditional": 1,
        }


MC_CHECKS = ("check_stationary_marginal", "check_innovation_independence",
             "check_thinning_conditional")
GOOD = np.array([0, 1, 2, 1, 3])


def _column_calls(bad):
    """Each column check, and the control, with ``bad`` as one of its columns."""
    return [
        lambda: check_stationary_marginal({0: GOOD, 4: bad}, PARAMS),
        lambda: check_innovation_independence(GOOD, GOOD, GOOD, bad, 1),
        lambda: check_thinning_conditional(GOOD, GOOD, bad, PARAMS, 1),
        lambda: _corrupted_innovation_check(PARAMS, GOOD, bad, 1, 0, 0.01),
    ]


class TestColumnRule:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (GOOD.astype(np.float64), "signed-integer array"),
            (GOOD.astype(np.uint64), "signed-integer array"),
            (GOOD.tolist(), "signed-integer array"),
            (GOOD[None, :], "signed-integer array"),
            (GOOD[:0], "signed-integer array"),
            (np.array([0, 1, -2, 1, 3]), "no negative count"),
            (GOOD[:4], "all of one length"),
        ],
        ids=["float", "unsigned", "list", "2-D", "empty", "negative", "short"],
    )
    def test_every_check_refuses_a_bad_column(self, bad, message):
        for call in _column_calls(bad):
            with pytest.raises(InvalidParameterError, match=message):
                call()

    def test_an_innovation_above_its_count_is_refused(self):
        v = np.array([0, 2, 0, 1, 3])  # above the count 1 on the second path
        for call in _column_calls(v)[1:3]:
            with pytest.raises(InvalidParameterError, match="innovations exceed their count"):
                call()

    def test_a_marginal_check_without_columns_is_refused(self):
        with pytest.raises(InvalidParameterError, match="one or more count columns"):
            check_stationary_marginal({}, PARAMS)


@pytest.fixture(scope="module")
def small_config():
    return McConfig(
        n_paths=10_000,
        path_length=12,
        a_grid=(0.5,),
        lambda_grid=(1.0,),
        seed=SeedSpec(77),
    )


class TestRunAll:
    def test_default_small_grid_passes(self, small_config):
        reports = run_all(small_config)
        assert reports and all(r.passed for r in reports)

    def test_reports_are_self_auditing(self, small_config):
        for r in run_all(small_config):
            assert r.passed == (r.statistic <= r.threshold)

    def test_byte_identical_reruns(self, small_config):
        a = reports_to_json(run_all(small_config), small_config)
        b = reports_to_json(run_all(small_config), small_config)
        assert a == b

    def test_thread_count_does_not_change_output(self, small_config):
        a = reports_to_json(run_all(small_config, threads=1), small_config)
        b = reports_to_json(run_all(small_config, threads=3), small_config)
        assert a == b

    def test_paths_beyond_memory_are_refused_before_any_check(self, small_config, monkeypatch):
        """The guard counts the six int64 columns of n_paths entries that the
        streamed direct block keeps, whatever the path length: one byte short
        is refused before any check runs, and exactly enough runs every check."""
        need = 6 * small_config.n_paths * np.dtype(np.int64).itemsize
        ran = []
        lemma_checks = harness._lemma_checks
        monkeypatch.setattr(harness, "_lemma_checks", lambda: ran.append(1) or lemma_checks())
        monkeypatch.setattr(chains, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceLimitError, match="physical memory"):
            run_all(small_config)
        assert ran == []
        monkeypatch.setattr(chains, "_physical_memory", lambda: need)
        reports = run_all(small_config)
        assert ran == [1] and reports and all(r.check != "errored" for r in reports)

    def test_one_point_campaign_peaks_under_twelve_path_columns(self):
        """The direct block streams its steps and keeps six columns of n_paths
        counts, so the peak does not grow with the path length: about 10
        columns at lengths 8 and 200 alike, set by the block's per-step and
        per-check temporaries.  Whole x and v matrices made it 19 columns at
        length 8 and 402 at length 200."""
        for path_length in (8, 200):
            config = McConfig(
                n_paths=100_000, path_length=path_length, a_grid=(0.5,), lambda_grid=(1.0,),
                seed=SeedSpec(79),
            )
            column = config.n_paths * np.dtype(np.int64).itemsize
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                reports = run_all(config)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert all(r.check != "errored" for r in reports)
            assert peak < 12 * column, path_length

    def test_corrupted_step_is_an_errored_report_naming_the_refusal(
        self, small_config, monkeypatch
    ):
        """The streamed block refuses survivors above their source at every
        step, as a decomposition does."""
        steps = harness._direct_steps

        def corrupted(params, n_paths, seed):
            for k, (x, v) in enumerate(steps(params, n_paths, seed)):
                yield (x + 10**6 if k == 5 else x), v

        monkeypatch.setattr(harness, "_direct_steps", corrupted)
        errored = [r for r in run_all(small_config) if r.check == "errored"]
        assert [r.construction for r in errored] == ["direct-mc[0.5,1.0]"]
        assert re.fullmatch(
            r"check raised: InvalidParameterError: survivors exceed their source count "
            r"at inarlab\.chains:_survivors:\d+",
            errored[0].note,
        )

    @pytest.mark.parametrize("step", [0, 5])
    def test_innovation_above_its_count_is_an_errored_report(
        self, small_config, monkeypatch, step
    ):
        """The streamed block refuses an innovation above its count, at the
        first step as at a later one."""
        steps = harness._direct_steps

        def corrupted(params, n_paths, seed):
            for k, (x, v) in enumerate(steps(params, n_paths, seed)):
                yield x, (x + 1 if k == step else v)

        monkeypatch.setattr(harness, "_direct_steps", corrupted)
        errored = [r for r in run_all(small_config) if r.check == "errored"]
        assert [r.construction for r in errored] == ["direct-mc[0.5,1.0]"]
        assert re.fullmatch(
            r"check raised: InvalidParameterError: innovations exceed their count "
            r"at inarlab\.chains:_survivors:\d+",
            errored[0].note,
        )

    def test_negative_controls_fail_and_are_labelled(self, small_config):
        config = McConfig(
            n_paths=100_000,
            path_length=12,
            a_grid=(0.5,),
            lambda_grid=(1.0,),
            seed=SeedSpec(78),
            negative_controls=True,
        )
        reports = run_all(config)
        controls = [r for r in reports if r.check.endswith("-control")]
        assert len(controls) >= 4
        assert all(not r.passed for r in controls)
        genuine = [r for r in reports if not r.check.endswith("-control")]
        assert all(r.passed for r in genuine)

    def test_errored_check_names_its_origin(self, small_config, monkeypatch):
        def bad_grid_point(*args, **kwargs):
            return InarParams(a=1.5, lam=1.0)

        monkeypatch.setattr(harness, "check_markov_property", bad_grid_point)
        monkeypatch.setattr(harness, "_lemma_checks", lambda: 1 / 0)
        errored = {r.construction: r for r in run_all(small_config) if r.check == "errored"}
        assert sorted(errored) == ["lemma-checks", "markov-triplets[0.5,1.0]"]
        assert re.fullmatch(
            r"check raised: InvalidParameterError: a must lie in \(0, 1\) "
            r"at inarlab\.chains:_require_survival:\d+",
            errored["markov-triplets[0.5,1.0]"].note,
        )
        assert re.fullmatch(
            r"check raised: ZeroDivisionError: division by zero "
            r"at inarlab\.harness:run_job:\d+",
            errored["lemma-checks"].note,
        )

    def test_superposition_over_its_budget_is_an_errored_check(self, small_config, monkeypatch):
        monkeypatch.setattr(chains, "_GENERATION_BUDGET", 1000)
        errored = [r for r in run_all(small_config) if r.check == "errored"]
        assert [r.construction for r in errored] == ["equivalence[0.5,1.0]"]
        assert re.fullmatch(
            r"check raised: ResourceLimitError: depth \d+ and length 2 over 10000 paths "
            r"need .* work units, above the superposition budget 1e\+03 "
            r"at inarlab\.chains:simulate_inar_superposition:\d+",
            errored[0].note,
        )

    def test_job_seconds_name_every_job_and_leave_reports_alone(self, small_config):
        plain = reports_to_json(run_all(small_config), small_config)
        for threads in (1, 2):
            with _job_seconds() as seconds:
                timed = reports_to_json(run_all(small_config, threads), small_config)
            assert timed == plain
            assert sorted(seconds) == [
                "direct-mc[0.5,1.0]", "equivalence[0.5,1.0]", "lemma-checks",
                "markov-triplets[0.5,1.0]", "stationary-exact[0.5,1.0]",
            ]
            assert all(s > 0.0 for s in seconds.values())
        run_all(small_config)  # no collector is active: nothing is recorded
        assert len(seconds) == 5

    def test_exact_checks_do_not_depend_on_seed(self, small_config):
        other = McConfig(
            n_paths=10_000,
            path_length=12,
            a_grid=(0.5,),
            lambda_grid=(1.0,),
            seed=SeedSpec(123456),
        )
        exact_a = [
            r.to_dict() for r in run_all(small_config) if r.provenance == "exact"
        ]
        exact_b = [r.to_dict() for r in run_all(other) if r.provenance == "exact"]
        assert exact_a == exact_b
