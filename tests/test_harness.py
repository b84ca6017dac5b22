"""Tests for the verification campaign machinery."""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from inarlab import (
    InarParams,
    PathEnsemble,
    SeedSpec,
    binomial_pmf,
    check_construction_equivalence,
    check_innovation_independence,
    check_markov_property,
    check_stationary_marginal,
    check_thinning_conditional,
    markov_triplet_residual,
    reports_to_json,
    run_all,
    simulate_inar_direct,
)
from inarlab import chains, harness
from inarlab.harness import (
    MIN_STRATUM,
    CheckReport,
    McConfig,
    _corrupted_innovation_check,
    _job_seconds,
    _pooled_gof_ratio,
    nonmarkov_control_triplet,
)
from inarlab.errors import InvalidConfigError

PARAMS = InarParams(a=0.5, lam=1.0)
SMALL = dict(n_paths=20_000, path_length=16)


@pytest.fixture(scope="module")
def direct_run():
    ens, dec = simulate_inar_direct(PARAMS, SMALL["path_length"], SMALL["n_paths"], SeedSpec(31, 7))
    wrapped = PathEnsemble(dec.x, SeedSpec(31, 7), {"construction": "direct"})
    return wrapped, dec


class TestStationaryMarginal:
    def test_exact_mode(self):
        rep = check_stationary_marginal(None, PARAMS)
        assert rep.provenance == "exact" and rep.seed is None
        assert rep.passed and rep.statistic <= 1e-10

    def test_monte_carlo_mode(self, direct_run):
        ens, _ = direct_run
        rep = check_stationary_marginal(ens, PARAMS)
        assert rep.provenance == "monte-carlo"
        assert rep.passed

    def test_shuffled_path_positive_control(self):
        # independent draws with the right marginal must also pass
        rng = np.random.default_rng(55)
        fake = rng.poisson(PARAMS.stationary_mean, (SMALL["n_paths"], 8))
        ens = PathEnsemble(fake, SeedSpec(55), {"construction": "shuffled"})
        assert check_stationary_marginal(ens, PARAMS).passed

    def test_wrong_mean_negative_control(self, direct_run):
        ens, _ = direct_run
        rep = check_stationary_marginal(ens, PARAMS, target_mean=PARAMS.lam)
        assert not rep.passed
        assert rep.check.endswith("-control")


class TestInnovationIndependence:
    def test_direct_construction_passes(self, direct_run):
        _, dec = direct_run
        assert check_innovation_independence(dec).passed

    def test_corrupted_control_fails(self, direct_run):
        _, dec = direct_run
        rep = _corrupted_innovation_check(PARAMS, dec, 0, 0.01)
        assert not rep.passed


class TestThinningConditional:
    def test_direct_construction_passes(self, direct_run):
        _, dec = direct_run
        rep = check_thinning_conditional(dec, PARAMS)
        assert rep.passed
        assert rep.params["strata_tested"] >= 3

    def test_zero_stratum_is_trivially_consistent(self, direct_run):
        _, dec = direct_run
        k = dec.x.shape[1] - 1
        zero_rows = dec.x[:, k - 1] == 0
        assert np.all(dec.u[zero_rows, k] == 0)

    def test_survivors_of_a_zero_count_are_impossible(self, direct_run):
        """A zero stratum is Binomial(0, a), the point mass at 0: survivors there
        are impossible counts, and a clean zero stratum is neither tested nor
        counted."""
        _, dec = direct_run
        k = dec.x.shape[1] - 1
        zero_rows = dec.x[:, k - 1] == 0
        assert zero_rows.sum() >= MIN_STRATUM
        u = dec.u.copy()
        u[zero_rows, k] = 1  # InnovationDecomposition would refuse these survivors
        corrupted = SimpleNamespace(x=dec.x, u=u, v=dec.v)
        rep = check_thinning_conditional(corrupted, PARAMS)
        assert rep.statistic == harness.ERROR_STATISTIC and not rep.passed
        assert rep.to_dict() == _thinning_reference(corrupted, PARAMS).to_dict()
        clean = check_thinning_conditional(dec, PARAMS)
        assert clean.to_dict() == _thinning_reference(dec, PARAMS).to_dict()
        zero_only = SimpleNamespace(x=np.zeros_like(dec.x), u=np.zeros_like(u), v=dec.v)
        rep = check_thinning_conditional(zero_only, PARAMS)
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


def _thinning_reference(dec, params, significance=0.01):
    """The thinning check with one mask per previous count."""
    k = dec.x.shape[1] - 1
    prev, surv = dec.x[:, k - 1], dec.u[:, k]
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
        _, dec = simulate_inar_direct(params, length, n_paths, seed)
        seen = []
        ratio = harness._contingency_ratio
        monkeypatch.setattr(
            harness, "_contingency_ratio", lambda t, alpha: seen.append(t) or ratio(t, alpha)
        )
        check_innovation_independence(dec)
        _corrupted_innovation_check(params, dec, 0, 0.01)
        k = length - 1
        bumped = dec.v[:, k] + (dec.x[:, k - 1] > params.stationary_mean)
        pairs = [(dec.x[:, k - 1], dec.v[:, k]), (dec.u[:, k], dec.v[:, k]),
                 (dec.v[:, k - 1], dec.v[:, k]), (dec.x[:, k - 1], bumped)]
        assert len(seen) == len(pairs)
        for table, (a, b) in zip(seen, pairs):
            assert np.array_equal(table.astype(np.float64), _add_at_table(a, b))
            # the empty rows and columns below the minima change no statistic
            assert ratio(table, 0.01) == ratio(_add_at_table(a, b, lo=(0, 0)), 0.01)

    @pytest.mark.parametrize("run", TALLY_RUNS, ids=TALLY_IDS)
    def test_thinning_report_equals_the_per_stratum_reference(self, run):
        params, length, n_paths, seed = run
        _, dec = simulate_inar_direct(params, length, n_paths, seed)
        rep = check_thinning_conditional(dec, params)
        assert rep.params["strata_skipped"] > 0 and rep.params["strata_tested"] > 0
        assert rep.to_dict() == _thinning_reference(dec, params).to_dict()

    def test_tables_grow_with_the_spread_not_the_size_of_the_counts(self):
        """At a = 0.95, lambda = 150 the counts sit near 3000 with a spread of a few
        hundred; tables from zero would take about 80 MB for the thinning check."""
        params = InarParams(a=0.95, lam=150.0)
        _, dec = simulate_inar_direct(params, 2, 50_000, SeedSpec(45))
        tracemalloc.start()
        try:
            rep = check_thinning_conditional(dec, params)
            check_innovation_independence(dec)
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


class TestMarkovProperty:
    def test_exact_constructions_have_tiny_residuals(self):
        rep = check_markov_property(PARAMS)
        assert rep.passed and rep.statistic <= 1e-10
        assert set(rep.params["residuals"]) == {
            "kernel-window",
            "decomposition",
            "poisson-split",
        }

    def test_nonmarkov_control_residual(self):
        assert markov_triplet_residual(nonmarkov_control_triplet()) >= 1e-3


class TestMcConfig:
    def test_power_floor(self):
        with pytest.raises(InvalidConfigError):
            McConfig(n_paths=5000)

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


class TestChiSquareMatchesScipyStats:
    """The chi-square machinery calls scipy.special directly; each number
    must equal the scipy.stats function it stands for bit for bit."""

    def test_critical_value_is_the_upper_quantile(self):
        from scipy import stats

        for dof in range(1, 120):
            for alpha in (1e-12, 1e-6, 0.01 / 59, 0.01, 0.05, 0.5, 0.99):
                ref = float(stats.chi2.isf(alpha, dof))
                assert harness._chi2_critical(alpha, dof).hex() == ref.hex()

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
        from scipy import stats

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
            r"at inarlab\.chains:__post_init__:\d+",
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
