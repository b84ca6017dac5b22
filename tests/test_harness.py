"""Tests for the verification campaign machinery."""

import re

import numpy as np
import pytest

from inarlab import (
    InarParams,
    PathEnsemble,
    SeedSpec,
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
from inarlab import harness
from inarlab.harness import (
    McConfig,
    _corrupted_innovation_check,
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
