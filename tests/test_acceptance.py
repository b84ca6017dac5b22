"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n>: PASS`` line (visible with ``-s``)
and enforces the criterion's tolerance and runtime budget.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from inarlab import (
    InarParams,
    JointPmf,
    SeedSpec,
    binomial_death_chain,
    check_construction_equivalence,
    convolve,
    fit_decay_rate,
    gap_for_epsilon,
    inar_kernel,
    indicator_chain_spec,
    marginal_at,
    maximal_correlation,
    poisson_death_chain,
    poisson_pmf,
    rho_markov,
    rho_star_window,
    thin,
    total_variation,
    verify_absorbing_split,
    window_joint_pmf,
)
from inarlab.cli import main as cli_main
from inarlab.dependence import markov_triplet_residual
from inarlab.harness import (
    check_markov_property,
    nonmarkov_control_triplet,
)
from .test_pmf import random_pmf, sup_diff

A_GRID = (0.3, 0.5, 0.7)
LAMBDA_GRID = (0.5, 1.0, 2.0)


def test_acceptance_01_stationarity():
    start = time.monotonic()
    worst = 0.0
    for a in A_GRID:
        for lam in LAMBDA_GRID:
            spec = inar_kernel(InarParams(a=a, lam=lam), tail_budget=1e-12)
            assert spec.initial.tail_mass <= 1e-12
            pushed = marginal_at(spec, 1)
            worst = max(worst, total_variation(pushed, spec.initial))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS — one-step stationarity, worst TV {worst:.3e} "
          f"<= 1e-10 in {elapsed:.2f}s")


def test_acceptance_02_death_chain_marginals():
    start = time.monotonic()
    worst = 0.0
    for a in A_GRID:
        for lam in LAMBDA_GRID:
            chain = poisson_death_chain(lam, a, tail_budget=1e-13)
            for j in range(11):
                target = poisson_pmf(lam * a**j, tail_budget=1e-13)
                worst = max(worst, sup_diff(marginal_at(chain, j), target))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS — death-chain marginals, worst sup-norm "
          f"{worst:.3e} <= 1e-12 in {elapsed:.2f}s")


def test_acceptance_03_thinning_algebra_on_random_corpus():
    rng = np.random.default_rng(20260810)
    worst_conv = 0.0
    for _ in range(100):
        l1, l2 = rng.uniform(0.1, 3.0, size=2)
        got = convolve(poisson_pmf(l1), poisson_pmf(l2))
        worst_conv = max(worst_conv, sup_diff(got, poisson_pmf(l1 + l2)))
    assert worst_conv <= 1e-12

    worst_dist = 0.0
    for _ in range(100):
        p, q = random_pmf(rng), random_pmf(rng)
        a = float(rng.uniform(0.05, 0.95))
        lhs = thin(convolve(p, q), a)
        rhs = convolve(thin(p, a), thin(q, a))
        worst_dist = max(worst_dist, sup_diff(lhs, rhs))
    assert worst_dist <= 1e-12
    print(f"ACCEPTANCE 3: PASS — convolution of Poissons stays Poisson "
          f"({worst_conv:.3e}) and thinning distributes over sums "
          f"({worst_dist:.3e}), both <= 1e-12 on 100-pair corpora")


def test_acceptance_04_blockwise_maximum_rule():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        sides = rng.integers(2, 5, size=4)
        j1 = JointPmf(rng.dirichlet(np.ones(sides[0] * sides[1])).reshape(sides[0], sides[1]))
        j2 = JointPmf(rng.dirichlet(np.ones(sides[2] * sides[3])).reshape(sides[2], sides[3]))
        got = maximal_correlation(JointPmf(np.kron(j1.mass, j2.mass)))
        want = max(maximal_correlation(j1), maximal_correlation(j2))
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4: PASS — independent-block maximum rule, worst "
          f"deviation {worst:.3e} <= 1e-9 on 50 joints in {elapsed:.2f}s")


# frozen margins (bound - value) for the p0=1, length-6 indicator family
FROZEN_SPLIT_MARGINS = {
    0.01: 0.30 - 0.09999999899999999,
    0.05: 3.0 * math.sqrt(0.05) - 0.22360540020749306,
    1.0 / 9.0: 1.0 - 0.333282528069908,
}


def test_acceptance_05_absorbing_split_bound():
    for eps in (0.01, 0.05, 1.0 / 9.0):
        for length in (4, 6):
            for p0 in (0.5, 1.0):
                law = window_joint_pmf(
                    indicator_chain_spec(p0, eps), list(range(length)), cap=1
                )
                rep = verify_absorbing_split(law, eps)
                assert rep.hypothesis_ok
                assert rep.value <= 3.0 * math.sqrt(eps)
        frozen = FROZEN_SPLIT_MARGINS[eps]
        law = window_joint_pmf(indicator_chain_spec(1.0, eps), list(range(6)), cap=1)
        rep = verify_absorbing_split(law, eps)
        assert abs(rep.margin - frozen) <= 1e-12
    print("ACCEPTANCE 5: PASS — odd/even-group lambda <= 3*sqrt(eps) for "
          "eps in {0.01, 0.05, 1/9} with frozen regression margins")


def test_acceptance_06_gap_certificates_cap_window_coefficients():
    start = time.monotonic()
    lines = []
    # chain survival rates chosen per epsilon so the certified gap fits
    # inside the enumerable windows (m = 3 in both cases)
    for eps, a in ((0.5, 0.3), (0.3, 0.2)):
        cert = gap_for_epsilon(a, eps)
        assert cert.m == 3

        scan = rho_star_window(indicator_chain_spec(0.5, a), 6, cert.m, cap=1)
        assert not scan.vacuous and scan.value <= eps
        lines.append(f"indicator(a={a}) {scan.value:.4f}<={eps}")

        scan = rho_star_window(binomial_death_chain(4, 0.5, a), 4, cert.m, cap=4)
        assert not scan.vacuous and scan.value <= eps
        lines.append(f"binomial-death(a={a}) {scan.value:.4f}<={eps}")

        scan = rho_star_window(poisson_death_chain(2.0, a), 4, cert.m, cap=30)
        assert not scan.vacuous and scan.value <= eps
        lines.append(f"poisson-death(a={a}) {scan.value:.4f}<={eps}")

        # finite-window shadow for the stationary count chain itself
        inar = inar_kernel(InarParams(a=a, lam=1.0))
        scan = rho_star_window(inar, 5, cert.m, cap=12)
        assert not scan.vacuous and scan.value <= eps
        lines.append(f"inar(a={a}) {scan.value:.4f}<={eps}")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6: PASS — certified gaps cap exact window coefficients "
          f"({'; '.join(lines)}) in {elapsed:.1f}s")


def test_acceptance_07_decay_rate_depends_on_a_not_lambda():
    start = time.monotonic()
    gaps = list(range(1, 7))
    rates: dict[float, list[float]] = {a: [] for a in A_GRID}
    for a in A_GRID:
        for lam in LAMBDA_GRID:
            spec = inar_kernel(InarParams(a=a, lam=lam))
            # truncation-convergence oracle: values stabilize in the cap and
            # match a**n before the geometric expectation is used
            for n in (1, 3, 6):
                by_cap = [rho_markov(spec, n, cap) for cap in (50, 100, 200)]
                assert abs(by_cap[2] - by_cap[1]) <= 1e-9
                assert abs(by_cap[2] - a**n) <= 1e-6
            values = [(n, rho_markov(spec, n, 100)) for n in gaps]
            fit = fit_decay_rate(values)
            assert abs(fit.rate - a) <= 0.01
            rates[a].append(fit.rate)
    for a, fitted in rates.items():
        assert max(fitted) - min(fitted) <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7: PASS — log-linear decay with fitted rate within "
          f"0.01 of a, agreeing across lambda, in {elapsed:.1f}s")


def test_acceptance_08_markov_triplet_residuals():
    worst = 0.0
    for a in A_GRID:
        for lam in LAMBDA_GRID:
            rep = check_markov_property(InarParams(a=a, lam=lam))
            assert rep.passed
            worst = max(worst, rep.statistic)
    assert worst <= 1e-10
    control = markov_triplet_residual(nonmarkov_control_triplet())
    assert control >= 1e-3
    print(f"ACCEPTANCE 8: PASS — exact triplet residuals <= {worst:.3e} "
          f"(cap 1e-10); non-Markov control residual {control:.3f} >= 1e-3")


def test_acceptance_09_construction_equivalence_at_scale():
    start = time.monotonic()
    params = InarParams(a=0.5, lam=1.0)
    genuine = check_construction_equivalence(params, 10**6, SeedSpec(90210, 0))
    assert genuine.passed, (genuine.statistic, genuine.threshold)
    control = check_construction_equivalence(
        params, 10**6, SeedSpec(90210, 1), perturb_a=0.1
    )
    assert not control.passed
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 9: PASS — superposition TV {genuine.statistic:.2e} <= "
          f"{genuine.threshold:.2e} at 1e6 paths; perturbed control fails "
          f"({control.statistic:.2e}); {elapsed:.1f}s")


def test_acceptance_10_verify_campaign_is_deterministic(tmp_path):
    runner = CliRunner()
    start = time.monotonic()
    outputs = []
    codes = []
    for name in ("rep1.json", "rep2.json"):
        out = tmp_path / name
        res = runner.invoke(cli_main, ["verify", "--out", str(out)])
        codes.append(res.exit_code)
        outputs.append(out.read_bytes())
    elapsed = time.monotonic() - start
    assert codes == [0, 0]
    assert outputs[0] == outputs[1]
    assert elapsed / 2 < 600.0
    print(f"ACCEPTANCE 10: PASS — default campaign exit 0, byte-identical "
          f"reports, {elapsed / 2:.0f}s per run (< 600s)")
