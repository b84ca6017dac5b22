"""Tests for window enumeration, mixing coefficients, and gap certificates."""

import math

import numpy as np
import pytest

from inarlab import chains, mixing
from inarlab import (
    InarParams,
    binomial_death_chain,
    enumerate_window_pairs,
    fit_decay_rate,
    gap_for_epsilon,
    iid_chain,
    inar_kernel,
    indicator_chain_spec,
    lag_joint,
    lag_joints,
    maximal_correlation,
    maximal_correlations,
    poisson_death_chain,
    rho_markov,
    rho_star_window,
    transition_matrix,
    verify_absorbing_split,
    verify_indicator_bound,
    window_joint_pmf,
)
from inarlab.mixing import TIE_TOLERANCE
from inarlab.errors import (
    ExplosionLimitError,
    InsufficientDataError,
    InvalidParameterError,
    WindowTooWideError,
)

# regression fixtures: exact odd/even-group lambda values of indicator
# chains started at 1 (length 6), frozen from the exact computation
ABSORBING_SPLIT_FIXTURES = {
    0.01: 0.09999999899999999,
    0.05: 0.22360540020749306,
    1.0 / 9.0: 0.333282528069908,
}

EVERY_CHAIN = pytest.mark.parametrize(
    "spec",
    [
        inar_kernel(InarParams(a=0.5, lam=1.0)),
        poisson_death_chain(2.0, 0.7),
        binomial_death_chain(4, 0.5, 0.3),
        indicator_chain_spec(0.4, 0.6),
        iid_chain(1.5),
    ],
    ids=["inar", "death-poisson", "death-binomial", "indicator", "iid"],
)


def window_pairs_by_filter(width, gap):
    """(S, T) index tuples in canonical order: every S bitmask in ascending
    order, every T bitmask over the indices above min(S), filtered by distance."""
    out = []
    for s_mask in range(1, 1 << width):
        s = [i for i in range(width) if s_mask >> i & 1]
        rest = [i for i in range(width) if not s_mask >> i & 1 and i > s[0]]
        for t_mask in range(1, 1 << len(rest)):
            t = [rest[i] for i in range(len(rest)) if t_mask >> i & 1]
            if min(abs(x - y) for x in s for y in t) >= gap:
                out.append((tuple(s), tuple(t)))
    return out


def scan_pair_by_pair(spec, width, gap, cap):
    """The window scan one pair at a time: one law per union, one split and
    one maximal correlation per pair, the first pair within the tie
    tolerance of the maximum attains it."""
    pairs = enumerate_window_pairs(width, gap)
    laws = {}
    values = []
    for pair in pairs:
        union = tuple(sorted(pair.s + pair.t))
        if union not in laws:
            laws[union] = window_joint_pmf(spec, union, cap)
        values.append(maximal_correlation(laws[union].split(pair.s, pair.t)))
    best_val = max(values, default=0.0)
    best = next(
        (p for p, v in zip(pairs, values) if v > 0.0 and v >= best_val - TIE_TOLERANCE),
        None,
    )
    worst_err = max((law.truncation_error for law in laws.values()), default=0.0)
    return best_val, best, len(pairs), worst_err


class TestEnumerateWindowPairs:
    def test_width_two_single_pair(self):
        pairs = enumerate_window_pairs(2, 1)
        assert len(pairs) == 1
        assert pairs[0].s == (0,) and pairs[0].t == (1,)

    def test_width_three_count(self):
        assert len(enumerate_window_pairs(3, 1)) == 6

    def test_gap_at_least_width_is_empty(self):
        assert enumerate_window_pairs(3, 3) == []
        assert enumerate_window_pairs(4, 6) == []

    def test_interlaced_pairs_are_present(self):
        pairs = enumerate_window_pairs(4, 1)
        assert any(max(p.s) > min(p.t) for p in pairs)

    def test_pairs_are_unordered_and_unique(self):
        pairs = enumerate_window_pairs(4, 1)
        seen = {frozenset((p.s, p.t)) for p in pairs}
        assert len(seen) == len(pairs)
        assert all(min(p.s) < min(p.t) for p in pairs)

    def test_width_cap(self):
        with pytest.raises(WindowTooWideError):
            enumerate_window_pairs(9, 1)

    def test_canonical_order_matches_the_filtered_enumeration(self):
        for width in range(1, 9):
            for gap in range(1, width + 2):
                got = [(p.s, p.t) for p in enumerate_window_pairs(width, gap)]
                assert got == window_pairs_by_filter(width, gap)


class TestRhoStarWindow:
    def test_iid_chain_is_independent(self):
        chain = iid_chain(1.0)
        for gap in (1, 2):
            scan = rho_star_window(chain, 3, gap, cap=20)
            assert scan.value <= 1e-9

    def test_single_pair_matches_direct_computation(self):
        chain = poisson_death_chain(1.0, 0.5)
        scan = rho_star_window(chain, 2, 1, cap=30)
        joint, _ = lag_joint(chain, 1, 30)
        assert scan.pair_count == 1
        assert abs(scan.value - maximal_correlation(joint)) <= 1e-12

    def test_monotone_in_gap(self):
        chain = poisson_death_chain(2.0, 0.5)
        values = [rho_star_window(chain, 4, gap, cap=20).value for gap in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2]

    def test_nondecreasing_in_width(self):
        chain = poisson_death_chain(2.0, 0.5)
        v3 = rho_star_window(chain, 3, 1, cap=20).value
        v4 = rho_star_window(chain, 4, 1, cap=20).value
        assert v4 >= v3 - 1e-12

    def test_vacuous_scan(self):
        scan = rho_star_window(indicator_chain_spec(0.5, 0.5), 3, 5, cap=1)
        assert scan.vacuous and scan.value == 0.0 and scan.best is None

    def test_attaining_pair_ignores_rounding_among_tied_pairs(self, monkeypatch):
        # Markov property: rho(sigma(X0, X1), X3) = rho(X1, X3) exactly, so
        # S = [1] and S = [0, 1] against T = [3] tie; the first in
        # enumeration order wins whichever one rounds higher
        chain = poisson_death_chain(1.0, 0.5)
        scan = rho_star_window(chain, 4, 2, cap=30)
        assert (scan.best.s, scan.best.t) == ((1,), (3,))
        for bump in (1e-15, -1e-15):
            nudged_batches = []

            def nudged(joints, bump=bump):
                values = maximal_correlations(joints)
                nudged_batches.append(len(values))
                return [v + bump * k for k, v in enumerate(values)]

            monkeypatch.setattr(mixing, "maximal_correlations", nudged)
            nudged_scan = rho_star_window(chain, 4, 2, cap=30)
            # every compared value went through the nudge, and it moved the maximum
            assert nudged_batches == [scan.pair_count]
            assert nudged_scan.value != scan.value
            assert (nudged_scan.best.s, nudged_scan.best.t) == ((1,), (3,))
            assert abs(nudged_scan.value - scan.value) <= 1e-14

    @pytest.mark.parametrize(
        "spec, width, gap, cap",
        [
            (inar_kernel(InarParams(a=0.9, lam=0.5)), 4, 1, 20),
            (inar_kernel(InarParams(a=0.5, lam=1.0)), 6, 1, 5),
            (inar_kernel(InarParams(a=0.3, lam=2.0)), 5, 2, 10),
            (poisson_death_chain(1.0, 0.5), 4, 2, 30),
            (binomial_death_chain(3, 0.5, 0.4), 4, 1, 3),
            (indicator_chain_spec(0.5, 0.3), 6, 3, 1),
            (indicator_chain_spec(0.5, 0.2), 6, 3, 1),
            (indicator_chain_spec(0.3, 0.5), 8, 2, 1),
            (iid_chain(1.0), 3, 1, 20),
        ],
        ids=[
            "inar-w4", "inar-w6", "inar-w5-n2", "death-poisson", "death-binomial",
            "indicator-a0.3", "indicator-a0.2", "indicator-w8", "iid",
        ],
    )
    def test_equals_the_pair_by_pair_scan_bitwise(self, spec, width, gap, cap):
        scan = rho_star_window(spec, width, gap, cap)
        assert (scan.value, scan.best, scan.pair_count, scan.truncation_error) == (
            scan_pair_by_pair(spec, width, gap, cap)
        )

    def test_too_wide_window_is_refused_before_any_law(self, monkeypatch):
        built = []
        monkeypatch.setattr(mixing, "window_joint_pmf", lambda *args: built.append(args))
        chain = inar_kernel(InarParams(a=0.9, lam=0.5))
        # unions of four indices fit (31**4 cells), those of five do not
        with pytest.raises(ExplosionLimitError, match="28629151 atoms"):
            rho_star_window(chain, 5, 1, cap=30)
        assert built == []

    def test_dominates_single_pair_value(self):
        chain = binomial_death_chain(3, 0.5, 0.4)
        scan = rho_star_window(chain, 4, 1, cap=3)
        joint, _ = lag_joint(chain, 1, 3)
        assert scan.value >= maximal_correlation(joint) - 1e-12


class TestLagJoint:
    def test_square_table_beyond_the_limit_is_refused_before_any_row(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("built the kernel table")

        monkeypatch.setattr(chains, "binomial_table", no_table)
        spec = inar_kernel(InarParams(a=0.5, lam=1.0))
        with pytest.raises(ExplosionLimitError, match="2002225 atoms"):
            lag_joint(spec, 1, 1414)
        with pytest.raises(AssertionError, match="kernel table"):
            lag_joint(spec, 1, 1413)

    def test_many_gaps_share_one_table_and_match_one_gap_calls(self, monkeypatch):
        spec = inar_kernel(InarParams(a=0.5, lam=1.0))
        gaps = [1, 2, 5, 3]
        one_by_one = [lag_joint(spec, n, 40) for n in gaps]
        tables = []
        real = chains.transition_matrix
        monkeypatch.setattr(chains, "transition_matrix", lambda *a: tables.append(a) or real(*a))
        joints = lag_joints(spec, gaps, 40)
        assert tables == []  # built when the first joint is drawn
        for (joint, escaped), (want, want_escaped) in zip(joints, one_by_one, strict=True):
            assert np.array_equal(joint.mass, want.mass) and escaped == want_escaped
        assert len(tables) == 1

    def test_many_gaps_refuse_at_the_call(self):
        spec = inar_kernel(InarParams(a=0.5, lam=1.0))
        with pytest.raises(ExplosionLimitError, match="2002225 atoms"):
            lag_joints(spec, [1, 2], 1414)
        with pytest.raises(InvalidParameterError, match="positive integer"):
            lag_joints(spec, [1, 0], 20)

    @EVERY_CHAIN
    def test_equals_the_renormalized_n_step_product(self, spec):
        # init[x] * P^n[x, y] over {0..cap}, null rows and then null columns
        # compressed away (compress keeps the C order the sum reads in),
        # divided by its sum(), bit for bit
        for cap in (1, 7, 20):
            trans = transition_matrix(spec, cap)[:, : cap + 1]
            init = np.zeros(cap + 1)
            m = min(spec.initial.probs.size, cap + 1)
            init[:m] = spec.initial.probs[:m]
            for n in (1, 3, 7):
                want = init[:, None] * np.linalg.matrix_power(trans, n)
                kept = math.fsum(want.ravel().tolist())
                want = want.compress(want.sum(axis=1) > 0.0, axis=0)
                want = want.compress(want.sum(axis=0) > 0.0, axis=1)
                joint, escaped = lag_joint(spec, n, cap)
                assert np.array_equal(joint.mass, want / want.sum())
                assert escaped == max(0.0, 1.0 - kept)


class TestRhoMarkov:
    @EVERY_CHAIN
    def test_equals_the_one_pair_window_scan(self, spec):
        # S = {0}, T = {n} is the only pair of the width-(n + 1) window at
        # gap n, and both read the split of the same (0, n) window law
        for cap in (1, 7, 20):
            for n in (1, 2, 3):
                scan = rho_star_window(spec, n + 1, n, cap)
                assert scan.pair_count == 1
                assert rho_markov(spec, n, cap) == scan.value

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
    def test_closed_forms_on_a_grid(self, a, lam):
        # rho(X_0, X_n) is a**n for the stationary chain (Lancaster 1958) and
        # a**(n/2) for the death chain started from Poisson(lam) (Dembo,
        # Kagan & Shepp 2001); 40 states above the cap make both truncations
        # negligible
        inar = inar_kernel(InarParams(a=a, lam=lam))
        death = poisson_death_chain(lam, a)
        for n in (1, 2, 3, 5):
            assert abs(rho_markov(inar, n, inar.state_cap + 40) - a**n) <= 1e-10
            assert abs(rho_markov(death, n, death.state_cap + 40) - a ** (n / 2)) <= 1e-10

    def test_iid_is_zero(self):
        assert rho_markov(iid_chain(2.0), 3, 25) <= 1e-10

    def test_inar_truncation_convergence_to_thinning_rate(self):
        # coefficient at gap n converges (in the cap) to a**n; stability
        # across caps 50/100/200 justifies freezing the limit value
        spec = inar_kernel(InarParams(a=0.5, lam=1.0))
        for n in (1, 2, 4):
            values = [rho_markov(spec, n, cap) for cap in (50, 100, 200)]
            assert abs(values[2] - values[1]) <= 1e-10
            assert abs(values[2] - 0.5**n) <= 1e-9

    def test_consistency_with_window_scan(self):
        chain = poisson_death_chain(2.0, 0.6)
        for n in (1, 2):
            pairwise = rho_markov(chain, n, 25)
            scan = rho_star_window(chain, n + 1, n, cap=25)
            assert scan.value >= pairwise - 1e-10
            # the single pair S={0}, T={n} is among the enumerated ones
            one_pair = [
                p for p in enumerate_window_pairs(n + 1, n)
                if p.s == (0,) and p.t == (n,)
            ]
            assert len(one_pair) == 1

    @pytest.mark.parametrize("lam, a", [(1.0, 0.5), (2.0, 0.3), (0.5, 0.7), (3.0, 0.9)])
    def test_poisson_death_chain_matches_closed_form(self, lam, a):
        # X_0 = X_n + Z with Z independent Poisson, so
        # rho(X_0, X_n) = sqrt(Var X_n / Var X_0) = a**(n/2)
        # (Dembo, Kagan & Shepp 2001); a Markov window scan at gap 2 gives a
        chain = poisson_death_chain(lam, a)
        for n in (1, 2, 3, 4):
            assert abs(rho_markov(chain, n, cap=40) - a ** (n / 2)) <= 1e-9
        assert abs(rho_star_window(chain, width=4, gap=2, cap=30).value - a) <= 1e-9

    def test_decaying_in_gap(self):
        spec = inar_kernel(InarParams(a=0.6, lam=1.0))
        vals = [rho_markov(spec, n, 60) for n in (1, 2, 3)]
        assert vals[0] > vals[1] > vals[2]


class TestGapCertificate:
    def test_identity_bound_examples(self):
        cert = gap_for_epsilon(0.5, 1.0)
        assert cert.m == 4 and abs(cert.gamma - 1.0 / 9.0) <= 1e-15
        cert = gap_for_epsilon(0.5, 0.3)
        assert cert.m == 7 and abs(cert.gamma - 0.01) <= 1e-15
        cert = gap_for_epsilon(0.9, 0.3)
        assert cert.m == 44

    def test_certificate_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.05, 0.95))
            eps = float(rng.uniform(0.01, 1.0))
            cert = gap_for_epsilon(a, eps)
            assert cert.gamma <= 1.0 / 9.0 + 1e-15
            assert 3.0 * math.sqrt(cert.gamma) <= cert.delta + 1e-12
            assert a**cert.m <= cert.gamma
            assert cert.m == 1 or a ** (cert.m - 1) > cert.gamma

    @pytest.mark.parametrize("a", [0.5, 0.9999999999999999])
    @pytest.mark.parametrize("eps", [5e-324, 1e-300, 1e-160])
    def test_epsilon_whose_gamma_underflows_is_refused(self, a, eps):
        with pytest.raises(InvalidParameterError, match="underflows"):
            gap_for_epsilon(a, eps)

    @pytest.mark.parametrize("a", [0.5, 0.9999999999999999])
    def test_smallest_normal_gamma_still_certifies(self, a):
        cert = gap_for_epsilon(a, 1e-150)
        assert a**cert.m <= cert.gamma < a ** (cert.m - 1)

    def test_monotone_in_epsilon(self):
        eps_grid = np.linspace(0.05, 1.0, 30)
        ms = [gap_for_epsilon(0.5, float(e)).m for e in eps_grid]
        assert all(m2 <= m1 for m1, m2 in zip(ms, ms[1:]))


class TestVerifyIndicatorBound:
    def test_zero_start_probability(self):
        rep = verify_indicator_bound(0.0, 0.3, 0.5, 6)
        assert rep.passed and rep.value == 0.0

    def test_half_epsilon_window_six(self):
        rep = verify_indicator_bound(0.5, 0.5, 0.5, 6)
        # gap m=6 cannot fit in width 6: vacuous by arithmetic, still valid
        if not rep.vacuous:
            assert rep.passed
        rep = verify_indicator_bound(0.5, 0.3, 0.5, 6)
        assert not rep.vacuous and rep.passed and rep.margin > 0.0

    def test_wider_gaps_never_increase_the_coefficient(self):
        spec = indicator_chain_spec(0.5, 0.3)
        cert = gap_for_epsilon(0.3, 0.5)
        values = [
            rho_star_window(spec, 6, gap, cap=1).value
            for gap in range(cert.m, 6)
        ]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))


class TestVerifyAbsorbingSplit:
    def test_all_zero_chain(self):
        law = window_joint_pmf(indicator_chain_spec(0.0, 0.05), [0, 1, 2, 3], cap=1)
        rep = verify_absorbing_split(law, 0.05)
        assert rep.hypothesis_ok and rep.value == 0.0 and rep.passed

    def test_frozen_regression_values(self):
        for eps, frozen in ABSORBING_SPLIT_FIXTURES.items():
            law = window_joint_pmf(
                indicator_chain_spec(1.0, eps), list(range(6)), cap=1
            )
            rep = verify_absorbing_split(law, eps)
            assert rep.hypothesis_ok
            assert rep.passed
            assert rep.value <= 3.0 * math.sqrt(eps)
            assert abs(rep.value - frozen) <= 1e-12

    def test_start_at_one_length_four(self):
        eps = 0.05
        law = window_joint_pmf(indicator_chain_spec(1.0, eps), [0, 1, 2, 3], cap=1)
        rep = verify_absorbing_split(law, eps)
        assert rep.hypothesis_ok and rep.passed and rep.margin > 0.0

    def test_hypothesis_violation_is_a_report_not_an_error(self):
        # survival rate far above epsilon breaks the conditional-zero floor
        law = window_joint_pmf(indicator_chain_spec(1.0, 0.5), [0, 1, 2, 3], cap=1)
        rep = verify_absorbing_split(law, 0.05)
        assert not rep.hypothesis_ok
        assert not rep.passed
        assert "epsilon" in rep.hypothesis_note or "history" in rep.hypothesis_note

    def test_epsilon_above_cap_is_hypothesis_failure(self):
        law = window_joint_pmf(indicator_chain_spec(1.0, 0.05), [0, 1], cap=1)
        rep = verify_absorbing_split(law, 0.2)
        assert not rep.hypothesis_ok

    def test_length_cap(self):
        law = window_joint_pmf(indicator_chain_spec(1.0, 0.05), list(range(7)), cap=1)
        with pytest.raises(WindowTooWideError):
            verify_absorbing_split(law, 0.05)


class TestFitDecayRate:
    def test_exact_geometric_input(self):
        fit = fit_decay_rate([(n, 0.25 * 0.7**n) for n in range(1, 8)])
        assert abs(fit.rate - 0.7) <= 1e-9
        assert fit.r_squared >= 1.0 - 1e-12

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_decay_rate([(1, 0.5), (2, 0.25)])

    def test_constant_zero_input(self):
        with pytest.raises(InsufficientDataError):
            fit_decay_rate([(n, 0.0) for n in range(1, 10)])

    def test_floor_filters_noise(self):
        points = [(n, 0.5**n) for n in range(1, 6)] + [(40, 1e-16)]
        fit = fit_decay_rate(points)
        assert abs(fit.rate - 0.5) <= 1e-9
