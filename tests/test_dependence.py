"""Tests for the dependence coefficients, with independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from inarlab import (
    JointPmf,
    TripletPmf,
    dependence,
    lambda_coefficient,
    markov_triplet_residual,
    maximal_correlation,
    maximal_correlations,
)
from inarlab.errors import (
    AlphabetTooLargeError,
    InvalidParameterError,
    NumericalError,
)
from inarlab.pmf import MASS_TOL


def ace_oracle(mass: np.ndarray, restarts: int = 6, iters: int = 400) -> float:
    """Alternating conditional expectations: power iteration on the
    conditional-expectation operator, independent of any SVD routine."""
    rng = np.random.default_rng(1234)
    rm = mass.sum(axis=1)
    cm = mass.sum(axis=0)
    best = 0.0
    for _ in range(restarts):
        g = rng.standard_normal(mass.shape[1])
        f = np.zeros(mass.shape[0])
        for _ in range(iters):
            g = g - cm @ g
            norm = math.sqrt(float((g**2) @ cm))
            if norm < 1e-14:
                break
            g /= norm
            with np.errstate(invalid="ignore", divide="ignore"):
                f = np.where(rm > 0, (mass @ g) / np.where(rm > 0, rm, 1.0), 0.0)
            f = f - rm @ f
            norm = math.sqrt(float((f**2) @ rm))
            if norm < 1e-14:
                break
            f /= norm
            g = np.where(cm > 0, (mass.T @ f) / np.where(cm > 0, cm, 1.0), 0.0)
        corr = float(f @ mass @ g) / max(
            1e-300, math.sqrt(float((f**2) @ rm)) * math.sqrt(float((g**2) @ cm))
        )
        best = max(best, abs(corr))
    return best


def indicator_correlation_sup(mass: np.ndarray) -> float:
    """Sup of |Corr(1_A, 1_B)| over all nontrivial unions of atoms."""
    rm = mass.sum(axis=1)
    cm = mass.sum(axis=0)
    best = 0.0
    n_r, n_c = mass.shape
    for ra in range(1, 2**n_r - 1):
        rows = [i for i in range(n_r) if ra >> i & 1]
        pa = rm[rows].sum()
        if not 0.0 < pa < 1.0:
            continue
        for cb in range(1, 2**n_c - 1):
            cols = [j for j in range(n_c) if cb >> j & 1]
            pb = cm[cols].sum()
            if not 0.0 < pb < 1.0:
                continue
            pab = mass[np.ix_(rows, cols)].sum()
            corr = (pab - pa * pb) / math.sqrt(pa * (1 - pa) * pb * (1 - pb))
            best = max(best, abs(corr))
    return best


def lambda_by_event_pairs(mass: np.ndarray) -> float:
    """Sup of |P(A&B) - P(A)P(B)| / sqrt(P(A)P(B)) over every event pair.

    Walks the row events one by one; P(A&B) for all column events B comes
    from the subset-sum recurrence (adding column j to every event without
    it), so no matrix product is involved.  Null events are skipped.
    """

    def subset_sums(weights: np.ndarray) -> np.ndarray:
        sums = np.zeros(1)
        for w in weights:
            sums = np.concatenate([sums, sums + w])
        return sums[1:]  # drop the empty event

    rm = mass.sum(axis=1)
    pb = subset_sums(mass.sum(axis=0))
    best = 0.0
    for a in range(1, 2 ** mass.shape[0]):
        rows = [i for i in range(mass.shape[0]) if a >> i & 1]
        pa = rm[rows].sum()
        if pa == 0.0:
            continue
        pab = subset_sums(mass[rows].sum(axis=0))
        live = pb > 0.0
        stat = (pab[live] - pa * pb[live]) / (math.sqrt(pa) * np.sqrt(pb[live]))
        best = max(best, float(np.abs(stat).max()))
    return best


def svd_per_joint(joint: JointPmf) -> float:
    """One joint at a time: drop null atoms, normalize, one SVD."""
    mass = joint.mass
    rm, cm = mass.sum(axis=1), mass.sum(axis=0)
    mass, rm, cm = mass[np.ix_(rm > 0.0, cm > 0.0)], rm[rm > 0.0], cm[cm > 0.0]
    if min(mass.shape) < 2:
        return 0.0
    sv = np.linalg.svd(mass / np.sqrt(rm)[:, None] / np.sqrt(cm), compute_uv=False)
    return float(min(1.0, max(0.0, sv[1])))


def random_joint(rng, max_side=4) -> JointPmf:
    r = int(rng.integers(2, max_side + 1))
    c = int(rng.integers(2, max_side + 1))
    return JointPmf(rng.dirichlet(np.ones(r * c)).reshape(r, c))


class TestMaximalCorrelation:
    def test_product_joint_is_independent(self):
        rng = np.random.default_rng(0)
        j = JointPmf(np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(5))))
        assert maximal_correlation(j) <= 1e-10

    def test_two_by_two_equals_indicator_correlation(self):
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert abs(maximal_correlation(j) - 0.6) <= 1e-12
        # on binary alphabets the indicator grid attains the supremum
        assert abs(indicator_correlation_sup(j.mass) - 0.6) <= 1e-12

    def test_identity_coupling_is_maximal(self):
        j = JointPmf(np.eye(4) / 4.0)
        assert abs(maximal_correlation(j) - 1.0) <= 1e-12

    def test_degenerate_side_yields_zero(self):
        j = JointPmf(np.array([[0.6, 0.4]]))
        assert maximal_correlation(j) == 0.0
        padded = JointPmf(np.array([[0.6, 0.4], [0.0, 0.0]]))
        assert maximal_correlation(padded) == 0.0

    def test_against_alternating_expectation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            j = random_joint(rng)
            assert abs(maximal_correlation(j) - ace_oracle(j.mass)) <= 1e-7

    def test_indicator_grid_is_a_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            j = random_joint(rng)
            assert indicator_correlation_sup(j.mass) <= maximal_correlation(j) + 1e-10

    def test_label_permutation_and_transpose_invariance(self):
        rng = np.random.default_rng(3)
        j = random_joint(rng)
        rho = maximal_correlation(j)
        perm = rng.permutation(j.mass.shape[0])
        assert abs(maximal_correlation(JointPmf(j.mass[perm])) - rho) <= 1e-12
        assert abs(maximal_correlation(JointPmf(j.mass.T)) - rho) <= 1e-12

    def test_inconsistent_singular_values_raise_a_named_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", lambda q, compute_uv: np.array([0.5, 0.25]))
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]))
        with pytest.raises(NumericalError, match="deviates from 1") as info:
            maximal_correlation(j)
        assert isinstance(info.value, ArithmeticError)

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert 0.0 <= maximal_correlation(random_joint(rng)) <= 1.0


class TestMaximalCorrelations:
    def test_batch_equals_the_one_joint_path_bitwise(self, monkeypatch):
        # Mixed shapes in one batch, null rows and columns, one-atom sides,
        # and 2 x 200000 joints that push the held cells past the work budget.
        rng = np.random.default_rng(17)
        joints = []
        for k in range(120):
            if k % 20 == 19:
                joints.append(JointPmf(rng.dirichlet(np.ones(400_000)).reshape(2, -1)))
                continue
            shape = tuple(rng.integers(1, 6, size=2))
            mass = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
            if k % 3 == 0:
                mass[rng.integers(shape[0])] = 0.0
            if k % 4 == 0:
                mass[:, rng.integers(shape[1])] = 0.0
            if mass.sum() == 0.0:
                mass[0, 0] = 1.0
            joints.append(JointPmf(mass / math.fsum(mass.ravel().tolist())))
        flushes = []

        def counting_flush(pending, values):
            flushes.append(sum(len(group) for group in pending.values()))
            return flush(pending, values)

        flush = dependence._flush
        monkeypatch.setattr(dependence, "_flush", counting_flush)
        one_by_one = [maximal_correlation(j) for j in joints]
        assert one_by_one == [svd_per_joint(j) for j in joints]
        assert sum(j.mass.size for j in joints) > dependence._WORK_BUDGET
        # a budget of 3 cells flushes after almost every joint
        for budget in (dependence._WORK_BUDGET, 3):
            monkeypatch.setattr(dependence, "_WORK_BUDGET", budget)
            flushes.clear()
            assert maximal_correlations(iter(joints)) == one_by_one
            assert len(flushes) >= 2 and flushes[0] > 0
        assert any(v == 0.0 for v in one_by_one) and all(0.0 <= v <= 1.0 for v in one_by_one)

    def test_inconsistent_joint_in_a_batch_raises(self, monkeypatch):
        real_svd = np.linalg.svd

        def skewed(stack, compute_uv):
            sv = real_svd(stack, compute_uv=compute_uv)
            sv[-1, 0] += 1e-9
            return sv

        joints = [JointPmf(np.eye(3) / 3.0)] * 4
        assert maximal_correlations(joints) == [1.0] * 4
        monkeypatch.setattr(np.linalg, "svd", skewed)
        with pytest.raises(NumericalError, match="deviates from 1"):
            maximal_correlations(joints)

    def test_empty_batch(self):
        assert maximal_correlations([]) == []


class TestLambdaCoefficient:
    def test_product_joint(self):
        rng = np.random.default_rng(0)
        j = JointPmf(np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))))
        assert lambda_coefficient(j) <= 1e-12

    def test_two_by_two_hand_enumeration(self):
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]))
        # direct enumeration over the 3x3 nontrivial event pairs
        best = 0.0
        events = [(0,), (1,), (0, 1)]
        for ea in events:
            for eb in events:
                pa = j.mass[list(ea), :].sum()
                pb = j.mass[:, list(eb)].sum()
                pab = j.mass[np.ix_(list(ea), list(eb))].sum()
                best = max(best, abs(pab - pa * pb) / math.sqrt(pa * pb))
        assert abs(best - 0.3) <= 1e-12
        assert abs(lambda_coefficient(j) - 0.3) <= 1e-12

    def test_dominated_by_maximal_correlation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            j = random_joint(rng)
            assert lambda_coefficient(j) <= maximal_correlation(j) + 1e-10

    @pytest.mark.parametrize("shape", [(1, 3), (2, 5), (4, 4), (7, 3), (9, 12), (12, 12)])
    def test_against_event_pair_enumeration(self, monkeypatch, shape):
        # Cell masses spread from 1e-300 to 1, a few cells exactly zero
        # (one whole row for the larger shapes, so a null atom is dropped).
        rng = np.random.default_rng(sum(shape))
        for _ in range(2):
            mass = 10.0 ** rng.uniform(-300.0, 0.0, size=shape)
            mass[rng.random(shape) < 0.1] = 0.0
            if shape[0] > 4:
                mass[0] = 0.0
            mass.flat[int(np.argmax(mass))] += 1.0  # never all zero
            j = JointPmf(mass / math.fsum(mass.ravel().tolist()))
            want = lambda_by_event_pairs(j.mass)
            # a budget of 3 cells takes one event column per product
            for budget in (dependence._WORK_BUDGET, 3):
                monkeypatch.setattr(dependence, "_WORK_BUDGET", budget)
                assert abs(lambda_coefficient(j) - want) <= 1e-12

    def test_one_atom_side_is_exactly_zero(self):
        assert lambda_coefficient(JointPmf(np.array([[0.6, 0.4]]))) == 0.0
        assert lambda_coefficient(JointPmf(np.array([[0.2], [0.3], [0.5]]))) == 0.0
        padded = JointPmf(np.array([[0.6, 0.0, 0.4], [0.0, 0.0, 0.0]]))
        assert lambda_coefficient(padded) == 0.0

    def test_events_tied_with_their_complement_are_both_kept(self):
        # P({1}) = P({0, 2, 3}) = 1/2 exactly, but the two sums round apart
        marginal = np.array([5.0, 21.0, 6.0, 10.0]) / 42.0
        p = marginal @ np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]]).T
        assert p[0] != p[1]
        masks, probs = dependence._half_events(marginal)
        kept = {tuple(np.flatnonzero(m).tolist()) for m in masks}
        assert {(1,), (0, 2, 3)} <= kept
        assert kept == {(0,), (1,), (2,), (3,), (0, 2), (0, 3), (2, 3), (0, 2, 3)}
        assert np.all(probs <= 0.5 + 1e-15)
        # a joint with that row marginal, against the full enumeration
        mass = np.outer(marginal, [0.5, 0.5])
        mass[1] = [marginal[1], 0.0]
        mass[3] = [0.0, marginal[3]]
        j = JointPmf(mass)
        assert abs(lambda_coefficient(j) - lambda_by_event_pairs(j.mass)) <= 1e-12

    def test_full_alphabet_peak_memory(self):
        # One product holds at most the work budget (1 MiB of float64), and
        # the half-event tables of a 12 x 12 joint (about 2048 events a side)
        # take under 1 MB beside it.  A second product-sized temporary, or
        # products sized by the event count (2048 x 1024 cells, 16.8 MB),
        # would break the bound.
        j = JointPmf(np.random.default_rng(3).dirichlet(np.ones(144)).reshape(12, 12))
        tracemalloc.start()
        try:
            lambda_coefficient(j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * dependence._WORK_BUDGET + 1.5e6

    def test_alphabet_cap(self):
        j = JointPmf(np.full((13, 2), 1.0 / 26.0))
        with pytest.raises(AlphabetTooLargeError):
            lambda_coefficient(j)
        at_cap = JointPmf(np.full((12, 2), 1.0 / 24.0))
        assert lambda_coefficient(at_cap) >= 0.0


class TestMarkovTripletResidual:
    def test_chain_construction_is_markov(self):
        # mass[a, b, c] = p(a) k1(a,b) k2(b,c): conditionally independent ends
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(3))
        k1 = rng.dirichlet(np.ones(4), size=3)
        k2 = rng.dirichlet(np.ones(3), size=4)
        mass = np.einsum("a,ab,bc->abc", p, k1, k2)
        assert markov_triplet_residual(TripletPmf(mass)) <= 1e-12

    def test_independent_triplet(self):
        assert markov_triplet_residual(TripletPmf(np.ones((2, 2, 2)) / 8.0)) == 0.0

    def test_forced_equality_control_with_direct_enumeration(self):
        mass = np.zeros((2, 2, 2))
        for b in (0, 1):
            for a in (0, 1):
                mass[a, b, a] = 0.25
        t = TripletPmf(mass)
        # direct conditional-probability enumeration at b=0:
        # P(a=0,c=0|b)=1/2 while P(a=0|b)P(c=0|b)=1/4
        assert abs(markov_triplet_residual(t) - 0.25) <= 1e-15

    def test_zero_probability_conditioning_atoms_ignored(self):
        mass = np.zeros((2, 3, 2))
        mass[:, 0, :] = 0.25
        assert markov_triplet_residual(TripletPmf(mass)) == 0.0


class TestTensorCombine:
    """The product measure of independent blocks, ``np.kron`` of their joints."""

    def test_single_block_is_identity_up_to_labels(self):
        j = JointPmf(np.array([[0.2, 0.3], [0.4, 0.1]]))
        combined = JointPmf(np.kron(j.mass, np.ones((1, 1))))  # with a one-atom block
        assert np.array_equal(combined.mass, j.mass)

    def test_product_blocks_give_product_joint(self):
        rng = np.random.default_rng(2)
        blocks = [
            JointPmf(np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))))
            for _ in range(2)
        ]
        combined = JointPmf(np.kron(blocks[0].mass, blocks[1].mass))
        assert maximal_correlation(combined) <= 1e-9

    def test_blockwise_maximum_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            j1, j2 = random_joint(rng), random_joint(rng)
            got = maximal_correlation(JointPmf(np.kron(j1.mass, j2.mass)))
            want = max(maximal_correlation(j1), maximal_correlation(j2))
            assert abs(got - want) <= 1e-9


class TestValidation:
    def test_mass_must_normalize(self):
        with pytest.raises(InvalidParameterError):
            JointPmf(np.array([[0.5, 0.1], [0.1, 0.1]]))
        with pytest.raises(InvalidParameterError):
            TripletPmf(np.full((2, 2, 2), 0.2))

    def test_refused_mass_prints_its_exact_sum(self):
        mass = np.random.default_rng(5).dirichlet(np.ones(729 * 81)).reshape(729, 81)
        mass *= 1.0 + 4 * MASS_TOL
        total = math.fsum(mass.ravel().tolist())
        with pytest.raises(InvalidParameterError) as info:
            JointPmf(mass)
        assert str(info.value) == f"mass sums to {total!r}, not 1 within {MASS_TOL}"

    def test_null_atoms_are_dropped_on_construction(self):
        joint = JointPmf(np.array([[0.6, 0.0, 0.4], [0.0, 0.0, 0.0]]))
        assert joint.mass.tolist() == [[0.6, 0.4]] and not joint.mass.flags.writeable
        rng = np.random.default_rng(8)
        for _ in range(20):
            mass = rng.random((5, 7)) ** 3
            mass[rng.integers(5)] = 0.0
            mass[:, rng.integers(7)] = 0.0
            mass /= mass.sum()
            compressed = JointPmf(mass[mass.sum(axis=1) > 0.0][:, mass.sum(axis=0) > 0.0])
            joint = JointPmf(mass)
            assert joint.mass.shape == (4, 6)
            assert np.array_equal(joint.mass, compressed.mass)
            assert maximal_correlation(joint) == maximal_correlation(compressed)
            assert lambda_coefficient(joint) == lambda_coefficient(compressed)

    def test_wide_joint_validates_in_small_memory(self):
        # the 9**5 cells of a five-index window law split into 729 x 81; an
        # exact sum over a list of them peaked at 2.4 MB
        mass = np.random.default_rng(6).dirichlet(np.ones(729 * 81)).reshape(729, 81)
        tracemalloc.start()
        try:
            JointPmf(mass)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
