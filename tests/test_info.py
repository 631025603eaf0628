"""Unit tests for the information-bound layer."""

import math

import numpy as np
import pytest

from clausius_lab import (
    DensityMatrix,
    Ensemble,
    Povm,
    accessible_info_lower,
    average_state,
    erasure_budget,
    holevo_chi,
    mutual_information,
    vn_entropy,
)

KET0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
KETPLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
KETPLUS_I = DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
MIXED = DensityMatrix(np.eye(2, dtype=complex) / 2)
BB84 = Ensemble(np.array([0.5, 0.5]), (KET0, KETPLUS))
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def random_ensemble(rng, n_states=None):
    n = n_states or rng.integers(2, 5)
    probs = rng.dirichlet(np.ones(n))
    states = []
    for _ in range(n):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        states.append(DensityMatrix(rho / np.trace(rho).real))
    return Ensemble(probs, tuple(states))


def random_povm(rng, n_elements=3):
    mats = []
    for _ in range(n_elements):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mats.append(a @ a.conj().T)
    total = sum(mats)
    eigvals, eigvecs = np.linalg.eigh(total)
    inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
    return Povm(tuple(inv_sqrt @ m @ inv_sqrt for m in mats))


class TestValidation:
    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_ensemble_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([0.6, 0.6]), (KET0, KETPLUS))

    def test_ensemble_rejects_mixed_dimensions(self):
        qutrit = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            Ensemble(np.array([0.5, 0.5]), (KET0, qutrit))

    def test_povm_must_sum_to_identity(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2, dtype=complex) * 0.5,))

    def test_povm_rejects_negative_element(self):
        with pytest.raises(ValueError):
            Povm((np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)))


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert vn_entropy(KET0) == 0.0
        assert vn_entropy(KETPLUS) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert vn_entropy(MIXED) == pytest.approx(math.log(2), abs=1e-12)

    def test_average_state(self):
        avg = average_state(BB84)
        assert avg.matrix[0, 0].real == pytest.approx(0.75)
        assert avg.matrix[0, 1].real == pytest.approx(0.25)


class TestHolevo:
    def test_bb84_pair_value(self):
        # [DERIVED] pure states: chi = S(avg); avg eigenvalues (1 +- 2^-1/2)/2
        p = (1 + 1 / math.sqrt(2)) / 2
        expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert holevo_chi(BB84) == pytest.approx(expected, abs=1e-12)

    def test_identical_states_give_zero(self):
        e = Ensemble(np.array([0.5, 0.5]), (MIXED, MIXED))
        assert holevo_chi(e) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_ensembles(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert holevo_chi(random_ensemble(rng)) >= -1e-12


class TestMutualInformation:
    def test_orthogonal_states_fully_distinguishable(self):
        ket1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        e = Ensemble(np.array([0.5, 0.5]), (KET0, ket1))
        z_measure = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        assert mutual_information(e, z_measure) == pytest.approx(math.log(2), abs=1e-12)

    def test_uninformative_measurement_gives_zero(self):
        trivial = Povm((np.eye(2, dtype=complex) * 0.5, np.eye(2, dtype=complex) * 0.5))
        assert mutual_information(BB84, trivial) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_holevo_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            e = random_ensemble(rng)
            m = random_povm(rng)
            assert mutual_information(e, m) <= holevo_chi(e) + 1e-10

    def test_dimension_mismatch_rejected(self):
        qutrit_measure = Povm((np.eye(3, dtype=complex),))
        with pytest.raises(ValueError):
            mutual_information(BB84, qutrit_measure)


class TestAccessibleInfo:
    def test_bb84_matches_dense_angle_scan(self):
        # [DERIVED] real-amplitude states: the optimum lies in the x-z plane,
        # so a dense 1-D scan over the polar angle is an oracle
        val, povm = accessible_info_lower(BB84, effort=24)
        best = 0.0
        for theta in np.linspace(0.0, math.pi, 20001):
            n = np.array([math.sin(theta), 0.0, math.cos(theta)])
            proj = (np.eye(2, dtype=complex) + n[0] * np.array([[0, 1], [1, 0]]) + n[2] * np.diag([1.0, -1.0])) / 2
            m = Povm((proj, np.eye(2) - proj))
            best = max(best, mutual_information(BB84, m))
        assert val == pytest.approx(best, abs=1e-4)
        assert val <= holevo_chi(BB84) + 1e-10
        assert povm.dim == 2

    def test_orthogonal_pair_reaches_one_bit(self):
        ket1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        e = Ensemble(np.array([0.5, 0.5]), (KET0, ket1))
        val, _ = accessible_info_lower(e, effort=12)
        assert val == pytest.approx(math.log(2), abs=1e-9)

    def test_bound_is_the_information_of_its_measurement_and_below_chi(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = random_ensemble(rng)
            val, povm = accessible_info_lower(e, effort=8)
            assert val == mutual_information(e, povm)
            assert val <= holevo_chi(e) + 1e-12

    def test_identical_mixed_states_give_zero(self):
        rho = DensityMatrix(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))
        val, povm = accessible_info_lower(Ensemble(np.array([0.4, 0.6]), (rho, rho)))
        assert val == pytest.approx(0.0, abs=1e-15)
        assert povm.dim == 2

    @pytest.mark.parametrize(
        "ensemble, n",
        [
            # the optimum is n = (1, 0, -1)/sqrt(2) or its antipode, the same
            # measurement with its outcomes swapped
            (BB84, (1, 0, -1)),
            # |0> and |+i>: the optimum n = (0, 1, -1)/sqrt(2) has a zero x
            # component, which the search returns as noise of either sign
            (Ensemble(np.array([0.5, 0.5]), (KET0, KETPLUS_I)), (0, 1, -1)),
        ],
        ids=["bb84", "yz-plane"],
    )
    def test_outcome_order_does_not_depend_on_effort(self, ensemble, n):
        # the first component of the returned direction above the cutoff is
        # positive at every effort
        plus = (np.eye(2) + np.tensordot(np.array(n) / math.sqrt(2), PAULI, axes=1)) / 2
        for effort in (6, 12, 24, 48):
            _, povm = accessible_info_lower(ensemble, effort=effort)
            assert np.max(np.abs(povm.elements[0] - plus)) < 1e-8, effort
            assert np.max(np.abs(povm.elements[1] - (np.eye(2) - plus))) < 1e-8, effort

    def test_first_nonzero_bloch_component_is_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, povm = accessible_info_lower(random_ensemble(rng), effort=8)
            n = [np.trace(povm.elements[0] @ sigma).real for sigma in PAULI]
            assert next(x for x in n if abs(x) > 1e-6) > 0

    def test_rejects_non_qubit(self):
        qutrit = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        e = Ensemble(np.array([1.0]), (qutrit,))
        with pytest.raises(ValueError):
            accessible_info_lower(e)


class TestErasureBudget:
    def test_identity_q_shared_is_kt_chi(self):
        budget = erasure_budget(BB84, 2.0)
        assert budget.q_shared == pytest.approx(2.0 * holevo_chi(BB84), abs=1e-12)
        assert budget.q_shared == pytest.approx(budget.q_amy - budget.q_martin, abs=1e-15)

    def test_pure_states_cost_sender_nothing(self):
        budget = erasure_budget(BB84, 1.0)
        assert budget.q_martin == 0.0
        assert budget.q_amy > 0.0

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            erasure_budget(BB84, 0.0)
