"""Grouping strategies, grouped norm, cost models, and the shot simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge.grouping import (
    COMMUTATION_KINDS,
    GroupingResult,
    allocate_shots,
    covariance_zero_check,
    measurement_cost,
    shot_error_prediction,
    shot_simulator,
    sorted_insertion,
)
from pauliforge.dense import hamiltonian_expectation, haar_state
from pauliforge.hamiltonian import Hamiltonian, l2_norm, pauli_norm
from pauliforge.paulis import PauliString, commutes, qubit_wise_commutes

from oracles import random_hamiltonian, sorted_insertion_reference

GOLDEN_2Q = {"XI": 3.0, "YY": -1.0, "ZZ": 2.0}
PREDICATES = {"general": commutes, "qubit_wise": qubit_wise_commutes}


@st.composite
def pauli_sums(draw):
    """A sum on 1-32 qubits whose |coefficients| often tie.

    Strings either act on a few qubits shared by the whole sum, so that
    many pairs are compatible, or on any of the n qubits.
    """
    n = draw(st.one_of(st.integers(1, 32), st.just(32)))
    full = (1 << n) - 1
    window = 0
    for q in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        window |= 1 << q
    masks = st.one_of(st.integers(0, full).map(lambda m: m & window), st.integers(0, full))
    size = draw(st.integers(1, min(40, 4**n)))
    strings = draw(st.lists(st.tuples(masks, masks), min_size=size, max_size=size, unique=True))
    magnitudes = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 4.0))
    values = draw(st.lists(st.builds(lambda m, sign: sign * m, magnitudes,
                                     st.sampled_from([1.0, -1.0])),
                           min_size=len(strings), max_size=len(strings)))
    return Hamiltonian(n, {PauliString(n, x, z): v for (x, z), v in zip(strings, values)})


class TestSortedInsertion:
    def test_golden_example(self):
        g = sorted_insertion(Hamiltonian(2, GOLDEN_2Q))
        assert g.collection_count == 2
        first = [(c, p.label) for c, p in g.collections[0].members]
        second = [(c, p.label) for c, p in g.collections[1].members]
        assert first == [(3.0, "XI")]
        assert second == [(2.0, "ZZ"), (-1.0, "YY")]
        assert np.isclose(g.grouped_norm, 3.0 + np.sqrt(5.0), atol=1e-12)

    def test_single_term(self):
        g = sorted_insertion(Hamiltonian(1, {"Z": -0.7}))
        assert g.collection_count == 1
        assert np.isclose(g.grouped_norm, 0.7, atol=1e-15)

    def test_all_diagonal_single_collection(self):
        rng = np.random.default_rng(1)
        terms = {}
        for i in range(6):
            z = int(rng.integers(1, 16))
            terms[PauliString(4, 0, z)] = float(rng.uniform(0.5, 2.0))
        h = Hamiltonian(4, terms)
        # exhaustive oracle: every pair of Z-strings commutes
        strings = list(terms)
        assert all(commutes(a, b) for a in strings for b in strings)
        g = sorted_insertion(h)
        assert g.collection_count == 1
        assert np.isclose(g.grouped_norm, l2_norm(h), atol=1e-12)

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        h = random_hamiltonian(3, 15, rng)
        for commutation in ("general", "qubit_wise"):
            g = sorted_insertion(h, commutation)
            seen = {}
            for col in g.collections:
                for c, p in col.members:
                    assert p not in seen
                    seen[p] = c
            assert seen == h.terms

    def test_members_mutually_compatible(self):
        rng = np.random.default_rng(3)
        h = random_hamiltonian(3, 20, rng)
        for commutation, check in (("general", commutes), ("qubit_wise", qubit_wise_commutes)):
            g = sorted_insertion(h, commutation)
            for col in g.collections:
                strings = [p for _, p in col.members]
                assert all(check(a, b) for a in strings for b in strings)

    def test_qwc_collections_are_gc_valid(self):
        rng = np.random.default_rng(4)
        h = random_hamiltonian(3, 20, rng)
        g = sorted_insertion(h, "qubit_wise")
        for col in g.collections:
            strings = [p for _, p in col.members]
            assert all(commutes(a, b) for a in strings for b in strings)

    def test_deterministic_tie_break(self):
        h = Hamiltonian(2, {"XI": 1.0, "IX": 1.0, "ZZ": 1.0})
        g1 = sorted_insertion(h)
        g2 = sorted_insertion(h)
        assert [(tuple(col.members)) for col in g1.collections] == [
            (tuple(col.members)) for col in g2.collections
        ]
        # ties sort by label: IX before XI
        assert g1.collections[0].members[0][1].label == "IX"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sorted_insertion(Hamiltonian(1, {}))

    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(), commutation=st.sampled_from(COMMUTATION_KINDS))
    def test_matches_reference_and_members_pairwise_compatible(self, h, commutation):
        g = sorted_insertion(h, commutation)
        assert g == sorted_insertion_reference(h, commutation)
        compatible = PREDICATES[commutation]
        for col in g.collections:
            strings = [p for _, p in col.members]
            assert all(compatible(a, b) for a in strings for b in strings)


class TestGroupedNorm:
    def test_golden_value(self):
        g = sorted_insertion(Hamiltonian(2, GOLDEN_2Q))
        assert np.isclose(g.grouped_norm, 5.2360679, atol=1e-6)

    def test_degenerate_grouping_equals_pauli_norm(self):
        rng = np.random.default_rng(5)
        h = random_hamiltonian(2, 8, rng)
        from pauliforge.grouping import Collection

        cols = tuple(
            Collection(index=i, members=((c, p),))
            for i, (p, c) in enumerate(h.terms_by_index())
        )
        g = GroupingResult("singletons", cols)
        assert np.isclose(g.grouped_norm, pauli_norm(h), atol=1e-12)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h = random_hamiltonian(3, 12, rng)
            for commutation in ("general", "qubit_wise"):
                g = sorted_insertion(h, commutation)
                gp = g.grouped_norm
                assert l2_norm(h) - 1e-12 <= gp <= pauli_norm(h) + 1e-12


class TestMeasurementCost:
    def test_weighted_from_norm(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        assert np.isclose(measurement_cost(h, 0.1, "weighted_shots"), 3600.0, atol=1e-9)

    def test_grouped_golden(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        expected = ((3 + np.sqrt(5)) / 0.1) ** 2
        assert np.isclose(measurement_cost(h, 0.1, "grouped"), expected, atol=1e-6)
        assert np.isclose(expected, 2741.6, atol=0.1)

    def test_single_term_all_modes(self):
        h = Hamiltonian(1, {"X": 1.5})
        for mode in ("uniform_shots", "weighted_shots", "grouped"):
            assert np.isclose(measurement_cost(h, 0.3, mode), (1.5 / 0.3) ** 2, atol=1e-12)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            measurement_cost(Hamiltonian(1, {"X": 1.0}), 0.0)

    @pytest.mark.parametrize("mode", ["uniform_shots", "weighted_shots", "grouped"])
    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon, mode):
        with pytest.raises(ValueError, match="finite"):
            measurement_cost(Hamiltonian(2, GOLDEN_2Q), epsilon, mode)


class TestAllocateShots:
    def test_total_and_minimum(self):
        counts = allocate_shots([3.0, 1.0, 2.0], 100)
        assert counts.sum() == 100
        assert np.all(counts >= 1)

    def test_proportionality(self):
        counts = allocate_shots([3.0, 1.0], 4000)
        assert abs(counts[0] - 3000) <= 2

    def test_too_few_shots(self):
        with pytest.raises(ValueError):
            allocate_shots([1.0, 1.0, 1.0], 2)


class TestShotSimulator:
    def test_z_on_zero_state_deterministic(self):
        h = Hamiltonian(1, {"Z": 1.0})
        psi = np.array([1.0, 0.0], dtype=complex)
        est, err = shot_simulator(h, psi, "uniform", shots=100, seed=1)
        assert est == 1.0 and err == 0.0

    def test_eigenstate_estimate(self):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(2, 6, rng)
        from oracles import dense_hamiltonian

        evals, evecs = np.linalg.eigh(dense_hamiltonian(h))
        psi = evecs[:, 0]
        shots = 100_000
        est, _ = shot_simulator(h, psi, "weighted", shots=shots, seed=2)
        counts = allocate_shots(np.abs(h.coeffs), shots)
        predicted = shot_error_prediction(h, psi, _counts_in_index_order(h, counts))
        assert abs(est - evals[0]) <= max(5 * predicted, 1e-9)

    def test_unbiased_and_scaling(self):
        rng = np.random.default_rng(8)
        h = random_hamiltonian(3, 8, rng)
        psi = haar_state(8, rng)
        exact = hamiltonian_expectation(h, psi)
        reps = 60
        errors = []
        for k in range(reps):
            est, err = shot_simulator(h, psi, "weighted", shots=4000, seed=100 + k)
            errors.append(est - exact)
        errors = np.asarray(errors)
        # unbiased within 5 standard errors of the repetition mean
        assert abs(errors.mean()) <= 5 * errors.std(ddof=1) / np.sqrt(reps)

    def test_grouped_mode_matches_exact_in_limit(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        rng = np.random.default_rng(9)
        psi = haar_state(4, rng)
        g = sorted_insertion(h)
        est, err = shot_simulator(h, psi, g, shots=200_000, seed=3)
        assert err <= 0.05

    def test_dimension_mismatch(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        with pytest.raises(ValueError):
            shot_simulator(h, np.zeros(2), "uniform", shots=10, seed=0)


def _counts_in_index_order(h, counts):
    # allocate_shots is fed |coeffs| in key order inside shot_simulator for
    # "weighted"; tests that need predictions must use the index ordering
    # that shot_simulator actually uses.
    terms = h.terms_by_index()
    weights = np.array([abs(c) for _, c in terms])
    return allocate_shots(weights, int(np.sum(counts)))


class TestEqC2Prediction:
    def test_empirical_matches_prediction(self):
        rng = np.random.default_rng(10)
        h = random_hamiltonian(3, 8, rng, allow_identity=False)
        psi = haar_state(8, rng)
        shots = 2000
        terms = h.terms_by_index()
        counts = allocate_shots(np.array([abs(c) for _, c in terms]), shots)
        predicted = shot_error_prediction(h, psi, counts)
        reps = 100
        sq = []
        for k in range(reps):
            est, err = shot_simulator(h, psi, counts, shots=shots, seed=500 + k)
            sq.append(err**2)
        empirical = np.sqrt(np.mean(sq))
        assert empirical <= 1.5 * predicted
        assert empirical >= predicted / 1.5


class TestCovarianceZero:
    def test_commuting_pairs_have_zero_mean_covariance(self):
        pairs = [("ZI", "IZ"), ("XX", "YY")]
        for a, b in pairs:
            mean, stderr = covariance_zero_check(
                PauliString.from_label(a), PauliString.from_label(b),
                samples=4000, seed=11,
            )
            assert abs(mean) <= 3 * stderr

    def test_identical_rejected(self):
        p = PauliString.from_label("XX")
        with pytest.raises(ValueError):
            covariance_zero_check(p, p, samples=10, seed=0)

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError):
            covariance_zero_check(
                PauliString.from_label("XI"), PauliString.from_label("ZZ"),
                samples=10, seed=0,
            )
