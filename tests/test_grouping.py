"""Grouping strategies, grouped norm, cost models, and the shot simulator."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauliforge.grouping as grouping_module
import pauliforge.verification as verification_module
from pauliforge.grouping import (
    COMMUTATION_KINDS,
    Collection,
    GroupingResult,
    allocate_shots,
    measurement_cost,
    sorted_insertion,
)
from pauliforge.dense import hamiltonian_expectation, haar_state
from pauliforge.hamiltonian import Hamiltonian, l2_norm, pauli_norm
from pauliforge.paulis import PauliString, commutes, qubit_wise_commutes
from pauliforge.verification import covariance_zero_check, shot_error_prediction, shot_simulator

from oracles import (
    grouped_norm_reference,
    pauli_sums,
    random_hamiltonian,
    sorted_insertion_reference,
)

GOLDEN_2Q = {"XI": 3.0, "YY": -1.0, "ZZ": 2.0}
PREDICATES = {"general": commutes, "qubit_wise": qubit_wise_commutes}


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

    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(), commutation=st.sampled_from(COMMUTATION_KINDS),
           rows=st.integers(1, 7), width=st.integers(1, 7))
    def test_matches_reference_across_block_boundaries(self, h, commutation, rows, width):
        """With the parity block cut to ``rows`` candidates and the conflict
        table to windows of at most ``width``, a sum spans several blocks
        and windows, the last ones often partial, every window after the
        first rebuilt from the placed terms, and still groups as the
        one-pair-at-a-time reference does."""
        with mock.patch.object(grouping_module, "_BLOCK_ENTRIES", rows * len(h)), \
                mock.patch.object(grouping_module, "_TABLE_ENTRIES", (1 + width) * width):
            assert sorted_insertion(h, commutation) == sorted_insertion_reference(h, commutation)

    @pytest.mark.parametrize("commutation", COMMUTATION_KINDS)
    def test_one_row_blocks_match_reference(self, commutation):
        """One-row parity blocks, with the default table and with windows
        of 1-7 candidates that narrow as collections open, down to one
        candidate once the open rows alone fill the table."""
        h = random_hamiltonian(5, 300, np.random.default_rng(8))
        expected = sorted_insertion_reference(h, commutation)
        with mock.patch.object(grouping_module, "_BLOCK_ENTRIES", 1):
            assert sorted_insertion(h, commutation) == expected
            for width in range(1, 8):
                with mock.patch.object(grouping_module, "_TABLE_ENTRIES", (1 + width) * width):
                    assert sorted_insertion(h, commutation) == expected

    def test_conflict_table_memory_is_bounded(self):
        """General grouping of 6000 terms peaks far below the m**2 bytes
        (36 MB) of a full candidate-by-candidate table: its conflict table
        holds at most _TABLE_ENTRIES (4 Mi) bools."""
        h = random_hamiltonian(10, 6000, np.random.default_rng(9), allow_identity=False)
        assert len(h) == 6000
        tracemalloc.start()
        try:
            g = sorted_insertion(h, "general")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.collection_count > 1
        assert peak < len(h) ** 2 // 4

    def test_qubit_wise_block_memory_is_bounded(self):
        """Qubit-wise grouping of 6000 terms (about 2600 collections) peaks
        below the 64 * m uint64 entries (3 MB) of one 64-candidate test
        over every slot: each block's test holds at most _BLOCK_ENTRIES."""
        h = random_hamiltonian(10, 6000, np.random.default_rng(9), allow_identity=False)
        tracemalloc.start()
        try:
            g = sorted_insertion(h, "qubit_wise")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.collection_count > 2000
        assert peak < 64 * len(h) * 8

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.one_of(st.integers(1, 32), st.just(32)),
           commutation=st.sampled_from(COMMUTATION_KINDS))
    def test_packed_pair_test_matches_scalar_predicate(self, data, n, commutation):
        """A two-term sum groups into one collection iff the pair is
        compatible: the packed-key tests agree with the scalar algebra
        at every width up to 32 qubits."""
        masks = st.integers(0, (1 << n) - 1)
        (ax, az), (bx, bz) = data.draw(st.lists(st.tuples(masks, masks), min_size=2,
                                                max_size=2, unique=True))
        a, b = PauliString(n, ax, az), PauliString(n, bx, bz)
        g = sorted_insertion(Hamiltonian(n, {a: 2.0, b: -1.0}), commutation)
        assert (g.collection_count == 1) == PREDICATES[commutation](a, b)


class TestQubitWiseBlocks:
    """Qubit-wise first fit places up to 64 candidates a block: each is
    tested against the collections open at the block's start, and its
    clashes within the block are resolved on bit masks."""

    @staticmethod
    def _grouped(h):
        g = sorted_insertion(h, "qubit_wise")
        assert g == sorted_insertion_reference(h, "qubit_wise")
        return [[p for _, p in col.members] for col in g.collections]

    def test_pairwise_incompatible_terms_each_open_a_collection(self):
        """All 128 X/Z strings on 7 qubits clash pairwise, so every
        collection opens inside a block, two blocks of 64."""
        h = Hamiltonian(7, {PauliString(7, x, x ^ 127): 1.0 + x / 128 for x in range(128)})
        assert len(self._grouped(h)) == 128

    def test_all_diagonal_terms_share_one_collection(self):
        """200 Z strings: every block after the first joins the collection
        the first one opened, and the first block's later members join it
        on their masks."""
        rng = np.random.default_rng(12)
        zs = rng.choice(np.arange(1, 1 << 10), size=200, replace=False)
        h = Hamiltonian(10, {PauliString(10, 0, int(z)): float(rng.uniform(0.5, 2.0))
                             for z in zs})
        assert len(self._grouped(h)) == 1

    def test_member_joined_in_the_block_sends_a_clash_to_the_next_fit(self):
        """The first block (64 candidates) opens collection 0 of Z strings
        on qubits 0-6 and collection 1 of X on qubit 0.  In the second, X
        on qubit 7 joins collection 0 first; Y on qubit 7 fitted it as the
        block started, but clashes with that member and takes collection 1."""
        n = 8
        def on(qubit, letter):
            label = ["I"] * n
            label[qubit] = letter
            return PauliString.from_label("".join(label))
        z0 = on(0, "Z")
        terms = {}
        for pattern in range(63):
            z = z0.z
            for q in range(6):
                if pattern >> q & 1:
                    z |= on(q + 1, "Z").z
            terms[PauliString(n, 0, z)] = 10.0 - pattern / 64
        terms[on(0, "X")] = 5.0
        terms[on(7, "X")] = 2.0
        terms[on(7, "Y")] = 1.0
        groups = self._grouped(Hamiltonian(n, terms))
        assert len(groups) == 2
        assert groups[0][-1] == on(7, "X")
        assert groups[1] == [on(0, "X"), on(7, "Y")]

    def test_keys_with_bit_63_across_blocks(self):
        """A 32-qubit sum whose packed keys x << 32 | z often set bit 63,
        grouped over several blocks."""
        rng = np.random.default_rng(13)
        terms = {}
        while len(terms) < 400:
            window = 1 << 31  # x bit 31 is key bit 63; about four more qubits
            window |= int(rng.integers(0, 1 << 32)) & int(rng.integers(0, 1 << 32)) \
                & int(rng.integers(0, 1 << 32))
            x = int(rng.integers(0, 1 << 32)) & window
            z = int(rng.integers(0, 1 << 32)) & window
            if x | z:
                terms[PauliString(32, x, z)] = float(rng.uniform(-2.0, 2.0))
        assert sum(p.x >> 31 for p in terms) > 100
        groups = self._grouped(Hamiltonian(32, terms))
        assert 1 < len(groups) < len(terms)


class TestGroupedNorm:
    def test_golden_value(self):
        g = sorted_insertion(Hamiltonian(2, GOLDEN_2Q))
        assert np.isclose(g.grouped_norm, 5.2360679, atol=1e-6)

    def test_degenerate_grouping_equals_pauli_norm(self):
        rng = np.random.default_rng(5)
        h = random_hamiltonian(2, 8, rng)
        cols = tuple(Collection(members=((c, p),)) for p, c in h.terms_by_index())
        g = GroupingResult.from_collections("singletons", cols)
        assert np.isclose(g.grouped_norm, pauli_norm(h), atol=1e-12)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h = random_hamiltonian(3, 12, rng)
            for commutation in ("general", "qubit_wise"):
                g = sorted_insertion(h, commutation)
                gp = g.grouped_norm
                assert l2_norm(h) - 1e-12 <= gp <= pauli_norm(h) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(), commutation=st.sampled_from(COMMUTATION_KINDS))
    def test_bit_equal_to_the_sum_over_collection_objects(self, h, commutation):
        g = sorted_insertion(h, commutation)
        assert g.grouped_norm == grouped_norm_reference(g)

    def test_forty_members_summed_in_order(self):
        """One collection of 40 Z strings: its squares are added one member
        at a time, where NumPy's pairwise sum of the same squares gives
        other bits."""
        rng = np.random.default_rng(15)
        zs = rng.choice(np.arange(1, 1 << 6), size=40, replace=False)
        h = Hamiltonian(6, {PauliString(6, 0, int(z)): float(rng.uniform(-2.0, 2.0))
                            for z in zs})
        g = sorted_insertion(h)
        assert g.collection_count == 1 and g.starts.tolist() == [0, 40]
        assert g.grouped_norm == grouped_norm_reference(g)
        assert g.grouped_norm != math.sqrt(float(np.add.reduceat(g.coeffs**2, [0])[0]))


class TestGroupingResult:
    """A grouping is held as packed keys, coefficients and CSR offsets;
    ``collections`` is a view of them as objects."""

    def test_collections_view_round_trips(self):
        h = random_hamiltonian(4, 30, np.random.default_rng(15))
        for commutation in COMMUTATION_KINDS:
            g = sorted_insertion(h, commutation)
            again = GroupingResult.from_collections(g.strategy, g.collections)
            assert again == g and hash(again) == hash(g)
            assert again != GroupingResult.from_collections("other", g.collections)

    def test_arrays_are_read_only_copies(self):
        keys = np.array([1, 2], dtype=np.uint64)
        g = GroupingResult("s", 1, keys, [1.0, 2.0], [0, 2])
        keys[0] = 3
        assert g.keys.tolist() == [1, 2]
        with pytest.raises(ValueError):
            g.coeffs[0] = 5.0

    def test_empty_collection_refused_with_its_index(self):
        g = sorted_insertion(Hamiltonian(2, GOLDEN_2Q))
        with pytest.raises(ValueError, match="collection 2 is empty"):
            GroupingResult.from_collections(g.strategy, (*g.collections, Collection(())))
        with pytest.raises(ValueError, match="collection 0 is empty"):
            GroupingResult.from_collections(g.strategy, (Collection(()), *g.collections))
        with pytest.raises(ValueError, match="collection 1 is empty"):
            GroupingResult("s", 2, g.keys, g.coeffs, [0, 1, 1, 3])
        with pytest.raises(ValueError, match="at least one collection"):
            GroupingResult.from_collections("s", ())

    def test_other_qubit_count_refused_with_its_index(self):
        two = Collection(((1.0, PauliString.from_label("XI")),))
        one = Collection(((2.0, PauliString.from_label("Z")),))
        with pytest.raises(ValueError, match="collection 1 holds a string not on 2 qubits"):
            GroupingResult.from_collections("s", (two, one))


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

    @pytest.mark.parametrize("mode", ["uniform_shots", "weighted_shots", "grouped"])
    @pytest.mark.parametrize("epsilon", [1e-200, 1e-320, np.float64(1e-200)],
                             ids=["1e-200", "1e-320", "float64-1e-200"])
    def test_count_that_is_not_finite_refused(self, epsilon, mode):
        # eps**2 underflows to 0 and (norm/eps)**2 overflows at 1e-200;
        # norm/eps is already inf at 1e-320
        message = f"epsilon {float(epsilon)} gives a shot count that is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            allocate_shots([1.0, bad], 10)

    @pytest.mark.parametrize("shots", [10.5, 10.0, True, "10", None], ids=repr)
    def test_non_int_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots must be an int"):
            allocate_shots([1.0, 1.0], shots)

    def test_numpy_int_shots_accepted(self):
        assert allocate_shots([3.0, 1.0], np.int64(4000)).tolist() == allocate_shots(
            [3.0, 1.0], 4000).tolist()


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
        predicted = shot_error_prediction(h, psi, _counts_in_index_order(h, shots))
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

    @pytest.mark.parametrize("other", [
        {"ZI": 5.0},
        {**GOLDEN_2Q, "ZI": 5.0},
        {"XI": 3.0, "YY": -1.0},
        {**GOLDEN_2Q, "ZZ": 2.5},
    ], ids=["disjoint", "extra_term", "missing_term", "other_coefficient"])
    def test_grouping_of_another_hamiltonian_rejected(self, other):
        h = Hamiltonian(2, GOLDEN_2Q)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="grouping must hold"):
            shot_simulator(h, psi, sorted_insertion(Hamiltonian(2, other)), shots=100)

    def test_anticommuting_members_rejected_before_dense_work(self):
        """XI and ZI anticommute, so collection 1 has no shared eigenbasis:
        the packed-key parity test refuses it before the exact value or
        any Pauli matrix is formed."""
        h = Hamiltonian(2, {"IZ": 2.0, "XI": 1.0, "ZI": 0.5})
        g = GroupingResult.from_collections("s", (
            Collection(((2.0, PauliString.from_label("IZ")),)),
            Collection(((1.0, PauliString.from_label("XI")),
                        (0.5, PauliString.from_label("ZI")))),
        ))
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        dense = AssertionError("dense work started")
        with mock.patch.object(verification_module, "hamiltonian_expectation", side_effect=dense), \
                mock.patch.object(verification_module, "pauli_matrix", side_effect=dense), \
                pytest.raises(ValueError, match="collection 1 holds anticommuting members"):
            shot_simulator(h, psi, g, shots=100)

    def test_grouping_repeating_a_term_rejected(self):
        """Every term once plus a second copy of one: the terms and their
        coefficients match h, but the copy would be measured twice."""
        h = Hamiltonian(2, GOLDEN_2Q)
        g = sorted_insertion(h)
        twice = GroupingResult.from_collections(g.strategy, (*g.collections, g.collections[0]))
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(ValueError, match="grouping must hold"):
            shot_simulator(h, psi, twice, shots=100)


class TestExplicitCounts:
    """Explicit per-term shot counts are refused, by one check with one
    message, unless they are one int >= 1 for each term."""

    BAD = [[0, 1], [-1, 1], [1.5, 1], [1.0, 1.0], [True, True], [True, 1], [1, True],
           [1], [1, 1, 1], [[1, 1]]]

    @staticmethod
    def _zero_state():
        psi = np.zeros(2, dtype=complex)
        psi[0] = 1.0
        return psi

    @pytest.mark.parametrize("counts", BAD, ids=str)
    def test_prediction_rejects(self, counts):
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        with pytest.raises(ValueError, match=r"need one int shot count >= 1 per term \(2 terms\)"):
            shot_error_prediction(h, self._zero_state(), counts)

    @pytest.mark.parametrize("counts", BAD, ids=str)
    def test_simulator_rejects(self, counts):
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        with pytest.raises(ValueError, match=r"need one int shot count >= 1 per term \(2 terms\)"):
            shot_simulator(h, self._zero_state(), counts)

    @pytest.mark.parametrize("counts", [[1, 1], np.array([4, 1], dtype=np.uint8), (2, 3),
                                        (np.int64(2), 3)])
    def test_int_counts_accepted(self, counts):
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        # Var[X] = 1 and Var[Z] = 0 at |0>
        assert shot_error_prediction(h, self._zero_state(), counts) == np.sqrt(1.0 / counts[0])


def _counts_in_index_order(h, shots):
    # shot_simulator's "weighted" allocation feeds allocate_shots |c| in
    # base-4 index order, through terms_by_index(); a prediction must
    # allocate the same total in the same order.
    weights = np.array([abs(c) for _, c in h.terms_by_index()])
    return allocate_shots(weights, shots)


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

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ValueError, match=f"need >= 2 samples, got {samples}"):
            covariance_zero_check(PauliString.from_label("ZI"), PauliString.from_label("IZ"),
                                  samples=samples, seed=0)

    @pytest.mark.parametrize("samples", [2.5, np.float64(4.0), "3", None, True], ids=repr)
    def test_samples_that_are_not_ints_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be an int"):
            covariance_zero_check(PauliString.from_label("ZI"), PauliString.from_label("IZ"),
                                  samples=samples, seed=0)

    def test_two_samples_accepted(self):
        mean, stderr = covariance_zero_check(PauliString.from_label("ZI"),
                                             PauliString.from_label("IZ"), samples=2, seed=0)
        assert np.isfinite(mean) and np.isfinite(stderr)

    def test_numpy_int_samples_accepted(self):
        assert covariance_zero_check(PauliString.from_label("ZI"), PauliString.from_label("IZ"),
                                     samples=np.int64(2), seed=0) == \
            covariance_zero_check(PauliString.from_label("ZI"), PauliString.from_label("IZ"),
                                  samples=2, seed=0)

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError):
            covariance_zero_check(
                PauliString.from_label("XI"), PauliString.from_label("ZZ"),
                samples=10, seed=0,
            )
