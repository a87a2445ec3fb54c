"""Hamiltonian container, vectorization, and norms."""

import numpy as np
import pytest
from hypothesis import given, settings

from pauliforge.hamiltonian import (
    CoefficientVector,
    Hamiltonian,
    _terms_by_magnitude,
    devectorize,
    embed,
    pauli_norm,
    state_l1_norm,
    tensor,
    vectorize,
)
from pauliforge.paulis import PauliString, digits_from_keys, indices_from_digits

from oracles import dense_hamiltonian, pauli_sums, random_hamiltonian


class TestContainer:
    def test_merge_and_drop_zero(self):
        h = Hamiltonian(1, {"X": 1.0})
        h2 = Hamiltonian(1, {"X": -1.0})
        assert len(h + h2) == 0

    def test_duplicate_labels_merge(self):
        h = Hamiltonian(2, {PauliString.from_label("XI"): 1.5}) + Hamiltonian(
            2, {PauliString.from_label("XI"): 0.5}
        )
        assert h.coefficient("XI") == 2.0
        assert len(h) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, {"X": 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian(1, {"X": float("nan")})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_from_arrays_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite coefficient for 'ZI'"):
            Hamiltonian.from_arrays(2, [1], [bad])
        with pytest.raises(ValueError, match="non-finite"):
            bad * Hamiltonian(2, {"XI": 1.0})

    @pytest.mark.parametrize("n", [0, 33, True, 2.0, 2.5, "3"], ids=repr)
    def test_from_arrays_rejects_qubit_count(self, n):
        with pytest.raises(ValueError, match="qubit count"):
            Hamiltonian.from_arrays(n, [], [])

    def test_from_arrays_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Hamiltonian.from_arrays(2, [1, 2], [1.0])

    @pytest.mark.parametrize("n, key", [(2, 16), (2, 100), (1, 4), (31, 1 << 62),
                                        (16, 1 << 40)])
    def test_from_arrays_rejects_key_past_4_to_the_n(self, n, key):
        with pytest.raises(ValueError, match=f"key {key} out of range for {n} qubits"):
            Hamiltonian.from_arrays(n, [0, key], [1.0, 2.0])

    @pytest.mark.parametrize("keys", [[1.7, 2.2], np.array([1.0, 2.0]), [1, 2.0],
                                      np.array([True, False]), [True], ["1"]],
                             ids=["float_list", "float_array", "mixed_list", "bool_array",
                                  "bool_list", "str_list"])
    def test_from_arrays_rejects_keys_that_are_not_ints(self, keys):
        with pytest.raises(ValueError, match="key must be an integer"):
            Hamiltonian.from_arrays(3, keys, [1.0] * len(keys))

    @pytest.mark.parametrize("n", [3, 32])
    @pytest.mark.parametrize("keys", [np.array([-1], dtype=np.int64), np.array([2, -5]),
                                      [-1], [3, -(1 << 70)]],
                             ids=["int64", "int_array", "list", "huge_list"])
    def test_from_arrays_rejects_negative_keys(self, n, keys):
        low = min(int(k) for k in keys)
        with pytest.raises(ValueError, match=f"key {low} out of range for {n} qubits"):
            Hamiltonian.from_arrays(n, keys, [1.0] * len(keys))

    def test_from_arrays_rejects_list_key_past_64_bits(self):
        with pytest.raises(ValueError, match=f"key {1 << 64} out of range for 32 qubits"):
            Hamiltonian.from_arrays(32, [1, 1 << 64], [1.0, 1.0])

    @pytest.mark.parametrize("keys", [[], np.array([], dtype=np.float64), ()])
    def test_from_arrays_accepts_no_keys(self, keys):
        assert len(Hamiltonian.from_arrays(3, keys, [])) == 0

    def test_from_arrays_takes_mixed_int_kinds_at_32_qubits(self):
        # NumPy alone reads [1, 2**64 - 1] as float64, which would round the key
        keys = [1, (1 << 64) - 1, np.uint64(5), np.int8(2)]
        h = Hamiltonian.from_arrays(32, keys, [1.0, 2.0, 3.0, 4.0])
        assert sorted(h.keys.tolist()) == [1, 2, 5, (1 << 64) - 1]

    def test_from_arrays_takes_every_key_at_32_qubits(self):
        h = Hamiltonian.from_arrays(32, [(1 << 64) - 1], [1.0])
        assert [p.label for p in h.terms] == ["Y" * 32]

    def test_scalar_multiply_and_add(self):
        h = Hamiltonian(2, {"XI": 3.0, "ZZ": 2.0})
        g = 2.0 * h + Hamiltonian(2, {"XI": -6.0})
        assert g.coefficient("XI") == 0.0
        assert g.coefficient("ZZ") == 4.0

    def test_terms_by_index_sorted(self):
        h = Hamiltonian(2, {"ZZ": 1.0, "IX": 2.0, "XI": 3.0})
        labels = [p.label for p, _ in h.terms_by_index()]
        assert labels == ["IX", "XI", "ZZ"]

    def test_indices_at_32_qubits(self):
        # The top base-4 digit reaches past int64 at n = 32.
        labels = ["I" * 31 + "X", "Z" + "I" * 31, "Y" * 32]
        h = Hamiltonian(32, {label: 1.0 for label in labels})
        by_key = [PauliString.from_key(int(k), 32).index for k in h.keys]
        assert [int(i) for i in h.indices()] == by_key
        assert [p.label for p, _ in h.terms_by_index()] == [labels[0], labels[2], labels[1]]

    @settings(max_examples=200, deadline=None)
    @given(pauli_sums())
    def test_indices_match_the_digit_route(self, h):
        """The shift-and-OR indices equal those built from per-qubit digits."""
        expected = indices_from_digits(digits_from_keys(h.keys, h.n))
        assert h.indices().dtype == np.uint64
        assert np.array_equal(h.indices(), expected)

    def test_equality(self):
        a = Hamiltonian(2, {"XI": 1.0, "ZZ": -2.0})
        b = Hamiltonian(2, {"ZZ": -2.0, "XI": 1.0})
        assert a == b


@settings(max_examples=100, deadline=None)
@given(pauli_sums())
def test_magnitude_order_is_label_order_on_ties(h):
    # pauli_sums ties |coefficients| in most draws and reaches n = 32,
    # where the base-4 index fills all 64 bits
    assert _terms_by_magnitude(h) == sorted(h, key=lambda pc: (-abs(pc[1]), pc[0].label))


class TestNorms:
    def test_mixed_example_norm(self):
        h = Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0})
        assert pauli_norm(h) == 6.0

    def test_empty_norm(self):
        assert pauli_norm(Hamiltonian(1, {})) == 0.0

    def test_single_qubit_example(self):
        h = Hamiltonian(1, {"I": 1.0, "X": 2.0, "Y": 3.0, "Z": -4.0})
        assert pauli_norm(h) == 10.0
        v = vectorize(h)
        assert np.isclose(state_l1_norm(v), 10.0 / np.sqrt(30.0), atol=1e-14)


class TestVectorization:
    def test_section2_example(self):
        h = Hamiltonian(1, {"I": 1.0, "X": 2.0, "Y": 3.0, "Z": -4.0})
        v = vectorize(h)
        assert np.isclose(v.lam, np.sqrt(30.0), atol=1e-14)
        expected = np.array([1.0, 2.0, 3.0, -4.0]) / np.sqrt(30.0)
        assert np.allclose(v.to_dense(), expected, atol=1e-14)

    def test_single_term(self):
        h = Hamiltonian(2, {"ZZ": 5.0})
        v = vectorize(h)
        assert v.lam == 5.0
        assert v.indices.tolist() == [PauliString.from_label("ZZ").index]
        assert v.entries.tolist() == [1.0]

    def test_zero_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            vectorize(Hamiltonian(2, {}))

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            h = random_hamiltonian(3, 12, rng)
            v = vectorize(h)
            assert abs(sum(e * e for e in v.entries) - 1.0) <= 1e-12
            back = devectorize(v)
            assert back.n == h.n and len(back) == len(h)
            for p, c in h:
                assert abs(back.coefficient(p) - c) < 1e-14

    def test_devectorize_basis_vector(self):
        v = CoefficientVector(n=1, lam=1.0, indices=[0], entries=[1.0])
        h = devectorize(v)
        assert h.terms == {PauliString.from_label("I"): 1.0}

    def test_devectorize_prunes(self):
        amp = 1e-13
        big = np.sqrt(1 - amp**2)
        v = CoefficientVector(n=1, lam=1.0, indices=[0, 1], entries=[big, amp])
        assert len(devectorize(v)) == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            CoefficientVector(n=1, lam=1.0, indices=[0, 1], entries=[0.5, 0.5])


class TestCoefficientVectorChecks:
    @pytest.mark.parametrize("indices, entries", [
        ([1, 1], [0.6, 0.8]),  # duplicate
        ([2, 1], [0.6, 0.8]),  # unsorted
        ([0, 4], [0.6, 0.8]),  # 4**n is out of range at n = 1
        ([0, 1, 2], [0.6, 0.8]),  # unequal lengths
        ([[0, 1]], [[0.6, 0.8]]),  # not 1-D
        ([], []),  # empty: norm 0, not 1
    ])
    def test_rejected(self, indices, entries):
        with pytest.raises(ValueError):
            CoefficientVector(n=1, lam=1.0, indices=indices, entries=entries)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError):
            CoefficientVector(n=1, lam=lam, indices=[0], entries=[1.0])

    def test_arrays_are_read_only_copies(self):
        indices, entries = np.array([0, 3]), np.array([0.6, 0.8])
        v = CoefficientVector(n=1, lam=2.0, indices=indices, entries=entries)
        indices[0], entries[0] = 1, -0.6
        assert v.indices.tolist() == [0, 3] and v.entries.tolist() == [0.6, 0.8]
        assert v.indices.dtype == np.uint64 and v.entries.dtype == np.float64
        with pytest.raises(ValueError):
            v.entries[0] = 1.0

    def test_top_index_at_32_qubits(self):
        h = Hamiltonian(32, {"Z" * 32: 2.0, "I" * 32: -2.0})
        v = vectorize(h)
        assert [int(i) for i in v.indices] == [0, 4**32 - 1]
        assert devectorize(v) == h


class TestStateL1Norm:
    def test_basis_vector_minimal(self):
        v = CoefficientVector(n=1, lam=1.0, indices=[2], entries=[1.0])
        assert state_l1_norm(v) == 1.0

    def test_uniform_maximal(self):
        d = 16
        v = CoefficientVector(n=2, lam=1.0, indices=np.arange(d),
                              entries=np.full(d, 1 / np.sqrt(d)))
        assert np.isclose(state_l1_norm(v), np.sqrt(d), atol=1e-12)

    def test_norm_identity_and_bounds_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_hamiltonian(2, int(rng.integers(1, 12)), rng)
            v = vectorize(h)
            assert np.isclose(pauli_norm(h), v.lam * state_l1_norm(v), atol=1e-12)
            assert 1.0 - 1e-12 <= state_l1_norm(v) <= np.sqrt(4**h.n) + 1e-12


class TestTensorAndEmbed:
    def test_tensor_against_dense(self):
        rng = np.random.default_rng(8)
        a = random_hamiltonian(1, 3, rng)
        b = random_hamiltonian(1, 2, rng)
        t = tensor(a, b)
        assert np.allclose(
            dense_hamiltonian(t),
            np.kron(dense_hamiltonian(a), dense_hamiltonian(b)),
            atol=1e-12,
        )

    def test_embed_identity_elsewhere(self):
        h = Hamiltonian(1, {"Y": 2.0})
        e = embed(h, (1,), 3)
        assert e.terms == {PauliString.from_label("IYI"): 2.0}

    def test_embed_permutes(self):
        h = Hamiltonian(2, {"XZ": 1.0})
        e = embed(h, (2, 0), 3)
        assert e.terms == {PauliString.from_label("ZIX"): 1.0}


@settings(max_examples=100, deadline=None)
@given(pauli_sums())
def test_terms_are_the_strings_from_key_builds(h):
    # _terms skips from_key's checks for keys the container validated
    expected = [(PauliString.from_key(int(k), h.n), float(c)) for k, c in zip(h.keys, h.coeffs)]
    got = list(h)
    assert got == expected
    for (p, _), (q, _) in zip(got, expected):
        assert type(p) is PauliString and (p.n, p.x, p.z) == (q.n, q.x, q.z)
