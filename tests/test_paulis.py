"""Pauli-string representation, products, and commutation."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge import dense
from pauliforge.dense import _pauli_rows, hamiltonian_matrix, pauli_matrix
from pauliforge.grouping import GroupingResult
from pauliforge.hamiltonian import CoefficientVector, Hamiltonian, embed
from pauliforge.model_io import ising_all_to_all, ising_neighbor
from pauliforge.paulis import (
    LabelError,
    PauliString,
    _checked_int,
    commutes,
    digits_from_indices,
    digits_from_keys,
    digits_from_labels,
    indices_from_digits,
    keys_from_digits,
    labels_from_digits,
    pauli_product,
    qubit_wise_commutes,
)
from pauliforge.verification import apply_pauli

from oracles import dense_hamiltonian, label_matrix


class TestRepresentation:
    def test_label_round_trip(self):
        for label in ["I", "X", "Y", "Z", "XIZY", "IIII", "ZZZZZ"]:
            p = PauliString.from_label(label)
            assert p.label == label
            assert PauliString.from_label(p.label) == p

    def test_index_round_trip_exhaustive(self):
        for n in (1, 2, 3):
            for i in range(4**n):
                p = PauliString.from_index(i, n)
                assert p.index == i
                assert PauliString.from_label(p.label).index == i

    def test_index_convention_qubit0_most_significant(self):
        # XZ: qubit 0 is X (digit 1), qubit 1 is Z (digit 3) -> 1*4 + 3
        assert PauliString.from_label("XZ").index == 7
        assert PauliString.from_label("IY").index == 2

    def test_bit_vectors(self):
        p = PauliString.from_label("XYZI")
        assert p.x_bits == (1, 1, 0, 0)
        assert p.z_bits == (0, 1, 1, 0)

    def test_invalid_label(self):
        for bad in ("XQ", "xI", "XΩ", "XI ", "I-"):
            with pytest.raises(ValueError, match="bad Pauli label"):
                PauliString.from_label(bad)
        with pytest.raises(ValueError):
            PauliString.from_label("")

    def test_key_round_trip(self):
        for n in (1, 3):
            for i in range(4**n):
                p = PauliString.from_index(i, n)
                assert PauliString.from_key(p.key(), n) == p

    @pytest.mark.parametrize("key, n", [(100, 2), (16, 2), (-1, 2), (-16, 2), (4, 1),
                                        (1 << 64, 32), (-(1 << 70), 3)])
    def test_from_key_rejects_key_outside_4_to_the_n(self, key, n):
        """A key below 0 or of 4**n and above is refused, not masked to
        its low 2n bits (100 at n = 2 once read as XI, -1 as YY)."""
        with pytest.raises(ValueError, match=f"key {key} out of range for {n} qubits"):
            PauliString.from_key(key, n)

    def test_from_key_takes_every_key_up_to_4_to_the_n(self):
        assert PauliString.from_key(15, 2).label == "YY"
        assert PauliString.from_key(0, 2).label == "II"
        assert PauliString.from_key((1 << 64) - 1, 32).label == "Y" * 32

    def test_from_key_checks_the_width_first(self):
        for n in (0, 33):
            with pytest.raises(ValueError, match="qubit count must be an integer in"):
                PauliString.from_key(0, n)

    def test_restrict(self):
        p = PauliString.from_label("XIZYIX")
        assert p.restrict((0, 1, 2)).label == "XIZ"
        assert p.restrict((3, 4, 5)).label == "YIX"
        assert p.restrict((5, 0)).label == "XX"


def _label_reference(key, n):
    """Label of a packed key, one qubit at a time from its x and z bits."""
    x, z = key >> n, key & ((1 << n) - 1)
    return "".join("IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(n))


def _index_reference(label):
    return sum("IXYZ".index(ch) * 4 ** (len(label) - 1 - q) for q, ch in enumerate(label))


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.one_of(st.integers(1, 32), st.just(32)))
    def test_round_trips_match_per_qubit_reference(self, data, n):
        keys = data.draw(st.lists(st.integers(0, 4**n - 1), max_size=20))
        digits = digits_from_keys(np.array(keys, dtype=np.uint64), n)
        assert digits.shape == (len(keys), n) and digits.dtype == np.uint8
        labels = labels_from_digits(digits)
        assert labels == [_label_reference(k, n) for k in keys]
        indices = indices_from_digits(digits)
        assert indices.dtype == np.uint64
        assert [int(i) for i in indices] == [_index_reference(label) for label in labels]
        for back in (digits_from_labels(labels, n), digits_from_indices(indices, n)):
            assert np.array_equal(back, digits)
            assert [int(k) for k in keys_from_digits(back)] == keys

    def test_top_index_at_32_qubits(self):
        top = 4**32 - 1  # = 2**64 - 1, the largest uint64
        p = PauliString.from_index(top, 32)
        assert p.label == "Z" * 32
        assert p.index == top
        assert PauliString.from_label("Z" * 32).index == top

    def test_all_y_at_32_qubits(self):
        p = PauliString.from_label("Y" * 32)
        assert p == PauliString(32, (1 << 32) - 1, (1 << 32) - 1)
        assert p.index == int("2" * 32, 4)
        assert PauliString.from_index(p.index, 32).label == "Y" * 32

    @pytest.mark.parametrize("bad", ["xI", "XΩ", "XIZ", "X", ""])
    def test_names_the_first_bad_label(self, bad):
        labels = ["XI", "ZZ", bad, "q?", "IY"]
        with pytest.raises(LabelError) as err:
            digits_from_labels(labels, 2)
        assert err.value.position == 2
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("qubit", [-1, 3])
    def test_digit_out_of_range(self, qubit):
        with pytest.raises(ValueError):
            PauliString.from_label("XYZ").digit(qubit)

    def test_from_index_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_index(4**3, 3)
        with pytest.raises(ValueError):
            PauliString.from_index(-1, 3)

    def test_more_than_32_qubits_rejected(self):
        with pytest.raises(ValueError):
            PauliString(33, 0, 0)
        for build in (lambda: PauliString.from_label("X" * 33),
                      lambda: PauliString.from_index(4**32, 33),
                      lambda: digits_from_keys([1], 33),
                      lambda: digits_from_indices([1], 33),
                      lambda: keys_from_digits(np.zeros((1, 33), dtype=np.uint8)),
                      lambda: indices_from_digits(np.zeros((1, 33), dtype=np.uint8))):
            with pytest.raises(ValueError, match="qubit count must be an integer in 1..32, got 33"):
                build()


class TestProduct:
    def test_single_qubit_table(self):
        # X*Y = iZ and the rest of the standard algebra
        cases = {
            ("X", "Y"): (1j, "Z"),
            ("Y", "X"): (-1j, "Z"),
            ("Y", "Z"): (1j, "X"),
            ("Z", "Y"): (-1j, "X"),
            ("Z", "X"): (1j, "Y"),
            ("X", "Z"): (-1j, "Y"),
            ("X", "X"): (1, "I"),
            ("Y", "Y"): (1, "I"),
            ("Z", "Z"): (1, "I"),
        }
        for (a, b), (phase, res) in cases.items():
            sp = pauli_product(PauliString.from_label(a), PauliString.from_label(b))
            assert sp.phase == phase
            assert sp.string.label == res

    def test_identity_absorbs(self):
        p = PauliString.from_label("XYZ")
        ident = PauliString.identity(3)
        sp = pauli_product(ident, p)
        assert sp.phase == 1 and sp.string == p
        sp = pauli_product(p, ident)
        assert sp.phase == 1 and sp.string == p

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_against_dense(self, n):
        for i in range(4**n):
            for j in range(4**n):
                a = PauliString.from_index(i, n)
                b = PauliString.from_index(j, n)
                sp = pauli_product(a, b)
                dense = label_matrix(a.label) @ label_matrix(b.label)
                expected = sp.phase * label_matrix(sp.string.label)
                assert np.allclose(dense, expected, atol=1e-12)
                assert sp.phase in (1, -1, 1j, -1j)

    def test_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            idx = rng.integers(0, 4**3, size=3)
            a, b, c = (PauliString.from_index(int(i), 3) for i in idx)
            ab = pauli_product(a, b)
            bc = pauli_product(b, c)
            left = pauli_product(ab.string, c)
            right = pauli_product(a, bc.string)
            assert left.string == right.string
            assert ab.phase * left.phase == bc.phase * right.phase

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_product(PauliString.from_label("X"), PauliString.from_label("XX"))


class TestCommutation:
    def test_known_anticommuting_pair(self):
        # ZZ anticommutes with XI
        assert not commutes(PauliString.from_label("XI"), PauliString.from_label("ZZ"))

    def test_self_commutes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = PauliString.from_index(int(rng.integers(0, 4**4)), 4)
            assert commutes(p, p)

    def test_exhaustive_against_dense_commutator(self):
        for i in range(16):
            for j in range(16):
                a = PauliString.from_index(i, 2)
                b = PauliString.from_index(j, 2)
                ma, mb = label_matrix(a.label), label_matrix(b.label)
                comm_norm = np.linalg.norm(ma @ mb - mb @ ma)
                assert commutes(a, b) == (comm_norm < 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            commutes(PauliString.from_label("X"), PauliString.from_label("XX"))


class TestQubitWiseCommutation:
    def test_known_pairs(self):
        # {IX, ZX} is a QWC group; {XX, ZZ} is not
        assert qubit_wise_commutes(PauliString.from_label("IX"), PauliString.from_label("ZX"))
        assert not qubit_wise_commutes(PauliString.from_label("XX"), PauliString.from_label("ZZ"))

    def test_qwc_implies_commuting_exhaustive(self):
        for i in range(16):
            for j in range(16):
                a = PauliString.from_index(i, 2)
                b = PauliString.from_index(j, 2)
                if qubit_wise_commutes(a, b):
                    assert commutes(a, b)

    def test_qwc_matches_per_qubit_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = PauliString.from_index(int(rng.integers(0, 4**3)), 3)
            b = PauliString.from_index(int(rng.integers(0, 4**3)), 3)
            per_qubit = all(
                a.digit(q) == 0 or b.digit(q) == 0 or a.digit(q) == b.digit(q)
                for q in range(3)
            )
            assert qubit_wise_commutes(a, b) == per_qubit


class TestPauliRows:
    """The row table behind every dense Pauli action is the Kronecker
    product matrix: one source row per basis row, with a phase in
    {+-1, +-i}.  pauli_matrix is one table scattered."""

    @pytest.mark.parametrize("label", ["I", "X", "Y", "Z"])
    def test_single_qubit_kinds(self, label):
        p = PauliString.from_label(label)
        assert np.array_equal(pauli_matrix(p), label_matrix(label))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_random_strings(self, data, n):
        masks = st.integers(0, (1 << n) - 1)
        p = PauliString(n, data.draw(masks), data.draw(masks))
        dense = label_matrix(p.label)
        assert np.array_equal(pauli_matrix(p), dense)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert np.array_equal(apply_pauli(p, psi), dense @ psi)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_batch_equals_per_key_tables(self, data, n):
        """A batch of keys gives each key's own table, bit for bit."""
        keys = data.draw(st.lists(st.integers(0, (1 << 2 * n) - 1), min_size=1, max_size=6))
        src, phase = _pauli_rows(np.array(keys, dtype=np.uint64), n)
        assert src.shape == phase.shape == (len(keys), 1 << n)
        for key, s, ph in zip(keys, src, phase):
            s1, ph1 = _pauli_rows(key, n)
            assert s1.dtype == s.dtype and ph1.dtype == ph.dtype
            assert np.array_equal(s1, s)
            assert np.array_equal(ph1.view(np.uint64), ph.view(np.uint64))


@st.composite
def colliding_sums(draw):
    """1-6 qubits; the terms share at most three X parts, so several of
    them write the same matrix entries, and coefficients of +-1 and +-0.5
    cancel there exactly."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    xs = draw(st.lists(masks, min_size=1, max_size=3))
    strings = draw(st.lists(st.tuples(st.sampled_from(xs), masks), min_size=1, max_size=12))
    coeffs = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -0.5]), st.floats(-5.0, 5.0))
    values = draw(st.lists(coeffs, min_size=len(strings), max_size=len(strings)))
    return Hamiltonian(n, {PauliString(n, x, z): v for (x, z), v in zip(strings, values)})


class TestHamiltonianMatrix:
    """The row-table scatter is the sum of Kronecker-product matrices
    (``oracles.dense_hamiltonian``) bit for bit: the bit patterns are
    compared, so signed zeros count."""

    @settings(max_examples=80, deadline=None)
    @given(h=colliding_sums())
    def test_matches_kronecker_reference(self, h):
        got, ref = hamiltonian_matrix(h), dense_hamiltonian(h)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(h=colliding_sums())
    def test_chunked_tables_match_reference(self, h):
        """Tables built three terms at a time scatter the same bits."""
        with mock.patch.object(dense, "_TABLE_ENTRIES", 3 << h.n):
            got = hamiltonian_matrix(h)
        assert np.array_equal(got.view(np.uint64), dense_hamiltonian(h).view(np.uint64))

    def test_many_terms_at_ten_qubits_build_bounded_tables(self):
        """A 300-term 10-qubit sum never builds one table for all terms at
        once, and its chunks scatter what one term at a time does."""
        rng = np.random.default_rng(5)
        h = Hamiltonian.from_arrays(10, rng.choice(1 << 20, 300, replace=False),
                                    rng.standard_normal(300))
        sizes = []

        def spy(keys, n):
            sizes.append(np.size(keys))
            return _pauli_rows(keys, n)

        with mock.patch.object(dense, "_pauli_rows", spy):
            got = hamiltonian_matrix(h)
        assert sum(sizes) == 300 and max(sizes) <= dense._TABLE_ENTRIES >> 10 < 300
        with mock.patch.object(dense, "_TABLE_ENTRIES", 1):
            one_by_one = hamiltonian_matrix(h)
        assert np.array_equal(got.view(np.uint64), one_by_one.view(np.uint64))

    def test_colliding_terms_cancel(self):
        h = Hamiltonian(2, {"XZ": 1.0, "XI": -1.0, "YY": 0.5, "XX": -0.5})
        got = hamiltonian_matrix(h)
        assert np.array_equal(got.view(np.uint64), dense_hamiltonian(h).view(np.uint64))
        assert np.array_equal(got, label_matrix("XZ") - label_matrix("XI")
                              + 0.5 * label_matrix("YY") - 0.5 * label_matrix("XX"))


# Each integer argument, as (argument named in the refusal, call with the
# argument set to v); every call takes v = 2.
_INTEGER_ARGUMENTS = {
    "Hamiltonian terms n": ("qubit count", lambda v: Hamiltonian(v, {"XZ": 1.0})),
    "PauliString n": ("qubit count", lambda v: PauliString(v, 1, 0)),
    "PauliString x": ("x mask", lambda v: PauliString(2, v, 0)),
    "PauliString z": ("z mask", lambda v: PauliString(2, 0, v)),
    "from_key key": ("key", lambda v: PauliString.from_key(v, 2)),
    "from_key n": ("qubit count", lambda v: PauliString.from_key(1, v)),
    "from_index index": ("index", lambda v: PauliString.from_index(v, 2)),
    "from_index n": ("qubit count", lambda v: PauliString.from_index(1, v)),
    "digit": ("qubit", lambda v: PauliString.from_label("XYZ").digit(v)),
    "restrict": ("qubit", lambda v: PauliString.from_label("XYZ").restrict((v,))),
    "codec n": ("qubit count", lambda v: digits_from_keys([1], v)),
    "CoefficientVector n": ("qubit count",
                            lambda v: CoefficientVector(v, 1.0, [1], [1.0])),
    "CoefficientVector index": ("index", lambda v: CoefficientVector(2, 1.0, [v], [1.0])),
    "ising_neighbor": ("qubit count", ising_neighbor),
    "ising_all_to_all": ("qubit count", ising_all_to_all),
    "embed qubit": ("qubit", lambda v: embed(Hamiltonian(1, {"X": 1.0}), (v,), 3)),
    "embed n": ("qubit count", lambda v: embed(Hamiltonian(1, {"X": 1.0}), (0,), v)),
}
# Integer arguments whose refusals are inputs of parametrized tests in
# test_hamiltonian and test_grouping.
_REFUSED_ELSEWHERE = {
    "Hamiltonian n": ("qubit count", lambda v: Hamiltonian.from_arrays(v, [1], [1.0])),
    "Hamiltonian key": ("key", lambda v: Hamiltonian.from_arrays(2, [v], [1.0])),
    "GroupingResult n": ("qubit count", lambda v: GroupingResult("s", v, [1], [1.0], [0, 1])),
    "GroupingResult key": ("key", lambda v: GroupingResult("s", 2, [v], [1.0], [0, 1])),
}


def _value(out):
    """What a call returns, as comparable fields; a stored qubit count must
    be a Python int."""
    if hasattr(out, "n"):
        assert type(out.n) is int
    if isinstance(out, PauliString):
        return out.n, out.x, out.z
    if isinstance(out, CoefficientVector):
        return out.n, out.lam, out.indices.tolist(), out.entries.tolist()
    if isinstance(out, np.ndarray):
        return out.dtype, out.tolist()
    return out


class TestIntegerRule:
    """One rule for every integer argument: a Python or NumPy integer,
    never a bool, within its bounds; anything else is a ValueError that
    names the argument."""

    @pytest.mark.parametrize("value", [True, 2.0, 2.5, "3"], ids=repr)
    @pytest.mark.parametrize("call", _INTEGER_ARGUMENTS)
    def test_non_integer_refused_naming_the_argument(self, call, value):
        name, build = _INTEGER_ARGUMENTS[call]
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build(value)

    @pytest.mark.parametrize("value", [np.int64(2), np.uint8(2)], ids=repr)
    @pytest.mark.parametrize("call", {**_INTEGER_ARGUMENTS, **_REFUSED_ELSEWHERE})
    def test_numpy_integer_gives_the_python_int_result(self, call, value):
        _, build = {**_INTEGER_ARGUMENTS, **_REFUSED_ELSEWHERE}[call]
        assert _value(build(value)) == _value(build(2))

    @pytest.mark.parametrize("value, low, high, message", [
        (True, None, None, "n must be an integer, got True"),
        (np.bool_(True), 0, None, "n must be an integer >= 0, got np.True_"),
        (-1, 0, None, "n must be an integer >= 0, got -1"),
        (np.uint64(2**63), 1, 2**63 - 1,
         f"n must be an integer in 1..{2**63 - 1}, got {2**63}"),
        ("3", 1, 2, "n must be an integer in 1..2, got '3'"),
    ], ids=repr)
    def test_checker_message(self, value, low, high, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _checked_int(value, "n", low, high)

    @pytest.mark.parametrize("value", [0, 2**63 - 1, np.int8(5), np.uint64(2**64 - 1)],
                             ids=repr)
    def test_checker_returns_a_python_int(self, value):
        out = _checked_int(value, "n", 0)
        assert type(out) is int and out == int(value)
