"""Ising builders, pauli-sum text format, and result serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge.hamiltonian import Hamiltonian, pauli_norm, vectorize
from pauliforge.model_io import (
    PauliSumParseError,
    ising_all_to_all,
    ising_neighbor,
    parse_pauli_sum,
    serialize_pauli_sum,
)
from pauliforge.paulis import PauliString
from pauliforge.results import (
    input_digest,
    serialize_result,
    stable_json,
)

from oracles import random_hamiltonian


class TestIsingNeighbor:
    def test_n2(self):
        h = ising_neighbor(2)
        assert h.terms == {
            PauliString.from_label("ZZ"): -1.0,
            PauliString.from_label("XI"): 1.0,
            PauliString.from_label("IX"): 1.0,
        }
        assert pauli_norm(h) == 3.0

    def test_n3(self):
        h = ising_neighbor(3)
        labels = {p.label: c for p, c in h}
        assert labels == {"ZZI": -1.0, "IZZ": -1.0, "XII": 1.0, "IXI": 1.0, "IIX": 1.0}

    def test_norm_closed_form(self):
        for n in range(2, 11):
            assert pauli_norm(ising_neighbor(n)) == 2 * n - 1
            assert len(ising_neighbor(n)) == 2 * n - 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ising_neighbor(1)


class TestIsingAllToAll:
    def test_n2_matches_neighbor(self):
        assert ising_all_to_all(2) == ising_neighbor(2)

    def test_n3_terms(self):
        labels = {p.label for p, _ in ising_all_to_all(3)}
        assert labels == {"ZZI", "ZIZ", "IZZ", "XII", "IXI", "IIX"}

    def test_n4_counts(self):
        h = ising_all_to_all(4)
        assert len(h) == 10
        assert pauli_norm(h) == 10.0

    def test_norm_closed_form(self):
        for n in range(2, 11):
            assert pauli_norm(ising_all_to_all(n)) == n * (n + 1) / 2


class TestParse:
    def test_golden_hamiltonian(self):
        h = parse_pauli_sum("3.0 XI\n-1.0 YY\n2.0 ZZ\n")
        assert h == Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0})

    def test_comments_and_blanks(self):
        text = "# a comment\n\n1.5 XZ  # trailing\n\n-0.5 ZX\n"
        h = parse_pauli_sum(text)
        assert h.coefficient("XZ") == 1.5
        assert h.coefficient("ZX") == -0.5

    def test_merge_to_zero(self):
        h = parse_pauli_sum("1.0 X\n-1.0 X\n")
        assert len(h) == 0
        with pytest.raises(ValueError):
            vectorize(h)

    def test_bad_coefficient_with_line_number(self):
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum("1.0 XI\nfoo ZZ\n")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("text", ["1.0 XI\ninf ZZ\n", "1.0 XI\nnan ZZ\n"])
    def test_non_finite_coefficient_with_line_number(self, text):
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum(text)
        assert err.value.line_number == 2

    def test_label_above_max_qubits_with_line_number(self):
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum("# 33 qubits\n1.0 " + "X" * 33 + "\n")
        assert err.value.line_number == 2

    def test_duplicates_add_in_file_order(self):
        h = parse_pauli_sum("0.1 X\n0.2 X\n0.3 X\n")
        assert h.coefficient("X") == (0.1 + 0.2) + 0.3

    def test_bad_label_character(self):
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum("1.0 XQ\n")
        assert err.value.line_number == 1

    def test_mixed_lengths(self):
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum("1.0 XI\n2.0 X\n")
        assert err.value.line_number == 2

    def test_empty_input(self):
        with pytest.raises(PauliSumParseError):
            parse_pauli_sum("# nothing\n")

    def test_extra_fields(self):
        with pytest.raises(PauliSumParseError):
            parse_pauli_sum("1.0 XI extra\n")


class TestRoundTrip:
    def test_serialize_parse_fixed_point(self):
        rng = np.random.default_rng(12)
        h = random_hamiltonian(3, 50, rng)
        text = serialize_pauli_sum(h)
        assert parse_pauli_sum(text) == h
        assert serialize_pauli_sum(parse_pauli_sum(text)) == text

    def test_full_precision(self):
        h = Hamiltonian(1, {"X": 1.0 / 3.0, "Z": np.pi})
        assert parse_pauli_sum(serialize_pauli_sum(h)) == h

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.one_of(st.integers(1, 32), st.just(32)))
    def test_random_sums_round_trip(self, data, n):
        masks = st.integers(0, (1 << n) - 1)
        strings = data.draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=30,
                                     unique=True))
        # any finite nonzero double, tiny and subnormal ones included
        coeffs = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
        values = data.draw(st.lists(coeffs, min_size=len(strings), max_size=len(strings)))
        h = Hamiltonian(n, {PauliString(n, x, z): v for (x, z), v in zip(strings, values)})
        back = parse_pauli_sum(serialize_pauli_sum(h))
        assert back.n == n
        assert np.array_equal(back.keys, h.keys)
        assert np.array_equal(back.coeffs, h.coeffs)


class TestStableJson:
    def test_float_precision_round_trips(self):
        values = [1.0 / 3.0, np.pi, 1e-300, -7.25, 0.1 + 0.2]
        text = stable_json({"values": values})
        parsed = json.loads(text)
        assert parsed["values"] == values

    def test_byte_stability(self):
        doc = {"b": 1, "a": [1.5, {"x": None, "y": True}]}
        assert stable_json(doc) == stable_json(doc)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            stable_json({"x": float("nan")})

    def test_digest_stable(self):
        assert input_digest("abc") == input_digest(b"abc")
        assert len(input_digest("abc")) == 64


class TestSerializeResult:
    def test_engineered_result_single_term(self):
        from pauliforge.ansatz import hardware_efficient_layout
        from pauliforge.optimize import OptimizerConfig, optimize

        h = Hamiltonian(2, {"XZ": 2.0})
        layout = hardware_efficient_layout(2, 1)
        res = optimize(h, layout, OptimizerConfig(restarts=1, max_iterations=5, seed=0))
        doc = json.loads(serialize_result(res, layout))
        assert doc["engineered_norm"] == doc["original_norm"] == 2.0
        assert doc["layout"]["n"] == 2

    def test_grouping_result_golden(self):
        from pauliforge.grouping import sorted_insertion

        g = sorted_insertion(Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0}))
        doc = json.loads(serialize_result(g))
        assert np.isclose(doc["grouped_norm"], 5.2360679, atol=1e-6)
        assert doc["collection_count"] == 2

    def test_theta_round_trip_bits(self):
        from pauliforge.ansatz import hardware_efficient_layout
        from pauliforge.optimize import OptimizerConfig, optimize

        rng = np.random.default_rng(13)
        h = random_hamiltonian(2, 5, rng)
        layout = hardware_efficient_layout(2, 1)
        res = optimize(h, layout, OptimizerConfig(restarts=1, max_iterations=10, seed=4))
        doc = json.loads(serialize_result(res, layout))
        assert np.array_equal(np.asarray(doc["theta_star"]), res.theta_star)
