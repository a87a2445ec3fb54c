"""Ising builders, pauli-sum text format, and result serialization."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
import pauliforge
from pauliforge.qestimate import QEstimate
from pauliforge.results import (
    engineered_result_to_dict,
    grouping_result_to_dict,
    input_digest,
    qestimate_to_dict,
    stable_json,
)

from oracles import (
    format_value_reference,
    grouping_result_to_dict_reference,
    parse_pauli_sum_reference,
    pauli_sums,
    random_hamiltonian,
)


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

    @pytest.mark.parametrize("label", ["xI", "XΩ", "X-"])
    def test_bad_label_reports_its_own_line(self, label):
        text = f"# header\n1.0 XI\n-2.0 {label}  # third line\n0.5 ZZ\n1.5 yy\n"
        with pytest.raises(PauliSumParseError, match="bad Pauli label") as err:
            parse_pauli_sum(text)
        assert err.value.line_number == 3
        assert repr(label) in str(err.value)

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

    def test_token_count_alone_does_not_pass_misplaced_fields(self):
        """Four tokens on two lines are not two terms: line 1 holds one field."""
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum("0.5\nXX 0.5 YY")
        assert err.value.line_number == 1
        assert str(err.value) == "line 1: expected 'coefficient label', got '0.5'"

    @pytest.mark.parametrize("text, line, message", [
        # a field or coefficient error on a later line comes before a label error
        ("1 XQ\n2 YY\nfoo ZZ\n", 3, "bad coefficient 'foo'"),
        ("1 " + "X" * 33 + "\n2 YY 3\n", 2, "expected 'coefficient label', got '2 YY 3'"),
        ("1 XI  # a # b\n2 X Y # c\n", 2, "expected 'coefficient label', got '2 X Y # c'"),
        ("1 XI\n1e400 ZZ\n", 2, "non-finite coefficient '1e400'"),
    ])
    def test_first_bad_line_is_reported(self, text, line, message):
        with pytest.raises(PauliSumParseError) as err:
            parse_pauli_sum(text)
        assert err.value.line_number == line
        assert str(err.value) == f"line {line}: {message}"


def _parse_outcome(parse, text):
    """The parsed keys and coefficients as bytes, or the error raised."""
    try:
        h = parse(text)
    except Exception as err:
        return type(err), str(err), getattr(err, "line_number", None)
    return h.n, h.keys.tobytes(), h.coeffs.tobytes()


_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c"])
_GAPS = st.sampled_from([" ", "\t", "  ", " \t "])
_EDGES = st.sampled_from(["", " ", "\t", " \t"])
_COMMENTS = st.one_of(st.just(""), st.text(st.sampled_from("# XYZ1.0\tq"), max_size=8).map(
    lambda c: "#" + c))
_GOOD_COEFFS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(["+1.5", "-0", "0.0", "1e-3", "5e-324", "1_0", ".5", "-2.", "1E+2"]),
)
_BAD_COEFFS = st.sampled_from(["foo", "1.0.0", "0x1", "nan", "-nan", "inf", "-Infinity",
                               "1e400", "1,5", "--1"])


@st.composite
def pauli_sum_texts(draw):
    """Pauli-sum text: good lines mixed with blank and comment lines, any of
    the line ends and field gaps, and now and then a line of each error
    kind, a first label above 32 characters, or no term at all."""
    n = draw(st.integers(1, 6))
    first_width = draw(st.sampled_from([n, n, n, 33, 40]))

    def label(width):
        return "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=width,
                                     max_size=width)))

    kinds = ["good"] * 6 + ["blank", "comment", "one", "three", "bad_coeff",
                             "bad_letter", "bad_length"]
    lines = []
    width = first_width
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        lab = label(width)
        coeff = draw(_GOOD_COEFFS)
        if kind == "blank":
            body = ""
        elif kind == "comment":
            body = draw(_COMMENTS)
            lines.append(draw(_EDGES) + body + draw(_LINE_ENDS))
            continue
        elif kind == "one":
            body = draw(st.sampled_from([coeff, lab]))
        elif kind == "three":
            body = draw(_GAPS).join([coeff, lab, draw(st.sampled_from([lab, coeff, "x"]))])
        else:
            if kind == "bad_coeff":
                coeff = draw(_BAD_COEFFS)
            elif kind == "bad_letter":
                k = draw(st.integers(0, len(lab) - 1))
                lab = lab[:k] + draw(st.sampled_from("QxyΩ-")) + lab[k + 1:]
            elif kind == "bad_length":
                lab = label(draw(st.sampled_from([max(n - 1, 1) if n > 1 else 2, n + 1])))
            body = coeff + draw(_GAPS) + lab
            width = n  # labels after the first term line take the common width
        lines.append(draw(_EDGES) + body + draw(_EDGES) + draw(_COMMENTS) + draw(_LINE_ENDS))
    text = "".join(lines)
    return text if draw(st.booleans()) else text.rstrip("\n\r\x0b\x0c")


class TestParseMatchesLineByLineReference:
    @settings(max_examples=400, deadline=None)
    @given(text=pauli_sum_texts())
    def test_same_terms_or_same_error(self, text):
        assert _parse_outcome(parse_pauli_sum, text) == \
            _parse_outcome(parse_pauli_sum_reference, text)

    @pytest.mark.parametrize("text", [
        "", "\n\n", "# only a comment\n", "  # one\r\n#two\x0b\t\x0c", "#1 XX\n",
    ], ids=repr)
    def test_no_terms(self, text):
        with pytest.raises(PauliSumParseError, match="no terms found") as err:
            parse_pauli_sum(text)
        assert err.value.line_number == 1
        assert _parse_outcome(parse_pauli_sum, text) == \
            _parse_outcome(parse_pauli_sum_reference, text)


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


# Finite floats of every kind (-0.0, subnormals, +-1e308 included), ints,
# bools, None and strings, nested in string-keyed dicts and lists.
json_scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.text(max_size=8),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20,
)

# The scalars above and any str (non-ASCII included), plus what else result
# documents may carry: np.int64 and np.float64 scalars, 0-d and 1-d arrays,
# tuples and int dict keys.
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308]),
)
int64s = st.integers(-(2**63), 2**63 - 1)
numpy_scalars = st.one_of(
    int64s.map(np.int64), finite_floats.map(np.float64),
    st.one_of(finite_floats, int64s, st.booleans()).map(np.array),
    st.lists(finite_floats, max_size=4).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(int64s, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
)
mixed_documents = st.recursive(
    st.one_of(json_scalars, st.text(), numpy_scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers()), inner, max_size=4)),
    max_leaves=25,
)


def _wrapped(doc, bad, where):
    """``bad`` placed after ``doc`` in a list, a tuple or a dict value."""
    return ([doc, bad], (doc, [bad]), {"doc": doc, 7: {"x": bad}})[where]


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

    @settings(max_examples=200, deadline=None)
    @given(doc=json_documents)
    def test_round_trip(self, doc):
        text = stable_json(doc)
        back = json.loads(text)
        assert back == doc
        assert stable_json(back) == text

    @settings(max_examples=50, deadline=None)
    @given(doc=json_documents, bad=st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    def test_non_finite_anywhere_rejected(self, doc, bad):
        with pytest.raises(ValueError, match="non-finite"):
            stable_json({"doc": doc, "nested": [1, {"x": [bad]}]})

    def test_negative_zero_keeps_its_sign(self):
        back = json.loads(stable_json({"x": -0.0}))["x"]
        assert back == 0.0 and np.signbit(back)

    @pytest.mark.parametrize("value, text", [
        (-0.0, "-0.0"),
        (np.float64(-0.0), "-0.0"),
        (0.0, "0"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.float64(1.0 / 3.0), "0.33333333333333331"),
        (np.int64(-7), "-7"),
        (2**70, "1180591620717411303424"),
        (True, "true"),
        (False, "false"),
        (None, "null"),
        ((1, 2.5, None), "[1,2.5,null]"),
        (np.array([1.0, -0.0, 2.5]), "[1,-0.0,2.5]"),
        ({1: "a", 2.5: True, None: []}, '{"1":"a","2.5":true,"None":[]}'),
    ], ids=repr)
    def test_exact_text(self, value, text):
        assert stable_json(value) == text + "\n"

    @pytest.mark.parametrize("s", ['say "hi"', "back\\slash", "new\nline\ttab\r",
                                   "café ☃ \U0001f600", "\x00\x1f\x7f", ""])
    def test_strings_match_json_dumps(self, s):
        assert stable_json(s) == json.dumps(s) + "\n"
        assert stable_json({s: s}) == "{" + json.dumps(s) + ":" + json.dumps(s) + "}\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("nan"), np.float32("inf")], ids=repr)
    def test_non_finite_raises_value_error(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            stable_json([bad])

    # A bare object's repr holds its address, so it gets a fixed id.
    @pytest.mark.parametrize("bad", [np.bool_(True), pytest.param(object(), id="object()"),
                                     {1, 2}, b"bytes"], ids=repr)
    def test_unsupported_type_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="cannot serialize"):
            stable_json({"x": bad})

    @pytest.mark.parametrize("value, text", [
        (np.array(1.5), "1.5"),
        (np.array(-0.0), "-0.0"),
        (np.array(np.float32(0.1)), "0.10000000149011612"),
        (np.array(-7), "-7"),
        (np.array(True), "true"),
        (np.array(False), "false"),
        ({"x": [np.array(2.0)]}, '{"x":[2]}'),
    ], ids=repr)
    def test_zero_d_array_is_its_scalar(self, value, text):
        assert stable_json(value) == text + "\n"

    @settings(max_examples=300, deadline=None)
    @given(doc=mixed_documents)
    def test_matches_isinstance_chain_reference(self, doc):
        assert stable_json(doc) == format_value_reference(doc) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(doc=mixed_documents, where=st.integers(0, 2),
           bad=st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                                np.float32("-inf"), np.array(np.inf), np.array([1.0, np.nan])]))
    def test_non_finite_raises_value_error_like_reference(self, doc, where, bad):
        doc = _wrapped(doc, bad, where)
        with pytest.raises(ValueError, match="non-finite"):
            stable_json(doc)
        with pytest.raises(ValueError, match="non-finite"):
            format_value_reference(doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=mixed_documents, where=st.integers(0, 2),
           bad=st.sampled_from([object(), {1, 2}, b"bytes", np.bool_(True), 1 + 2j,
                                np.complex128(1.0)]))
    def test_unknown_type_raises_type_error_like_reference(self, doc, where, bad):
        doc = _wrapped(doc, bad, where)
        with pytest.raises(TypeError, match="cannot serialize"):
            stable_json(doc)
        with pytest.raises(TypeError, match="cannot serialize"):
            format_value_reference(doc)

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
        doc = json.loads(stable_json(engineered_result_to_dict(res)))
        assert doc["engineered_norm"] == doc["original_norm"] == 2.0
        assert doc["layout"]["n"] == 2

    def test_grouping_result_golden(self):
        from pauliforge.grouping import sorted_insertion

        g = sorted_insertion(Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0}))
        doc = json.loads(stable_json(grouping_result_to_dict(g)))
        assert np.isclose(doc["grouped_norm"], 5.2360679, atol=1e-6)
        assert doc["collection_count"] == 2

    @settings(max_examples=60, deadline=None)
    @given(h=pauli_sums(), commutation=st.sampled_from(("general", "qubit_wise")))
    def test_grouping_document_bytes_match_the_object_reference(self, h, commutation):
        """The array-backed document is byte for byte the one built from
        collection objects, one key() per member."""
        from pauliforge.grouping import sorted_insertion

        g = sorted_insertion(h, commutation)
        assert stable_json(grouping_result_to_dict(g)) == \
            stable_json(grouping_result_to_dict_reference(g))

    @pytest.mark.parametrize("coeffs", [
        [1.5, -0.25, 3.0, 1.0 / 3.0, -2.0],
        [-0.0, 0.0, 5e-324, -5e-324, 1.0],
        [0.0, 2.2250738585072014e-308, 1e-300, -7.0, 0.1 + 0.2],
        [1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5],
    ], ids=repr)
    def test_rendered_records_match_the_general_path(self, coeffs):
        """Term records rendered by one template are the text the value
        formatter gives the dicts: -0.0 stays "-0.0", extremes print in
        full.  The grouped norm of +-1.8e308 overflows, and both refuse it."""
        from pauliforge.grouping import GroupingResult

        g = GroupingResult("sorted_insertion/general", 3, [0, 9, 18, 27, 63], coeffs,
                           [0, 2, 3, 5])
        with np.errstate(over="ignore"):  # the squares of +-1.8e308
            doc, ref = grouping_result_to_dict(g), grouping_result_to_dict_reference(g)
        assert stable_json(doc["collections"]) == \
            format_value_reference(ref["collections"]) + "\n"
        if math.isfinite(doc["grouped_norm"]):
            assert stable_json(doc) == format_value_reference(ref) + "\n"
        else:
            with pytest.raises(ValueError, match="^non-finite value inf cannot be serialized$"):
                stable_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(finite_floats, min_size=1, max_size=12), data=st.data())
    def test_rendered_collections_match_the_general_path(self, coeffs, data):
        from pauliforge.grouping import GroupingResult

        m = len(coeffs)
        cuts = data.draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1))
        starts = [0, *(k for k, cut in enumerate(cuts, start=1) if cut), m]
        g = GroupingResult("sorted_insertion/qubit_wise", 4, range(m), coeffs, starts)
        with np.errstate(over="ignore"):  # the grouped norm of huge coefficients
            rendered = grouping_result_to_dict(g)["collections"]
        assert stable_json(rendered) == \
            format_value_reference(grouping_result_to_dict_reference(g)["collections"]) + "\n"

    def test_nan_coefficient_raises_the_general_paths_error(self):
        from pauliforge.grouping import GroupingResult

        g = GroupingResult("sorted_insertion/general", 2, [1, 2, 3], [1.0, math.nan, 2.0],
                           [0, 1, 3])
        message = "^non-finite value nan cannot be serialized$"
        for doc in (grouping_result_to_dict(g), grouping_result_to_dict(g)["collections"]):
            with pytest.raises(ValueError, match=message):
                stable_json(doc)
            with pytest.raises(ValueError, match=message):
                format_value_reference(doc)

    def test_engineered_terms_match_the_general_path(self):
        from pauliforge.ansatz import hardware_efficient_layout
        from pauliforge.optimize import OptimizerConfig, optimize

        h = Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0})
        res = optimize(h, hardware_efficient_layout(2, 2),
                       OptimizerConfig(restarts=2, max_iterations=30, seed=0))
        assert res.engineered_norm < res.original_norm and len(res.engineered) == 15
        doc = engineered_result_to_dict(res)
        terms = [{"label": p.label, "coefficient": c} for p, c in res.engineered.terms_by_index()]
        assert stable_json(doc) == format_value_reference({**doc, "engineered_terms": terms}) + "\n"

    def test_theta_round_trip_bits(self):
        from pauliforge.ansatz import hardware_efficient_layout
        from pauliforge.optimize import OptimizerConfig, optimize

        rng = np.random.default_rng(13)
        h = random_hamiltonian(2, 5, rng)
        layout = hardware_efficient_layout(2, 1)
        res = optimize(h, layout, OptimizerConfig(restarts=1, max_iterations=10, seed=4))
        doc = json.loads(stable_json(engineered_result_to_dict(res)))
        assert np.array_equal(np.asarray(doc["theta_star"]), res.theta_star)

    def test_qestimate_document_is_the_record_fields(self):
        est = QEstimate(p_plus=0.7, q_value=0.4, shots=1000, stderr=0.015)
        assert qestimate_to_dict(est) == dataclasses.asdict(est)
        assert stable_json(qestimate_to_dict(est)) == (
            '{"p_plus":0.69999999999999996,"q_value":0.40000000000000002,'
            '"shots":1000,"stderr":0.014999999999999999}\n')


def test_results_import_loads_no_module_whose_records_it_formats():
    """Loading the document layer in a fresh interpreter runs none of the
    modules that make the records: it names their types for annotations
    only."""
    code = "import sys, pauliforge.results; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(pauliforge.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "pauliforge.results" in loaded
    record_modules = {f"pauliforge.{m}" for m in ("grouping", "optimize", "qestimate",
                                                   "dense", "dynamics", "ansatz")}
    assert record_modules.isdisjoint(loaded)
