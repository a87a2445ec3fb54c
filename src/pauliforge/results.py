"""Machine-readable result documents with reproducible byte output.

All floats are printed with 17 significant digits (enough to round-trip
float64 exactly; -0.0 is printed "-0.0", as "-0" reads back as the
integer 0), keys keep insertion order, and no whitespace varies, so
identical runs serialize to identical bytes.  NumPy scalars and arrays
are written as their Python values, a 0-d array as its scalar.

A document is ``stable_json`` of the dict that a record's builder
returns (``engineered_result_to_dict``, ``grouping_result_to_dict``,
``qestimate_to_dict``); each builder takes the record alone, as every
record carries what its document shows.  The builders render term
records (``collections``, ``engineered_terms``) in one ``%`` call over a
``{"label", "coefficient"}`` template, as the text the dicts would give,
held in a private ``str`` subclass that ``stable_json`` writes as it is.
The record types are imported for annotations only, so loading this
module runs none of the modules that make them, and the layout
formatter is imported where a layout is formatted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .paulis import digits_from_keys, labels_from_digits

if TYPE_CHECKING:  # the record types, for annotations only
    from .grouping import GroupingResult
    from .optimize import EngineeredResult
    from .qestimate import QEstimate


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "-0" reads back as the integer 0
    return f"{x:.17g}"


class _Rendered(str):
    """JSON text already rendered, which a document holds in place of the
    value it renders and which is appended to the output as it is."""

    __slots__ = ()


def _format_value(obj, append) -> None:
    """Pass the JSON text of ``obj`` to ``append`` piece by piece."""
    if isinstance(obj, _Rendered):  # before str, as it is one
        append(obj)
    elif isinstance(obj, str):
        append(encode_basestring_ascii(obj))  # what json.dumps does with a str
    elif isinstance(obj, bool):
        append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        sep = "{"
        for k, v in obj.items():
            append(f"{sep}{encode_basestring_ascii(str(k))}:")
            _format_value(v, append)
            sep = ","
        append("}" if sep == "," else "{}")
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for v in obj:
            append(sep)
            _format_value(v, append)
            sep = ","
        append("]" if sep == "," else "[]")
    elif isinstance(obj, np.ndarray):
        _format_value(obj.tolist(), append)  # a 0-d array gives its scalar
    elif obj is None:
        append("null")
    elif isinstance(obj, (int, np.integer)):
        append(str(int(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_json(obj) -> str:
    """Deterministic JSON text with full float precision, one trailing newline."""
    out: list[str] = []
    _format_value(obj, out.append)  # pieces joined once
    out.append("\n")
    return "".join(out)


def input_digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# "%.17g" prints every finite float as _format_float does but -0.0 ("-0");
# labels over I, X, Y, Z need no escape.
_TERM = '{"label":"%s","coefficient":%.17g}'


def _term_records(labels: list[str], coeffs: np.ndarray, starts: np.ndarray | None = None):
    """The ``{"label", "coefficient"}`` records of the terms, as a list, or
    with CSR ``starts`` as a list of collections of them, rendered by one
    ``%`` over a template repeated once per record.  A -0.0 or non-finite
    coefficient gives the records as dicts instead, so ``stable_json``
    prints "-0.0" or refuses the value as it does anywhere else."""
    values = coeffs.tolist()
    bounds = [0, len(values)] if starts is None else starts.tolist()
    if not np.isfinite(coeffs).all() or np.signbit(coeffs[coeffs == 0.0]).any():
        records = [{"label": label, "coefficient": c} for label, c in zip(labels, values)]
        collections = [records[a:b] for a, b in zip(bounds, bounds[1:])]
        return collections[0] if starts is None else collections
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    runs = {k: ",".join([_TERM] * k) for k in set(sizes)}
    fields: list = [None] * (2 * len(values))
    fields[::2] = labels
    fields[1::2] = values
    text = "[" + "],[".join(map(runs.__getitem__, sizes)) % tuple(fields) + "]"
    return _Rendered(text if starts is None else f"[{text}]")


def engineered_result_to_dict(res: EngineeredResult) -> dict:
    """The record's fields, its engineered terms and the layout its
    angles index (``res.layout``)."""
    from .ansatz import layout_to_dict

    return {
        "cost_kind": res.cost_kind,
        "restart_index": res.restart_index,
        "original_norm": res.original_norm,
        "engineered_norm": res.engineered_norm,
        "theta_star": list(map(float, res.theta_star)),
        "cost_trace": list(map(float, res.cost_trace)),
        "engineered_terms": _term_records(*res.engineered.labeled_terms()),
        "layout": layout_to_dict(res.layout),
    }


def grouping_result_to_dict(g: GroupingResult) -> dict:
    labels = labels_from_digits(digits_from_keys(g.keys, g.n))
    return {
        "strategy": g.strategy,
        "collection_count": g.collection_count,
        "grouped_norm": g.grouped_norm,
        "collections": _term_records(labels, g.coeffs, g.starts),
    }


def qestimate_to_dict(est: QEstimate) -> dict:
    return asdict(est)
