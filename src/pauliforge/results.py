"""Machine-readable result documents with reproducible byte output.

All floats are printed with 17 significant digits (enough to round-trip
float64 exactly; -0.0 is printed "-0.0", as "-0" reads back as the
integer 0), keys keep insertion order, and no whitespace varies, so
identical runs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .ansatz import AnsatzLayout, layout_to_dict
from .grouping import GroupingResult
from .optimize import EngineeredResult
from .paulis import digits_from_keys, labels_from_digits
from .qestimate import QEstimate


def _format_value(obj) -> str:
    # one isinstance chain, the most frequent types of result documents first
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps does with a str
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x} cannot be serialized")
        if x == 0.0 and math.copysign(1.0, x) < 0.0:
            return "-0.0"  # "-0" reads back as the integer 0
        return f"{x:.17g}"
    if isinstance(obj, dict):
        items = ",".join(f"{encode_basestring_ascii(str(k))}:{_format_value(v)}"
                         for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(map(_format_value, seq)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_json(obj) -> str:
    """Deterministic JSON text with full float precision, one trailing newline."""
    return _format_value(obj) + "\n"


def input_digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _terms_list(h) -> list[dict]:
    labels, coeffs = h.labeled_terms()
    return [{"label": label, "coefficient": c} for label, c in zip(labels, coeffs.tolist())]


def engineered_result_to_dict(res: EngineeredResult, layout: AnsatzLayout | None = None) -> dict:
    doc = {
        "cost_kind": res.cost_kind,
        "restart_index": res.restart_index,
        "original_norm": res.original_norm,
        "engineered_norm": res.engineered_norm,
        "theta_star": list(map(float, res.theta_star)),
        "cost_trace": list(map(float, res.cost_trace)),
        "engineered_terms": _terms_list(res.engineered),
    }
    if layout is not None:
        doc["layout"] = layout_to_dict(layout)
    return doc


def grouping_result_to_dict(g: GroupingResult) -> dict:
    members = [p for col in g.collections for _, p in col.members]
    n = members[0].n if members else 1
    keys = np.array([p.key() for p in members], dtype=np.uint64)
    labels = iter(labels_from_digits(digits_from_keys(keys, n)))
    return {
        "strategy": g.strategy,
        "collection_count": g.collection_count,
        "grouped_norm": g.grouped_norm,
        "collections": [
            [{"label": next(labels), "coefficient": c} for c, _ in col.members]
            for col in g.collections
        ],
    }


def qestimate_to_dict(est: QEstimate) -> dict:
    return {
        "p_plus": est.p_plus,
        "q_value": est.q_value,
        "shots": est.shots,
        "stderr": est.stderr,
    }


def serialize_result(obj, layout: AnsatzLayout | None = None) -> str:
    """JSON text for any of the result record types (or a plain dict/list)."""
    if isinstance(obj, EngineeredResult):
        return stable_json(engineered_result_to_dict(obj, layout))
    if isinstance(obj, GroupingResult):
        return stable_json(grouping_result_to_dict(obj))
    if isinstance(obj, QEstimate):
        return stable_json(qestimate_to_dict(obj))
    return stable_json(obj)
