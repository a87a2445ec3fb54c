"""Output checks for every benchmark operation.

Each check takes the op's output and returns a list of problems (empty
when the output is correct).  The checks re-derive what they need from
the pauli-sum text with their own code, not with pauliforge's, so a bug
shared by the program and its checker cannot hide.  selftest.py feeds
every check a corrupted output to show that none of them is vacuous.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPECTRUM_TOL = 1e-9
NORM_TOL = 1e-12
_DIGIT = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def parse_terms(text: str) -> list[tuple[str, float]]:
    """(label, coefficient) pairs of pauli-sum text, duplicates kept."""
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            coeff, label = line.split()
            terms.append((label, float(coeff)))
    return terms


def without_timings(output: str) -> str:
    """The result document up to its trailing ``timings`` field.

    The envelope's keys are in a fixed order with ``timings`` last, so
    everything before it must be byte-identical across passes.
    """
    head, sep, _ = output.rpartition(',"timings":')
    return head if sep else output


def dense_matrix(terms: list[tuple[str, float]], n: int) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli sum; qubit 0 is the leftmost
    label character and the most significant basis bit."""
    dim = 1 << n
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for label, coeff in terms:
        rows = cols.copy()
        phase = np.ones(dim, dtype=complex)
        for q, ch in enumerate(label):
            bit = (cols >> (n - 1 - q)) & 1
            if ch in "XY":
                rows ^= 1 << (n - 1 - q)
            if ch == "Y":
                phase *= np.where(bit == 0, 1j, -1j)
            elif ch == "Z":
                phase *= np.where(bit == 0, 1.0, -1.0)
        out[rows, cols] += coeff * phase
    return out


def spectrum(terms: list[tuple[str, float]], n: int) -> np.ndarray:
    return np.linalg.eigvalsh(dense_matrix(terms, n))


def check_engineer(output: str, engineered_text: str, original_spectrum: np.ndarray,
                   n: int) -> list[str]:
    """Norm never grows, the reported norm is the file's, and the spectrum is kept."""
    res = json.loads(output)["results"]
    problems = []
    if not res["engineered_norm"] <= res["original_norm"] + NORM_TOL:
        problems.append(f"engineered norm {res['engineered_norm']!r} exceeds "
                        f"original {res['original_norm']!r}")
    engineered = parse_terms(engineered_text)
    file_norm = math.fsum(abs(c) for _, c in engineered)
    if abs(file_norm - res["engineered_norm"]) > NORM_TOL * max(1.0, file_norm):
        problems.append(f"engineered file norm {file_norm!r} differs from reported "
                        f"{res['engineered_norm']!r}")
    gap = float(np.max(np.abs(spectrum(engineered, n) - original_spectrum)))
    if gap > SPECTRUM_TOL:
        problems.append(f"engineered spectrum differs from the original by {gap:.3g}")
    return problems


def _digits(labels: list[str]) -> np.ndarray:
    return np.array([[_DIGIT[ch] for ch in label] for label in labels], dtype=np.int8)


def incompatible_pair(labels: list[str], strategy: str) -> tuple[int, int] | None:
    """First pair of labels that do not commute (``sorted``) or do not
    commute qubit-wise (``qwc``); None when all pairs are compatible."""
    d = _digits(labels)
    both = (d[:, None, :] != 0) & (d[None, :, :] != 0)
    clash = ((d[:, None, :] != d[None, :, :]) & both).sum(axis=-1)
    bad = clash % 2 == 1 if strategy == "sorted" else clash > 0
    if not bad.any():
        return None
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


def check_group(output: str, input_terms: list[tuple[str, float]], strategy: str) -> list[str]:
    """Collections are pairwise compatible, cover each term once, and the
    grouped norm is the one the collections give."""
    res = json.loads(output)["results"]
    problems = []
    members = [(t["label"], t["coefficient"]) for col in res["collections"] for t in col]
    if sorted(members) != sorted(input_terms):
        problems.append("collections do not hold every input term exactly once")
    if res["collection_count"] != len(res["collections"]):
        problems.append("collection_count disagrees with the collections listed")
    for i, col in enumerate(res["collections"]):
        pair = incompatible_pair([t["label"] for t in col], strategy)
        if pair:
            a, b = pair
            problems.append(f"collection {i}: {col[a]['label']} and {col[b]['label']} "
                            f"are not compatible under {strategy}")
            break
    grouped = math.fsum(math.sqrt(math.fsum(t["coefficient"] ** 2 for t in col))
                        for col in res["collections"])
    if abs(grouped - res["grouped_norm"]) > NORM_TOL * max(1.0, grouped):
        problems.append(f"grouped norm {res['grouped_norm']!r} differs from "
                        f"recomputed {grouped!r}")
    pauli = math.fsum(abs(c) for _, c in input_terms)
    if abs(pauli - res["pauli_norm"]) > NORM_TOL * max(1.0, pauli):
        problems.append(f"pauli norm {res['pauli_norm']!r} differs from recomputed {pauli!r}")
    return problems


def check_qdrift_golden(output: str) -> list[str]:
    """Both error columns fall strictly as the gate count grows.

    ``state_error_mean`` is the per-plan state error averaged over plans;
    ``mean_state_error`` despite its name is the trace distance of the
    trial-averaged channel output (the quantity ROADMAP item 3 renames).
    """
    rows = json.loads(output)["results"]["rows"]
    problems = []
    if [r["gates"] for r in rows] != sorted(r["gates"] for r in rows):
        problems.append("rows are not in increasing gate count")
    for column in ("state_error_mean", "mean_state_error"):
        values = [r[column] for r in rows]
        if not all(a > b for a, b in zip(values, values[1:])):
            problems.append(f"{column} does not fall strictly with G: {values}")
    return problems


def grouped_norm_ratio(output: str) -> float:
    res = json.loads(output)["results"]
    return res["grouped_norm"] / res["pauli_norm"]


def engineered_norm_ratio(output: str) -> float:
    res = json.loads(output)["results"]
    return res["engineered_norm"] / res["original_norm"]
