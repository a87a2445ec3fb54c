"""Format golden: labels, coefficients and order of the CLI's group results
and of the pauli-sum serializer, pinned on a fixed input.

``data/golden_10q_300.txt`` holds 300 distinct 10-qubit labels in random
order (numpy ``default_rng(20261018)``); every other coefficient is a
multiple of 1/4, so many magnitudes tie and the label tie-break is
exercised.  ``data/golden_10q_300.json`` holds the ``results`` of
``group --strategy sorted`` and ``group --strategy qwc`` on that file and
``serialize_pauli_sum`` of it, as produced before the label/index
conversions moved to the array codec.  The document text itself, up to
its time-valued ``"timings"``, is pinned by its SHA-256, so a change of
formatting alone (``-0`` for ``-0.0``, say) fails here too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pauliforge.cli import main
from pauliforge.model_io import load_pauli_sum, serialize_pauli_sum

DATA = Path(__file__).parent / "data"
INPUT = DATA / "golden_10q_300.txt"
EXPECTED = json.loads((DATA / "golden_10q_300.json").read_text(encoding="utf-8"))
# SHA-256 and length of each group document before its ',"timings"'
DOCUMENT_SHA256 = {
    "sorted": ("06779371c0e7f9c98bd5972bc9765315e5ec793ed7c23d1e2434b025e0f87714", 15237),
    "qwc": ("e47c1d464692ffed48df41e5ef518bc59c82c4a39cfdcebcb6cc0fbc7d7f7136", 15563),
}


@pytest.mark.parametrize("strategy", ["sorted", "qwc"])
def test_group_results(tmp_path, strategy):
    out = tmp_path / "result.json"
    assert main(["group", "--input", str(INPUT), "--strategy", strategy,
                 "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    head = text[:text.index(',"timings"')]
    assert (hashlib.sha256(head.encode("utf-8")).hexdigest(), len(head)) == \
        DOCUMENT_SHA256[strategy]
    got = json.loads(text)["results"]
    want = EXPECTED[strategy]
    assert got["strategy"] == want["strategy"]
    assert got["collection_count"] == want["collection_count"]
    # labels, coefficients, membership and order, exactly
    assert got["collections"] == want["collections"]
    for norm in ("grouped_norm", "pauli_norm"):
        assert got[norm] == pytest.approx(want[norm], rel=1e-12, abs=0)


def test_serialized_text():
    assert serialize_pauli_sum(load_pauli_sum(INPUT)) == EXPECTED["serialized"]
