"""The benchmark's contract with the library.

perfbench/ drives pauliforge from outside: its tracer swaps named module
attributes for wrappers, its replays call the public gate conjugators,
and its checks read the CLI's output.  A refactor that renames one of
those names or changes one of those calls breaks the benchmark; these
tests make it fail in the test suite first.  Each runs in a subprocess
with perfbench/ on sys.path, as the benchmark itself runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_python(args, timeout):
    path = [str(PERFBENCH), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)


TRACED_NAMES = """
import importlib
import tracing
for module, attribute, _ in tracing.SPANNED + tracing.COUNTED + tracing.TIMED:
    assert hasattr(importlib.import_module(module), attribute), (module, attribute)
# the replay conjugates gate by gate through conjugate_rotation(h, "X", q, theta)
replay = tracing.gate_replay(1, sizes=(2, 3), depth=1, repeats=1)
assert set(replay) == {"ansatz.rotation_us", "ansatz.cz_us"}, replay
"""


def test_traced_names_resolve_and_gate_replay_runs():
    result = run_python(["-c", TRACED_NAMES], timeout=120)
    assert result.returncode == 0, result.stderr


def test_benchmark_selftest_passes():
    """Every output check accepts a real output and rejects a corrupted one."""
    result = run_python([str(PERFBENCH / "selftest.py")], timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
