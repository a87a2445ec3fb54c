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


EVERY_SPAN_RECORDS = """
import importlib
import sys
import tempfile
from pathlib import Path
import tracing
for module, _, _ in tracing.SPANNED + tracing.TIMED:
    importlib.import_module(module)
rec = tracing.Recorder()
rec.install()
try:
    cli = sys.modules["pauliforge.cli"]
    with tempfile.TemporaryDirectory() as work:
        out, terms = Path(work, "engineered.txt"), Path(work, "terms.txt")
        terms.write_text("3 XI\\n-1 YY\\n2 ZZ\\n", encoding="utf-8")
        for argv in (["engineer", "--ham", "ising-neighbor:2", "--depth", "1", "--restarts", "1",
                      "--iterations", "2", "--engineered-out", str(out)],
                     ["group", "--input", str(terms)],
                     ["qdrift", "--ham", "ising-neighbor:2", "--time", "0.5", "--gates", "3",
                      "--trials", "2"]):
            assert cli.main([*argv, "--output", str(Path(work, "doc.json"))]) == 0, argv
finally:
    rec.uninstall()
recorded = {span[0] for span in rec.spans}
missing = [name for _, _, name in tracing.SPANNED if name not in recorded]
assert not missing, missing
"""


def test_every_span_records_in_the_commands_it_times():
    """Each SPANNED name wraps a function that engineer, group or qdrift
    calls, so no traced span metric reads 0 because its wrapper never runs."""
    result = run_python(["-c", EVERY_SPAN_RECORDS], timeout=120)
    assert result.returncode == 0, result.stderr


def test_benchmark_selftest_passes():
    """Every output check accepts a real output and rejects a corrupted one."""
    result = run_python([str(PERFBENCH / "selftest.py")], timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
