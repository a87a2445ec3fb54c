"""End-to-end CLI behavior: outputs, exit codes, reproducibility."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pauliforge
import pauliforge.cli as cli
from pauliforge.ansatz import CompiledAnsatz
from pauliforge.cli import main
from pauliforge.optimize import COST_KINDS, GRADIENT_MODES, METHODS, OptimizerConfig, optimize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timings(json_text: str) -> dict:
    doc = json.loads(json_text)
    doc.pop("timings", None)
    return doc


GOLDEN_TEXT = "3.0 XI\n-1.0 YY\n2.0 ZZ\n"


class TestEngineer:
    def test_ising_builder(self, capsys):
        code, out, err = run_cli(
            capsys, "engineer", "--ham", "ising-neighbor:4", "--depth", "2",
            "--restarts", "3", "--iterations", "30", "--seed", "42",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "engineer"
        assert doc["seed"] == 42
        assert doc["results"]["original_norm"] == 7.0
        assert doc["results"]["engineered_norm"] <= 7.0
        assert "original" in err and "engineered" in err

    def test_input_file_and_engineered_out(self, capsys, tmp_path):
        src = tmp_path / "golden.txt"
        src.write_text(GOLDEN_TEXT)
        eng = tmp_path / "engineered.txt"
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "engineer", "--input", str(src), "--restarts", "2",
            "--iterations", "20", "--output", str(out_path),
            "--engineered-out", str(eng),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["results"]["original_norm"] == 6.0
        from pauliforge.model_io import load_pauli_sum
        from pauliforge.hamiltonian import pauli_norm

        h_eng = load_pauli_sum(eng)
        assert np.isclose(pauli_norm(h_eng), doc["results"]["engineered_norm"], atol=1e-9)

    def test_missing_file_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.txt"
        code, _, err = run_cli(capsys, "engineer", "--input", str(missing))
        assert code == 2
        assert str(missing) in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("1.0 XI\nbroken\n")
        code, out, err = run_cli(capsys, "engineer", "--input", str(src))
        assert code == 2
        assert out == ""
        assert "line 2" in err


class TestGroup:
    def test_golden_file(self, capsys, tmp_path):
        src = tmp_path / "golden.txt"
        src.write_text(GOLDEN_TEXT)
        code, out, _ = run_cli(capsys, "group", "--input", str(src))
        assert code == 0
        doc = json.loads(out)
        assert np.isclose(doc["results"]["grouped_norm"], 3 + np.sqrt(5), atol=1e-9)
        assert doc["results"]["pauli_norm"] == 6.0
        assert doc["results"]["collection_count"] == 2

    def test_single_term(self, capsys, tmp_path):
        src = tmp_path / "one.txt"
        src.write_text("1.5 XZ\n")
        code, out, _ = run_cli(capsys, "group", "--input", str(src))
        assert code == 0
        assert json.loads(out)["results"]["collection_count"] == 1

    def test_qwc_strategy(self, capsys):
        code, out, _ = run_cli(capsys, "group", "--ham", "ising-neighbor:3",
                               "--strategy", "qwc")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["strategy"] == "sorted_insertion/qubit_wise"


    @pytest.mark.parametrize("strategy", ["sorted", "qwc"])
    def test_group_builds_no_object_per_term(self, capsys, tmp_path, strategy):
        """From parsed input to document, grouping runs on packed keys: no
        PauliString is made, so a per-term object round trip cannot come
        back unnoticed."""
        from pauliforge.grouping import sorted_insertion
        from pauliforge.model_io import save_pauli_sum
        from pauliforge.paulis import PauliString
        from pauliforge.results import stable_json
        from oracles import grouping_result_to_dict_reference, random_hamiltonian

        h = random_hamiltonian(5, 60, np.random.default_rng(16))
        src = tmp_path / "sum.txt"
        save_pauli_sum(h, src)
        made = AssertionError("a PauliString was made")
        with mock.patch.object(PauliString, "_from_valid_key", side_effect=made), \
                mock.patch.object(PauliString, "__init__", side_effect=made):
            code, out, _ = run_cli(capsys, "group", "--input", str(src), "--strategy", strategy)
        assert code == 0
        results = json.loads(out)["results"]
        del results["pauli_norm"]
        g = sorted_insertion(h, {"sorted": "general", "qwc": "qubit_wise"}[strategy])
        assert stable_json(results) == stable_json(grouping_result_to_dict_reference(g))


class TestQDrift:
    def test_error_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "qdrift", "--ham", "ising-neighbor:3", "--time", "0.5",
            "--gates", "20,80", "--trials", "40", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["results"]["rows"]
        assert [r["gates"] for r in rows] == [20, 80]
        assert rows[0]["state_error_mean"] > rows[1]["state_error_mean"]
        assert doc["results"]["gamma"] == 5.0


class TestEstimateQ:
    def test_analytic_matches_cost_q(self, capsys, tmp_path):
        src = tmp_path / "golden.txt"
        src.write_text(GOLDEN_TEXT)
        code, out, _ = run_cli(capsys, "estimate-q", "--input", str(src), "--shots", "0")
        assert code == 0
        doc = json.loads(out)
        from pauliforge.hamiltonian import Hamiltonian, vectorize
        from pauliforge.optimize import cost_q

        expected = cost_q(vectorize(Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0})))
        assert np.isclose(doc["results"]["q_value"], expected, atol=1e-12)

    def test_state_file_sampled(self, capsys, tmp_path):
        state = tmp_path / "state.txt"
        state.write_text("0.7071067811865476\n0.7071067811865476\n")
        code, out, _ = run_cli(capsys, "estimate-q", "--state", str(state),
                               "--shots", "20000", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["results"]["q_value"] - 0.5) < 0.05
        assert doc["results"]["shots"] == 20000

    def test_builder_input(self, capsys):
        code, out, _ = run_cli(capsys, "estimate-q", "--ham", "ising-neighbor:2")
        assert code == 0
        doc = json.loads(out)
        # 3 unit terms: normalized entries 1/sqrt(3) each, so Q = 3/9
        assert np.isclose(doc["results"]["q_value"], 1.0 / 3.0, atol=1e-12)

    def test_complex_state_file(self, capsys, tmp_path):
        state = tmp_path / "state.txt"
        state.write_text("0.6 0.0\n0.0 0.8\n")
        code, out, _ = run_cli(capsys, "estimate-q", "--state", str(state))
        assert code == 0
        assert np.isclose(json.loads(out)["results"]["q_value"],
                          0.6**4 + 0.8**4, atol=1e-12)

    def test_non_finite_amplitude_names_its_line(self, capsys, tmp_path):
        state = tmp_path / "state.txt"
        state.write_text("1.0\nnan 0.0\n")
        code, out, err = run_cli(capsys, "estimate-q", "--state", str(state))
        assert code == 2
        assert out == ""
        assert "line 2" in err


class TestCompare:
    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--family", "ising-neighbor", "--sizes", "2..4",
            "--restarts", "2", "--iterations", "20", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family,size,terms,norm_p")
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            norm_p, norm_p_eng = float(fields[3]), float(fields[4])
            assert norm_p_eng <= norm_p + 1e-12
            gp, gp_eng = float(fields[5]), float(fields[6])
            assert gp <= norm_p + 1e-12
            assert gp_eng <= norm_p_eng + 1e-12

    def test_each_size_compiles_once(self, capsys):
        """The record carries its layout, so pricing it runs no circuit."""
        built = []
        init = CompiledAnsatz.__init__

        def spy(engine, h, layout):
            built.append(h.n)
            init(engine, h, layout)

        with mock.patch.object(CompiledAnsatz, "__init__", spy):
            code, _, _ = run_cli(
                capsys, "compare", "--family", "ising-neighbor", "--sizes", "2..4",
                "--restarts", "2", "--iterations", "20", "--seed", "1",
            )
        assert code == 0
        assert built == [2, 3, 4]

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--family", "ising-neighbor",
                               "--sizes", "x..y")
        assert code == 2
        assert "sizes" in err


class TestFlagValidation:
    @pytest.mark.parametrize("argv, flag", [
        (("engineer", "--depth", "-1"), "--depth"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--depth", "-2"), "--depth"),
        (("qdrift", "--time", "nan"), "--time"),
        (("qdrift", "--time", "inf"), "--time"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--time=-inf"), "--time"),
        (("qdrift", "--trials", "0"), "--trials"),
        (("qdrift", "--trials", "-3"), "--trials"),
        (("qdrift", "--trials", "1"), "--trials"),
        (("qdrift", "--gates", "0"), "--gates"),
        (("qdrift", "--gates", "10,0"), "--gates"),
        (("qdrift", "--gates", "x"), "--gates"),
        (("compare", "--family", "ising-neighbor", "--sizes", "6", "--epsilon", "0"), "--epsilon"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--epsilon", "nan"),
         "--epsilon"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--learning-rate", "inf"),
         "learning_rate"),
        (("engineer", "--restarts", "0"), "restarts"),
        (("engineer", "--iterations", "0"), "max_iterations"),
        (("engineer", "--learning-rate", "0"), "learning_rate"),
        (("engineer", "--learning-rate", "nan"), "learning_rate"),
        (("estimate-q", "--shots", "-1"), "--shots"),
        (("engineer", "--seed", "-1"), "--seed"),
        (("group", "--seed", "-1"), "--seed"),
        (("qdrift", "--seed", "-1"), "--seed"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--seed", "-1"), "--seed"),
        (("estimate-q", "--shots", "9223372036854775808"), "--shots"),
        (("estimate-q", "--shots", "99999999999999999999999"), "--shots"),
    ])
    def test_rejected_before_any_work(self, capsys, tmp_path, argv, flag):
        # The input file does not exist: the flag error must come first.
        missing = str(tmp_path / "never-read.txt")
        if argv[0] != "compare":
            argv = (argv[0], "--input", missing) + argv[1:]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err
        assert "never-read" not in err

    def test_depth_zero_still_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "engineer", "--ham", "ising-neighbor:2", "--depth", "0",
                               "--restarts", "1", "--iterations", "2")
        assert code == 0
        assert json.loads(out)["results"]["engineered_norm"] == 3.0


class TestExitCodes:
    """Exit 2 marks bad input (parse errors and _InputError); any other
    ValueError, such as a capacity cap met by valid input, exits 1."""

    @pytest.mark.parametrize("argv, code, message", [
        (("estimate-q", "--ham", "ising-neighbor:4"), 1, "state register capped at 7 qubits, got 8"),
        (("qdrift", "--ham", "ising-neighbor:9", "--gates", "2", "--trials", "2"), 1,
         "qdrift error runs capped at 8 qubits, got 9"),
        (("group", "--ham", "ising-neighbor:1"), 2,
         "builder size in 'ising-neighbor:1' must be in 2..32, got 1"),
        (("group", "--ham", "ising-neighbor:33"), 2,
         "builder size in 'ising-neighbor:33' must be in 2..32, got 33"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2,33"), 2,
         "sizes must be in 2..32, got '2,33'"),
        (("qdrift", "--ham", "ising-neighbor:2", "--time", "1e308", "--gates", "1",
          "--trials", "2"), 2, "--time 1e+308 times the Pauli norm 3.0 is not finite"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--time", "1e200"), 2,
         "--time 1e+200 and --epsilon 0.01 give a qDrift gate count that is not finite at size 2"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2,3", "--epsilon", "1e-320"), 2,
         "--time 1.0 and --epsilon 1e-320 give a qDrift gate count that is not finite at size 2"),
        (("compare", "--family", "ising-neighbor", "--sizes", "3..2"), 2,
         "sizes range '3..2' is empty; need a..b with a <= b"),
        (("compare", "--family", "ising-neighbor", "--sizes", "2..1000000000000"), 2,
         "sizes must be in 2..32, got '2..1000000000000'"),
        # refused before the 4**n-entry coefficient vector is built, whatever n
        (("estimate-q", "--ham", "ising-neighbor:10"), 1,
         "state register capped at 7 qubits, got 20"),
        (("estimate-q", "--ham", "ising-neighbor:11"), 1,
         "state register capped at 7 qubits, got 22"),
        (("estimate-q", "--ham", "ising-neighbor:3", "--shots", "10"), 1,
         "state register capped at 4 qubits, got 6"),
    ])
    def test_code_and_message(self, capsys, argv, code, message):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("amplitudes", [1, 3, 6])
    def test_state_length_not_a_power_of_two(self, capsys, tmp_path, amplitudes):
        state = tmp_path / "state.txt"
        state.write_text("1.0\n" + "0.0\n" * (amplitudes - 1))
        code, out, err = run_cli(capsys, "estimate-q", "--state", str(state))
        assert code == 2
        assert out == ""
        assert err == (f"error: {state}: {amplitudes} amplitudes; "
                       "need a power of two >= 2\n")

    @pytest.mark.parametrize("argv", [("estimate-q", "--ham", "ising-neighbor:10"),
                                      ("estimate-q", "--ham", "ising-neighbor:11", "--shots", "5")])
    def test_state_register_capped_before_the_dense_vector(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "vectorize", lambda h: pytest.fail("vector built"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: state register capped at")

    @pytest.mark.parametrize("command", [("engineer", "--restarts", "1"), ("group",),
                                         ("qdrift",), ("estimate-q",)], ids=lambda c: c[0])
    @pytest.mark.parametrize("text", ["1e200 XX\n1e200 ZZ\n1e200 YY\n", "1e308 X\n1e308 Z\n"],
                             ids=["squares", "norm"])
    def test_coefficients_whose_norms_overflow_refused_at_load(self, capsys, monkeypatch,
                                                               tmp_path, command, text):
        """Finite coefficients whose Pauli norm or sum of squares overflows
        exit 2 with one message, before any work and without a warning."""
        for name in ("optimize", "sorted_insertion", "_RunSetup", "q_analytic"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work started"))
        src = tmp_path / "big.txt"
        src.write_text(text)
        code, out, err = run_cli(capsys, command[0], "--input", str(src), *command[1:])
        assert code == 2
        assert out == ""
        assert err == (f"error: {src}: coefficients too large; the Pauli norm or the sum "
                       "of their squares overflows\n")

    def test_file_not_utf8(self, capsys, tmp_path):
        src = tmp_path / "binary.txt"
        src.write_bytes(b"1.0 X\xff\n")
        code, out, err = run_cli(capsys, "group", "--input", str(src))
        assert code == 2
        assert out == ""
        assert err == f"error: {src}: not UTF-8 text\n"


class TestPathErrors:
    """A path that cannot be read or written exits 2 with the path and the
    system's reason, and output paths are refused before any work."""

    ENGINEER = ("engineer", "--ham", "ising-neighbor:4", "--restarts", "3", "--iterations", "40")

    @pytest.mark.parametrize("argv, reason", [
        (("group", "--input", "{dir}"), errno.EISDIR),
        (("estimate-q", "--state", "{dir}"), errno.EISDIR),
        (("group", "--ham", "ising-neighbor:3", "--output", "{dir}"), errno.EISDIR),
        (ENGINEER + ("--engineered-out", "{dir}"), errno.EISDIR),
        (ENGINEER + ("--output", "{dir}/nonexist/o.json"), errno.ENOENT),
    ], ids=["input_dir", "state_dir", "output_dir", "engineered_out_dir", "output_parent_missing"])
    def test_exit_2_with_path_and_reason(self, capsys, tmp_path, argv, reason):
        argv = [a.format(dir=tmp_path) for a in argv]
        path = argv[-1]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {os.strerror(reason)}\n"
        assert "pauli norm:" not in err

    def test_output_check_creates_and_truncates_nothing(self, capsys, tmp_path):
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.txt"
        kept.write_text("keep")
        code, out, _ = run_cli(capsys, *self.ENGINEER, "--output", str(kept),
                               "--engineered-out", str(tmp_path))
        assert (code, out) == (2, "")
        code, out, _ = run_cli(capsys, *self.ENGINEER, "--output", str(tmp_path),
                               "--engineered-out", str(fresh))
        assert (code, out) == (2, "")
        assert kept.read_text() == "keep"
        assert not fresh.exists()


class TestReproducibility:
    @pytest.mark.parametrize("argv", [
        ("engineer", "--ham", "ising-neighbor:3", "--restarts", "2",
         "--iterations", "15", "--seed", "11"),
        ("group", "--ham", "ising-all-to-all:3", "--seed", "5"),
        ("qdrift", "--ham", "ising-neighbor:2", "--time", "0.3", "--gates", "25",
         "--trials", "20", "--seed", "2"),
    ])
    def test_byte_identical_modulo_timings(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert strip_timings(out1) == strip_timings(out2)
        from pauliforge.results import stable_json

        assert stable_json(strip_timings(out1)) == stable_json(strip_timings(out2))

    def test_parser_built_once_matches_fresh_processes(self, capsys, monkeypatch):
        """main parses with one parser per process.  Different subcommands
        run back to back in one process, with a rejected flag between
        them, print the bytes that fresh processes print."""
        runs = [
            ("engineer", "--ham", "ising-neighbor:3", "--restarts", "2",
             "--iterations", "5", "--seed", "3"),
            ("group", "--ham", "ising-all-to-all:3", "--strategy", "qwc", "--seed", "1"),
            ("estimate-q", "--ham", "ising-neighbor:2"),
        ]
        main(list(runs[2]))
        capsys.readouterr()
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
        in_process = []
        for argv in runs:
            with pytest.raises(SystemExit):
                main(["group", "--strategy", "none"])
            capsys.readouterr()
            code, out, err = run_cli(capsys, *argv)
            assert code == 0
            in_process.append((out, err))
        from pauliforge.results import stable_json

        env = dict(os.environ, PYTHONPATH=str(Path(pauliforge.__file__).parents[1]))
        for argv, (out, err) in zip(runs, in_process):
            fresh = subprocess.run([sys.executable, "-m", "pauliforge.cli", *argv], env=env,
                                   capture_output=True, text=True, check=True)
            assert stable_json(strip_timings(fresh.stdout)) == stable_json(strip_timings(out))
            assert fresh.stderr == err

    def test_pipeline_engineer_then_group(self, capsys, tmp_path):
        src = tmp_path / "golden.txt"
        src.write_text(GOLDEN_TEXT)
        eng = tmp_path / "eng.txt"
        code, out, _ = run_cli(capsys, "engineer", "--input", str(src),
                               "--restarts", "3", "--iterations", "40",
                               "--seed", "2", "--engineered-out", str(eng))
        assert code == 0
        norm_p = json.loads(out)["results"]["original_norm"]
        norm_p_eng = json.loads(out)["results"]["engineered_norm"]
        code, out, _ = run_cli(capsys, "group", "--input", str(eng))
        assert code == 0
        doc = json.loads(out)
        # four-way comparison structure: ||H'||_gp <= ||H'||_p <= ||H||_p
        assert doc["results"]["grouped_norm"] <= norm_p_eng + 1e-9
        assert norm_p_eng <= norm_p + 1e-12


class TestOptimizerFlags:
    """OptimizerConfig is the one source of the optimizer flags' defaults
    and allowed values: the parser passes it only the flags given."""

    @staticmethod
    def spy_configs(monkeypatch) -> list:
        """The configs the commands hand ``optimize``, which still runs."""
        configs = []

        def spy(h, layout, config):
            configs.append(config)
            return optimize(h, layout, config)

        monkeypatch.setattr(cli, "optimize", spy)
        return configs

    @pytest.mark.parametrize("argv", [
        ("engineer", "--ham", "ising-neighbor:2"),
        ("compare", "--family", "ising-neighbor", "--sizes", "2"),
    ])
    def test_no_optimizer_flags_run_the_default_config(self, capsys, monkeypatch, argv):
        configs = self.spy_configs(monkeypatch)
        code, _, _ = run_cli(capsys, *argv, "--seed", "7")
        assert code == 0
        assert configs == [OptimizerConfig(seed=7)]

    def test_given_flags_reach_the_config(self, capsys, monkeypatch):
        configs = self.spy_configs(monkeypatch)
        code, _, _ = run_cli(capsys, "engineer", "--ham", "ising-neighbor:2", "--seed", "3",
                             "--restarts", "2", "--iterations", "4", "--learning-rate", "0.05",
                             "--cost", "q", "--method", "plain",
                             "--gradient", "central_difference")
        assert code == 0
        assert configs == [OptimizerConfig(
            cost_kind="q", max_iterations=4, restarts=2, learning_rate=0.05,
            gradient_mode="central_difference", seed=3, method="plain")]

    @pytest.mark.parametrize("flag, field, allowed", [
        ("--method", "method", METHODS),
        ("--cost", "cost_kind", COST_KINDS),
        ("--gradient", "gradient_mode", GRADIENT_MODES),
    ])
    @pytest.mark.parametrize("command", ["engineer", "compare"])
    def test_bad_choice_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                command, flag, field, allowed):
        monkeypatch.setattr(cli, "optimize", lambda *a: pytest.fail("optimizer ran"))
        out_path, eng = tmp_path / "out.json", tmp_path / "eng.txt"
        if command == "engineer":
            # the input file does not exist: the flag error must come first
            argv = ("engineer", "--input", str(tmp_path / "never-read.txt"),
                    "--engineered-out", str(eng))
        else:
            argv = ("compare", "--family", "ising-neighbor", "--sizes", "2")
        code, out, err = run_cli(capsys, *argv, "--output", str(out_path), flag, "bogus")
        assert code == 2
        assert out == ""
        assert err == f"error: {field} must be one of {allowed}, got 'bogus'\n"
        assert not out_path.exists() and not eng.exists()


def _loaded_modules(*python_args) -> tuple[int, set[str]]:
    """Exit code and the pauliforge modules a fresh interpreter loads
    running ``python -X importtime <python_args>``, read off the import
    time log, where a command's deferred imports must show too."""
    env = dict(os.environ, PYTHONPATH=str(Path(pauliforge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *python_args], env=env,
                          capture_output=True, text=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, {name for name in names if name.startswith("pauliforge.")}


_FRONT_END = {f"pauliforge.{m}" for m in ("cli", "paulis", "hamiltonian", "model_io", "results")}
_RUN_MAIN = "import sys; from pauliforge.cli import main; sys.exit(main(sys.argv[1:]))"
_ENGINEER = ("engineer", "--ham", "ising-neighbor:2", "--restarts", "1", "--iterations", "1")
_QDRIFT = ("qdrift", "--ham", "ising-neighbor:2", "--gates", "2", "--trials", "2")
# Each lazily bound name of pauliforge.cli, with a command that calls it.
_CALL_CASES = [
    ("hardware_efficient_layout", _ENGINEER),
    ("OptimizerConfig", _ENGINEER),
    ("optimize", _ENGINEER),
    ("sorted_insertion", ("group", "--ham", "ising-neighbor:3")),
    ("qdrift_error", _QDRIFT),
    ("qdrift_channel_error", _QDRIFT),
    ("_RunSetup", _QDRIFT),
    ("engineered_qdrift_cost", ("compare", "--family", "ising-neighbor", "--sizes", "2",
                                "--restarts", "1", "--iterations", "1")),
    ("_check_register", ("estimate-q", "--ham", "ising-neighbor:2")),
    ("q_analytic", ("estimate-q", "--ham", "ising-neighbor:2")),
    ("q_full_circuit", ("estimate-q", "--ham", "ising-neighbor:2", "--shots", "10")),
]


class TestLazyLoading:
    """Each command imports the front end and only the library modules it
    runs; the names it loads stay attributes of ``pauliforge.cli``, the
    ones a tracer rebinds and the commands call."""

    @pytest.mark.parametrize("argv, code, modules", [
        (("group", "--ham", "ising-neighbor:3"), 0, {"grouping"}),
        (_QDRIFT, 0, {"dense", "dynamics"}),
        (_ENGINEER, 0, {"ansatz", "optimize"}),
        (("estimate-q", "--ham", "ising-neighbor:2"), 0, {"qestimate"}),
        (("compare", "--family", "ising-neighbor", "--sizes", "2", "--restarts", "1",
          "--iterations", "1"), 0, {"ansatz", "optimize", "grouping", "dense", "dynamics"}),
        (("engineer", "--ham", "ising-neighbor:2", "--depth", "-1"), 2, set()),
    ], ids=["group", "qdrift", "engineer", "estimate-q", "compare", "bad-flag"])
    def test_command_loads_only_its_modules(self, argv, code, modules):
        got, loaded = _loaded_modules("-c", _RUN_MAIN, *argv)
        assert got == code
        assert loaded == _FRONT_END | {f"pauliforge.{m}" for m in modules}

    def test_run_as_main_loads_only_its_modules(self):
        """Under ``python -m`` the module runs as __main__, and its first
        lookups load the same modules."""
        got, loaded = _loaded_modules("-m", "pauliforge.cli", *_ENGINEER)
        assert got == 0
        assert loaded == (_FRONT_END - {"pauliforge.cli"}) | {"pauliforge.ansatz",
                                                              "pauliforge.optimize"}

    @pytest.mark.parametrize("name, argv", _CALL_CASES, ids=[name for name, _ in _CALL_CASES])
    def test_command_calls_the_name_bound_on_cli(self, capsys, monkeypatch, name, argv):
        calls = []
        original = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls

    def test_every_lazy_name_has_a_call_case(self):
        assert {name for name, _ in _CALL_CASES} == set(cli._LAZY)

    def test_names_resolve_in_a_fresh_interpreter(self):
        """The names a tracer wraps on pauliforge.cli resolve before any
        command has run, loading their modules then."""
        code = (
            "import sys, pauliforge.cli as cli\n"
            "names = ('optimize', 'hardware_efficient_layout', 'sorted_insertion',\n"
            "         'qdrift_error', 'qdrift_channel_error')\n"
            "assert 'pauliforge.optimize' not in sys.modules\n"
            "assert all(hasattr(cli, n) for n in names)\n"
            "assert all(hasattr(cli, n) for n in cli._LAZY)\n"
            "assert 'pauliforge.optimize' in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pauliforge.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True)
        assert result.returncode == 0, result.stderr

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            cli.no_such_name
        assert not hasattr(cli, "sorted_insertions")
