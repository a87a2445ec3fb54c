"""End-to-end CLI behavior: outputs, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pauliforge
import pauliforge.cli as cli
from pauliforge.cli import main


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
