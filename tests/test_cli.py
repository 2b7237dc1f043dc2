"""CLI contract tests: JSON-only stdout, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from voachain.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalCommands:
    def test_eisenstein_odd_is_zero_series(self, capsys):
        code, out, _ = run_cli(["eval-eisenstein", "--k", "3", "--order", "10"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["series"]["coeffs"] == []

    def test_eisenstein_even(self, capsys):
        code, out, _ = run_cli(["eval-eisenstein", "--k", "2", "--order", "4"], capsys)
        doc = json.loads(out)
        assert code == 0
        coeffs = {e: re for e, re, im in doc["series"]["coeffs"]}
        assert coeffs[0] == "-1/12"
        assert coeffs[1] == "2"

    def test_eisenstein_invalid_k(self, capsys):
        code, out, _ = run_cli(["eval-eisenstein", "--k", "1"], capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_weierstrass(self, capsys):
        code, out, _ = run_cli(
            ["eval-weierstrass", "--k", "2", "--z-re", "0.4", "--tau-im", "1.5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert not doc["flagged"]

    def test_pm_outside_annulus_rejected(self, capsys):
        code, out, _ = run_cli(
            ["eval-pm", "--m", "1", "--z-re", "1.0", "--z-im", "0.0",
             "--tau-im", "1.5"],
            capsys,
        )
        assert code == 2
        assert "annulus" in json.loads(out)["error"]["message"]

    def test_f0(self, capsys):
        code, out, _ = run_cli(
            ["eval-f0", "--n", "1", "--m", "0", "--z", "5", "--w", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        # w/(z(z-w)) at (5,2) = 2/15
        assert doc["value_at"]["value"]["rational"] == "2/15"
        assert all(we >= 1 for _, we, _ in doc["iota"])


@pytest.fixture
def write_config(tmp_path):
    def _write(text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    return _write


class TestNpoint:
    def test_oracle_equals_reduction_genus1(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 1
[insertions]
states = a, a
points = 5, 2
[truncation]
q_order = 8
weight_cutoff = 12
"""
        )
        code_o, out_o, _ = run_cli(["npoint", "--config", cfg, "--oracle"], capsys)
        code_r, out_r, _ = run_cli(["npoint", "--config", cfg, "--reduction"], capsys)
        assert code_o == 0 and code_r == 0
        doc_o, doc_r = json.loads(out_o), json.loads(out_r)
        assert doc_o["result"]["series"]["coeffs"] == doc_r["result"]["series"]["coeffs"]

    def test_genus0(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 0
[insertions]
states = a, a
points = 3, 1
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"]["rational"] == "1/4"

    def test_missing_config(self, capsys):
        code, out, _ = run_cli(["npoint", "--config", "/nonexistent.cfg"], capsys)
        assert code == 2

    def test_genus_flag_overrides_config(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 1
[insertions]
states = a, a
points = 3, 1
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg, "--genus", "0"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"]["rational"] == "1/4"

    def test_cutoff_too_small_rejected(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 1
[insertions]
states = a
points = 2
[truncation]
q_order = 8
weight_cutoff = 6
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 2
        assert "cutoff" in json.loads(out)["error"]["message"]

    def test_genus2_npoint(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 2
[insertions]
states = a
points = 5
[schottky]
genus = 2
rho = 0.01, 0.02
points = -1, 1, -3, 3
[truncation]
rho_orders = 3, 2
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["series"]["variable"] == "rho2"

    @pytest.mark.parametrize("path", ["--oracle", "--reduction"])
    @pytest.mark.parametrize("points", ["0, 2", "2, 0"])
    def test_torus_point_zero_rejected(self, write_config, capsys, path, points):
        # x = e^z never vanishes: a validation error, not a traceback
        cfg = write_config(
            f"""
[experiment]
genus = 1
[insertions]
states = a, a
points = {points}
[truncation]
q_order = 3
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg, path], capsys)
        assert code == 2
        assert "x = e^z" in json.loads(out)["error"]["message"]

    def test_genus2_npoint_needs_genus2_schottky(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 2
[insertions]
states = a
points = 5
[schottky]
genus = 1
rho = 0.01
points = -1, 1
[truncation]
rho_orders = 3
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 2
        assert "SchottkyData" in json.loads(out)["error"]["message"]

    def test_determinism_byte_identical(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 1
[insertions]
states = a, a
points = 5, 2
[truncation]
q_order = 6
"""
        )
        _, out1, _ = run_cli(["npoint", "--config", cfg], capsys)
        _, out2, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert out1 == out2


class TestSewPartition:
    def test_sew_partition_counts(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 0
[insertions]
states =
points =
[truncation]
rho_order = 6
"""
        )
        code, out, _ = run_cli(["sew", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        coeffs = {e: re for e, re, im in doc["result"]["series"]["coeffs"]}
        assert [coeffs[k] for k in range(6)] == ["1", "1", "2", "3", "5", "7"]

    def test_partition_genus2(self, write_config, capsys):
        cfg = write_config(
            """
[schottky]
genus = 2
rho = 0.01, 0.02
points = -1, 1, -3, 3
[truncation]
rho_orders = 3, 2
"""
        )
        code, out, _ = run_cli(["partition", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["series"]["variable"] == "rho2"


class TestCheckComplex:
    def test_vacuum_suite_passes(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
kinds = n, g, gn
[element]
genus = 0
states = a, a
points = 7, 9
[descriptors]
x1_state = 1
x1_point = 11
x2_state = 1
x2_point = 13
[truncation]
rho_order = 3
[assert]
expect_zero = true
tolerance = 1e-9
"""
        )
        code, out, _ = run_cli(["check-complex", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(rep["residual"] == 0 for rep in doc["reports"])


    def test_nonzero_residual_with_assert_exits_3(self, write_config, capsys):
        # the mixed commutation at a nontrivial insertion picks up the
        # chart drift of the fixed-pair sewing prescription (even-parity
        # output: the one-point of a extended by another a)
        cfg = write_config(
            """
[experiment]
kinds = gn
[element]
genus = 0
states = a
points = 7
[descriptors]
x1_state = a
x1_point = 11
[truncation]
rho_order = 3
[assert]
expect_zero = true
tolerance = 1e-12
"""
        )
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        doc = json.loads(out)
        assert doc["reports"][0]["residual"] > 1e-12
        assert code == 3
        assert "tolerance" in err


    def test_skipped_check_with_assert_exits_3(self, write_config, capsys):
        # the handle-exchange check leaves the genus window for a genus-1
        # element; computing nothing, it cannot pass a zero assertion
        cfg = write_config(
            """
[experiment]
kinds = g
[element]
genus = 1
states = a
points = 7
[truncation]
q_order = 3
rho_order = 2
[assert]
expect_zero = true
"""
        )
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        assert code == 3
        report = json.loads(out)["reports"][0]
        assert "skipped" in report["detail"]
        assert "'g' skipped" in err and "beyond" in err

    def test_unequal_element_lists_rejected(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
kinds = n
[element]
genus = 0
states = a, a, a
points = 7, 9
"""
        )
        code, out, _ = run_cli(["check-complex", "--config", cfg], capsys)
        assert code == 2
        assert "[element]" in json.loads(out)["error"]["message"]

class TestReduce:
    def test_round_trip(self, write_config, capsys):
        cfg = write_config(
            """
[experiment]
genus = 1
[insertions]
states = a, a
points = 5, 2
[truncation]
q_order = 8
[tolerance]
float_tol = 1e-10
"""
        )
        code, out, _ = run_cli(["reduce", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["round_trip_residual"] == 0


class TestConnection:
    def test_report_only(self, write_config, capsys):
        cfg = write_config(
            """
[element]
genus = 0
states = a, a
points = 7, 9
[descriptor]
state = a
point = 11
[truncation]
rho_order = 4
"""
        )
        code, out, _ = run_cli(["connection", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["components"]) == {"sewing_term", "middle_term", "bracket_term"}

    def test_vanishing_assertion_failure_exits_3(self, write_config, capsys):
        cfg = write_config(
            """
[element]
genus = 0
states = 1
points = 7
[descriptor]
state = 1
point = 11
[assert]
vanishing = true
"""
        )
        code, out, err = run_cli(["connection", "--config", cfg], capsys)
        assert code == 3


    def test_unequal_element_lists_rejected(self, write_config, capsys):
        cfg = write_config(
            """
[element]
genus = 0
states = a, a, a
points = 7, 9
"""
        )
        code, out, _ = run_cli(["connection", "--config", cfg], capsys)
        assert code == 2
        assert "[element]" in json.loads(out)["error"]["message"]

class TestCohomology:
    def test_report_with_oracle(self, write_config, capsys):
        cfg = write_config(
            """
[probe]
pool = 1, a, aa
points = 3, 1, -2
g_max = 1
n_max = 2
[experiment]
m = 1
"""
        )
        code, out, _ = run_cli(["cohomology", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["rank_dm"] == rep["rank_dm_exact_oracle"]
        assert rep["rank_dm"] + rep["dim_kernel"] == rep["dim_domain"]


class TestSubprocessEntry:
    def test_module_invocation_and_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voachain.cli", "--bogus-flag"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
        assert proc.stdout == ""

    def test_module_invocation_success(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voachain.cli", "eval-eisenstein", "--k", "4",
             "--order", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "eval-eisenstein"
