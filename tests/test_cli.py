"""CLI contract tests: JSON-only stdout, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from voachain.cli import main, read_config
from voachain.complexes import apply_Dn
from voachain.correlators import torus_trace
from voachain.series import _parse_frac
from voachain.voa import A_VECTOR


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

    @pytest.mark.parametrize("argv, message", [
        (["eval-pm", "--m", "0"], "kernel order must be >= 1"),
        (["eval-pm", "--m", "-1"], "kernel order must be >= 1"),
        (["eval-pm", "--m", "2", "--terms", "-1"], "--terms: truncation order -1 is negative"),
        (["eval-weierstrass", "--terms", "-3"], "--terms: truncation order -3 is negative"),
        (["eval-eisenstein", "--k", "4", "--order", "-1"],
         "--order: truncation order -1 is negative"),
        (["eval-f0", "--n", "2", "--m", "1", "--iota-order", "-1"],
         "--iota-order: truncation order -1 is negative"),
        (["eval-f0", "--n", "1", "--m", "0", "--z", "5"],
         "--z and --w name one point: give both or neither"),
        (["eval-f0", "--n", "1", "--m", "0", "--w", "5"],
         "--z and --w name one point: give both or neither"),
        (["eval-f0", "--n", "1", "--m", "0", "--z", "abc"], "cannot parse scalar 'abc'"),
    ], ids=["pm-m0", "pm-m-1", "pm-terms", "weierstrass-terms", "eisenstein-order",
            "f0-iota-order", "f0-lone-z", "f0-lone-w", "f0-lone-bad-z"])
    def test_bad_argument_is_a_validation_error(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(out) == {"command": argv[0],
                                   "error": {"kind": "validation", "message": message}}
        assert "Traceback" not in err

    def test_f0_at_a_point_of_any_size(self, capsys):
        code, out, _ = run_cli(
            ["eval-f0", "--n", "1", "--m", "0", "--z", "1e-5000", "--w", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        z = Fraction(1, 10**5000)
        assert _parse_frac(doc["value_at"]["z"]) == z
        assert _parse_frac(doc["value_at"]["value"]["rational"]) == 2 / (z * (z - 2))


@pytest.fixture
def write_config(tmp_path):
    def _write(text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    return _write


def check_oracle_equals_reduction(text, write_config, capsys, monkeypatch):
    import voachain.cli as cli

    steps = []
    monkeypatch.setattr(cli, "apply_Dn",
                        lambda *a: steps.append(a) or apply_Dn(*a))
    cfg = write_config(text)
    code_o, out_o, _ = run_cli(["npoint", "--config", cfg, "--oracle"], capsys)
    assert steps == []
    code_r, out_r, _ = run_cli(["npoint", "--config", cfg, "--reduction"], capsys)
    assert code_o == 0 and code_r == 0
    doc_o, doc_r = json.loads(out_o), json.loads(out_r)
    # one reduction step per insertion, from the zero-point element
    assert len(steps) == len(doc_r["config"]["insertions"]["states"].split(","))
    assert doc_r["path"] == "reduction"
    assert doc_r["result"]["series"]["coeffs"]
    assert doc_o["result"]["series"]["coeffs"] == doc_r["result"]["series"]["coeffs"]


class TestNpoint:
    def test_oracle_equals_reduction_genus1(self, write_config, capsys, monkeypatch):
        check_oracle_equals_reduction(
            """
[experiment]
genus = 1
[insertions]
states = a, a
points = 5, 2
[truncation]
q_order = 8
weight_cutoff = 12
""", write_config, capsys, monkeypatch)

    def test_oracle_equals_reduction_genus2(self, write_config, capsys, monkeypatch):
        check_oracle_equals_reduction(
            """
[experiment]
genus = 2
[insertions]
states = a, omega, [2]
points = 5, 2, -3
[schottky]
genus = 2
points = -1, 1, -4, 4
[truncation]
rho_orders = 3, 2
""", write_config, capsys, monkeypatch)

    def test_genus0_close_large_points(self, write_config, capsys):
        # 10**17 and 10**17 + 1 round to one complex, but they are distinct
        # points: <a(z1) a(z2)> = (z1 - z2)^-2 = 1
        cfg = write_config(
            """
[experiment]
genus = 0
[insertions]
states = a, a
points = 100000000000000000, 100000000000000001
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"]["rational"] == "1"

    def test_genus0_huge_point_beside_a_complex_point(self, write_config, capsys):
        # 10**400 has no float value, so it cannot enter the complex
        # arithmetic at 1j: a validation error, not an overflow
        cfg = write_config(
            f"""
[experiment]
genus = 0
[insertions]
states = a, a
points = {10**400}, 1j
"""
        )
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 2
        assert "beyond the float range" in json.loads(out)["error"]["message"]

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

    def test_exact_values_of_any_size_are_printed(self, write_config, capsys):
        # <a(z1) a(z2)> = (z1 - z2)^-2 = 10^6000 at (10^-3000, 0): more
        # digits than str() gives an int by default
        cfg = write_config(GENUS0_AA.replace("3, 1", "1e-3000, 0"))
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 0
        assert _parse_frac(json.loads(out)["result"]["value"]["rational"]) == 10**6000

    def test_exact_trace_of_any_size_is_printed_by_the_reduction(self, write_config, capsys):
        points = (Fraction(1, 10**200), Fraction(10**200))
        cfg = write_config(GENUS1_AA.replace("5, 2", "1e-200, 1e200")
                           + "[truncation]\nq_order = 5\n")
        code, out, _ = run_cli(["npoint", "--config", cfg, "--reduction"], capsys)
        assert code == 0
        coeffs = json.loads(out)["result"]["series"]["coeffs"]
        assert max(len(re) for _, re, _ in coeffs) > 5000
        want = torus_trace([(A_VECTOR, x) for x in points], 5)
        assert {k: _parse_frac(re) for k, re, _ in coeffs} == want.coefficients

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

    @pytest.mark.parametrize("line, code", [
        ("rho = 0.01, x", 0), ("p = one", 2), ("f_coeffs = 0 1", 2), ("mode_cutoff = -4", 2),
        ("neumann_order = 1.5", 2),
    ], ids=["rho", "p", "f_coeffs", "mode_cutoff", "neumann_order"])
    def test_retired_kernel_keys_are_not_read(self, write_config, capsys, line, code):
        # the genus-g sums are exact, so the keys of the removed float
        # kernels are not read: `rho`, which the benchmark's configs still
        # carry, is accepted unparsed (the same series as without it), and
        # every other one is refused by name
        base = "[schottky]\ngenus = 2\npoints = -1, 1, -3, 3\n[truncation]\nrho_orders = 2, 2\n"
        code_b, out_b, _ = run_cli(["partition", "--config", write_config(base)], capsys)
        stale = base.replace("points =", line + "\npoints =")
        code_s, out_s, _ = run_cli(["partition", "--config", write_config(stale)], capsys)
        assert code_b == 0 and code_s == code
        if code:
            key = line.split()[0]
            assert (f"partition takes no key {key!r} in [schottky]"
                    in json.loads(out_s)["error"]["message"])
        else:
            assert json.loads(out_s)["series"] == json.loads(out_b)["series"]

    def test_handle_points_are_read_from_points_alone(self, write_config, capsys):
        # `points` is the one key for the handle points: a config that
        # gives them as `w` names no points
        cfg = write_config("[schottky]\ngenus = 2\nw = -1, 1, -3, 3\n"
                           "[truncation]\nrho_orders = 2, 2\n")
        code, out, _ = run_cli(["partition", "--config", cfg], capsys)
        assert code == 2
        assert "points" in json.loads(out)["error"]["message"]


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


    def test_weighted_mixed_commutation_is_exactly_zero(self, write_config, capsys):
        # Dg Dn(x) = Dn(x) Dg for a weighted x at an even leg count: the
        # sewn sphere reduces as the direct genus-g sums do
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
        code, out, _ = run_cli(["check-complex", "--config", cfg], capsys)
        doc = json.loads(out)
        assert doc["reports"][0]["residual"] == 0
        assert doc["reports"][0]["composition_norm"] > 0
        assert code == 0

    def test_genus1_mixed_commutation_is_computed(self, write_config, capsys):
        # the sewn trace reduces, so the gn check on a genus-1 element is
        # computed, not skipped, and its residual is exactly 0
        cfg = write_config(
            """
[experiment]
kinds = gn
[element]
genus = 1
states = a
points = 7
[descriptors]
x1_state = a
x1_point = 11
[truncation]
q_order = 3
rho_order = 2
[assert]
expect_zero = true
tolerance = 0
"""
        )
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        report = json.loads(out)["reports"][0]
        assert "skipped" not in report["detail"] and "skipped" not in err
        assert report["residual"] == 0 and report["composition_norm"] > 0
        assert code == 0

    def test_nonzero_residual_with_assert_exits_3(self, write_config, capsys, monkeypatch):
        import voachain.cli as cli
        from voachain.complexes import ConditionReport

        monkeypatch.setattr(cli, "check_chain_conditions", lambda suite: [
            ConditionReport(kind="gn", residual=0.5, composition_norm=1.0, detail={})])
        cfg = write_config(
            "[experiment]\nkinds = gn\n[element]\nstates = a\npoints = 7\n"
            "[assert]\nexpect_zero = true\ntolerance = 1e-12\n"
        )
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        assert json.loads(out)["reports"][0]["residual"] == 0.5
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

PROBE = """
[probe]
pool = 1, a, aa
points = 3, 1, -2
g_max = 1
n_max = 2
[experiment]
m = 1
"""


class TestCohomology:
    def test_report_rank_nullity(self, write_config, capsys):
        code, out, _ = run_cli(["cohomology", "--config", write_config(PROBE)], capsys)
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["rank_dm"], rep["rank_dm_minus_1"]) == (4, 1)
        assert rep["rank_dm"] + rep["dim_kernel"] == rep["dim_domain"]

    def test_no_betti_where_the_maps_do_not_compose_to_zero(self, write_config, capsys):
        code, out, err = run_cli(["cohomology", "--config", write_config(PROBE)], capsys)
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["non_complex"], rep["composition_residual"]) == (True, 1)
        assert rep["betti"] is None
        assert "do not compose to zero" in err

    def test_betti_of_a_complex(self, write_config, capsys):
        cfg = write_config(PROBE.replace("n_max = 2\n", "n_max = 2\nzero_dn = true\n"))
        code, out, err = run_cli(["cohomology", "--config", cfg], capsys)
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["non_complex"], rep["composition_residual"], rep["betti"]) == (False, 0, 0)
        assert err == ""


    def test_unknown_pool_state_rejected(self, write_config, capsys):
        cfg = write_config(PROBE.replace("pool = 1, a, aa", "pool = 1, bogus"))
        code, out, _ = run_cli(["cohomology", "--config", cfg], capsys)
        assert code == 2
        assert "unknown state 'bogus'" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("index", [3, -1])
    def test_descriptor_outside_the_pool_rejected(self, write_config, capsys, index):
        # the D^n label map appends the pool state it names: one past the
        # pool would drop every D^n entry of the matrix
        cfg = write_config(PROBE.replace("n_max = 2\n",
                                         f"n_max = 2\ndescriptor_pool_index = {index}\n"))
        code, out, _ = run_cli(["cohomology", "--config", cfg], capsys)
        assert code == 2
        assert "descriptor_pool_index" in json.loads(out)["error"]["message"]

    def test_coincident_probe_points_rejected(self, write_config, capsys):
        cfg = write_config(PROBE.replace("points = 3, 1, -2", "points = 3, 3, 3"))
        code, out, _ = run_cli(["cohomology", "--config", cfg], capsys)
        assert code == 2
        assert json.loads(out)["error"]["message"] == "[probe] points must be pairwise distinct"


# the README's commands on the shipped configs, relative to the repo root
README_COMMANDS = [
    ["npoint", "--config", "configs/twopoint-a.cfg", "--oracle"],
    ["npoint", "--config", "configs/twopoint-a.cfg", "--reduction"],
    ["partition", "--config", "configs/genus2-partition.cfg"],
    ["check-complex", "--config", "configs/vacuum.cfg"],
    ["cohomology", "--config", "configs/cohomology-probe.cfg"],
]


@pytest.mark.parametrize("args", README_COMMANDS, ids=lambda args: " ".join(args[:1] + args[3:]))
def test_readme_commands_on_the_shipped_configs(args, capsys, monkeypatch):
    # each runs clean, and a second run prints the same bytes
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def _benchmark_configs():
    # the benchmark's own workloads, imported read-only from its directory
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [pytest.param(op.argv[0], op.config, id=f"{name}-{seed}-{op.name}")
            for name, build in workloads.WORKLOADS.items() for seed in (1, 4)
            for op in build(seed).ops]


@pytest.mark.parametrize("command, text", _benchmark_configs() + [
    pytest.param(args[0], (Path(__file__).resolve().parents[1] / args[2]).read_text(),
                 id=args[2]) for args in README_COMMANDS[1:]])
def test_benchmark_and_shipped_configs_are_read(command, text, write_config):
    # a key its command refuses would fail a benchmark op or a README
    # command: each of these is read without a ConfigError
    read_config(write_config(text), command)


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

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # together they were over half of what importing the CLI took,
        # and every run pays the import
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, voachain.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "[]\n"

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


GENUS0_AA = """
[experiment]
genus = 0
[insertions]
states = a, a
points = 3, 1
"""

GENUS1_AA = """
[experiment]
genus = 1
[insertions]
states = a, a
points = 5, 2
"""

# rho is a key of the removed float kernels: it is not read any more
GENUS2_SCHOTTKY = """
[schottky]
genus = 2
rho = 0.01, 0.02
points = -1, 1, -3, 3
"""


class TestErrorClasses:
    # malformed input is one validation report (exit 2), also when the
    # bad value is an assertion setting; every other exception is a
    # fault in the program and escapes
    @pytest.mark.parametrize("command, text, fragment", [
        ("npoint", "[experiment]\ngenus = two\n", "[experiment] genus"),
        ("npoint", GENUS0_AA + "[truncation]\nq_order = 8.5\n", "[truncation] q_order"),
        ("npoint", GENUS0_AA.replace("a, a", "[0], a"), "part below 1"),
        ("npoint", GENUS0_AA.replace("3, 1", "1/0, 1"), "1/0"),
        ("partition", GENUS2_SCHOTTKY + "[truncation]\nrho_orders = 3, b\n",
         "[truncation] rho_orders"),
        ("check-complex", "[element]\nstates = a\npoints = 2\n[assert]\nexpect_zero = maybe\n",
         "[assert] expect_zero"),
        ("reduce", GENUS0_AA + "[tolerance]\nfloat_tol = tiny\n", "[tolerance] float_tol"),
        ("connection", "[element]\nstates = a\npoints = 2\n[assert]\nvanishing = perhaps\n",
         "[assert] vanishing"),
        ("sew", GENUS0_AA + "[sewing]\nzeta1 = 1\nzeta2 = -1\n", "sewing points must differ"),
        ("sew", GENUS0_AA.replace("genus = 0", "genus = 1") + "[sewing]\nzeta1 = 0\nzeta2 = 2\n",
         "x = e^z"),
        ("check-complex", "[element]\nstates = a\npoints = 2\n[experiment]\nkinds = g\n"
         "[sewing]\nzeta1 = 3\nzeta2 = -3\n", "sewing points must differ"),
        ("npoint", "[experiment]\ngenus = 2\n[insertions]\nstates = a\npoints = 1\n"
         + GENUS2_SCHOTTKY, "handle points"),
        # nan and inf are no points, and strict JSON cannot print them
        ("npoint", GENUS0_AA.replace("3, 1", "2, nan"), "'nan' is not finite"),
        ("npoint", GENUS1_AA.replace("5, 2", "2, inf"), "'inf' is not finite"),
        ("sew", GENUS0_AA + "[sewing]\nzeta1 = -inf\nzeta2 = 2\n", "'-inf' is not finite"),
        ("partition", GENUS2_SCHOTTKY.replace("-3, 3", "-3, 1e400j"),
         "'1e400j' is not finite"),
        # a negative truncation order is no truncation
        ("npoint", GENUS1_AA + "[truncation]\nq_order = -2\n",
         "[truncation] q_order: truncation order -2 is negative"),
        ("sew", GENUS0_AA + "[truncation]\nrho_order = -3\n",
         "[truncation] rho_order: truncation order -3 is negative"),
        ("partition", GENUS2_SCHOTTKY + "[truncation]\nrho_orders = -2, 3\n",
         "[truncation] rho_orders: truncation order -2 is negative"),
        ("npoint", "[experiment]\ngenus = 2\n[insertions]\nstates = a\npoints = 5\n"
         + GENUS2_SCHOTTKY + "[truncation]\nrho_orders = 3, -1\n",
         "[truncation] rho_orders: truncation order -1 is negative"),
        # every key is read by its command's table, and any other refused
        ("npoint", GENUS1_AA + "[truncation]\nq_ordr = 3\n",
         "npoint takes no key 'q_ordr' in [truncation]; "
         "[truncation] takes q_order, weight_cutoff, rho_orders"),
        ("npoint", GENUS1_AA + "[truncation]\nq_order = 3, 4\n", "[truncation] q_order"),
        ("sew", GENUS0_AA + "[truncation]\nrho_order = 3, 4\n", "[truncation] rho_order"),
        ("npoint", GENUS1_AA + "[tolerance]\nfloat_tol = 1e-9\n",
         "npoint takes no section [tolerance]"),
        ("partition", GENUS2_SCHOTTKY + "[truncaton]\nrho_orders = 2, 2\n",
         "partition takes no section [truncaton]; it takes [schottky], [truncation]"),
        ("npoint", GENUS1_AA.replace("genus = 1", "genus = 1\npath = reduction"),
         "npoint takes no key 'path' in [experiment]"),
        ("reduce", GENUS0_AA.replace("genus = 0\n", ""), "[experiment] genus is not given"),
    ])
    def test_bad_input_is_a_validation_error(self, write_config, capsys, command, text,
                                             fragment):
        code, out, err = run_cli([command, "--config", write_config(text)], capsys)
        assert code == 2
        assert "Traceback" not in err
        doc = json.loads(out)
        assert doc["error"]["kind"] == "validation"
        assert fragment in doc["error"]["message"]

    def test_path_flag_is_gone(self, write_config, capsys):
        # --oracle and --reduction are the one way to choose the path
        with pytest.raises(SystemExit) as exc:
            main(["npoint", "--config", write_config(GENUS1_AA), "--path", "oracle"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --path" in captured.err

    @pytest.mark.parametrize("argv, text", [
        (["npoint", "--reduction"], GENUS0_AA.replace("3, 1", "0, 2")),
        (["check-complex"], "[element]\nstates = a\npoints = 2\n"
                            "[descriptors]\nx1_state = a\nx1_point = 0\n"),
        (["connection"], "[element]\nstates = a\npoints = 2\n"
                         "[descriptor]\nstate = a\npoint = 0\n"),
    ], ids=["npoint", "check-complex", "connection"])
    def test_sphere_step_to_point_zero_rejected(self, write_config, capsys, argv, text):
        # genus-0 D1 scales by z^-wt v, so a reduction step to 0 is a
        # validation error, not a ZeroDivisionError traceback
        code, out, _ = run_cli([argv[0], "--config", write_config(text), *argv[1:]], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["kind"] == "validation"
        assert "z = 0" in doc["error"]["message"]

    @pytest.mark.parametrize("command, text", [
        ("npoint", GENUS1_AA + "[truncation]\nq_order = 0\n"),
        ("sew", GENUS0_AA.replace("3, 1", "3, 5") + "[truncation]\nrho_order = 0\n"),
        # an inner handle to order 0 leaves every coefficient unknown
        ("partition", GENUS2_SCHOTTKY + "[truncation]\nrho_orders = 0, 3\n"),
        ("npoint", GENUS0_AA.replace("genus = 0", "genus = 2").replace("3, 1", "5, 7")
         + GENUS2_SCHOTTKY + "[truncation]\nrho_orders = 0, 3\n"),
    ], ids=["npoint-genus1", "sew", "partition", "npoint-genus2"])
    def test_order_zero_is_the_empty_series(self, write_config, capsys, command, text):
        code, out, _ = run_cli([command, "--config", write_config(text)], capsys)
        assert code == 0
        doc = json.loads(out)
        series = doc.get("result", doc)["series"]
        assert (series["coeffs"], series["truncation"]) == ([], 0)

    def test_sphere_oracle_at_point_zero(self, write_config, capsys):
        cfg = write_config(GENUS0_AA.replace("3, 1", "0, 2"))
        code, out, _ = run_cli(["npoint", "--config", cfg, "--oracle"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"]["rational"] == "1/4"

    def test_a_fault_in_a_handler_escapes(self, write_config, monkeypatch):
        import voachain.cli as cli

        def broken(args):
            raise ValueError("a bug, not an input")

        monkeypatch.setattr(cli, "cmd_sew", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["sew", "--config", write_config(GENUS0_AA)])
