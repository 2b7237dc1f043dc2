"""CLI contract tests: JSON-only stdout, exit codes, determinism."""

import cmath
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from references import child_env, genus_g_sum

from voachain import complexes
from voachain.cli import (
    CONFIG_KEYS,
    ConfigError,
    build_parser,
    main,
    parse_scalar,
    read_config,
)
from voachain.complexes import apply_Dn
from voachain.correlators import sphere_value, torus_trace
from voachain.schottky import SchottkyData
from voachain.series import ExactComplex, _frac_str, _parse_frac
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
        # far past the series' disc the value overflows: no number, no traceback
        (["eval-weierstrass", "--z-re", "1e308"],
         "P_1 is not finite at |z| = 1e+308: its z-series diverges there"),
        # an Eulerian numerator past the float range, and a row far past
        # the recursion limit
        (["eval-pm", "--m", "200"], "P_200 is not finite in floats at |z| = 0.583095"),
        (["eval-pm", "--m", "900", "--terms", "1"],
         "P_900 is not finite in floats at |z| = 0.583095"),
    ], ids=["pm-m0", "pm-m-1", "pm-terms", "weierstrass-terms", "eisenstein-order",
            "f0-iota-order", "f0-lone-z", "f0-lone-w", "f0-lone-bad-z", "weierstrass-far-z",
            "pm-m200", "pm-m900"])
    def test_bad_argument_is_a_validation_error(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(out) == {"command": argv[0],
                                   "error": {"kind": "validation", "message": message}}
        assert "Traceback" not in err

    def test_f0_prints_a_complex_point_as_it_reads_it(self, capsys):
        code, out, _ = run_cli(
            ["eval-f0", "--n", "1", "--m", "0", "--z", "1/2-1/3j", "--w", "(2+0J)"], capsys
        )
        assert code == 0
        at = json.loads(out)["value_at"]
        z = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
        assert (at["z"], at["w"]) == ("1/2-1/3j", "2")
        assert parse_scalar(at["z"]) == z
        # w/(z(z-w)), exactly
        want = 2 / (z * (z - 2))
        assert at["value"] == {"rational_re": _frac_str(want.re), "rational_im": _frac_str(want.im)}

    def test_f0_at_a_point_of_any_size(self, capsys):
        code, out, _ = run_cli(
            ["eval-f0", "--n", "1", "--m", "0", "--z", "1e-5000", "--w", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        z = Fraction(1, 10**5000)
        assert _parse_frac(doc["value_at"]["z"]) == z
        assert _parse_frac(doc["value_at"]["value"]["rational"]) == 2 / (z * (z - 2))


# a decimal as complex() and Fraction() both read it
DECIMALS = st.from_regex(r"\A[0-9]{1,5}(\.[0-9]{0,4})?([eE][+-]?[0-9]{1,3})?\Z")


class TestParseScalar:
    @given(st.fractions(), st.fractions())
    def test_a_printed_point_reads_back(self, real, imag):
        # a Fraction prints as _frac_str, an ExactComplex as re±imj
        point = ExactComplex(real, imag) if imag else real
        printed = str(point) if imag else _frac_str(real)
        got = parse_scalar(printed)
        assert got == point and type(got) is type(point)

    @given(st.sampled_from(["", "+", "-"]), DECIMALS, st.sampled_from(["+", "-"]), DECIMALS,
           st.sampled_from("jJ"), st.booleans())
    def test_a_complex_token_reads_as_its_decimal_parts(self, sign, real, imag_sign, imag, j,
                                                         parens):
        token = f"{sign}{real}{imag_sign}{imag}{j}"
        token = f"( {token} )" if parens else token
        assume(cmath.isfinite(complex(token)))
        want = ExactComplex(Fraction(sign + real), Fraction(imag_sign + imag))
        got = parse_scalar(token)
        assert got == want and type(got) is (ExactComplex if want.im else Fraction)
        assert complex(token) == complex(float(want.re), float(want.im))

    @pytest.mark.parametrize("token, want", [
        ("j", ExactComplex(0, 1)), ("-J", ExactComplex(0, -1)), ("1+j", ExactComplex(1, 1)),
        ("2.5e-1j", ExactComplex(0, Fraction(1, 4))), ("1e400j", ExactComplex(0, 10**400)),
        ("1/2-1/3j", ExactComplex(Fraction(1, 2), Fraction(-1, 3))), ("7-0j", Fraction(7)),
        ("1e-3-2e+3j", ExactComplex(Fraction(1, 1000), -2000)), ("0.1", Fraction(1, 10)),
    ])
    def test_tokens(self, token, want):
        got = parse_scalar(token)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("token", ["nanj", "infj", "1+nanj", "inf", "-inf+2j", "1/0j", "1 / 2",
                                       "(1+2j", "1+2j3", "--1j", "1e+j", "abc"])
    def test_refused_tokens(self, token):
        with pytest.raises(ConfigError, match="cannot parse scalar"):
            parse_scalar(token)


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
        # 1j is read as an exact Gaussian rational, so 10**400 beside it
        # is a value: (10^400 - i)^-2, where float arithmetic would overflow
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
        assert code == 0
        want = 1 / (ExactComplex(10**400, -1) * ExactComplex(10**400, -1))
        assert json.loads(out)["result"]["value"] == {
            "rational_re": _frac_str(want.re), "rational_im": _frac_str(want.im)}

    @pytest.mark.parametrize("path", ["--oracle", "--reduction"])
    def test_genus0_at_a_complex_point_is_exact(self, write_config, capsys, path):
        # (1+2i - 3)^-2 = i/8
        cfg = write_config(GENUS0_AA.replace("3, 1", "1+2j, 3"))
        code, out, _ = run_cli(["npoint", "--config", cfg, path], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"] == {"rational_re": "0", "rational_im": "1/8"}

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

    def test_reduction_computes_only_the_last_step(self, write_config, capsys, monkeypatch):
        # the printed value is the last step's: D1 runs once, for it, and
        # no earlier step is valued
        calls = []
        apply_D1 = complexes.apply_D1
        monkeypatch.setattr(complexes, "apply_D1", lambda *a: calls.append(a) or apply_D1(*a))
        cfg = write_config("[experiment]\ngenus = 0\n[insertions]\n"
                           "states = a, a, a, a\npoints = 1, 2, 4, 5\n")
        code, out, _ = run_cli(["npoint", "--config", cfg, "--reduction"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"] == {"rational": "5329/5184"}  # the pairing sum
        assert len(calls) == 1 and calls[0][0][1] == 5

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

    @pytest.mark.parametrize("genus, section_genus", [(0, 2), (1, 2), (1, 1)])
    def test_a_schottky_section_below_genus_2_is_refused(self, write_config, capsys,
                                                         genus, section_genus):
        # read, not passed over for the sphere or the trace
        text = GENUS1_AA.replace("genus = 1", f"genus = {genus}").replace("5, 2", "5, 7")
        section = (GENUS2_SCHOTTKY if section_genus == 2
                   else "[schottky]\ngenus = 1\npoints = -1, 1\n")
        cfg = write_config(text + section)
        for path in ("--oracle", "--reduction"):
            code, out, _ = run_cli(["npoint", "--config", cfg, path], capsys)
            assert code == 2
            message = json.loads(out)["error"]["message"]
            assert message == f"genus-{genus} elements take no SchottkyData"

    @pytest.mark.parametrize("genus", [2, 3])
    def test_a_missing_schottky_section_is_named(self, write_config, capsys, genus):
        text = f"[experiment]\ngenus = {genus}\n[insertions]\nstates = a\npoints = 5\n"
        for path in ("--oracle", "--reduction"):
            code, out, _ = run_cli(["npoint", "--config", write_config(text), path], capsys)
            assert code == 2
            assert json.loads(out)["error"]["message"] == "[schottky] genus is not given"


# three handles; one handle point is Gaussian
GENUS3_SCHOTTKY = """
[schottky]
genus = 3
points = 7, -9, 5, -4, -2, 1+1j
[truncation]
rho_orders = 2, 3, 2
"""


class TestGenusThree:
    SD = SchottkyData(3, (7, -9, 5, -4, -2, ExactComplex(1, 1)))

    def test_partition_is_the_per_term_sum(self, write_config, capsys):
        code, out, _ = run_cli(["partition", "--config", write_config(GENUS3_SCHOTTKY)], capsys)
        assert code == 0
        want = genus_g_sum(self.SD.handles((2, 3, 2)), (), sphere_value)
        assert json.loads(out)["series"] == want.to_json_dict()
        assert want.variable == "rho3"

    @pytest.mark.parametrize("states, points", [("1", "3"), ("a, aa, a", "3, 1/2, -6")],
                             ids=["vacuum", "a-aa-a"])
    def test_npoint_paths_are_the_per_term_sum(self, write_config, capsys, monkeypatch,
                                               states, points):
        text = (f"[experiment]\ngenus = 3\n[insertions]\nstates = {states}\n"
                f"points = {points}\n" + GENUS3_SCHOTTKY)
        check_oracle_equals_reduction(text, write_config, capsys, monkeypatch)
        code, out, _ = run_cli(["npoint", "--config", write_config(text)], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        cfg = read_config(write_config(text), "npoint")
        entries = list(zip(cfg["insertions", "states"], cfg["insertions", "points"]))
        want = genus_g_sum(self.SD.handles((2, 3, 2)), entries, sphere_value)
        assert result["genus"] == 3 and result["series"] == want.to_json_dict()
        if states == "1":
            # the vacuum rides along: the partition function
            code, out, _ = run_cli(["partition", "--config", write_config(GENUS3_SCHOTTKY)],
                                   capsys)
            assert json.loads(out)["series"] == result["series"]


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

    @pytest.mark.parametrize("genus, evaluator", [(0, "sewn_sphere_series"),
                                                  (1, "sewn_trace_series")])
    def test_sew_evaluates_only_the_sewn_surface(self, write_config, capsys, monkeypatch,
                                                 genus, evaluator):
        # the unsewn element's value is never read, so it is not computed:
        # the sewn sums run at rational points in one pass, exactly one sum
        # with the one handle, and no sphere or trace of the bare
        # insertions is evaluated
        from voachain.complexes import InsertionTuple, apply_Dg, element_from_insertions
        from voachain.schottky import SewingData

        cfg = write_config(f"[experiment]\ngenus = {genus}\n[insertions]\nstates = a, a\n"
                           "points = 5, 2\n[sewing]\nzeta1 = 3\nzeta2 = 7\n"
                           "[truncation]\nq_order = 4\nrho_order = 3\n")
        calls = []
        original = getattr(complexes, evaluator)
        monkeypatch.setattr(complexes, evaluator,
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        code, out, _ = run_cli(["sew", "--config", cfg], capsys)
        assert code == 0
        # the handles of each piece of each sum
        assert [[len(piece[2]) for piece in pieces] for pieces, *_ in calls] == [[1]]
        monkeypatch.undo()
        elem = element_from_insertions(InsertionTuple(((A_VECTOR, 5), (A_VECTOR, 2))), genus,
                                       q_order=4)
        want = apply_Dg(elem, SewingData(zeta1=3, zeta2=7), 3).value.data
        assert json.loads(out)["result"]["series"] == want.to_json_dict()

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
"""
        )
        code, out, _ = run_cli(["check-complex", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(rep["residual"] == 0 for rep in doc["reports"])

    def test_a_size_past_the_float_range_is_printed_null(self, write_config, capsys):
        # a, a at 1e-200 and 0 is 10^400: the composition norm has no
        # float and is printed null, and the exit code is still the exact
        # verdict's (the commutation residual is exactly 0)
        cfg = write_config(
            "[experiment]\nkinds = n\n[element]\nstates = a, a\npoints = 1e-200, 0\n"
            "[descriptors]\nx1_state = 1\nx1_point = 11\nx2_state = 1\nx2_point = 13\n"
            "[assert]\nexpect_zero = true\n")
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        assert code == 0 and "Traceback" not in err
        (report,) = json.loads(out)["reports"]
        assert report["residual"] == 0.0 and report["composition_norm"] is None


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
"""
        )
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        report = json.loads(out)["reports"][0]
        assert "skipped" not in report["detail"] and "skipped" not in err
        assert report["residual"] == 0 and report["composition_norm"] > 0
        assert code == 0

    def test_genus1_n_check_builds_one_trace_context_per_point_tuple(
            self, write_config, capsys, monkeypatch):
        # the element and the first steps are never valued: each path's last
        # step sums at its own points, (t1, t2, s1) and (t1, t2, s2)
        from voachain import correlators

        built = []

        class Counted(correlators._TorusContext):
            __slots__ = ()

            def __init__(self, points, order):
                built.append(points)
                super().__init__(points, order)

        monkeypatch.setattr(correlators, "_TorusContext", Counted)
        correlators._torus_context.cache_clear()
        cfg = write_config("[experiment]\nkinds = n\n[element]\ngenus = 1\n"
                           "states = a, a\npoints = 2, -4\n[descriptors]\n"
                           "x1_state = a\nx1_point = -5\nx2_state = a\nx2_point = 6\n"
                           "[truncation]\nq_order = 6\n[assert]\nexpect_zero = true\n")
        code, out, _ = run_cli(["check-complex", "--config", cfg], capsys)
        correlators._torus_context.cache_clear()
        assert code == 0 and json.loads(out)["reports"][0]["composition_norm"] > 0
        assert sorted(built) == [(2, -4, -5), (2, -4, 6)]

    def test_nonzero_residual_with_assert_exits_3(self, write_config, capsys, monkeypatch):
        import voachain.cli as cli
        from voachain.complexes import ConditionReport

        monkeypatch.setattr(cli, "check_chain_conditions", lambda suite: [
            ConditionReport(kind="gn", residual=0.5, composition_norm=1.0, detail={})])
        cfg = write_config(
            "[experiment]\nkinds = gn\n[element]\nstates = a\npoints = 7\n"
            "[assert]\nexpect_zero = true\n"
        )
        code, out, err = run_cli(["check-complex", "--config", cfg], capsys)
        assert json.loads(out)["reports"][0]["residual"] == 0.5
        assert code == 3
        assert "residual is not 0" in err

    @pytest.mark.parametrize("genus, points", [(0, "7, 9"), (1, "5, 2")])
    def test_any_mismatch_exits_3(self, write_config, capsys, monkeypatch, genus, points):
        # every value is exact: a mismatch far below the float range, whose
        # printed residual reads 0.0, still fails the zero assertion
        tiny = Fraction(1, 10**400)
        calls = []

        def off(x, elem):
            # D(x2) D(x1) comes out off by tiny; D(x1) D(x2) does not
            stepped = apply_Dn(x, elem)
            calls.append(x)
            if len(calls) == 2:
                value = stepped.value
                stepped = stepped._replace(value=value._replace(data=value.data + tiny))
            return stepped

        monkeypatch.setattr(complexes, "apply_Dn", off)
        text = (f"[experiment]\nkinds = n\n[element]\ngenus = {genus}\nstates = a, a\n"
                f"points = {points}\n[assert]\nexpect_zero = true\n")
        code, out, err = run_cli(["check-complex", "--config", write_config(text)], capsys)
        assert json.loads(out)["reports"][0]["residual"] == 0.0
        assert len(calls) == 4
        assert code == 3
        assert "residual is not 0" in err

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
"""
        )
        code, out, _ = run_cli(["reduce", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["round_trip_residual"] == 0

    @pytest.mark.parametrize("genus, points", [(0, "3, 1"), (1, "5, 2")])
    def test_any_mismatch_exits_3(self, write_config, capsys, monkeypatch, genus, points):
        # every value is exact: a mismatch far below the float range, whose
        # printed residual reads 0.0, still fails the round trip
        import voachain.cli as cli

        tiny = Fraction(1, 10**400)

        def off(elem):
            factor, zero_point = complexes.reduce_to_zero_point(elem)
            return factor + tiny, zero_point

        monkeypatch.setattr(cli, "reduce_to_zero_point", off)
        text = f"[experiment]\ngenus = {genus}\n[insertions]\nstates = a, a\npoints = {points}\n"
        code, out, _ = run_cli(["reduce", "--config", write_config(text)], capsys)
        assert json.loads(out)["round_trip_residual"] == 0.0
        assert code == 3


GENUS1_CONNECTION = """
[element]
genus = 1
states = a
points = 5
[descriptor]
state = a
point = 2
[truncation]
q_order = 3
rho_order = 2
"""


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

    def test_a_functional_below_the_float_range_does_not_vanish(self, write_config, capsys):
        # the bracket term is -1/(4 10^400): its float norm underflows to
        # 0.0, yet it is not zero, and so the functional does not vanish
        big = 10**200
        cfg = write_config(
            f"[element]\nstates = a\npoints = {big}\n"
            f"[descriptor]\nstate = a\npoint = -{big}\n[assert]\nvanishing = false\n")
        code, out, _ = run_cli(["connection", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["vanishing"] is False and doc["G_norm"] == 0.0
        assert _parse_frac(doc["components"]["bracket_term"]["value"]["rational"]) == Fraction(
            -1, 4 * big**2)

    @pytest.mark.parametrize("vanishing, want", [("false", 0), ("true", 3)])
    def test_a_functional_past_the_float_range_prints_a_null_norm(
            self, write_config, capsys, vanishing, want):
        # a, a at 1e-200 and 0 is 10^400: G_norm has no float and is
        # printed null; the exit code is decided by the exact verdict
        cfg = write_config(
            "[element]\nstates = a, a\npoints = 1e-200, 0\n[descriptor]\nstate = 1\n"
            f"point = 11\n[assert]\nvanishing = {vanishing}\n")
        code, out, err = run_cli(["connection", "--config", cfg], capsys)
        assert code == want and "Traceback" not in err
        doc = json.loads(out)
        assert doc["vanishing"] is False and doc["G_norm"] is None

    def test_prints_a_complex_descriptor_point_as_it_reads_it(self, write_config, capsys):
        cfg = write_config("[element]\nstates = a\npoints = 2\n"
                           "[descriptor]\nstate = a\npoint = -1/2+3/4j\n")
        code, out, _ = run_cli(["connection", "--config", cfg], capsys)
        assert code == 0
        point = json.loads(out)["identification"]["psi_descriptor_point"]
        assert point == "-1/2+3/4j"
        assert parse_scalar(point) == ExactComplex(Fraction(-1, 2), Fraction(3, 4))

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

    @pytest.mark.parametrize("f_op", ["paper", "zero"])
    def test_zero_terms_are_the_elements_own_zero(self, write_config, capsys, f_op):
        # at genus 1 a zero term is a q-series with the -1/24 prefactor,
        # as the computed terms are
        cfg = write_config(GENUS1_CONNECTION + f"[options]\nf_op = {f_op}\n")
        code, out, _ = run_cli(["connection", "--config", cfg], capsys)
        assert code == 0
        components = json.loads(out)["components"]
        zeros = ["middle_term"] if f_op == "paper" else list(components)
        for name in zeros:
            assert components[name] == {
                "genus": 1, "prefactor_q_exponent": "-1/24",
                "series": {"variable": "q", "min_exponent": 0, "truncation": 3, "coeffs": []}}
        assert components["sewing_term"]["prefactor_q_exponent"] == "-1/24"

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


# the README's commands on the shipped configs, relative to the repo root
README_COMMANDS = [
    ["npoint", "--config", "configs/twopoint-a.cfg", "--oracle"],
    ["npoint", "--config", "configs/twopoint-a.cfg", "--reduction"],
    ["partition", "--config", "configs/genus2-partition.cfg"],
    ["partition", "--config", "configs/genus3-partition.cfg"],
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


def _readme_key_table() -> dict:
    # {command: {section: keys}} as the README's key table names them; an
    # empty command cell continues the row above, and "as for `cmd`"
    # names the keys of that command's section
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | section | keys (default) |") + 2
    table: dict = {}
    command = None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cmd, section, keys = (cell.strip() for cell in line.strip("|").split("|"))
        command, section = cmd.strip("`") or command, section.strip("`[]")
        alias = re.fullmatch(r"as for `(.+)`", keys)
        names = table[alias[1]][section] if alias else re.findall(r"`(\w+)`", keys)
        table.setdefault(command, {})[section] = list(names)
    return table


def test_readme_key_table_names_every_key():
    assert _readme_key_table() == {
        command: {section: list(keys) for section, keys in sections.items()}
        for command, sections in CONFIG_KEYS.items()}


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
    # command: each of these is read without a ConfigError, and no value
    # read is a float or a complex
    def leaves(value):
        return [leaf for item in value for leaf in leaves(item)] if isinstance(
            value, tuple) else [value]

    values = read_config(write_config(text), command)
    for key, value in values.items():
        assert not any(isinstance(leaf, (float, complex)) for leaf in leaves(value)), key


class TestPartitionSpecsInLists:
    # a list value splits on the commas outside brackets, so a partition
    # spec such as [2,1] is one token of it, as it is of a single key

    def test_npoint_reads_a_partition_spec_in_its_states(self, write_config, capsys):
        from voachain.correlators import sphere_value
        from voachain.voa import FockState, FockVector

        cfg = write_config("[experiment]\ngenus = 0\n[insertions]\n"
                           "states = [2,1], a, a\npoints = 3, 1/2, -2\n")
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 0
        want = sphere_value([(FockVector({FockState((2, 1)): 1}), Fraction(3)),
                             (A_VECTOR, Fraction(1, 2)), (A_VECTOR, Fraction(-2))])
        assert want != 0
        assert json.loads(out)["result"]["value"]["rational"] == _frac_str(want)

    def test_check_complex_reads_a_partition_spec_in_its_element(self, write_config, capsys):
        # the function is symmetric in its insertions: the element listed
        # in another order gives the same reports
        text = ("[experiment]\nkinds = n, g\n[element]\nstates = {}\npoints = {}\n"
                "[descriptors]\nx1_state = [2,1]\nx1_point = 11\nx2_state = 1\n"
                "x2_point = 13\n[truncation]\nrho_order = 2\n[assert]\nexpect_zero = true\n")
        reports = []
        for states, points in [("[2,1], a, a", "7, 9, 1/2"), ("a, a, [2,1]", "9, 1/2, 7")]:
            code, out, _ = run_cli(
                ["check-complex", "--config", write_config(text.format(states, points))], capsys)
            assert code == 0
            reports.append(json.loads(out)["reports"])
        assert reports[0] == reports[1]
        assert [r["kind"] for r in reports[0]] == ["n", "g"]

    def test_cohomology_reads_a_partition_spec_in_its_pool(self, write_config, capsys):
        # the labels are pool indices, so any pool of three states gives
        # the report of 1, a, aa
        reports = []
        for pool in ("1, a, [2,1]", "1, a, aa"):
            cfg = write_config(PROBE.replace("pool = 1, a, aa", f"pool = {pool}"))
            code, out, _ = run_cli(["cohomology", "--config", cfg], capsys)
            assert code == 0
            reports.append(json.loads(out)["report"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("states", ["[2,1, a", "a, [2,[1]]", "a, 2]"])
    def test_unbalanced_brackets_are_refused(self, write_config, capsys, states):
        cfg = write_config(f"[experiment]\ngenus = 0\n[insertions]\n"
                           f"states = {states}\npoints = 3, 1/2\n")
        code, out, _ = run_cli(["npoint", "--config", cfg], capsys)
        assert code == 2
        assert "unbalanced brackets" in json.loads(out)["error"]["message"]


class TestSubprocessEntry:
    def test_module_invocation_and_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voachain.cli", "--bogus-flag"],
            capture_output=True,
            text=True,
            env=child_env(),
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
            env=child_env(),
        )
        assert proc.stdout == "[]\n"

    def test_module_invocation_success(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voachain.cli", "eval-eisenstein", "--k", "4",
             "--order", "3"],
            capture_output=True,
            text=True,
            env=child_env(),
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


# a at 2 on the sphere, and on the torus with two a descriptors
CHECK_A_AT_2 = "[element]\nstates = a\npoints = 2\n[assert]\nexpect_zero = true\n"
GENUS1_CHECK = CHECK_A_AT_2.replace("[element]", "[element]\ngenus = 1") + (
    "[descriptors]\nx1_state = a\nx1_point = 3\nx2_state = a\nx2_point = 5\n")


def _not_strict_json(constant):
    raise AssertionError(f"{constant} is not a strict JSON value")


@pytest.mark.parametrize("args, text, code", [
    *[pytest.param(args, None, 0, id=" ".join(args[:1] + args[3:])) for args in README_COMMANDS],
    pytest.param(["eval-eisenstein", "--k", "4", "--order", "10"], None, 0, id="eisenstein"),
    pytest.param(["eval-weierstrass", "--k", "2", "--z-re", "0.4", "--tau-im", "1.5"], None, 0,
                 id="weierstrass"),
    pytest.param(["eval-pm", "--m", "2", "--z-re", "-0.5", "--z-im", "0.3", "--tau-im", "1.5"],
                 None, 0, id="pm"),
    pytest.param(["eval-f0", "--n", "1", "--m", "0", "--z", "5", "--w", "2"], None, 0, id="f0"),
    # an infinite tail proxy, and checks that compare no coefficient
    pytest.param(["eval-weierstrass", "--z-re", "7"], None, 0, id="weierstrass-past-2pi"),
    pytest.param(["check-complex"], CHECK_A_AT_2 + "[truncation]\nrho_order = 0\n", 2,
                 id="check-rho-0"),
    pytest.param(["check-complex"], GENUS1_CHECK + "[truncation]\nq_order = 0\n", 2,
                 id="check-q-0"),
])
def test_every_report_is_strict_json(args, text, code, write_config, capsys, monkeypatch):
    # no NaN or Infinity literal reaches stdout: every report parses as
    # strict JSON
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    if text is not None:
        args = [args[0], "--config", write_config(text)]
    got, out, _ = run_cli(args, capsys)
    assert got == code
    doc = json.loads(out, parse_constant=_not_strict_json)
    if args[:3] == ["eval-weierstrass", "--z-re", "7"]:
        # |z| past 2 pi: no tail estimate, and the value is flagged
        assert doc["tail_estimate"] is None and doc["flagged"] is True


class TestCachedParser:
    # one parser per process: every call after the first parses with it
    CALLS = [
        ("npoint", GENUS0_AA),
        ("sew", GENUS0_AA.replace("3, 1", "3, 5")),
        ("partition", GENUS2_SCHOTTKY + "[truncation]\nrho_orders = 2, 2\n"),
        ("check-complex", CHECK_A_AT_2),
        ("eval-f0", None),
    ]

    def argvs(self, tmp_path):
        out = []
        for command, text in self.CALLS:
            if text is None:
                out.append([command, "--n", "2", "--m", "1", "--z", "3", "--w", "1/2"])
            else:
                path = tmp_path / f"{command}.cfg"
                path.write_text(text)
                out.append([command, "--config", str(path)])
        return out

    def test_built_once_and_every_report_unchanged(self, tmp_path, capsys):
        argvs = self.argvs(tmp_path)
        cold = []
        for argv in argvs:
            build_parser.cache_clear()
            cold.append(run_cli(argv, capsys))
        build_parser.cache_clear()
        warm = [run_cli(argv, capsys) for argv in argvs]
        assert build_parser.cache_info().misses == 1
        assert warm == cold
        assert all(code == 0 for code, _, _ in warm)

    @pytest.mark.parametrize("argv, message", [
        (["no-such-command"], "invalid choice: 'no-such-command'"),
        (["sew"], "the following arguments are required: --config"),
    ])
    def test_argument_errors_exit_2_on_the_warm_parser(self, capsys, argv, message):
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as cold:
            main(argv)
        cold_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as warm:
            main(argv)
        warm_err = capsys.readouterr().err
        assert build_parser.cache_info().misses == 1
        assert cold.value.code == warm.value.code == 2
        assert warm_err == cold_err and message in warm_err and warm_err.startswith("usage:")

    def test_a_handler_patched_after_the_parser_is_warm_is_called(self, write_config, capsys,
                                                                    monkeypatch):
        import voachain.cli as cli

        cfg = write_config(GENUS0_AA.replace("3, 1", "3, 5"))
        assert run_cli(["sew", "--config", cfg], capsys)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_sew", lambda args: seen.append(args.config) or 7)
        assert main(["sew", "--config", cfg]) == 7
        assert seen == [cfg]


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
        ("connection", "[element]\nstates = a\npoints = 2\n[assert]\nvanishing = perhaps\n",
         "[assert] vanishing"),
        ("sew", GENUS0_AA + "[sewing]\nzeta1 = 1\nzeta2 = -1\n", "sewing points must differ"),
        ("sew", GENUS0_AA.replace("genus = 0", "genus = 1") + "[sewing]\nzeta1 = 0\nzeta2 = 2\n",
         "x = e^z"),
        # checked on the surface, though no sum at rho order 0 evaluates it
        ("sew", GENUS1_AA.replace("5, 2", "0, 2") + "[truncation]\nrho_order = 0\n", "x = e^z"),
        ("check-complex", "[element]\nstates = a\npoints = 2\n[experiment]\nkinds = g\n"
         "[sewing]\nzeta1 = 3\nzeta2 = -3\n", "sewing points must differ"),
        ("npoint", "[experiment]\ngenus = 2\n[insertions]\nstates = a\npoints = 1\n"
         + GENUS2_SCHOTTKY, "handle points"),
        # nan and inf are no exact numbers, in either part of a point
        ("npoint", GENUS0_AA.replace("3, 1", "2, nan"), "cannot parse scalar 'nan'"),
        ("npoint", GENUS1_AA.replace("5, 2", "2, inf"), "cannot parse scalar 'inf'"),
        ("sew", GENUS0_AA + "[sewing]\nzeta1 = -inf\nzeta2 = 2\n", "cannot parse scalar '-inf'"),
        ("partition", GENUS2_SCHOTTKY.replace("-3, 3", "-3, nanj"), "cannot parse scalar 'nanj'"),
        ("partition", GENUS2_SCHOTTKY.replace("-3, 3", "-3, 1+infj"),
         "cannot parse scalar '1+infj'"),
        ("npoint", GENUS0_AA.replace("3, 1", "inf+1j, 1"), "cannot parse scalar 'inf+1j'"),
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
         "[truncation] takes q_order, rho_orders"),
        ("npoint", GENUS1_AA + "[truncation]\nq_order = 3, 4\n", "[truncation] q_order"),
        ("sew", GENUS0_AA + "[truncation]\nrho_order = 3, 4\n", "[truncation] rho_order"),
        ("npoint", GENUS1_AA + "[tolerance]\nfloat_tol = 1e-9\n",
         "npoint takes no section [tolerance] (given: float_tol)"),
        ("partition", GENUS2_SCHOTTKY + "[truncaton]\nrho_orders = 2, 2\n",
         "partition takes no section [truncaton] (given: rho_orders); "
         "it takes [schottky], [truncation]"),
        ("npoint", GENUS1_AA.replace("genus = 1", "genus = 1\npath = reduction"),
         "npoint takes no key 'path' in [experiment]"),
        ("reduce", GENUS0_AA.replace("genus = 0\n", ""), "[experiment] genus is not given"),
        # no result reads these keys, so each is refused like any other
        ("npoint", GENUS1_AA + "[truncation]\nweight_cutoff = 12\n",
         "npoint takes no key 'weight_cutoff' in [truncation]"),
        ("sew", GENUS0_AA + "[sewing]\nrho = 0.5\n",
         "sew takes no key 'rho' in [sewing]; [sewing] takes zeta1, zeta2"),
        ("check-complex", "[element]\nstates = a\npoints = 2\n[sewing]\nrho = 0.5\n",
         "check-complex takes no key 'rho' in [sewing]"),
        ("connection", "[element]\nstates = a\npoints = 2\n[sewing]\nrho = 0.5\n",
         "connection takes no key 'rho' in [sewing]"),
        ("cohomology", PROBE.replace("g_max", "points = 3, 1, -2\ng_max"),
         "cohomology takes no key 'points' in [probe]"),
        # every value is exact, so a tolerance could only hide a nonzero
        # result: the tolerance keys are gone, each refused by name
        ("reduce", GENUS0_AA + "[tolerance]\nfloat_tol = 1e-10\n",
         "reduce takes no section [tolerance] (given: float_tol)"),
        ("connection", "[element]\nstates = a\npoints = 2\n[tolerance]\nfloat_tol = 1e-9\n",
         "connection takes no section [tolerance] (given: float_tol)"),
        ("check-complex", "[element]\nstates = a\npoints = 2\n"
         "[assert]\nexpect_zero = true\ntolerance = 1e-9\n",
         "check-complex takes no key 'tolerance' in [assert]; [assert] takes expect_zero"),
        # counts that describe nothing
        ("cohomology", PROBE.replace("g_max = 1", "g_max = -1"),
         "g_max -1 and n_max 2 must not be negative"),
        ("cohomology", PROBE.replace("n_max = 2", "n_max = -1"),
         "g_max 1 and n_max -1 must not be negative"),
        ("check-complex", "[element]\nstates = a\npoints = 2\n"
         "[experiment]\nkinds =\n[assert]\nexpect_zero = true\n",
         "[experiment] kinds names no condition to check"),
        # a check at a truncation order 0 compares no coefficient, so no
        # residual stands for it
        ("check-complex", CHECK_A_AT_2 + "[truncation]\nrho_order = 0\n",
         "the g check compares no coefficient: a truncation order is 0"),
        ("check-complex", CHECK_A_AT_2 + "[experiment]\nkinds = gn\n"
         "[truncation]\nrho_order = 0\n",
         "the gn check compares no coefficient: a truncation order is 0"),
        ("check-complex", GENUS1_CHECK + "[truncation]\nq_order = 0\n",
         "the n check compares no coefficient: a truncation order is 0"),
        ("check-complex", GENUS1_CHECK + "[experiment]\nkinds = gn\n[truncation]\nq_order = 0\n",
         "the gn check compares no coefficient: a truncation order is 0"),
        # nor does the connection functional: G would be 0 of empty terms
        ("connection", GENUS1_CONNECTION.replace("q_order = 3", "q_order = 0")
         + "[assert]\nvanishing = true\n",
         "the connection check compares no coefficient: a truncation order is 0 (the q order)"),
        ("connection", GENUS1_CONNECTION.replace("rho_order = 2", "rho_order = 0"),
         "the connection check compares no coefficient: a truncation order is 0 (the rho order)"),
        ("connection", "[element]\nstates = a\npoints = 2\n[truncation]\nrho_order = 0\n",
         "the connection check compares no coefficient: a truncation order is 0 (the rho order)"),
        # nor is a zero-point function known to vanish there
        ("reduce", GENUS1_AA + "[truncation]\nq_order = 0\n",
         "a truncation order is 0 (the q order)"),
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

    def test_genus_flag_is_gone(self, write_config, capsys):
        # [experiment] genus is the one input of the genus
        with pytest.raises(SystemExit) as exc:
            main(["npoint", "--config", write_config(GENUS1_AA), "--genus", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --genus 0" in captured.err

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


# Gaussian inputs: each config and the stdout it gave when it was pinned,
# so that a change of route cannot change a value or how it prints
GAUSSIAN_GOLDEN = {
    # partition at genus 2, one handle point 1+1j
    'partition': (['partition'], """\
[schottky]
genus = 2
points = -2, 1+1j, 5, -4
[truncation]
rho_orders = 3, 3
""", """\
{
  "command": "partition",
  "config": {
    "schottky": {
      "genus": "2",
      "points": "-2, 1+1j, 5, -4"
    },
    "truncation": {
      "rho_orders": "3, 3"
    }
  },
  "series": {
    "coeffs": [
      [
        0,
        {
          "coeffs": [
            [
              0,
              "1",
              "0"
            ],
            [
              1,
              "1",
              "0"
            ],
            [
              2,
              "2",
              "0"
            ]
          ],
          "min_exponent": 0,
          "truncation": 3,
          "variable": "rho1"
        }
      ],
      [
        1,
        {
          "coeffs": [
            [
              0,
              "1",
              "0"
            ],
            [
              1,
              "2277382/341887",
              "52397685/4786418"
            ],
            [
              2,
              "34116606214/3702294323",
              "113427003726/3702294323"
            ]
          ],
          "min_exponent": 0,
          "truncation": 3,
          "variable": "rho1"
        }
      ],
      [
        2,
        {
          "coeffs": [
            [
              0,
              "2",
              "0"
            ],
            [
              1,
              "216180095693/7404588646",
              "364708160766/3702294323"
            ],
            [
              2,
              "-1436513064142879/11454898635362",
              "378338482700424/818207045383"
            ]
          ],
          "min_exponent": 0,
          "truncation": 3,
          "variable": "rho1"
        }
      ]
    ],
    "min_exponent": 0,
    "truncation": 3,
    "variable": "rho2"
  },
  "truncation": {
    "rho_orders": [
      3,
      3
    ]
  }
}
"""),
    # a torus sewn at the Gaussian point 3+1j
    'sew': (['sew'], """\
[experiment]
genus = 1
[insertions]
states = a, a
points = 5, 2
[sewing]
zeta1 = 3+1j
zeta2 = -7
[truncation]
rho_order = 3
q_order = 3
""", """\
{
  "command": "sew",
  "config": {
    "experiment": {
      "genus": "1"
    },
    "insertions": {
      "points": "5, 2",
      "states": "a, a"
    },
    "sewing": {
      "zeta1": "3+1j",
      "zeta2": "-7"
    },
    "truncation": {
      "q_order": "3",
      "rho_order": "3"
    }
  },
  "result": {
    "genus": 2,
    "prefactor_q_exponent": "-1/24",
    "series": {
      "coeffs": [
        [
          0,
          {
            "coeffs": [
              [
                0,
                "10/9",
                "0"
              ],
              [
                1,
                "361/90",
                "0"
              ],
              [
                2,
                "9379/450",
                "0"
              ]
            ],
            "min_exponent": 0,
            "truncation": 3,
            "variable": "q"
          }
        ],
        [
          1,
          {
            "coeffs": [
              [
                0,
                "-29687/432",
                "6167/1296"
              ],
              [
                1,
                "-9979213/10080",
                "-58461199/90720"
              ],
              [
                2,
                "-58589491/35280",
                "1743121127/396900"
              ]
            ],
            "min_exponent": 0,
            "truncation": 3,
            "variable": "q"
          }
        ],
        [
          2,
          {
            "coeffs": [
              [
                0,
                "545107409/69984",
                "-594343393/69984"
              ],
              [
                1,
                "65447805499/244944",
                "1485829913/22680"
              ],
              [
                2,
                "73916495262271/42865200",
                "11127485944037/57153600"
              ]
            ],
            "min_exponent": 0,
            "truncation": 3,
            "variable": "q"
          }
        ]
      ],
      "min_exponent": 0,
      "truncation": 3,
      "variable": "rho"
    }
  },
  "truncation": {
    "q_order": 3,
    "rho_order": 3
  }
}
"""),
    # D^n steps on the sewn sphere, one point 2+1j
    'npoint-reduction': (['npoint', '--reduction'], """\
[experiment]
genus = 2
[insertions]
states = a, aa, a
points = 5, 2+1j, -3
[schottky]
genus = 2
points = -1, 1, -4, 4
[truncation]
rho_orders = 2, 2
""", """\
{
  "command": "npoint",
  "config": {
    "experiment": {
      "genus": "2"
    },
    "insertions": {
      "points": "5, 2+1j, -3",
      "states": "a, aa, a"
    },
    "schottky": {
      "genus": "2",
      "points": "-1, 1, -4, 4"
    },
    "truncation": {
      "rho_orders": "2, 2"
    }
  },
  "path": "reduction",
  "result": {
    "genus": 2,
    "prefactor_q_exponent": "0",
    "series": {
      "coeffs": [
        [
          0,
          {
            "coeffs": [
              [
                0,
                "63/8450",
                "8/4225"
              ],
              [
                1,
                "82789/1216800",
                "-1799/20280"
              ]
            ],
            "min_exponent": 0,
            "truncation": 2,
            "variable": "rho1"
          }
        ],
        [
          1,
          {
            "coeffs": [
              [
                0,
                "178651/1341522",
                "13907528/5589675"
              ],
              [
                1,
                "-17551752302233297/1377407713500000",
                "-659409035626459/29515879575000"
              ]
            ],
            "min_exponent": 0,
            "truncation": 2,
            "variable": "rho1"
          }
        ]
      ],
      "min_exponent": 0,
      "truncation": 2,
      "variable": "rho2"
    }
  },
  "truncation": {
    "rho_orders": [
      2,
      2
    ]
  }
}
"""),
    # the gn check on a trace, x1 at 3+1j
    'check-gn': (['check-complex'], """\
[experiment]
kinds = gn
[element]
genus = 1
states = a, a
points = 5, 2
[descriptors]
x1_state = aa
x1_point = 3+1j
[sewing]
zeta1 = 7
zeta2 = -9
[truncation]
q_order = 3
rho_order = 2
""", """\
{
  "command": "check-complex",
  "config": {
    "descriptors": {
      "x1_point": "3+1j",
      "x1_state": "aa"
    },
    "element": {
      "genus": "1",
      "points": "5, 2",
      "states": "a, a"
    },
    "experiment": {
      "kinds": "gn"
    },
    "sewing": {
      "zeta1": "7",
      "zeta2": "-9"
    },
    "truncation": {
      "q_order": "3",
      "rho_order": "2"
    }
  },
  "reports": [
    {
      "composition_norm": 230349.25195099888,
      "detail": {
        "form": "[Dg, Dn(x)]"
      },
      "kind": "gn",
      "residual": 0.0
    }
  ],
  "truncation": {
    "q_order": 3,
    "rho_order": 2
  }
}
"""),
}


@pytest.mark.parametrize("name", sorted(GAUSSIAN_GOLDEN))
def test_gaussian_stdout_is_pinned(name, write_config, capsys):
    argv, config, stdout = GAUSSIAN_GOLDEN[name]
    code, out, _ = run_cli([argv[0], "--config", write_config(config), *argv[1:]], capsys)
    assert code == 0
    assert out == stdout
