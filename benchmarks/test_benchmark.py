"""Tests of the benchmark's oracles and of its failure accounting.

    python3 -m pytest -q benchmarks/test_benchmark.py

The oracle tests use hand-computed values only.  The accounting tests
run a few cheap CLI operations from this checkout's src/.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import oracles
import worker
import workloads


# -- oracles ------------------------------------------------------------------


def test_partition_counts():
    assert oracles.partition_counts(11) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert oracles.partition_counts(11)[10] == 42


def test_p2_coefficients_at_x_2():
    # q^0: x/(1-x)^2; q^N: sum over n | N of n (x^n + x^-n)
    assert oracles.p2_qseries(2, 5) == [F(2), F(5, 2), F(11), F(215, 8), F(301, 4)]


def test_p2_is_symmetric_under_inversion():
    assert oracles.p2_qseries(F(5, 7), 8) == oracles.p2_qseries(F(7, 5), 8)


def test_pairing_sum_known_values():
    assert oracles.pairing_sum([1, 2]) == 1
    assert oracles.pairing_sum([0, 2]) == F(1, 4)
    # (01)(23) + (02)(13) + (03)(12) = 1 + 1/16 + 1/9
    assert oracles.pairing_sum([0, 1, 2, 3]) == F(169, 144)
    assert oracles.pairing_sum([1, 2, 4]) == 0
    assert oracles.pairing_sum([]) == 1


def test_matchings_count():
    assert sum(1 for _ in oracles._matchings(6)) == 15


def test_torus_traces_at_q0_are_sphere_values():
    # at q^0 only the vacuum is traced: the dressed sphere function
    x1, x2, x3 = F(5), F(-6), F(7)
    assert oracles.torus_a_trace([], 6) == [F(n) for n in oracles.partition_counts(6)]
    assert oracles.torus_a_trace([x1, x2], 3)[0] == x1 * x2 / (x1 - x2) ** 2
    want = 2 * x1 ** 2 * x2 * x3 / ((x1 - x2) ** 2 * (x1 - x3) ** 2)
    assert oracles.torus_aa_a_a_trace([x1, x2, x3], 3)[0] == want


def test_aa_self_contraction_is_the_e2_series():
    # with no cross contraction left, q^N of the inner factor is
    # 2 sigma_1(N) P2 at q^0: sigma_1 = 1, 3, 4, 7 for N = 1..4
    x1, x2, x3 = F(5), F(6), F(7)
    full = oracles.torus_aa_a_a_trace([x1, x2, x3], 5)
    cross = oracles.qseries_mul(oracles.p2_qseries(x1 / x2, 5), oracles.p2_qseries(x1 / x3, 5), 5)
    z = oracles.partition_counts(5)
    inner = [F(0)] * 5
    for i, c in enumerate(full):
        inner[i] = c - sum(z[j] * inner[i - j] for j in range(1, i + 1))
    p2 = oracles.p2_qseries(x2 / x3, 5)
    sigma = [0, 1, 3, 4, 7]
    for n in range(5):
        want = 2 * cross[n] + sum(2 * sigma[m] * p2[n - m] for m in range(1, n + 1))
        assert inner[n] == want


# -- checks -------------------------------------------------------------------


def _series_json(variable, coeffs, truncation):
    return {"variable": variable, "min_exponent": 0, "truncation": truncation,
            "coeffs": [[k, str(c), "0"] for k, c in enumerate(coeffs) if c != 0]}


def _op(workload, name):
    return next(op for op in workload.ops if op.name == name)


def test_trace_check_rejects_a_perturbed_coefficient():
    wl = workloads.genus1_trace(workloads.DEFAULT_SEED)
    op = _op(wl, "trace-a-a")
    q = workloads.GENUS1_TRACE_QMAX
    points = wl.points["two"]
    coeffs = oracles.torus_a_trace(points, q)
    report = {"result": {"genus": 1, "prefactor_q_exponent": "-1/24",
                         "series": _series_json("q", coeffs, q)}}
    assert op.check(report, {}) == []
    coeffs[5] += F(1, 10 ** 9)
    report["result"]["series"] = _series_json("q", coeffs, q)
    assert op.check(report, {})


def test_check_reports_a_malformed_report_as_a_problem():
    op = _op(workloads.genus1_trace(workloads.DEFAULT_SEED), "trace-a-a")
    assert op.check({"result": {}}, {})


def test_partition_check_rejects_a_broken_transpose():
    wl = workloads.genus2_sums(workloads.DEFAULT_SEED)
    handles = tuple(wl.points["handles"])
    swapped = handles[2:] + handles[:2]
    k1, k2 = workloads.GENUS2_PARTITION_ORDERS
    p = oracles.partition_counts(max(k1, k2) + 1)

    def report(hs, orders, bump=0):
        rows = []
        for j in range(orders[1]):
            inner = [p[i] if j == 0 else p[j] if i == 0 else 0 for i in range(orders[0])]
            if j == 1:
                inner[1] = workloads._corner(hs, 1, 1)
            if j == 2:
                inner[3] += bump
            rows.append([j, _series_json("rho1", inner, orders[0])])
        return {"series": {"variable": "rho2", "min_exponent": 0, "truncation": orders[1],
                           "coeffs": rows}}

    first = report(handles, (k1, k2))
    reports = {"partition-12": first}
    assert _op(wl, "partition-12").check(first, reports) == []
    assert _op(wl, "partition-21").check(report(swapped, (k2, k1)), reports) == []
    assert _op(wl, "partition-21").check(report(swapped, (k2, k1), bump=1), reports)


# -- failure accounting -----------------------------------------------------------


def _run(ops, tmp_path):
    cli = worker.load_program()
    runs = {}
    for op in ops:
        config = tmp_path / f"{op.name}.cfg"
        config.write_text(op.config)
        runs[op.name] = worker.run_op(cli, op, config)
    return runs


def test_account_counts_wrong_values_and_changed_stdout(tmp_path):
    wl = workloads.chain_conditions(workloads.DEFAULT_SEED)
    ops = tuple(op for op in wl.ops if op.name.startswith("connection"))
    wl = dataclasses.replace(wl, ops=ops)
    runs = _run(ops, tmp_path)
    passes = [worker.Pass(1.0, dict(runs)), worker.Pass(1.0, dict(runs))]
    assert worker.account(wl, passes) == (4, 0)
    changed = dataclasses.replace(runs[ops[0].name], stdout=runs[ops[0].name].stdout + " ")
    passes[1].runs[ops[0].name] = changed
    assert worker.account(wl, passes) == (4, 1)
    odd = ops[1].name
    wrong = runs[odd].stdout.replace('"rational": "-', '"rational": "', 1)
    assert wrong != runs[odd].stdout
    passes = [worker.Pass(1.0, {**runs, odd: dataclasses.replace(runs[odd], stdout=wrong)})]
    assert worker.account(wl, passes) == (2, 1)


def test_skipped_chain_check_counts_as_failed(tmp_path):
    # genus-1 handle exchange leaves the genus window: residual 0.0, skipped
    config = workloads._complex_config(1, (5, 7), (2, 4), "g", (1, -1), 2, 3)
    op = workloads.Op("check-genus1-g", ("check-complex",), config,
                      workloads._complex_check(("g",), 0))
    runs = _run([op], tmp_path)
    assert '"residual": 0.0' in runs[op.name].stdout
    wl = workloads.Workload("skip", (op,), op.name, {})
    assert worker.account(wl, [worker.Pass(1.0, runs)]) == (1, 1)
