"""The summary of tools/bench_pairs.py, on synthetic run results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(run_ref, failed=0, rss=20.0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "setup_s": {"value": 0.02, "unit": "s"},
        "run_ref": {"value": run_ref, "unit": "ref"},
        "top_op_ref": {"value": run_ref / 2, "unit": "ref"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_a_clear_gain_is_lower_in_every_pair_and_beyond_the_spread():
    parent = [_run(x) for x in (0.50, 0.52, 0.48, 0.51, 0.49)]
    change = [_run(x) for x in (0.36, 0.35, 0.37, 0.34, 0.36)]
    out = bench_pairs.summarize(parent, change, DECLARED)
    run_ref = out["run_ref"]
    assert run_ref["parent"] == {"runs": [0.5, 0.52, 0.48, 0.51, 0.49], "median": 0.5,
                                 "q1": 0.49, "q3": 0.51}
    assert run_ref["change"]["median"] == 0.36
    assert run_ref["change_vs_parent"] == "-28.0%"
    assert run_ref["pairs_lower"] == "5 of 5"
    assert run_ref["median_gap"] == -0.14 and run_ref["parent_iqr"] == 0.02
    assert run_ref["beyond_bound"] is False
    assert run_ref["gain_shown"] is True
    # equal values are lower in no pair
    assert out["setup_s"]["pairs_lower"] == "0 of 5"
    assert out["setup_s"]["change_vs_parent"] == "+0.0%"
    assert set(out) == {spec["name"] for spec in DECLARED} | {"failed"}


def _ten_pairs(parent_values, change_values):
    return [_run(x) for x in parent_values], [_run(x) for x in change_values]


PARENT_10 = (0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.51)


def test_a_gain_needs_nine_of_ten_pairs():
    # lower in 9 of 10 pairs, the medians 0.1 apart against a parent IQR
    # of 0.0175: shown; lower in 8 of 10 with the same medians: not shown
    nine = [x - 0.1 for x in PARENT_10[:9]] + [0.6]
    assert bench_pairs.summarize(*_ten_pairs(PARENT_10, nine), DECLARED)["run_ref"][
        "gain_shown"] is True
    eight = [x - 0.1 for x in PARENT_10[:8]] + [0.6, 0.6]
    out = bench_pairs.summarize(*_ten_pairs(PARENT_10, eight), DECLARED)["run_ref"]
    assert out["pairs_lower"] == "8 of 10" and out["gain_shown"] is False


def test_a_tie_is_a_win_for_neither_side():
    # 8 pairs lower and 2 ties is 8 wins of 10
    ties = [x - 0.1 for x in PARENT_10[:8]] + list(PARENT_10[8:])
    out = bench_pairs.summarize(*_ten_pairs(PARENT_10, ties), DECLARED)["run_ref"]
    assert out["pairs_lower"] == "8 of 10" and out["gain_shown"] is False


def test_a_gain_within_the_parents_spread_is_not_shown():
    # lower in every pair, but the medians are 0.01 apart and the parent's
    # IQR is 0.0175
    close = [x - 0.01 for x in PARENT_10]
    out = bench_pairs.summarize(*_ten_pairs(PARENT_10, close), DECLARED)["run_ref"]
    assert out["pairs_lower"] == "10 of 10"
    assert out["parent_iqr"] == 0.0175 and out["gain_shown"] is False


def test_a_higher_is_better_gain_is_a_rise():
    declared = [{"name": "run_ref", "better": "higher", "bound": 0.1}]
    parent, _ = _ten_pairs(PARENT_10, PARENT_10)
    risen = bench_pairs.summarize(parent, [_run(x + 0.1) for x in PARENT_10], declared)
    fallen = bench_pairs.summarize(parent, [_run(x - 0.1) for x in PARENT_10], declared)
    assert risen["run_ref"]["gain_shown"] is True
    assert fallen["run_ref"]["gain_shown"] is False


def test_pairs_are_matched_by_position():
    # the change is lower in the pairs where it is, whatever the medians
    parent = [_run(x) for x in (1.0, 2.0, 3.0)]
    change = [_run(x) for x in (1.5, 1.5, 3.5)]
    assert bench_pairs.summarize(parent, change, DECLARED)["run_ref"]["pairs_lower"] == "1 of 3"


@pytest.mark.parametrize("rss, beyond", [(21.0, False), (21.1, True)])
def test_worse_by_more_than_the_bound(rss, beyond):
    # peak_rss_mb is bounded at 5%: 20 -> 21 is on the bound, 21.1 past it
    parent = [_run(0.5, rss=20.0) for _ in range(3)]
    change = [_run(0.5, rss=rss) for _ in range(3)]
    out = bench_pairs.summarize(parent, change, DECLARED)
    assert out["peak_rss_mb"]["beyond_bound"] is beyond


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    declared = [{"name": "run_ref", "better": "higher", "bound": 0.1}]
    parent = [_run(1.0) for _ in range(3)]
    assert bench_pairs.summarize(parent, [_run(0.85)] * 3, declared)["run_ref"]["beyond_bound"]
    assert not bench_pairs.summarize(parent, [_run(2.0)] * 3, declared)["run_ref"]["beyond_bound"]


def test_failed_operations_are_kept_per_run():
    out = bench_pairs.summarize([_run(0.5), _run(0.5, failed=2)], [_run(0.4, failed=1), _run(0.4)],
                                DECLARED)
    assert out["failed"] == {"parent": [0, 2], "change": [1, 0]}


def test_a_single_pair_has_its_value_as_quartiles():
    out = bench_pairs.summarize([_run(0.5)], [_run(0.4)], DECLARED)
    assert out["run_ref"]["parent"] == {"runs": [0.5], "median": 0.5, "q1": 0.5, "q3": 0.5}
    assert out["run_ref"]["parent_iqr"] == 0


def test_unmatched_runs_are_refused():
    with pytest.raises(ValueError, match="one parent run and one change run per pair"):
        bench_pairs.summarize([_run(0.5)], [], DECLARED)
    with pytest.raises(ValueError, match="one parent run and one change run per pair"):
        bench_pairs.summarize([], [], DECLARED)


# -- the digest check ---------------------------------------------------

_DIGESTS = ("{a}  trace-a-a  npoint --oracle  0.009s\n"
            "{b}  sew-torus-bare  sew  0.007s\n")


def test_equal_digests_are_identical_whatever_the_timings():
    parent = _DIGESTS.format(a="1" * 64, b="2" * 64)
    change = parent.replace("0.009s", "0.004s")
    assert bench_pairs.compare_digests(parent, change) == {"digests_identical": True,
                                                           "digests_differ": []}


def test_a_changed_digest_names_its_operation():
    parent = _DIGESTS.format(a="1" * 64, b="2" * 64)
    change = _DIGESTS.format(a="1" * 64, b="3" * 64)
    assert bench_pairs.compare_digests(parent, change) == {"digests_identical": False,
                                                           "digests_differ": ["sew-torus-bare"]}


def test_an_operation_on_one_side_only_differs():
    parent = _DIGESTS.format(a="1" * 64, b="2" * 64)
    change = parent.splitlines()[0] + "\n"
    out = bench_pairs.compare_digests(parent, change)
    assert out == {"digests_identical": False, "digests_differ": ["sew-torus-bare"]}


def test_no_digest_lines_are_refused():
    with pytest.raises(ValueError, match="no digest lines"):
        bench_pairs.compare_digests("", "\n")
