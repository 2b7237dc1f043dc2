"""The config rewrite and the summary of tools/growth.py, with no run."""

import configparser
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("growth", ROOT / "tools" / "growth.py")
growth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(growth)

CONFIG = ("# (aa, a, a) at (5, 6, -7)\n[experiment]\ngenus = 1\n\n"
          "[insertions]\nstates = aa, a, a\npoints = 5, 6, -7\n\n[truncation]\nq_order = 14\n")


def _read(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {section: dict(parser[section]) for section in parser.sections()}


def test_the_key_takes_the_value_and_the_rest_is_kept():
    got = _read(growth.rewrite_config(CONFIG, "truncation", "q_order", "40"))
    want = _read(CONFIG)
    want["truncation"]["q_order"] = "40"
    assert got == want


def test_a_missing_section_or_key_is_added():
    got = _read(growth.rewrite_config(CONFIG, "assert", "expect_zero", "true"))
    assert got["assert"] == {"expect_zero": "true"}
    got = _read(growth.rewrite_config(CONFIG, "truncation", "rho_order", "3"))
    assert got["truncation"] == {"q_order": "14", "rho_order": "3"}


def test_key_case_is_kept():
    text = "[Probe]\nPool = 1, a\n"
    assert _read(growth.rewrite_config(text, "Probe", "g_max", "1")) == {
        "Probe": {"Pool": "1, a", "g_max": "1"}}


def _run(seconds, kb, digest="a" * 64):
    return {"code": 0, "seconds": seconds, "maxrss_kb": kb, "stdout_sha256": digest}


def test_summary_is_the_median_time_and_the_largest_rss():
    row = growth.summarize("40", [_run(0.006, 19456), _run(0.004, 19968), _run(0.005, 19200)])
    assert row == {"value": "40", "median_ms": 5.0, "runs_ms": [6.0, 4.0, 5.0],
                   "maxrss_mb": 19.5, "stdout_sha256": "a" * 64}


def test_runs_with_two_stdouts_list_both_digests():
    row = growth.summarize("14", [_run(0.001, 1024, "b" * 64), _run(0.001, 1024, "a" * 64)])
    assert row["stdout_sha256"] == ["a" * 64, "b" * 64]


def test_no_run_is_refused():
    with pytest.raises(ValueError, match="at least one run"):
        growth.summarize("14", [])
