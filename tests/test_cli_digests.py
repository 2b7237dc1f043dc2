"""The comparison of tools/cli_digests.py, on synthetic results."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)

OURS = {"sew --config configs/a.cfg": ("o1", "e1", 0), "(no argument)": ("o2", "e2", 2),
        "-h": ("o3", "e3", 0)}


def test_identical_results_differ_nowhere():
    assert cli_digests.differing(OURS, dict(OURS)) == []


def test_stdout_stderr_and_exit_code_each_differ():
    theirs = {**OURS, "sew --config configs/a.cfg": ("o1", "e1", 1),
              "(no argument)": ("o2", "other", 2), "-h": ("other", "e3", 0)}
    assert cli_digests.differing(OURS, theirs) == list(OURS)


def test_a_call_on_one_side_only_differs_in_the_order_run():
    theirs = {"-h": OURS["-h"], "(no argument)": OURS["(no argument)"], "extra": ("o", "e", 0)}
    assert cli_digests.differing(OURS, theirs) == ["sew --config configs/a.cfg", "extra"]


def test_each_result_is_one_line():
    assert cli_digests.format_results(OURS).splitlines() == [
        "o1  e1  0  sew --config configs/a.cfg", "o2  e2  2  (no argument)", "o3  e3  0  -h"]


def test_every_shipped_config_command_is_called():
    calls = cli_digests.config_calls(ROOT)
    assert ["npoint", "--config", "configs/twopoint-a.cfg", "--oracle"] in calls
    assert ["npoint", "--config", "configs/twopoint-a.cfg", "--reduction"] in calls
    named = {path.name for path in (ROOT / "configs").glob("*.cfg")}
    assert {Path(argv[2]).name for argv in calls} == named


def test_against_exits_1_and_names_the_calls_that_differ(monkeypatch, capsys):
    results = {"parent": {**OURS, "-h": ("other", "e3", 0)}, "change": OURS}
    monkeypatch.setattr(cli_digests, "run_calls", lambda checkout, argvs: results[checkout.name])
    assert cli_digests.main(["--checkout", "change", "--against", "parent"]) == 1
    captured = capsys.readouterr()
    assert captured.out == cli_digests.format_results(OURS)
    assert "differs: -h\n" in captured.err
    results["parent"] = OURS
    assert cli_digests.main(["--checkout", "change", "--against", "parent"]) == 0
