"""Exit codes and output formats of ``python -m repro.analysis``."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.__main__ import main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def test_clean_input_exits_zero(capsys: pytest.CaptureFixture) -> None:
    assert main([str(FIXTURES / "lock_good.py")]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_locations(capsys: pytest.CaptureFixture) -> None:
    assert main([str(FIXTURES / "lock_bad.py"), "--select", "TRX1"]) == 1
    out = capsys.readouterr().out
    assert "lock_bad.py:13:" in out and "TRX101" in out
    assert "lock_bad.py:17:" in out and "TRX102" in out


def test_json_format_is_machine_readable(capsys: pytest.CaptureFixture) -> None:
    assert main([str(FIXTURES / "cost_bad.py"), "--select", "TRX2",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(entry["rule"], entry["line"]) for entry in payload] == [
        ("TRX201", 6), ("TRX201", 7), ("TRX202", 8)]


def test_unknown_selector_exits_two(capsys: pytest.CaptureFixture) -> None:
    assert main([str(FIXTURES / "lock_bad.py"), "--select", "TRX999"]) == 2
    assert "unknown rule selector" in capsys.readouterr().err


def test_missing_path_exits_two(capsys: pytest.CaptureFixture) -> None:
    assert main(["no/such/path.py"]) == 2
    assert "no such file" in capsys.readouterr().err


#: The retained rule set.  A rule cannot vanish or appear without this
#: list — and the audit table in docs/analysis.md — changing with it.
RETAINED_RULES = [
    "TRX101", "TRX102", "TRX103",
    "TRX201", "TRX202", "TRX205",
    "TRX301", "TRX302", "TRX303",
    "TRX401", "TRX402",
    "TRX501", "TRX502",
    "TRX801", "TRX802", "TRX803",
    "TRX901", "TRX902", "TRX903",
]


def test_list_rules_names_every_rule(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == RETAINED_RULES
    audit = (REPO / "docs" / "analysis.md").read_text()
    for rule_id in RETAINED_RULES:
        assert f"| {rule_id} |" in audit


# ----------------------------------------------------------------------
# One parser: `repro analyze` is `python -m repro.analysis`
# ----------------------------------------------------------------------
def _help_text(entry: Callable[[list[str]], int], argv: list[str],
               capsys: pytest.CaptureFixture) -> str:
    with pytest.raises(SystemExit) as exit_info:
        entry(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_both_entry_points_declare_the_same_four_options(
        capsys: pytest.CaptureFixture) -> None:
    module_help = _help_text(main, ["--help"], capsys)
    assert _help_text(repro_main, ["analyze", "--help"], capsys) == module_help
    options = set(re.findall(r"(?<![\w-])--[a-z-]+", module_help))
    assert options == {"--help", "--select", "--format", "--list-rules"}
    assert "paths" in module_help and "{text,json}" in module_help
    for entry, prefix in ((main, []), (repro_main, ["analyze"])):
        for removed in (["--format", "sarif"], ["--cache", "x"], ["--fix"]):
            with pytest.raises(SystemExit) as exit_info:
                entry([*prefix, *removed])
            assert exit_info.value.code == 2
            capsys.readouterr()
