"""Exit codes and output formats of ``python -m repro_lint``."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro_lint.__main__ import main

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
        ("TRX201", 6), ("TRX201", 7)]


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
    "TRX201",
    "TRX501",
    "TRX801", "TRX802", "TRX803",
    "TRX901", "TRX902", "TRX903",
]


def test_list_rules_names_every_rule(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == RETAINED_RULES
    audit = (REPO / "docs" / "analysis.md").read_text()
    assert re.findall(r"^\| (TRX\d+) \|", audit, re.MULTILINE) == RETAINED_RULES


# ----------------------------------------------------------------------
# The dependency is one-way: the tool reads src/repro, never the reverse
# ----------------------------------------------------------------------
def test_no_module_under_src_imports_the_tool() -> None:
    importers = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "repro_lint" for name in names):
                importers.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert importers == []
