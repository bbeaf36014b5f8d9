"""The suite's own source tree is clean at HEAD — the CI gate in test form."""

from __future__ import annotations

from pathlib import Path

from repro_lint.core import run_analysis

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_has_zero_findings() -> None:
    findings = run_analysis([str(SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)
