"""Report helpers: shape-check summaries."""

from __future__ import annotations

from typing import Dict


def shape_report(checks: Dict[str, bool]) -> str:
    """Human-readable pass/fail list of a figure's shape checks."""
    lines = []
    for desc, ok in checks.items():
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {desc}")
    return "\n".join(lines)
