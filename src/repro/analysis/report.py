"""Report helpers: shape-check summaries and metric tables."""

from __future__ import annotations

from typing import Dict


def shape_report(checks: Dict[str, bool]) -> str:
    """Human-readable pass/fail list of a figure's shape checks."""
    lines = []
    for desc, ok in checks.items():
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {desc}")
    return "\n".join(lines)


def metric_spec_table(backend_name: str) -> str:
    """The typed metric registry of one experiment backend, as a table.

    One row per :class:`~repro.experiments.backends.MetricSpec` — the
    source of the README's per-backend metric tables.
    """
    from repro.experiments.backends import backend_by_name

    specs = backend_by_name(backend_name).metrics()
    name_w = max(len("metric"), max(len(n) for n in specs))
    unit_w = max(len("unit"), max(len(s.unit) for s in specs.values()))
    lines = [
        f"{'metric':<{name_w}}  {'unit':<{unit_w}}  description",
        f"{'-' * name_w}  {'-' * unit_w}  {'-' * 11}",
    ]
    for name, spec in specs.items():
        lines.append(
            f"{name:<{name_w}}  {spec.unit or '-':<{unit_w}}  {spec.description}"
        )
    return "\n".join(lines)
