"""Streaming campaign aggregation: running per-cell mean/CI.

This is the **aggregation layer** of the campaign service (see
``docs/campaigns.md``).  :class:`Welford` is the single-pass
mean/variance accumulator that *is* the project's CI implementation —
:func:`repro.analysis.stats.mean_ci` folds through it — so a streaming
aggregate and a batch aggregate are the same arithmetic by construction,
not approximately.

:class:`StreamingAggregate` maintains one accumulator-feed per
(cell, metric) as run records land, in any arrival order, and snapshots
to exactly the values ``CampaignResult.aggregate`` would produce over
the same runs (bit-for-bit: values are folded in campaign slot order,
not arrival order, so float non-associativity cannot diverge the two).
:func:`campaign_status` assembles the same view straight from a
:class:`~repro.experiments.store.ResultStore`, which is what lets
``status`` render tables for a campaign that is still running — or that
some other machine is running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Welford",
    "StreamingAggregate",
    "CampaignStatus",
    "campaign_status",
]


class Welford:
    """Single-pass running mean/variance (Welford's algorithm).

    Carries the same value discipline as the historical two-pass
    ``mean_ci``: non-finite samples are filtered, zero samples yield a
    ``nan`` summary, a single sample yields an infinite half-width.
    This class is the one source of truth for CI arithmetic — batch and
    streaming aggregation both fold through it.
    """

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        if value != value or abs(value) == float("inf"):
            return  # same filter as mean_ci: non-finite samples drop out
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)

    def extend(self, values) -> "Welford":
        for value in values:
            self.add(value)
        return self

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator), ``nan`` below two samples."""
        if self.n < 2:
            return float("nan")
        return self._m2 / (self.n - 1)

    def ci(self, confidence: float = 0.95):
        """The running Student-t :class:`~repro.analysis.stats.CiSummary`."""
        from repro.analysis.stats import CiSummary, t_quantile

        if self.n == 0:
            return CiSummary(float("nan"), float("nan"), 0)
        if self.n == 1:
            return CiSummary(self.mean, float("inf"), 1)
        t = t_quantile(confidence, self.n - 1)
        half = t * math.sqrt(self.variance / self.n)
        return CiSummary(self.mean, half, self.n)


#: a cell key as CampaignResult.by_cell uses it: (protocol, point items)
CellKey = Tuple[str, Tuple]


class StreamingAggregate:
    """Per-cell running aggregates over a campaign, fed one run at a time.

    ``update(index, result)`` accepts runs in any completion order
    (``index`` is the run's position in ``spec.configs()``);
    :meth:`snapshot` folds each cell's landed values in slot order, so
    it equals ``CampaignResult.aggregate`` over the same runs exactly.
    """

    def __init__(self, spec, metrics: Sequence[str]) -> None:
        from repro.experiments.backends import metric_extractor

        self.spec = spec
        self.metrics = tuple(metrics)
        self.total = spec.size()
        self.done = 0
        backends = spec.backends()
        self._extract: Dict[str, Callable] = {
            m: metric_extractor(m, backends) for m in self.metrics
        }
        # one slot per run per metric; None = not landed yet
        self._values: Dict[str, List[Optional[float]]] = {
            m: [None] * self.total for m in self.metrics
        }
        self._landed = [False] * self.total

    def update(self, index: int, result) -> None:
        """Fold one landed run (idempotent per slot)."""
        if self._landed[index]:
            return
        self._landed[index] = True
        self.done += 1
        for metric, extract in self._extract.items():
            self._values[metric][index] = float(extract(result))

    # ------------------------------------------------------------------
    def _cell_slices(self) -> List[Tuple[CellKey, slice]]:
        out = []
        per_cell = len(self.spec.seeds)
        for c, (proto, point) in enumerate(self.spec.cells()):
            key = (proto, tuple(point.items()))
            out.append((key, slice(c * per_cell, (c + 1) * per_cell)))
        return out

    def cell_counts(self) -> Dict[CellKey, int]:
        """Landed runs per cell (0-count cells included)."""
        return {
            key: sum(1 for x in self._landed[sl] if x)
            for key, sl in self._cell_slices()
        }

    def snapshot(
        self, confidence: float = 0.95
    ) -> Dict[str, Dict[CellKey, "object"]]:
        """{metric: {cell: CiSummary}} over everything landed so far.

        Cells with no landed runs are omitted, mirroring
        ``CampaignResult.aggregate`` on a sharded/partial campaign.
        """
        out: Dict[str, Dict[CellKey, object]] = {}
        for metric in self.metrics:
            values = self._values[metric]
            agg: Dict[CellKey, object] = {}
            for key, sl in self._cell_slices():
                landed = [
                    values[i]
                    for i in range(sl.start, sl.stop)
                    if self._landed[i]
                ]
                if landed:
                    agg[key] = Welford().extend(landed).ci(confidence)
            out[metric] = agg
        return out


@dataclass
class CampaignStatus:
    """A point-in-time view of a (possibly still running) campaign."""

    spec: object
    done: int
    total: int
    metrics: Tuple[str, ...]
    aggregates: Dict[str, Dict[CellKey, object]]  # metric -> cell -> CI
    counts: Dict[CellKey, int] = field(default_factory=dict)
    workers: Dict[str, dict] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def format_table(self) -> str:
        """Partial-campaign aggregate table (mirrors the campaign table,
        with a ``n/total`` landed-count column per cell)."""
        from repro.experiments.campaign import cell_label

        per_cell = len(self.spec.seeds)
        labels = {key: cell_label(key[1]) for key in self.counts}
        width = max([24] + [len(v) for v in labels.values()])
        header = f"{'protocol':>12s} {'grid point':>{width}s} {'n':>7s}"
        for m in self.metrics:
            header += f" {m:>24s}"
        rows = [header]
        for key, count in self.counts.items():
            proto, _ = key
            row = (
                f"{proto:>12s} {labels[key]:>{width}s} "
                f"{f'{count}/{per_cell}':>7s}"
            )
            for metric in self.metrics:
                ci = self.aggregates[metric].get(key)
                if ci is None:
                    row += f" {'-':>12s} {'-':>11s}"
                    continue
                hw = (
                    f"±{ci.half_width:.4f}"
                    if ci.half_width == ci.half_width
                    else "±nan"
                )
                row += f" {ci.mean:>12.4f} {hw:>11s}"
            rows.append(row)
        return "\n".join(rows)

    def format_workers(self, now: Optional[float] = None) -> str:
        """One line per known worker with heartbeat age and state."""
        import time as _time

        if not self.workers:
            return "# workers: none seen"
        now = _time.time() if now is None else now
        parts = [
            f"{name} ({max(0.0, now - info.get('seen_s', now)):.1f}s ago, "
            f"{info.get('state', '?')})"
            for name, info in sorted(self.workers.items())
        ]
        return f"# workers: {', '.join(parts)}"


def campaign_status(
    spec, store, metrics: Optional[Sequence[str]] = None
) -> CampaignStatus:
    """Assemble the streaming view of ``spec`` from a result store.

    Every run already persisted feeds the per-cell accumulators; runs
    still pending (or executing elsewhere) simply have not landed yet.
    Read-only: safe to call while schedulers are writing.  The store
    read is :func:`~repro.experiments.campaign.collect_campaign`'s.
    """
    from repro.experiments.campaign import collect_campaign
    from repro.experiments.store import open_store

    store = open_store(store)
    agg = collect_campaign(spec, store, stream_metrics=metrics).stream
    return CampaignStatus(
        spec=spec,
        done=agg.done,
        total=agg.total,
        metrics=agg.metrics,
        aggregates=agg.snapshot(),
        counts=agg.cell_counts(),
        workers=store.heartbeats(),
    )
