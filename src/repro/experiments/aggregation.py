"""Campaign aggregation: the Welford fold and the per-run landing slots.

This is the **aggregation layer** of the campaign service (see
``docs/campaigns.md``).  :class:`Welford` is the single-pass
mean/variance accumulator that *is* the project's CI implementation —
:func:`repro.analysis.stats.mean_ci` folds through it.

:class:`StreamingAggregate` holds one slot per run of a campaign.  Every
run, executed or loaded from a store, lands through
:meth:`StreamingAggregate.update`, in any arrival order.
:class:`~repro.experiments.campaign.CampaignResult` subclasses it and is
the one place that folds each cell's landed runs, in slot order, into a
mean ± CI and renders the table; folding in slot order rather than
arrival order keeps a pool campaign's table bit-identical to a serial
one's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.stats import CiSummary, t_quantile

if TYPE_CHECKING:
    from repro.experiments.campaign import CampaignSpec

__all__ = [
    "Welford",
    "StreamingAggregate",
]


class Welford:
    """Single-pass running mean/variance (Welford's algorithm).

    Carries the same value discipline as the historical two-pass
    ``mean_ci``: non-finite samples are filtered, zero samples yield a
    ``nan`` summary, a single sample yields an infinite half-width.
    This class is the one source of truth for CI arithmetic.
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

    def ci(self, confidence: float = 0.95) -> CiSummary:
        """The running Student-t :class:`~repro.analysis.stats.CiSummary`."""
        if self.n == 0:
            return CiSummary(float("nan"), float("nan"), 0)
        if self.n == 1:
            return CiSummary(self.mean, float("inf"), 1)
        t = t_quantile(confidence, self.n - 1)
        half = t * math.sqrt(self.variance / self.n)
        return CiSummary(self.mean, half, self.n)


@dataclass
class StreamingAggregate:
    """One slot per run of ``spec``, filled as runs land.

    ``results`` is aligned with ``spec.configs()``; a slot stays
    ``None`` until its run lands through :meth:`update`.
    """

    spec: CampaignSpec
    results: List[Optional[object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * self.spec.size()

    def update(self, index: int, result) -> None:
        """Land one run in its slot (idempotent: the first landing wins,
        so a run delivered twice is counted once)."""
        if self.results[index] is None:
            self.results[index] = result

    @property
    def done(self) -> int:
        """Runs landed so far."""
        return sum(r is not None for r in self.results)
