"""Confidence intervals for seed-replicated results.

The paper plots seed-averaged points without error bars; for a careful
reproduction we also expose confidence intervals (Student-t over seeds) so
shape claims can be checked against overlap rather than point estimates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import List, Sequence


@dataclass(frozen=True)
class CiSummary:
    """Mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "CiSummary") -> bool:
        return self.low <= other.high and other.low <= self.high


def t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value for a confidence level.

    The ``t`` with ``P(|T| <= t) = confidence`` for ``T`` Student-t with
    ``df`` degrees of freedom, from the standard library alone: closed
    forms at ``df`` 1 and 2, Newton on the finite-series CDF otherwise
    (see :func:`_central_mass`).  Within ~1e-13 relative of the exact
    quantile for confidence levels 0.5-0.999 and ``df`` up to 10000.
    Memoized per ``(confidence, df)``.
    """
    if not isinstance(df, numbers.Integral) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    return _t_quantile(float(confidence), int(df))


def _central_mass(t: float, df: int) -> float:
    """``P(|T| <= t)`` for integer ``df >= 3`` (Abramowitz & Stegun
    26.7.3 for odd ``df``, 26.7.4 for even).

    Both are finite series in ``cos²θ = df / (df + t²)``.  The k-th term
    is formed as ``coef_k * exp(k * log cos²θ)`` with ``log cos²θ =
    -log1p(t²/df)`` rather than by repeated multiplication by
    ``cos²θ``: that would raise the rounding error of ``cos²θ`` to the
    k-th power too, which at ``df`` in the thousands costs ~1e-12 of
    the quantile.
    """
    log_c2 = -math.log1p(t * t / df)
    odd = df % 2

    def terms():
        coef = 1.0
        yield math.exp(odd / 2 * log_c2)
        for k in range(1, df // 2):
            coef *= (2 * k - 1 + odd) / (2 * k + odd)
            yield coef * math.exp((k + odd / 2) * log_c2)

    mass = t / math.sqrt(df + t * t) * math.fsum(terms())  # sinθ · series
    if odd:
        mass = 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + mass)
    return mass


@lru_cache(maxsize=1024)
def _t_quantile(confidence: float, df: int) -> float:
    if df == 1:
        return math.tan(math.pi * confidence / 2.0)
    if df == 2:
        return confidence * math.sqrt(2.0 / ((1.0 - confidence) * (1.0 + confidence)))
    log_norm = (
        math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    )
    # The normal quantile lies below the t quantile and the central mass
    # is concave in t > 0, so Newton climbs monotonically from the left;
    # a step that is no longer clearly positive means rounding noise.
    t = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    for _ in range(100):
        density = math.exp(log_norm - (df + 1) / 2.0 * math.log1p(t * t / df))
        step = (confidence - _central_mass(t, df)) / (2.0 * density)
        t += step
        if step <= 1e-13 * t:
            break
    return t


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> CiSummary:
    """Student-t confidence interval over a (small) sample.

    A fold through the single-pass accumulator
    :class:`repro.experiments.aggregation.Welford` — the same arithmetic
    the streaming campaign aggregation runs, so batch and streaming CIs
    agree bit-for-bit by construction.  Non-finite samples are filtered;
    an empty sample yields ``nan``, a singleton an infinite half-width.
    """
    from repro.experiments.aggregation import Welford

    return Welford().extend(values).ci(confidence)


def dominates(
    result,
    metric: str,
    better: str,
    worse: str,
    direction: str = "lower",
    confidence: float = 0.90,
) -> List[bool]:
    """Per-x: does ``better`` beat ``worse`` with CI separation?

    ``result`` is a :class:`~repro.experiments.figures.FigureResult`;
    ``metric`` is a metric name read through its per-cell CIs.
    ``direction='lower'`` means smaller values win (energy, delay).
    Entries are True where the winner's CI clears the loser's CI without
    overlap; used by the stricter variants of the shape checks.
    """
    cis = result.cis(metric, confidence)
    verdicts = []
    for x in result.x_values:
        b, w = cis[(better, x)], cis[(worse, x)]
        if direction == "lower":
            verdicts.append(b.high < w.low)
        else:
            verdicts.append(b.low > w.high)
    return verdicts
