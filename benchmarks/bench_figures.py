"""Benches regenerating the paper's Figures 7-16 (see ``FIGURES``).

Each bench runs one figure's quick-scale sweep through the campaign
engine, prints :meth:`~repro.experiments.figures.FigureDef.report` and
asserts the figure's shape checks.  One run cache is shared by the whole
session, so figures over the same scenarios (Figures 7/8/9 extract
different metrics from the *same* simulations) run them once.

Set ``REPRO_BENCH_SEEDS`` / ``REPRO_BENCH_FULL=1`` to rescale,
``REPRO_BENCH_WORKERS=N`` to run each figure's grid on a process pool,
and ``REPRO_BENCH_STORE=spec`` (a JSON record dir, a ``.sqlite`` path,
or an explicit ``json:``/``sqlite:`` spec) to persist runs across bench
sessions.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from repro.experiments.figures import FIGURES

PAPER_FIGURES = tuple(f"fig{n:02d}" for n in range(7, 17))


@pytest.fixture(scope="session")
def run_cache() -> Dict:
    """RunResult cache shared by every figure bench in the session."""
    return {}


@pytest.mark.parametrize("fig_id", PAPER_FIGURES)
def test_figure(benchmark, run_cache: Dict, fig_id: str) -> None:
    fig = FIGURES[fig_id]
    seeds = tuple(
        int(s) for s in os.environ.get("REPRO_BENCH_SEEDS", "1,2").split(",")
    )

    def _run():
        return fig.run(
            quick=os.environ.get("REPRO_BENCH_FULL", "0") != "1",
            seeds=seeds,
            cache=run_cache,
            workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
            store=os.environ.get("REPRO_BENCH_STORE") or None,
        )

    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(f"\n# seeds={seeds}")
    print(fig.report(result))
    failed = [desc for desc, ok in fig.check(result).items() if not ok]
    assert not failed, f"shape checks failed for {fig_id}: {failed}"
