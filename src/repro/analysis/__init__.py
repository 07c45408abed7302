"""Result presentation: ASCII plots and report tables.

Matplotlib-free by design (the execution environment is offline); the
figure reports print gnuplot-style numeric series — the same rows the
paper's figures plot — plus a quick ASCII rendering for eyeballing
trends.
"""

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.stats import CiSummary, campaign_cis, mean_ci, sweep_cis, dominates
from repro.analysis.report import metric_spec_table, shape_report, series_table

__all__ = [
    "ascii_plot",
    "shape_report",
    "metric_spec_table",
    "series_table",
    "CiSummary",
    "mean_ci",
    "sweep_cis",
    "campaign_cis",
    "dominates",
]
