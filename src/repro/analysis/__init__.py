"""Result presentation: ASCII plots and report tables.

Matplotlib-free by design (the execution environment is offline); the
figure reports print gnuplot-style numeric series — the same rows the
paper's figures plot — plus a quick ASCII rendering for eyeballing
trends.

Exports resolve on first use (:func:`repro.lazy_exports`), except
:func:`ascii_plot`, which is bound eagerly because its submodule
shares its name (importing that submodule would otherwise rebind
the package attribute to the module).
"""

from repro import lazy_exports
from repro.analysis.ascii_plot import ascii_plot

_LAZY_EXPORTS = {
    "CiSummary": "stats",
    "mean_ci": "stats",
    "dominates": "stats",
    "shape_report": "report",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = ["ascii_plot", *_LAZY_EXPORTS]
