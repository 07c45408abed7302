"""Radio energy model and per-node energy accounting.

Section 3 of the paper assumes: power-controlled transmitters (energy to
reach a neighbor depends on distance), constant reception energy, and a
*discard* energy — the reception energy wasted by in-range nodes that are
not intended receivers ("overhearing").  :class:`FirstOrderRadioModel`
implements the standard first-order radio model that satisfies those
assumptions; :class:`EnergyLedger` tracks per-node joules split by
direction (tx / rx / discard) and traffic class (data / control), which is
exactly the breakdown the evaluation metrics need.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "FirstOrderRadioModel": "radio",
    "RadioModel": "radio",
    "EnergyLedger": "ledger",
    "EnergyBreakdown": "ledger",
    "Battery": "battery",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
