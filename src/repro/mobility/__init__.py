"""Node mobility models.

The paper's evaluation (section 6) uses the random way-point model *with the
Yoon–Liu–Noble fix*: node speeds are drawn from ``[v_min, v_max]`` with
``v_min > 0`` so the average speed does not decay over time ("Random
Waypoint Considered Harmful", INFOCOM'03).  :class:`RandomWaypoint`
implements exactly that.  Additional models (random walk, Gauss–Markov,
static placement, explicit traces) support the test-suite and extension
experiments.

All models share the :class:`MobilityModel` interface: ``positions(t)``
returns the ``(n, 2)`` position array at simulation time ``t`` where ``t``
must be non-decreasing across calls (models advance lazily).

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "MobilityModel": "base",
    "StaticPlacement": "static",
    "RandomWaypoint": "random_waypoint",
    "RandomWalk": "random_walk",
    "GaussMarkov": "gauss_markov",
    "TraceMobility": "trace",
    "load_trace_file": "trace",
    "LinkChurnStats": "analysis",
    "MobilityProfile": "analysis",
    "mobility_profile": "analysis",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
