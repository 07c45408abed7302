"""Multi-group multicast: k concurrent SS-SPST trees on one network.

The paper evaluates exactly one multicast group at a time; this package
makes the group a first-class *plural*.  A :class:`~repro.groups.models.GroupSet`
realizes ``group_count`` groups over one scenario (drawn by the
``group-size`` and ``group-overlap`` axes of
:mod:`repro.experiments.scenario_models`, hash-neutral at the paper's
single group), both backends stabilize one tree per group over the same
topology (each through one run path in which k = 1 is the one-group
case), and :mod:`repro.groups.metrics` defines the cross-group
quantities — per-group PDR, Jain fairness, link stress and tree
overlap — campaigns sweep through the ``group_count`` axis.  See ``docs/groups.md``.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "GroupSet": "models",
    "GroupSpec": "models",
    "jain_index": "metrics",
    "link_stress_stats": "metrics",
    "multicast_tree_edges": "metrics",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
