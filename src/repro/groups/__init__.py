"""Multi-group multicast: k concurrent SS-SPST trees on one network.

The paper evaluates exactly one multicast group at a time; this package
makes the group a first-class *plural*.  A :class:`~repro.groups.models.GroupSet`
realizes ``group_count`` groups over one scenario (registry-backed size
and overlap generators, hash-neutral at the paper's single group), both
backends stabilize one tree per group over the same topology (each
through one run path in which k = 1 is the one-group case), and
:mod:`repro.groups.metrics` defines the cross-group quantities —
per-group PDR, Jain fairness, link stress and tree overlap — campaigns
sweep through the ``group_count`` axis.  See ``docs/groups.md``.
"""

from repro.groups.models import (
    DEFAULT_GROUP_MODELS,
    GROUP_MODEL_NAMES,
    GroupSet,
    GroupSpec,
    build_groups,
    group_model_by_name,
    validate_group_models,
)
from repro.groups.metrics import (
    jain_index,
    link_stress_stats,
    multicast_tree_edges,
)

__all__ = [
    "DEFAULT_GROUP_MODELS",
    "GROUP_MODEL_NAMES",
    "GroupSet",
    "GroupSpec",
    "build_groups",
    "group_model_by_name",
    "jain_index",
    "link_stress_stats",
    "multicast_tree_edges",
    "validate_group_models",
]
