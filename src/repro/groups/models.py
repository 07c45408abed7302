"""Group data types: the k concurrent multicast groups of one scenario.

:class:`GroupSpec` is one group (id, source, receivers) and
:class:`GroupSet` the realized k >= 1 groups of one scenario.  The
``group-size`` and ``group-overlap`` model axes that generate groups
1..k-1, and :func:`~repro.experiments.scenario_models.build_groups`,
live in :mod:`repro.experiments.scenario_models` with the other scenario
axes; :func:`_draw_group` is the sampler they share.

Determinism and the single-group bit-identity contract
------------------------------------------------------

Group 0 is **always** the historical group: source plus receivers from
the config's membership model, drawn from the historical ``"group"``
substream by :func:`~repro.experiments.scenario_models.build_scenario_space`
before any group model is consulted.  Extra groups draw exclusively from
the per-group ``derive("groups", gid)`` substreams, so a
``group_count=1`` config makes *zero* additional RNG draws — its
trajectories, summaries and cache hashes are bit-identical to the code
before groups existed (the golden fixture in ``tests/test_groups.py``
pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class GroupSpec:
    """One multicast group: its id, source and receiver set."""

    gid: int
    source: int
    receivers: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "receivers", tuple(int(r) for r in self.receivers))
        if self.source in self.receivers:
            raise ValueError("receivers must exclude the source")

    @property
    def members(self) -> Tuple[int, ...]:
        """Source plus receivers."""
        return (self.source, *self.receivers)

    @property
    def size(self) -> int:
        return 1 + len(self.receivers)


@dataclass(frozen=True)
class GroupSet:
    """The realized group structure of one scenario (k >= 1 groups)."""

    groups: Tuple[GroupSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("a GroupSet needs at least one group")
        if [g.gid for g in self.groups] != list(range(len(self.groups))):
            raise ValueError("group ids must be 0..k-1 in order")

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, gid: int) -> GroupSpec:
        return self.groups[gid]


def _draw_group(gid: int, pool: List[int], size: int, rng) -> GroupSpec:
    """Sample one group (source = first draw) from a candidate pool."""
    if size > len(pool):
        raise ValueError(
            f"group {gid} needs {size} members but only {len(pool)} "
            f"candidate nodes remain"
        )
    picks = rng.choice(len(pool), size=size, replace=False)
    members = [int(pool[i]) for i in picks]
    return GroupSpec(gid=gid, source=members[0], receivers=tuple(members[1:]))

