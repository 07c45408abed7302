"""Group-set models: how k concurrent multicast groups are generated.

Two registry-backed axes extend the PR-5 scenario-model family onto the
group dimension of :class:`~repro.experiments.config.ScenarioConfig`:

``group-size`` (config field ``group_size_model``)
    How the sizes of groups 1..k-1 derive from the configured
    ``group_size`` — ``"fixed"`` (default: every group has the same
    size) or ``"linear-ramp"`` (sizes shrink linearly down to
    ``ramp_min_frac * group_size``).

``group-overlap`` (config field ``overlap_model``)
    How groups 1..k-1 pick their members — ``"independent"`` (default:
    each group samples uniformly, overlap happens naturally),
    ``"disjoint"`` (no node serves two groups) or ``"shared-core"``
    (a ``core_frac`` fraction of every extra group is drawn from group
    0's receivers, modelling a popular common audience).

Determinism and the single-group bit-identity contract
------------------------------------------------------

Group 0 is **always** the historical group: source plus receivers from
the config's membership model, drawn from the historical ``"group"``
substream by :func:`~repro.experiments.scenario_models.build_scenario_space`
before this module is consulted.  Extra groups draw exclusively from the
per-group ``derive("groups", gid)`` substreams, so a ``group_count=1``
config makes *zero* additional RNG draws — its trajectories, summaries
and cache hashes are bit-identical to the code before groups existed
(the golden fixture in ``tests/test_groups.py`` pins this).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core.metrics import SS_PROTOCOL_METRICS

if TYPE_CHECKING:  # experiments imports this module; keep it leaf-light
    from repro.experiments.config import ScenarioConfig
    from repro.util.rng import RngStreams


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


# ----------------------------------------------------------------------
# Model base
# ----------------------------------------------------------------------
class GroupModel(abc.ABC):
    """One choice on one group axis (mirrors ``ScenarioModel``)."""

    #: which axis this model belongs to ("group-size" / "group-overlap")
    axis: str = "?"
    #: registry/config name
    name: str = "?"
    #: accepted ``model_params`` keys -> default values
    params: Dict[str, object] = {}

    def validate(self, config: "ScenarioConfig", backend: str) -> None:
        """Raise ``ValueError`` when ``config`` cannot realize this model."""

    def param(self, config: "ScenarioConfig", key: str):
        """A model parameter from the config, or this model's default."""
        return dict(config.model_params).get(key, self.params[key])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{self.axis} model {self.name!r}>"


# ----------------------------------------------------------------------
# group-size axis: sizes of groups 1..k-1
# ----------------------------------------------------------------------
class GroupSizeModel(GroupModel):
    axis = "group-size"

    @abc.abstractmethod
    def sizes(self, config: "ScenarioConfig") -> List[int]:
        """Member count (source included) of each group, length
        ``group_count``; index 0 is always the historical
        ``config.group_size``."""


class FixedGroupSize(GroupSizeModel):
    """Every group has the configured ``group_size``."""

    name = "fixed"

    def sizes(self, config):
        return [config.group_size] * config.group_count


class LinearRampGroupSize(GroupSizeModel):
    """Sizes shrink linearly from ``group_size`` (group 0) down to
    ``ramp_min_frac * group_size`` (the last group), floor 2."""

    name = "linear-ramp"
    params = {"ramp_min_frac": 0.5}

    def validate(self, config, backend):
        frac = float(self.param(config, "ramp_min_frac"))
        if not (0.0 < frac <= 1.0):
            raise ValueError("linear-ramp needs 0 < ramp_min_frac <= 1")

    def sizes(self, config):
        k = config.group_count
        top = config.group_size
        bottom = max(2, int(round(float(self.param(config, "ramp_min_frac")) * top)))
        if k == 1:
            return [top]
        return [
            max(2, int(round(top + (bottom - top) * g / (k - 1))))
            for g in range(k)
        ]


# ----------------------------------------------------------------------
# group-overlap axis: membership of groups 1..k-1
# ----------------------------------------------------------------------
class GroupOverlapModel(GroupModel):
    axis = "group-overlap"

    @abc.abstractmethod
    def extra_groups(
        self,
        config: "ScenarioConfig",
        sizes: List[int],
        group0: GroupSpec,
        streams: "RngStreams",
    ) -> List[GroupSpec]:
        """Build groups 1..k-1.  Draws only from the per-group
        ``derive("groups", gid)`` substreams (the bit-identity contract:
        ``group_count=1`` never reaches this method)."""


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


class IndependentOverlap(GroupOverlapModel):
    """Each extra group samples its members uniformly over all nodes;
    cross-group overlap happens at the natural hypergeometric rate."""

    name = "independent"

    def extra_groups(self, config, sizes, group0, streams):
        pool = list(range(config.n_nodes))
        return [
            _draw_group(g, pool, sizes[g], streams.derive("groups", g))
            for g in range(1, config.group_count)
        ]


class DisjointOverlap(GroupOverlapModel):
    """No node serves two groups: each extra group samples from the
    nodes no earlier group (including group 0) claimed."""

    name = "disjoint"

    def validate(self, config, backend):
        # Worst case every group keeps the configured size; the exact
        # per-size check happens at build time (sizes may ramp down).
        if config.group_count * 2 > config.n_nodes:
            raise ValueError(
                f"disjoint overlap cannot fit {config.group_count} groups "
                f"of >= 2 nodes into n_nodes={config.n_nodes}"
            )

    def extra_groups(self, config, sizes, group0, streams):
        used = set(group0.members)
        out = []
        for g in range(1, config.group_count):
            pool = sorted(set(range(config.n_nodes)) - used)
            spec = _draw_group(g, pool, sizes[g], streams.derive("groups", g))
            used.update(spec.members)
            out.append(spec)
        return out


class SharedCoreOverlap(GroupOverlapModel):
    """Every extra group draws ``core_frac`` of its receivers from group
    0's receivers (a shared popular audience) and the rest — source
    included — from the remaining nodes."""

    name = "shared-core"
    params = {"core_frac": 0.5}

    def validate(self, config, backend):
        frac = float(self.param(config, "core_frac"))
        if not (0.0 <= frac <= 1.0):
            raise ValueError("shared-core needs 0 <= core_frac <= 1")

    def extra_groups(self, config, sizes, group0, streams):
        frac = float(self.param(config, "core_frac"))
        base_core = sorted(group0.receivers)
        out = []
        for g in range(1, config.group_count):
            rng = streams.derive("groups", g)
            want_core = int(round(frac * (sizes[g] - 1)))
            n_core = min(want_core, len(base_core), sizes[g] - 1)
            core_picks = rng.choice(len(base_core), size=n_core, replace=False)
            core = [base_core[i] for i in core_picks]
            pool = sorted(set(range(config.n_nodes)) - set(core))
            rest = _draw_group(g, pool, sizes[g] - n_core, rng)
            out.append(
                GroupSpec(
                    gid=g,
                    source=rest.source,
                    receivers=tuple(list(rest.receivers) + core),
                )
            )
        return out


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
def _registry(*models: GroupModel) -> Dict[str, GroupModel]:
    return {m.name: m for m in models}


GROUP_REGISTRIES: Dict[str, Dict[str, GroupModel]] = {
    "group-size": _registry(FixedGroupSize(), LinearRampGroupSize()),
    "group-overlap": _registry(
        IndependentOverlap(), DisjointOverlap(), SharedCoreOverlap()
    ),
}

#: the hash-neutral default model of each axis (the paper: one group)
DEFAULT_GROUP_MODELS: Dict[str, str] = {
    "group-size": "fixed",
    "group-overlap": "independent",
}

#: canonical model-name order per axis (contract table, CLI help, docs)
GROUP_MODEL_NAMES: Dict[str, Tuple[str, ...]] = {
    axis: tuple(registry) for axis, registry in GROUP_REGISTRIES.items()
}

#: group axis -> the ScenarioConfig field holding the model name
GROUP_AXIS_FIELDS: Dict[str, str] = {
    "group-size": "group_size_model",
    "group-overlap": "overlap_model",
}


def group_model_by_name(axis: str, name: str) -> GroupModel:
    """Look up one group-axis model by registry name."""
    try:
        registry = GROUP_REGISTRIES[axis]
    except KeyError:
        raise ValueError(
            f"unknown group axis {axis!r}; choose from "
            f"{sorted(GROUP_REGISTRIES)}"
        ) from None
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown {axis} model {name!r}; choose from {sorted(registry)}"
        ) from None


def group_param_keys() -> set:
    """Every ``model_params`` key some registered group model accepts."""
    return {
        key
        for registry in GROUP_REGISTRIES.values()
        for model in registry.values()
        for key in model.params
    }


def resolved_group_models(config: "ScenarioConfig") -> Dict[str, GroupModel]:
    """The two group models a config resolves to, keyed by axis."""
    return {
        axis: group_model_by_name(axis, getattr(config, field_name))
        for axis, field_name in GROUP_AXIS_FIELDS.items()
    }


def validate_group_models(config: "ScenarioConfig", backend: str) -> None:
    """Group-axis resolution + realizability (called from
    :func:`~repro.experiments.scenario_models.validate_models`, and so
    from every backend's ``validate``)."""
    models = resolved_group_models(config)  # raises on unknown names
    for model in models.values():
        model.validate(config, backend)
    if config.group_count <= 1:
        return
    # Only the SS-SPST family runs one agent per group per node; the
    # on-demand baselines have no per-group realization.
    if config.protocol not in SS_PROTOCOL_METRICS:
        raise ValueError(
            f"protocol {config.protocol!r} has no multi-group realization; "
            f"group_count > 1 runs one SS-SPST-family instance per group "
            f"({', '.join(SS_PROTOCOL_METRICS)})"
        )
    sizes = models["group-size"].sizes(config)
    if any(s < 2 or s > config.n_nodes for s in sizes):
        raise ValueError(
            f"group sizes {sizes} must lie in [2, n_nodes={config.n_nodes}]"
        )


def build_groups(
    config: "ScenarioConfig",
    source: int,
    receivers: List[int],
    streams: "RngStreams",
) -> GroupSet:
    """Realize the config's group structure.

    ``source``/``receivers`` are the membership model's historical group
    (drawn before this call from the ``"group"`` substream) and become
    group 0 verbatim.  With ``group_count == 1`` this function draws
    nothing — the single-group bit-identity contract.
    """
    group0 = GroupSpec(gid=0, source=int(source), receivers=tuple(receivers))
    if config.group_count == 1:
        return GroupSet(groups=(group0,))
    models = resolved_group_models(config)
    sizes = models["group-size"].sizes(config)
    extra = models["group-overlap"].extra_groups(config, sizes, group0, streams)
    return GroupSet(groups=(group0, *extra))
