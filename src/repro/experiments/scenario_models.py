"""Declarative scenario models: one registry for six axes — placement x
mobility x membership x traffic x group-size x group-overlap.

The paper evaluates under exactly one scenario family — uniform placement
in a 750 x 750 m arena, random-waypoint mobility, one static multicast
group, one CBR source.  This module turns each of those choices into a
**registry-backed model axis** on
:class:`~repro.experiments.config.ScenarioConfig` (the same move
:mod:`repro.core.daemons` made for activation schedules and
:mod:`repro.experiments.backends` made for executors), so campaigns can
sweep scenario *structure* like any other grid dimension::

    --grid mobility=waypoint,gauss-markov,static
    --grid placement=uniform,grid --grid membership=rotating
    --grid overlap_model=independent,disjoint --set group_count=3

Axes and models
---------------

Each axis reads one config field (``field`` on the axis's base class);
the four scenario axes read the field of their own name, the two group
axes read ``group_size_model`` and ``overlap_model``.  Each axis's
default is that field's dataclass default (:data:`DEFAULT_MODELS`).

``placement``
    Where nodes start: ``uniform`` (the paper; default), ``grid``
    (:mod:`repro.mobility.placement`).
``mobility``
    How nodes move: ``waypoint`` (the paper; default), ``gauss-markov``,
    ``random-walk``, ``static``, ``trace`` (:mod:`repro.mobility`).
``membership``
    Who the receivers are: ``static-random`` (the paper; default),
    ``rotating`` (join/leave churn).
``traffic``
    What the source sends: ``cbr`` (the paper, and the only model;
    :mod:`repro.traffic`).  The axis stays so every record's config
    keeps its ``traffic`` field.
``group-size``
    How the sizes of groups 1..k-1 derive from ``group_size`` (k =
    ``group_count``): ``fixed`` (default: every group has the same
    size) or ``linear-ramp`` (sizes shrink linearly down to
    ``ramp_min_frac * group_size``).
``group-overlap``
    How groups 1..k-1 pick their members: ``independent`` (default:
    each group samples uniformly, overlap happens naturally),
    ``disjoint`` (no node serves two groups) or ``shared-core`` (a
    ``core_frac`` fraction of every extra group is drawn from group 0's
    receivers, modelling a popular common audience).

Model-specific sub-parameters travel in the config's frozen
``model_params`` mapping (``--model-param key=value`` on the CLI); each
model declares the keys it accepts in its ``params`` dict, and unknown
keys are rejected at config construction so typos cannot silently run
the default.

Determinism and backend parity
------------------------------

Every model draws only from named :class:`~repro.util.rng.RngStreams`
substreams (``placement``, ``mobility``, ``group``, ``membership``, and
``groups.<gid>`` for extra group ``gid``), so scenarios are
bit-reproducible per seed across processes, and the **default axes
replicate the historical draw sequence exactly** — default-config
results, cache hashes and cache entries are unchanged by this API.
Group 0 is always the membership model's group; a ``group_count=1``
config never consults the group axes and makes no extra draw.  Both
executors build their world
through :func:`build_scenario_space`, so a ``rounds``-backend run models
the t = 0 snapshot of the DES scenario — identical placement, identical
groups — for *every* model combination, not just the defaults.
:func:`scenario_key` names that scenario: configs that differ
only in how they are run (protocol, daemon, engine) share it, which is
what lets a campaign run one scenario's runs back to back and the
rounds backend build its snapshot once.

Per-backend realizability is checked by :func:`validate_models` (called
from the backends' ``validate`` hooks): e.g. ``trace`` mobility requires
a ``trace_file`` model parameter, and k > 1 groups need an SS-SPST-family
protocol.  ``rotating`` membership *is* accepted on rounds: the round
model sees the t = 0 group, which rotation leaves intact by construction.
"""

from __future__ import annotations

import abc
import hashlib
import math
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import SS_PROTOCOL_METRICS
from repro.energy.radio import FirstOrderRadioModel
from repro.experiments.config import ScenarioConfig
from repro.groups.models import GroupSet, GroupSpec, _draw_group
from repro.mobility.base import MobilityModel
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.placement import grid_positions
from repro.mobility.random_walk import RandomWalk
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.static import StaticPlacement
from repro.mobility.trace import TraceMobility, load_trace_file
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

if TYPE_CHECKING:
    from repro.net.node import Network


class ScenarioModel(abc.ABC):
    """One choice on one scenario axis.

    Each axis base class declares its ``axis`` and the config ``field``
    naming its model; subclasses declare their registry ``name`` and the
    ``model_params`` keys they accept (``params``: key -> default), and
    implement the axis-specific build method.  ``validate`` may impose
    extra config constraints (e.g. a required parameter).
    """

    #: which axis this model belongs to
    axis: str = "?"
    #: the ScenarioConfig field holding this axis's model name
    field: str = "?"
    #: registry/config name
    name: str = "?"
    #: accepted ``model_params`` keys -> default values
    params: Dict[str, object] = {}

    def validate(self, config: "ScenarioConfig", backend: str) -> None:
        """Raise ``ValueError`` when ``config`` cannot realize this model."""

    def shapes(self, config: "ScenarioConfig") -> bool:
        """Whether building ``config``'s scenario consults this axis."""
        return True

    def param(self, config: "ScenarioConfig", key: str):
        """A model parameter from the config, or this model's default."""
        return dict(config.model_params).get(key, self.params[key])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{self.axis} model {self.name!r}>"


# ----------------------------------------------------------------------
# Placement axis
# ----------------------------------------------------------------------
class PlacementModel(ScenarioModel):
    """Initial-position sampler.

    ``initial_positions`` returns an ``(n, 2)`` array, or ``None`` to let
    the mobility model self-sample (the uniform default's historical
    path — it keeps default scenarios draw-for-draw identical to the
    pre-model-API code).  Non-default samplers draw from the dedicated
    ``placement`` substream.
    """

    axis = "placement"
    field = "placement"

    @abc.abstractmethod
    def initial_positions(
        self, config: "ScenarioConfig", arena: Arena, streams: RngStreams
    ) -> Optional[np.ndarray]: ...


class UniformPlacement(PlacementModel):
    name = "uniform"

    def initial_positions(self, config, arena, streams):
        return None  # mobility self-samples; historical draw order


class GridPlacement(PlacementModel):
    name = "grid"
    params = {"grid_jitter": 0.0}

    def initial_positions(self, config, arena, streams):
        return grid_positions(
            config.n_nodes,
            arena,
            streams.get("placement"),
            jitter_frac=float(self.param(config, "grid_jitter")),
        )


# ----------------------------------------------------------------------
# Mobility axis
# ----------------------------------------------------------------------
class MobilityAxisModel(ScenarioModel):
    """Factory for a :class:`~repro.mobility.base.MobilityModel`.

    ``initial_positions`` comes from the placement model (``None`` means
    self-sample from the ``mobility`` substream, the historical path).
    """

    axis = "mobility"
    field = "mobility"

    @abc.abstractmethod
    def build(
        self,
        config: "ScenarioConfig",
        arena: Arena,
        initial_positions: Optional[np.ndarray],
        streams: RngStreams,
    ) -> MobilityModel: ...


class WaypointMobility(MobilityAxisModel):
    name = "waypoint"

    def build(self, config, arena, initial_positions, streams):
        return RandomWaypoint(
            config.n_nodes,
            arena,
            v_min=config.v_min,
            v_max=config.v_max,
            pause_time=config.pause_time,
            rng=streams.get("mobility"),
            initial_positions=initial_positions,
        )


class GaussMarkovMobility(MobilityAxisModel):
    name = "gauss-markov"
    #: gm_mean_speed 0 = midpoint of [v_min, v_max]
    params = {
        "gm_mean_speed": 0.0,
        "gm_alpha": 0.85,
        "gm_sigma_speed": 1.0,
        "gm_sigma_dir": 0.35,
        "gm_tick": 1.0,
    }

    def build(self, config, arena, initial_positions, streams):
        mean_speed = float(self.param(config, "gm_mean_speed"))
        if mean_speed <= 0.0:
            mean_speed = 0.5 * (config.v_min + config.v_max)
        rng = streams.get("mobility")
        if initial_positions is None:
            initial_positions = arena.sample_points(config.n_nodes, rng)
        return GaussMarkov(
            config.n_nodes,
            arena,
            mean_speed=mean_speed,
            alpha=float(self.param(config, "gm_alpha")),
            sigma_speed=float(self.param(config, "gm_sigma_speed")),
            sigma_dir=float(self.param(config, "gm_sigma_dir")),
            tick=float(self.param(config, "gm_tick")),
            rng=rng,
            initial_positions=initial_positions,
        )


class RandomWalkMobility(MobilityAxisModel):
    name = "random-walk"
    params = {"walk_mean_epoch": 10.0}

    def build(self, config, arena, initial_positions, streams):
        return RandomWalk(
            config.n_nodes,
            arena,
            v_min=config.v_min,
            v_max=config.v_max,
            mean_epoch=float(self.param(config, "walk_mean_epoch")),
            rng=streams.get("mobility"),
            initial_positions=initial_positions,
        )


class StaticMobility(MobilityAxisModel):
    name = "static"

    def build(self, config, arena, initial_positions, streams):
        if initial_positions is not None:
            return StaticPlacement(
                config.n_nodes, arena, positions=initial_positions
            )
        return StaticPlacement(config.n_nodes, arena, rng=streams.get("mobility"))


class TraceMobilityModel(MobilityAxisModel):
    name = "trace"
    params = {"trace_file": ""}

    def validate(self, config, backend):
        if not str(self.param(config, "trace_file")):
            raise ValueError(
                "trace mobility needs a scenario file: pass "
                "model_params trace_file=<path> (--model-param on the CLI)"
            )
        if config.placement != "uniform":
            raise ValueError(
                "trace mobility carries its own positions; the placement "
                "axis must stay at its 'uniform' default"
            )

    def build(self, config, arena, initial_positions, streams):
        traces = load_trace_file(str(self.param(config, "trace_file")))
        if len(traces) != config.n_nodes:
            raise ValueError(
                f"trace file holds {len(traces)} node traces but the "
                f"config has n_nodes={config.n_nodes}"
            )
        return TraceMobility(arena, traces)


# ----------------------------------------------------------------------
# Membership axis
# ----------------------------------------------------------------------
class MembershipModel(ScenarioModel):
    """Multicast group construction (and, on the DES, group churn).

    ``initial_group`` fixes the t = 0 group — it is what both backends
    share, so des/rounds topology parity holds per model.  ``install``
    is a DES-only post-build hook for models that schedule join/leave
    events during the run (default: nothing).
    """

    axis = "membership"
    field = "membership"

    @abc.abstractmethod
    def initial_group(
        self,
        config: "ScenarioConfig",
        mobility: MobilityModel,
        streams: RngStreams,
    ) -> Tuple[int, List[int]]:
        """``(source, receivers)`` at t = 0 (receivers exclude the source)."""

    def install(self, network: "Network", config: "ScenarioConfig") -> None:
        """Schedule mid-run membership events on a built DES network."""


class StaticRandomMembership(MembershipModel):
    name = "static-random"

    def initial_group(self, config, mobility, streams):
        # Historical draws, bit-for-bit: source 0 plus group_size - 1
        # receivers drawn from the rest via the "group" substream.
        receivers = streams.get("group").choice(
            np.arange(1, config.n_nodes),
            size=config.group_size - 1,
            replace=False,
        )
        return 0, [int(r) for r in receivers]


class RotatingMembership(StaticRandomMembership):
    """Receiver churn: every ``rotation_period`` seconds one receiver
    leaves and one non-member joins.

    The t = 0 group is ``static-random``'s (the inherited
    ``initial_group`` — one implementation, so the draw sequences cannot
    drift apart): rotating and static runs of one seed start from the
    same scenario, and the rounds backend, which replays the t = 0
    snapshot, sees exactly that group.  Join/leave picks draw from the
    ``membership`` substream; group size is invariant, and when every
    node is already a member (``group_size == n_nodes``) rotation has
    nobody to admit and does nothing.
    """

    name = "rotating"
    params = {"rotation_period": 60.0}

    def validate(self, config, backend):
        if float(self.param(config, "rotation_period")) <= 0:
            raise ValueError("rotating membership needs rotation_period > 0")

    def install(self, network, config):
        from repro.sim.timers import PeriodicTimer

        period = float(self.param(config, "rotation_period"))
        rng = network.streams.get("membership")
        group = network.groups[0]

        def rotate() -> None:
            receivers = sorted(group.receivers)
            # Only living nodes can join (battery-limited runs deplete
            # nodes); dead receivers may still rotate *out*, which is how
            # a battery-limited group replaces casualties.
            outsiders = [
                v
                for v in range(network.n)
                if not group.has_member(v) and network.nodes[v].alive
            ]
            if not receivers or not outsiders:
                return
            leaver = receivers[int(rng.integers(len(receivers)))]
            joiner = outsiders[int(rng.integers(len(outsiders)))]
            network.update_membership(joins=[joiner], leaves=[leaver])

        # Kept alive by the timer's own simulator events; starts after
        # traffic so the first rotation hits a warmed-up tree.
        PeriodicTimer(
            network.sim,
            period,
            rotate,
            start_offset=config.traffic_start + period,
        )


# ----------------------------------------------------------------------
# Traffic axis
# ----------------------------------------------------------------------
class TrafficModel(ScenarioModel):
    """Workload factory for the DES backend (the rounds backend replays
    the t = 0 topology and builds no workload)."""

    axis = "traffic"
    field = "traffic"

    @abc.abstractmethod
    def build(self, network: "Network", config: "ScenarioConfig"):
        """A source object with ``start()`` / ``stop()`` / ``packets_sent``."""


class CbrTraffic(TrafficModel):
    name = "cbr"

    def build(self, network, config):
        from repro.traffic.cbr import CbrSource

        return CbrSource(
            network,
            rate_kbps=config.rate_kbps,
            packet_bytes=config.packet_bytes,
            start_time=config.traffic_start,
        )


# ----------------------------------------------------------------------
# group-size axis: sizes of groups 1..k-1
# ----------------------------------------------------------------------
class GroupSizeModel(ScenarioModel):
    axis = "group-size"
    field = "group_size_model"

    def shapes(self, config):
        return config.group_count > 1

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
class GroupOverlapModel(ScenarioModel):
    axis = "group-overlap"
    field = "overlap_model"

    def shapes(self, config):
        return config.group_count > 1

    @abc.abstractmethod
    def extra_groups(
        self,
        config: "ScenarioConfig",
        sizes: List[int],
        group0: GroupSpec,
        streams: RngStreams,
    ) -> List[GroupSpec]:
        """Build groups 1..k-1.  Draws only from the per-group
        ``derive("groups", gid)`` substreams (the bit-identity contract:
        ``group_count=1`` never reaches this method)."""


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
def _registry(*models: ScenarioModel) -> Dict[str, ScenarioModel]:
    return {m.name: m for m in models}


REGISTRIES: Dict[str, Dict[str, ScenarioModel]] = {
    "placement": _registry(UniformPlacement(), GridPlacement()),
    "mobility": _registry(
        WaypointMobility(),
        GaussMarkovMobility(),
        RandomWalkMobility(),
        StaticMobility(),
        TraceMobilityModel(),
    ),
    "membership": _registry(StaticRandomMembership(), RotatingMembership()),
    "traffic": _registry(CbrTraffic()),
    "group-size": _registry(FixedGroupSize(), LinearRampGroupSize()),
    "group-overlap": _registry(
        IndependentOverlap(), DisjointOverlap(), SharedCoreOverlap()
    ),
}

#: axis names in canonical order
AXES: Tuple[str, ...] = tuple(REGISTRIES)

#: axis -> the ScenarioConfig field naming its model
AXIS_FIELDS: Dict[str, str] = {
    axis: next(iter(registry.values())).field
    for axis, registry in REGISTRIES.items()
}

#: the hash-neutral default model of each axis (the paper's scenario):
#: its config field's dataclass default
DEFAULT_MODELS: Dict[str, str] = {
    axis: ScenarioConfig.__dataclass_fields__[field].default
    for axis, field in AXIS_FIELDS.items()
}

#: canonical model-name order per axis (CLI help, docs, tests)
MODEL_NAMES: Dict[str, Tuple[str, ...]] = {
    axis: tuple(registry) for axis, registry in REGISTRIES.items()
}

#: every ``model_params`` key some registered model accepts.  Keys are
#: checked against every *registered* model, not only the resolved
#: ones: a campaign base legitimately carries parameters for models a
#: grid axis selects per cell (--grid membership=rotating --model-param
#: rotation_period=30), while a typo'd key still fails at construction.
_ACCEPTED_PARAMS: FrozenSet[str] = frozenset(
    key
    for registry in REGISTRIES.values()
    for model in registry.values()
    for key in model.params
)


def model_by_name(axis: str, name: str) -> ScenarioModel:
    """Look up one axis model by registry name."""
    try:
        registry = REGISTRIES[axis]
    except KeyError:
        raise ValueError(
            f"unknown scenario axis {axis!r}; choose from {sorted(REGISTRIES)}"
        ) from None
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown {axis} model {name!r}; choose from {sorted(registry)}"
        ) from None


def resolved_models(config: "ScenarioConfig") -> Dict[str, ScenarioModel]:
    """The six models a config resolves to, keyed by axis."""
    return {
        axis: model_by_name(axis, getattr(config, field))
        for axis, field in AXIS_FIELDS.items()
    }


def validate_models(config: "ScenarioConfig", backend: str) -> None:
    """Axis-resolution + per-model + per-backend scenario validation.

    Called from each :class:`~repro.experiments.backends.ExperimentBackend`'s
    ``validate`` (and therefore from ``ScenarioConfig.__post_init__``), so
    an unknown model name, an unrealizable backend/model pairing, an
    unrealizable group structure or a mistyped ``model_params`` key
    fails at config construction.
    """
    models = resolved_models(config)  # raises on unknown names
    for model in models.values():
        model.validate(config, backend)
    if config.group_count > 1:
        # Only the SS-SPST family runs one agent per group per node; the
        # on-demand baselines have no per-group realization.
        if config.protocol not in SS_PROTOCOL_METRICS:
            raise ValueError(
                f"protocol {config.protocol!r} has no multi-group "
                f"realization; group_count > 1 runs one SS-SPST-family "
                f"instance per group ({', '.join(SS_PROTOCOL_METRICS)})"
            )
        sizes = models["group-size"].sizes(config)
        if any(s < 2 or s > config.n_nodes for s in sizes):
            raise ValueError(
                f"group sizes {sizes} must lie in [2, n_nodes={config.n_nodes}]"
            )
    unknown = sorted(set(dict(config.model_params)) - _ACCEPTED_PARAMS)
    if unknown:
        raise ValueError(
            f"model_params key(s) {unknown} are not accepted by any "
            f"registered scenario model; known keys: {sorted(_ACCEPTED_PARAMS)}"
        )


#: (path, mtime, size) -> content digest, so repeated config_key calls
#: (shard assignment, cache lookups, dry runs) stat instead of re-read
_FILE_DIGEST_MEMO: Dict[Tuple[str, float, int], str] = {}


def scenario_content_fingerprint(config: "ScenarioConfig") -> Optional[str]:
    """Content digest of external scenario inputs, or ``None``.

    Cache identity must cover what a run *reads*, not only the config
    fields: a ``trace`` run's trajectories live in the trace file, so
    editing that file in place must fork the campaign cache key instead
    of silently serving results computed from the old waypoints.  An
    unreadable file fingerprints as a marker (the run itself will fail
    loudly at build time).
    """
    if config.mobility != "trace":
        return None
    path = str(dict(config.model_params).get("trace_file", ""))
    if not path:
        return None
    try:
        stat = os.stat(path)
        key = (path, stat.st_mtime, stat.st_size)
        digest = _FILE_DIGEST_MEMO.get(key)
        if digest is None:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            _FILE_DIGEST_MEMO[key] = digest
        return digest
    except OSError:
        return "unreadable"


#: config fields that pick how a scenario is *run*, never what it is:
#: the rounds backend's t = 0 snapshot reads none of them
RUN_ONLY_FIELDS = frozenset({"protocol", "daemon", "daemon_k", "engine"})


def scenario_key(config: "ScenarioConfig") -> tuple:
    """The identity of the scenario a config runs on.

    Every config field except :data:`RUN_ONLY_FIELDS`, plus
    :func:`scenario_content_fingerprint`, so a trace file edited in
    place forks the key.  Built by exclusion, so a field added later
    joins the key by itself: the worst it can do is lose sharing, never
    share wrongly.  Configs with equal keys build the same scenario, so
    a protocol × daemon × engine sweep of one seed shares one key.  A
    plain tuple, read without building any config.
    """
    return tuple(
        getattr(config, f.name)
        for f in fields(config)
        if f.name not in RUN_ONLY_FIELDS
    ) + (scenario_content_fingerprint(config),)


def non_default_axes(config: "ScenarioConfig") -> Dict[str, str]:
    """The model fields a config moved off the paper's defaults (plus
    ``model_params`` when any are set), keyed by config field — the
    dry-run audit view."""
    out = {
        field: getattr(config, field)
        for axis, field in AXIS_FIELDS.items()
        if getattr(config, field) != DEFAULT_MODELS[axis]
    }
    if config.model_params:
        out["model_params"] = ",".join(
            f"{k}={v}" for k, v in config.model_params
        )
    return out


def plan_lines(configs: Sequence["ScenarioConfig"]) -> List[str]:
    """Dry-run summary: resolved models per axis across a campaign,
    flagging every non-default value with ``*``.  An axis every config
    leaves at its default is listed only when some config's scenario
    consults it (the group axes shape only ``group_count > 1`` runs)."""
    lines = ["# scenario models (non-default marked *):"]
    for axis, field in AXIS_FIELDS.items():
        default = DEFAULT_MODELS[axis]
        values = list(dict.fromkeys(getattr(c, field) for c in configs))
        if values == [default] and not any(
            REGISTRIES[axis][default].shapes(c) for c in configs
        ):
            continue
        shown = ",".join(v + ("" if v == default else "*") for v in values)
        lines.append(f"#   {axis}: {shown}")
    all_params = list(
        dict.fromkeys(c.model_params for c in configs if c.model_params)
    )
    if all_params:
        # Params are non-default by definition, so each set gets the star.
        shown = " | ".join(
            ",".join(f"{k}={v}" for k, v in params) + "*"
            for params in all_params
        )
        lines.append(f"#   model_params: {shown}")
    return lines


# ----------------------------------------------------------------------
# Scenario construction (shared by both backends)
# ----------------------------------------------------------------------
@dataclass
class ScenarioSpace:
    """The realized scenario structure of one config at t = 0.

    Built identically by the DES runner and the rounds backend from the
    same named RNG substreams, which is what guarantees t = 0 topology
    parity across backends for every model combination.
    """

    arena: Arena
    streams: RngStreams
    mobility: MobilityModel
    source: int
    receivers: List[int]
    models: Dict[str, ScenarioModel]
    #: the realized multicast groups; ``groups[0]`` is always
    #: ``(source, receivers)`` and a ``group_count=1`` config realizes
    #: it without any extra RNG draws (bit-identity contract)
    groups: GroupSet
    #: the config's radio constants; the DES medium charges by it and the
    #: rounds backend prices its SS-SPST cost metric with it
    radio: FirstOrderRadioModel


def effective_arena(config: "ScenarioConfig") -> Arena:
    """The run's arena, with constant-density n-scaling applied.

    With ``density_ref_n = 0`` (the hash-neutral default) the configured
    ``arena_w x arena_h`` is used verbatim.  A positive value declares
    the configured arena to be sized for that many nodes, and scales
    both dimensions by ``sqrt(n_nodes / density_ref_n)`` so node density
    stays fixed along an ``n_nodes`` sweep — without it, growing n in a
    fixed arena conflates size effects with density effects.
    """
    if config.density_ref_n <= 0:
        return Arena(config.arena_w, config.arena_h)
    scale = math.sqrt(config.n_nodes / config.density_ref_n)
    return Arena(config.arena_w * scale, config.arena_h * scale)


def build_groups(
    config: "ScenarioConfig",
    source: int,
    receivers: List[int],
    streams: RngStreams,
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
    sizes = model_by_name("group-size", config.group_size_model).sizes(config)
    extra = model_by_name("group-overlap", config.overlap_model).extra_groups(
        config, sizes, group0, streams
    )
    return GroupSet(groups=(group0, *extra))


def build_scenario_space(config: "ScenarioConfig") -> ScenarioSpace:
    """Resolve the config's models and realize the scenario structure."""
    models = resolved_models(config)
    streams = RngStreams(config.seed)
    arena = effective_arena(config)
    positions0 = models["placement"].initial_positions(config, arena, streams)
    mobility = models["mobility"].build(config, arena, positions0, streams)
    source, receivers = models["membership"].initial_group(
        config, mobility, streams
    )
    groups = build_groups(config, source, receivers, streams)
    return ScenarioSpace(
        arena=arena,
        streams=streams,
        mobility=mobility,
        source=source,
        receivers=receivers,
        models=models,
        groups=groups,
        radio=FirstOrderRadioModel(
            e_elec=config.e_elec,
            e_rx=config.e_rx,
            eps_amp=config.eps_amp,
            alpha=config.alpha,
            max_range=config.max_range,
        ),
    )
