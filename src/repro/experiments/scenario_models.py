"""Declarative scenario models: pluggable placement x mobility x
membership x traffic.

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

Axes and models
---------------

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

Model-specific sub-parameters travel in the config's frozen
``model_params`` mapping (``--model-param key=value`` on the CLI); each
model declares the keys it accepts in its ``params`` dict, and unknown
keys are rejected at config construction so typos cannot silently run
the default.

Determinism and backend parity
------------------------------

Every model draws only from named :class:`~repro.util.rng.RngStreams`
substreams (``placement``, ``mobility``, ``group``, ``membership``), so
scenarios are bit-reproducible per seed across processes, and the
**default axes replicate the historical draw sequence exactly** —
default-config results, cache hashes and cache entries are unchanged by
this API.  Both executors build their world
through :func:`build_scenario_space`, so a ``rounds``-backend run models
the t = 0 snapshot of the DES scenario — identical placement, identical
group — for *every* placement/mobility/membership model, not just the
defaults.  :func:`scenario_key` names that scenario: configs that differ
only in how they are run (protocol, daemon, engine) share it, which is
what lets a campaign run one scenario's runs back to back and the
rounds backend build its snapshot once.

Per-backend realizability is checked by :func:`validate_models` (called
from the backends' ``validate`` hooks): e.g. ``trace`` mobility requires
a ``trace_file`` model parameter.  ``rotating`` membership *is*
accepted on rounds: the round model sees the t = 0 group, which rotation
leaves intact by construction.
"""

from __future__ import annotations

import abc
import hashlib
import math
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.energy.radio import FirstOrderRadioModel
from repro.groups.models import (
    GroupSet,
    build_groups,
    group_param_keys,
    validate_group_models,
)
from repro.mobility.base import MobilityModel
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.placement import grid_positions
from repro.mobility.random_walk import RandomWalk
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.static import StaticPlacement
from repro.mobility.trace import TraceMobility, load_trace_file
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # config imports backends imports this module
    from repro.experiments.config import ScenarioConfig
    from repro.net.node import Network

#: axis names in canonical order (also the ScenarioConfig field names)
AXES: Tuple[str, ...] = ("placement", "mobility", "membership", "traffic")


class ScenarioModel(abc.ABC):
    """One choice on one scenario axis.

    Subclasses declare their ``axis``, registry ``name`` and the
    ``model_params`` keys they accept (``params``: key -> default), and
    implement the axis-specific build method.  ``validate`` may impose
    extra config constraints (e.g. a required parameter).
    """

    #: which axis this model belongs to
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

        def rotate() -> None:
            receivers = sorted(network.receivers)
            # Only living nodes can join (battery-limited runs deplete
            # nodes); dead receivers may still rotate *out*, which is how
            # a battery-limited group replaces casualties.
            outsiders = sorted(
                v
                for v in set(range(network.n)) - network.members
                if network.nodes[v].alive
            )
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
}

#: the hash-neutral default model of each axis (the paper's scenario)
DEFAULT_MODELS: Dict[str, str] = {
    "placement": "uniform",
    "mobility": "waypoint",
    "membership": "static-random",
    "traffic": "cbr",
}

#: canonical model-name order per axis (CLI help, docs, tests)
MODEL_NAMES: Dict[str, Tuple[str, ...]] = {
    axis: tuple(registry) for axis, registry in REGISTRIES.items()
}


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
    """The four models a config resolves to, keyed by axis."""
    return {axis: model_by_name(axis, getattr(config, axis)) for axis in AXES}


def validate_models(config: "ScenarioConfig", backend: str) -> None:
    """Axis-resolution + per-model + per-backend scenario validation.

    Called from each :class:`~repro.experiments.backends.ExperimentBackend`'s
    ``validate`` (and therefore from ``ScenarioConfig.__post_init__``), so
    an unknown model name, an unrealizable backend/model pairing or a
    mistyped ``model_params`` key fails at config construction.
    """
    models = resolved_models(config)  # raises on unknown names
    for model in models.values():
        model.validate(config, backend)
    validate_group_models(config, backend)
    # Keys are checked against every *registered* model, not only the
    # resolved ones: a campaign base legitimately carries parameters for
    # models a grid axis selects per cell (--grid membership=rotating
    # --model-param rotation_period=30), while a typo'd key still fails
    # at construction.
    accepted = {
        key
        for registry in REGISTRIES.values()
        for model in registry.values()
        for key in model.params
    } | group_param_keys()
    unknown = sorted(set(dict(config.model_params)) - accepted)
    if unknown:
        raise ValueError(
            f"model_params key(s) {unknown} are not accepted by any "
            f"registered scenario model; known keys: {sorted(accepted)}"
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
    """The scenario axes a config moved off the paper's defaults
    (plus ``model_params`` when any are set) — the dry-run audit view."""
    out = {
        axis: getattr(config, axis)
        for axis in AXES
        if getattr(config, axis) != DEFAULT_MODELS[axis]
    }
    if config.model_params:
        out["model_params"] = ",".join(
            f"{k}={v}" for k, v in config.model_params
        )
    return out


def plan_lines(configs: Sequence["ScenarioConfig"]) -> List[str]:
    """Dry-run summary: resolved models per axis across a campaign,
    flagging every non-default value with ``*``."""
    lines = ["# scenario models (non-default marked *):"]
    for axis in AXES:
        values = list(dict.fromkeys(getattr(c, axis) for c in configs))
        shown = ",".join(
            v + ("" if v == DEFAULT_MODELS[axis] else "*") for v in values
        )
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
