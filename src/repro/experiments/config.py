"""Scenario configuration.

Defaults mirror the paper's setup (section 6): 750 m x 750 m arena, 50
nodes, random way-point with non-zero minimum speed, one static multicast
group, one CBR source at 64 kbps, 2 s beacon interval, 1800 s of
simulated time.

``quick()`` produces a scaled-down variant (shorter run, lower data rate)
with the same *structure*, used by the figure checks so the whole suite
regenerates in minutes on a laptop; pass ``quick=False`` to the figure
definitions (or ``--paper`` to the campaign CLI) for paper-scale runs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: recognized values of :attr:`ScenarioConfig.topology`
TOPOLOGY_NAMES = ("dense", "sparse")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one experiment.

    ``backend`` selects the executor realizing the config: ``"des"``
    (the packet-level discrete-event simulator) or ``"rounds"`` (the
    round-model stabilization engine) — see
    :mod:`repro.experiments.backends`.  Backend-specific constraints
    (e.g. which activation daemons are legal) are checked by the
    backend's ``validate``, invoked from ``__post_init__`` so invalid
    configs still fail at construction.

    **Scenario-model axes.**  Six registry-backed string fields select
    the scenario *structure* (:mod:`repro.experiments.scenario_models`,
    which reads each axis's default off this class); each is
    hash-neutral at its default (the paper's setup), so default configs
    keep their pre-redesign cache hashes.  The two group axes,
    ``group_size_model`` and ``overlap_model``, are described with
    ``group_count`` below; the other four are:

    ``placement``
        Initial node positions — ``"uniform"`` (default), ``"grid"``
        (near-square lattice; param ``grid_jitter``).
    ``mobility``
        Position process — ``"waypoint"`` (default; Yoon–Liu–Noble fix,
        uses ``v_min``/``v_max``/``pause_time``), ``"gauss-markov"``
        (params ``gm_mean_speed`` — 0 means the midpoint of
        [``v_min``, ``v_max``] — ``gm_alpha``, ``gm_sigma_speed``,
        ``gm_sigma_dir``, ``gm_tick``), ``"random-walk"`` (param
        ``walk_mean_epoch``), ``"static"`` (a WANET: no movement),
        ``"trace"`` (replay a JSON waypoint file; required param
        ``trace_file``, placement must stay ``"uniform"``).
    ``membership``
        Multicast group construction — ``"static-random"`` (default:
        source 0 plus random receivers), ``"rotating"``
        (static-random start, then one receiver leaves and one node
        joins every ``rotation_period`` seconds; DES runs get live
        join/leave events, the rounds backend replays the t = 0 group).
    ``traffic``
        Source workload (DES only) — ``"cbr"``, the paper's source and
        the only model; the field stays so every record's config keeps
        it.

    ``model_params`` carries the model-specific sub-parameters named
    above as a frozen, sorted ``(key, value)`` tuple (construct with a
    plain dict; ``--model-param key=value`` on the CLI).  Keys unknown
    to every registered model are rejected (typo safety; keys for models
    a grid axis selects per cell are fine on the base), and the field
    joins the config hash only when non-empty — default-model configs
    hash exactly as before the scenario API existed.
    """

    # protocol under test ("ss-spst", "ss-spst-t", "ss-spst-f",
    # "ss-spst-e", "maodv", "odmrp", "flooding")
    protocol: str = "ss-spst-e"

    # arena & population
    n_nodes: int = 50
    arena_w: float = 750.0
    arena_h: float = 750.0
    #: constant-density n-scaling: 0 (default) uses the arena verbatim;
    #: a positive value declares the arena to be sized for that many
    #: nodes and scales it by sqrt(n_nodes / density_ref_n), so an
    #: ``n_nodes`` sweep holds node density fixed (see
    #: :func:`repro.experiments.scenario_models.effective_arena`)
    density_ref_n: int = 0

    # scenario-model axes (see the class docstring / scenario_models)
    placement: str = "uniform"
    mobility: str = "waypoint"
    membership: str = "static-random"
    traffic: str = "cbr"
    #: frozen (key, value) pairs of model-specific sub-parameters;
    #: accepts a dict at construction and normalizes to a sorted tuple
    model_params: Tuple[Tuple[str, object], ...] = ()

    # mobility speed envelope (waypoint/random-walk; gauss-markov derives
    # its default mean speed from it).  v_min > 0 is the Noble fix.
    v_min: float = 1.0
    v_max: float = 5.0
    pause_time: float = 0.0

    # multicast group: source is node 0; receivers per the membership model
    group_size: int = 20  # receivers + source

    # concurrent multicast sessions (repro.groups).  group_count = 1 is
    # the paper's single group; k > 1 stabilizes k SS-SPST trees over
    # one contended network.  Group 0 is always the historical group
    # (source 0 plus the membership model's receivers, drawn from the
    # historical "group" substream); groups 1..k-1 come from the
    # group-size / overlap generators below, drawing only from the
    # per-group "groups.<gid>" substreams — so a single-group config is
    # bit-identical to the pre-groups code.  All three fields are
    # hash-neutral at their defaults.
    group_count: int = 1
    #: how the sizes of groups 1..k-1 derive from group_size:
    #: "fixed" (default) or "linear-ramp" (param ramp_min_frac)
    group_size_model: str = "fixed"
    #: how groups 1..k-1 pick their members: "independent" (default),
    #: "disjoint", or "shared-core" (param core_frac)
    overlap_model: str = "independent"

    # radio / channel.  The electronics energy is 802.11-era (~2 Mb/s at
    # several hundred mW of circuit power -> ~1 uJ/bit tx, ~0.3 uJ/bit rx);
    # with the 100 pJ/bit/m^2 amplifier this puts the energy-optimal hop
    # length near 100 m, giving 2-4 hop paths across the 750 m arena as in
    # the paper's figures (22 m relay chains would be optimal under pure
    # sensor-network constants and are not what ns-2 modelled).
    max_range: float = 250.0
    e_elec: float = 1.0e-6
    e_rx: float = 0.6e-6
    eps_amp: float = 100e-12
    alpha: float = 2.0
    bitrate_bps: float = 2_000_000.0
    loss_prob: float = 0.01  # residual per-frame channel error beyond collisions
    capture_threshold: float = 10.0  # ns-2 CPThresh power-capture ratio

    # protocol knobs
    beacon_interval: float = 2.0
    # activation daemon (SS-SPST family): which beacon-scheduling
    # discipline realizes the round model's activation assumption —
    # "distributed" (default; independent jittered clocks, the classic
    # MANET setting), "randomized" (alias of the same jittered
    # discipline), "synchronous" (lockstep ticks), "central" (id-order
    # staggered ticks), "weakly-fair" (heavy bounded jitter).  The
    # round-model-only "adversarial-max-cost" daemon is accepted on the
    # rounds backend and rejected by the DES backend's validate.
    # On-demand protocols (maodv/odmrp/flooding) have no beacon clock and
    # ignore the axis.
    daemon: str = "distributed"
    #: local-parallel width of the "distributed" daemon on the rounds
    #: backend (how many nodes move simultaneously per snapshot step;
    #: 1 = serial randomized, n_nodes = randomly-ordered synchronous).
    #: Sweepable (``--grid daemon_k=1,4,16``); hash-neutral at the
    #: engine's historical k = 4.  The DES realization of "distributed"
    #: is independent jittered clocks, which have no chunk width — the
    #: DES backend ignores this knob.
    daemon_k: int = 4

    # traffic
    rate_kbps: float = 64.0
    packet_bytes: int = 512
    traffic_start: float = 10.0  # warm-up before data flows

    # run control
    sim_time: float = 1800.0
    availability_probe_interval: float = 1.0
    seed: int = 1

    # executor: "des" (packet-level simulator) or "rounds" (round-model
    # stabilization engine).  Hash-neutral at "des" so pre-backend cache
    # entries keep hitting.
    backend: str = "des"
    #: rounds-backend engine implementation: "object" (the scalar
    #: reference) or "array" (vectorized columnar evaluation — same
    #: trajectories bit for bit, built for 10^4-10^5 nodes).  Hash-neutral
    #: at "object" *because* of that bit-identity: the engine changes how
    #: fast results arrive, never what they are, so cache entries stay
    #: valid across the axis.  The DES backend has no round engine and
    #: rejects non-default values.
    engine: str = "object"
    #: rounds-backend topology representation: "dense" (the (n, n)
    #: distance matrix) or "sparse" (CSR adjacency — same unit-disk edge
    #: rule over the same placement coordinates, buildable at 10^4-10^5
    #: nodes where the dense matrix is not).  Hash-neutral at "dense";
    #: "sparse" hashes separately because the two representations round
    #: near-coincident pair distances differently (see
    #: ``repro.graph.sparse._geometric_edges``).  The DES backend keeps
    #: its own dense geometry and rejects non-default values.
    topology: str = "dense"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "model_params", _normalize_model_params(self.model_params)
        )
        if self.group_size < 2 or self.group_size > self.n_nodes:
            raise ValueError("group_size must be in [2, n_nodes]")
        if self.group_count < 1:
            raise ValueError("group_count must be >= 1")
        if self.v_min <= 0:
            raise ValueError("v_min must be > 0 (Noble fix)")
        if self.sim_time <= self.traffic_start:
            raise ValueError("sim_time must exceed traffic_start")
        if self.daemon_k < 1:
            raise ValueError("daemon_k must be >= 1")
        from repro.core.convergence import ENGINE_NAMES

        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_NAMES}"
            )
        if self.topology not in TOPOLOGY_NAMES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of "
                f"{TOPOLOGY_NAMES}"
            )
        if self.density_ref_n < 0:
            raise ValueError("density_ref_n must be >= 0 (0 disables scaling)")
        # Backend-specific constraints (daemon legality, protocol and
        # scenario-model realizability) live with the backend; delegating
        # keeps construction fail-fast.  Imported lazily: backends
        # imports this module for the config type.
        from repro.experiments.backends import backend_by_name

        backend_by_name(self.backend).validate(self)

    # ------------------------------------------------------------------
    def replace(self, **kwargs) -> "ScenarioConfig":
        """Functional update."""
        return dataclasses.replace(self, **kwargs)

    def params(self) -> Dict[str, object]:
        """``model_params`` as a plain dict."""
        return dict(self.model_params)

    @classmethod
    def paper_scale(cls, **kwargs) -> "ScenarioConfig":
        """The paper's full-scale configuration: 1800 s of simulated
        time, 64 kbps CBR (15.625 packets/s at 512 B) — every other
        default unchanged."""
        return cls(**kwargs)

    @classmethod
    def quick(cls, **kwargs) -> "ScenarioConfig":
        """Scaled-down configuration for benches and CI.

        120 s of simulated time with a 32 kbps source (7.8 packets/s at
        512 B): the same protocols, faults and contention mechanisms, a
        fraction of the wall-clock.
        """
        defaults = dict(sim_time=120.0, rate_kbps=32.0, traffic_start=8.0)
        defaults.update(kwargs)
        return cls(**defaults)


def _normalize_model_params(raw) -> Tuple[Tuple[str, object], ...]:
    """Canonical frozen form: sorted, duplicate-free (key, value) pairs.

    Accepts a mapping or any iterable of pairs (including the
    list-of-lists a JSON round-trip produces), so cache records and
    ``replace(model_params={...})`` both normalize to the same — and
    therefore hash-stable — representation.
    """
    pairs = raw.items() if isinstance(raw, Mapping) else raw
    out = []
    seen = set()
    for pair in pairs:
        key, value = pair
        key = str(key)
        if key in seen:
            raise ValueError(f"duplicate model_params key {key!r}")
        if isinstance(value, (list, tuple, dict, set)):
            raise ValueError(
                f"model_params values must be scalars (key {key!r} got "
                f"{type(value).__name__})"
            )
        seen.add(key)
        out.append((key, value))
    return tuple(sorted(out))
