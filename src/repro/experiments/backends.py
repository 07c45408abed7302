"""Pluggable experiment backends: one campaign surface, two executors.

The paper's claims span two worlds this repo implements separately: the
packet-level DES simulator (PDR / energy / overhead — Figures 7-16) and
the round-model stabilization engine (rounds / evaluations / moves under
an activation daemon — the Lemma 1-3 machinery).  An
:class:`ExperimentBackend` makes both drivable by the *same* campaign
engine (:mod:`repro.experiments.campaign`): it knows how to

* ``validate(config)`` — reject configs it cannot realize (e.g. the
  round-model-only ``adversarial-max-cost`` daemon on the DES backend),
* ``run(config)`` — execute one :class:`~repro.experiments.config.ScenarioConfig`
  and return its :class:`RunResult`,
* ``record_from`` / ``result_from_record`` — the one run-record codec,
  shared by both backends: each declares its summary dataclass and its
  table of diagnostic defaults, and every run comes back as one
  :class:`RunResult`; the record's summary fields and diagnostics are
  also the backend's :attr:`~ExperimentBackend.metric_names`, the names
  aggregation, tables and figures read through :func:`metric_extractor`.

Backends are selected by the ``backend`` field of ``ScenarioConfig``
(default ``"des"``, hash-neutral so every pre-existing cache entry keeps
hitting) and can therefore be swept like any other grid axis
(``--grid backend=des,rounds``).

The ``rounds`` backend builds its topology from the *same* arena / seed
fields the DES runner uses — in fact from the identical named RNG
substreams, so a rounds-backend run models the t = 0 snapshot of the DES
scenario with the same node placement and multicast group.  Per run it
is orders of magnitude faster than the DES, which is what lets
stabilization campaigns grow to paper scale (n up to 200, every daemon)
in minutes.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.daemons import DAEMON_NAMES, require_des_daemon
from repro.core.metrics import SS_PROTOCOL_METRICS
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario_models import validate_models
from repro.experiments.store import (
    CACHE_SCHEMA,
    CONFIG_FIELD_NAMES,
    config_fields,
)

_NAN = float("nan")


# ----------------------------------------------------------------------
# Run results
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """One finished run of either backend.

    ``summary`` is the backend's summary dataclass
    (:class:`~repro.metrics.hub.RunSummary` on the DES,
    :class:`RoundSummary` on rounds); ``diagnostics`` is the name ->
    value mapping a record stores beside it (empty on rounds).  Both
    pass through as attributes: ``result.pdr == result.summary.pdr``,
    ``result.frames_sent == result.diagnostics["frames_sent"]``.
    """

    config: ScenarioConfig
    summary: object
    diagnostics: Dict[str, float] = field(default_factory=dict)

    def __getattr__(self, item):
        # Must raise AttributeError (not recurse) for dunders and for
        # lookups before the fields exist: pickle probes instance
        # attributes like ``__setstate__`` on a not-yet-populated object,
        # which once recursed forever and broke worker pools.
        if item.startswith("__") and item.endswith("__"):
            raise AttributeError(item)
        state = self.__dict__
        try:
            diagnostics, summary = state["diagnostics"], state["summary"]
        except KeyError:
            raise AttributeError(item) from None
        if item in diagnostics:
            return diagnostics[item]
        return getattr(summary, item)


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class ExperimentBackend(abc.ABC):
    """One way of executing a :class:`ScenarioConfig`."""

    #: registry/config name
    name: str = "?"

    #: the dataclass of a run's ``summary``
    summary_type: type

    #: diagnostic name -> the value a record written before that
    #: diagnostic existed loads with, in record order
    DIAGNOSTICS: Dict[str, float] = {}

    @abc.abstractmethod
    def validate(self, config: ScenarioConfig) -> None:
        """Raise ``ValueError`` when this backend cannot run ``config``.

        Called from ``ScenarioConfig.__post_init__`` so invalid configs
        fail at construction, exactly as before the backend split.
        """

    @abc.abstractmethod
    def run(self, config: ScenarioConfig) -> RunResult:
        """Execute one run; every name of :attr:`metric_names` must
        resolve as an attribute of the result."""

    @functools.cached_property
    def metric_names(self) -> Tuple[str, ...]:
        """Every metric a run of this backend reports, in record order:
        the summary's fields, then the diagnostics."""
        return (*self._summary_zeros, *self.DIAGNOSTICS)

    # ------------------------------------------------------------------
    # The run-record codec
    # ------------------------------------------------------------------
    def record_from(self, result: RunResult, elapsed_s: float = 0.0) -> dict:
        """JSON-safe store record of one finished run.

        The v2 layout writes the ``backend`` key for every backend but
        the default ``des``, whose records keep the v1 shape.
        """
        record: dict = {"schema": CACHE_SCHEMA}
        if self.name != "des":
            record["backend"] = self.name
        diagnostics = result.diagnostics
        record["config"] = config_fields(result.config)
        record["summary"] = result.summary.as_dict()
        record["diagnostics"] = {name: diagnostics[name] for name in self.DIAGNOSTICS}
        record["elapsed_s"] = elapsed_s
        return record

    def result_from_record(
        self, record: dict, config: Optional[ScenarioConfig] = None
    ) -> RunResult:
        """Rebuild the result a record was made from.

        Records written by *older* code load too: a missing summary
        field takes its type's zero (``nan`` for floats, 0 for ints,
        "" for str) and a missing diagnostic its :attr:`DIAGNOSTICS`
        default; unknown keys are dropped (the record layout is
        forward-grown, never rewritten in place).  A section whose keys
        are already the current ones, as in every record this code
        writes, is used as it is.  ``config`` is the config the record
        was already validated against (see
        :func:`~repro.experiments.store.checked_record`); without it the
        config is rebuilt from the record.
        """
        summary = record["summary"]
        zeros = self._summary_zeros
        if summary.keys() != zeros.keys():
            summary = {name: summary.get(name, zero) for name, zero in zeros.items()}
        diagnostics = record.get("diagnostics", {})
        if diagnostics.keys() != self.DIAGNOSTICS.keys():
            diagnostics = {
                name: diagnostics.get(name, default)
                for name, default in self.DIAGNOSTICS.items()
            }
        return RunResult(
            config if config is not None else config_from_record(record["config"]),
            self.summary_type(**summary),
            diagnostics,
        )

    @functools.cached_property
    def _summary_zeros(self) -> Dict[str, object]:
        """Summary field -> its type's zero, read once
        (``dataclasses.fields`` is not free on the per-record path)."""
        # field.type is the annotation *string* under PEP 563 modules
        zeros = {"float": _NAN, "str": ""}
        return {
            f.name: zeros.get(f.type, 0)
            for f in dataclasses.fields(self.summary_type)
        }


def config_from_record(config_dict: dict) -> ScenarioConfig:
    """Rebuild a config from a record, tolerating era differences.

    Records written before a field existed lack its key (the dataclass
    default — behavior-neutral by the hash-neutrality rule — applies);
    keys a future version might add are dropped.
    """
    return ScenarioConfig(
        **{k: v for k, v in config_dict.items() if k in CONFIG_FIELD_NAMES}
    )


# ----------------------------------------------------------------------
# DES backend
# ----------------------------------------------------------------------
class DesBackend(ExperimentBackend):
    """The packet-level discrete-event simulator (``run_scenario``).

    Wraps today's runner unchanged: identical results, identical cache
    records (the ``backend`` field is hash-neutral at ``"des"``), so
    every pre-existing ``<config_key>.json`` record keeps hitting.
    """

    name = "des"

    #: Counters default to 0 in records written before they existed.
    #: The mobility-profile floats (:mod:`repro.mobility.analysis`: link
    #: breaks are the faults self-stabilization absorbs, partitioning the
    #: ceiling on any protocol's PDR) and the cross-group floats
    #: (:mod:`repro.groups`: fairness over per-group PDRs, the
    #: worst-served group, link stress and overlap of the k final trees)
    #: default to nan, so old records aggregate as "unknown", not "zero".
    #: The tree floats stay nan for the on-demand protocols.
    DIAGNOSTICS = {
        "parent_changes": 0,  # SS-SPST family parent switches
        "events_executed": 0,
        "frames_sent": 0,
        # receptions (one per receiver of a frame), not frames, lost to
        # collision, half duplex or random loss
        "frames_collided": 0,
        "link_breaks_per_s": _NAN,
        "link_events_per_s": _NAN,
        "mean_degree": _NAN,
        "partition_fraction": _NAN,
        "fairness_jain": _NAN,
        "group_pdr_min": _NAN,
        "link_stress_mean": _NAN,
        "link_stress_max": _NAN,
        "tree_overlap_ratio": _NAN,
    }

    @functools.cached_property
    def summary_type(self) -> type:
        # imported on first use: the rounds path never loads the DES hub
        from repro.metrics.hub import RunSummary

        return RunSummary

    def validate(self, config: ScenarioConfig) -> None:
        # The round-model-only adversarial daemon has no beacon-schedule
        # realization; same message the config itself used to raise.
        require_des_daemon(config.daemon)
        if config.engine != "object":
            raise ValueError(
                f"engine {config.engine!r} is a rounds-backend knob; the "
                f"DES backend has no round engine (use backend='rounds')"
            )
        if config.topology != "dense":
            raise ValueError(
                f"topology {config.topology!r} is a rounds-backend knob; "
                f"the DES backend builds its own dense geometry (use "
                f"backend='rounds')"
            )
        validate_models(config, self.name)

    def run(self, config: ScenarioConfig) -> RunResult:
        from repro.experiments.runner import run_scenario

        return run_scenario(config)


# ----------------------------------------------------------------------
# Rounds backend
# ----------------------------------------------------------------------
@dataclass
class RoundSummary:
    """Stabilization quantities of one rounds-backend run.

    The ``recovery_*`` fields measure absorbing one transient single-node
    fault (a corrupted advertised cost) from the settled state via
    ``run_perturbed`` — the self-stabilization cost the paper's lemmas
    are about.  They are ``nan`` when the run did not converge (e.g. an
    F/E limit cycle under a fixed activation order).
    """

    rounds: int
    evaluations: int
    moves: int
    chain_steps: int
    converged: int  # 0/1 (int so it aggregates as a rate)
    connected: int  # 0/1: the sampled topology was connected
    total_cost: float  # capped Lyapunov total of the final state
    recovery_rounds: float
    recovery_evaluations: float
    recovery_moves: float
    recovery_chain_steps: float
    # Cross-group diagnostics (repro.groups); a single group scores
    # fairness 1.0, stress 1.0, overlap 0.0.  nan in old records.
    fairness_jain: float = float("nan")
    link_stress_mean: float = float("nan")
    link_stress_max: float = float("nan")
    tree_overlap_ratio: float = float("nan")

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


#: the one live t = 0 snapshot of the rounds backend:
#: ``[(scenario_key, topologies, radio)]``, or empty
_SNAPSHOT: List[Tuple[tuple, Tuple[object, ...], object]] = []


def build_round_scenario(config: ScenarioConfig):
    """``(topologies, metric)`` for a config's round-model realization.

    The scenario structure comes from the config's scenario models via
    :func:`~repro.experiments.scenario_models.build_scenario_space` —
    the *identical* named-RNG-substream path the DES runner builds from —
    so this is the t = 0 snapshot of the DES scenario: same placement,
    same mobility starting point, same multicast groups, for every
    placement/mobility/membership model and every protocol sharing the
    seed.  ``topologies`` holds one t = 0 topology per realized group,
    group 0 first, each rooted at its group's source over the one shared
    placement (a ``group_count=1`` config gets a one-element list).  The
    metric is the config protocol's SS-SPST cost metric over the
    config's radio constants, built afresh for every call.

    The snapshot is kept for the next call: runs whose configs share a
    :func:`~repro.experiments.scenario_models.scenario_key` (a protocol
    × daemon × engine sweep of one seed) reuse its topologies and radio
    instead of rebuilding them, and ``run_campaign`` dispatches each
    scenario's runs back to back so they do.  Exactly one snapshot is
    held: a new key drops the old one before building.  Sharing is
    safe because nothing mutates a topology after construction except
    its own lazy caches (distance rows, sorted count rows), which hold
    the same values whoever builds them.
    """
    from repro.core.metrics import metric_by_name
    from repro.experiments.scenario_models import scenario_key

    key = scenario_key(config)
    if not _SNAPSHOT or _SNAPSHOT[0][0] != key:
        _SNAPSHOT.clear()
        _SNAPSHOT.append((key, *_build_snapshot(config)))
    _, topologies, radio = _SNAPSHOT[0]
    metric = metric_by_name(SS_PROTOCOL_METRICS[config.protocol], radio)
    return list(topologies), metric


def _build_snapshot(config: ScenarioConfig):
    """``(topologies, radio)`` of a config's scenario at t = 0."""
    from repro.experiments.scenario_models import build_scenario_space
    from repro.graph.sparse import SparseTopology
    from repro.graph.topology import Topology

    space = build_scenario_space(config)
    topo_cls = SparseTopology if config.topology == "sparse" else Topology
    positions = space.mobility.positions(0.0)
    topologies = tuple(
        topo_cls.from_positions(
            positions,
            config.max_range,
            source=group.source,
            members=group.receivers,
        )
        for group in space.groups
    )
    return topologies, space.radio


class RoundsBackend(ExperimentBackend):
    """The round-model stabilization engine (:class:`RoundEngine`).

    Accepts *every* registered daemon — including the round-model-only
    ``adversarial-max-cost`` stress schedule the DES backend rejects —
    and reports stabilization rounds, rule evaluations, moves,
    chain-pricing steps and the perturbed-recovery cost.  A
    ``group_count=k`` config stabilizes k trees over one snapshot; k = 1
    is the one-group case of the same run.

    Every run reads its snapshot through :func:`build_round_scenario`,
    which keeps the last scenario's topologies alive, so consecutive
    runs of one scenario (the grouped dispatch of ``run_campaign``)
    build it once.  The DES backend keeps no such snapshot: its
    mobility model is consumed by the run.
    """

    name = "rounds"
    summary_type = RoundSummary

    def validate(self, config: ScenarioConfig) -> None:
        if config.daemon not in DAEMON_NAMES:
            raise ValueError(
                f"unknown daemon {config.daemon!r}; choose from "
                f"{sorted(DAEMON_NAMES)}"
            )
        if config.protocol not in SS_PROTOCOL_METRICS:
            raise ValueError(
                f"protocol {config.protocol!r} has no round-model "
                f"realization; the rounds backend models the SS-SPST "
                f"family {sorted(SS_PROTOCOL_METRICS)}"
            )
        validate_models(config, self.name)

    def run(self, config: ScenarioConfig) -> RunResult:
        from repro.core.convergence import engine_for
        from repro.core.rounds import fresh_states, total_cost
        from repro.core.state import NodeState
        from repro.groups.metrics import group_tree_stats, jain_index
        from repro.util.rng import RngStreams

        topologies, metric = build_round_scenario(config)
        streams = RngStreams(config.seed)
        # The distributed daemon's local-parallel width is a config knob
        # (daemon_k); other daemons take no options.
        daemon_kwargs = (
            {"k": config.daemon_k} if config.daemon == "distributed" else {}
        )

        def engine(topo, rng):
            return engine_for(
                topo, metric, config.daemon, engine=config.engine,
                rng=rng, **daemon_kwargs,
            )

        # One independent engine per group over the shared snapshot (the
        # round model has no medium to contend for).  Group 0 keeps the
        # historical "daemon" stream, so its trajectory does not depend
        # on k; group g > 0 derives "daemon.g".
        settled = [
            engine(
                topo,
                streams.get("daemon") if gid == 0
                else streams.derive("daemon", gid),
            ).run(fresh_states(topo, metric))
            for gid, topo in enumerate(topologies)
        ]

        nan = float("nan")
        recovery = (nan, nan, nan, nan)
        if config.group_count == 1 and settled[0].converged:
            # One transient fault on the settled tree: a non-source node
            # advertises a garbage cost; run_perturbed absorbs it.  A
            # per-tree notion, so it stays nan for k > 1.
            topo, tree = topologies[0], settled[0]
            frng = streams.get("faults")
            v = int(frng.integers(1, topo.n))
            st = tree.states[v]
            corrupted = NodeState(
                parent=st.parent,
                cost=float(frng.uniform(0.0, metric.infinity(topo))),
                hop=st.hop,
            )
            rec = engine(topo, streams.get("recovery")).run_perturbed(
                list(tree.states), [(v, corrupted)]
            )
            recovery = (
                float(rec.rounds),
                float(rec.evaluations),
                float(rec.moves),
                float(rec.chain_steps),
            )
        costs = [
            total_cost(tree.states, metric.infinity(topo))
            for topo, tree in zip(topologies, settled)
        ]
        stats = group_tree_stats(
            {
                gid: {i: st.parent for i, st in enumerate(tree.states)}
                for gid, tree in enumerate(settled)
            },
            dict(enumerate(topo.source for topo in topologies)),
            dict(enumerate(topo.members for topo in topologies)),
        )
        # Stabilization ends when the slowest tree settles: rounds is the
        # max over groups, work counters are sums.
        summary = RoundSummary(
            rounds=max(tree.rounds for tree in settled),
            evaluations=sum(tree.evaluations for tree in settled),
            moves=sum(tree.moves for tree in settled),
            chain_steps=sum(tree.chain_steps for tree in settled),
            converged=int(all(tree.converged for tree in settled)),
            connected=int(all(topo.is_connected() for topo in topologies)),
            total_cost=sum(costs),
            recovery_rounds=recovery[0],
            recovery_evaluations=recovery[1],
            recovery_moves=recovery[2],
            recovery_chain_steps=recovery[3],
            fairness_jain=jain_index(costs),
            link_stress_mean=stats["link_stress_mean"],
            link_stress_max=stats["link_stress_max"],
            tree_overlap_ratio=stats["tree_overlap_ratio"],
        )
        return RunResult(config, summary)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BACKENDS: Dict[str, ExperimentBackend] = {
    b.name: b for b in (DesBackend(), RoundsBackend())
}

#: canonical backend order used across configs, CLI help and reports
BACKEND_NAMES: Tuple[str, ...] = tuple(BACKENDS)


def backend_by_name(name: str) -> ExperimentBackend:
    """Look up a backend by registry name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment backend {name!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None


def metric_extractor(
    metric: str, backend_names: Iterable[str] = ("des",)
) -> Callable:
    """A backend-dispatching extractor for a metric name.

    Resolves ``metric`` against every backend a campaign spans; results
    from a backend that does not define it extract as ``nan`` (which the
    CI aggregation filters), so mixed-backend campaigns can still print
    one table.
    """
    names = {b: backend_by_name(b).metric_names for b in set(backend_names)}
    defined = {b for b, metrics in names.items() if metric in metrics}
    if not defined:
        available = sorted(set().union(*names.values()))
        raise ValueError(
            f"unknown metric {metric!r} for backend(s) "
            f"{sorted(names)}; choose from {available}"
        )

    def extract(result) -> float:
        if getattr(result.config, "backend", "des") not in defined:
            return float("nan")
        return float(getattr(result, metric))

    return extract


def default_metrics(backend_names: Iterable[str]) -> Tuple[str, ...]:
    """Sensible table columns when the caller named none."""
    names = set(backend_names)
    if names == {"rounds"}:
        return ("rounds", "evaluations", "moves")
    if "rounds" in names:  # mixed-backend campaign
        return ("pdr", "rounds")
    return ("pdr", "energy_per_packet_mj")
