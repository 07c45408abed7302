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
  and return a result object,
* ``record_from`` / ``result_from_record`` — (de)serialize results for
  the persistent JSON run cache, and
* ``metrics()`` — declare a typed :class:`MetricSpec` registry, which
  replaces the stringly ``RunSummary``-attribute pulls so aggregation,
  tables, sweeps and figures are backend-agnostic.

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
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.daemons import DAEMON_NAMES, require_des_daemon
from repro.core.metrics import PROTOCOL_LABELS
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario_models import validate_models

#: protocol name -> round-model metric name (the SS-SPST family; the
#: on-demand baselines have no round-model realization)
SS_PROTOCOL_METRICS: Dict[str, str] = {
    label.lower(): metric for metric, label in PROTOCOL_LABELS.items()
}


# ----------------------------------------------------------------------
# Metric specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricSpec:
    """A typed, named quantity a backend can extract from its results.

    ``extract`` maps a backend result object to a float; aggregation
    (:meth:`CampaignResult.aggregate`), tables, sweeps and ascii plots
    consume these instead of reaching into ``RunSummary`` attributes, so
    they work identically over every backend.
    """

    name: str
    description: str
    unit: str = ""
    extract: Callable = None  # result -> float

    def __post_init__(self) -> None:
        if self.extract is None:
            # default: attribute of the result (both backends' result
            # types pass summary fields through as attributes)
            object.__setattr__(
                self, "extract", lambda r, _n=self.name: float(getattr(r, _n))
            )


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class ExperimentBackend(abc.ABC):
    """One way of executing a :class:`ScenarioConfig`."""

    #: registry/config name
    name: str = "?"

    @abc.abstractmethod
    def validate(self, config: ScenarioConfig) -> None:
        """Raise ``ValueError`` when this backend cannot run ``config``.

        Called from ``ScenarioConfig.__post_init__`` so invalid configs
        fail at construction, exactly as before the backend split.
        """

    @abc.abstractmethod
    def run(self, config: ScenarioConfig):
        """Execute one run and return the backend's result object.

        The result must expose ``.config`` and support the attribute
        lookups declared by :meth:`metrics`.
        """

    @abc.abstractmethod
    def metrics(self) -> Dict[str, MetricSpec]:
        """The typed metric registry of this backend."""

    # ------------------------------------------------------------------
    # Cache (de)serialization
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def record_from(self, result, elapsed_s: float = 0.0) -> dict:
        """JSON-safe cache record of one finished run."""

    @abc.abstractmethod
    def result_from_record(self, record: dict):
        """Rebuild the result a record was made from.

        Must tolerate records written by *older* code: missing
        newly-added summary/diagnostic fields default rather than error
        (the cache schema is forward-grown, never rewritten in place).
        """

def _tolerant_kwargs(
    fields: Iterable[dataclasses.Field], data: dict
) -> Dict[str, object]:
    """Dataclass kwargs from a possibly old (or future) record section.

    Unknown keys are dropped; missing keys fall back to the field type's
    zero (``nan`` for floats, 0 for ints, "" for str) so records written
    before a field existed keep loading.
    """
    # field.type is the annotation *string* under PEP 563 modules
    zeros = {"float": float("nan"), float: float("nan"), "str": "", str: ""}
    out: Dict[str, object] = {}
    for f in fields:
        if f.name in data:
            out[f.name] = data[f.name]
        else:
            out[f.name] = zeros.get(f.type, 0)
    return out


def config_from_record(config_dict: dict) -> ScenarioConfig:
    """Rebuild a config from a record, tolerating era differences.

    Records written before a field existed lack its key (the dataclass
    default — behavior-neutral by the hash-neutrality rule — applies);
    keys a future version might add are dropped.
    """
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    return ScenarioConfig(**{k: v for k, v in config_dict.items() if k in known})


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

    #: RunResult diagnostics persisted alongside the summary
    DIAGNOSTIC_FIELDS = (
        "parent_changes",
        "events_executed",
        "frames_sent",
        "frames_collided",
        "link_breaks_per_s",
        "link_events_per_s",
        "mean_degree",
        "partition_fraction",
        "fairness_jain",
        "group_pdr_min",
        "link_stress_mean",
        "link_stress_max",
        "tree_overlap_ratio",
    )

    #: per-field defaults for records written before a diagnostic existed
    #: (counters default to 0; the mobility-profile floats to nan so old
    #: records aggregate as "unknown", not "zero churn"; likewise the
    #: cross-group diagnostics added with repro.groups)
    DIAGNOSTIC_DEFAULTS = {
        "link_breaks_per_s": float("nan"),
        "link_events_per_s": float("nan"),
        "mean_degree": float("nan"),
        "partition_fraction": float("nan"),
        "fairness_jain": float("nan"),
        "group_pdr_min": float("nan"),
        "link_stress_mean": float("nan"),
        "link_stress_max": float("nan"),
        "tree_overlap_ratio": float("nan"),
    }

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

    def run(self, config: ScenarioConfig):
        from repro.experiments.runner import run_scenario

        return run_scenario(config)

    def record_from(self, result, elapsed_s: float = 0.0) -> dict:
        from repro.experiments.store import CACHE_SCHEMA

        return {
            "schema": CACHE_SCHEMA,
            "config": dataclasses.asdict(result.config),
            "summary": result.summary.as_dict(),
            "diagnostics": {
                f: getattr(result, f) for f in self.DIAGNOSTIC_FIELDS
            },
            "elapsed_s": elapsed_s,
        }

    def result_from_record(self, record: dict):
        from repro.experiments.runner import RunResult
        from repro.metrics.hub import RunSummary

        diagnostics = record.get("diagnostics", {})
        return RunResult(
            summary=RunSummary(
                **_tolerant_kwargs(
                    dataclasses.fields(RunSummary), record["summary"]
                )
            ),
            config=config_from_record(record["config"]),
            **{
                f: diagnostics.get(f, self.DIAGNOSTIC_DEFAULTS.get(f, 0))
                for f in self.DIAGNOSTIC_FIELDS
            },
        )

    def metrics(self) -> Dict[str, MetricSpec]:
        specs = [
            MetricSpec("pdr", "packet delivery ratio (delivered / originated)"),
            MetricSpec(
                "energy_per_packet_mj",
                "network energy per data packet delivered",
                "mJ",
            ),
            MetricSpec("avg_delay_ms", "mean first-copy delivery delay", "ms"),
            MetricSpec(
                "control_overhead",
                "control bytes transmitted per data byte delivered",
            ),
            MetricSpec(
                "unavailability",
                "fraction of probe windows a receiver had no delivery",
            ),
            MetricSpec("data_originated", "data packets injected at the source"),
            MetricSpec("data_delivered", "first-copy deliveries summed over receivers"),
            MetricSpec("total_energy_j", "total network energy drained", "J"),
            MetricSpec("control_bytes_tx", "control bytes put on the air", "B"),
            MetricSpec("data_bytes_tx", "data bytes put on the air", "B"),
            MetricSpec("duplicates_suppressed", "duplicate deliveries discarded"),
            MetricSpec("parent_changes", "SS-SPST family parent switches (churn)"),
            MetricSpec(
                "events_executed", "DES events executed (one per frame reception)"
            ),
            MetricSpec("frames_sent", "MAC frames transmitted"),
            MetricSpec("frames_collided", "MAC frames lost to collisions"),
            MetricSpec(
                "link_breaks_per_s",
                "link breaks per second of the mobility scenario "
                "(the fault rate self-stabilization absorbs)",
                "1/s",
            ),
            MetricSpec(
                "link_events_per_s",
                "all link births + breaks per second of the mobility scenario",
                "1/s",
            ),
            MetricSpec(
                "mean_degree",
                "time-averaged unit-disk neighbor count of the scenario",
            ),
            MetricSpec(
                "partition_fraction",
                "fraction of sampled instants the topology was disconnected "
                "(a structural ceiling on PDR)",
            ),
            MetricSpec(
                "fairness_jain",
                "Jain fairness index over per-group PDRs (1.0 = equal service)",
            ),
            MetricSpec("group_pdr_min", "PDR of the worst-served group"),
            MetricSpec(
                "link_stress_mean",
                "mean per-edge usage count across the k final group trees",
            ),
            MetricSpec(
                "link_stress_max",
                "hottest edge's usage count across the k final group trees",
            ),
            MetricSpec(
                "tree_overlap_ratio",
                "1 - union/total of group-tree edges (0 = edge-disjoint trees)",
            ),
        ]
        return {s.name: s for s in specs}


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


@dataclass
class RoundRunResult:
    """Rounds-backend counterpart of :class:`~repro.experiments.runner.RunResult`."""

    summary: RoundSummary
    config: ScenarioConfig

    def __getattr__(self, item):
        # Same passthrough contract as RunResult (and the same dunder /
        # pre-`summary` guards so pickling through worker pools works).
        if item.startswith("__") and item.endswith("__"):
            raise AttributeError(item)
        try:
            summary = self.__dict__["summary"]
        except KeyError:
            raise AttributeError(item) from None
        return getattr(summary, item)


def build_round_scenario(config: ScenarioConfig):
    """``(topology, metric)`` for a config's round-model realization.

    The scenario structure comes from the config's scenario models via
    :func:`~repro.experiments.scenario_models.build_scenario_space` —
    the *identical* named-RNG-substream path the DES runner builds from —
    so this is the t = 0 snapshot of the DES scenario: same placement,
    same mobility starting point, same multicast group, for every
    placement/mobility/membership model and every protocol sharing the
    seed.  The metric is the config protocol's SS-SPST cost metric over
    the config's radio constants.
    """
    from repro.core.metrics import metric_by_name
    from repro.energy.radio import FirstOrderRadioModel
    from repro.experiments.scenario_models import build_scenario_space
    from repro.graph.sparse import SparseTopology
    from repro.graph.topology import Topology

    space = build_scenario_space(config)
    topo_cls = SparseTopology if config.topology == "sparse" else Topology
    topo = topo_cls.from_positions(
        space.mobility.positions(0.0),
        config.max_range,
        source=space.source,
        members=space.receivers,
    )
    radio = FirstOrderRadioModel(
        e_elec=config.e_elec,
        e_rx=config.e_rx,
        eps_amp=config.eps_amp,
        alpha=config.alpha,
        max_range=config.max_range,
        d_floor=10.0,  # runner parity
    )
    metric = metric_by_name(SS_PROTOCOL_METRICS[config.protocol], radio)
    return topo, metric


class RoundsBackend(ExperimentBackend):
    """The round-model stabilization engine (:class:`RoundEngine`).

    Accepts *every* registered daemon — including the round-model-only
    ``adversarial-max-cost`` stress schedule the DES backend rejects —
    and reports stabilization rounds, rule evaluations, moves,
    chain-pricing steps and the perturbed-recovery cost.
    """

    name = "rounds"

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

    def run(self, config: ScenarioConfig) -> RoundRunResult:
        from repro.core.convergence import engine_for
        from repro.core.rounds import fresh_states, total_cost
        from repro.core.state import NodeState
        from repro.groups.metrics import group_tree_stats, jain_index
        from repro.util.rng import RngStreams

        if config.group_count > 1:
            # k independent engines over one placement; group 0 keeps the
            # historical daemon stream so its trajectory matches a k=1 run.
            from repro.groups.driver import run_multigroup_rounds

            return run_multigroup_rounds(config)

        topo, metric = build_round_scenario(config)
        streams = RngStreams(config.seed)
        # The distributed daemon's local-parallel width is a config knob
        # (daemon_k); other daemons take no options.
        daemon_kwargs = (
            {"k": config.daemon_k} if config.daemon == "distributed" else {}
        )
        engine = engine_for(
            topo, metric, config.daemon, engine=config.engine,
            rng=streams.get("daemon"), **daemon_kwargs,
        )
        settled = engine.run(fresh_states(topo, metric))

        nan = float("nan")
        recovery = (nan, nan, nan, nan)
        if settled.converged:
            # One transient fault on the settled tree: a non-source node
            # advertises a garbage cost; run_perturbed absorbs it.
            frng = streams.get("faults")
            v = int(frng.integers(1, topo.n))
            st = settled.states[v]
            corrupted = NodeState(
                parent=st.parent,
                cost=float(frng.uniform(0.0, metric.infinity(topo))),
                hop=st.hop,
            )
            rec_engine = engine_for(
                topo, metric, config.daemon, engine=config.engine,
                rng=streams.get("recovery"), **daemon_kwargs,
            )
            rec = rec_engine.run_perturbed(list(settled.states), [(v, corrupted)])
            recovery = (
                float(rec.rounds),
                float(rec.evaluations),
                float(rec.moves),
                float(rec.chain_steps),
            )
        cost = total_cost(settled.states, metric.infinity(topo))
        parents = {i: st.parent for i, st in enumerate(settled.states)}
        stats = group_tree_stats(
            {0: parents},
            {0: topo.source},
            {0: sorted(set(topo.members) - {topo.source})},
        )
        summary = RoundSummary(
            rounds=settled.rounds,
            evaluations=settled.evaluations,
            moves=settled.moves,
            chain_steps=settled.chain_steps,
            converged=int(settled.converged),
            connected=int(topo.is_connected()),
            total_cost=cost,
            recovery_rounds=recovery[0],
            recovery_evaluations=recovery[1],
            recovery_moves=recovery[2],
            recovery_chain_steps=recovery[3],
            fairness_jain=jain_index([cost]),
            link_stress_mean=stats["link_stress_mean"],
            link_stress_max=stats["link_stress_max"],
            tree_overlap_ratio=stats["tree_overlap_ratio"],
        )
        return RoundRunResult(summary=summary, config=config)

    def record_from(self, result: RoundRunResult, elapsed_s: float = 0.0) -> dict:
        from repro.experiments.store import CACHE_SCHEMA

        return {
            "schema": CACHE_SCHEMA,
            "backend": self.name,
            "config": dataclasses.asdict(result.config),
            "summary": result.summary.as_dict(),
            "diagnostics": {},
            "elapsed_s": elapsed_s,
        }

    def result_from_record(self, record: dict) -> RoundRunResult:
        return RoundRunResult(
            summary=RoundSummary(
                **_tolerant_kwargs(
                    dataclasses.fields(RoundSummary), record["summary"]
                )
            ),
            config=config_from_record(record["config"]),
        )

    def metrics(self) -> Dict[str, MetricSpec]:
        specs = [
            MetricSpec("rounds", "rounds with >= 1 move until the fixpoint"),
            MetricSpec("evaluations", "rule evaluations spent stabilizing"),
            MetricSpec("moves", "individual state changes applied"),
            MetricSpec("chain_steps", "ancestor steps of SS-SPST-E chain pricing"),
            MetricSpec("converged", "reached a fixpoint within max_rounds (0/1)"),
            MetricSpec("connected", "sampled topology was connected (0/1)"),
            MetricSpec("total_cost", "capped Lyapunov total of the final state"),
            MetricSpec("recovery_rounds", "rounds to absorb one transient fault"),
            MetricSpec(
                "recovery_evaluations", "evaluations to absorb one transient fault"
            ),
            MetricSpec("recovery_moves", "moves to absorb one transient fault"),
            MetricSpec(
                "recovery_chain_steps", "chain steps to absorb one transient fault"
            ),
            MetricSpec(
                "fairness_jain",
                "Jain fairness index over per-group tree costs "
                "(1.0 = equal resource footprint)",
            ),
            MetricSpec(
                "link_stress_mean",
                "mean per-edge usage count across the k settled group trees",
            ),
            MetricSpec(
                "link_stress_max",
                "hottest edge's usage count across the k settled group trees",
            ),
            MetricSpec(
                "tree_overlap_ratio",
                "1 - union/total of group-tree edges (0 = edge-disjoint trees)",
            ),
        ]
        return {s.name: s for s in specs}


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
    specs = {b: backend_by_name(b).metrics() for b in set(backend_names)}
    if not any(metric in m for m in specs.values()):
        available = sorted(set().union(*specs.values())) if specs else []
        raise ValueError(
            f"unknown metric {metric!r} for backend(s) "
            f"{sorted(specs)}; choose from {available}"
        )

    def extract(result) -> float:
        backend = getattr(result.config, "backend", "des")
        spec = specs.get(backend, {}).get(metric)
        return float(spec.extract(result)) if spec is not None else float("nan")

    return extract


def default_metrics(backend_names: Iterable[str]) -> Tuple[str, ...]:
    """Sensible table columns when the caller named none."""
    names = set(backend_names)
    if names == {"rounds"}:
        return ("rounds", "evaluations", "moves")
    if "rounds" in names:  # mixed-backend campaign
        return ("pdr", "rounds")
    return ("pdr", "energy_per_packet_mj")
