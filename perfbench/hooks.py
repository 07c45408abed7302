"""The benchmark's trace hooks on ``repro`` and the per-layer metrics.

:func:`install` wraps the public calls of each layer (``sim``, ``net``,
``mobility``, ``protocols``, ``core``, ``energy``, ``metrics``,
``graph`` and ``experiments``) in :class:`~tracing.Tracer` spans;
:func:`layer_metrics` turns the recorded spans and counters into the
named per-layer metrics listed in ``BENCHMARK.json``.

Only public functions and public stats objects are read:
``Simulator.events_executed``/``pending``, ``MediumStats``,
``CsmaMac.frames_dropped`` and ``ArrayRoundEngine.profile``.
"""

from __future__ import annotations

from typing import Dict, Optional

from tracing import Tracer

#: per-layer metric -> hooks it is computed from (null if one is missing)
METRIC_HOOKS: Dict[str, tuple] = {
    "sim.events": ("sim.run",),
    "sim.schedules": ("sim.schedule",),
    "sim.self_s": ("sim.run",),
    "sim.cancelled_share": ("sim.run", "sim.schedule"),
    "sim.events.reception": ("sim.schedule",),
    "sim.events.mac": ("sim.schedule",),
    "sim.events.timer": ("sim.schedule",),
    "sim.events.other": ("sim.schedule",),
    "medium.frames": ("runner.run_scenario", "runner.build"),
    "medium.receptions": ("runner.run_scenario", "runner.build"),
    "medium.receivers_per_frame": ("runner.run_scenario", "runner.build"),
    "medium.collided_share": ("runner.run_scenario", "runner.build"),
    "medium.broadcast_s": ("medium.broadcast",),
    "medium.carrier_sense_calls": ("medium.carrier_sense",),
    "medium.carrier_busy_share": ("medium.carrier_sense",),
    "medium.carrier_sense_s": ("medium.carrier_sense",),
    "mac.sends": ("mac.send",),
    "mac.attempts_per_frame": ("mac.send", "medium.carrier_sense"),
    "mac.drop_share": ("mac.send", "runner.run_scenario", "runner.build"),
    "net.positions_calls": ("net.positions",),
    "net.positions_s": ("net.positions",),
    "mobility.evals": ("mobility.positions",),
    "mobility.positions_s": ("mobility.positions",),
    "net.position_cache_hit_share": ("net.positions", "mobility.positions"),
    "net.deliver_s": ("net.deliver",),
    "protocols.handle_packet_calls": ("protocols.handle_packet",),
    "protocols.handle_packet_s": ("protocols.handle_packet",),
    "protocols.useful_share": ("protocols.handle_packet",),
    "rules.evals": ("rules.eval",),
    "rules.eval_s": ("rules.eval",),
    "energy.charges": ("energy.charge",),
    "energy.charge_s": ("energy.charge",),
    "hub.calls": ("hub",),
    "hub.s": ("hub",),
    "runner.build_s": ("runner.build",),
    "runner.mobility_profile_s": ("runner.mobility_profile",),
    "scenario.build_calls": ("scenario.build",),
    "scenario.build_s": ("scenario.build",),
    "graph.topology_build_s": ("graph.topology_build",),
    "engine.runs": ("engine.build",),
    "engine.run_s": ("engine.build",),
    "engine.recovery_s": ("engine.build",),
    "engine.rounds": ("engine.build",),
    "engine.evaluations": ("engine.build",),
    "engine.moves": ("engine.build",),
    "array.evaluate_s": ("engine.build",),
    "array.fold_s": ("engine.build",),
    "array.commit_s": ("engine.build",),
    "array.snapshot_s": ("engine.build",),
    "array.scalar_s": ("engine.build",),
    "array.batch_steps": ("engine.build",),
    "array.scalar_steps": ("engine.build",),
    "array.snapshot_patch_share": ("engine.build",),
    "store.puts": ("store.put",),
    "store.put_s": ("store.put",),
    "store.loads": ("store.load",),
    "store.load_s": ("store.load",),
    "store.hit_share": ("store.load",),
    "store.config_key_s": ("store.config_key",),
    "store.flush_s": ("store.flush",),
    "backends.record_from_s": ("backends.record_from",),
    "backends.result_from_record_s": ("backends.result_from_record",),
    "aggregation.update_s": ("aggregation.update",),
    "aggregation.table_s": ("aggregation.table",),
    "campaign.land_s": (),
    "campaign.overhead_s": (),
}

#: ArrayRoundEngine.profile key -> per-layer metric
_PROFILE_KEYS = {
    "evaluate_s": "array.evaluate_s",
    "fold_s": "array.fold_s",
    "commit_s": "array.commit_s",
    "snapshot_s": "array.snapshot_s",
    "scalar_s": "array.scalar_s",
    "batch_steps": "array.batch_steps",
    "scalar_steps": "array.scalar_steps",
    "snapshots_full": "array.snapshots_full",
    "snapshots_incremental": "array.snapshots_incremental",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls in spans recorded by ``tracer``."""
    _install_des(tracer)
    _install_runner(tracer)
    _install_engines(tracer)
    _install_campaign(tracer)


def _span(tracer: Tracer, name: str, observe=None):
    return lambda fn: tracer.wrap(name, fn, observe)


# ----------------------------------------------------------------------
# DES layers
# ----------------------------------------------------------------------
def _install_des(tracer: Tracer) -> None:
    import repro.core.daemons as daemons
    import repro.core.rounds as rounds
    import repro.groups.agents as group_agents
    import repro.protocols.registry  # noqa: F401  (imports every agent)
    import repro.protocols.ss_spst as ss_spst
    from repro.energy.ledger import EnergyLedger
    from repro.metrics.hub import MetricsHub
    from repro.mobility.base import MobilityModel
    from repro.net.mac import CsmaMac
    from repro.net.medium import WirelessMedium
    from repro.net.node import Network, Node, ProtocolAgent
    from repro.sim.kernel import Simulator

    timer_module = "repro.sim.timers"

    def on_schedule(args) -> None:
        # schedule_at(self, time, callback, *args): classify the owner
        owner = getattr(args[2], "__self__", None) if len(args) > 2 else None
        if isinstance(owner, WirelessMedium):
            kind = "reception"
        elif isinstance(owner, CsmaMac):
            kind = "mac"
        elif type(owner).__module__ == timer_module:
            kind = "timer"
        else:
            kind = "other"
        tracer.add("sim.schedules")
        tracer.add(f"sim.events.{kind}")

    tracer.patch(
        "sim.schedule", Simulator, "schedule_at",
        lambda fn: tracer.count_only(fn, on_schedule),
    )

    def sim_run(fn):
        def run(self, *args, **kwargs):
            before = self.events_executed
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.add("sim.events", self.events_executed - before)
                tracer.add("sim.pending_at_end", self.pending)

        return tracer.wrap("sim.run", run)

    tracer.patch("sim.run", Simulator, "run", sim_run)
    tracer.patch(
        "medium.broadcast", WirelessMedium, "broadcast",
        _span(tracer, "medium.broadcast"),
    )
    tracer.patch(
        "medium.carrier_sense", WirelessMedium, "carrier_busy",
        _span(
            tracer, "medium.carrier_sense",
            lambda busy, _a: busy and tracer.add("medium.carrier_busy"),
        ),
    )
    tracer.patch(
        "mac.send", CsmaMac, "send",
        lambda fn: tracer.count_only(fn, lambda _a: tracer.add("mac.sends")),
    )
    tracer.patch(
        "net.positions", Network, "positions", _span(tracer, "net.positions")
    )

    def on_mobility(_out, _args) -> None:
        if tracer.parent_name == "net.positions":
            tracer.add("mobility.evals_for_net")

    tracer.patch(
        "mobility.positions", MobilityModel, "positions",
        _span(tracer, "mobility.positions", on_mobility),
    )
    tracer.patch("net.deliver", Node, "deliver", _span(tracer, "net.deliver"))

    def on_handled(useful, _args) -> None:
        if useful:
            tracer.add("protocols.useful")

    agents = [
        cls for cls in _subclasses(ProtocolAgent)
        if "handle_packet" in cls.__dict__
        and cls is not group_agents.GroupDispatchAgent  # delegates inward
        and not getattr(cls.handle_packet, "__isabstractmethod__", False)
    ]
    if not agents:
        tracer._missing("protocols.handle_packet", "ProtocolAgent subclasses")
    for cls in agents:
        tracer.patch(
            "protocols.handle_packet", cls, "handle_packet",
            _span(tracer, "protocols.handle_packet", on_handled),
        )
    # the rule evaluations of the DES agents and of the object engine
    tracer.patch(
        "rules.eval", ss_spst, "compute_update_local",
        _span(tracer, "rules.eval"),
    )
    for module in (rounds, daemons):
        tracer.patch(
            "rules.eval", module, "compute_update", _span(tracer, "rules.eval")
        )
    tracer.patch(
        "energy.charge", EnergyLedger, "charge", _span(tracer, "energy.charge")
    )
    for method in (
        "on_frame_sent", "on_data_originated", "on_data_delivered",
        "probe_availability",
    ):
        tracer.patch("hub", MetricsHub, method, _span(tracer, "hub"))


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


# ----------------------------------------------------------------------
# Runner, scenario models, topology
# ----------------------------------------------------------------------
def _install_runner(tracer: Tracer) -> None:
    import repro.experiments.backends as backends
    import repro.experiments.runner as runner
    import repro.experiments.scenario_models as scenario_models
    from repro.graph.sparse import SparseTopology
    from repro.graph.topology import Topology

    networks: list = []  # the network of the DES run in flight

    def on_built(out, _args) -> None:
        networks.append(out[1])

    tracer.patch(
        "runner.build", runner, "build_network",
        _span(tracer, "runner.build", on_built),
    )
    tracer.patch(
        "runner.build", backends, "build_round_scenario",
        _span(tracer, "runner.build"),
    )

    def on_scenario_done(_out, _args) -> None:
        if not networks:
            return
        network = networks.pop()
        stats = network.medium.stats
        tracer.add("medium.frames", stats.frames_sent)
        tracer.add("medium.receptions", stats.receptions_total)
        tracer.add("medium.collided", stats.frames_collided)
        tracer.add("mac.dropped", sum(n.mac.frames_dropped for n in network.nodes))

    tracer.patch(
        "runner.run_scenario", runner, "run_scenario",
        _span(tracer, "runner.run_scenario", on_scenario_done),
    )
    tracer.patch(
        "runner.mobility_profile", runner, "mobility_profile",
        _span(tracer, "runner.mobility_profile"),
    )
    for module in (scenario_models, runner):
        tracer.patch(
            "scenario.build", module, "build_scenario_space",
            _span(tracer, "scenario.build"),
        )
    for cls in (Topology, SparseTopology):
        tracer.patch(
            "graph.topology_build", cls, "from_positions",
            _span(tracer, "graph.topology_build"),
        )


# ----------------------------------------------------------------------
# Round engines (object and array) through engine_for
# ----------------------------------------------------------------------
def _install_engines(tracer: Tracer) -> None:
    import repro.core.convergence as convergence

    def on_result(result) -> None:
        tracer.add("engine.rounds", result.rounds)
        tracer.add("engine.evaluations", result.evaluations)
        tracer.add("engine.moves", result.moves)

    def instrument(engine, method: str, span: str) -> None:
        fn = getattr(engine, method)

        def call(*args, **kwargs):
            profile = getattr(engine, "profile", None)
            before = dict(profile) if isinstance(profile, dict) else None
            result = fn(*args, **kwargs)
            on_result(result)
            if before is not None:
                after = engine.profile
                for key, metric in _PROFILE_KEYS.items():
                    if key in after:
                        tracer.add(metric, after[key] - before.get(key, 0))
            return result

        setattr(engine, method, tracer.wrap(span, call))

    def make(fn):
        def engine_for(*args, **kwargs):
            engine = fn(*args, **kwargs)
            instrument(engine, "run", "engine.run")
            instrument(engine, "run_perturbed", "engine.recovery")
            return engine

        return engine_for

    tracer.patch("engine.build", convergence, "engine_for", make)


# ----------------------------------------------------------------------
# Campaign layers: store, backends (de)serialization, aggregation
# ----------------------------------------------------------------------
def _install_campaign(tracer: Tracer) -> None:
    import repro.experiments.store as store
    from repro.experiments.aggregation import StreamingAggregate
    from repro.experiments.backends import DesBackend, RoundsBackend
    from repro.experiments.campaign import CampaignResult

    for cls in (store.SqliteStore, store.JsonDirStore):
        tracer.patch("store.put", cls, "put", _span(tracer, "store.put"))
    tracer.patch(
        "store.flush", store.SqliteStore, "flush", _span(tracer, "store.flush")
    )
    tracer.patch(
        "store.load", store.ResultStore, "load",
        _span(
            tracer, "store.load",
            lambda rec, _a: rec is not None and tracer.add("store.hits"),
        ),
    )
    tracer.patch(
        "store.config_key", store, "config_key",
        _span(tracer, "store.config_key"),
    )
    for cls in (DesBackend, RoundsBackend):
        tracer.patch(
            "backends.record_from", cls, "record_from",
            _span(tracer, "backends.record_from"),
        )
        tracer.patch(
            "backends.result_from_record", cls, "result_from_record",
            _span(tracer, "backends.result_from_record"),
        )
    tracer.patch(
        "aggregation.update", StreamingAggregate, "update",
        _span(tracer, "aggregation.update"),
    )
    tracer.patch(
        "aggregation.table", CampaignResult, "format_table",
        _span(tracer, "aggregation.table"),
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, run_s: float, land_s: float, wall_s: float
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass.

    ``run_s``/``land_s``/``wall_s`` are the cold campaign's summed job
    time, result-callback time and wall time; the span metrics cover the
    whole traced pass (cold campaign, warm campaign and table).
    """
    v, calls, self_s = tracer.values, tracer.calls, tracer.self_s
    schedules = v["sim.schedules"]
    events = v["sim.events"]
    sends = v["mac.sends"]
    senses = calls["medium.carrier_sense"]
    frames = v["medium.frames"]
    receptions = v["medium.receptions"]
    loads = calls["store.load"]
    snaps = v["array.snapshots_full"] + v["array.snapshots_incremental"]
    out: Dict[str, Optional[float]] = {
        "sim.events": events,
        "sim.schedules": schedules,
        "sim.self_s": self_s["sim.run"],
        "sim.cancelled_share": _share(
            schedules - events - v["sim.pending_at_end"], schedules
        ),
        "sim.events.reception": v["sim.events.reception"],
        "sim.events.mac": v["sim.events.mac"],
        "sim.events.timer": v["sim.events.timer"],
        "sim.events.other": v["sim.events.other"],
        "medium.frames": frames,
        "medium.receptions": receptions,
        "medium.receivers_per_frame": _share(receptions, frames),
        "medium.collided_share": _share(v["medium.collided"], receptions),
        "medium.broadcast_s": self_s["medium.broadcast"],
        "medium.carrier_sense_calls": senses,
        "medium.carrier_busy_share": _share(v["medium.carrier_busy"], senses),
        "medium.carrier_sense_s": self_s["medium.carrier_sense"],
        "mac.sends": sends,
        "mac.attempts_per_frame": _share(senses, sends),
        "mac.drop_share": _share(v["mac.dropped"], sends),
        "net.positions_calls": calls["net.positions"],
        "net.positions_s": self_s["net.positions"],
        "mobility.evals": calls["mobility.positions"],
        "mobility.positions_s": self_s["mobility.positions"],
        "net.position_cache_hit_share": 1.0 - _share(
            v["mobility.evals_for_net"], calls["net.positions"]
        ) if calls["net.positions"] else 0.0,
        "net.deliver_s": self_s["net.deliver"],
        "protocols.handle_packet_calls": calls["protocols.handle_packet"],
        "protocols.handle_packet_s": self_s["protocols.handle_packet"],
        "protocols.useful_share": _share(
            v["protocols.useful"], calls["protocols.handle_packet"]
        ),
        "rules.evals": calls["rules.eval"],
        "rules.eval_s": self_s["rules.eval"],
        "energy.charges": calls["energy.charge"],
        "energy.charge_s": self_s["energy.charge"],
        "hub.calls": calls["hub"],
        "hub.s": self_s["hub"],
        "runner.build_s": self_s["runner.build"],
        "runner.mobility_profile_s": self_s["runner.mobility_profile"],
        "scenario.build_calls": calls["scenario.build"],
        "scenario.build_s": self_s["scenario.build"],
        "graph.topology_build_s": self_s["graph.topology_build"],
        "engine.runs": calls["engine.run"],
        "engine.run_s": self_s["engine.run"],
        "engine.recovery_s": self_s["engine.recovery"],
        "engine.rounds": v["engine.rounds"],
        "engine.evaluations": v["engine.evaluations"],
        "engine.moves": v["engine.moves"],
        "array.evaluate_s": v["array.evaluate_s"],
        "array.fold_s": v["array.fold_s"],
        "array.commit_s": v["array.commit_s"],
        "array.snapshot_s": v["array.snapshot_s"],
        "array.scalar_s": v["array.scalar_s"],
        "array.batch_steps": v["array.batch_steps"],
        "array.scalar_steps": v["array.scalar_steps"],
        "array.snapshot_patch_share": _share(
            v["array.snapshots_incremental"], snaps
        ),
        "store.puts": calls["store.put"],
        "store.put_s": self_s["store.put"],
        "store.loads": loads,
        "store.load_s": self_s["store.load"],
        "store.hit_share": _share(v["store.hits"], loads),
        "store.config_key_s": self_s["store.config_key"],
        "store.flush_s": self_s["store.flush"],
        "backends.record_from_s": self_s["backends.record_from"],
        "backends.result_from_record_s": self_s["backends.result_from_record"],
        "aggregation.update_s": self_s["aggregation.update"],
        "aggregation.table_s": self_s["aggregation.table"],
        "campaign.land_s": land_s,
        "campaign.overhead_s": wall_s - run_s - land_s,
    }
    for metric, hooks in METRIC_HOOKS.items():
        if any(h in tracer.missing for h in hooks):
            out[metric] = None
    return {k: (float(x) if x is not None else None) for k, x in out.items()}
