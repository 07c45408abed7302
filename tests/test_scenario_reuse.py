"""One scenario, built once: grouped dispatch and the rounds snapshot.

``scenario_key`` names the scenario a config runs on (every field but
the run-only ``protocol``/``daemon``/``daemon_k``/``engine``, plus the
trace file's content digest).  ``run_campaign`` hands the scheduler the
pending runs grouped by that key, and ``build_round_scenario`` keeps the
last key's t = 0 topologies alive, so consecutive runs of one scenario
build it once.  The contracts pinned here:

* records are byte-equal to records built with the snapshot dropped
  before every run, across the scenario-model axes, group counts,
  topology representations and round engines;
* a trace file rewritten between two runs forks the key and rebuilds;
* dispatch is grouped and stable, and nothing the campaign returns
  depends on the order;
* exactly one snapshot is alive after a run with a new key.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import os
import weakref

import pytest

from repro.experiments import backends
from repro.experiments import campaign as campaign_mod
from repro.experiments import scenario_models
from repro.experiments.backends import backend_by_name
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario_models import RUN_ONLY_FIELDS, scenario_key
from repro.experiments.scheduler import PoolScheduler

TINY = dict(backend="rounds", n_nodes=12, group_size=4, sim_time=12.0)

#: every scenario-model axis but trace mobility, which needs a file
#: and the default placement
AXES_GRID = {
    "placement": ("uniform", "grid"),
    "mobility": ("waypoint", "gauss-markov", "random-walk", "static"),
    "membership": ("static-random", "rotating"),
    "group_count": (1, 2),
    "topology": ("dense", "sparse"),
    "engine": ("object", "array"),
}


def tiny(**kwargs) -> ScenarioConfig:
    return ScenarioConfig.quick(**{**TINY, **kwargs})


def write_trace(path, spacing: float = 55.0) -> None:
    """Twelve two-leg traces starting ``spacing`` apart on a line."""
    traces = [
        [[0.0, spacing * i + 10.0, 40.0], [60.0, 55.0 * i + 10.0, 300.0]]
        for i in range(TINY["n_nodes"])
    ]
    path.write_text(json.dumps(traces))


def record_bytes(result) -> str:
    backend = backend_by_name(result.config.backend)
    return json.dumps(backend.record_from(result), sort_keys=True)


@pytest.fixture
def build_counter(monkeypatch):
    """Count scenario builds (the call under the snapshot)."""
    calls = []
    original = scenario_models.build_scenario_space

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(scenario_models, "build_scenario_space", counting)
    backends._SNAPSHOT.clear()
    return calls


def without_reuse(monkeypatch) -> None:
    """Drop the snapshot before every rounds run."""
    original = backends.build_round_scenario

    def fresh(config):
        backends._SNAPSHOT.clear()
        return original(config)

    monkeypatch.setattr(backends, "build_round_scenario", fresh)


# ----------------------------------------------------------------------
# The key
# ----------------------------------------------------------------------
class TestScenarioKey:
    def test_run_only_fields_share_the_key(self):
        base = tiny()
        for change in (
            {"protocol": "ss-spst"},
            {"daemon": "central"},
            {"daemon_k": 9},
            {"engine": "array"},
        ):
            assert scenario_key(base.replace(**change)) == scenario_key(base)

    def test_every_other_field_forks_the_key(self):
        base = tiny()
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert RUN_ONLY_FIELDS == {"protocol", "daemon", "daemon_k", "engine"}
        for name in set(names) - RUN_ONLY_FIELDS:
            changed = copy.copy(base)
            object.__setattr__(changed, name, object())
            assert scenario_key(changed) != scenario_key(base), name

    def test_a_field_added_later_joins_the_key(self):
        @dataclasses.dataclass(frozen=True)
        class Grown(ScenarioConfig):
            later: int = 0

        base = Grown(**TINY)
        assert scenario_key(dataclasses.replace(base, later=1)) != scenario_key(base)

    def test_trace_content_joins_the_key(self, tmp_path):
        path = tmp_path / "scen.json"
        write_trace(path)
        cfg = tiny(mobility="trace", model_params={"trace_file": str(path)})
        before = scenario_key(cfg)
        write_trace(path, spacing=50.0)
        os.utime(path, ns=(1, 1))  # a new stat even on a coarse clock
        assert scenario_key(cfg) != before


# ----------------------------------------------------------------------
# Byte-equal records
# ----------------------------------------------------------------------
def axis_specs(trace_path):
    """Campaigns over every axis, trace mobility included."""
    write_trace(trace_path)
    trace_grid = {k: v for k, v in AXES_GRID.items() if k not in ("placement", "mobility")}
    return [
        CampaignSpec.from_mapping(
            "axes", tiny(), ("ss-spst", "ss-spst-e"), (1,), AXES_GRID
        ),
        CampaignSpec.from_mapping(
            "trace",
            tiny(mobility="trace", model_params={"trace_file": str(trace_path)}),
            ("ss-spst", "ss-spst-e"),
            (1,),
            trace_grid,
        ),
    ]


def test_reused_snapshots_give_byte_equal_records(
    tmp_path, monkeypatch, build_counter
):
    specs = axis_specs(tmp_path / "scen.json")
    reused = [
        [record_bytes(r) for r in run_campaign(spec).results] for spec in specs
    ]
    keys = {scenario_key(c) for spec in specs for c in spec.configs()}
    assert len(build_counter) == len(keys)  # one build per scenario

    del build_counter[:]
    without_reuse(monkeypatch)
    fresh = [
        [record_bytes(r) for r in run_campaign(spec).results] for spec in specs
    ]
    assert len(build_counter) == sum(spec.size() for spec in specs)
    assert reused == fresh


def test_rewritten_trace_file_rebuilds_the_snapshot(tmp_path, build_counter):
    path = tmp_path / "scen.json"
    write_trace(path)
    cfg = tiny(
        mobility="trace", protocol="ss-spst", model_params={"trace_file": str(path)}
    )
    backend = backend_by_name("rounds")
    before = record_bytes(backend.run(cfg))
    (topo_before,), _ = backends.build_round_scenario(cfg)
    assert len(build_counter) == 1

    write_trace(path, spacing=40.0)
    os.utime(path, ns=(1, 1))
    after = record_bytes(backend.run(cfg))
    assert len(build_counter) == 2
    (topo_after,), _ = backends.build_round_scenario(cfg)
    assert topo_after is not topo_before
    assert (topo_after.dist != topo_before.dist).any()

    backends._SNAPSHOT.clear()
    assert record_bytes(backend.run(cfg)) == after
    assert after != before


def test_one_snapshot_is_held_after_a_new_key(build_counter):
    backend = backend_by_name("rounds")
    first, second = tiny(seed=1), tiny(seed=2)
    backend.run(first)
    (topo,), _ = backends.build_round_scenario(first)
    alive = weakref.ref(topo)
    del topo
    backend.run(second)
    assert len(backends._SNAPSHOT) == 1
    assert backends._SNAPSHOT[0][0] == scenario_key(second)
    gc.collect()
    assert alive() is None
    # a run-only change keeps the snapshot: no build
    backend.run(second.replace(protocol="ss-spst-t", daemon="central"))
    assert len(build_counter) == 2


# ----------------------------------------------------------------------
# Grouped dispatch
# ----------------------------------------------------------------------
class RecordingScheduler(PoolScheduler):
    """The serial scheduler, keeping the jobs in the order received."""

    def __init__(self) -> None:
        super().__init__(1)
        self.jobs = []

    def execute(self, fn, jobs, on_result) -> None:
        self.jobs.extend(jobs)
        super().execute(fn, jobs, on_result)


def grid_spec() -> CampaignSpec:
    return CampaignSpec.from_mapping(
        "grouped",
        tiny(),
        ("ss-spst", "ss-spst-e"),
        (1, 2),
        {"daemon": ("central", "distributed"), "n_nodes": (12, 16)},
    )


def test_dispatch_is_grouped_by_scenario_and_stable(test_store):
    spec = grid_spec()
    scheduler = RecordingScheduler()
    result = run_campaign(spec, store=test_store, scheduler=scheduler)
    slots = [i for i, _ in scheduler.jobs]
    assert sorted(slots) == list(range(spec.size()))
    keys = [scenario_key(cfg) for _, cfg in scheduler.jobs]
    # each key forms one contiguous block, blocks in order of first
    # appearance in the spec, slots ascending inside a block
    spec_keys = [scenario_key(cfg) for cfg in spec.configs()]
    blocks = list(dict.fromkeys(keys))
    assert blocks == list(dict.fromkeys(spec_keys))
    assert keys == sorted(keys, key=blocks.index)
    for key in blocks:
        block = [i for i, k in zip(slots, keys) if k == key]
        assert block == sorted(block)
        assert len(block) == 4  # 2 protocols x 2 daemons share (n, seed)
    assert slots != sorted(slots)  # the order did change
    assert all(r is not None for r in result.results)


def test_grouped_dispatch_changes_no_result(monkeypatch, tmp_path):
    spec = grid_spec()
    grouped = run_campaign(spec)
    monkeypatch.setattr(campaign_mod, "_grouped_by_scenario", lambda jobs: jobs)
    backends._SNAPSHOT.clear()
    in_spec_order = run_campaign(spec)
    assert [record_bytes(r) for r in grouped.results] == [
        record_bytes(r) for r in in_spec_order.results
    ]
    metrics = ("rounds", "evaluations", "moves")
    assert grouped.format_table(metrics) == in_spec_order.format_table(metrics)


def test_warm_pass_keys_nothing(monkeypatch, test_store):
    spec = grid_spec()
    run_campaign(spec, store=test_store)
    keyed = []
    monkeypatch.setattr(
        campaign_mod,
        "scenario_key",
        lambda cfg: keyed.append(cfg) or scenario_key(cfg),
    )
    scheduler = RecordingScheduler()
    warm = run_campaign(spec, store=test_store, scheduler=scheduler)
    assert warm.cache_hits == spec.size() and warm.executed == 0
    assert keyed == [] and scheduler.jobs == []
