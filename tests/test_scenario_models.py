"""Tests for the declarative scenario-model API.

Pins the three contracts the redesign is accountable for:

* **Hash stability** — default-axis configs hash byte-identically to the
  pre-redesign era (golden fixture computed on the commit before the
  scenario API existed), so every warm cache keeps hitting.
* **Determinism** — every registered placement/mobility/membership model
  is bit-deterministic per seed, in-process and across worker processes.
* **Backend parity** — the DES scenario's t = 0 topology equals the
  rounds backend's topology for every mobility model, because both
  build through :func:`build_scenario_space`.

Plus the satellite surfaces: the ``daemon_k`` knob, the mobility-churn
metric names, constant-density arena scaling, rotating membership, the
``--model-param`` / ``--dry-run`` CLI and figm01.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import (
    backend_by_name,
    build_round_scenario,
    metric_extractor,
)
from repro.experiments.campaign import CampaignSpec, main
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FIGURES
from repro.experiments.runner import build_network, run_scenario
from repro.experiments.scenario_models import (
    AXES,
    AXIS_FIELDS,
    DEFAULT_MODELS,
    MODEL_NAMES,
    build_scenario_space,
    effective_arena,
    model_by_name,
    non_default_axes,
    resolved_models,
)
from repro.experiments.store import (
    JsonDirStore,
    config_key,
    record_from_result,
    result_from_record,
)
from repro.util.geometry import pairwise_distances
from repro.util.rng import RngStreams

FAST = dict(sim_time=12.0, n_nodes=16, group_size=4)

#: mobility models that need no model_params to build
FREE_MOBILITY = ("waypoint", "gauss-markov", "random-walk", "static")


def fast_base(**kw):
    merged = dict(FAST)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


# ----------------------------------------------------------------------
# Hash stability
# ----------------------------------------------------------------------
class TestGoldenHashes:
    """Byte-exact config hashes from the commit *before* the scenario
    API existed (PR 4 era).  If any of these change, every warm cache in
    the wild silently stops hitting — the one regression this redesign
    must never ship."""

    GOLDEN = {
        "quick-default": "a0f181d6925c723a1591669b",
        "paper-default": "1c5fc0a70752e19000558489",
        "quick-flooding-v10": "854e7fe400e48dd54ef343c9",
        "quick-rounds-e": "22c61e5d3ae771f294d33fe3",
        "quick-central-seed7": "7dcee5d1e7c5632698c135e7",
        "paper-group50": "3fc6e631b307366a83272145",
        "quick-fast-des": "251d5d3b3e3e01dce191f218",
    }

    def configs(self):
        return {
            "quick-default": ScenarioConfig.quick(),
            "paper-default": ScenarioConfig.paper_scale(),
            "quick-flooding-v10": ScenarioConfig.quick(
                protocol="flooding", v_max=10.0
            ),
            "quick-rounds-e": ScenarioConfig.quick(
                backend="rounds", protocol="ss-spst-e", n_nodes=16, group_size=4
            ),
            "quick-central-seed7": ScenarioConfig.quick(daemon="central", seed=7),
            "paper-group50": ScenarioConfig.paper_scale(
                group_size=50, v_max=1.0
            ),
            "quick-fast-des": ScenarioConfig.quick(
                sim_time=12.0, n_nodes=16, group_size=4
            ),
        }

    def test_default_axis_configs_keep_pre_redesign_hashes(self):
        for name, cfg in self.configs().items():
            assert config_key(cfg) == self.GOLDEN[name], name

    def test_every_non_default_axis_forks_the_hash(self):
        base = fast_base()
        forks = [
            {"placement": "grid"},
            {"mobility": "gauss-markov"},
            {"membership": "rotating"},
            {"daemon_k": 2},
            {"density_ref_n": 50},
            {
                "mobility": "gauss-markov",
                "model_params": {"gm_alpha": 0.5},
            },
        ]
        keys = {config_key(base)}
        for change in forks:
            keys.add(config_key(base.replace(**change)))
        assert len(keys) == len(forks) + 1  # all distinct

    def test_model_params_hash_only_when_non_default(self):
        a = fast_base(mobility="gauss-markov")
        b = fast_base(mobility="gauss-markov", model_params={})
        assert config_key(a) == config_key(b)


# ----------------------------------------------------------------------
# Registry and validation
# ----------------------------------------------------------------------
class TestRegistry:
    def test_axes_and_model_names(self):
        assert AXES == (
            "placement",
            "mobility",
            "membership",
            "traffic",
            "group-size",
            "group-overlap",
        )
        assert AXIS_FIELDS == {
            "placement": "placement",
            "mobility": "mobility",
            "membership": "membership",
            "traffic": "traffic",
            "group-size": "group_size_model",
            "group-overlap": "overlap_model",
        }
        assert MODEL_NAMES["placement"] == ("uniform", "grid")
        assert MODEL_NAMES["mobility"] == (
            "waypoint",
            "gauss-markov",
            "random-walk",
            "static",
            "trace",
        )
        assert MODEL_NAMES["membership"] == ("static-random", "rotating")
        assert MODEL_NAMES["traffic"] == ("cbr",)

    def test_defaults_resolve_and_match_axis_fields(self):
        cfg = fast_base()
        models = resolved_models(cfg)
        for axis, field in AXIS_FIELDS.items():
            assert models[axis].name == DEFAULT_MODELS[axis]
            assert getattr(cfg, field) == DEFAULT_MODELS[axis]

    def test_defaults_are_the_config_field_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
        assert DEFAULT_MODELS == {
            axis: defaults[field] for axis, field in AXIS_FIELDS.items()
        }
        assert DEFAULT_MODELS["placement"] == "uniform"
        assert DEFAULT_MODELS["group-overlap"] == "independent"

    def test_unknown_models_rejected_at_construction(self):
        for axis, field in AXIS_FIELDS.items():
            with pytest.raises(ValueError, match=f"unknown {axis} model"):
                fast_base(**{field: "warp-drive"})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            model_by_name("weather", "sunny")

    def test_unknown_model_param_rejected(self):
        with pytest.raises(ValueError, match="model_params key"):
            fast_base(model_params={"gm_alhpa": 0.5})  # typo

    def test_params_of_unresolved_models_are_allowed(self):
        # gm_alpha belongs to gauss-markov, but a campaign base may carry
        # it while a --grid mobility axis selects the model per cell; only
        # keys no registered model accepts are rejected.
        fast_base(mobility="gauss-markov", model_params={"gm_alpha": 0.5})
        fast_base(model_params={"gm_alpha": 0.5})  # base for a mobility grid
        # the group axes: a base whose overlap_model is still
        # "independent" carries core_frac for a --grid overlap_model axis
        fast_base(model_params={"core_frac": 0.25})
        fast_base(model_params={"ramp_min_frac": 0.25})

    def test_model_params_normalization(self):
        cfg = fast_base(
            mobility="gauss-markov",
            model_params={"gm_tick": 2.0, "gm_alpha": 0.5},
        )
        assert cfg.model_params == (("gm_alpha", 0.5), ("gm_tick", 2.0))
        assert cfg.params() == {"gm_alpha": 0.5, "gm_tick": 2.0}
        # JSON round-trip shape (list of lists) normalizes identically
        again = fast_base(
            mobility="gauss-markov",
            model_params=[["gm_tick", 2.0], ["gm_alpha", 0.5]],
        )
        assert again == cfg

    def test_model_params_reject_duplicates_and_non_scalars(self):
        with pytest.raises(ValueError, match="duplicate"):
            fast_base(model_params=[["gm_alpha", 1], ["gm_alpha", 2]])
        with pytest.raises(ValueError, match="scalars"):
            fast_base(model_params={"gm_alpha": [1, 2]})

    def test_trace_mobility_needs_file_and_uniform_placement(self, tmp_path):
        with pytest.raises(ValueError, match="trace_file"):
            fast_base(mobility="trace")
        path = tmp_path / "scen.json"
        path.write_text(json.dumps([[[0.0, 10.0, 10.0]]] * FAST["n_nodes"]))
        with pytest.raises(ValueError, match="placement"):
            fast_base(
                mobility="trace",
                placement="grid",
                model_params={"trace_file": str(path)},
            )
        cfg = fast_base(
            mobility="trace", model_params={"trace_file": str(path)}
        )
        space = build_scenario_space(cfg)
        assert np.allclose(space.mobility.positions(0.0), [10.0, 10.0])

    def test_editing_the_trace_file_forks_the_cache_key(self, tmp_path):
        """Cache identity covers what a run *reads*: same config, new
        waypoints in the same file path -> a different config_key, so a
        warm cache cannot serve results from the old trajectories."""
        path = tmp_path / "scen.json"
        path.write_text(json.dumps([[[0.0, 10.0, 10.0]]] * FAST["n_nodes"]))
        cfg = fast_base(
            mobility="trace", model_params={"trace_file": str(path)}
        )
        key_before = config_key(cfg)
        assert config_key(cfg) == key_before  # digest memo is stable
        path.write_text(json.dumps([[[0.0, 99.0, 99.0]]] * FAST["n_nodes"]))
        assert config_key(cfg) != key_before

    def test_editing_the_trace_file_refreshes_the_mobility_profile(
        self, tmp_path
    ):
        """The runner memoizes mobility profiles per process; the memo
        key covers the trace file's content, so a file edited in place
        is replayed afresh instead of serving the old trajectory's
        churn."""
        from repro.experiments.runner import _mobility_profile

        n = FAST["n_nodes"]
        path = tmp_path / "scen.json"
        # every node parked within range of every other: a full mesh
        path.write_text(json.dumps([[[0.0, 100.0 + i, 100.0]] for i in range(n)]))
        cfg = fast_base(
            mobility="trace", model_params={"trace_file": str(path)}
        )
        before = _mobility_profile(cfg).churn
        assert (before.link_breaks, before.mean_degree) == (0, n - 1)
        # rewritten in place: the nodes now cross the arena
        path.write_text(json.dumps([
            [[0.0, 50.0 * i, 100.0], [12.0, 700.0 - 45.0 * i, 650.0]]
            for i in range(n)
        ]))
        after = _mobility_profile(cfg).churn
        assert after.link_breaks > 0
        assert after.mean_degree < n - 1

    def test_mobility_profile_replays_once_per_scenario(self, monkeypatch):
        """The profile memo keys on the scenario: configs that differ only
        in how they are run share one replay, a trajectory field forks it."""
        from repro.experiments import runner

        replays = []

        def counting_build(config):
            replays.append(config)
            return build_scenario_space(config)

        monkeypatch.setattr(runner, "build_scenario_space", counting_build)
        monkeypatch.setattr(runner, "_PROFILE_MEMO", {})
        base = fast_base(protocol="ss-spst", seed=3)
        first = runner._mobility_profile(base)
        assert runner._mobility_profile(base.replace(protocol="flooding")) is first
        assert runner._mobility_profile(base.replace(daemon="synchronous")) is first
        assert len(replays) == 1
        runner._mobility_profile(base.replace(v_max=2.0))
        assert len(replays) == 2

    def test_trace_node_count_mismatch_fails_at_build(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps([[[0.0, 1.0, 1.0]]] * 3))
        cfg = fast_base(
            mobility="trace", model_params={"trace_file": str(path)}
        )
        with pytest.raises(ValueError, match="n_nodes"):
            build_scenario_space(cfg)

    def test_rounds_backend_accepts_rotating_membership(self):
        # The rounds backend replays the t = 0 snapshot, which rotation
        # leaves intact by construction.
        cfg = fast_base(
            backend="rounds", protocol="ss-spst-e", membership="rotating"
        )
        (topo, *_), _ = build_round_scenario(cfg)
        assert len(topo.members) == cfg.group_size

    def test_rotation_period_must_be_positive(self):
        with pytest.raises(ValueError, match="rotation_period"):
            fast_base(
                membership="rotating", model_params={"rotation_period": 0.0}
            )

    def test_daemon_k_and_density_ref_validation(self):
        with pytest.raises(ValueError, match="daemon_k"):
            fast_base(daemon_k=0)
        with pytest.raises(ValueError, match="density_ref_n"):
            fast_base(density_ref_n=-1)


# ----------------------------------------------------------------------
# Determinism (property a)
# ----------------------------------------------------------------------
def _scenario_fingerprint(args):
    """Top-level (picklable) worker: t = 0 positions + group of a config."""
    placement, mobility, membership, seed = args
    cfg = ScenarioConfig.quick(
        n_nodes=20,
        group_size=6,
        placement=placement,
        mobility=mobility,
        membership=membership,
        seed=seed,
    )
    space = build_scenario_space(cfg)
    pos = space.mobility.positions(0.0)
    return pos.tobytes(), space.source, tuple(space.receivers)


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        placement=st.sampled_from(MODEL_NAMES["placement"]),
        mobility=st.sampled_from(FREE_MOBILITY),
        membership=st.sampled_from(MODEL_NAMES["membership"]),
    )
    def test_every_model_combo_is_bit_deterministic_per_seed(
        self, seed, placement, mobility, membership
    ):
        args = (placement, mobility, membership, seed)
        assert _scenario_fingerprint(args) == _scenario_fingerprint(args)

    def test_deterministic_across_processes(self):
        """The fingerprints a worker pool computes equal the in-process
        ones for every placement x membership combo (property (a)'s
        cross-process half; RngStreams hashes names with SHA-256, not
        PYTHONHASHSEED-dependent ``hash``)."""
        combos = [
            (p, m, g, 11)
            for p in MODEL_NAMES["placement"]
            for m in ("waypoint", "static")
            for g in MODEL_NAMES["membership"]
        ]
        local = [_scenario_fingerprint(c) for c in combos]
        with multiprocessing.Pool(2) as pool:
            remote = pool.map(_scenario_fingerprint, combos)
        assert local == remote

    def test_seed_moves_every_stochastic_model(self):
        for mobility in FREE_MOBILITY:
            a = _scenario_fingerprint(("uniform", mobility, "static-random", 1))
            b = _scenario_fingerprint(("uniform", mobility, "static-random", 2))
            assert a != b, mobility

    def test_default_space_replicates_historical_draws(self):
        """The uniform/waypoint/static-random path must reproduce the
        seed era draw-for-draw: waypoint self-samples placement from the
        ``mobility`` substream and the group comes from ``group``."""
        cfg = fast_base()
        space = build_scenario_space(cfg)
        streams = RngStreams(cfg.seed)
        expected_pos = np.empty((cfg.n_nodes, 2))
        pts = streams.get("mobility").random((cfg.n_nodes, 2))
        expected_pos[:, 0] = pts[:, 0] * cfg.arena_w
        expected_pos[:, 1] = pts[:, 1] * cfg.arena_h
        assert np.array_equal(space.mobility.positions(0.0), expected_pos)
        expected_recv = streams.get("group").choice(
            np.arange(1, cfg.n_nodes), size=cfg.group_size - 1, replace=False
        )
        assert space.receivers == [int(r) for r in expected_recv]
        assert space.source == 0


# ----------------------------------------------------------------------
# Backend parity (property c)
# ----------------------------------------------------------------------
class TestBackendParity:
    @pytest.mark.parametrize("mobility", FREE_MOBILITY + ("trace",))
    def test_des_rounds_t0_topology_parity(self, mobility, tmp_path):
        params = {}
        if mobility == "trace":
            path = tmp_path / "scen.json"
            traces = [
                [[0.0, 30.0 * i + 10.0, 40.0], [60.0, 30.0 * i + 10.0, 90.0]]
                for i in range(20)
            ]
            path.write_text(json.dumps(traces))
            params = {"trace_file": str(path)}
        cfg = ScenarioConfig.quick(
            n_nodes=20,
            group_size=6,
            sim_time=12.0,
            mobility=mobility,
            model_params=params,
        )
        sim, net = build_network(cfg)
        des_pos = net.mobility.positions(0.0).copy()
        (topo, *_), _ = build_round_scenario(
            cfg.replace(backend="rounds", protocol="ss-spst-e")
        )
        d = pairwise_distances(des_pos)
        d[d > cfg.max_range] = np.inf
        assert np.array_equal(d, topo.dist)
        assert net.group_source_of(0) == topo.source
        assert net.group_receivers_of(0) == topo.members - {topo.source}

    def test_quick_config_t0_topology_parity(self, test_mobility):
        """The parity contract on the quick base config, per mobility
        model."""
        cfg = ScenarioConfig.quick(
            n_nodes=20, group_size=6, sim_time=12.0, mobility=test_mobility
        )
        sim, net = build_network(cfg)
        (topo, *_), _ = build_round_scenario(
            cfg.replace(backend="rounds", protocol="ss-spst-e")
        )
        d = pairwise_distances(net.mobility.positions(0.0))
        d[d > cfg.max_range] = np.inf
        assert np.array_equal(d, topo.dist)


# ----------------------------------------------------------------------
# Membership models
# ----------------------------------------------------------------------
class TestMembership:
    def test_rotating_initial_group_matches_static_random(self):
        rot = build_scenario_space(fast_base(membership="rotating"))
        stat = build_scenario_space(fast_base())
        assert rot.receivers == stat.receivers

    def test_rotating_membership_churns_but_keeps_group_size(self):
        cfg = fast_base(
            n_nodes=16,
            group_size=5,
            sim_time=30.0,
            protocol="flooding",
            membership="rotating",
            model_params={"rotation_period": 4.0},
        )
        sim, net = build_network(cfg)
        t0 = sorted(net.group_receivers_of(0))
        result = run_scenario(cfg)
        assert result.summary.pdr > 0.0
        # Re-drive a bare network (no agents) to observe the churn directly.
        sim, net = build_network(cfg)
        resolved_models(cfg)["membership"].install(net, cfg)
        sim.run(until=cfg.sim_time)
        t_end = sorted(net.group_receivers_of(0))
        assert len(t_end) == len(t0) == cfg.group_size - 1
        assert t_end != t0  # at least one rotation happened
        assert net.group_source_of(0) == 0 and net.is_group_member(0, 0)

    def test_rotation_never_admits_dead_nodes(self):
        """Battery-limited runs deplete nodes; rotation must not join a
        dead node (its agent's membership machinery would restart on a
        corpse), while dead receivers may still rotate out."""
        cfg = fast_base(
            n_nodes=16,
            group_size=5,
            sim_time=30.0,
            membership="rotating",
            model_params={"rotation_period": 2.0},
        )
        sim, net = build_network(cfg)
        for node in net.nodes:  # every non-member is dead
            if not net.is_group_member(0, node.id):
                node.alive = False
        receivers_t0 = net.group_receivers_of(0)
        resolved_models(cfg)["membership"].install(net, cfg)
        sim.run(until=cfg.sim_time)
        # No living outsiders existed, so rotation had nobody to admit.
        assert net.group_receivers_of(0) == receivers_t0

    def test_source_can_never_leave(self):
        cfg = fast_base()
        sim, net = build_network(cfg)
        with pytest.raises(ValueError, match="source"):
            net.update_membership(leaves=[net.group_source_of(0)])

    def test_update_membership_notifies_agents(self):
        calls = []

        class Probe:
            def __init__(self, node):
                self.node = node

            def on_membership_change(self):
                calls.append(self.node.id)

        cfg = fast_base()
        sim, net = build_network(cfg)
        for node in net.nodes:
            node.agent = Probe(node)
        outsider = min(v for v in range(net.n) if not net.is_group_member(0, v))
        leaver = min(net.group_receivers_of(0))
        net.update_membership(joins=[outsider], leaves=[leaver])
        assert set(calls) == {outsider, leaver}
        assert net.is_group_member(0, outsider)
        assert not net.is_group_member(0, leaver)


# ----------------------------------------------------------------------
# daemon_k, density scaling, churn metrics
# ----------------------------------------------------------------------
class TestSatelliteKnobs:
    def test_daemon_k_reaches_the_distributed_daemon(self):
        from repro.core.convergence import engine_for
        from repro.core.metrics import metric_by_name
        from repro.energy.radio import FirstOrderRadioModel

        cfg = fast_base(backend="rounds", protocol="ss-spst-e", daemon_k=7)
        (topo, *_), metric = build_round_scenario(cfg)
        engine = engine_for(topo, metric, "distributed", k=cfg.daemon_k)
        assert engine.daemon.k == 7

    def test_engine_for_rejects_options_with_engine_instance(self):
        from repro.core.convergence import engine_for
        from repro.core.rounds import RoundEngine

        cfg = fast_base(backend="rounds", protocol="ss-spst-e")
        (topo, *_), metric = build_round_scenario(cfg)
        engine = RoundEngine(topo, metric, daemon="central")
        with pytest.raises(ValueError, match="daemon options"):
            engine_for(topo, metric, engine, k=3)

    def test_daemon_k_sweeps_and_changes_rounds_results(self):
        base = fast_base(backend="rounds", protocol="ss-spst-e", n_nodes=24, group_size=8)
        spec = CampaignSpec.from_mapping(
            name="k-sweep",
            base=base,
            protocols=("ss-spst-e",),
            seeds=(1,),
            grid={"daemon_k": (1, 24)},
        )
        configs = spec.configs()
        assert [c.daemon_k for c in configs] == [1, 24]
        r1 = backend_by_name("rounds").run(configs[0])
        rn = backend_by_name("rounds").run(configs[1])
        assert r1.summary.converged and rn.summary.converged
        # k = 1 serializes activations; k = n is a randomly-ordered
        # synchronous round.  The trajectories genuinely differ.
        assert (r1.summary.rounds, r1.summary.moves) != (
            rn.summary.rounds,
            rn.summary.moves,
        )

    def test_default_daemon_k_matches_historical_engine_default(self):
        cfg = fast_base(backend="rounds", protocol="ss-spst-e")
        assert cfg.daemon_k == 4
        with_knob = backend_by_name("rounds").run(cfg)
        explicit = backend_by_name("rounds").run(cfg.replace(daemon_k=4))
        assert with_knob.summary.as_dict() == explicit.summary.as_dict()

    def test_effective_arena_constant_density(self):
        cfg = fast_base(density_ref_n=50).replace(n_nodes=200, group_size=4)
        arena = effective_arena(cfg)
        assert arena.width == pytest.approx(cfg.arena_w * 2.0)
        assert arena.height == pytest.approx(cfg.arena_h * 2.0)
        # density n / area is invariant across the sweep
        d200 = 200 / (arena.width * arena.height)
        d50 = 50 / (cfg.arena_w * cfg.arena_h)
        assert d200 == pytest.approx(d50)
        # off by default: arena verbatim
        off = effective_arena(fast_base())
        assert (off.width, off.height) == (
            fast_base().arena_w,
            fast_base().arena_h,
        )

    def test_churn_diagnostics_on_des_results(self):
        moving = run_scenario(fast_base(protocol="flooding"))
        assert moving.link_events_per_s >= 0.0
        assert moving.mean_degree > 0.0
        assert 0.0 <= moving.partition_fraction <= 1.0
        static = run_scenario(fast_base(protocol="flooding", mobility="static"))
        assert static.link_breaks_per_s == 0.0
        assert static.link_events_per_s == 0.0

    def test_churn_metric_specs_registered_and_extractable(self):
        names = backend_by_name("des").metric_names
        for name in (
            "link_breaks_per_s",
            "link_events_per_s",
            "mean_degree",
            "partition_fraction",
        ):
            assert name in names
        result = run_scenario(fast_base(protocol="flooding"))
        extract = metric_extractor("link_breaks_per_s", ("des",))
        assert extract(result) == result.link_breaks_per_s

    def test_old_record_without_churn_fields_loads_as_nan(self, tmp_path):
        cfg = fast_base(protocol="flooding")
        record = record_from_result(run_scenario(cfg))
        for f in (
            "link_breaks_per_s",
            "link_events_per_s",
            "mean_degree",
            "partition_fraction",
        ):
            del record["diagnostics"][f]
        cache = JsonDirStore(str(tmp_path))
        cache.store(cfg, record)
        loaded = result_from_record(cache.load(cfg))
        assert loaded.link_breaks_per_s != loaded.link_breaks_per_s  # nan
        assert loaded.parent_changes == 0  # counters still default to 0

    def test_pre_scenario_era_record_still_hits(self, tmp_path):
        """A record whose config dict predates every scenario-model field
        must load for a default config (the warm-cache guarantee)."""
        cfg = fast_base(protocol="flooding")
        record = record_from_result(run_scenario(cfg))
        for name in (
            "placement",
            "mobility",
            "membership",
            "traffic",
            "model_params",
            "daemon_k",
            "density_ref_n",
        ):
            del record["config"][name]
        cache = JsonDirStore(str(tmp_path))
        cache.store(cfg, record)
        loaded = cache.load(cfg)
        assert loaded is not None
        assert result_from_record(loaded).config == cfg

    def test_record_with_model_params_round_trips_through_cache(self, tmp_path):
        cfg = fast_base(
            protocol="flooding",
            mobility="gauss-markov",
            model_params={"gm_alpha": 0.5},
        )
        record = record_from_result(run_scenario(cfg))
        cache = JsonDirStore(str(tmp_path))
        cache.store(cfg, record)
        loaded = cache.load(cfg)  # JSON turned the params into [[...]]
        assert loaded is not None
        assert result_from_record(loaded).config == cfg


# ----------------------------------------------------------------------
# CLI and figures
# ----------------------------------------------------------------------
class TestCliAndFigures:
    FAST_ARGS = [
        "--set",
        "sim_time=12",
        "--set",
        "n_nodes=16",
        "--set",
        "group_size=4",
    ]

    def test_dry_run_lists_scenario_models_and_flags_non_default(self, capsys):
        rc = main(
            [
                "--protocols",
                "flooding",
                "--grid",
                "mobility=waypoint,gauss-markov",
                "--seeds",
                "1",
                "--dry-run",
            ]
            + self.FAST_ARGS
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# scenario models (non-default marked *):" in out
        assert "#   mobility: waypoint,gauss-markov*" in out
        assert "#   placement: uniform\n" in out
        # per-run lines carry the non-default axis
        assert " mobility=gauss-markov" in out

    def test_dry_run_flags_the_group_axes(self, capsys):
        rc = main(
            [
                "--backend", "rounds", "--protocols", "ss-spst",
                "--seeds", "1",
                "--set", "group_count=2",
                "--set", "overlap_model=disjoint",
                "--set", "group_size_model=linear-ramp",
                "--dry-run",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        (run_line,) = [
            line for line in out.splitlines() if " ss-spst daemon=" in line
        ]
        assert run_line.endswith(
            " group_size_model=linear-ramp overlap_model=disjoint"
        )
        assert "#   group-size: linear-ramp*\n" in out
        assert "#   group-overlap: disjoint*\n" in out

    def test_dry_run_lists_group_axes_where_consulted(self, capsys):
        # at their defaults, the group axes are listed only when some
        # run has extra groups for them to shape
        main(["--protocols", "ss-spst", "--seeds", "1", "--dry-run"]
             + self.FAST_ARGS)
        assert "group-" not in capsys.readouterr().out
        main(["--protocols", "ss-spst", "--seeds", "1", "--dry-run",
              "--grid", "group_count=1,2"] + self.FAST_ARGS)
        out = capsys.readouterr().out
        assert "#   group-size: fixed\n" in out
        assert "#   group-overlap: independent\n" in out

    def test_dry_run_default_axes_unflagged(self, capsys):
        main(["--protocols", "flooding", "--seeds", "1", "--dry-run"] + self.FAST_ARGS)
        out = capsys.readouterr().out
        assert "#   mobility: waypoint\n" in out
        plan = out.split("(non-default marked *):")[1]
        assert "*" not in plan

    def test_model_param_flag_reaches_the_config(self, capsys):
        rc = main(
            [
                "--protocols",
                "flooding",
                "--grid",
                "membership=rotating",
                "--model-param",
                "rotation_period=5",
                "--seeds",
                "1",
                "--dry-run",
            ]
            + self.FAST_ARGS
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "model_params=rotation_period=5" in out

    def test_model_param_bad_syntax_rejected(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(["--model-param", "oops", "--dry-run"])

    def test_set_model_params_redirected_to_flag(self):
        with pytest.raises(SystemExit, match="--model-param"):
            main(["--set", "model_params=x", "--dry-run"])

    def test_mobility_grid_campaign_runs_end_to_end(self, test_store):
        rc = main(
            [
                "--protocols",
                "flooding",
                "--grid",
                "mobility=waypoint,static",
                "--seeds",
                "1",
                "--store",
                test_store,
                "--quiet",
                "--metrics",
                "pdr,link_breaks_per_s",
            ]
            + self.FAST_ARGS
        )
        assert rc == 0

    def test_figm01_registered_with_mobility_axis(self):
        fig = FIGURES["figm01"]
        assert fig.x_name == "mobility"
        spec = fig.campaign_spec(quick=True, seeds=(1,))
        assert dict(spec.grid)["mobility"] == ("waypoint", "gauss-markov", "static")
        # every grid config constructs (and therefore validates)
        assert len(spec.configs()) == 3 * 2

    def test_figm01_quick_sweep_smoke(self, tmp_path):
        """figm01 end to end at a tiny scale: every mobility model runs
        through the DES, the sweep plots per model, checks evaluate."""
        import dataclasses as dc

        fig = FIGURES["figm01"]
        small = dc.replace(
            fig,
            base_quick=fig.base_quick.replace(
                sim_time=12.0, n_nodes=16, group_size=4
            ),
        )
        result = small.run(quick=True, seeds=(1,))
        assert list(result.series) == ["ss-spst", "ss-spst-e"]
        assert result.x_values == ["waypoint", "gauss-markov", "static"]
        for desc, holds in small.check(result).items():
            assert isinstance(holds, bool), desc


class TestRunnerMobilitySmoke:
    def test_run_records_its_mobility_model(self, test_mobility):
        cfg = fast_base(protocol="ss-spst-e", mobility=test_mobility)
        result = run_scenario(cfg)
        assert 0.0 <= result.summary.pdr <= 1.0
        assert result.config.mobility == test_mobility
