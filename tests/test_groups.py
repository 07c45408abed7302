"""Tests for the multi-group multicast subsystem (``repro.groups``).

Pins the contracts the extension is accountable for:

* **k = 1 bit-identity** — ``group_count=1`` configs hash byte-identically
  to the pre-multi-group era (golden config keys) and replay the exact
  pre-multi-group trajectories on both backends (golden DES summary,
  golden settled-tree digest on the rounds backend).
* **Generator semantics** — ``disjoint`` groups really are disjoint,
  ``shared-core`` groups really share group 0's core, ``linear-ramp``
  sizes really ramp; invalid combinations fail at construction.
* **Engine parity at k > 1** — the object and array round engines settle
  every group's tree bit-identically (hypothesis property).
* **Real contention on the DES** — k concurrent sessions collide at the
  MAC, and the cross-group metrics (fairness, link stress, overlap) come
  out populated and sane.

Plus the satellites: JSON scenario import/export round-trip, the
``platoon`` mobility model, and the campaign CLI end to end over a
``group_count`` grid (cold then warm).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import backend_by_name, build_round_scenario
from repro.experiments.campaign import main
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FIGURES
from repro.experiments.runner import run_scenario
from repro.experiments.scenario_models import build_scenario_space
from repro.experiments.store import config_key
from repro.graph.io import (
    SCENARIO_SCHEMA,
    ScenarioDocument,
    dump_scenario,
    load_scenario,
    loads_scenario,
    scenario_document,
)
from repro.groups.metrics import (
    jain_index,
    link_stress_stats,
    multicast_tree_edges,
)
from repro.groups.models import (
    DEFAULT_GROUP_MODELS,
    GROUP_MODEL_NAMES,
    GroupSet,
    GroupSpec,
    group_model_by_name,
)
from repro.mobility.platoon import PlatoonMobility
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

FAST = dict(sim_time=12.0, n_nodes=16, group_size=4)


def fast_base(**kw):
    merged = dict(FAST)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


# ----------------------------------------------------------------------
# k = 1 bit-identity: the golden fixture
# ----------------------------------------------------------------------
class TestSingleGroupGolden:
    """Values computed on the commit before the groups subsystem
    existed.  ``group_count`` / ``group_size_model`` / ``overlap_model``
    are hash-neutral at their defaults and the k = 1 simulation path is
    draw-for-draw identical, so these must never move."""

    GOLDEN_KEYS = {
        (): "1c5fc0a70752e19000558489",
        (("backend", "rounds"),): "50630b6df448dc4f6b72d084",
    }
    GOLDEN_QUICK_KEYS = {
        (): "a0f181d6925c723a1591669b",
        (("n_nodes", 16), ("group_size", 4), ("sim_time", 12.0)):
            "251d5d3b3e3e01dce191f218",
    }

    def test_default_config_keys_unchanged(self):
        for overrides, expected in self.GOLDEN_KEYS.items():
            assert config_key(ScenarioConfig(**dict(overrides))) == expected
        for overrides, expected in self.GOLDEN_QUICK_KEYS.items():
            assert (
                config_key(ScenarioConfig.quick(**dict(overrides)))
                == expected
            )

    def test_explicit_defaults_hash_like_the_past(self):
        base = ScenarioConfig()
        spelled = ScenarioConfig(
            group_count=1,
            group_size_model="fixed",
            overlap_model="independent",
        )
        assert config_key(spelled) == config_key(base)

    def test_nondefault_group_axes_move_the_hash(self):
        base = config_key(ScenarioConfig())
        assert config_key(ScenarioConfig(group_count=2)) != base
        assert (
            config_key(ScenarioConfig(group_size_model="linear-ramp")) != base
        )
        assert config_key(ScenarioConfig(overlap_model="disjoint")) != base

    def test_des_summary_unchanged(self):
        r = run_scenario(fast_base(seed=7))
        assert r.pdr == 0.8125
        assert r.avg_delay_ms == pytest.approx(10.527850085437125, abs=0)
        assert r.control_overhead == pytest.approx(
            0.09597856570512821, abs=0
        )
        assert r.data_originated == 32
        assert r.data_delivered == 78
        assert r.events_executed == 1098
        assert r.frames_sent == 192
        assert r.frames_collided == 12
        assert r.parent_changes == 18
        assert r.total_energy_j == pytest.approx(3.284115712384258, abs=0)
        # k = 1 cross-group diagnostics are well-defined, not nan
        assert r.fairness_jain == 1.0
        assert r.group_pdr_min == r.pdr

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_rounds_trajectory_unchanged(self, engine):
        from repro.core.convergence import engine_for
        from repro.core.rounds import fresh_states

        cfg = ScenarioConfig(
            backend="rounds", engine=engine, n_nodes=24, group_size=6, seed=3
        )
        summary = backend_by_name("rounds").run(cfg).summary
        assert (summary.rounds, summary.evaluations, summary.moves) == (
            6, 112, 41,
        )
        assert summary.converged == 1
        assert summary.recovery_rounds == 1.0
        assert summary.fairness_jain == 1.0

        topo, metric = build_round_scenario(cfg)
        streams = RngStreams(cfg.seed)
        settled = engine_for(
            topo, metric, cfg.daemon, engine=engine,
            rng=streams.get("daemon"), k=cfg.daemon_k,
        ).run(fresh_states(topo, metric))
        digest = hashlib.sha256(
            json.dumps(
                [
                    (st.parent, st.hop, round(st.cost, 9))
                    for st in settled.states
                ]
            ).encode()
        ).hexdigest()[:16]
        assert digest == "6528d23d48a219a5"

    def test_single_group_space_draws_nothing_extra(self):
        """At k = 1 the group generators must not touch the RNG: the
        realized group is exactly the membership model's group."""
        cfg = fast_base(seed=9)
        space = build_scenario_space(cfg)
        assert len(space.groups) == 1
        g = space.groups[0]
        assert g.gid == 0
        assert g.source == space.source
        assert g.receivers == tuple(space.receivers)


# ----------------------------------------------------------------------
# generators and validation
# ----------------------------------------------------------------------
class TestGroupModels:
    def test_registry_names(self):
        assert GROUP_MODEL_NAMES["group-size"] == ("fixed", "linear-ramp")
        assert GROUP_MODEL_NAMES["group-overlap"] == (
            "independent", "disjoint", "shared-core",
        )
        assert DEFAULT_GROUP_MODELS == {
            "group-size": "fixed",
            "group-overlap": "independent",
        }
        with pytest.raises(ValueError, match="unknown group-size"):
            group_model_by_name("group-size", "bogus")
        assert group_model_by_name("group-overlap", "disjoint").name == (
            "disjoint"
        )

    def test_groupspec_rejects_source_in_receivers(self):
        with pytest.raises(ValueError, match="source"):
            GroupSpec(gid=0, source=3, receivers=(1, 3))

    def test_groupset_requires_contiguous_gids(self):
        g0 = GroupSpec(gid=0, source=0, receivers=(1, 2))
        g2 = GroupSpec(gid=2, source=3, receivers=(4, 5))
        with pytest.raises(ValueError, match="0..k-1"):
            GroupSet(groups=(g0, g2))

    def test_group_count_must_be_positive(self):
        with pytest.raises(ValueError, match="group_count"):
            ScenarioConfig(group_count=0)

    def test_multigroup_requires_ss_family(self):
        with pytest.raises(ValueError, match="group_count"):
            ScenarioConfig.quick(protocol="flooding", group_count=2)

    def test_disjoint_needs_enough_nodes(self):
        with pytest.raises(ValueError, match="disjoint"):
            ScenarioConfig.quick(
                n_nodes=10, group_size=4, group_count=6,
                overlap_model="disjoint",
            )

    def test_disjoint_groups_share_no_nodes(self):
        cfg = ScenarioConfig.quick(
            n_nodes=40, group_size=5, group_count=4,
            overlap_model="disjoint", seed=2,
        )
        space = build_scenario_space(cfg)
        assert len(space.groups) == 4
        seen = set()
        for g in space.groups:
            members = set(g.members)
            assert not members & seen
            seen |= members

    def test_shared_core_groups_draw_from_group0(self):
        cfg = ScenarioConfig.quick(
            n_nodes=40, group_size=8, group_count=3,
            overlap_model="shared-core", seed=4,
        )
        space = build_scenario_space(cfg)
        g0_receivers = set(space.groups[0].receivers)
        for g in list(space.groups)[1:]:
            # core_frac=0.5 of the group's receivers come from group 0
            n_core = min(
                round(0.5 * (g.size - 1)), len(g0_receivers), g.size - 1
            )
            assert len(set(g.members) & g0_receivers) >= n_core > 0

    def test_linear_ramp_sizes_shrink(self):
        cfg = ScenarioConfig.quick(
            n_nodes=40, group_size=8, group_count=4,
            group_size_model="linear-ramp", seed=6,
        )
        space = build_scenario_space(cfg)
        sizes = [g.size for g in space.groups]
        assert sizes[0] == 8  # group 0: the historical group_size (incl. source)
        extra = sizes[1:]
        assert extra == sorted(extra, reverse=True)  # shrinking ramp
        assert extra[-1] == 4  # ramp_min_frac=0.5 of group_size=8
        assert all(2 <= s <= 8 for s in extra)

    def test_groups_identical_across_backends(self):
        """Both backends realize the identical GroupSet (t = 0 parity
        extends to the group structure)."""
        kw = dict(n_nodes=30, group_size=5, group_count=3, seed=13)
        des = build_scenario_space(ScenarioConfig.quick(**kw))
        rnd = build_scenario_space(
            ScenarioConfig.quick(backend="rounds", traffic="cbr", **kw)
        )
        assert des.groups == rnd.groups

    def test_fixed_model_every_group_gets_group_size(self):
        cfg = ScenarioConfig.quick(
            n_nodes=40, group_size=6, group_count=3,
            group_size_model="fixed", overlap_model="independent", seed=8,
        )
        space = build_scenario_space(cfg)
        for g in list(space.groups)[1:]:
            assert g.size == 6  # source included, like sizes() declares


# ----------------------------------------------------------------------
# cross-group metrics (pure functions)
# ----------------------------------------------------------------------
class TestGroupMetrics:
    def test_jain_index(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert math.isnan(jain_index([1.0, float("nan")]))

    def test_multicast_tree_edges_walks_to_source(self):
        parents = {0: None, 1: 0, 2: 1, 3: 1, 4: None}
        edges = multicast_tree_edges(parents, source=0, members=(2, 3))
        assert edges == frozenset({(2, 1), (3, 1), (1, 0)})

    def test_link_stress_and_overlap(self):
        t1 = frozenset({(1, 0), (2, 1)})
        t2 = frozenset({(1, 0), (3, 1)})
        mean, peak, overlap = link_stress_stats([t1, t2])
        assert peak == 2.0  # (1, 0) carried by both trees
        assert mean == pytest.approx(4 / 3)
        assert overlap == pytest.approx(1 - 3 / 4)
        empty_mean, empty_peak, empty_overlap = link_stress_stats([])
        assert math.isnan(empty_mean) and math.isnan(empty_peak)
        assert empty_overlap == 0.0


# ----------------------------------------------------------------------
# k > 1: engine parity and real DES contention
# ----------------------------------------------------------------------
class TestMultiGroupRuns:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        group_count=st.integers(min_value=2, max_value=4),
        overlap=st.sampled_from(GROUP_MODEL_NAMES["group-overlap"]),
    )
    def test_object_and_array_engines_agree_at_k_gt_1(
        self, seed, group_count, overlap
    ):
        summaries = []
        for engine in ("object", "array"):
            cfg = ScenarioConfig(
                backend="rounds", engine=engine, n_nodes=30, group_size=5,
                group_count=group_count, overlap_model=overlap, seed=seed,
            )
            s = backend_by_name("rounds").run(cfg).summary
            summaries.append(
                (
                    s.rounds, s.evaluations, s.moves, s.converged,
                    s.total_cost, s.fairness_jain, s.link_stress_mean,
                    s.link_stress_max, s.tree_overlap_ratio,
                )
            )
        assert summaries[0] == summaries[1]

    def test_rounds_multigroup_aggregation(self):
        cfg = ScenarioConfig(
            backend="rounds", n_nodes=30, group_size=6, group_count=4,
            overlap_model="shared-core", seed=5,
        )
        s = backend_by_name("rounds").run(cfg).summary
        single = backend_by_name("rounds").run(
            ScenarioConfig(backend="rounds", n_nodes=30, group_size=6, seed=5)
        ).summary
        # k trees cost at least group 0's tree; counters are sums
        assert s.evaluations > single.evaluations
        assert s.rounds >= single.rounds
        assert 0.0 < s.fairness_jain <= 1.0
        assert s.link_stress_mean >= 1.0
        assert 0.0 <= s.tree_overlap_ratio < 1.0
        # recovery is a per-tree notion: nan at k > 1
        assert math.isnan(s.recovery_rounds)

    def test_des_multigroup_contends_and_reports_fairness(self):
        r = run_scenario(
            ScenarioConfig.quick(
                n_nodes=24, group_size=5, group_count=3,
                sim_time=20.0, seed=11,
            )
        )
        assert 0.0 < r.pdr <= 1.0
        assert 0.0 < r.fairness_jain <= 1.0
        assert 0.0 <= r.group_pdr_min <= r.pdr
        assert r.link_stress_mean >= 1.0
        assert r.link_stress_max >= r.link_stress_mean
        assert 0.0 <= r.tree_overlap_ratio < 1.0
        # three staggered CBR flows: strictly more traffic than one
        single = run_scenario(
            ScenarioConfig.quick(
                n_nodes=24, group_size=5, sim_time=20.0, seed=11
            )
        )
        assert r.data_originated > single.data_originated
        assert r.frames_collided > single.frames_collided

    def test_des_multigroup_is_deterministic(self):
        cfg = ScenarioConfig.quick(
            n_nodes=20, group_size=4, group_count=2, sim_time=15.0, seed=21
        )
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert (a.pdr, a.fairness_jain, a.events_executed, a.frames_sent) == (
            b.pdr, b.fairness_jain, b.events_executed, b.frames_sent,
        )

    def test_figg01_registered(self):
        fig = FIGURES["figg01"]
        assert fig.x_name == "group_count"
        assert 1 in fig.x_quick and 4 in fig.x_quick
        spec = fig.campaign_spec(quick=True)
        assert any(cfg.group_count == 4 for cfg in spec.configs())


# ----------------------------------------------------------------------
# satellite: JSON scenario import/export
# ----------------------------------------------------------------------
class TestScenarioIo:
    def test_round_trip_exact(self, tmp_path):
        doc = scenario_document(
            ScenarioConfig.quick(
                n_nodes=20, group_size=4, group_count=3, seed=17
            ),
            meta={"note": "fixture"},
        )
        path = str(tmp_path / "scenario.json")
        dump_scenario(path, doc)
        loaded = load_scenario(path)
        assert loaded.n_nodes == doc.n_nodes == 20
        np.testing.assert_array_equal(loaded.positions, doc.positions)
        assert loaded.groups == doc.groups
        assert loaded.arena == doc.arena
        assert loaded.meta["note"] == "fixture"
        assert loaded.meta["group_count"] == 3
        # a second dump of the loaded document is byte-identical
        path2 = str(tmp_path / "scenario2.json")
        dump_scenario(path2, loaded)
        with open(path) as a, open(path2) as b:
            assert a.read() == b.read()

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            loads_scenario(json.dumps({"schema": 99}))
        assert SCENARIO_SCHEMA == 1

    def test_rejects_out_of_range_members(self):
        doc = ScenarioDocument(
            arena=(100.0, 100.0),
            positions=np.zeros((3, 2)),
            groups=GroupSet(
                groups=(GroupSpec(gid=0, source=0, receivers=(1, 7)),)
            ),
        )
        text = json.dumps(
            {
                "schema": 1,
                "arena": [100.0, 100.0],
                "positions": [[0, 0], [1, 1], [2, 2]],
                "groups": [{"gid": 0, "source": 0, "receivers": [1, 7]}],
            }
        )
        with pytest.raises(ValueError, match="outside"):
            loads_scenario(text)
        assert doc.n_nodes == 3


# ----------------------------------------------------------------------
# satellite: platoon mobility
# ----------------------------------------------------------------------
class TestPlatoonMobility:
    def test_platoon_members_stay_coherent(self):
        rng = np.random.default_rng(3)
        model = PlatoonMobility(
            n_nodes=12, arena=Arena(500.0, 500.0), platoon_count=3,
            spread=40.0, v_min=1.0, v_max=5.0, rng=rng,
        )
        for t in (0.0, 30.0, 90.0):
            pos = model.positions(t)
            for pid in range(3):
                members = pos[model.assignment == pid]
                diameter = np.max(
                    np.linalg.norm(
                        members[:, None, :] - members[None, :, :], axis=-1
                    )
                )
                # offsets are within +-spread per axis -> bounded diameter
                assert diameter <= 2 * 40.0 * math.sqrt(2) + 1e-9

    def test_platoon_is_deterministic_and_seed_sensitive(self):
        def fingerprint(seed):
            model = PlatoonMobility(
                n_nodes=10, arena=Arena(400.0, 400.0), platoon_count=2,
                spread=30.0, v_min=1.0, v_max=4.0,
                rng=np.random.default_rng(seed),
            )
            return model.positions(50.0).tobytes()

        assert fingerprint(1) == fingerprint(1)
        assert fingerprint(1) != fingerprint(2)

    def test_registered_on_the_mobility_axis(self):
        cfg = fast_base(mobility="platoon", seed=5)
        space = build_scenario_space(cfg)
        assert isinstance(space.mobility, PlatoonMobility)
        # platoon_count=0 defaults to one convoy per multicast group
        assert space.mobility.platoon_count == max(cfg.group_count, 1)
        r = run_scenario(fast_base(mobility="platoon", seed=5))
        assert 0.0 <= r.pdr <= 1.0

    def test_platoon_is_hash_neutral_when_not_selected(self):
        assert config_key(ScenarioConfig()) == (
            "1c5fc0a70752e19000558489"
        )

    def test_platoon_requires_uniform_placement(self):
        with pytest.raises(ValueError, match="platoon"):
            ScenarioConfig.quick(mobility="platoon", placement="grid")

    def test_platoon_with_groups(self):
        cfg = ScenarioConfig.quick(
            n_nodes=24, group_size=4, group_count=3, mobility="platoon",
            sim_time=15.0, seed=19,
        )
        space = build_scenario_space(cfg)
        assert space.mobility.platoon_count == 3
        r = run_scenario(cfg)
        assert 0.0 <= r.pdr <= 1.0


# ----------------------------------------------------------------------
# satellite: campaign CLI over a group_count grid, cold then warm
# ----------------------------------------------------------------------
class TestCampaignCli:
    ARGS = [
        "--protocols", "ss-spst",
        "--grid", "group_count=1,2,4",
        "--seeds", "1,2",
        "--set", "sim_time=12",
        "--set", "n_nodes=24",
        "--set", "group_size=4",
        "--set", "overlap_model=shared-core",
        "--metrics", "pdr,fairness_jain,link_stress_mean",
        "--quiet",
    ]

    def test_group_count_sweep_end_to_end(self, tmp_path, capsys):
        store = str(tmp_path / "groups.sqlite")
        args = self.ARGS + ["--store", store]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "6 runs (executed=6 cached=0" in out
        assert "fairness_jain" in out and "link_stress_mean" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "6 runs (executed=0 cached=6" in out

    def test_overlap_model_is_a_sweepable_axis(self, tmp_path, capsys):
        args = [
            "--protocols", "ss-spst",
            "--grid", "overlap_model=independent,disjoint",
            "--seeds", "1",
            "--set", "group_count=2",
            "--set", "sim_time=12",
            "--set", "n_nodes=24",
            "--set", "group_size=4",
            "--store", str(tmp_path),
            "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 runs (executed=2" in out
        assert os.listdir(str(tmp_path))
