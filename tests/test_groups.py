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
  every group's tree bit-identically (hypothesis property), and k > 1
  rounds records are pinned byte for byte.
* **Real contention on the DES** — k concurrent sessions collide at the
  MAC, and the cross-group metrics (fairness, link stress, overlap) come
  out populated and sane.

Plus the satellites: trajectories that do not depend on ``group_count``,
and the campaign CLI end to end over a ``group_count`` grid (cold then
warm).
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
from repro.experiments.runner import build_network, run_scenario
from repro.experiments.scenario_models import (
    DEFAULT_MODELS,
    MODEL_NAMES,
    build_scenario_space,
    model_by_name,
)
from repro.experiments.store import config_key
from repro.groups.metrics import (
    jain_index,
    link_stress_stats,
    multicast_tree_edges,
)
from repro.groups.models import GroupSet, GroupSpec
from repro.protocols.registry import make_agent_factory
from repro.util.rng import RngStreams
from tests.test_des_golden import record_digest

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

        (topo, *_), metric = build_round_scenario(cfg)
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
        assert MODEL_NAMES["group-size"] == ("fixed", "linear-ramp")
        assert MODEL_NAMES["group-overlap"] == (
            "independent", "disjoint", "shared-core",
        )
        assert DEFAULT_MODELS["group-size"] == "fixed"
        assert DEFAULT_MODELS["group-overlap"] == "independent"
        with pytest.raises(ValueError, match="unknown group-size"):
            model_by_name("group-size", "bogus")
        assert model_by_name("group-overlap", "disjoint").name == (
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

    @pytest.mark.parametrize("frac", [0.0, -0.5, 1.5])
    def test_linear_ramp_rejects_out_of_range_min_frac(self, frac):
        with pytest.raises(ValueError, match="0 < ramp_min_frac <= 1"):
            ScenarioConfig.quick(
                n_nodes=40, group_size=8, group_count=3,
                group_size_model="linear-ramp",
                model_params={"ramp_min_frac": frac},
            )

    @pytest.mark.parametrize("frac", [-0.1, 1.5])
    def test_shared_core_rejects_out_of_range_core_frac(self, frac):
        with pytest.raises(ValueError, match="0 <= core_frac <= 1"):
            ScenarioConfig.quick(
                n_nodes=40, group_size=8, group_count=3,
                overlap_model="shared-core",
                model_params={"core_frac": frac},
            )

    def test_unknown_param_error_lists_group_keys(self):
        with pytest.raises(ValueError, match="model_params key") as err:
            ScenarioConfig.quick(model_params={"core_fraction": 0.5})
        assert "'core_frac'" in str(err.value)
        assert "'ramp_min_frac'" in str(err.value)

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
        overlap=st.sampled_from(MODEL_NAMES["group-overlap"]),
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

    def test_round_scenario_has_one_topology_per_group(self):
        cfg = ScenarioConfig(
            backend="rounds", n_nodes=30, group_size=5, group_count=3,
            overlap_model="disjoint", seed=5,
        )
        topologies, _ = build_round_scenario(cfg)
        groups = build_scenario_space(cfg).groups
        assert [t.source for t in topologies] == [g.source for g in groups]
        assert [t.members for t in topologies] == [
            frozenset(g.members) for g in groups
        ]
        assert all(np.array_equal(t.dist, topologies[0].dist) for t in topologies)

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


class TestMultiGroupRoundsGolden:
    """Record-byte golden for k > 1 rounds runs.

    Same digest as ``tests/test_des_golden.py``: the sha256 of
    ``record_from(result)`` minus ``elapsed_s``, as sorted compact JSON.
    Covers k in {2, 4} on both engines and three overlap models, plus
    one k = 3 run on the sparse topology; any change to the per-group
    daemon streams, the aggregation or the tree statistics moves these
    bytes.
    """

    GOLDEN = {
        "k=2/object/independent": (
            "7aa6b6abd373ba163a60c22f61eef8e0"
            "035d9d7d894cbc1d132bc5c783e41991"
        ),
        "k=2/object/shared-core": (
            "3464a31c2759f4b6eeb8f9d2da25df5a"
            "90573f53ee0f92127378871542ce3785"
        ),
        "k=2/object/disjoint": (
            "b0d9bad89e89b12437d51a1bdd7dd99d"
            "d34879c72817b8d111da9e108718038f"
        ),
        "k=2/array/independent": (
            "0d37813d349c5266fb988c2736e9e1d8"
            "e71cc9d8ad90c99de6c541a8ed048ac2"
        ),
        "k=2/array/shared-core": (
            "b691f195e4a17413eefb4032ddcd613e"
            "9d202db4a315f1f82dccb86b9d7b5010"
        ),
        "k=2/array/disjoint": (
            "890dfe8fa258a51f088aa5766aa89a88"
            "5995777ee4c7ce665f6882d4a2b52768"
        ),
        "k=4/object/independent": (
            "d73acca9a115df449e1ffeafbd832386"
            "f9205ea3b13443870f7a8dae9a948b4a"
        ),
        "k=4/object/shared-core": (
            "85bb15eb238a2c0263546e5307bd678a"
            "6f2484d021fa95aa6f10e868d1aa3a42"
        ),
        "k=4/object/disjoint": (
            "fe846b4ad405d4b3f998d6d9d886042b"
            "96b01ef6a1d29defa6baf7393a7df869"
        ),
        "k=4/array/independent": (
            "f64636837644907d4496e1c196d0ff7f"
            "5b723138876c1f9a37518294166fdb30"
        ),
        "k=4/array/shared-core": (
            "4ec4adabd0cd1c0dfa851dd138444dce"
            "9126a6ee3ae41c3810629a93e1f4b245"
        ),
        "k=4/array/disjoint": (
            "08421fac8b9069ae29d5bc5ecd4d727d"
            "5144c2f8191b5b8b9a0f2f79a305f2d0"
        ),
        "k=3/array/independent/sparse": (
            "fa82e6aadd1e17ec384c2404ff7466de"
            "ade5d6f02eb6b439911e46f93c007c23"
        ),
    }

    @staticmethod
    def _case(name: str) -> ScenarioConfig:
        k, engine, overlap, *topology = name.split("/")
        k = int(k.partition("=")[2])
        return ScenarioConfig(
            backend="rounds",
            protocol="ss-spst" if k == 2 else "ss-spst-e",
            engine=engine,
            overlap_model=overlap,
            topology=topology[0] if topology else "dense",
            group_count=k,
            n_nodes=30,
            group_size=5,
            seed=13,
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_rounds_record_bytes_unchanged(self, name):
        backend = backend_by_name("rounds")
        record = backend.record_from(backend.run(self._case(name)))
        assert record_digest(record) == self.GOLDEN[name]


class TestMultiGroupDesGolden:
    """Record-byte golden for k > 1 DES runs.

    Same digest as :class:`TestMultiGroupRoundsGolden`.  Covers k in
    {2, 3}, the three overlap models, ss-spst and ss-spst-e, and one
    run on the synchronous daemon, with static membership: any change to
    the per-group agents' construction or start order, the staggered
    per-group CBR clocks, the per-group availability probes or the tree
    statistics moves these bytes.
    """

    GOLDEN = {
        "k=2/ss-spst/independent": (
            "5b31c0b6ec390938fc4f1d91809aa468"
            "b3c638c10a01f1e51be4c15190267f72"
        ),
        "k=2/ss-spst-e/shared-core": (
            "c58fce4669aa39995d2bbff9f6adde98"
            "2dd2cd0268e795ee16677b2c96816985"
        ),
        "k=2/ss-spst-e/disjoint": (
            "54dbedda19c6c5a277d5f4def5085049"
            "c633d64fce98070f9f95e57121883927"
        ),
        "k=3/ss-spst-e/independent": (
            "a34af64f5568d4d2df2384b2a7059eea"
            "4977d4b3e45f92bfdafeff06cff332ea"
        ),
        "k=3/ss-spst/shared-core": (
            "58f7fb08de7e4e541b6f5983a2e44874"
            "7a8b762cc84aa77e927072f84781afda"
        ),
        "k=3/ss-spst-e/disjoint": (
            "0f6bdfb8ee67cc6c078adde43d477f48"
            "c11c44904651706992790c2409962339"
        ),
        "k=3/ss-spst-e/independent/daemon=synchronous": (
            "8bc130936b85d786b2dd5df14cb20770"
            "47bbfb62906073070d38212bef110293"
        ),
    }

    @staticmethod
    def _case(name: str) -> ScenarioConfig:
        k, protocol, overlap, *extra = name.split("/")
        return ScenarioConfig.quick(
            protocol=protocol,
            overlap_model=overlap,
            group_count=int(k.partition("=")[2]),
            n_nodes=30,
            group_size=6,
            sim_time=16.0,
            seed=7,
            **dict(kv.split("=") for kv in extra),
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_des_record_bytes_unchanged(self, name):
        backend = backend_by_name("des")
        record = backend.record_from(backend.run(self._case(name)))
        assert record_digest(record) == self.GOLDEN[name]


class TestGroupStore:
    @pytest.mark.parametrize("group_count", [1, 2])
    def test_group0_receivers_follow_membership_churn(self, group_count):
        _, net = build_network(
            fast_base(group_count=group_count, n_nodes=20, group_size=4)
        )
        net.attach_agents(make_agent_factory("ss-spst"))
        before = {g.gid: net.group_receivers_of(g.gid) for g in net.groups}
        leaver = min(before[0])
        joiner = min(v for v in range(net.n) if not net.is_group_member(0, v))
        net.update_membership(joins=[joiner], leaves=[leaver])
        assert net.group_receivers_of(0) == before[0] - {leaver} | {joiner}
        for gid in range(1, group_count):
            assert net.group_receivers_of(gid) == before[gid]
        for node in net.nodes:
            for gid in range(group_count):
                agent = node.agent.agent_for(gid)
                assert agent.is_member == net.is_group_member(gid, node.id)
                assert agent.is_source == net.is_group_source(gid, node.id)


# ----------------------------------------------------------------------
# satellite: group_count leaves the trajectory alone
# ----------------------------------------------------------------------
class TestTrajectoryIgnoresGroupCount:
    """Extra groups draw only from their own substreams, so no mobility
    model's trajectory depends on ``group_count``.  (``trace`` needs a
    file and replays it verbatim.)"""

    @pytest.mark.parametrize(
        "mobility", [m for m in MODEL_NAMES["mobility"] if m != "trace"]
    )
    @pytest.mark.parametrize("placement", MODEL_NAMES["placement"])
    def test_positions_do_not_depend_on_group_count(self, mobility, placement):
        def positions(group_count):
            cfg = ScenarioConfig.quick(
                n_nodes=24, group_size=4, group_count=group_count,
                mobility=mobility, placement=placement, seed=7,
            )
            model = build_scenario_space(cfg).mobility
            times = (0.0, 30.0, 90.0, 119.0)
            return [model.positions(t).tobytes() for t in times]

        assert positions(1) == positions(3)


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
