"""Tests for the campaign subsystem: spec, hashing, cache, pool, CLI.

The scenarios here are deliberately tiny (16 nodes, 12 s of simulated
time) so the whole file — including the multiprocess runs — stays in the
seconds range.
"""

import copy
import dataclasses
import json
import os
import pickle

import pytest

from repro.experiments.campaign import CampaignSpec, main, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import RunResult, run_scenario
from repro.experiments.store import (
    CACHE_SCHEMA,
    COMPATIBLE_SCHEMAS,
    HASH_SCHEMA,
    JsonDirStore,
    config_key,
    record_from_result,
    result_from_record,
    shard_of,
)

FAST = dict(sim_time=12.0, n_nodes=16, group_size=4)


def fast_base(**kw):
    merged = dict(FAST)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


def fast_spec(protocols=("flooding", "ss-spst"), seeds=(1, 2, 3), grid=None):
    return CampaignSpec.from_mapping(
        name="test",
        base=fast_base(),
        protocols=protocols,
        seeds=seeds,
        grid={"v_max": (1.0, 5.0)} if grid is None else grid,
    )


class TestConfigKey:
    def test_stable_across_instances(self):
        assert config_key(fast_base(seed=3)) == config_key(fast_base(seed=3))

    def test_sensitive_to_every_field(self):
        base = fast_base()
        for change in (
            {"seed": 99},
            {"protocol": "odmrp"},
            {"v_max": base.v_max + 1.0},
            {"loss_prob": base.loss_prob / 2},
            {"daemon": "central"},
        ):
            assert config_key(base.replace(**change)) != config_key(base)

    def test_later_added_defaults_are_hash_neutral(self):
        """Later-added axes (daemon, backend, the scenario-model axes)
        must not invalidate pre-existing caches: at their defaults the
        fields are dropped from the hash payload, so the key equals the
        seed era's key (computed here over every other field with the
        original ``v1`` prefix).  Byte-exact pre-redesign hashes are
        additionally pinned in tests/test_scenario_models.py's golden
        fixture."""
        from repro.experiments.store import _HASH_NEUTRAL_DEFAULTS

        base = fast_base()
        for name, default in _HASH_NEUTRAL_DEFAULTS.items():
            assert getattr(base, name) == default, name
        legacy_payload = dataclasses.asdict(base)
        for name in _HASH_NEUTRAL_DEFAULTS:
            del legacy_payload[name]
        legacy = json.dumps(legacy_payload, sort_keys=True, separators=(",", ":"))
        import hashlib

        expected = hashlib.sha256(
            f"v{HASH_SCHEMA}:{legacy}".encode("utf-8")
        ).hexdigest()[:24]
        assert config_key(base) == expected

    def test_hash_schema_decoupled_from_record_schema(self):
        """Bumping the record layout (CACHE_SCHEMA) must not re-key the
        cache: the hash prefix stays at the semantic version."""
        assert HASH_SCHEMA == 1
        assert CACHE_SCHEMA in COMPATIBLE_SCHEMAS

    def test_pre_daemon_cache_record_still_loads(self, tmp_path):
        """A record written before the daemon field existed (no 'daemon'
        key in its config dict) must hit for a default-daemon config."""
        cfg = fast_base(protocol="flooding")
        cache = JsonDirStore(str(tmp_path))
        record = record_from_result(run_scenario(cfg))
        del record["config"]["daemon"]  # simulate an old-era record
        cache.store(cfg, record)
        loaded = cache.load(cfg)
        assert loaded is not None
        rebuilt = result_from_record(loaded)
        assert rebuilt.config == cfg


class TestCampaignSpec:
    def test_configs_cover_grid_x_protocols_x_seeds(self):
        spec = fast_spec()
        configs = spec.configs()
        assert spec.size() == len(configs) == 2 * 2 * 3
        assert len(set(configs)) == len(configs)
        assert {c.protocol for c in configs} == {"flooding", "ss-spst"}
        assert {c.v_max for c in configs} == {1.0, 5.0}
        assert {c.seed for c in configs} == {1, 2, 3}

    def test_cells_group_seed_replications(self):
        spec = fast_spec()
        assert len(spec.cells()) == 4
        # configs are laid out cell-major: seeds of a cell are contiguous
        first = spec.configs()[: len(spec.seeds)]
        assert {c.protocol for c in first} == {first[0].protocol}
        assert {c.seed for c in first} == set(spec.seeds)

    def test_empty_grid_means_one_point(self):
        spec = fast_spec(grid={})
        assert spec.points() == [{}]
        assert spec.size() == 2 * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            fast_spec(protocols=())
        with pytest.raises(ValueError):
            fast_spec(seeds=())
        with pytest.raises(ValueError):
            fast_spec(grid={"no_such_field": (1,)})
        with pytest.raises(ValueError):
            fast_spec(grid={"v_max": ()})

    @pytest.mark.parametrize(
        "kw, what",
        [
            ({"protocols": ("ss-spst", "ss-spst")}, "protocols"),
            ({"seeds": (1, 1, 1)}, "seeds"),
            ({"grid": {"n_nodes": (12, 12)}}, "grid axis 'n_nodes'"),
            ({"grid": {"v_max": (1, 1.0)}}, "grid axis 'v_max'"),
        ],
        ids=["protocols", "seeds", "grid-n_nodes", "grid-v_max"],
    )
    def test_rejects_duplicate_values(self, kw, what):
        """A value listed twice would run the same configs twice and
        count the copies as replications of one cell."""
        with pytest.raises(ValueError, match=f"{what} lists .* more than once"):
            fast_spec(**kw)

    def test_rejects_a_repeated_grid_axis(self):
        with pytest.raises(ValueError, match="grid axes lists 'v_max'"):
            CampaignSpec(
                name="test",
                base=fast_base(),
                protocols=("flooding",),
                seeds=(1,),
                grid=(("v_max", (1.0,)), ("v_max", (5.0,))),
            )

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "paper"])
    def test_every_figure_spec_builds(self, quick):
        from repro.experiments.figures import FIGURES

        for fig_id, fig in FIGURES.items():
            spec = fig.campaign_spec(quick=quick)
            assert spec.name == fig_id
            assert spec.size() == len(spec.configs())

    @pytest.mark.parametrize(
        "axis, values, argument",
        [("protocol", ("flooding",), "protocols"), ("seed", (1, 2), "seeds")],
    )
    def test_protocol_and_seed_are_not_grid_axes(self, axis, values, argument):
        """Every campaign already sweeps protocol and seed; a grid axis on
        either is rejected up front and names the argument to use."""
        with pytest.raises(ValueError, match=f"{axis}.*{argument}"):
            fast_spec(grid={axis: values})


class TestRunResultAttrPassthrough:
    """Regression: __getattr__ used to recurse infinitely on dunder or
    pre-`summary` lookups, which broke pickling in worker pools."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(fast_base(protocol="flooding"))

    def test_passthrough_still_works(self, result):
        assert result.pdr == result.summary.pdr

    def test_missing_attribute_raises(self, result):
        with pytest.raises(AttributeError):
            result.definitely_not_an_attr
        assert not hasattr(result, "definitely_not_an_attr")

    def test_dunder_lookup_raises_instead_of_recursing(self, result):
        with pytest.raises(AttributeError):
            result.__getstate__missing__  # arbitrary dunder-shaped name

    def test_lookup_before_summary_exists(self):
        hollow = RunResult.__new__(RunResult)
        with pytest.raises(AttributeError):
            hollow.pdr

    def test_pickle_roundtrip(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.summary == result.summary
        assert clone.config == result.config
        assert clone.pdr == result.pdr

    def test_deepcopy(self, result):
        clone = copy.deepcopy(result)
        assert clone.summary == result.summary


class TestResultCache:
    """Lookups through the JSON record dir (:class:`JsonDirStore`)."""

    def test_store_load_roundtrip(self, tmp_path):
        cfg = fast_base(protocol="flooding")
        result = run_scenario(cfg)
        cache = JsonDirStore(str(tmp_path))
        path = cache.store(cfg, record_from_result(result, elapsed_s=0.5))
        assert os.path.exists(path)
        record = cache.load(cfg)
        rebuilt = result_from_record(record)
        assert rebuilt.summary == result.summary
        assert rebuilt.config == cfg
        assert rebuilt.frames_sent == result.frames_sent

    def test_miss_on_unknown_config(self, tmp_path):
        assert JsonDirStore(str(tmp_path)).load(fast_base(seed=42)) is None

    def test_miss_on_corrupt_file(self, tmp_path):
        cfg = fast_base()
        cache = JsonDirStore(str(tmp_path))
        with open(cache.path(cfg), "w") as fh:
            fh.write("{not json")
        assert cache.load(cfg) is None

    def test_miss_on_schema_bump(self, tmp_path):
        cfg = fast_base(protocol="flooding")
        cache = JsonDirStore(str(tmp_path))
        record = record_from_result(run_scenario(cfg))
        record["schema"] = CACHE_SCHEMA + 1
        cache.store(cfg, record)
        assert cache.load(cfg) is None

    def test_miss_on_config_mismatch(self, tmp_path):
        """A hand-moved file must not impersonate another config."""
        cfg = fast_base(protocol="flooding")
        other = cfg.replace(seed=1234)
        cache = JsonDirStore(str(tmp_path))
        record = record_from_result(run_scenario(cfg))
        with open(cache.path(other), "w") as fh:
            json.dump(record, fh)
        assert cache.load(other) is None


class TestRunCampaign:
    def test_pool_executes_and_caches(self, tmp_path):
        spec = fast_spec(seeds=(1, 2))
        campaign = run_campaign(spec, workers=2, store=str(tmp_path))
        assert campaign.executed == spec.size() == 8
        assert campaign.cache_hits == 0
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) == 8
        assert all(r is not None for r in campaign.results)

        again = run_campaign(spec, workers=2, store=str(tmp_path))
        assert again.executed == 0
        assert again.cache_hits == 8
        assert [r.summary for r in again.results] == [
            r.summary for r in campaign.results
        ]

    def test_multiprocess_matches_serial_bit_for_bit(self, tmp_path):
        """Same seed => bit-identical RunSummary regardless of executor
        (the determinism the paper's 'same scenarios for all protocols'
        methodology depends on)."""
        spec = fast_spec(seeds=(1, 2))
        parallel = run_campaign(spec, workers=2)
        serial = run_campaign(spec, workers=1)
        for cfg, par, ser in zip(spec.configs(), parallel.results, serial.results):
            direct = run_scenario(cfg)
            assert par.summary.as_dict() == ser.summary.as_dict()
            assert par.summary.as_dict() == direct.summary.as_dict()
            assert par.events_executed == direct.events_executed

    def test_resumes_partial_campaign(self, test_store):
        full = fast_spec(seeds=(1, 2))
        half = fast_spec(protocols=("flooding",), seeds=(1, 2))
        first = run_campaign(half, workers=2, store=test_store)
        assert first.executed == 4
        rest = run_campaign(full, workers=2, store=test_store)
        assert rest.cache_hits == 4
        assert rest.executed == full.size() - 4

    def test_progress_reports_executed_runs(self, test_store):
        seen = []
        spec = fast_spec(protocols=("flooding",), seeds=(1, 2), grid={})
        run_campaign(spec, store=test_store, progress=seen.append)
        assert len(seen) == 2
        assert all("flooding" in line for line in seen)

    def test_aggregate_matches_mean_ci(self):
        from repro.analysis.stats import mean_ci

        spec = fast_spec(protocols=("flooding",), seeds=(1, 2, 3), grid={})
        campaign = run_campaign(spec, workers=2)
        agg = campaign.aggregate("pdr")
        (key,) = agg
        expected = mean_ci([r.summary.pdr for r in campaign.results])
        assert agg[key] == expected

    def test_format_table_lists_all_cells(self):
        spec = fast_spec(seeds=(1,))
        campaign = run_campaign(spec, workers=2)
        table = campaign.format_table(["pdr", "avg_delay_ms"])
        assert "flooding" in table and "ss-spst" in table
        assert table.count("v_max=") == 4
        assert "pdr" in table and "avg_delay_ms" in table


class TestSharding:
    """Distributed campaigns: K machines share a cache dir, each runs its
    deterministic config-hash shard, a final run assembles from cache."""

    def test_shards_partition_the_campaign(self):
        spec = fast_spec(seeds=(1, 2))
        configs = spec.configs()
        for k in (1, 2, 3):
            shards = [
                [c for c in configs if shard_of(c, k) == i] for i in range(k)
            ]
            assert sum(len(s) for s in shards) == len(configs)
            seen = [c for s in shards for c in s]
            assert sorted(map(config_key, seen)) == sorted(map(config_key, configs))

    def test_shard_executes_only_its_share(self, test_store):
        spec = fast_spec(seeds=(1, 2))
        mine = [c for c in spec.configs() if shard_of(c, 2) == 0]
        campaign = run_campaign(
            spec, workers=2, store=test_store, shard=(0, 2)
        )
        assert campaign.executed == len(mine)
        assert campaign.skipped == spec.size() - len(mine)
        present = [r for r in campaign.results if r is not None]
        assert len(present) == len(mine)
        # partial aggregation still works (only populated cells reported)
        agg = campaign.aggregate("pdr")
        assert agg and all(ci.n >= 1 for ci in agg.values())
        campaign.format_table(["pdr"])

    def test_resume_after_shard_overlap(self, test_store):
        """Both shards into one store — including a repeated (crashed
        and restarted) shard, whose second pass must be pure cache hits —
        then an un-sharded run assembles everything without executing."""
        spec = fast_spec(seeds=(1, 2))
        first = run_campaign(spec, store=test_store, shard=(0, 2))
        again = run_campaign(spec, store=test_store, shard=(0, 2))
        assert again.executed == 0
        assert again.cache_hits == first.executed
        assert again.skipped == first.skipped
        other = run_campaign(spec, store=test_store, shard=(1, 2))
        assert other.executed == spec.size() - first.executed
        assert other.cache_hits == first.executed  # overlap served from cache
        assert other.skipped == 0
        full = run_campaign(spec, store=test_store)
        assert full.executed == 0 and full.skipped == 0
        assert full.cache_hits == spec.size()
        assert all(r is not None for r in full.results)

    def test_rejects_bad_shards(self, tmp_path):
        spec = fast_spec(seeds=(1,))
        with pytest.raises(ValueError, match="out of range"):
            run_campaign(spec, shard=(2, 2))
        with pytest.raises(ValueError, match="out of range"):
            run_campaign(spec, shard=(-1, 2))
        with pytest.raises(ValueError, match=">= 1"):
            run_campaign(spec, shard=(0, 0))

    def test_cli_shard_flag(self, test_store, capsys):
        args = [
            "--protocols", "flooding", "--seeds", "1,2", "--set", "sim_time=12",
            "--set", "n_nodes=16", "--set", "group_size=4", "--quiet",
            "--store", test_store,
        ]
        assert main(args + ["--shard", "0/2"]) == 0
        out0 = capsys.readouterr().out
        assert "shard=0/2" in out0
        assert main(args + ["--shard", "1/2"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=0 cached=2" in out

    def test_cli_rejects_malformed_shard(self):
        for bad in ("2/2", "1", "a/b", "1/0", "-1/2"):
            with pytest.raises(SystemExit):
                main(["--protocols", "flooding", "--shard", bad, "--dry-run"])

    def test_cli_dry_run_marks_shard_membership(self, capsys):
        assert main(
            ["--protocols", "flooding", "--seeds", "1,2", "--shard", "0/2",
             "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "[mine]" in out or "[other shard]" in out


class TestCli:
    """The acceptance path: a 4-config x 3-seed campaign end to end via
    the CLI with 2 workers, JSON results on disk, cache hit on re-run."""

    ARGS = [
        "--protocols", "flooding,ss-spst",
        "--grid", "v_max=1.0,5.0",
        "--seeds", "1,2,3",
        "--workers", "2",
        "--set", "sim_time=12",
        "--set", "n_nodes=16",
        "--set", "group_size=4",
        "--quiet",
    ]

    def test_campaign_runs_and_recovers_from_cache(self, tmp_path, capsys):
        args = self.ARGS + ["--store", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "12 runs (executed=12 cached=0" in out
        assert "pdr" in out and "flooding" in out
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) == 12
        for name in files:
            with open(tmp_path / name) as fh:
                record = json.load(fh)
            assert record["schema"] == CACHE_SCHEMA
            assert 0.0 <= record["summary"]["pdr"] <= 1.0

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "12 runs (executed=0 cached=12" in out

    def test_dry_run_lists_without_executing(self, tmp_path, capsys):
        args = self.ARGS + ["--store", str(tmp_path), "--dry-run"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "# 12 runs" in out
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".json")]

    def test_list_figures(self, capsys):
        assert main(["--list-figures"]) == 0
        out = capsys.readouterr().out
        for fid in ("fig07", "fig16"):
            assert fid in out

    def test_figure_spec_matches_figure_grid(self):
        from repro.experiments.campaign import build_parser, spec_from_args
        from repro.experiments.figures import FIGURES

        args = build_parser().parse_args(["--figure", "fig09", "--seeds", "1,2"])
        spec = spec_from_args(args)
        fig = FIGURES["fig09"]
        assert spec.protocols == tuple(fig.protocols)
        assert spec.grid == (("v_max", tuple(fig.x_quick)),)
        assert spec.seeds == (1, 2)

    def test_rejects_unknown_field(self):
        with pytest.raises(SystemExit):
            main(["--grid", "bogus_field=1,2", "--dry-run"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig99", "--dry-run"])

    def test_rejects_set_colliding_with_figure_axis(self):
        # fig09's grid axis is v_max: a --set on it would be silently
        # clobbered by the grid values — must be a loud error instead.
        with pytest.raises(SystemExit, match="v_max.*grid axis.*fig09"):
            main(["--figure", "fig09", "--set", "v_max=3.0", "--dry-run"])

    def test_rejects_set_colliding_with_grid_axis(self):
        with pytest.raises(SystemExit, match="v_max.*grid axis"):
            main(
                ["--grid", "v_max=1.0,5.0", "--set", "v_max=3.0", "--dry-run"]
            )

    @pytest.mark.parametrize(
        "axis, value, flag",
        [("protocol", "flooding", "--protocols"), ("seed", "2", "--seeds")],
    )
    def test_rejects_protocol_and_seed_as_grid_or_set(
        self, axis, value, flag, capsys
    ):
        """``--grid`` on either field exits cleanly (not a raw TypeError),
        and ``--set`` on either is refused instead of being overwritten by
        ``--protocols`` / ``--seeds``; with or without ``--figure``."""
        rounds = ["--backend", "rounds"]
        with pytest.raises(SystemExit, match=f"{axis}.*{flag[2:]}"):
            main(rounds + ["--grid", f"{axis}={value}", "--dry-run"])
        with pytest.raises(SystemExit, match=f"{axis}.*grid axis.*{flag}"):
            main(rounds + ["--set", f"{axis}={value}", "--dry-run"])
        with pytest.raises(SystemExit, match=f"{axis}.*grid axis.*fig09"):
            main(["--figure", "fig09", "--set", f"{axis}={value}", "--dry-run"])
        assert capsys.readouterr().out == ""  # nothing planned or run

    def test_set_on_non_axis_field_still_works_with_figure(self):
        from repro.experiments.campaign import build_parser, spec_from_args

        args = build_parser().parse_args(
            ["--figure", "fig09", "--seeds", "1", "--set", "n_nodes=16",
             "--set", "group_size=4"]
        )
        spec = spec_from_args(args)
        assert spec.base.n_nodes == 16


class TestSweepIntegration:
    def test_sweep_through_campaign_engine(self, tmp_path):
        """A figure run on a pool into a store == the serial run."""
        from repro.experiments.figures import FigureDef

        base = fast_base()
        fig = FigureDef(
            fig_id="figtest", title="t", x_name="v_max", y_name="pdr",
            metric="pdr", protocols=("flooding",), x_quick=(1.0, 5.0),
            x_full=(1.0, 5.0), base_quick=base, base_full=base,
        )
        parallel = fig.run(seeds=(1, 2), workers=2, store=str(tmp_path))
        serial = fig.run(seeds=(1, 2))
        assert parallel.series == serial.series
        assert parallel.x_values == serial.x_values
        for cell, runs in serial.campaign.by_cell().items():
            assert [r.summary for r in parallel.campaign.by_cell()[cell]] == [
                r.summary for r in runs
            ]
