"""Tests for the pluggable experiment backends.

Covers the backend protocol itself (registry, validation, metric specs),
the contract the redesign is accountable for — rounds-backend results
bit-identical to a direct :class:`RoundEngine` invocation for every
registered daemon — plus cache-record compatibility across schema eras
and the backend-agnostic aggregation path.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import metric_spec_table
from repro.analysis.stats import mean_ci
from repro.core.convergence import engine_for
from repro.core.daemons import DAEMON_NAMES, DES_DAEMON_NAMES
from repro.core.rounds import fresh_states
from repro.experiments.backends import (
    BACKEND_NAMES,
    BACKENDS,
    RoundRunResult,
    RoundSummary,
    backend_by_name,
    build_round_scenario,
    default_metrics,
    metric_extractor,
)
from repro.experiments.campaign import CampaignSpec, main, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FIGURES
from repro.experiments.store import (
    CACHE_SCHEMA,
    JsonDirStore,
    config_key,
    record_from_result,
    result_from_record,
)
from repro.util.rng import RngStreams

FAST_DES = dict(sim_time=12.0, n_nodes=16, group_size=4)


def des_base(**kw):
    merged = dict(FAST_DES)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


def rounds_base(**kw):
    merged = dict(backend="rounds", protocol="ss-spst-e", n_nodes=16, group_size=4)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


class TestRegistry:
    def test_both_backends_registered(self):
        assert BACKEND_NAMES == ("des", "rounds")
        for name in BACKEND_NAMES:
            assert backend_by_name(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment backend"):
            backend_by_name("ns2")
        with pytest.raises(ValueError, match="unknown experiment backend"):
            ScenarioConfig.quick(backend="ns2")

    def test_metric_specs_are_extractable(self):
        """Every declared MetricSpec extracts a float from its backend's
        results (golden smoke over one run per backend)."""
        des_result = backend_by_name("des").run(des_base(protocol="flooding"))
        rounds_result = backend_by_name("rounds").run(rounds_base())
        for backend, result in (("des", des_result), ("rounds", rounds_result)):
            for name, spec in backend_by_name(backend).metrics().items():
                value = spec.extract(result)
                assert isinstance(value, float), (backend, name)

    def test_metric_spec_table_renders(self):
        assert "pdr" in metric_spec_table("des")
        assert "recovery_rounds" in metric_spec_table("rounds")

    def test_default_metrics_per_backend(self):
        assert default_metrics(("des",)) == ("pdr", "energy_per_packet_mj")
        assert default_metrics(("rounds",)) == ("rounds", "evaluations", "moves")
        assert "rounds" in default_metrics(("des", "rounds"))


class TestDaemonValidationMove:
    """Satellite: daemon-name validation lives in the backend now."""

    MSG = (
        "daemon 'adversarial-max-cost' has no DES realization; choose "
        f"from {sorted(DES_DAEMON_NAMES)} (the adversarial daemon "
        "is round-model only)"
    )

    def test_des_backend_still_rejects_with_same_message(self):
        with pytest.raises(ValueError) as exc:
            ScenarioConfig.quick(daemon="adversarial-max-cost")
        assert str(exc.value) == self.MSG

    def test_rounds_backend_accepts_adversarial_daemon(self):
        cfg = rounds_base(daemon="adversarial-max-cost")
        assert cfg.daemon == "adversarial-max-cost"

    def test_rounds_backend_rejects_unknown_daemon(self):
        with pytest.raises(ValueError, match="unknown daemon"):
            rounds_base(daemon="byzantine")

    def test_rounds_backend_rejects_on_demand_protocols(self):
        for protocol in ("maodv", "odmrp", "flooding"):
            with pytest.raises(ValueError, match="no round-model realization"):
                rounds_base(protocol=protocol)

    def test_every_daemon_constructs_on_rounds_backend(self):
        for daemon in DAEMON_NAMES:
            assert rounds_base(daemon=daemon).daemon == daemon


class TestRoundsBackendParity:
    """The rounds backend must be a *view* of the round engine, not a
    reimplementation: stabilization counts match a direct RoundEngine
    invocation bit for bit, for every registered daemon."""

    @pytest.mark.parametrize("daemon", DAEMON_NAMES)
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=8, max_value=24),
        protocol=st.sampled_from(("ss-spst", "ss-spst-e")),
    )
    def test_backend_matches_direct_engine(self, daemon, seed, n, protocol):
        cfg = ScenarioConfig.quick(
            backend="rounds",
            protocol=protocol,
            daemon=daemon,
            n_nodes=n,
            group_size=max(2, n // 3),
            seed=seed,
        )
        result = backend_by_name("rounds").run(cfg)

        (topo, *_), metric = build_round_scenario(cfg)
        engine = engine_for(
            topo, metric, daemon, rng=RngStreams(seed).get("daemon")
        )
        direct = engine.run(fresh_states(topo, metric))

        assert result.rounds == direct.rounds
        assert result.evaluations == direct.evaluations
        assert result.moves == direct.moves
        assert result.chain_steps == direct.chain_steps
        assert result.converged == int(direct.converged)

    def test_deterministic_given_seed(self):
        cfg = rounds_base(seed=9)
        a = backend_by_name("rounds").run(cfg)
        b = backend_by_name("rounds").run(cfg)
        assert a.summary == b.summary

    def test_recovery_reported_after_convergence(self):
        cfg = rounds_base(daemon="central", n_nodes=20, group_size=6, seed=2)
        result = backend_by_name("rounds").run(cfg)
        assert result.converged == 1
        # recovery counts are finite floats once settled
        assert result.recovery_rounds == result.recovery_rounds
        assert result.recovery_evaluations >= 0.0


#: one hand-written v1-era cache record (schema 1, no ``backend`` key, a
#: config that predates the ``daemon``/``backend`` fields, and a
#: diagnostics section missing the later-added ``frames_collided``)
V1_RECORD_JSON = json.dumps(
    {
        "schema": 1,
        "config": {
            "protocol": "flooding",
            "n_nodes": 16,
            "arena_w": 750.0,
            "arena_h": 750.0,
            "v_min": 1.0,
            "v_max": 5.0,
            "pause_time": 0.0,
            "group_size": 4,
            "max_range": 250.0,
            "e_elec": 1e-06,
            "e_rx": 6e-07,
            "eps_amp": 1e-10,
            "alpha": 2.0,
            "bitrate_bps": 2000000.0,
            "loss_prob": 0.01,
            "capture_threshold": 10.0,
            "beacon_interval": 2.0,
            "rate_kbps": 32.0,
            "packet_bytes": 512,
            "traffic_start": 8.0,
            "sim_time": 12.0,
            "availability_probe_interval": 1.0,
            "seed": 1,
        },
        "summary": {
            "pdr": 0.5,
            "energy_per_packet_mj": 1.25,
            "avg_delay_ms": 3.0,
            "control_overhead": 0.1,
            "unavailability": 0.2,
            "data_originated": 10,
            "data_delivered": 5,
            "total_energy_j": 0.5,
            "control_bytes_tx": 100,
            "data_bytes_tx": 2000,
            "duplicates_suppressed": 3,
        },
        "diagnostics": {
            "parent_changes": 0,
            "events_executed": 1234,
            "frames_sent": 55,
        },
        "elapsed_s": 0.5,
    }
)


class TestRecordCompat:
    """Satellite: schema bump keeps v1 records loading."""

    def test_v1_fixture_roundtrip(self, tmp_path):
        """The old-format JSON fixture loads through the cache and
        rebuilds a RunResult; later-added fields default."""
        record = json.loads(V1_RECORD_JSON)
        cfg = ScenarioConfig(**record["config"])
        assert cfg.daemon == "distributed" and cfg.backend == "des"
        cache = JsonDirStore(str(tmp_path))
        with open(cache.path(cfg), "w", encoding="utf-8") as fh:
            fh.write(V1_RECORD_JSON)
        loaded = cache.load(cfg)
        assert loaded is not None, "v1 record must hit, not miss"
        result = result_from_record(loaded)
        assert result.config == cfg
        assert result.summary.pdr == 0.5
        assert result.frames_sent == 55
        assert result.frames_collided == 0  # later-added field defaults

    def test_v1_record_survives_direct_rebuild(self):
        """result_from_record also tolerates the raw (unpatched) record."""
        result = result_from_record(json.loads(V1_RECORD_JSON))
        assert result.summary.data_delivered == 5
        assert result.events_executed == 1234

    def test_rounds_summary_missing_fields_default(self):
        record = backend_by_name("rounds").record_from(
            backend_by_name("rounds").run(rounds_base()), elapsed_s=0.1
        )
        del record["summary"]["recovery_chain_steps"]  # a "newer" field
        rebuilt = result_from_record(record)
        assert isinstance(rebuilt, RoundRunResult)
        # missing float fields default to nan, ints to 0
        assert rebuilt.recovery_chain_steps != rebuilt.recovery_chain_steps

    def test_new_records_carry_current_schema(self):
        record = record_from_result(backend_by_name("rounds").run(rounds_base()))
        assert record["schema"] == CACHE_SCHEMA
        assert record["backend"] == "rounds"

    def test_backends_never_share_cache_cells(self, tmp_path):
        """Same scenario fields, different backend => different keys; and
        a rounds record can never impersonate a des result."""
        des_cfg = des_base(protocol="ss-spst-e")
        rounds_cfg = des_cfg.replace(backend="rounds")
        assert config_key(des_cfg) != config_key(rounds_cfg)
        cache = JsonDirStore(str(tmp_path))
        record = backend_by_name("rounds").record_from(
            backend_by_name("rounds").run(rounds_cfg)
        )
        with open(cache.path(des_cfg), "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        assert cache.load(des_cfg) is None

    def test_des_hash_unchanged_by_backend_field(self):
        """The backend field is hash-neutral at "des": keys equal the
        pre-backend era's, so existing cache dirs keep hitting."""
        cfg = des_base()
        payload = dataclasses.asdict(cfg)
        assert payload["backend"] == "des"
        # the recorded-config comparison also patches old records — see
        # TestConfigKey/TestRecordCompat in test_campaign.py for the
        # daemon-era equivalents


class TestGoldenAggregation:
    """Golden-value aggregation per backend: the campaign's typed-metric
    aggregation equals Student-t CIs computed independently over direct
    backend runs."""

    def test_rounds_backend_golden(self):
        spec = CampaignSpec.from_mapping(
            name="golden-rounds",
            base=rounds_base(daemon="central"),
            protocols=("ss-spst", "ss-spst-e"),
            seeds=(1, 2, 3),
        )
        campaign = run_campaign(spec)
        agg = campaign.aggregate("rounds")
        backend = backend_by_name("rounds")
        for (proto, point), ci in agg.items():
            direct = [
                float(backend.run(spec.base.replace(protocol=proto, seed=s)).rounds)
                for s in spec.seeds
            ]
            assert ci == mean_ci(direct)

    def test_des_backend_golden(self):
        spec = CampaignSpec.from_mapping(
            name="golden-des",
            base=des_base(),
            protocols=("flooding",),
            seeds=(1, 2),
        )
        campaign = run_campaign(spec, workers=2)
        agg = campaign.aggregate("pdr")
        ((_, ci),) = list(agg.items())
        backend = backend_by_name("des")
        direct = [
            float(backend.run(spec.base.replace(protocol="flooding", seed=s)).pdr)
            for s in spec.seeds
        ]
        assert ci == mean_ci(direct)

    def test_mixed_backend_campaign_aggregates(self):
        """backend as a grid axis: one campaign spans both executors and
        still aggregates (foreign-backend cells extract nan and filter)."""
        spec = CampaignSpec.from_mapping(
            name="mixed",
            base=des_base(protocol="ss-spst"),
            protocols=("ss-spst",),
            seeds=(1,),
            grid={"backend": ("des", "rounds")},
        )
        assert spec.backends() == ("des", "rounds")
        campaign = run_campaign(spec)
        rounds_agg = campaign.aggregate("rounds")
        des_cell = ("ss-spst", (("backend", "des"),))
        rounds_cell = ("ss-spst", (("backend", "rounds"),))
        assert rounds_agg[rounds_cell].n == 1
        assert rounds_agg[des_cell].mean != rounds_agg[des_cell].mean  # nan
        pdr_agg = campaign.aggregate("pdr")
        assert 0.0 <= pdr_agg[des_cell].mean <= 1.0

    def test_unknown_metric_lists_choices(self):
        with pytest.raises(ValueError, match="choose from"):
            metric_extractor("no_such_metric", ("des", "rounds"))


class TestFigd02:
    def test_campaign_spec_covers_daemon_axis(self):
        spec = FIGURES["figd02"].campaign_spec(quick=True, seeds=(1,))
        assert spec.base.backend == "rounds"
        axes = dict(spec.grid)
        assert tuple(axes["daemon"]) == DAEMON_NAMES  # adversarial included
        assert max(axes["n_nodes"]) == 200  # paper scale
        assert spec.backends() == ("rounds",)

    def test_quick_sweep_runs(self):
        """A trimmed figd02 end to end: every daemon runs, the series
        plot the base (distributed) daemon."""
        fig = FIGURES["figd02"]
        small = dataclasses.replace(
            fig,
            x_quick=(16, 24),
            base_quick=fig.base_quick.replace(group_size=8),
        )
        result = small.run(quick=True, seeds=(1,))
        assert set(result.series) == {"ss-spst", "ss-spst-e"}
        assert all(len(s) == 2 for s in result.series.values())
        assert result.campaign.executed == 2 * len(DAEMON_NAMES) * 2


class TestCliBackend:
    def test_rounds_campaign_cli(self, tmp_path, capsys):
        args = [
            "--backend", "rounds",
            "--protocols", "ss-spst,ss-spst-e",
            "--grid", "daemon=central,adversarial-max-cost",
            "--seeds", "1,2",
            "--set", "n_nodes=16", "--set", "group_size=4",
            "--store", str(tmp_path), "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 runs (executed=8 cached=0" in out
        assert "rounds" in out and "evaluations" in out  # default metrics
        assert "adversarial-max-cost" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=0 cached=8" in out

    def test_dry_run_reports_plan(self, tmp_path, capsys):
        args = [
            "--backend", "rounds",
            "--protocols", "ss-spst",
            "--grid", "daemon=central,synchronous",
            "--seeds", "1,2",
            "--set", "n_nodes=16", "--set", "group_size=4",
            "--store", str(tmp_path), "--quiet",
        ]
        # warm one shard's worth of cache, then plan with shard + cache
        assert main(args + ["--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main(args + ["--shard", "0/2", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "# 4 runs = 2 cells x 2 seeds" in out
        assert "# backend(s): rounds" in out
        assert "# shard 0/2: mine=" in out
        assert "# warm cache hits:" in out
        assert "[cached]" in out
        # a dry run must not execute: the foreign shard stays uncached
        assert "executed" not in out

    def test_cli_rejects_bad_backend_daemon_combo(self):
        with pytest.raises(SystemExit, match="no DES realization"):
            main(
                ["--protocols", "ss-spst", "--grid",
                 "daemon=adversarial-max-cost", "--dry-run"]
            )

    def test_json_out_record(self, tmp_path, capsys):
        path = str(tmp_path / "artifacts" / "record.json")
        args = [
            "--backend", "rounds",
            "--protocols", "ss-spst",
            "--seeds", "1",
            "--set", "n_nodes=16", "--set", "group_size=4",
            "--quiet", "--json-out", path,
        ]
        assert main(args) == 0
        capsys.readouterr()
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        # strict RFC 8259: single-replication CIs (±inf) must serialize
        # as null, never as the bare Infinity/NaN tokens
        assert "Infinity" not in raw and "NaN" not in raw
        record = json.loads(raw)
        assert record["backends"] == ["rounds"]
        assert record["size"] == 1 and record["executed"] == 1
        (cell,) = record["cells"].values()
        assert cell["n"] == 1
        assert "rounds" in cell and "mean" in cell["rounds"]
        assert cell["rounds"]["half_width"] is None  # one seed -> ±inf

    def test_dry_run_does_not_create_store_dir(self, tmp_path, capsys):
        absent = tmp_path / "never-created"
        assert main(
            ["--backend", "rounds", "--protocols", "ss-spst", "--seeds", "1",
             "--set", "n_nodes=16", "--set", "group_size=4",
             "--store", str(absent), "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert not absent.exists()
        assert "(store absent)" in out

    def test_backend_flag_conflicts_rejected(self):
        with pytest.raises(SystemExit, match="already a grid axis"):
            main(["--backend", "rounds", "--protocols", "ss-spst",
                  "--grid", "backend=des,rounds", "--dry-run"])
        with pytest.raises(SystemExit, match="contradicts"):
            main(["--backend", "rounds", "--set", "backend=des",
                  "--protocols", "ss-spst", "--dry-run"])
        # agreeing flag + override is fine
        assert main(["--backend", "rounds", "--set", "backend=rounds",
                     "--protocols", "ss-spst", "--seeds", "1",
                     "--set", "n_nodes=16", "--set", "group_size=4",
                     "--dry-run"]) == 0


class TestBackendSmoke:
    """The CI leg's entry point: one tiny campaign on the env-selected
    backend (``REPRO_TEST_BACKEND``, default des)."""

    def test_campaign_cli_smoke(self, test_backend, tmp_path, capsys):
        if test_backend == "rounds":
            args = [
                "--backend", "rounds", "--protocols", "ss-spst,ss-spst-e",
                "--grid", "daemon=central,adversarial-max-cost",
            ]
        else:
            args = ["--protocols", "flooding,ss-spst", "--set", "sim_time=12"]
        args += [
            "--seeds", "1,2", "--set", "n_nodes=16", "--set", "group_size=4",
            "--store", str(tmp_path), "--workers", "2", "--quiet",
        ]
        expected = 8 if test_backend == "rounds" else 4
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"{expected} runs (executed={expected} cached=0" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"executed=0 cached={expected}" in out
