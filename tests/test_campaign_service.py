"""Scheduler layer, streaming aggregation, and the campaign verbs.

Pins the contracts of the refactor's upper layers (docs/campaigns.md):

* the three schedulers (serial / pool / async) are interchangeable —
  same campaign, bit-identical aggregates;
* the async engine publishes worker heartbeats through the store,
  cancels gracefully mid-campaign (everything delivered so far is
  persisted), and a killed-and-resumed invocation converges to the
  same final table as an uninterrupted run;
* ``steal=True`` lets one shard claim and run other shards' leftovers,
  with claims contended through the store;
* streaming per-cell aggregation equals batch ``aggregate`` bit-for-bit
  in any arrival order (hypothesis property), because ``mean_ci`` *is*
  the Welford fold;
* the ``submit`` / ``status`` / ``results`` / ``migrate`` CLI
  subcommands and the functions behind them (``run_campaign``,
  ``campaign_status``, ``collect_campaign``, ``migrate_json_dir``)
  drive the same layers end to end.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean_ci
from repro.experiments.aggregation import (
    StreamingAggregate,
    Welford,
    campaign_status,
)
from repro.experiments.campaign import (
    CampaignSpec,
    collect_campaign,
    main,
    run_campaign,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.scheduler import (
    AsyncScheduler,
    CancelCampaign,
    PoolScheduler,
    SerialScheduler,
    scheduler_by_name,
)
from repro.experiments.store import migrate_json_dir, open_store

FAST_ROUNDS = dict(backend="rounds", n_nodes=16, group_size=4)


def rounds_base(**kw) -> ScenarioConfig:
    merged = dict(FAST_ROUNDS)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


def rounds_spec(name="svc-test", seeds=(1, 2), grid=None, **kw) -> CampaignSpec:
    return CampaignSpec.from_mapping(
        name=name,
        base=rounds_base(**kw),
        protocols=("ss-spst", "ss-spst-e"),
        seeds=seeds,
        grid=grid,
    )


#: a figd02-style campaign: rounds backend, a scale axis, several seeds
def deep_spec() -> CampaignSpec:
    return rounds_spec(
        name="svc-deep", seeds=(1, 2), grid={"n_nodes": (12, 16)}
    )


@pytest.fixture(params=["json", "sqlite"])
def store_spec(request, tmp_path) -> str:
    if request.param == "sqlite":
        return f"sqlite:{tmp_path / 'results.sqlite'}"
    return str(tmp_path / "records")


# ----------------------------------------------------------------------
# Scheduler interchangeability
# ----------------------------------------------------------------------
class TestSchedulers:
    def test_by_name(self):
        assert isinstance(scheduler_by_name("serial"), SerialScheduler)
        assert isinstance(scheduler_by_name("pool", 4), PoolScheduler)
        assert isinstance(scheduler_by_name("async", 4), AsyncScheduler)
        with pytest.raises(ValueError, match="unknown scheduler"):
            scheduler_by_name("celery")

    def test_engines_agree_bit_for_bit(self):
        """Same campaign through all three engines: identical tables."""
        spec = rounds_spec()
        tables = []
        for engine in (
            SerialScheduler(),
            PoolScheduler(workers=2),
            AsyncScheduler(workers=2, heartbeat_s=0.1),
        ):
            result = run_campaign(spec, scheduler=engine)
            assert result.executed == spec.size()
            tables.append(result.format_table(("rounds", "moves")))
        assert tables[0] == tables[1] == tables[2]

    def test_string_scheduler_resolves(self, tmp_path):
        result = run_campaign(
            rounds_spec(), store=str(tmp_path / "r"), scheduler="serial"
        )
        assert result.executed == rounds_spec().size()

    def test_async_heartbeats_land_in_store(self, store_spec):
        engine = AsyncScheduler(workers=2, heartbeat_s=0.01)
        run_campaign(rounds_spec(), store=store_spec, scheduler=engine)
        with open_store(store_spec) as store:
            beats = store.heartbeats()
        assert beats, "async scheduler should have published heartbeats"
        assert all(info["state"] == "done" for info in beats.values())
        assert all("seen_s" in info for info in beats.values())


# ----------------------------------------------------------------------
# Graceful cancel and resume
# ----------------------------------------------------------------------
class TestCancelResume:
    def _cancel_after(self, k: int):
        def on_update(stream):
            if stream.done >= k:
                raise CancelCampaign()

        return on_update

    def test_cancel_persists_partials_then_resume_converges(self, tmp_path):
        """The acceptance scenario: an async figd02-style campaign on a
        SQLite store is cancelled mid-flight; ``status`` shows streaming
        per-cell aggregates of the partial store; re-invoking converges
        to the same table as an uninterrupted reference run."""
        spec = deep_spec()
        store = f"sqlite:{tmp_path / 'deep.sqlite'}"
        partial = run_campaign(
            spec,
            store=store,
            scheduler=AsyncScheduler(workers=2, heartbeat_s=0.05),
            on_update=self._cancel_after(3),
        )
        assert partial.cancelled
        assert 3 <= partial.executed < spec.size()
        assert partial.stream.done == partial.executed

        # the status view streams whatever has landed, mid-campaign
        metrics = ["rounds", "moves"]
        status = campaign_status(spec, store, metrics=metrics)
        assert status.done == partial.executed
        assert not status.complete
        assert 0 < sum(status.counts.values()) < spec.size()
        # ... and reports exactly what the read-only assembly sees
        collected = collect_campaign(spec, store)
        assert status.counts == {
            key: len(runs) for key, runs in collected.by_cell().items()
        }
        for metric in metrics:
            assert status.aggregates[metric] == collected.aggregate(
                collected.extractor(metric)
            )
        table = status.format_table()
        assert "/2" in table  # n/total landed-count column
        assert any(status.aggregates[m] for m in status.metrics)

        # resume: only the missing runs execute, and the final table is
        # exactly what an uninterrupted run produces
        resumed = run_campaign(spec, store=store)
        assert resumed.cancelled is False
        assert resumed.cache_hits == partial.executed
        assert resumed.executed == spec.size() - partial.executed
        reference = run_campaign(spec)
        assert resumed.format_table(("rounds", "moves")) == (
            reference.format_table(("rounds", "moves"))
        )

    def test_serial_cancel_is_graceful_too(self, store_spec):
        spec = rounds_spec()
        result = run_campaign(
            spec, store=store_spec, on_update=self._cancel_after(1)
        )
        assert result.cancelled
        assert result.executed == 1
        with open_store(store_spec) as store:
            assert store.run_count() == 1  # the delivered run is durable


# ----------------------------------------------------------------------
# Work stealing and claims
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_steal_runs_the_whole_campaign_from_one_shard(self, store_spec):
        spec = rounds_spec(seeds=(1, 2, 3))
        first = run_campaign(spec, store=store_spec, shard=(0, 2), steal=True)
        assert first.executed == spec.size()  # own share + stolen leftovers
        assert first.skipped == 0
        assert first.stolen > 0
        assert first.stolen + (first.executed - first.stolen) == spec.size()

        other = run_campaign(spec, store=store_spec, shard=(1, 2))
        assert other.executed == 0
        assert other.cache_hits == spec.size()

    def test_without_steal_foreign_runs_are_skipped(self, store_spec):
        spec = rounds_spec(seeds=(1, 2, 3))
        result = run_campaign(spec, store=store_spec, shard=(0, 2))
        assert result.stolen == 0
        assert result.skipped > 0
        assert result.executed + result.skipped == spec.size()

    def test_claim_contention_release_and_expiry(self, store_spec):
        with open_store(store_spec) as store:
            assert store.claim("k1", "worker-a") is True
            assert store.claim("k1", "worker-b") is False  # held
            store.release("k1")
            assert store.claim("k1", "worker-b") is True  # freed

            assert store.claim("k2", "worker-a", ttl_s=0.02) is True
            time.sleep(0.05)
            # the claimant died (its claim went stale): takeover allowed
            assert store.claim("k2", "worker-b", ttl_s=0.02) is True

    def test_sqlite_claim_checks_and_writes_atomically(self, tmp_path):
        """A claim that starts while another worker's claim is being
        written must see that claim once it commits, not overwrite it."""
        import sqlite3
        import threading

        path = tmp_path / "claims.sqlite"
        with open_store(f"sqlite:{path}") as store:
            rival = sqlite3.connect(str(path), check_same_thread=False)
            rival.execute("BEGIN IMMEDIATE")
            rival.execute(
                "INSERT INTO claims (key, worker, since_s) VALUES (?, ?, ?)",
                ("k", "worker-b", time.time()),
            )
            committer = threading.Timer(0.3, rival.commit)
            committer.start()
            try:
                assert store.claim("k", "worker-a") is False
            finally:
                committer.join()
                rival.close()
            assert store.claim("k", "worker-b") is True  # still b's

    def test_storing_a_record_releases_its_claim(self, store_spec):
        cfg = rounds_base(seed=41, protocol="ss-spst")
        from repro.experiments.campaign import _execute, config_key

        with open_store(store_spec) as store:
            key = config_key(cfg)
            assert store.claim(key, "worker-a") is True
            store.store(cfg, _execute(cfg))
            assert store.claim(key, "worker-b") is True  # claim is gone


# ----------------------------------------------------------------------
# Streaming aggregation == batch aggregation, bit for bit
# ----------------------------------------------------------------------
_REF_CACHE = {}


def _reference_campaign():
    """One uncached serial campaign shared by the property tests (8 runs:
    2 protocols x 2 seeds x 2 grid points)."""
    if "campaign" not in _REF_CACHE:
        _REF_CACHE["campaign"] = run_campaign(deep_spec())
    return _REF_CACHE["campaign"]


finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestStreamingAggregation:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(deadline=None)
    def test_mean_ci_is_exactly_the_welford_fold(self, values):
        """There is one aggregation implementation: the batch helper is
        the streaming fold, so the two can never drift apart."""
        assert mean_ci(values) == Welford().extend(values).ci()

    @given(st.permutations(list(range(8))))
    @settings(deadline=None, max_examples=30)
    def test_any_arrival_order_matches_batch_bit_for_bit(self, order):
        """Runs land in completion order (pool/async make it arbitrary);
        the snapshot folds slot-ordered, so it equals the batch
        ``aggregate`` exactly — not approximately."""
        ref = _reference_campaign()
        assert len(ref.results) == 8
        stream = StreamingAggregate(ref.spec, ("rounds", "moves"))
        for i in order:
            stream.update(i, ref.results[i])
        snapshot = stream.snapshot()
        for metric in ("rounds", "moves"):
            assert snapshot[metric] == ref.aggregate(ref.extractor(metric))

    def test_update_is_idempotent_per_slot(self):
        ref = _reference_campaign()
        stream = StreamingAggregate(ref.spec, ("rounds",))
        for _ in range(3):  # racing shards may deliver a slot twice
            stream.update(0, ref.results[0])
        assert stream.done == 1


# ----------------------------------------------------------------------
# The service verbs as plain calls over one open store
# ----------------------------------------------------------------------
class TestCampaignService:
    """The submit/status/results/migrate verbs as direct calls of
    ``run_campaign`` / ``campaign_status`` / ``collect_campaign`` /
    ``migrate_json_dir``."""

    def test_submit_status_results_roundtrip(self, store_spec):
        spec = rounds_spec()
        with open_store(store_spec) as store:
            submitted = run_campaign(spec, store=store, scheduler="serial")
            assert submitted.executed == spec.size()

            status = campaign_status(spec, store)
            assert status.complete
            assert status.done == spec.size()

            assembled = collect_campaign(spec, store)
            assert assembled.executed == 0
            assert assembled.cache_hits == spec.size()
            assert assembled.format_table(("rounds",)) == (
                submitted.format_table(("rounds",))
            )

            # warm: nothing to execute
            resubmitted = run_campaign(spec, store=store, scheduler="serial")
            assert resubmitted.executed == 0

    def test_migrate_from_json_cache(self, tmp_path):
        spec = rounds_spec()
        json_root = str(tmp_path / "legacy-cache")
        run_campaign(spec, store=json_root)
        with open_store(f"sqlite:{tmp_path / 'svc.sqlite'}") as store:
            migrated, skipped = migrate_json_dir(json_root, store)
            assert (migrated, skipped) == (spec.size(), 0)
            assert run_campaign(spec, store=store).cache_hits == spec.size()


# ----------------------------------------------------------------------
# CLI: subcommands and the flat compat surface
# ----------------------------------------------------------------------
SPEC_ARGS = [
    "--backend", "rounds",
    "--set", "n_nodes=16",
    "--set", "group_size=4",
    "--protocols", "ss-spst,ss-spst-e",
    "--seeds", "1,2",
    "--name", "cli-svc",
]


class TestCli:
    def test_flat_async_scheduler_and_sqlite_store(self, tmp_path, capsys):
        store = f"sqlite:{tmp_path / 'cli.sqlite'}"
        args = SPEC_ARGS + ["--store", store, "--scheduler", "async",
                            "--workers", "2", "--quiet"]
        assert main(args) == 0
        assert "executed=4 cached=0" in capsys.readouterr().out
        assert main(args) == 0  # warm re-run through the same store
        assert "executed=0 cached=4" in capsys.readouterr().out

    def test_submit_is_the_flat_cli_under_its_service_name(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "records")
        assert main(["submit"] + SPEC_ARGS + ["--store", store, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "# campaign cli-svc: 4 runs (executed=4" in out

    def test_status_subcommand_streams_partials(self, tmp_path, capsys):
        store = str(tmp_path / "records")
        # half the campaign (one shard) has landed; status must say so
        spec = rounds_spec(name="cli-svc")
        partial = run_campaign(spec, store=store, shard=(0, 2))
        capsys.readouterr()
        assert main(["status"] + SPEC_ARGS + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert f"{partial.executed}/4 runs complete" in out
        assert "[complete]" not in out
        assert "# workers:" in out

    def test_status_on_absent_store(self, tmp_path, capsys):
        absent = str(tmp_path / "never-created")
        assert main(["status"] + SPEC_ARGS + ["--store", absent]) == 0
        assert "(store absent)" in capsys.readouterr().out
        import os

        assert not os.path.exists(absent)  # status never creates stores

    def test_results_subcommand_and_json_out(self, tmp_path, capsys):
        store = str(tmp_path / "records")
        out_path = str(tmp_path / "campaign.json")
        run_campaign(rounds_spec(name="cli-svc"), store=store)
        capsys.readouterr()
        argv = ["results"] + SPEC_ARGS + [
            "--store", store, "--json-out", out_path
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stored=4 missing=0" in out
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["campaign"] == "cli-svc"
        assert payload["cells"]  # aggregates made it into the record

    def test_migrate_subcommand_end_to_end(self, tmp_path, capsys):
        json_root = str(tmp_path / "legacy")
        sqlite_spec = str(tmp_path / "migrated.sqlite")
        # 1. build a JSON record dir
        assert main(
            SPEC_ARGS + ["--store", f"json:{json_root}", "--quiet"]
        ) == 0
        # 2. migrate it into SQLite
        assert main(["migrate", json_root, sqlite_spec, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "# migrated 4 records" in out
        # 3. the migrated store resumes the campaign with 100% hits
        assert main(
            SPEC_ARGS + ["--store", sqlite_spec, "--quiet"]
        ) == 0
        assert "executed=0 cached=4" in capsys.readouterr().out

    def test_flat_shard_steal_flags(self, tmp_path, capsys):
        store = str(tmp_path / "records")
        argv = SPEC_ARGS + [
            "--store", store, "--shard", "0/2", "--steal", "--quiet"
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed=4" in out  # own share + stolen leftovers
        assert "skipped=0" in out
        assert "stolen=" in out
