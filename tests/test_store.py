"""Result-store layer: backends, parity, migration, concurrency.

The contracts pinned here (see docs/campaigns.md):

* ``open_store`` dispatch and side-effect-free probing;
* :class:`JsonDirStore` stays byte-compatible with the pre-refactor
  JSON record dir (same filenames, same file contents), with the
  crash-safety discipline (fsync + atomic replace, stale-tmp sweeping);
* :class:`SqliteStore` holds the same records behind the same
  load/store semantics (WAL journaling, schema-versioned rows, batched
  writes, reopen persistence, miss-never-error validation);
* ``migrate`` ingests a v1/v2 JSON cache dir losslessly: the migrated
  store resumes the campaign with 100% hits and identical aggregates;
* two campaign invocations racing on one store — same shard or split
  shards, JSON dir or SQLite — lose no records, double none, and
  aggregate identically to a serial reference run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    collect_campaign,
    run_campaign,
    _execute,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.store import (
    JsonDirStore,
    SqliteStore,
    config_key,
    migrate_json_dir,
    open_store,
    probe_store,
    store_location,
)

#: rounds-backend configs stabilize in milliseconds at this scale, so
#: store tests stay fast while running the full campaign machinery
FAST_ROUNDS = dict(backend="rounds", n_nodes=16, group_size=4)


def rounds_base(**kw) -> ScenarioConfig:
    merged = dict(FAST_ROUNDS)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


def rounds_spec(name="store-test", seeds=(1, 2), **kw) -> CampaignSpec:
    return CampaignSpec.from_mapping(
        name=name,
        base=rounds_base(**kw),
        protocols=("ss-spst", "ss-spst-e"),
        seeds=seeds,
    )


@pytest.fixture(params=["json", "sqlite"])
def store_spec(request, tmp_path) -> str:
    """One spec string per store backend, both over a fresh tmp dir."""
    if request.param == "sqlite":
        return f"sqlite:{tmp_path / 'results.sqlite'}"
    return str(tmp_path / "records")


def _record_for(config: ScenarioConfig) -> dict:
    return _execute(config)


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_bare_path_is_json_dir(self, tmp_path):
        store = open_store(str(tmp_path / "cache"))
        assert isinstance(store, JsonDirStore)

    def test_sqlite_by_suffix_and_prefix(self, tmp_path):
        for spec in (
            str(tmp_path / "a.sqlite"),
            str(tmp_path / "b.db"),
            f"sqlite:{tmp_path / 'c.anything'}",
        ):
            store = open_store(spec)
            assert isinstance(store, SqliteStore)
            store.close()

    def test_explicit_json_prefix(self, tmp_path):
        store = open_store(f"json:{tmp_path / 'd'}")
        assert isinstance(store, JsonDirStore)

    def test_instance_passthrough(self, tmp_path):
        store = JsonDirStore(str(tmp_path / "e"))
        assert open_store(store) is store

    def test_probe_does_not_create(self, tmp_path):
        for spec in (
            str(tmp_path / "absent-dir"),
            str(tmp_path / "absent.sqlite"),
        ):
            assert probe_store(spec) is None
            assert not os.path.exists(store_location(spec))

    def test_probe_opens_existing(self, tmp_path):
        path = tmp_path / "present"
        path.mkdir()
        assert isinstance(probe_store(str(path)), JsonDirStore)


# ----------------------------------------------------------------------
# JSON dir store: the historical layout, hardened
# ----------------------------------------------------------------------
class TestJsonDirStore:
    def test_layout_matches_pre_refactor_bytes(self, tmp_path):
        """A stored record is the exact file pre-refactor code wrote:
        ``<config_key>.json`` holding sorted-keys JSON."""
        cfg = rounds_base(seed=7, protocol="ss-spst")
        record = _record_for(cfg)
        store = JsonDirStore(str(tmp_path))
        path = store.store(cfg, record)
        assert os.path.basename(path) == f"{config_key(cfg)}.json"
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(record, sort_keys=True)
        assert store.load(cfg) == record

    def test_no_tmp_debris_after_store(self, tmp_path):
        store = JsonDirStore(str(tmp_path))
        cfg = rounds_base(seed=3, protocol="ss-spst")
        store.store(cfg, _record_for(cfg))
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]

    def test_stale_tmps_swept_on_open(self, tmp_path):
        stale = tmp_path / "deadbeef.json.tmp.12345"
        stale.write_text("{trunc")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / "cafebabe.json.tmp.6789"
        fresh.write_text("{trunc")
        JsonDirStore(str(tmp_path))
        assert not stale.exists()  # killed writer's debris
        assert fresh.exists()  # maybe another live writer's in-flight file

    def test_truncated_record_is_a_miss(self, tmp_path):
        store = JsonDirStore(str(tmp_path))
        cfg = rounds_base(seed=5, protocol="ss-spst")
        with open(store.path(cfg), "w", encoding="utf-8") as fh:
            fh.write('{"schema": 2, "config"')  # a torn non-atomic write
        assert store.load(cfg) is None


# ----------------------------------------------------------------------
# SQLite store
# ----------------------------------------------------------------------
class TestSqliteStore:
    def test_wal_mode(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        store.close()

    def test_roundtrip_and_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        cfg = rounds_base(seed=11, protocol="ss-spst")
        record = _record_for(cfg)
        with SqliteStore(path) as store:
            store.store(cfg, record)
        with SqliteStore(path) as store:  # records survive the process
            assert store.load(cfg) == record
            assert store.run_count() == 1
            assert store.keys() == [config_key(cfg)]

    def test_validation_misses(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfg = rounds_base(seed=13, protocol="ss-spst")
        record = _record_for(cfg)

        alien = dict(record, schema=99)  # future schema: miss, not error
        store.put(config_key(cfg), alien)
        assert store.load(cfg) is None

        wrong_backend = dict(record, backend="des")
        store.put(config_key(cfg), wrong_backend)
        assert store.load(cfg) is None

        edited = dict(record, config=dict(record["config"], seed=999))
        store.put(config_key(cfg), edited)  # hand-edited: identity fails
        assert store.load(cfg) is None

        store.put(config_key(cfg), record)
        assert store.load(cfg) == record
        store.close()

    def test_duplicate_put_keeps_one_row(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfg = rounds_base(seed=17, protocol="ss-spst")
        record = _record_for(cfg)
        for _ in range(3):  # racing shards / stolen re-runs collapse
            store.put(config_key(cfg), record)
        assert store.run_count() == 1
        store.close()

    def test_batched_writes_flush_on_read_and_close(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        store = SqliteStore(path, batch_size=64)
        cfg = rounds_base(seed=19, protocol="ss-spst")
        record = _record_for(cfg)
        store.store(cfg, record)
        assert store.load(cfg) == record  # reads see buffered writes
        cfg2 = rounds_base(seed=23, protocol="ss-spst")
        store.store(cfg2, _record_for(cfg2))
        store.close()  # close drains the batch durably
        with SqliteStore(path) as reopened:
            assert reopened.run_count() == 2

    def test_put_many_is_one_batch(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfgs = [rounds_base(seed=s, protocol="ss-spst") for s in (29, 31, 37)]
        items = [(config_key(c), _record_for(c)) for c in cfgs]
        assert store.put_many(items) == 3
        assert store.run_count() == 3
        store.close()


# ----------------------------------------------------------------------
# Campaign parity across stores
# ----------------------------------------------------------------------
class TestCampaignParity:
    def test_cold_then_warm(self, store_spec):
        spec = rounds_spec()
        cold = run_campaign(spec, store=store_spec)
        assert cold.executed == spec.size()
        warm = run_campaign(spec, store=store_spec)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        for a, b in zip(cold.results, warm.results):
            assert a.summary == b.summary

    def test_shard_split_reassembles(self, store_spec):
        spec = rounds_spec()
        n0 = run_campaign(spec, store=store_spec, shard=(0, 2))
        n1 = run_campaign(spec, store=store_spec, shard=(1, 2))
        assert n0.executed + n1.executed == spec.size()
        final = run_campaign(spec, store=store_spec)
        assert (final.executed, final.cache_hits) == (0, spec.size())

    def test_collect_campaign_never_executes(self, store_spec):
        spec = rounds_spec()
        run_campaign(spec, store=store_spec, shard=(0, 2))
        partial = collect_campaign(spec, store_spec)
        assert partial.executed == 0
        assert 0 < partial.cache_hits < spec.size()
        assert partial.skipped == spec.size() - partial.cache_hits

    def test_stores_agree_bit_for_bit(self, tmp_path):
        """The same campaign through both stores aggregates identically."""
        spec = rounds_spec()
        via_json = run_campaign(spec, store=str(tmp_path / "records"))
        via_sql = run_campaign(
            spec, store=f"sqlite:{tmp_path / 'results.sqlite'}"
        )
        extract = via_json.extractor("rounds")
        assert via_json.aggregate(extract) == via_sql.aggregate(extract)


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
class TestMigration:
    def test_json_dir_to_sqlite_losslessly(self, tmp_path):
        spec = rounds_spec(seeds=(1, 2, 3))
        json_root = str(tmp_path / "records")
        reference = run_campaign(spec, store=json_root)

        # debris a real long-lived cache dir accumulates: must be
        # skipped, never migrated, never fatal
        (tmp_path / "records" / "notes.json").write_text('{"a": 1}')
        (tmp_path / "records" / "broken.json").write_text("{nope")

        dest = f"sqlite:{tmp_path / 'migrated.sqlite'}"
        migrated, skipped = migrate_json_dir(json_root, dest)
        assert migrated == spec.size()
        assert skipped == 2

        # acceptance: the migrated store resumes with 100% hits and
        # reports identical aggregates to the JSON original
        warm = run_campaign(spec, store=dest)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        for metric in ("rounds", "moves", "evaluations"):
            extract = reference.extractor(metric)
            assert reference.aggregate(extract) == warm.aggregate(extract)

    def test_v1_des_record_survives_migration(self, tmp_path):
        """A v1-era record (schema 1, no backend key) migrates byte-for-
        byte and keeps loading through the SQLite store."""
        cfg = ScenarioConfig.quick(
            sim_time=12.0, n_nodes=16, group_size=4, seed=1,
            protocol="ss-spst",
        )
        record = _execute(cfg)
        v1 = {k: v for k, v in record.items() if k != "backend"}
        v1["schema"] = 1
        json_root = tmp_path / "records"
        json_root.mkdir()
        with open(json_root / f"{config_key(cfg)}.json", "w") as fh:
            json.dump(v1, fh, sort_keys=True)

        dest = f"sqlite:{tmp_path / 'migrated.sqlite'}"
        migrated, skipped = migrate_json_dir(str(json_root), dest)
        assert (migrated, skipped) == (1, 0)
        with open_store(dest) as store:
            loaded = store.load(cfg)
        assert loaded is not None
        assert loaded["schema"] == 1
        assert loaded["summary"] == v1["summary"]


# ----------------------------------------------------------------------
# Concurrent access
# ----------------------------------------------------------------------
def _race_child(args) -> int:
    """Child-process body: run one campaign invocation against the
    shared store (top level so the spawn start method could pickle it)."""
    spec, store_spec, shard = args
    result = run_campaign(spec, store=store_spec, shard=shard)
    return result.executed


def _open_and_claim_child(args) -> list:
    """Child-process body: open one shared fresh SQLite store at an
    agreed instant, then try to claim every key; returns the keys won."""
    path, keys, worker, start_at = args
    time.sleep(max(0.0, start_at - time.time()))
    with open_store(f"sqlite:{path}") as store:
        return [key for key in keys if store.claim(key, worker)]


class TestConcurrentAccess:
    def _race(self, store_spec, shards):
        spec = rounds_spec(seeds=(1, 2, 3))
        with multiprocessing.Pool(len(shards)) as pool:
            executed = pool.map(
                _race_child,
                [(spec, store_spec, shard) for shard in shards],
            )
        return spec, executed

    def test_racing_shards(self, store_spec):
        """Two shards writing one store concurrently: no lost records,
        no doubled records, aggregates identical to a serial run."""
        spec, executed = self._race(store_spec, [(0, 2), (1, 2)])
        assert sum(executed) == spec.size()

        with open_store(store_spec) as store:
            assert store.run_count() == spec.size()  # none lost or doubled
        assembled = collect_campaign(spec, store_spec)
        assert assembled.skipped == 0

        serial = run_campaign(rounds_spec(seeds=(1, 2, 3)))
        for metric in ("rounds", "moves"):
            extract = serial.extractor(metric)
            assert assembled.aggregate(extract) == serial.aggregate(extract)

    def test_sqlite_open_and_claim_stress(self, tmp_path):
        """More workers than cores open one fresh store together and
        claim the same keys: every open succeeds (the WAL switch waits
        for the exclusive lock) and every key has exactly one owner."""
        workers = 6  # more than the cores of a laptop or CI runner
        keys = [f"k{i}" for i in range(40)]
        path = tmp_path / "claims.sqlite"
        start_at = time.time() + 3.0
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers) as pool:
            won = pool.map_async(
                _open_and_claim_child,
                [(path, keys, f"w{i}", start_at) for i in range(workers)],
            ).get(timeout=120)
        owners = [key for keys_won in won for key in keys_won]
        assert sorted(owners) == sorted(keys)

    def test_racing_full_overlap(self, store_spec):
        """Worst case: two unsharded invocations of the whole campaign.
        Work is duplicated (both execute), records are not (idempotent
        keyed writes collapse the duplicates)."""
        spec, _ = self._race(store_spec, [None, None])
        with open_store(store_spec) as store:
            assert store.run_count() == spec.size()
        assembled = collect_campaign(spec, store_spec)
        assert assembled.skipped == 0
        serial = run_campaign(rounds_spec(seeds=(1, 2, 3)))
        extract = serial.extractor("rounds")
        assert assembled.aggregate(extract) == serial.aggregate(extract)
