"""Result-store layer: backends, parity, migration, concurrency.

The contracts pinned here (see docs/campaigns.md):

* ``open_store`` dispatch and side-effect-free probing;
* :class:`JsonDirStore` stays byte-compatible with the pre-refactor
  JSON record dir (same filenames, same file contents), with the
  crash-safety discipline (fsync + atomic replace, stale-tmp sweeping);
* :class:`SqliteStore` holds the same records behind the same
  load/store semantics (WAL journaling, schema-versioned rows, batched
  writes, reopen persistence, miss-never-error validation);
* the identity gate (``checked_record``) gives the verdict and the
  record of the rebuild-and-compare gate it short-cuts, kept here as an
  oracle, and a warm campaign builds one config per run and copies none;
* a campaign closes a store it opened from a spec string and leaves a
  caller's store open;
* ``migrate`` ingests a v1/v2 JSON cache dir losslessly: the migrated
  store resumes the campaign with 100% hits and identical aggregates;
* a store that still carries an older version's worker/claim side data
  (SQLite tables, JSON side directories) opens, loads, accepts puts and
  serves a fully warm campaign;
* two campaign invocations racing on one store — same shard or split
  shards, JSON dir or SQLite — lose no records, double none, and
  aggregate identically to a serial reference run; workers opening one
  fresh SQLite store together all get in and lose no write.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import multiprocessing
import os
import sqlite3
import time
from typing import Dict, List, Tuple

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    collect_campaign,
    run_campaign,
    _execute,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.store import (
    COMPATIBLE_SCHEMAS,
    _HASH_NEUTRAL_DEFAULTS,
    JsonDirStore,
    SqliteStore,
    checked_record,
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
        for _ in range(3):  # racing shards' duplicate writes collapse
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
# Stores written by older versions
# ----------------------------------------------------------------------
class TestOldSideData:
    """Older versions kept worker liveness rows and run claims beside the
    records: ``workers``/``claims`` tables in SQLite, ``.workers/`` and
    ``.claims/`` directories in a JSON dir.  Such a store must keep
    working exactly like a records-only one."""

    @staticmethod
    def _add_side_data(store_spec: str, claimed_key: str) -> None:
        location = store_location(store_spec)
        if store_spec.startswith("sqlite:"):
            conn = sqlite3.connect(location)
            with conn:
                # the old schema, as an older version created it
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS workers (worker TEXT "
                    "PRIMARY KEY, seen_s REAL NOT NULL, state TEXT NOT NULL)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS claims (key TEXT PRIMARY "
                    "KEY, worker TEXT NOT NULL, since_s REAL NOT NULL)"
                )
                conn.execute(
                    "INSERT INTO workers VALUES ('host-1-w0', ?, 'done')",
                    (time.time(),),
                )
                conn.execute(
                    "INSERT INTO claims VALUES (?, 'host-1-w0', ?)",
                    (claimed_key, time.time()),
                )
            conn.close()
            return
        workers = os.path.join(location, ".workers")
        claims = os.path.join(location, ".claims")
        os.makedirs(workers)
        os.makedirs(claims)
        with open(os.path.join(workers, "host-1-w0.json"), "w") as fh:
            json.dump({"seen_s": time.time(), "state": "done"}, fh)
        with open(os.path.join(claims, f"{claimed_key}.claim"), "w") as fh:
            json.dump({"worker": "host-1-w0", "since_s": time.time()}, fh)

    def test_store_with_side_data_keeps_working(self, store_spec):
        spec = rounds_spec()
        cold = run_campaign(spec, store=store_spec)
        assert cold.executed == spec.size()
        configs = spec.configs()
        self._add_side_data(store_spec, config_key(configs[0]))

        with open_store(store_spec) as store:
            assert store.run_count() == spec.size()
            assert sorted(store.keys()) == sorted(map(config_key, configs))
            records = [store.load(cfg) for cfg in configs]
            assert all(record is not None for record in records)
            # a put under the claimed key lands like any other
            store.put(config_key(configs[0]), records[0])
            assert store.load(configs[0]) == records[0]
            warm = run_campaign(spec, store=store)
            assert (warm.executed, warm.cache_hits) == (0, spec.size())
            assert store.run_count() == spec.size()
        for metric in ("rounds", "moves"):
            assert warm.aggregate(metric) == cold.aggregate(metric)


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
        assert via_json.aggregate("rounds") == via_sql.aggregate("rounds")


# ----------------------------------------------------------------------
# The identity gate
# ----------------------------------------------------------------------
def _rebuild_gate(record: dict, config: ScenarioConfig):
    """The rebuild-and-compare identity gate applied to every record:
    ``checked_record``'s fallback, kept whole as the oracle its
    canonical fast path must agree with."""
    if record.get("schema") not in COMPATIBLE_SCHEMAS:
        return None
    if record.get("backend", "des") != config.backend:
        return None
    stored = record.get("config")
    if not isinstance(stored, dict):
        return None
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    if not set(stored) <= known:
        return None
    stored = {**_HASH_NEUTRAL_DEFAULTS, **stored}
    try:
        rebuilt = ScenarioConfig(**stored)
    except (TypeError, ValueError):
        return None
    if rebuilt != config:
        return None
    record["config"] = dataclasses.asdict(rebuilt)
    return record


def _verdict(gate, record: dict, config: ScenarioConfig) -> str:
    """A gate's outcome on a private copy of ``record``, as text: the
    repr tells int from float from bool, tuple from list and -0.0 from
    0.0, and an exception counts as an outcome too."""
    try:
        return repr(gate(copy.deepcopy(record), config))
    except Exception as exc:  # the oracle's own failures must match too
        return f"raised {type(exc).__name__}"


def _gate_bases(tmp_path) -> Dict[str, Tuple[ScenarioConfig, dict]]:
    """Records written by ``record_from`` across backends and axes, each
    with the config it was made from."""
    trace = tmp_path / "scen.json"
    trace.write_text(
        json.dumps([[[0.0, 30.0 * i + 10.0, 40.0]] for i in range(16)])
    )
    des = dict(protocol="flooding", n_nodes=8, group_size=3, sim_time=12.0)
    configs = {
        "des": ScenarioConfig.quick(**des),
        "des-model-params": ScenarioConfig.quick(
            mobility="gauss-markov",
            model_params={"gm_alpha": 0.7, "gm_sigma_speed": 1.0},
            **des,
        ),
        "rounds": rounds_base(protocol="ss-spst"),
        "rounds-trace": rounds_base(
            protocol="ss-spst",
            mobility="trace",
            model_params={"trace_file": str(trace)},
        ),
        "rounds-groups": rounds_base(protocol="ss-spst", group_count=2),
        "rounds-array": rounds_base(protocol="ss-spst-e", engine="array"),
        "rounds-sparse": rounds_base(protocol="ss-spst-t", topology="sparse"),
    }
    return {name: (cfg, _record_for(cfg)) for name, cfg in configs.items()}


def _edited(record: dict, **config_edits) -> dict:
    edited = copy.deepcopy(record)
    edited["config"].update(config_edits)
    return edited


def _v1_era(record: dict) -> dict:
    """The record as a writer that predates every hash-neutral field
    (and the ``backend`` key) would have stored it."""
    old = copy.deepcopy(record)
    old.pop("backend", None)
    for name in _HASH_NEUTRAL_DEFAULTS:
        old["config"].pop(name)
    return old


def _gate_cases(bases) -> List[Tuple[str, ScenarioConfig, dict]]:
    cases = []
    for name, (cfg, record) in bases.items():
        stored = json.loads(json.dumps(record))  # what a store hands back
        foreign = "rounds" if cfg.backend == "des" else "des"
        cases += [(name, cfg, record), (f"{name}/json", cfg, stored)]
        cases += [
            (f"{name}/schema-3", cfg, dict(stored, schema=3)),
            (f"{name}/no-schema", cfg,
             {k: v for k, v in stored.items() if k != "schema"}),
            (f"{name}/foreign", cfg, dict(stored, backend=foreign)),
            (f"{name}/future-field", cfg, _edited(stored, future_knob=1)),
            (f"{name}/collision", cfg, _edited(stored, seed=999)),
            (f"{name}/v1-era", cfg, _v1_era(stored)),
            (f"{name}/int-for-float", cfg, _edited(stored, arena_w=750)),
            (f"{name}/bool-for-int", cfg, _edited(stored, seed=True)),
            (f"{name}/negative-zero", cfg, _edited(stored, pause_time=-0.0)),
            (f"{name}/nan", cfg, _edited(stored, v_max=float("nan"))),
            (f"{name}/config-not-dict", cfg, dict(stored, config=[])),
        ]
        missing = copy.deepcopy(stored)
        del missing["config"]["alpha"]  # a core field, at its default
        cases.append((f"{name}/missing-core-field", cfg, missing))
    cfg, record = bases["des-model-params"]
    stored = json.loads(json.dumps(record))
    params = stored["config"]["model_params"]
    cases += [
        ("params/reordered", cfg,
         _edited(stored, model_params=params[::-1])),
        ("params/tuples", cfg,
         _edited(stored, model_params=[tuple(p) for p in params])),
        ("params/mapping", cfg, _edited(stored, model_params=dict(params))),
        ("params/int-for-float", cfg, _edited(
            stored, model_params=[["gm_alpha", 0.7], ["gm_sigma_speed", 1]]
        )),
        ("params/duplicate", cfg,
         _edited(stored, model_params=params + params[:1])),
        ("params/non-scalar", cfg,
         _edited(stored, model_params=[["gm_alpha", [1]]])),
        ("params/not-pairs", cfg, _edited(stored, model_params="gm")),
        ("params/not-iterable", cfg, _edited(stored, model_params=5)),
        ("params/dropped", cfg, _edited(stored, model_params=[])),
    ]
    return cases


class TestIdentityGate:
    def test_matches_the_rebuild_gate(self, tmp_path):
        """Same verdict and same returned record as the rebuild oracle,
        on records from every backend and axis and on hand edits."""
        cases = _gate_cases(_gate_bases(tmp_path))
        accepted = 0
        for name, cfg, record in cases:
            expected = _verdict(_rebuild_gate, record, cfg)
            assert _verdict(checked_record, record, cfg) == expected, name
            accepted += expected != "None"
        assert 0 < accepted < len(cases)

    def test_matches_the_rebuild_gate_field_by_field(self, tmp_path):
        """Every field of every base record replaced in turn by values
        of every JSON type (and ints for floats, floats for ints)."""
        pool = [
            0, 1, 4, 16, True, False, 0.0, -0.0, 1.0, 750.0, float("nan"),
            "", "des", "rounds", "dense", None, [], [["gm_alpha", 0.7]], {},
        ]
        for name, (cfg, record) in _gate_bases(tmp_path).items():
            stored = json.loads(json.dumps(record))
            for field, value in stored["config"].items():
                swaps = pool + [
                    float(value) if type(value) is int else value,
                    int(value)
                    if type(value) is float and value.is_integer()
                    else value,
                ]
                for other in swaps:
                    edited = _edited(stored, **{field: other})
                    assert _verdict(checked_record, edited, cfg) == _verdict(
                        _rebuild_gate, edited, cfg
                    ), (name, field, other)

    def test_own_records_take_the_fast_path(self, tmp_path, monkeypatch):
        """A stored record this code wrote is accepted without building
        a ScenarioConfig, including non-default axes and model params."""
        bases = _gate_bases(tmp_path)
        built = _count_calls(monkeypatch, ScenarioConfig, "__post_init__")
        for name, (cfg, record) in bases.items():
            stored = json.loads(json.dumps(record))
            checked = checked_record(stored, cfg)
            assert checked["config"] == record["config"], name
        assert built() == 0

    def test_hand_edits_fall_through_to_the_rebuild(
        self, tmp_path, monkeypatch
    ):
        """An int for a float is no canonical match: the rebuild gate
        decides (and, as before, accepts it)."""
        cfg, record = _gate_bases(tmp_path)["rounds"]
        edited = _edited(json.loads(json.dumps(record)), arena_w=750)
        built = _count_calls(monkeypatch, ScenarioConfig, "__post_init__")
        checked = checked_record(edited, cfg)
        assert repr(checked["config"]["arena_w"]) == "750"
        assert built() == 1


# ----------------------------------------------------------------------
# The warm read path
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name: str):
    """Wrap ``owner.name`` so calls are counted; returns the counter."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return lambda: len(calls)


class TestWarmReadPath:
    def test_one_config_and_no_asdict_per_stored_run(
        self, store_spec, monkeypatch
    ):
        """A warm campaign builds each config once (the spec grid's) and
        never deep-copies one: the record check and the rebuilt result
        both reuse the grid's config."""
        import repro.experiments.store as store_module

        spec = CampaignSpec.from_mapping(
            name="warm-guard",
            base=rounds_base(),
            protocols=("ss-spst", "ss-spst-e"),
            seeds=(1, 2),
            grid={"n_nodes": (12, 16), "daemon": ("central", "distributed")},
        )
        cold = run_campaign(spec, store=store_spec)
        assert cold.executed == spec.size()

        built = _count_calls(monkeypatch, ScenarioConfig, "__post_init__")
        copied = _count_calls(monkeypatch, dataclasses, "asdict")
        hashed = _count_calls(monkeypatch, store_module, "config_key")
        warm = run_campaign(spec, store=store_spec)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        assert (built(), copied(), hashed()) == (spec.size(), 0, spec.size())
        collected = collect_campaign(spec, store_spec)
        assert collected.cache_hits == spec.size()
        assert (built(), copied(), hashed()) == (
            2 * spec.size(), 0, 2 * spec.size()
        )
        for runs in (warm.results, collected.results):
            assert [r.config for r in runs] == spec.configs()
            for a, b in zip(cold.results, runs):
                assert a.summary == b.summary

    def test_cold_campaign_hashes_each_config_once(
        self, store_spec, monkeypatch
    ):
        import repro.experiments.store as store_module

        spec = rounds_spec()
        hashed = _count_calls(monkeypatch, store_module, "config_key")
        cold = run_campaign(spec, store=store_spec)
        assert cold.executed == spec.size()
        assert hashed() == spec.size()
        with open_store(store_spec) as store:
            assert sorted(store.keys()) == sorted(
                config_key(cfg) for cfg in spec.configs()
            )


# ----------------------------------------------------------------------
# Store ownership
# ----------------------------------------------------------------------
class TestStoreOwnership:
    @pytest.mark.parametrize(
        "entry", [run_campaign, collect_campaign]
    )
    def test_spec_strings_are_closed_and_objects_left_open(
        self, tmp_path, monkeypatch, entry
    ):
        spec = rounds_spec()
        path = tmp_path / "results.sqlite"
        run_campaign(spec, store=f"sqlite:{path}")
        closed = _count_calls(monkeypatch, SqliteStore, "close")

        entry(spec, store=f"sqlite:{path}")
        assert closed() == 1  # opened from the spec string, closed after

        owned = SqliteStore(str(path))
        entry(spec, store=owned)
        assert closed() == 1  # the caller's store stays open ...
        assert owned.run_count() == spec.size()  # ... and usable
        owned.close()


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
            assert reference.aggregate(metric) == warm.aggregate(metric)

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


def _open_and_put_child(args) -> list:
    """Child-process body: open one shared fresh SQLite store at an
    agreed instant, then put this worker's own keys; returns them."""
    path, keys, start_at = args
    time.sleep(max(0.0, start_at - time.time()))
    with open_store(f"sqlite:{path}") as store:
        for key in keys:
            store.put(key, {"schema": 2, "backend": "rounds", "key": key})
    return keys


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
            assert assembled.aggregate(metric) == serial.aggregate(metric)

    def test_sqlite_open_and_put_stress(self, tmp_path):
        """More workers than cores open one fresh store together and each
        puts its own keys: every open succeeds (the WAL switch waits for
        the exclusive lock) and no write is lost."""
        workers = 6  # more than the cores of a laptop or CI runner
        keys = [[f"w{w}-k{i}" for i in range(40)] for w in range(workers)]
        path = tmp_path / "shared.sqlite"
        start_at = time.time() + 3.0
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers) as pool:
            written = pool.map_async(
                _open_and_put_child,
                [(path, own, start_at) for own in keys],
            ).get(timeout=120)
        assert written == keys  # every worker's open and puts succeeded
        with open_store(f"sqlite:{path}") as store:
            assert store.run_count() == workers * 40

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
        assert assembled.aggregate("rounds") == serial.aggregate("rounds")
