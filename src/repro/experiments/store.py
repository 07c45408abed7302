"""Result stores: pluggable persistence for campaign run records.

This module is the **store layer** of the campaign service (see
``docs/campaigns.md``).  It owns two things the rest of the experiment
stack builds on:

* **Run identity** — :func:`config_key` (the stable content hash of a
  :class:`~repro.experiments.config.ScenarioConfig`), the cache schema
  constants, and :func:`shard_of` (the deterministic config-hash shard
  partition).  These are byte-for-byte the pre-refactor definitions: a
  cache dir written by any earlier version keeps hitting, and ``--shard
  I/K`` assigns every run to the same machine it always did.
* **The** :class:`ResultStore` **protocol** and its two backends —
  :class:`JsonDirStore` (one ``<hash>.json`` file per run, the historical
  layout) and :class:`SqliteStore` (one row per run in an append-only
  SQLite table indexed by config hash + schema version, WAL journaling,
  batched writes).  :func:`migrate_json_dir` ingests a v1/v2 JSON cache
  dir into any other store losslessly.

Both stores expose the same lookup semantics: unreadable, stale-schema,
foreign-backend or hand-edited records are *misses*, never errors, so a
corrupt store can never fail a campaign.  Writes are idempotent per key,
so ``--shard`` processes racing on one store never lose or double a
record.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import operator
import os
import sqlite3
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.experiments.config import ScenarioConfig, _normalize_model_params

#: record-layout version written to new cache files.  v2 added the
#: optional ``backend`` key (absent = "des"); loading still accepts every
#: version in ``COMPATIBLE_SCHEMAS`` and tolerates records that lack
#: later-added summary/diagnostic fields, so old caches keep hitting.
CACHE_SCHEMA = 2

#: record versions the loader accepts; files outside this set are
#: treated as cache misses, never errors.
COMPATIBLE_SCHEMAS = (1, 2)

#: version prefix of the *config hash* — deliberately decoupled from
#: ``CACHE_SCHEMA`` (bumping the record layout must not re-key every
#: cached run; bump this only when run *semantics* change).
HASH_SCHEMA = 1

#: leftover ``*.tmp.*`` files older than this are swept on store open (a
#: killed writer's debris; the atomic-replace discipline means they were
#: never visible as records)
STALE_TMP_S = 3600.0


# ----------------------------------------------------------------------
# Config identity
# ----------------------------------------------------------------------
#: the always-hashed ScenarioConfig fields — the paper's original
#: scenario surface, hashed since the first cache existed.  Together
#: with ``_HASH_NEUTRAL_DEFAULTS`` below this is the machine-readable
#: hash contract: every dataclass field must appear in exactly one of
#: the two tables.  ``repro.lint`` enforces that statically (rules
#: H201-H203), :func:`hash_participation` enforces it at runtime (the
#: campaign ``--dry-run`` prints the same view), so the static and
#: runtime pictures of "what forks a cache cell" can never drift.
CORE_HASH_FIELDS: Tuple[str, ...] = (
    "protocol",
    "n_nodes",
    "arena_w",
    "arena_h",
    "v_min",
    "v_max",
    "pause_time",
    "group_size",
    "max_range",
    "e_elec",
    "e_rx",
    "eps_amp",
    "alpha",
    "bitrate_bps",
    "loss_prob",
    "capture_threshold",
    "beacon_interval",
    "rate_kbps",
    "packet_bytes",
    "traffic_start",
    "sim_time",
    "availability_probe_interval",
    "seed",
)

#: fields added to ScenarioConfig *after* caches existed in the wild,
#: mapped to the behavior-neutral default they were introduced with.  At
#: that default the field is dropped from the hash payload (and patched
#: into stored records on load), so every pre-existing cache entry — and
#: every campaign hash — stays valid; only non-default values fork new
#: cache cells.
_HASH_NEUTRAL_DEFAULTS: Dict[str, object] = {
    "daemon": "distributed",
    "backend": "des",
    # scenario-model axes (PR 5): the paper's scenario is the default on
    # every axis, so default configs keep their pre-model-API hashes
    "placement": "uniform",
    "mobility": "waypoint",
    "membership": "static-random",
    "traffic": "cbr",
    "model_params": (),
    "daemon_k": 4,
    "density_ref_n": 0,
    # rounds-engine implementation (PR 6): bit-identical trajectories by
    # contract, so the axis never changes results — only "array" forks a
    # cell (useful to benchmark cache-cold, not to distinguish outputs)
    "engine": "object",
    # topology representation (PR 8): hash-neutral at "dense"; "sparse"
    # forks a cell because CSR edge discovery rounds near-coincident
    # pair distances differently than the dense matrix identity
    "topology": "dense",
    # multi-group multicast (PR 10): one group is the paper's scenario
    # and bit-identical to the pre-groups code by construction (extra
    # groups draw from their own substreams), so a single-group config
    # keeps its historical hash on every axis value combination below
    "group_count": 1,
    "group_size_model": "fixed",
    "overlap_model": "independent",
}


#: every ScenarioConfig field name, in declaration order
CONFIG_FIELD_NAMES: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ScenarioConfig)
)

_config_values = operator.attrgetter(*CONFIG_FIELD_NAMES)


def hash_participation() -> Tuple[Tuple[str, ...], Dict[str, object]]:
    """The hash contract as ``(hashed fields, neutral field -> default)``.

    Derived from the dataclass itself and cross-checked against the
    literal :data:`CORE_HASH_FIELDS` table — the same table
    ``repro.lint`` reads statically — raising ``RuntimeError`` on any
    drift, so a runtime consumer (the campaign ``--dry-run`` plan) can
    never show a different participation picture than the linter.
    """
    hashed = tuple(
        name for name in CONFIG_FIELD_NAMES
        if name not in _HASH_NEUTRAL_DEFAULTS
    )
    if set(hashed) != set(CORE_HASH_FIELDS) or any(
        name not in CONFIG_FIELD_NAMES for name in _HASH_NEUTRAL_DEFAULTS
    ):
        raise RuntimeError(
            "hash contract drift: CORE_HASH_FIELDS/_HASH_NEUTRAL_DEFAULTS "
            "do not partition the ScenarioConfig fields — run "
            "`python -m repro.lint src/repro` for the field-level report"
        )
    return hashed, dict(_HASH_NEUTRAL_DEFAULTS)


def config_fields(config: ScenarioConfig) -> Dict[str, object]:
    """Every field of ``config`` by name, in declaration order.

    A plain read of the frozen config: every value is an immutable
    scalar or, for ``model_params``, a tuple of scalar pairs, so this is
    ``dataclasses.asdict`` without its recursive deep copy — equal to
    it, and with byte-identical JSON.  It is the payload behind both the
    config hash and the ``config`` section of a run record.
    """
    return dict(zip(CONFIG_FIELD_NAMES, _config_values(config)))


def _hash_payload(config: ScenarioConfig) -> Dict[str, object]:
    payload = {
        name: value
        for name, value in config_fields(config).items()
        if name not in _HASH_NEUTRAL_DEFAULTS
        or value != _HASH_NEUTRAL_DEFAULTS[name]
    }
    # External scenario inputs (the trace file) join the identity by
    # *content*: editing the file must fork the cache key, not serve
    # stale results computed from the old trajectories.
    from repro.experiments.scenario_models import scenario_content_fingerprint

    fingerprint = scenario_content_fingerprint(config)
    if fingerprint is not None:
        payload["scenario_content"] = fingerprint
    return payload


def config_key(config: ScenarioConfig) -> str:
    """Stable content hash of a scenario config.

    Canonical JSON (sorted keys, exact float repr) of every dataclass
    field, prefixed with the cache schema version.  Two configs collide
    iff they are field-for-field identical, so the hash is a safe cache
    key across processes and sessions.  Later-added fields are dropped at
    their defaults (see ``_HASH_NEUTRAL_DEFAULTS``) so old caches keep
    hitting.
    """
    payload = json.dumps(
        _hash_payload(config), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(
        f"v{HASH_SCHEMA}:{payload}".encode("utf-8")
    ).hexdigest()
    return digest[:24]


def shard_of(
    config: ScenarioConfig, n_shards: int, key: Optional[str] = None
) -> int:
    """Deterministic shard assignment by config hash.

    Stable across machines and campaign compositions (it depends on the
    run's identity alone), so K workers pointing ``--shard i/K`` at one
    shared store partition any campaign without coordination.  ``key``
    is ``config_key(config)`` when the caller already holds it.
    """
    return int(key or config_key(config), 16) % n_shards


# ----------------------------------------------------------------------
# Persistent per-run records
# ----------------------------------------------------------------------
def record_from_result(result: object, elapsed_s: float = 0.0) -> dict:
    """JSON-safe record of one finished run (any backend)."""
    from repro.experiments.backends import backend_by_name

    backend = backend_by_name(getattr(result.config, "backend", "des"))
    return backend.record_from(result, elapsed_s=elapsed_s)


def result_from_record(
    record: dict, config: Optional[ScenarioConfig] = None
) -> object:
    """Rebuild the result a record was made from (any backend, any era).

    Dispatches on the record's ``backend`` key (absent in v1 records,
    meaning DES) and tolerates records that lack later-added summary or
    diagnostic fields — a v1 cache written before those fields existed
    keeps loading unchanged.  ``config``, when given, is the validated
    config the record was checked against; the result carries it instead
    of a config rebuilt from the record.
    """
    from repro.experiments.backends import backend_by_name

    return backend_by_name(record.get("backend", "des")).result_from_record(
        record, config
    )


def _canonical_config(
    stored: Dict[str, object], live: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """``stored`` in canonical form when it is type-for-type ``live``.

    ``stored`` is a record's config section with the hash-neutral
    defaults filled in; ``live`` is :func:`config_fields` of the config
    it claims to describe.  Every field must be present, equal and of
    the same type (``model_params`` after normalization, so the JSON
    ``[]`` compares as the ``()`` default), which means rebuilding a
    config from ``stored`` would succeed and compare equal.  Returns the
    stored values in field order with ``model_params`` normalized (what
    that rebuild's field read would give), or ``None`` when only the
    rebuild can decide: a missing or int-for-float field, a NaN, a
    malformed ``model_params``.
    """
    try:
        canonical = {name: stored[name] for name in live}
        canonical["model_params"] = _normalize_model_params(
            canonical["model_params"]
        )
    except (KeyError, TypeError, ValueError):
        return None
    if canonical != live or list(map(type, canonical.values())) != list(
        map(type, live.values())
    ):
        return None
    params = live["model_params"]
    if params and [type(v) for _, v in canonical["model_params"]] != [
        type(v) for _, v in params
    ]:
        return None
    return canonical


def checked_record(record: dict, config: ScenarioConfig) -> Optional[dict]:
    """Validate a raw record against the config it claims to describe.

    Returns the record (with its config section normalized) when it is a
    compatible-era, same-backend, field-for-field match; ``None``
    otherwise.  This is the single identity gate both store backends
    apply on load, so a hand-moved file or a hash collision can never
    impersonate another run.

    A record this code wrote matches the live config type for type and
    is accepted without building a config (see :func:`_canonical_config`).
    Anything else — a hand-edited or older-era record — goes through the
    rebuild-and-compare gate, which alone decides.
    """
    if record.get("schema") not in COMPATIBLE_SCHEMAS:
        return None
    if record.get("backend", "des") != config.backend:
        return None  # a foreign backend's record cannot impersonate
    stored = record.get("config")
    if not isinstance(stored, dict):
        return None
    if stored.keys() - CONFIG_FIELD_NAMES:
        return None  # a future era's record cannot impersonate
    # Records written before a hash-neutral field existed lack it; they
    # describe the default behavior by construction.
    stored = {**_HASH_NEUTRAL_DEFAULTS, **stored}
    canonical = _canonical_config(stored, config_fields(config))
    if canonical is not None:
        record["config"] = canonical
        return record
    # Rebuilding the config normalizes JSON artifacts (model_params
    # round-trips as lists of lists) before the identity comparison.
    try:
        rebuilt = ScenarioConfig(**stored)
    except (TypeError, ValueError):
        return None  # unconstructible record (hand-edited file)
    if rebuilt != config:
        return None  # hash collision or hand-edited file
    record["config"] = config_fields(rebuilt)
    return record


# ----------------------------------------------------------------------
# The store protocol
# ----------------------------------------------------------------------
class ResultStore(abc.ABC):
    """One way of persisting campaign run records.

    The primitive write is :meth:`put` — append one record under an
    explicit key (idempotent: a concurrent duplicate write of the same
    run resolves to one record, which is what makes racing shards safe).
    :meth:`store`/:meth:`load` are the config-addressed convenience
    layer on top; a campaign, which has each run's key from its lookup,
    passes it to :meth:`load` and writes the finished run with
    :meth:`put` under the same key.
    """

    name: str = "?"

    # -- records -------------------------------------------------------
    @abc.abstractmethod
    def put(self, key: str, record: dict) -> str:
        """Persist ``record`` under ``key``; returns its location."""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[dict]:
        """The raw record stored under ``key``, or None (no validation)."""

    def store(self, config: ScenarioConfig, record: dict) -> str:
        """Persist a finished run's record, keyed by its config hash."""
        return self.put(config_key(config), record)

    def load(
        self, config: ScenarioConfig, key: Optional[str] = None
    ) -> Optional[dict]:
        """The cached record for ``config``, or None.

        ``key`` is ``config_key(config)`` when the caller already has it.
        Unreadable/stale/foreign records are misses: the run is simply
        redone (and the record rewritten), so a corrupt store can never
        fail a campaign.
        """
        record = self.get(config_key(config) if key is None else key)
        if record is None:
            return None
        return checked_record(record, config)

    def put_many(self, items: Iterable[Tuple[str, dict]]) -> int:
        """Batched append; returns the number of records written."""
        count = 0
        for key, record in items:
            self.put(key, record)
            count += 1
        return count

    def keys(self) -> List[str]:
        """Every record key present (unvalidated)."""
        raise NotImplementedError

    def run_count(self) -> int:
        return len(self.keys())

    def flush(self) -> None:
        """Make every buffered write durable."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# JSON directory store (the historical cache layout)
# ----------------------------------------------------------------------
class JsonDirStore(ResultStore):
    """Directory of ``<config_key>.json`` run records.

    One key-sorted JSON file per run, named by its config hash, in a
    flat directory: every record a pre-refactor campaign wrote keeps
    hitting, and every record this store writes is loadable by
    pre-refactor code.  Writes are crash-safe: the record lands in a tempfile that is fsynced and then
    atomically renamed into place, so a killed campaign can leave
    debris ``*.tmp.*`` files (swept on the next open) but never a
    truncated record that would silently demote to a cache miss.
    """

    name = "json"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._sweep_stale_tmps()

    def _sweep_stale_tmps(self) -> None:
        now = time.time()
        try:
            entries = os.listdir(self.root)
        except OSError:
            return
        for name in entries:
            if ".tmp." not in name:
                continue
            path = os.path.join(self.root, name)
            try:
                if now - os.path.getmtime(path) > STALE_TMP_S:
                    os.unlink(path)
            except OSError:
                pass  # another process swept it first

    # -- records -------------------------------------------------------
    def key_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def path(self, config: ScenarioConfig) -> str:
        return self.key_path(config_key(config))

    def put(self, key: str, record: dict) -> str:
        path = self.key_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())  # durable before it becomes visible
        os.replace(tmp, path)
        return path

    def get(self, key: str) -> Optional[dict]:
        try:
            with open(self.key_path(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def keys(self) -> List[str]:
        return [
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        ]


# ----------------------------------------------------------------------
# SQLite columnar store
# ----------------------------------------------------------------------
class SqliteStore(ResultStore):
    """Append-only SQLite store: one row per run record.

    Built for campaigns with millions of records, where a
    file-per-run directory stops scaling (directory scans, inode
    pressure, no indexed lookup):

    * rows live in a single ``runs`` table with ``(key, schema)`` as the
      primary key — point lookup by config hash is an index probe;
    * hot columns (backend, protocol, seed, elapsed) are split out for
      SQL-side slicing while the full record round-trips losslessly in a
      JSON column, so every consumer of the JSON layout sees identical
      contents;
    * WAL journaling + ``synchronous=NORMAL``: concurrent readers never
      block the writer, and a mid-write kill can never leave a torn row
      (the satellite discipline of the JSON store, provided by the
      engine);
    * writes are batched: ``batch_size`` records per transaction (the
      default of 1 keeps the campaign's lose-at-most-in-flight resume
      guarantee; migration and bulk ingest pass something larger or use
      :meth:`put_many`, one transaction for the whole batch).

    Records are schema-versioned exactly like the JSON layout, and
    ``INSERT OR REPLACE`` on the key makes concurrent duplicate writes
    (racing shards) collapse to one row.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str,
        batch_size: int = 1,
        timeout_s: float = 30.0,
    ) -> None:
        self.path = path
        self.batch_size = max(1, int(batch_size))
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path, timeout=timeout_s)
        self._enable_wal(timeout_s)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:  # one transaction for the schema
            self._conn.execute(
                """CREATE TABLE IF NOT EXISTS runs (
                       key TEXT NOT NULL,
                       schema INTEGER NOT NULL,
                       backend TEXT NOT NULL,
                       protocol TEXT,
                       seed INTEGER,
                       elapsed_s REAL,
                       record TEXT NOT NULL,
                       created_s REAL NOT NULL,
                       PRIMARY KEY (key, schema)
                   )"""
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_by_backend "
                "ON runs (backend, protocol)"
            )
        self._pending: List[Tuple[str, dict]] = []

    def _enable_wal(self, timeout_s: float) -> None:
        """Switch the file to WAL, retrying while another opener holds it.

        Switching a file to WAL needs an exclusive lock, and SQLite fails
        that switch at once with ``database is locked`` instead of
        waiting in the busy handler.  Workers that open one fresh store
        together therefore race here; the loser retries with backoff
        for up to the connect timeout.
        """
        deadline = time.monotonic() + timeout_s
        delay = 0.001
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    # -- records -------------------------------------------------------
    @staticmethod
    def _row(key: str, record: dict) -> Tuple:
        config = record.get("config") or {}
        return (
            key,
            int(record.get("schema", 0)),
            record.get("backend", "des"),
            config.get("protocol"),
            config.get("seed"),
            record.get("elapsed_s"),
            json.dumps(record, sort_keys=True),
            time.time(),
        )

    def put(self, key: str, record: dict) -> str:
        self._pending.append((key, record))
        if len(self._pending) >= self.batch_size:
            self.flush()
        return f"{self.path}#{key}"

    def put_many(self, items: Iterable[Tuple[str, dict]]) -> int:
        self.flush()
        rows = [self._row(key, record) for key, record in items]
        self._write_rows(rows)
        return len(rows)

    def _write_rows(self, rows: List[Tuple]) -> None:
        if not rows:
            return
        with self._conn:  # one transaction per batch
            self._conn.executemany(
                "INSERT OR REPLACE INTO runs "
                "(key, schema, backend, protocol, seed, elapsed_s, record, "
                "created_s) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def flush(self) -> None:
        pending, self._pending = self._pending, []
        self._write_rows([self._row(k, r) for k, r in pending])

    def get(self, key: str) -> Optional[dict]:
        self.flush()
        # newest *loadable* layout wins when several schema eras coexist:
        # a row written by some future schema must not shadow a record
        # this version can still read
        marks = ",".join("?" * len(COMPATIBLE_SCHEMAS))
        rows = self._conn.execute(
            f"SELECT record FROM runs WHERE key = ? ORDER BY "
            f"(schema IN ({marks})) DESC, schema DESC",
            (key, *COMPATIBLE_SCHEMAS),
        ).fetchall()
        for (raw,) in rows:
            try:
                return json.loads(raw)
            except ValueError:
                continue
        return None

    def keys(self) -> List[str]:
        self.flush()
        return [
            key
            for (key,) in self._conn.execute(
                "SELECT DISTINCT key FROM runs"
            ).fetchall()
        ]

    def run_count(self) -> int:
        self.flush()
        (count,) = self._conn.execute(
            "SELECT COUNT(DISTINCT key) FROM runs"
        ).fetchone()
        return int(count)

    def close(self) -> None:
        self.flush()
        self._conn.close()


# ----------------------------------------------------------------------
# Store resolution
# ----------------------------------------------------------------------
#: suffixes that make a bare path mean "SQLite file", not "JSON dir"
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_store(spec: Union[str, ResultStore]) -> ResultStore:
    """Resolve a store spec into a live store.

    ``spec`` may already be a :class:`ResultStore` (returned as is), or a
    string: ``json:DIR`` / ``sqlite:PATH`` explicit forms, a path ending
    in ``.sqlite``/``.sqlite3``/``.db`` (SQLite), or any other path (a
    JSON record dir of ``<config_key>.json`` files).
    """
    if isinstance(spec, ResultStore):
        return spec
    if spec.startswith("json:"):
        return JsonDirStore(spec[len("json:"):])
    if spec.startswith("sqlite:"):
        return SqliteStore(spec[len("sqlite:"):])
    if spec.endswith(_SQLITE_SUFFIXES):
        return SqliteStore(spec)
    return JsonDirStore(spec)


def store_location(spec: Union[str, ResultStore]) -> str:
    """The filesystem path behind a store spec (without opening it)."""
    if isinstance(spec, JsonDirStore):
        return spec.root
    if isinstance(spec, SqliteStore):
        return spec.path
    if isinstance(spec, str):
        for prefix in ("json:", "sqlite:"):
            if spec.startswith(prefix):
                return spec[len(prefix):]
        return spec
    raise TypeError(f"not a store spec: {spec!r}")


def probe_store(spec: Union[str, ResultStore]) -> Optional[ResultStore]:
    """Open a store only if its backing location already exists.

    Dry runs probe the warm-cache state through this, so planning never
    creates directories or database files as a side effect.
    """
    if isinstance(spec, ResultStore):
        return spec
    return open_store(spec) if os.path.exists(store_location(spec)) else None


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def migrate_json_dir(
    src_root: str,
    dest: Union[str, ResultStore],
    batch_size: int = 256,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Tuple[int, int]:
    """Ingest a v1/v2 ``<hash>.json`` cache dir into another store.

    Records are copied **losslessly**: the destination receives every
    field of every parseable record under its original key (the filename
    stem — the config hash computed when the record was written), keeping
    its own schema version.  Files that do not parse as records are
    skipped and counted, never fatal.  Returns ``(migrated, skipped)``.
    """
    store = open_store(dest)
    if isinstance(store, SqliteStore):
        store.batch_size = max(store.batch_size, batch_size)
    migrated = skipped = 0
    batch: List[Tuple[str, dict]] = []

    def _drain() -> None:
        nonlocal migrated
        migrated += store.put_many(batch)
        batch.clear()

    for name in sorted(os.listdir(src_root)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(src_root, name)
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            skipped += 1
            continue
        if not isinstance(record, dict) or "schema" not in record:
            skipped += 1
            continue
        batch.append((name[: -len(".json")], record))
        if len(batch) >= batch_size:
            _drain()
            if progress:
                progress(f"migrated {migrated} records...")
    _drain()
    store.flush()
    return migrated, skipped
