"""Experiment campaigns: declarative grids over pluggable layers.

The paper's evaluation (section 6) is a grid of scenarios — protocols ×
parameter values × seed replications.  A :class:`CampaignSpec` declares
such a grid once; :func:`run_campaign` executes it through three
pluggable layers (see ``docs/campaigns.md`` for the architecture and
operations guide):

* a **result store** (:mod:`repro.experiments.store`) — a JSON record
  dir (one ``<config_key>.json`` file per run) or the SQLite columnar
  store — keyed by a stable hash of the full
  :class:`~repro.experiments.config.ScenarioConfig`, so re-running a
  campaign (or a different campaign sharing cells) only executes the
  missing runs and an interrupted campaign resumes where it stopped;
* a **scheduler** (:mod:`repro.experiments.scheduler`) — serial, the
  multiprocessing pool, or the asyncio work-stealing queue with worker
  heartbeats and graceful cancel;
* **streaming aggregation** (:mod:`repro.experiments.aggregation`) —
  per-cell running mean ± Student-t CI (Welford) updated as records
  land, so ``status`` renders tables for campaigns still in flight.

Each run executes on the config's **experiment backend**
(:mod:`repro.experiments.backends`): ``des`` — the packet-level
simulator — or ``rounds`` — the round-model stabilization engine, orders
of magnitude faster per run.  ``backend`` is an ordinary config field,
so it sweeps like any grid axis.

Command line (``submit``/``status``/``results``/``migrate`` verbs; an
argv without a verb is an alias of ``submit``)::

    PYTHONPATH=src python -m repro.experiments.campaign \
        --protocols ss-spst,ss-spst-e --grid v_max=1,5,10 \
        --seeds 1,2,3 --workers 4 --store campaign.sqlite

    PYTHONPATH=src python -m repro.experiments.campaign status \
        --figure figd02 --store campaign.sqlite

Distributed campaigns: ``--shard I/K`` executes only a deterministic
config-hash partition of the runs, so K machines sharing a store split
one campaign without coordination (see
:func:`~repro.experiments.store.shard_of`); ``--steal`` additionally
claims and runs other shards' leftovers once the own share is in.  A
final un-sharded invocation assembles everything from the store.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
import typing
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.backends import (
    backend_by_name,
    default_metrics,
    metric_extractor,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import RunResult
from repro.experiments.store import (
    CACHE_SCHEMA,
    config_key,
    migrate_json_dir,
    open_store,
    probe_store,
    result_from_record,
    shard_of,
    store_location,
)
from repro.experiments.scheduler import (
    SCHEDULER_NAMES,
    CancelCampaign,
    PoolScheduler,
    Scheduler,
    scheduler_by_name,
    worker_id,
)
from repro.experiments.aggregation import (
    StreamingAggregate,
    campaign_status,
)

# ----------------------------------------------------------------------
# Campaign spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """A declarative protocol/parameter grid with seed replications.

    ``grid`` is an ordered tuple of ``(field_name, values)`` pairs; the
    campaign runs the cartesian product of all grid axes × protocols ×
    seeds on top of ``base``.
    """

    name: str
    base: ScenarioConfig
    protocols: Tuple[str, ...]
    seeds: Tuple[int, ...]
    grid: Tuple[Tuple[str, Tuple], ...] = ()

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError("a campaign needs at least one protocol")
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        for name, values in self.grid:
            if name not in ScenarioConfig.__dataclass_fields__:
                raise ValueError(f"unknown ScenarioConfig field {name!r}")
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")

    @classmethod
    def from_mapping(
        cls,
        name: str,
        base: ScenarioConfig,
        protocols: Sequence[str],
        seeds: Sequence[int],
        grid: Optional[Dict[str, Sequence]] = None,
    ) -> "CampaignSpec":
        return cls(
            name=name,
            base=base,
            protocols=tuple(protocols),
            seeds=tuple(int(s) for s in seeds),
            grid=tuple((k, tuple(v)) for k, v in (grid or {}).items()),
        )

    # ------------------------------------------------------------------
    def points(self) -> List[Dict[str, object]]:
        """The grid points (field -> value dicts), in declaration order."""
        if not self.grid:
            return [{}]
        axes = [[(name, v) for v in values] for name, values in self.grid]
        return [dict(combo) for combo in itertools.product(*axes)]

    def cells(self) -> List[Tuple[str, Dict[str, object]]]:
        """(protocol, grid point) pairs — one aggregation cell each."""
        return [(p, pt) for pt in self.points() for p in self.protocols]

    def configs(self) -> List[ScenarioConfig]:
        """Every run of the campaign: cells × seeds."""
        out = []
        for proto, point in self.cells():
            for seed in self.seeds:
                out.append(
                    self.base.replace(protocol=proto, seed=seed, **point)
                )
        return out

    def size(self) -> int:
        return len(self.protocols) * len(self.seeds) * len(self.points())

    def backends(self) -> Tuple[str, ...]:
        """The experiment backends this campaign spans.

        The base config's backend, unless ``backend`` is a grid axis —
        then every cell's backend comes from the axis values.
        """
        for name, values in self.grid:
            if name == "backend":
                return tuple(dict.fromkeys(values))
        return (self.base.backend,)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute(config: ScenarioConfig) -> dict:
    """Worker-side: run one config on its backend, return its record."""
    backend = backend_by_name(config.backend)
    t0 = time.perf_counter()
    result = backend.run(config)
    return backend.record_from(result, elapsed_s=time.perf_counter() - t0)


@dataclass
class CampaignResult:
    """All runs of a campaign plus cache accounting.

    ``results`` is aligned with ``spec.configs()``; entries are ``None``
    for runs outside this invocation's shard that no store could supply
    (``skipped`` counts them) — and, on a cancelled campaign, for runs
    that never got to execute.  Aggregation works over whatever is
    present, so a shard (or a cancelled run) still prints its partial
    table.
    """

    spec: CampaignSpec
    results: List[Optional[RunResult]]  # aligned with spec.configs()
    executed: int = 0
    cache_hits: int = 0  # store hits
    skipped: int = 0  # out-of-shard runs left to other machines
    stolen: int = 0  # foreign-shard runs claimed and executed here
    cancelled: bool = False  # a CancelCampaign stopped dispatch early
    elapsed_s: float = 0.0
    stream: Optional[StreamingAggregate] = None  # live per-cell mean/CI

    # ------------------------------------------------------------------
    def by_cell(self) -> Dict[Tuple[str, Tuple], List[RunResult]]:
        """Available seed replications grouped per (protocol, grid point)
        cell.

        The point is keyed by its ``(field, value)`` tuple so cells stay
        hashable; iteration order follows the spec.  Skipped
        (out-of-shard, unstored) runs are absent from the lists.
        """
        out: Dict[Tuple[str, Tuple], List[RunResult]] = {}
        i = 0
        for proto, point in self.spec.cells():
            key = (proto, tuple(point.items()))
            chunk = self.results[i : i + len(self.spec.seeds)]
            out[key] = [r for r in chunk if r is not None]
            i += len(self.spec.seeds)
        return out

    def aggregate(
        self, extract: Callable[[RunResult], float], confidence: float = 0.95
    ):
        """Per-cell mean ± CI of an extracted quantity.

        Returns ``{(protocol, point_items): CiSummary}`` — the campaign
        counterpart of :func:`repro.analysis.stats.sweep_cis`.  Cells with
        no available runs (a foreign shard's share) are omitted.
        """
        # Imported lazily: analysis.stats imports sweeps for typing, and
        # sweeps runs through this module.
        from repro.analysis.stats import mean_ci

        return {
            key: mean_ci([extract(r) for r in runs], confidence)
            for key, runs in self.by_cell().items()
            if runs
        }

    def extractor(self, metric: str) -> Callable:
        """The backend-dispatching extractor for a metric name.

        Resolved against every backend the campaign spans (see
        :func:`repro.experiments.backends.metric_extractor`), so the same
        name works over DES runs, rounds runs, or a mix.
        """
        return metric_extractor(metric, self.spec.backends())

    def format_table(self, metrics: Sequence[str] = ("pdr",)) -> str:
        """Aggregate table: one row per cell, mean ± CI per metric."""
        rows = []
        counts = {key: len(runs) for key, runs in self.by_cell().items()}
        labels = {key: cell_label(key[1]) for key in counts}
        width = max([24] + [len(v) for v in labels.values()])
        header = f"{'protocol':>12s} {'grid point':>{width}s} {'n':>3s}"
        for m in metrics:
            header += f" {m:>24s}"
        rows.append(header)
        aggs = [self.aggregate(self.extractor(m)) for m in metrics]
        for key in aggs[0] if aggs else []:
            proto, point = key
            row = f"{proto:>12s} {labels[key]:>{width}s} {counts[key]:>3d}"
            for agg in aggs:
                ci = agg[key]
                hw = f"±{ci.half_width:.4f}" if ci.half_width == ci.half_width else "±nan"
                row += f" {ci.mean:>12.4f} {hw:>11s}"
            rows.append(row)
        return "\n".join(rows)


def cell_label(point_items: Iterable[Tuple[str, object]]) -> str:
    """Human-readable grid-point label (``k=v,...`` or ``-``), shared by
    the aggregate table and the JSON campaign record."""
    return ",".join(f"{k}={v}" for k, v in point_items) or "-"


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    shard: Optional[Tuple[int, int]] = None,
    store=None,
    scheduler: Optional[Scheduler] = None,
    steal: bool = False,
    stream_metrics: Optional[Sequence[str]] = None,
    on_update: Optional[Callable[[StreamingAggregate], None]] = None,
) -> CampaignResult:
    """Execute a campaign, reusing every result that is already known.

    Lookup order per run: the result store → execute.  Pending runs go
    to the ``scheduler`` (default: the multiprocessing pool when
    ``workers > 1``); each finished record is written to the store as it
    arrives, so interrupting the campaign loses at most the in-flight
    runs.

    ``store`` is a :class:`~repro.experiments.store.ResultStore` or a
    spec string (``json:DIR``, ``sqlite:PATH``, or a bare path — a
    ``.sqlite``/``.db`` file or else a JSON record dir).

    ``shard=(i, k)`` distributes one campaign over ``k`` machines
    sharing a store: runs are partitioned deterministically by config
    hash (:func:`~repro.experiments.store.shard_of`) and only shard
    ``i``'s share is *executed* here — foreign-shard runs are still
    served from the store when available (so overlapping or repeated
    shard invocations resume cleanly), and are otherwise reported as
    ``skipped``.  With ``steal=True`` this invocation instead *claims*
    foreign leftovers through the store and runs them after its own
    share (claims expire if the claimant dies; records are idempotent
    per key, so a duplicate run can never double-count).  After every
    shard has run, a final un-sharded invocation against the shared
    store assembles the full campaign without executing anything.

    Streaming aggregation runs alongside: ``result.stream`` holds the
    per-cell running mean/CI over every landed run, and ``on_update``
    (called after each executed record) may watch it — or raise
    :class:`~repro.experiments.scheduler.CancelCampaign` to stop the
    campaign gracefully, which returns the partial result marked
    ``cancelled`` with everything so far persisted.
    """
    if shard is not None:
        index, count = shard
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < count:
            raise ValueError(
                f"shard index {index} out of range for {count} shard"
                f"{'s' if count != 1 else ''} (need 0 <= i < k)"
            )
    t0 = time.perf_counter()
    configs = spec.configs()
    result_store = open_store(store) if store is not None else None
    stream = StreamingAggregate(
        spec,
        stream_metrics
        if stream_metrics is not None
        else default_metrics(spec.backends()),
    )

    results: List[Optional[RunResult]] = [None] * len(configs)
    pending: List[Tuple[int, ScenarioConfig]] = []
    stolen_jobs: List[Tuple[int, ScenarioConfig]] = []
    cache_hits = skipped = 0
    me = worker_id()

    for i, cfg in enumerate(configs):
        record = result_store.load(cfg) if result_store is not None else None
        if record is not None:
            results[i] = result_from_record(record)
            cache_hits += 1
            stream.update(i, results[i])
            continue
        if shard is not None and shard_of(cfg, shard[1]) != shard[0]:
            if (
                steal
                and result_store is not None
                and result_store.claim(config_key(cfg), me)
            ):
                stolen_jobs.append((i, cfg))
            else:
                skipped += 1
            continue
        pending.append((i, cfg))

    executed = 0
    cancelled = False

    def _finish(i: int, record: dict) -> None:
        nonlocal executed
        cfg = configs_by_index[i]
        results[i] = result_from_record(record)
        executed += 1
        if result_store is not None:
            result_store.store(cfg, record)
        stream.update(i, results[i])
        if progress:
            progress(
                f"[{spec.name}] {cfg.protocol} seed={cfg.seed} "
                f"({record['elapsed_s']:.2f}s)"
            )
        if on_update is not None:
            on_update(stream)  # may raise CancelCampaign

    # own-shard runs first; stolen leftovers only once our share is in
    jobs = pending + stolen_jobs
    configs_by_index = dict(jobs)
    engine = scheduler if scheduler is not None else PoolScheduler(workers)
    if isinstance(engine, str):
        engine = scheduler_by_name(engine, workers)
    try:
        if jobs:
            engine.execute(_execute, jobs, _finish, store=result_store)
    except CancelCampaign:
        cancelled = True
    finally:
        if result_store is not None:
            # claims for stolen runs we never got to: hand them back now
            # rather than letting the TTL expire them
            for i, cfg in stolen_jobs:
                if results[i] is None:
                    result_store.release(config_key(cfg))
            result_store.flush()

    return CampaignResult(
        spec=spec,
        results=list(results),
        executed=executed,
        cache_hits=cache_hits,
        skipped=skipped,
        stolen=sum(1 for i, _ in stolen_jobs if results[i] is not None),
        cancelled=cancelled,
        elapsed_s=time.perf_counter() - t0,
        stream=stream,
    )


def collect_campaign(
    spec: CampaignSpec,
    store,
    stream_metrics: Optional[Sequence[str]] = None,
) -> CampaignResult:
    """Assemble a campaign from a store without executing anything.

    The read-only counterpart of :func:`run_campaign` (the ``results``
    verb, and the store read behind ``status``): every stored run loads
    into its slot, missing runs count as ``skipped``.  Aggregation and
    tables work over whatever is present; ``result.stream`` aggregates
    ``stream_metrics`` (default: the backends' default metrics).
    """
    t0 = time.perf_counter()
    result_store = open_store(store)
    configs = spec.configs()
    results: List[Optional[RunResult]] = [None] * len(configs)
    stream = StreamingAggregate(
        spec,
        stream_metrics
        if stream_metrics is not None
        else default_metrics(spec.backends()),
    )
    cache_hits = 0
    for i, cfg in enumerate(configs):
        record = result_store.load(cfg)
        if record is None:
            continue
        results[i] = result_from_record(record)
        cache_hits += 1
        stream.update(i, results[i])
    return CampaignResult(
        spec=spec,
        results=results,
        executed=0,
        cache_hits=cache_hits,
        skipped=len(configs) - cache_hits,
        elapsed_s=time.perf_counter() - t0,
        stream=stream,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _field_types() -> Dict[str, type]:
    hints = typing.get_type_hints(ScenarioConfig)
    return {f.name: hints[f.name] for f in dataclasses.fields(ScenarioConfig)}


def _coerce(field_name: str, raw: str):
    """Parse a CLI string into the ScenarioConfig field's type."""
    types = _field_types()
    if field_name not in types:
        raise SystemExit(
            f"unknown ScenarioConfig field {field_name!r}; choose from "
            f"{sorted(types)}"
        )
    if field_name == "model_params":
        raise SystemExit(
            "model_params is not settable as a flat field; use "
            "--model-param KEY=VALUE (repeatable)"
        )
    typ = types[field_name]
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    return raw


def _coerce_param_value(raw: str):
    """Model-param values: int if it parses, else float, else string."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            continue
    return raw


def _parse_model_params(items: List[str]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(
                f"--model-param expects key=value (got {item!r})"
            )
        key, _, value = item.partition("=")
        params[key] = _coerce_param_value(value)
    return params


def _parse_grid(specs: List[str]) -> Dict[str, Tuple]:
    grid: Dict[str, Tuple] = {}
    for item in specs:
        if "=" not in item:
            raise SystemExit(f"--grid expects field=v1,v2,... (got {item!r})")
        name, _, values = item.partition("=")
        grid[name] = tuple(_coerce(name, v) for v in values.split(",") if v)
    return grid


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    """The campaign-shape flags shared by ``submit`` and every
    subcommand (``submit``/``status``/``results`` must name the same
    campaign to talk about the same runs)."""
    what = parser.add_argument_group("what to run")
    what.add_argument(
        "--figure",
        help="run a figure's grid (fig07..fig16, or the figd01/figd02/"
        "figd03/figm01/figg01 extensions) instead of --grid",
    )
    what.add_argument(
        "--backend",
        default=None,
        help="experiment backend for the base config: 'des' (packet-level "
        "simulator, the default) or 'rounds' (round-model stabilization "
        "engine; accepts every daemon and is orders of magnitude faster "
        "per run).  Sweepable as a grid axis too: --grid backend=des,rounds",
    )
    what.add_argument(
        "--engine",
        default=None,
        help="round-engine implementation for the base config (rounds "
        "backend only): 'object' (scalar reference, the default) or "
        "'array' (vectorized columnar evaluation — bit-identical "
        "trajectories, built for 10^4-10^5 nodes).  Sweepable as a grid "
        "axis too: --grid engine=object,array",
    )
    what.add_argument(
        "--protocols",
        default="ss-spst,ss-spst-e",
        help="comma-separated protocol list (ignored with --figure)",
    )
    what.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="grid axis over a ScenarioConfig field; repeatable",
    )
    what.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        dest="overrides",
        help="override a base-config field; repeatable",
    )
    what.add_argument(
        "--model-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="model_params",
        help="scenario-model sub-parameter merged into the base config's "
        "model_params (e.g. gm_alpha=0.7, rotation_period=30, "
        "trace_file=scen.json); repeatable.  Keys must be accepted by a "
        "resolved placement/mobility/membership/traffic model",
    )
    what.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    what.add_argument(
        "--paper",
        action="store_true",
        help="paper-scale base config (default: quick scale)",
    )
    what.add_argument(
        "--name", default="cli", help="campaign name (progress labels)"
    )


def _add_store_arg(target) -> None:
    target.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help="result store: a directory (JSON record dir, one "
        "<config_key>.json per run), a *.sqlite/*.db path (SQLite columnar "
        "store), or an explicit json:DIR / sqlite:PATH spec",
    )


def _add_metrics_arg(target) -> None:
    target.add_argument(
        "--metrics",
        default=None,
        help="metric names for the aggregate table (default: per-backend "
        "choice, e.g. pdr,energy_per_packet_mj on des and "
        "rounds,evaluations,moves on rounds)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.campaign",
        description="Run a protocol/parameter/seed campaign in parallel "
        "with a persistent per-run result store.",
    )
    _add_spec_args(parser)
    how = parser.add_argument_group("how to run")
    how.add_argument("--workers", type=int, default=1, help="pool size")
    _add_store_arg(how)
    how.add_argument(
        "--scheduler",
        default=None,
        choices=SCHEDULER_NAMES,
        help="execution engine: 'serial', 'pool' (multiprocessing, the "
        "default for --workers > 1), or 'async' (asyncio job queue with "
        "work stealing, heartbeats and graceful cancel)",
    )
    how.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="execute only shard I of K (deterministic config-hash "
        "partition); K machines pointing different shards at one shared "
        "store split the campaign, and a final un-sharded run assembles "
        "it from the store",
    )
    how.add_argument(
        "--steal",
        action="store_true",
        help="with --shard: after executing the own share, claim and run "
        "other shards' still-missing runs through the store (claims "
        "expire if the claimant dies; records stay exactly-once per key)",
    )
    _add_metrics_arg(how)
    how.add_argument(
        "--dry-run",
        action="store_true",
        help="print the plan — backend, per-run identities, grid size, "
        "shard assignment and warm-cache hit count — without executing",
    )
    how.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write a machine-readable campaign record (aggregates + "
        "cache accounting) to PATH after the run",
    )
    how.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    parser.add_argument(
        "--list-figures", action="store_true", help="list figure ids and exit"
    )
    return parser


def _parse_shard(raw: Optional[str]) -> Optional[Tuple[int, int]]:
    if raw is None:
        return None
    try:
        index_s, _, count_s = raw.partition("/")
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise SystemExit(
            f"--shard expects I/K with integer I and K (got {raw!r})"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise SystemExit(
            f"--shard {raw}: need K >= 1 and 0 <= I < K "
            f"(shard indices are zero-based)"
        )
    return index, count


def _parse_overrides(items: List[str]) -> Dict[str, object]:
    overrides = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--set expects field=value (got {item!r})")
        name, _, value = item.partition("=")
        overrides[name] = _coerce(name, value)
    return overrides


def _reject_grid_collisions(
    overrides: Dict[str, object], axes: Iterable[str], context: str
) -> None:
    """``--set`` values on a grid axis would be silently clobbered by the
    grid's values (every cell re-assigns the axis field on top of the
    base config) — that is never what the caller meant, so fail loudly."""
    clash = sorted(set(overrides) & set(axes))
    if clash:
        fields = ", ".join(clash)
        raise SystemExit(
            f"--set {fields}: field{'s' if len(clash) > 1 else ''} "
            f"{fields} {'are' if len(clash) > 1 else 'is'} a grid axis of "
            f"{context}; the grid values would overwrite the override. "
            f"Drop the --set, or use --grid {clash[0]}=... to pin the axis."
        )


def _merge_field_flag(
    overrides: Dict[str, object],
    field: str,
    value: Optional[str],
    axes: Iterable[str],
) -> None:
    """Fold a dedicated field flag (``--backend``, ``--engine``) into the
    override set, rejecting contradictions.

    Each flag is sugar for ``--set <field>=...`` but gets its own error
    messages: silently letting a ``--set`` or a grid axis win over an
    explicit flag would run a different executor than the one the caller
    named."""
    if not value:
        return
    if field in set(axes):
        raise SystemExit(
            f"--{field} {value}: {field!r} is already a grid axis; the "
            f"axis values would overwrite the flag.  Drop --{field} and "
            f"let --grid {field}=... drive the sweep."
        )
    if overrides.get(field, value) != value:
        raise SystemExit(
            f"--{field} {value} contradicts --set "
            f"{field}={overrides[field]}; drop one of them."
        )
    overrides[field] = value


def _apply_model_params(
    base: ScenarioConfig, params: Dict[str, object]
) -> ScenarioConfig:
    """Merge ``--model-param`` pairs over the base's ``model_params``."""
    if not params:
        return base
    merged = dict(base.model_params)
    merged.update(params)
    return base.replace(model_params=merged)


def spec_from_args(args) -> CampaignSpec:
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    # All overrides are applied in one replace(): interdependent fields
    # (n_nodes + group_size) would otherwise fail validation midway.
    overrides = _parse_overrides(args.overrides)
    model_params = _parse_model_params(getattr(args, "model_params", []))
    backend_flag = getattr(args, "backend", None)
    engine_flag = getattr(args, "engine", None)
    if args.figure:
        from repro.experiments.figures import FIGURES

        if args.figure not in FIGURES:
            raise SystemExit(
                f"unknown figure {args.figure!r}; try --list-figures"
            )
        spec = FIGURES[args.figure].campaign_spec(
            quick=not args.paper, seeds=seeds
        )
        axis_names = tuple(name for name, _ in spec.grid)
        _merge_field_flag(overrides, "backend", backend_flag, axis_names)
        _merge_field_flag(overrides, "engine", engine_flag, axis_names)
        if overrides:
            _reject_grid_collisions(
                overrides,
                (name for name, _ in spec.grid),
                f"figure {args.figure}",
            )
        base = spec.base.replace(**overrides) if overrides else spec.base
        base = _apply_model_params(base, model_params)
        if base is not spec.base:
            spec = dataclasses.replace(spec, base=base)
        return spec
    grid = _parse_grid(args.grid)
    _merge_field_flag(overrides, "backend", backend_flag, grid)
    _merge_field_flag(overrides, "engine", engine_flag, grid)
    _reject_grid_collisions(overrides, grid, "this campaign (--grid)")
    base = ScenarioConfig.paper_scale() if args.paper else ScenarioConfig.quick()
    if overrides:
        base = base.replace(**overrides)
    base = _apply_model_params(base, model_params)
    return CampaignSpec.from_mapping(
        name=args.name,
        base=base,
        protocols=tuple(p for p in args.protocols.split(",") if p),
        seeds=seeds,
        grid=grid,
    )


def _metrics_from_args(args, spec: CampaignSpec) -> List[str]:
    if args.metrics:
        return [m for m in args.metrics.split(",") if m]
    return list(default_metrics(spec.backends()))


# ----------------------------------------------------------------------
# Service subcommands
# ----------------------------------------------------------------------
def _build_view_parser(verb: str, description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments.campaign {verb}",
        description=description,
    )
    _add_spec_args(parser)
    _add_store_arg(parser)
    _add_metrics_arg(parser)
    return parser


def _require_store(args) -> str:
    if not args.store:
        raise SystemExit("this subcommand needs --store")
    return args.store


def _main_status(argv: Sequence[str]) -> int:
    parser = _build_view_parser(
        "status",
        "Streaming view of a campaign's store: per-cell running mean/CI "
        "over whatever has landed so far, plus worker heartbeats.  "
        "Read-only; safe while schedulers are writing.",
    )
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    store = probe_store(_require_store(args))
    if store is None:
        print(f"# campaign {spec.name}: 0/{spec.size()} runs (store absent)")
        return 0
    status = campaign_status(
        spec, store, metrics=_metrics_from_args(args, spec) if args.metrics else None
    )
    print(
        f"# campaign {spec.name}: {status.done}/{status.total} runs complete"
        f"{' [complete]' if status.complete else ''}"
    )
    print(status.format_table())
    print(status.format_workers())
    return 0


def _main_results(argv: Sequence[str]) -> int:
    parser = _build_view_parser(
        "results",
        "Assemble a campaign's aggregate table from its store without "
        "executing anything (missing runs are reported, not run).",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the machine-readable campaign record to PATH",
    )
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    campaign = collect_campaign(spec, _require_store(args))
    metrics = _metrics_from_args(args, spec)
    print(
        f"# campaign {spec.name}: {spec.size()} runs "
        f"(stored={campaign.cache_hits} missing={campaign.skipped})"
    )
    print(campaign.format_table(metrics))
    if args.json_out:
        _write_json_record(args.json_out, campaign, metrics)
        print(f"# wrote {args.json_out}")
    return 0


def _main_migrate(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.campaign migrate",
        description="Losslessly ingest a v1/v2 JSON cache dir into "
        "another result store (typically SQLite).",
    )
    parser.add_argument("src", help="source JSON record dir (<hash>.json)")
    parser.add_argument(
        "dest", help="destination store spec (e.g. campaign.sqlite)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(args.src):
        raise SystemExit(f"source is not a directory: {args.src}")
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    with open_store(args.dest) as dest:
        migrated, skipped = migrate_json_dir(
            args.src, dest, progress=progress
        )
    print(
        f"# migrated {migrated} records from {args.src} to "
        f"{store_location(args.dest)} (skipped {skipped} non-records)"
    )
    return 0


def _main_submit(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.list_figures:
        from repro.experiments.figures import FIGURES

        for fid, fig in sorted(FIGURES.items()):
            print(f"{fid}: {fig.title}")
        return 0

    try:
        spec = spec_from_args(args)
        configs = spec.configs()  # constructs (and so validates) every run
    except ValueError as exc:  # spec/config validation -> clean CLI error
        raise SystemExit(str(exc)) from None
    shard = _parse_shard(args.shard)
    if args.dry_run:
        # The full plan without executing anything: per-run identity and
        # shard/store status, then the campaign shape.  The store is only
        # probed when its location already exists (opening would create
        # it), so a dry run is always side-effect free.
        store = probe_store(args.store) if args.store else None
        from repro.experiments.scenario_models import (
            non_default_axes,
            plan_lines,
        )

        warm = mine_count = 0
        for cfg in configs:
            marker = ""
            if shard is not None:
                mine = shard_of(cfg, shard[1]) == shard[0]
                mine_count += mine
                marker = "  [mine]" if mine else "  [other shard]"
            if store is not None and store.load(cfg) is not None:
                warm += 1
                marker += "  [cached]"
            # Non-default scenario models ride on the run line so sharded
            # operators can audit exactly what a grid cell will build.
            models = "".join(
                f" {axis}={value}"
                for axis, value in non_default_axes(cfg).items()
            )
            print(
                f"{config_key(cfg)} {cfg.backend:>6s} {cfg.protocol} "
                f"daemon={cfg.daemon} seed={cfg.seed}{models}{marker}"
            )
        print(
            f"# {spec.size()} runs = {len(spec.cells())} cells "
            f"x {len(spec.seeds)} seeds"
        )
        print(f"# backend(s): {','.join(spec.backends())}")
        # The cache-identity contract, from the same table the linter
        # reads (rules H2xx): which fields key the result store, and
        # which are hash-neutral while left at their default.
        from repro.experiments.store import hash_participation

        hashed, neutral = hash_participation()
        print(f"# hash-participating fields ({len(hashed)}): {', '.join(hashed)}")
        print(
            f"# hash-neutral at default ({len(neutral)}): "
            + ", ".join(f"{k}={neutral[k]!r}" for k in sorted(neutral))
        )
        for line in plan_lines(configs):
            print(line)
        if shard is not None:
            print(
                f"# shard {shard[0]}/{shard[1]}: mine={mine_count} "
                f"other={spec.size() - mine_count}"
            )
        if store is not None:
            print(f"# warm cache hits: {warm}/{spec.size()}")
        elif args.store:
            print(f"# warm cache hits: 0/{spec.size()} (store absent)")
        return 0

    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    scheduler = (
        scheduler_by_name(args.scheduler, args.workers)
        if args.scheduler
        else None
    )
    campaign = run_campaign(
        spec,
        workers=args.workers,
        store=args.store,
        progress=progress,
        shard=shard,
        scheduler=scheduler,
        steal=args.steal,
    )
    metrics = _metrics_from_args(args, spec)
    print()
    shard_note = (
        f" shard={shard[0]}/{shard[1]} skipped={campaign.skipped}"
        if shard is not None
        else ""
    )
    steal_note = f" stolen={campaign.stolen}" if args.steal else ""
    cancel_note = " CANCELLED" if campaign.cancelled else ""
    print(
        f"# campaign {spec.name}: {spec.size()} runs "
        f"(executed={campaign.executed} cached={campaign.cache_hits}"
        f"{shard_note}{steal_note}) "
        f"in {campaign.elapsed_s:.1f}s{cancel_note}"
    )
    print(campaign.format_table(metrics))
    if args.json_out:
        _write_json_record(args.json_out, campaign, metrics)
        print(f"# wrote {args.json_out}")
    return 0


def _finite_or_none(value: float):
    """Non-finite floats become null: strict RFC 8259 consumers (jq,
    JSON.parse, ...) reject the bare NaN/Infinity tokens json.dump would
    otherwise emit for single-replication CIs or non-converged cells."""
    return value if value == value and abs(value) != float("inf") else None


def _write_json_record(
    path: str, campaign: CampaignResult, metrics: Sequence[str]
) -> None:
    """Machine-readable campaign record (the CI bench artifact)."""
    cells = {}
    counts = {key: len(runs) for key, runs in campaign.by_cell().items()}
    for metric in metrics:
        agg = campaign.aggregate(campaign.extractor(metric))
        for (proto, point), ci in agg.items():
            cell = cells.setdefault(
                f"{proto} {cell_label(point)}", {"n": counts[(proto, point)]}
            )
            cell[metric] = {
                "mean": _finite_or_none(ci.mean),
                "half_width": _finite_or_none(ci.half_width),
            }
    record = {
        "schema": CACHE_SCHEMA,
        "campaign": campaign.spec.name,
        "backends": list(campaign.spec.backends()),
        "size": campaign.spec.size(),
        "executed": campaign.executed,
        "cache_hits": campaign.cache_hits,
        "skipped": campaign.skipped,
        "elapsed_s": campaign.elapsed_s,
        "metrics": list(metrics),
        "cells": cells,
    }
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)


#: verb -> handler; an argv without a verb is an alias of ``submit``
VERBS: Dict[str, Callable[[Sequence[str]], int]] = {
    "submit": _main_submit,
    "status": _main_status,
    "results": _main_results,
    "migrate": _main_migrate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    verb = argv.pop(0) if argv and argv[0] in VERBS else "submit"
    return VERBS[verb](argv)


if __name__ == "__main__":
    sys.exit(main())
