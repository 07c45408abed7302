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
* a **scheduler** (:mod:`repro.experiments.scheduler`) — serial, or the
  multiprocessing pool when ``workers > 1``;
* **aggregation** (:mod:`repro.experiments.aggregation`) — every run,
  executed or loaded, lands in its slot of a :class:`CampaignResult`,
  the one place that computes per-cell mean ± Student-t CI (Welford)
  and renders the table that ``submit``, ``results`` and ``status``
  print.  :func:`run_campaign` and the read-only
  :func:`collect_campaign` load a store through one loop.

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
:func:`~repro.experiments.store.shard_of`).  A final un-sharded
invocation assembles everything from the store.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys
import time
import typing
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.stats import CiSummary, mean_ci
from repro.experiments.backends import (
    backend_by_name,
    default_metrics,
    metric_extractor,
)
from repro.experiments import store as stores
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
    CancelCampaign,
    PoolScheduler,
    Scheduler,
)
from repro.experiments.aggregation import StreamingAggregate

# ----------------------------------------------------------------------
# Campaign spec
# ----------------------------------------------------------------------
#: ScenarioConfig fields every campaign sweeps through its own argument
#: (field -> argument): never a grid axis, never a base-config override
SPEC_AXES = {"protocol": "protocols", "seed": "seeds"}

#: an aggregation cell: (protocol, grid point as (field, value) pairs)
CellKey = Tuple[str, Tuple]


def _reject_duplicates(what: str, values: Sequence) -> None:
    """A value listed twice would run the same configs twice, and the
    copies would count as separate replications of one cell."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(
            f"{what} lists {repeated[0]!r} more than once; each value "
            f"must appear once"
        )


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
            if name in SPEC_AXES:
                raise ValueError(
                    f"{name!r} cannot be a grid axis: a campaign sweeps it "
                    f"through its {SPEC_AXES[name]!r} argument"
                )
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")
            _reject_duplicates(f"grid axis {name!r}", values)
        _reject_duplicates("protocols", self.protocols)
        _reject_duplicates("seeds", self.seeds)
        _reject_duplicates("grid axes", [name for name, _ in self.grid])

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
class CampaignResult(StreamingAggregate):
    """The landed runs of a campaign, their cache accounting, and the
    one per-cell aggregation and table over them.

    ``results`` is aligned with ``spec.configs()``; every run lands in
    it through :meth:`update`.  Entries stay ``None`` for runs outside
    this invocation's shard that no store could supply (``skipped``
    counts them), for runs a read-only :func:`collect_campaign` did not
    find, and, on a cancelled campaign, for runs that never got to
    execute.  Aggregation works over whatever is present, so a shard
    (or a cancelled run) still prints its partial table.
    """

    executed: int = 0
    cache_hits: int = 0  # store hits
    skipped: int = 0  # runs neither stored nor executed here
    cancelled: bool = False  # a CancelCampaign stopped dispatch early
    elapsed_s: float = 0.0

    # ------------------------------------------------------------------
    def by_cell(self) -> Dict[CellKey, List[RunResult]]:
        """Landed seed replications grouped per (protocol, grid point)
        cell, in slot order.

        The point is keyed by its ``(field, value)`` tuple so cells stay
        hashable; iteration order follows the spec.  Runs that have not
        landed are absent from the lists.
        """
        out: Dict[CellKey, List[RunResult]] = {}
        per_cell = len(self.spec.seeds)
        for c, (proto, point) in enumerate(self.spec.cells()):
            chunk = self.results[c * per_cell : (c + 1) * per_cell]
            out[(proto, tuple(point.items()))] = [
                r for r in chunk if r is not None
            ]
        return out

    def aggregate(
        self, metric: str, confidence: float = 0.95
    ) -> Dict[CellKey, CiSummary]:
        """Per-cell mean ± CI of a metric name.

        The name resolves once, against every backend the campaign spans
        (:func:`~repro.experiments.backends.metric_extractor`), so it
        works over DES runs, rounds runs, or a mix.  Each cell's landed
        runs fold in slot order through ``mean_ci``; cells where nothing
        landed are omitted.
        """
        extract = metric_extractor(metric, self.spec.backends())
        return {
            key: mean_ci([extract(r) for r in runs], confidence)
            for key, runs in self.by_cell().items()
            if runs
        }

    def format_table(self, metrics: Sequence[str] = ("pdr",)) -> str:
        """Aggregate table: one row per cell, mean ± CI per metric, and
        ``-`` in a cell where nothing landed."""
        cells = self.by_cell()
        labels = {key: cell_label(key[1]) for key in cells}
        width = max([24] + [len(v) for v in labels.values()])
        header = f"{'protocol':>12s} {'grid point':>{width}s} {'n':>3s}"
        for m in metrics:
            header += f" {m:>24s}"
        rows = [header]
        aggs = [self.aggregate(m) for m in metrics]
        for key, runs in cells.items():
            row = f"{key[0]:>12s} {labels[key]:>{width}s} {len(runs):>3d}"
            for agg in aggs:
                ci = agg.get(key)
                if ci is None:
                    row += f" {'-':>12s} {'-':>11s}"
                    continue
                hw = f"±{ci.half_width:.4f}" if ci.half_width == ci.half_width else "±nan"
                row += f" {ci.mean:>12.4f} {hw:>11s}"
            rows.append(row)
        return "\n".join(rows)


def cell_label(point_items: Iterable[Tuple[str, object]]) -> str:
    """Human-readable grid-point label (``k=v,...`` or ``-``), shared by
    the aggregate table and the JSON campaign record."""
    return ",".join(f"{k}={v}" for k, v in point_items) or "-"


@contextlib.contextmanager
def _opened(store):
    """The live store behind ``store`` (a ResultStore, a spec string, or
    None for no store).  A store opened here from a spec string is
    closed on exit; a ResultStore passed in stays open, owned by its
    caller."""
    result_store = open_store(store) if store is not None else None
    try:
        yield result_store
    finally:
        if result_store is not None and result_store is not store:
            result_store.close()


def _land_stored(
    campaign: CampaignResult, result_store, configs: List[ScenarioConfig]
) -> Dict[int, str]:
    """Land every run the store holds; return the config key of each
    slot it lacks.  The key of a missing run is the key its finished
    record is put under, so an unsharded cold run hashes each config
    once."""
    missing: Dict[int, str] = {}
    for i, cfg in enumerate(configs):
        # through the module, so a wrapper on store.config_key sees
        # every key
        key = stores.config_key(cfg)
        record = result_store.load(cfg, key)
        if record is None:
            missing[i] = key
            continue
        # the record matched cfg: no config rebuilt from it
        campaign.update(i, result_from_record(record, cfg))
        campaign.cache_hits += 1
    return missing


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    shard: Optional[Tuple[int, int]] = None,
    store=None,
    scheduler: Optional[Scheduler] = None,
) -> CampaignResult:
    """Execute a campaign, reusing every result that is already known.

    Lookup order per run: the result store → execute.  Pending runs go
    to the ``scheduler`` (default: :class:`PoolScheduler` of
    ``workers``, serial at one); each finished record is written to the
    store as it arrives, so interrupting the campaign loses at most the
    in-flight runs.

    ``store`` is a :class:`~repro.experiments.store.ResultStore` or a
    spec string (``json:DIR``, ``sqlite:PATH``, or a bare path — a
    ``.sqlite``/``.db`` file or else a JSON record dir).

    ``shard=(i, k)`` distributes one campaign over ``k`` machines
    sharing a store: runs are partitioned deterministically by config
    hash (:func:`~repro.experiments.store.shard_of`) and only shard
    ``i``'s share is *executed* here — foreign-shard runs are still
    served from the store when available (so overlapping or repeated
    shard invocations resume cleanly), and are otherwise reported as
    ``skipped``.  Records are idempotent per key, so overlapping shards
    can never double-count a run.  After every shard has run, a final
    un-sharded invocation against the shared store assembles the full
    campaign without executing anything.

    A :class:`~repro.experiments.scheduler.CancelCampaign` raised while
    a run lands (by the scheduler's result callback) stops the campaign,
    which returns the partial result marked ``cancelled`` with every
    delivered run persisted.
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
    campaign = CampaignResult(spec)
    with _opened(store) as result_store:
        # slot -> config key of every run the store could not supply
        missing = (
            _land_stored(campaign, result_store, configs)
            if result_store is not None
            else dict.fromkeys(range(len(configs)))
        )
        pending = [
            (i, configs[i])
            for i in missing
            if shard is None or shard_of(configs[i], shard[1]) == shard[0]
        ]
        campaign.skipped = len(missing) - len(pending)

        def _land(i: int, record: dict) -> None:
            cfg = configs[i]
            campaign.update(i, result_from_record(record, cfg))
            campaign.executed += 1
            if result_store is not None:
                result_store.put(missing[i], record)
            if progress:
                progress(
                    f"[{spec.name}] {cfg.protocol} seed={cfg.seed} "
                    f"({record['elapsed_s']:.2f}s)"
                )

        engine = scheduler if scheduler is not None else PoolScheduler(workers)
        try:
            if pending:
                engine.execute(_execute, pending, _land)
        except CancelCampaign:
            campaign.cancelled = True
        finally:
            if result_store is not None:
                result_store.flush()
    campaign.elapsed_s = time.perf_counter() - t0
    return campaign


def collect_campaign(spec: CampaignSpec, store) -> CampaignResult:
    """Assemble a campaign from a store without executing anything.

    The read-only counterpart of :func:`run_campaign` (the ``results``
    and ``status`` verbs), through the same store loop: every stored
    run lands in its slot, missing runs count as ``skipped``.
    """
    t0 = time.perf_counter()
    campaign = CampaignResult(spec)
    with _opened(store) as result_store:
        campaign.skipped = len(
            _land_stored(campaign, result_store, spec.configs())
        )
    campaign.elapsed_s = time.perf_counter() - t0
    return campaign


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
    how.add_argument(
        "--workers", type=int, default=1, help="pool size (1 runs serially)"
    )
    _add_store_arg(how)
    how.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="execute only shard I of K (deterministic config-hash "
        "partition); K machines pointing different shards at one shared "
        "store split the campaign, and a final un-sharded run assembles "
        "it from the store",
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
    base config) — that is never what the caller meant, so fail loudly.
    ``protocol`` and ``seed`` (:data:`SPEC_AXES`) are axes of every
    campaign."""
    clash = sorted(set(overrides) & {*axes, *SPEC_AXES})
    if clash:
        fields = ", ".join(clash)
        pin = (
            f"--{SPEC_AXES[clash[0]]} ..."
            if clash[0] in SPEC_AXES
            else f"--grid {clash[0]}=..."
        )
        raise SystemExit(
            f"--set {fields}: field{'s' if len(clash) > 1 else ''} "
            f"{fields} {'are' if len(clash) > 1 else 'is'} a grid axis of "
            f"{context}; the grid values would overwrite the override. "
            f"Drop the --set, or use {pin} to pin the axis."
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
    """The table's metric names, each resolved against the campaign's
    backends up front, so an unknown name exits before anything runs."""
    if not args.metrics:
        return list(default_metrics(spec.backends()))
    metrics = [m for m in args.metrics.split(",") if m]
    for metric in metrics:
        try:
            metric_extractor(metric, spec.backends())
        except ValueError as exc:
            raise SystemExit(f"--metrics: {exc}") from None
    return metrics


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


def _collect_from_args(args):
    """``(spec, metrics, campaign)`` of a read-only verb.  The store is
    probed, never created: when it does not exist, that is printed and
    ``campaign`` is None."""
    try:
        spec = spec_from_args(args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    metrics = _metrics_from_args(args, spec)
    store = probe_store(_require_store(args))
    if store is None:
        print(f"# campaign {spec.name}: 0/{spec.size()} runs (store absent)")
        return spec, metrics, None
    with store:
        return spec, metrics, collect_campaign(spec, store)


def _main_status(argv: Sequence[str]) -> int:
    parser = _build_view_parser(
        "status",
        "Progress of a campaign in its store: per-cell mean/CI over "
        "whatever has landed so far.  Read-only; safe while campaigns "
        "are writing.",
    )
    spec, metrics, campaign = _collect_from_args(parser.parse_args(argv))
    if campaign is None:
        return 0
    print(
        f"# campaign {spec.name}: {campaign.done}/{spec.size()} runs complete"
        f"{' [complete]' if campaign.done == spec.size() else ''}"
    )
    print(campaign.format_table(metrics))
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
    spec, metrics, campaign = _collect_from_args(args)
    if campaign is None:
        return 0
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
    metrics = _metrics_from_args(args, spec)
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
        try:
            for cfg in configs:
                marker = ""
                if shard is not None:
                    mine = shard_of(cfg, shard[1]) == shard[0]
                    mine_count += mine
                    marker = "  [mine]" if mine else "  [other shard]"
                key = config_key(cfg)
                if store is not None and store.load(cfg, key) is not None:
                    warm += 1
                    marker += "  [cached]"
                # Non-default scenario models ride on the run line so
                # sharded operators can audit exactly what a grid cell
                # will build.
                models = "".join(
                    f" {axis}={value}"
                    for axis, value in non_default_axes(cfg).items()
                )
                print(
                    f"{key} {cfg.backend:>6s} {cfg.protocol} "
                    f"daemon={cfg.daemon} seed={cfg.seed}{models}{marker}"
                )
        finally:
            if store is not None:
                store.close()
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
    campaign = run_campaign(
        spec,
        workers=args.workers,
        store=args.store,
        progress=progress,
        shard=shard,
    )
    print()
    shard_note = (
        f" shard={shard[0]}/{shard[1]} skipped={campaign.skipped}"
        if shard is not None
        else ""
    )
    cancel_note = " CANCELLED" if campaign.cancelled else ""
    print(
        f"# campaign {spec.name}: {spec.size()} runs "
        f"(executed={campaign.executed} cached={campaign.cache_hits}"
        f"{shard_note}) "
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
        for (proto, point), ci in campaign.aggregate(metric).items():
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
