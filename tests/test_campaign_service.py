"""Scheduler layer, aggregation, and the campaign verbs.

Pins the contracts of the campaign service's upper layers
(docs/campaigns.md):

* the scheduler runs serially at one worker and on a pool above that —
  same campaign, bit-identical aggregates;
* a campaign cancels mid-flight (everything delivered so far is
  persisted), and a cancelled-and-resumed invocation converges to the
  same final table as an uninterrupted run;
* runs landing through ``update`` in any arrival order aggregate
  bit-for-bit like a serial run (hypothesis property), and ``mean_ci``
  *is* the Welford fold;
* the ``submit`` / ``status`` / ``results`` / ``migrate`` CLI
  subcommands and the functions behind them (``run_campaign``,
  ``collect_campaign``, ``migrate_json_dir``) drive the same layers end
  to end.
"""

from __future__ import annotations

import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean_ci
from repro.experiments.aggregation import Welford
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    collect_campaign,
    main,
    run_campaign,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.scheduler import CancelCampaign, PoolScheduler
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
    def test_engines_agree_bit_for_bit(self):
        """Same campaign serially and on a pool: identical tables."""
        spec = rounds_spec()
        tables = []
        for engine in (PoolScheduler(1), PoolScheduler(workers=2)):
            result = run_campaign(spec, scheduler=engine)
            assert result.executed == spec.size()
            tables.append(result.format_table(("rounds", "moves")))
        assert tables[0] == tables[1]


# ----------------------------------------------------------------------
# Cancel and resume
# ----------------------------------------------------------------------
class CancelAfter(PoolScheduler):
    """A scheduler whose result callback raises ``CancelCampaign`` once
    ``k`` runs have landed, the way a caller stops a campaign."""

    def __init__(self, k: int, workers: int = 1) -> None:
        super().__init__(workers)
        self.k = k

    def execute(self, fn, jobs, on_result) -> None:
        landed = []

        def land(i, result):
            on_result(i, result)
            landed.append(i)
            if len(landed) >= self.k:
                raise CancelCampaign()

        super().execute(fn, jobs, land)


class TestCancelResume:
    def test_cancel_persists_partials_then_resume_converges(self, tmp_path):
        """The acceptance scenario: a pool figd02-style campaign on a
        SQLite store is cancelled mid-flight; ``status`` shows per-cell
        aggregates of the partial store; re-invoking converges to the
        same table as an uninterrupted reference run."""
        spec = deep_spec()
        store = f"sqlite:{tmp_path / 'deep.sqlite'}"
        partial = run_campaign(
            spec, store=store, scheduler=CancelAfter(3, workers=2)
        )
        assert partial.cancelled
        assert 3 <= partial.executed < spec.size()
        assert partial.done == partial.executed

        # the read-only view sees exactly the runs that landed
        metrics = ["rounds", "moves"]
        collected = collect_campaign(spec, store)
        assert collected.done == partial.executed
        assert collected.skipped == spec.size() - partial.executed
        assert [r is None for r in collected.results] == [
            r is None for r in partial.results
        ]
        for metric in metrics:
            assert collected.aggregate(metric) == partial.aggregate(metric)
        table = collected.format_table(metrics)
        assert table == partial.format_table(metrics)
        assert any(collected.aggregate(m) for m in metrics)

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
        result = run_campaign(spec, store=store_spec, scheduler=CancelAfter(1))
        assert result.cancelled
        assert result.executed == 1
        with open_store(store_spec) as store:
            assert store.run_count() == 1  # the delivered run is durable


# ----------------------------------------------------------------------
# Runs landing in any order aggregate like a serial run, bit for bit
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
        """Runs land in completion order (a pool makes it arbitrary);
        ``aggregate`` folds slot-ordered, so it equals the serial run's
        exactly — not approximately."""
        ref = _reference_campaign()
        assert len(ref.results) == 8
        landed = CampaignResult(ref.spec)
        for i in order:
            landed.update(i, ref.results[i])
        for metric in ("rounds", "moves"):
            assert landed.aggregate(metric) == ref.aggregate(metric)
        assert landed.format_table(("rounds", "moves")) == (
            ref.format_table(("rounds", "moves"))
        )

    def test_update_is_idempotent_per_slot(self):
        ref = _reference_campaign()
        landed = CampaignResult(ref.spec)
        for _ in range(3):  # racing shards may deliver a slot twice
            landed.update(0, ref.results[0])
        assert landed.done == 1

    def test_table_lists_cells_where_nothing_landed(self):
        ref = _reference_campaign()
        landed = CampaignResult(ref.spec)
        landed.update(0, ref.results[0])
        rows = landed.format_table(("rounds",)).splitlines()[1:]
        assert len(rows) == len(ref.spec.cells())
        mean = f"{ref.results[0].rounds:.4f}"
        assert rows[0].split()[-3:] == ["1", mean, "±inf"]
        for row in rows[1:]:
            assert row.split()[-3:] == ["0", "-", "-"]


# ----------------------------------------------------------------------
# The service verbs as plain calls over one open store
# ----------------------------------------------------------------------
class TestCampaignService:
    """The submit/status/results/migrate verbs as direct calls of
    ``run_campaign`` / ``collect_campaign`` / ``migrate_json_dir``."""

    def test_submit_status_results_roundtrip(self, store_spec):
        spec = rounds_spec()
        with open_store(store_spec) as store:
            submitted = run_campaign(
                spec, store=store, scheduler=PoolScheduler(1)
            )
            assert submitted.executed == spec.size()

            assembled = collect_campaign(spec, store)
            assert assembled.done == spec.size()
            assert assembled.executed == 0
            assert assembled.cache_hits == spec.size()
            assert assembled.format_table(("rounds",)) == (
                submitted.format_table(("rounds",))
            )

            # warm: nothing to execute
            resubmitted = run_campaign(
                spec, store=store, scheduler=PoolScheduler(1)
            )
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
    def test_flat_pool_workers_and_sqlite_store(self, tmp_path, capsys):
        store = f"sqlite:{tmp_path / 'cli.sqlite'}"
        args = SPEC_ARGS + ["--store", store, "--workers", "2", "--quiet"]
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

    def test_status_on_absent_store(self, tmp_path, capsys):
        absent = str(tmp_path / "never-created")
        assert main(["status"] + SPEC_ARGS + ["--store", absent]) == 0
        assert "(store absent)" in capsys.readouterr().out
        assert not os.path.exists(absent)  # status never creates stores

    @pytest.mark.parametrize("verb", ["status", "results"])
    @pytest.mark.parametrize("name", ["absent-dir", "absent.sqlite"])
    def test_read_only_verbs_never_create_a_store(
        self, verb, name, tmp_path, capsys
    ):
        absent = str(tmp_path / name)
        assert main([verb] + SPEC_ARGS + ["--store", absent]) == 0
        assert "0/4 runs (store absent)" in capsys.readouterr().out
        assert not os.path.exists(absent)

    def test_read_only_verbs_print_the_submit_table(self, tmp_path, capsys):
        """One renderer: on a complete campaign ``submit``, ``results``
        and ``status`` print the same table under their own headers."""
        store = str(tmp_path / "records")
        tables = []
        for verb in ("submit", "submit", "results", "status"):
            quiet = ["--quiet"] if verb == "submit" else []
            assert main([verb] + SPEC_ARGS + ["--store", store] + quiet) == 0
            lines = capsys.readouterr().out.splitlines()
            header = max(
                i for i, line in enumerate(lines) if line.startswith("# ")
            )
            tables.append(lines[header + 1 :])
            if verb == "status":
                assert lines[header] == (
                    "# campaign cli-svc: 4/4 runs complete [complete]"
                )
        assert tables[0] == tables[1] == tables[2] == tables[3]
        assert len(tables[0]) == 3  # column header + one row per cell

    def test_partial_status_lists_every_cell(self, tmp_path, capsys):
        store = str(tmp_path / "records")
        spec = rounds_spec(name="cli-svc", seeds=(1, 2))
        run_campaign(spec, store=store, scheduler=CancelAfter(1))
        capsys.readouterr()
        assert main(["status"] + SPEC_ARGS + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert "1/4 runs complete" in out
        rows = out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["ss-spst", "ss-spst-e"]
        assert rows[0].split()[2] == "1"
        assert rows[1].split()[2] == "0"
        assert set(rows[1].split()[3:]) == {"-"}

    def test_duplicate_seeds_exit_cleanly(self, tmp_path):
        store = str(tmp_path / "records")
        argv = SPEC_ARGS[:-4] + ["--seeds", "1,1,1", "--store", store]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "seeds lists 1 more than once" in str(exc.value.code)
        assert not os.path.exists(store)

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

    def test_flat_shard_flag(self, tmp_path, capsys):
        store = str(tmp_path / "records")
        argv = SPEC_ARGS + ["--store", store, "--shard", "0/2", "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"executed=(\d+) cached=0 shard=0/2 skipped=(\d+)", out
        )
        assert match is not None, out
        executed, skipped = map(int, match.groups())
        assert executed + skipped == 4  # own share run, the rest left

    @pytest.mark.parametrize("verb", ["submit", "status", "results"])
    def test_unknown_metric_exits_before_running(self, verb, tmp_path):
        """An unknown --metrics name is a clean exit listing the
        backend's metrics, before any run executes or any store opens."""
        store = str(tmp_path / "records")
        argv = [verb] + SPEC_ARGS + ["--store", store, "--metrics", "rounds,bogus"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert "unknown metric 'bogus'" in message
        assert "'evaluations'" in message  # the rounds backend's choices
        assert not os.path.exists(store)  # nothing ran, nothing written
