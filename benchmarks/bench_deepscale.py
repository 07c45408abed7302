"""Deep-scale stabilization: the array engine at 10^4-10^5 nodes.

The object engine tops out around n = 200 per study (figd02); the
columnar :class:`~repro.core.array_engine.ArrayRoundEngine` over a
:class:`~repro.graph.sparse.SparseTopology` is built to take the daemon
studies to 10^4-10^5.  This bench pins that claim:

* **n = 10^4 cells** — hop and tx under the synchronous daemon (the
  snapshot schedule where batched evaluation shines: one n-node step per
  round), and SS-SPST-E under the distributed daemon with a large k
  (snapshot chunks; the *synchronous* schedule provably limit-cycles for
  E at scale — fixed orders admit cycles, see docs/convergence.md — so a
  sync E cell would measure non-convergence, not speed).  The
  acceptance bar is "stabilizes in seconds": asserted with a generous
  ceiling so shared-runner noise cannot flake it, with the measured
  time recorded in the JSON artifact for trend tracking.
* **speedup cell** — object vs array on the same n = N tx workload,
  asserting bit-identical trajectories — including evaluation counts —
  (the contract that makes the speedup trustworthy) and recording the
  ratio.
* **n = 10^5 cells** (``REPRO_BENCH_FULL=1``) — hop and tx under the
  synchronous daemon: feasibility at a scale where the dense topology
  cannot even be built (an (n, n) float64 matrix would be 80 GB), with
  the per-stage profile asserting commit+snapshot is no longer the
  dominant cost.
* **store-throughput cell** — deep-scale campaigns persist one record
  per run, so the result store must keep up: bulk-ingest rate and
  warm-lookup latency for the JSON record dir vs the SQLite columnar
  store over 10^4 realistic records (scaled down with ``..._N``).

Knobs: ``REPRO_BENCH_DEEPSCALE_N`` rescales the headline cells (CI quick
mode uses 2000), ``REPRO_BENCH_FULL=1`` adds the 10^5 cell, and
``REPRO_BENCH_JSON=dir`` writes ``BENCH_deepscale.json``.
"""

import json
import os
import time

from repro.core import engine_for, fresh_states, is_legitimate, metric_by_name
from repro.core.examples import EXAMPLE_RADIO
from repro.graph import SparseTopology

N = int(os.environ.get("REPRO_BENCH_DEEPSCALE_N", "10000"))
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
FULL_N = 100_000
#: deployment density: side grows with sqrt(n) so mean degree (~20, a
#: dense-enough MANET to be connected w.h.p.) stays n-independent
RADIUS = 80.0
SIDE_PER_SQRT_N = 30.0
#: "stabilizes in seconds", with slack for noisy shared runners (the
#: n = 10^4 tx cell measures ~7 s on a dev box)
MAX_SECONDS = 120.0 if N >= 10_000 else 60.0
#: chain pricing re-prices whole subtrees per move, so SS-SPST-E costs
#: an order of magnitude more than tx (~165 s at n = 10^4 on a dev box)
ENERGY_MAX_SECONDS = 600.0


def _topo(n: int, seed: int = 2) -> SparseTopology:
    side = SIDE_PER_SQRT_N * (n ** 0.5)
    return SparseTopology.random_geometric(
        n, side=side, radius=RADIUS, seed=seed
    )


def _run(topo, metric_name, daemon, engine, **daemon_options):
    metric = metric_by_name(metric_name, EXAMPLE_RADIO)
    eng = engine_for(
        topo, metric, daemon, incremental=True, engine=engine,
        **daemon_options,
    )
    t0 = time.perf_counter()
    res = eng.run(fresh_states(topo, metric), max_rounds=600)
    elapsed = time.perf_counter() - t0
    return res, elapsed, metric, eng


def _profile_of(eng):
    """The array engine's per-stage counters, rounded for the artifact."""
    prof = getattr(eng, "profile", None)
    if prof is None:
        return None
    return {
        k: (round(v, 4) if isinstance(v, float) else v)
        for k, v in prof.items()
    }


def _cell(topo, metric_name, daemon, **options):
    res, elapsed, metric, eng = _run(
        topo, metric_name, daemon, "array", **options
    )
    assert res.converged, f"{metric_name}/{daemon} did not stabilize"
    assert is_legitimate(topo, metric, res.states)
    return {
        "n": topo.n,
        "metric": metric_name,
        "daemon": daemon,
        **options,
        "t": elapsed,
        "rounds": res.rounds,
        "moves": res.moves,
        "evaluations": res.evaluations,
        "profile": _profile_of(eng),
    }


def _measure():
    topo = _topo(N)
    stats = {
        "n": N,
        "mean_degree": len(topo._nbr) / topo.n,
        "connected": topo.is_connected(),
        "cells": [],
    }
    stats["cells"].append(_cell(topo, "hop", "synchronous"))
    stats["cells"].append(_cell(topo, "tx", "synchronous"))
    # E under a snapshot schedule that converges: distributed-k chunks
    # (sync E limit-cycles at scale; serial daemons converge but waste
    # the batched evaluator on single-node steps).
    stats["cells"].append(
        _cell(topo, "energy", "distributed", k=max(1, N // 20))
    )

    # Object vs array on the headline tx workload: identical
    # trajectories — evaluations included — (the point of the contract);
    # the speedup is recorded not asserted (wall clock on shared runners
    # is noise; bit-identity is the gate).
    obj, t_obj, _, _ = _run(topo, "tx", "synchronous", "object")
    arr, t_arr, _, _ = _run(topo, "tx", "synchronous", "array")
    assert obj.states == arr.states
    assert obj.rounds == arr.rounds
    assert obj.converged == arr.converged
    assert obj.cost_history == arr.cost_history
    assert obj.moves == arr.moves
    assert obj.evaluations == arr.evaluations
    stats["speedup_tx_sync"] = {
        "t_object": t_obj,
        "t_array": t_arr,
        "speedup": t_obj / t_arr if t_arr > 0 else float("inf"),
    }

    stats["store"] = _store_cell()

    if FULL:
        for m in ("hop", "tx"):
            c = _cell(_topo(FULL_N), m, "synchronous")
            stats["cells"].append(c)
            # the tentpole's acceptance: at 10^5 the commit+snapshot
            # stages (the PR-6 bottleneck) are no longer dominant
            prof = c["profile"]
            assert (
                prof["commit_s"] + prof["snapshot_s"]
                <= prof["evaluate_s"] + prof["fold_s"]
            ), f"commit+snapshot dominates at n={FULL_N}: {prof}"
    return stats


def _store_cell():
    """Result-store throughput: ingest + warm lookup, JSON dir vs SQLite.

    The records are realistic (one real rounds run templated across
    seeds, keyed by the genuine config hash), and both stores ingest
    through their bulk path (``put_many``), which is what ``migrate``
    and a deep-scale campaign's write stream exercise.
    """
    import tempfile

    from repro.experiments.campaign import _execute
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.store import JsonDirStore, SqliteStore, config_key

    base = ScenarioConfig.quick(
        backend="rounds", n_nodes=16, group_size=4, protocol="ss-spst"
    )
    template = _execute(base)
    records = min(10_000, max(1000, N))
    items = []
    for i in range(records):
        cfg = base.replace(seed=i + 1)
        record = dict(template, config=dict(template["config"], seed=i + 1))
        items.append((config_key(cfg), record))
    sample = items[:: max(1, records // 500)]

    out = {"records": records}
    with tempfile.TemporaryDirectory() as tmp:
        backends = (
            ("json", lambda: JsonDirStore(os.path.join(tmp, "records"))),
            (
                "sqlite",
                lambda: SqliteStore(
                    os.path.join(tmp, "records.sqlite"), batch_size=256
                ),
            ),
        )
        for label, open_backend in backends:
            store = open_backend()
            t0 = time.perf_counter()
            store.put_many(items)
            store.flush()
            ingest_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for key, _ in sample:
                assert store.get(key) is not None
            lookup_s = (time.perf_counter() - t0) / len(sample)
            store.close()
            out[label] = {
                "ingest_s": ingest_s,
                "ingest_per_s": (
                    records / ingest_s if ingest_s > 0 else float("inf")
                ),
                "lookup_us": lookup_s * 1e6,
            }
    return out


def _emit_json(stats) -> None:
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_deepscale.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    print(f"  wrote {path}")


def test_deepscale(benchmark):
    stats = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    for c in stats["cells"]:
        prof = c.get("profile") or {}
        stages = " ".join(
            f"{k.rstrip('_s')}={prof[k]:.2f}"
            for k in ("commit_s", "snapshot_s", "evaluate_s", "fold_s")
            if k in prof
        )
        print(
            f"n={c['n']:>6d} {c['metric']:7s} {c['daemon']:12s}"
            f" {c['t']:7.2f}s rounds={c['rounds']:4d} moves={c['moves']}"
            f"  [{stages}]"
        )
    sp = stats["speedup_tx_sync"]
    print(
        f"object vs array (n={N} tx sync): {sp['t_object']:.2f}s vs "
        f"{sp['t_array']:.2f}s -> {sp['speedup']:.1f}x"
    )
    st = stats["store"]
    for label in ("json", "sqlite"):
        cell = st[label]
        print(
            f"store[{label}]: {st['records']} records, "
            f"ingest {cell['ingest_per_s']:.0f}/s, "
            f"warm lookup {cell['lookup_us']:.0f}us"
        )
    _emit_json(stats)
    # The headline acceptance: deep-scale stabilization in seconds.
    for c in stats["cells"]:
        if c["n"] != N:
            continue
        bound = ENERGY_MAX_SECONDS if c["metric"] == "energy" else MAX_SECONDS
        assert c["t"] <= bound, (
            f"{c['metric']}/{c['daemon']} took {c['t']:.1f}s at n={N}"
        )
