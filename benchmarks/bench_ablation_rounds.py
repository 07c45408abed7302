"""Ablation: rounds-to-stabilize per metric on random geometric graphs.

Quantifies the paper's narrative that richer metrics buy energy at the
price of extra stabilization rounds (Examples 1-5: 3/4/5/5 rounds), and
measures SS-SPST-F's documented instability as its non-convergence rate.
"""

import numpy as np

from repro.core import (
    RoundEngine,
    fresh_states,
    metric_by_name,
)
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import METRIC_NAMES
from repro.graph import Topology

N_GRAPHS = 30


def _topologies():
    out = []
    rng = np.random.default_rng(2024)
    while len(out) < N_GRAPHS:
        n = int(rng.integers(15, 40))
        pos = rng.random((n, 2)) * 500.0
        members = [int(x) for x in rng.choice(n, size=max(2, n // 3), replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            out.append(topo)
    return out


def _stabilize_all():
    topos = _topologies()
    stats = {}
    for name in METRIC_NAMES:
        rounds, failures = [], 0
        for i, topo in enumerate(topos):
            metric = metric_by_name(name, EXAMPLE_RADIO)
            res = RoundEngine(topo, metric, daemon="synchronous").run(
                fresh_states(topo, metric)
            )
            if not res.converged:
                # The documented F-style oscillation: retry under the
                # randomized daemon (jittered beacons).
                failures += 1
                res = RoundEngine(
                    topo, metric, daemon="randomized", rng=np.random.default_rng(i)
                ).run(fresh_states(topo, metric), max_rounds=400)
            if res.converged:
                rounds.append(res.rounds)
        stats[name] = {
            "mean_rounds": float(np.mean(rounds)) if rounds else float("nan"),
            "sync_failures": failures,
            "converged": len(rounds),
        }
    return stats


def test_rounds_to_stabilize(benchmark):
    stats = benchmark.pedantic(_stabilize_all, rounds=1, iterations=1)
    print()
    for name, s in stats.items():
        print(
            f"{name:9s} mean rounds={s['mean_rounds']:5.2f} "
            f"sync-oscillations={s['sync_failures']:2d}/{N_GRAPHS} "
            f"(converged {s['converged']})"
        )
    # Richer metrics stabilize no faster than hop counting.
    assert stats["hop"]["mean_rounds"] <= stats["tx"]["mean_rounds"] + 0.5
    assert stats["hop"]["mean_rounds"] <= stats["energy"]["mean_rounds"] + 0.5
    # The F metric exhibits the instability the paper reports: it fails to
    # converge under the synchronous daemon far more often than hop/T.
    assert stats["farthest"]["sync_failures"] >= stats["hop"]["sync_failures"]
    assert stats["farthest"]["sync_failures"] > 0
    # hop/T/E converge everywhere (randomized daemon); F may genuinely
    # limit-cycle on a few graphs — the instability is structural, which
    # is exactly the paper's finding ("dynamic nature causes unstability").
    for name in ("hop", "tx", "energy"):
        assert stats[name]["converged"] == N_GRAPHS
    assert stats["farthest"]["converged"] >= int(0.8 * N_GRAPHS)
