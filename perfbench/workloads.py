"""The benchmark's workloads: each is a list of campaign specs built from
the workload seed alone.

The program under test sees only the generated
:class:`~repro.experiments.campaign.CampaignSpec` objects; every run's
scenario seed is derived here from ``(workload, seed)`` with a
string-seeded ``random.Random``, which does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: seed whose per-run output digests are pinned in ``digests.json``
DEFAULT_SEED = 1

#: why each workload exists (kept in step with BENCHMARK.json)
WHY: Dict[str, str] = {
    "des-paper": "DES figure grid (4 protocols x n 50/75/100 x 2 seeds): "
    "kernel, medium, MAC, mobility and protocol handlers do the work",
    "rounds-deep": "array round engine at n=600 on a sparse topology, 5 "
    "cells x 5 seeds: evaluate/fold/commit/snapshot work, no DES or store",
    "campaign-small": "891 tiny object-engine rounds runs into SQLite, then "
    "a warm re-run and table: store, records and aggregation carry weight",
}

#: simulated seconds of a des-paper run: ScenarioConfig.quick with the
#: data phase cut from 112 s to 8 s, so that 24 scenarios fit one run
DES_SIM_TIME = 16.0

#: aggregate-table columns of the warm pass, per backend
TABLE_METRICS = {
    "des": ("pdr", "energy_per_packet_mj", "avg_delay_ms", "control_overhead"),
    "rounds": ("rounds", "evaluations", "moves", "recovery_rounds"),
}


def derived_seeds(workload: str, seed: int, count: int) -> Tuple[int, ...]:
    """``count`` scenario seeds for ``workload`` from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return tuple(rng.randrange(1, 2**31) for _ in range(count))


def build(workload: str, seed: int) -> List[object]:
    """The campaign specs one pass of ``workload`` runs, in order."""
    from repro.experiments.campaign import CampaignSpec
    from repro.experiments.config import ScenarioConfig

    # Each protocol (and rounds daemon) draws its own scenario seeds:
    # runs that share a scenario share its cost, so independent scenarios
    # average the seed's effect on the pass time far better.
    if workload == "des-paper":
        return [
            CampaignSpec.from_mapping(
                f"des-paper/{protocol}",
                ScenarioConfig.quick(sim_time=DES_SIM_TIME),
                (protocol,),
                derived_seeds(f"{workload}/{protocol}", seed, 2),
                # n=75 puts the per-run median inside one size class
                {"n_nodes": (50, 75, 100)},
            )
            for protocol in ("ss-spst-e", "ss-spst", "maodv", "odmrp")
        ]
    if workload == "rounds-deep":
        base = ScenarioConfig.quick(
            backend="rounds", engine="array", topology="sparse",
            density_ref_n=50, n_nodes=600,
        )
        # Run time varies with the scenario seed by up to 2x per run, so
        # many mid-sized runs (not a few at n >= 1000) keep the pass time
        # and the per-run median steady across workload seeds; 5 seeds
        # put that median inside one cell (ss-spst, distributed).
        # Synchronous SS-SPST-E limit-cycles at scale
        # (docs/convergence.md), so E runs under distributed only.
        cells = [
            ("ss-spst", "synchronous"), ("ss-spst", "distributed"),
            ("ss-spst-t", "synchronous"), ("ss-spst-t", "distributed"),
            ("ss-spst-e", "distributed"),
        ]
        return [
            CampaignSpec.from_mapping(
                f"rounds-deep/{protocol}/{daemon}",
                base.replace(daemon=daemon),
                (protocol,),
                derived_seeds(f"{workload}/{protocol}/{daemon}", seed, 5),
            )
            for protocol, daemon in cells
        ]
    if workload == "campaign-small":
        base = ScenarioConfig.quick(backend="rounds", group_size=8)
        seeds = derived_seeds(workload, seed, 27)
        n_grid = (16, 32, 48)
        daemons = ("synchronous", "central", "randomized", "distributed")
        return [
            CampaignSpec.from_mapping(
                "campaign-small", base, ("ss-spst", "ss-spst-t"), seeds,
                {"n_nodes": n_grid, "daemon": daemons},
            ),
            # synchronous SS-SPST-E limit-cycles until max_rounds in a
            # seed-dependent share of runs, which would swamp the pass time
            CampaignSpec.from_mapping(
                "campaign-small-e", base, ("ss-spst-e",), seeds,
                {"n_nodes": n_grid, "daemon": daemons[1:]},
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
