"""repro — reproduction of "Energy-Aware Self-Stabilization in Mobile Ad
Hoc Networks: A Multicasting Case Study" (Mukherjee, Sridharan, Gupta —
IPDPS 2007).

Layout (see README.md / DESIGN.md):

* :mod:`repro.core` — the paper's contribution: the four tree-cost
  metrics (hop / T / F / E), the guarded self-stabilizing rule, round
  executors and the Lemma 1-3 machinery;
* :mod:`repro.protocols` — packet-level SS-SPST family plus the MAODV /
  ODMRP / flooding baselines;
* :mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.mobility`,
  :mod:`repro.energy` — the simulation substrate (ns-2 replacement);
* :mod:`repro.experiments` — scenario runner, campaigns and one definition
  per evaluation figure (``FIGURES['fig07']..['fig16']``).

Quick start::

    from repro.experiments import ScenarioConfig, run_scenario
    summary = run_scenario(ScenarioConfig.quick(protocol="ss-spst-e")).summary
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "protocols",
    "sim",
    "net",
    "mobility",
    "energy",
    "graph",
    "traffic",
    "metrics",
    "experiments",
    "analysis",
    "util",
]
