"""The paper's core contribution: energy-aware self-stabilizing SPST.

Contents:

* :mod:`repro.core.state` — per-node protocol state ``(parent, cost, hop)``
  and helpers to derive children / member flags from a state vector;
* :mod:`repro.core.views` — the information interface the algorithm reads
  (globally in the round model, from beacons in the DES protocols).  The
  round-model :class:`~repro.core.views.GlobalView` is fully incremental:
  ``apply`` patches children lists, member flags and per-node
  flagged-children counters by walking only the affected ancestor chains
  (tracking parent cycles so counter maintenance is only trusted on
  acyclic states), reports which flags flipped, and prices SS-SPST-E
  candidate paths with an iterative, prefix-memoized chain walk — no
  recursion, so arbitrarily deep parent chains are fine;
* :mod:`repro.core.metrics` — the four cost metrics: hop (SS-SPST),
  link transmission energy (SS-SPST-T), costliest-child node energy
  (SS-SPST-F), and the proposed overhearing-aware metric (SS-SPST-E);
* :mod:`repro.core.rules` — the guarded self-stabilizing update rule
  (paper section 5);
* :mod:`repro.core.daemons` — pluggable activation schedulers
  (synchronous, central, randomized, distributed k-local-parallel,
  adversarial-max-cost, weakly-fair bounded-delay): the *daemon* the
  stabilization guarantees are stated against, decomposed from
  evaluation;
* :mod:`repro.core.rounds` — the single :class:`~repro.core.rounds.RoundEngine`
  that evaluates any daemon's schedule with stabilization accounting, in
  full or incremental (dirty-set) mode; the two modes are bit-identical
  for *all four* metrics and every daemon — SS-SPST-E's chain coupling is
  localized through the flag-flip reports (subtree seeding) — and expose
  ``run_perturbed`` for warm-start fault recovery from a settled state;
* :mod:`repro.core.legitimacy` — the legitimate-state predicate;
* :mod:`repro.core.convergence` — Lemma 1-3 checkers (convergence,
  closure, loop-freedom);
* :mod:`repro.core.examples` — reconstruction of the worked example
  (Figures 1-6) and the Figure-5 discard-energy example.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "NodeState": "state",
    "StateVector": "state",
    "derive_children": "state",
    "derive_flags": "state",
    "GlobalView": "views",
    "NodeView": "views",
    "CostMetric": "metrics",
    "HopMetric": "metrics",
    "TxEnergyMetric": "metrics",
    "FarthestChildMetric": "metrics",
    "EnergyAwareMetric": "metrics",
    "metric_by_name": "metrics",
    "METRIC_NAMES": "metrics",
    "compute_update": "rules",
    "guard_violated": "rules",
    "H_MAX": "rules",
    "Daemon": "daemons",
    "DAEMON_NAMES": "daemons",
    "DES_DAEMON_NAMES": "daemons",
    "daemon_by_name": "daemons",
    "RoundEngine": "rounds",
    "StabilizationResult": "rounds",
    "fresh_states": "rounds",
    "arbitrary_states": "rounds",
    "ArrayRoundEngine": "array_engine",
    "ColumnarView": "array_engine",
    "is_legitimate": "legitimacy",
    "extract_tree": "legitimacy",
    "EdgeFault": "faults",
    "NodeCrash": "faults",
    "FaultRunResult": "faults",
    "run_with_faults": "faults",
    "ENGINE_NAMES": "convergence",
    "check_convergence": "convergence",
    "check_closure": "convergence",
    "check_loop_freedom": "convergence",
    "engine_for": "convergence",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
