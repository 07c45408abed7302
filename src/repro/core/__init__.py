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
"""

from repro.core.state import NodeState, StateVector, derive_children, derive_flags
from repro.core.views import GlobalView, NodeView
from repro.core.metrics import (
    CostMetric,
    HopMetric,
    TxEnergyMetric,
    FarthestChildMetric,
    EnergyAwareMetric,
    metric_by_name,
    METRIC_NAMES,
)
from repro.core.rules import compute_update, guard_violated, H_MAX
from repro.core.daemons import (
    Daemon,
    DAEMON_NAMES,
    DES_DAEMON_NAMES,
    daemon_by_name,
)
from repro.core.rounds import (
    RoundEngine,
    StabilizationResult,
    fresh_states,
    arbitrary_states,
)
from repro.core.array_engine import ArrayRoundEngine, ColumnarView
from repro.core.legitimacy import is_legitimate, extract_tree
from repro.core.faults import EdgeFault, NodeCrash, FaultRunResult, run_with_faults
from repro.core.convergence import (
    ENGINE_NAMES,
    check_convergence,
    check_closure,
    check_loop_freedom,
    engine_for,
)

__all__ = [
    "NodeState",
    "StateVector",
    "derive_children",
    "derive_flags",
    "GlobalView",
    "NodeView",
    "CostMetric",
    "HopMetric",
    "TxEnergyMetric",
    "FarthestChildMetric",
    "EnergyAwareMetric",
    "metric_by_name",
    "METRIC_NAMES",
    "compute_update",
    "guard_violated",
    "H_MAX",
    "Daemon",
    "DAEMON_NAMES",
    "DES_DAEMON_NAMES",
    "daemon_by_name",
    "RoundEngine",
    "ArrayRoundEngine",
    "ColumnarView",
    "ENGINE_NAMES",
    "engine_for",
    "StabilizationResult",
    "fresh_states",
    "arbitrary_states",
    "is_legitimate",
    "extract_tree",
    "check_convergence",
    "check_closure",
    "check_loop_freedom",
    "EdgeFault",
    "NodeCrash",
    "FaultRunResult",
    "run_with_faults",
]
