"""The guarded self-stabilizing update rule (paper section 5).

For a non-root node ``v`` the rule reads the neighbor states through a
:class:`~repro.core.views.NodeView` and computes:

* ``N1(v)`` — neighbors whose hop count is below ``H_max = |V|`` (nodes
  trapped in a loop count themselves up to ``H_max`` and drop out of every
  ``N1`` set, which is how count-to-infinity is broken — Lemma 3);
* ``N2(v)`` — the members of ``N1(v)`` minimizing ``oc(v, u)``;
* the new state: parent = the chosen element of ``N2(v)`` (ties prefer the
  incumbent parent, then the lower advertised hop, then the smaller id),
  cost = ``oc(v, parent)``, hop = parent's hop + 1.

If ``N1(v)`` is empty the node declares itself disconnected:
``(None, OC_max, H_max)``.  The root's state is the constant
``(None, 0, 0)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.metrics import CostMetric
from repro.core.state import NodeState
from repro.core.views import NodeView
from repro.graph.topology import Topology
from repro.util.ids import NodeId

#: relative tolerance for cost comparisons: costs within this *relative*
#: band are ties, resolved by the incumbent-parent / hop / id tie-breaks.
#: Purely relative — never an absolute floor — so the tie band is
#: invariant under uniform rescaling of the radio constants (per-bit
#: energy units are arbitrary).  Sized to the metric's dynamic range:
#: float64 chain sums over up to ~10^5 terms accumulate ≲1e-11 relative
#: error, and no two physically distinct parent choices in a geometric
#: deployment differ by less than ~1e-6 relative, so 1e-9 sits safely
#: between fp noise and real cost structure at every unit scale.
COST_TOL = 1e-9


def H_MAX(topo: Topology) -> int:
    """Maximum admissible hop count: the node count ``|V|``."""
    return topo.n


def compute_update(
    topo: Topology,
    metric: CostMetric,
    view: NodeView,
    v: NodeId,
) -> NodeState:
    """Return the state the rule assigns to ``v`` given the current view."""
    return compute_update_local(
        metric,
        view,
        v,
        v == topo.source,  # is_root
        H_MAX(topo),
        metric.infinity(topo),  # oc_max
        metric.switch_hysteresis,
    )


def compute_update_local(
    metric: CostMetric,
    view: NodeView,
    v: NodeId,
    is_root: bool,
    h_max: int,
    oc_max: float,
    hysteresis: float = 0.0,
) -> NodeState:
    """Topology-free form of the rule, used directly by the DES protocol
    (a real node knows only ``|V|`` and ``OC_max`` as scenario constants,
    plus whatever its beacons delivered into the view).

    ``hysteresis`` is route-flap damping: an alternative parent must beat
    the incumbent's cost by this *relative* margin to win (multiplicative,
    hence scale-invariant).  The DES agents pass their configured
    ``switch_threshold`` because beacon-carried state is up to one
    interval stale; the round model passes the metric's
    ``switch_hysteresis`` — 0 for the exact-potential metrics (hop, tx),
    a deliberate margin for the non-potential F/E metrics whose
    best-response dynamics otherwise admit persistent limit cycles (see
    ``docs/convergence.md``).
    """
    if is_root:
        return NodeState(parent=None, cost=0.0, hop=0)

    state_of = view.state_of
    current_parent = state_of(v).parent
    join_cost = metric.pricer(view, v)
    damping = 1.0 + hysteresis

    # Fold N1(v) in neighbor order, keeping the best (effective cost,
    # oc, hop, id).  A candidate wins outright when its effective cost is
    # below the best's by more than the relative COST_TOL band, loses
    # when above it by more, and otherwise ties: then the tail
    # (incumbent first, lower hop, shorter distance, smaller id) decides,
    # compared as a tuple.  The tail, and the distance read in it, is
    # built only on a tie.
    tol = COST_TOL
    best_u: Optional[NodeId] = None
    best_eff = best_abs = best_oc = 0.0
    best_hop = 0
    best_tail: Optional[Tuple] = None  # the best's tail, once a tie needed it
    for u in view.neighbors_of(v):
        su = state_of(u)
        hop = su.hop
        if hop >= h_max:  # not usefully connected (N1 exclusion)
            continue
        oc = join_cost(u, su)
        eff = oc if u == current_parent else oc * damping
        # |eff| (a -0.0 kept as -0.0 scales the band to a zero of either
        # sign, which no comparison below can tell apart)
        eff_abs = eff if eff >= 0.0 else -eff
        if best_u is not None:
            # tol * max(|eff|, |best|), NaNs placed as max() places them
            band = tol * (best_abs if best_abs > eff_abs else eff_abs)
            if eff < best_eff - band:
                best_tail = None
            elif eff > best_eff + band:
                continue
            else:
                if best_tail is None:
                    best_tail = (
                        0 if best_u == current_parent else 1,
                        best_hop,
                        view.dist(v, best_u),
                        best_u,
                    )
                tail = (0 if u == current_parent else 1, hop, view.dist(v, u), u)
                if not tail < best_tail:
                    continue
                best_tail = tail
        best_u, best_eff, best_abs, best_oc, best_hop = u, eff, eff_abs, oc, hop

    if best_u is None:
        return NodeState(parent=None, cost=oc_max, hop=h_max)
    return NodeState(parent=best_u, cost=best_oc, hop=best_hop + 1)


def guard_violated(
    topo: Topology,
    metric: CostMetric,
    view: NodeView,
    v: NodeId,
) -> bool:
    """Whether ``v``'s current state differs from what the rule computes."""
    return not view.state_of(v).approx_equals(
        compute_update(topo, metric, view, v), tol=COST_TOL
    )
