"""The four cost metrics of the paper (section 4).

All metrics expose the same interface:

* ``join_cost(view, v, u)`` — the overhead cost ``oc(v, u) = oc_u +
  deltaE_u(v)`` of node ``v`` choosing ``u`` as its parent, where
  ``deltaE_u(v)`` is "the energy cost difference experienced by node u with
  and without v as its child" (section 5).  When ``v`` already is ``u``'s
  child the marginal is computed against ``u``-without-``v``, so staying
  and switching are compared fairly.  ``pricer(view, v)`` is the same
  price as a function of the candidate (its id and the state the rule
  already read) for one evaluation of ``v``: what depends only on ``v``
  is read once, and transmit energies come from the view's
  :class:`~repro.core.views.CostMemo`.
* ``node_cost(...)`` / ``tree_cost(topo, tree)`` — the static cost of a
  settled tree (the quantity Lemma 1/2 reason about).
* ``infinity(topo)`` — the ``OC_max`` assigned to disconnected nodes;
  strictly larger than any achievable tree cost.

Energy quantities are **joules per data bit**: the radio's transmit cost
per bit at the power-controlled radius, and the constant per-bit reception
cost.  Scaling by the data-packet size multiplies every metric by the same
constant and never changes an argmin, so per-bit units are used throughout.

The metric-specific node costs are:

=========  =================================================================
SS-SPST    hop count (``C_v`` is the path length; tree cost = sum of depths)
SS-SPST-T  sum over tree links of per-link transmit energy  (eq. 1)
SS-SPST-F  ``E_tx(r_v) + n_v * E_rx`` with ``r_v`` = distance to the
           costliest tree child, ``n_v`` = number of tree children (eq. 2)
SS-SPST-E  ``E_tx(r_v) + n'_v * E_rx + D_v`` with ``r_v`` over *flagged*
           children only and the discard energy ``D_v = (N_v(r_v) - n'_v) *
           E_rx`` for the non-intended neighbors inside the transmission
           range (eq. 3-4).  Algebraically ``C_v = E_tx(r_v) + N_v(r_v) *
           E_rx``: the transmitter's energy plus reception energy of
           *everyone* who hears it, intended or not.
=========  =================================================================
"""

from __future__ import annotations

import abc
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.core.state import NodeState
from repro.core.views import NodeView
from repro.energy.radio import RadioModel
from repro.graph.topology import Topology
from repro.graph.tree import TreeAssignment
from repro.util.ids import NodeId

#: ``(u, state_of(u)) -> oc(v, u)`` for one evaluating node ``v``
Pricer = Callable[[NodeId, NodeState], float]


class CostMetric(abc.ABC):
    """Common interface for tree-cost metrics."""

    #: short name used in configs, reports and protocol variants
    name: str = "?"
    #: relative route-flap damping applied by the round-model update rule:
    #: an alternative parent must beat the incumbent's cost by this
    #: margin (multiplicative, hence scale-invariant) before the node
    #: switches.  0 for metrics that are exact potential games (hop, tx
    #: — every improving move strictly decreases a global potential, so
    #: no damping is needed and none is wanted: any margin would cost
    #: optimality).  The child-coupled F/E metrics are *not* potential
    #: games — one node's move re-prices others' marginals — and their
    #: best-response dynamics admit genuine limit cycles that no
    #: activation order escapes; they set a deliberate margin (see
    #: ``docs/convergence.md`` for the damping argument).
    switch_hysteresis: float = 0.0
    #: True when a node's *path* cost depends on its own child set (only
    #: SS-SPST-E: member flags propagate up the chain), in which case the
    #: update rule must re-price candidate paths without the joining node
    #: (see :meth:`repro.core.views.NodeView.path_cost_excluding`).
    path_couples_to_children: bool = False
    #: extra beacon bytes this metric requires beyond the base beacon
    #: (SS-SPST-E "sends additional information in its beacon packet")
    beacon_extra_bytes_per_neighbor: int = 0
    beacon_extra_bytes_fixed: int = 0
    #: how far (in graph hops) one node's state change can reach into
    #: *other* nodes' next update, used by the incremental (dirty-set)
    #: executors to decide who must be re-evaluated.  1 = a node's update
    #: reads only its neighbors' advertised states (hop, tx); metrics
    #: whose join cost also reads neighbors' children sets extend the
    #: reach by one hop around the endpoints of a moved parent pointer
    #: (farthest keeps radius 1 because the executors seed the closure
    #: with both parent endpoints).  Chain-coupled metrics
    #: (``path_couples_to_children``) additionally seed the closure with
    #: the *subtrees* of every touched tree position, using the flag-flip
    #: reports of :meth:`repro.core.views.GlobalView.apply` — see
    #: ``_IncrementalBase._affected``.  ``None`` = globally coupled with
    #: no localization at all: every node stays dirty while the system
    #: moves (an escape hatch for custom metrics; none of the paper's
    #: four needs it).
    dependency_radius: Optional[int] = 1

    def __init__(self, radio: RadioModel) -> None:
        self.radio = radio
        self.e_rx = radio.rx_energy(1.0)  # J per bit received
        # OC_max per topology (the update rule reads it on every single
        # evaluation; the energy variants scan the whole distance matrix
        # to compute it, which must not be paid per node per round).
        self._infinity_cache: "weakref.WeakKeyDictionary[Topology, float]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def etx(self, distance: float) -> float:
        """Per-bit transmit energy at the given power-controlled radius."""
        return self.radio.tx_cost_per_bit(distance)

    def view_etx(self, view: NodeView) -> Callable[[float], float]:
        """:meth:`etx` memoized on ``view`` by the exact float radius."""
        memo = view.cost_memo(self).etx
        etx = self.etx

        def etx_on_view(radius: float) -> float:
            e = memo.get(radius)
            if e is None:
                e = memo[radius] = etx(radius)
            return e

        return etx_on_view

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pricer(self, view: NodeView, v: NodeId) -> Pricer:
        """``(u, state_of(u)) -> oc(v, u)`` for one evaluation of ``v`` on
        ``view``.

        Terms that depend only on ``v`` are read once, when the pricer is
        made, and the caller hands over the candidate's state it already
        read; the view must not change while the pricer is in use.
        """

    def join_cost(self, view: NodeView, v: NodeId, u: NodeId) -> float:
        """``oc(v, u)``: cost of ``v`` adopting ``u`` as parent."""
        return self.pricer(view, v)(u, view.state_of(u))

    @abc.abstractmethod
    def tree_cost(self, topo: Topology, tree: TreeAssignment) -> float:
        """Static total cost of a settled tree."""

    def infinity(self, topo: Topology) -> float:
        """``OC_max`` for disconnected nodes (exceeds any tree cost).

        Cached per topology (weakly, so topologies are not kept alive):
        the value is a pure function of the distance matrix, which is
        immutable for the lifetime of a :class:`Topology`.
        """
        cached = self._infinity_cache.get(topo)
        if cached is not None:
            return cached
        d_max = getattr(topo, "max_edge_dist", None)
        if d_max is None:
            finite = topo.dist[np.isfinite(topo.dist)]
            d_max = float(finite.max()) if finite.size else 1.0
        elif d_max <= 0.0:
            d_max = 1.0
        per_node = self.etx(d_max) + topo.n * self.e_rx
        out = (topo.n + 1) * per_node + 1.0
        self._infinity_cache[topo] = out
        return out


class HopMetric(CostMetric):
    """SS-SPST: plain hop count (the baseline the paper improves on)."""

    name = "hop"

    def pricer(self, view: NodeView, v: NodeId) -> Pricer:
        return lambda u, su: su.cost + 1.0

    def tree_cost(self, topo: Topology, tree: TreeAssignment) -> float:
        connected = tree.connected_nodes()
        return float(sum(tree.depth(v) for v in connected))

    def infinity(self, topo: Topology) -> float:
        # Exceeds any path cost (<= n) and any total tree cost (<= n^2/2).
        return float(topo.n * topo.n + 1)


class TxEnergyMetric(CostMetric):
    """SS-SPST-T: link-based transmission energy (eq. 1).

    Ignores the wireless multicast advantage: every link is priced as if it
    required its own transmission.
    """

    name = "tx"

    def pricer(self, view: NodeView, v: NodeId) -> Pricer:
        dist = view.dist
        etx = self.view_etx(view)
        return lambda u, su: su.cost + etx(dist(v, u))

    def tree_cost(self, topo: Topology, tree: TreeAssignment) -> float:
        return float(
            sum(self.etx(float(topo.dist[p, v])) for p, v in tree.edges())
        )


class FarthestChildMetric(CostMetric):
    """SS-SPST-F: node cost from the costliest (farthest) tree child (eq. 2).

    One transmission reaching the farthest child covers all children
    (wireless multicast advantage); each child additionally pays reception.
    """

    name = "farthest"
    beacon_extra_bytes_fixed = 6  # radius, second radius, costliest child id
    # F couples join costs to the child set (one node's move changes
    # another's marginal), so improving moves are not a potential descent
    # and fixed-order schedules can cycle; damp switches by a relative
    # margin (the same route-flap mechanism the DES agents use).
    switch_hysteresis = 0.05

    def pricer(self, view: NodeView, v: NodeId) -> Pricer:
        dist, radius_without = view.dist, view.radius_without
        etx = self.view_etx(view)
        e_rx = self.e_rx

        def join_cost(u: NodeId, su: NodeState) -> float:
            # u's marginal for having v as a child; a silent u (radius 0)
            # transmits nothing
            d = dist(v, u)
            r_without = radius_without(u, v, False)
            r_with = max(r_without, d)
            e_with = 0.0 if r_with <= 0.0 else etx(r_with)
            e_without = 0.0 if r_without <= 0.0 else etx(r_without)
            return su.cost + ((e_with - e_without) + e_rx)

        return join_cost

    def node_cost(self, topo: Topology, tree: TreeAssignment, u: NodeId) -> float:
        children = tree.children()[u]
        if not children:
            return 0.0
        radius = max(float(topo.dist[u, c]) for c in children)
        return self.etx(radius) + len(children) * self.e_rx

    def tree_cost(self, topo: Topology, tree: TreeAssignment) -> float:
        return float(sum(self.node_cost(topo, tree, u) for u in range(topo.n)))


class EnergyAwareMetric(FarthestChildMetric):
    """SS-SPST-E: the paper's contribution (eq. 3-4).

    Extends the F metric in two ways:

    * only *flagged* children (member in subtree) are data receivers, so a
      node whose children are all pruned transmits nothing;
    * the discard energy of every non-intended neighbor inside the
      transmission radius is charged to the transmitting node, steering the
      tree away from dense non-member neighborhoods (Figure 5).
    """

    name = "energy"
    # Member flags and chain re-pricing couple a node's update to the
    # ancestor chains of its candidates.  Inverted, a change is read
    # exactly by the subtrees of the touched tree positions — the
    # executors seed the dirty closure with those subtrees (derived from
    # the flag flips GlobalView.apply reports), then extend one hop.
    dependency_radius = 1
    # E beacons additionally carry the sender's neighbor-distance list so
    # joiners can evaluate the discard term; distances are quantized to one
    # byte each (range/255 buckets) — full floats would make the beacon
    # energy swamp the discard savings the metric buys.
    beacon_extra_bytes_fixed = 8
    beacon_extra_bytes_per_neighbor = 1

    path_couples_to_children = True

    def view_node_cost(self, view: NodeView) -> Callable[[NodeId, float], float]:
        """``(u, radius) -> C_u`` at a hypothetical data radius on ``view``:
        tx + everyone-in-range rx.

        Memoized on the view by ``(u, radius)``, with the transmit energy
        memoized by radius (:meth:`~repro.core.views.NodeView.cost_memo`):
        a round-model view keeps its values for the whole run (its
        topology is static), a beacon-table view for its one tick.  Chain
        pricing evaluates this at every ancestor and hits the memo.
        """
        memo = view.cost_memo(self)
        costs, etxs = memo.node_cost, memo.etx
        etx, count_in_range, e_rx = self.etx, view.count_in_range, self.e_rx

        def node_cost(u: NodeId, radius: float) -> float:
            if radius <= 0.0:
                return 0.0
            key = (u, radius)
            val = costs.get(key)
            if val is None:
                e = etxs.get(radius)
                if e is None:
                    e = etxs[radius] = etx(radius)
                val = costs[key] = e + count_in_range(u, radius) * e_rx
            return val

        return node_cost

    #: weight of the shadow price charged to unflagged (pruned) joiners.
    #: A pruned node imposes no *data* cost (the paper's semantics, and the
    #: default).  Setting a small positive value charges free-riders a
    #: fraction of the true marginal, which shortens the long pruned chains
    #: they otherwise form — measured across seeds this does not improve
    #: delivery, so it stays off; the knob exists for the ablation bench.
    UNFLAGGED_SHADOW = 0.0

    def pricer(self, view: NodeView, v: NodeId) -> Pricer:
        # Price u's path in the v-detached world, with v's flag attached
        # (lighting up a pruned branch charges the whole chain), then add
        # u's own marginal cost for covering v.  See NodeView.path_pricer.
        v_flag = view.flag_excluding(v, v)
        path_price = view.path_pricer(v, v_flag, self)
        radius_without, dist = view.radius_without, view.dist
        node_cost = self.view_node_cost(view)
        shadow = self.UNFLAGGED_SHADOW

        def join_cost(u: NodeId, su: NodeState) -> float:
            price = path_price(u)
            r_without = radius_without(u, v, True)
            d = dist(v, u)
            if d <= r_without:  # v already covered: marginal exactly zero
                marginal = 0.0
            else:
                marginal = node_cost(u, d) - node_cost(u, r_without)
            if not v_flag:
                # An unflagged child imposes no data-forwarding obligation;
                # it either already overhears (within r) or simply isn't
                # covered.
                return price + shadow * marginal
            return price + marginal

        return join_cost

    def node_cost(self, topo: Topology, tree: TreeAssignment, u: NodeId) -> float:
        radius = tree.data_tx_radius(u)
        if radius <= 0.0:
            return 0.0
        heard = len(topo.neighbors_within(u, radius))
        return self.etx(radius) + heard * self.e_rx

    def discard_cost(self, topo: Topology, tree: TreeAssignment, u: NodeId) -> float:
        """The ``D_u`` component alone (eq. 3), for reporting/ablations."""
        radius = tree.data_tx_radius(u)
        if radius <= 0.0:
            return 0.0
        heard = len(topo.neighbors_within(u, radius))
        intended = len(tree.flagged_children().get(u, []))
        return max(heard - intended, 0) * self.e_rx

    def tree_discard_cost(self, topo: Topology, tree: TreeAssignment) -> float:
        """Total discard energy of the (pruned) tree per data bit."""
        return float(sum(self.discard_cost(topo, tree, u) for u in range(topo.n)))


#: canonical metric order used across experiments and reports
METRIC_NAMES = ("hop", "tx", "farthest", "energy")

_REGISTRY: Dict[str, Type[CostMetric]] = {
    "hop": HopMetric,
    "tx": TxEnergyMetric,
    "farthest": FarthestChildMetric,
    "energy": EnergyAwareMetric,
}

#: mapping from metric name to the protocol label used in the paper
PROTOCOL_LABELS = {
    "hop": "SS-SPST",
    "tx": "SS-SPST-T",
    "farthest": "SS-SPST-F",
    "energy": "SS-SPST-E",
}

#: protocol name -> cost metric name: the SS-SPST family, in the paper's
#: order.  The one table the protocol registry, the group models, the
#: rounds backend and the figures read (the on-demand baselines are not
#: in it: they have no cost metric, no round-model and no multi-group
#: realization).
SS_PROTOCOL_METRICS: Dict[str, str] = {
    label.lower(): metric for metric, label in PROTOCOL_LABELS.items()
}


def metric_by_name(name: str, radio: RadioModel) -> CostMetric:
    """Instantiate a metric by its short name ('hop', 'tx', 'farthest', 'energy')."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(radio)
