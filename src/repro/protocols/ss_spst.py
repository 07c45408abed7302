"""The SS-SPST protocol family on the DES substrate.

One agent class implements all four variants; the cost metric is plugged
in (hop -> SS-SPST, tx -> SS-SPST-T, farthest -> SS-SPST-F, energy ->
SS-SPST-E).  Operation (paper sections 2-3):

* every node broadcasts a **beacon** each beacon interval carrying its
  link and node characteristics (position, protocol state, radius/flag
  bookkeeping, and — for SS-SPST-E — the neighbor-distance list and the
  telescoped path-price pair that lets joiners evaluate lighting up a
  pruned branch);
* neighbors integrate beacons into a soft-state table; a missing beacon
  for ``timeout`` seconds is sensed as a disconnection (a fault);
* on its own beacon tick each node runs the guarded update rule against a
  :class:`LocalView` assembled purely from the table — the distributed
  realization of the round model in :mod:`repro.core.rounds`;
* data flows down the tree: a node accepts data from its parent, delivers
  locally if it is a member, and re-broadcasts with transmission power
  reaching its farthest *flagged* child (power control + pruning).

The LocalView honours the same :class:`~repro.core.views.NodeView`
interface the round model uses, so the metric code is literally shared
between the proof-oriented round executor and the packet-level protocol.

Cost of a tick: the view measures the distance to every neighbour in one
vector ``np.hypot`` (:meth:`NeighborTable.distances_from`, bit for bit
the scalar ``np.hypot`` of :meth:`NeighborInfo.distance_from`), and the
tick's beacon reuses those distances for its radius bookkeeping, its
price pair and its ``nbr_dists``: one instant, one position, one table.
A received beacon is filed once: its position becomes one float array
and its payload dict is stored as sent, shared by every receiver's table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.daemons import DES_DAEMON_NAMES
from repro.core.metrics import CostMetric
from repro.core.rules import COST_TOL, compute_update_local
from repro.core.state import NodeState
from repro.core.views import NodeView
from repro.net.neighbors import NeighborInfo, NeighborTable
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.protocols.base import MulticastAgent
from repro.sim.timers import PeriodicTimer
from repro.util.ids import NodeId

#: base beacon size in bytes (position, ids, state variables)
BASE_BEACON_BYTES = 28
#: uniform jitter on each beacon tick of the randomized disciplines
#: (de-synchronization)
BEACON_JITTER = 0.25
#: neighbor expiry timeout as a multiple of the beacon interval
MISS_FACTOR = 2.5
#: fractional margin added to data transmission radii to survive child
#: movement within a beacon interval
RANGE_MARGIN = 0.10


@dataclass(frozen=True)
class SSSPSTConfig:
    """Protocol tuning.

    beacon_interval:
        Seconds between beacons (the paper's headline knob; default 2 s).
    switch_threshold:
        Route-flap damping: an alternative parent must beat the incumbent
        by this relative cost margin (beacon state is up to one interval
        stale, so marginal-cost comparisons are noisy).
    hold_down_intervals:
        After a voluntary parent switch the node keeps the new parent for
        this many beacon intervals before considering another voluntary
        switch (it still reacts immediately to losing the parent).  The
        F/E metrics couple every node's marginal costs to its neighbors'
        child sets, so un-damped distributed evaluation cascades into
        network-wide churn — the classic hold-down timer bounds it.
    activation:
        Which activation daemon the beacon clocks realize (the DES
        counterpart of :mod:`repro.core.daemons`):

        * ``"distributed"`` / ``"randomized"`` — independent clocks with
          random phase plus :data:`BEACON_JITTER` (the classic MANET setting
          and the historical default; both names map to the identical
          discipline, since independent jittered clocks *are* a random
          activation order);
        * ``"synchronous"`` — lockstep ticks (zero phase, zero jitter):
          every node computes from the same stale snapshot and all
          beacons contend at once;
        * ``"central"`` — ticks staggered in id order across the beacon
          interval (zero jitter): a serialized update schedule;
        * ``"weakly-fair"`` — random phase with heavy (half-interval)
          jitter: activation delays vary widely but stay bounded.
    """

    beacon_interval: float = 2.0
    switch_threshold: float = 0.10
    hold_down_intervals: float = 3.0
    activation: str = "distributed"

    def __post_init__(self) -> None:
        if self.beacon_interval <= 0:
            raise ValueError("invalid SS-SPST configuration")
        if self.switch_threshold < 0 or self.hold_down_intervals < 0:
            raise ValueError("switch_threshold/hold_down must be non-negative")
        # the beacon disciplines with a DES realization (the adversarial
        # daemon is round-model only)
        if self.activation not in DES_DAEMON_NAMES:
            raise ValueError(
                f"unknown activation {self.activation!r}; choose from "
                f"{DES_DAEMON_NAMES}"
            )


#: how campaigns reach every SSSPSTConfig knob — the machine-readable
#: binding contract enforced by ``repro.lint`` (rule H204).  A knob is
#: ``config:<field>`` (driven verbatim by a hashed ScenarioConfig
#: field), ``derived:<field>`` (computed from one at agent construction
#: — see ``make_agent_factory``, which picks damping by protocol name),
#: or ``fixed`` (a protocol-internal constant campaigns never vary).
#: The point: an SSSPSTConfig knob outside this table could change run
#: behavior without ever forking the config-hash cache key.
CAMPAIGN_BINDINGS = {
    "beacon_interval": "config:beacon_interval",
    "switch_threshold": "derived:protocol",
    "hold_down_intervals": "derived:protocol",
    "activation": "config:daemon",
}


class LocalView(NodeView):
    """NodeView assembled from one node's beacon table (no global state).

    A view serves one beacon tick: one instant, one position of the node
    and one table.  At construction it takes every neighbour's advertised
    state (``states``) and its distance (``dists``, one vector
    ``np.hypot``) from the table; it builds each neighbour's
    :class:`NodeState` once, on first use.  Its
    :meth:`~repro.core.views.NodeView.cost_memo` (transmit energies by
    radius, SS-SPST-E node costs by neighbour and radius) lives for this
    one tick too.  Nothing is kept across ticks: the node's own position
    moves between them and the table changes.
    """

    def __init__(self, agent: "SSSPSTAgent") -> None:
        super().__init__()
        self.agent = agent
        self.me = agent.node.id
        self.table = agent.table
        self.my_pos = agent.node.position
        self.my_state = agent.state
        self.my_flag = agent.flag
        #: neighbour id -> its advertised beacon state
        self.states = self.table.states()
        #: neighbour id -> distance from ``my_pos`` to its advertised position
        self.dists = self.table.distances_from(self.my_pos)
        self._node_states: Dict[NodeId, NodeState] = {}

    # ------------------------------------------------------------------
    def neighbors_of(self, v: NodeId) -> List[NodeId]:
        assert v == self.me, "a local view only evaluates its own node"
        me = self.me
        # Skip neighbors claiming me as parent: choosing my own child as
        # parent would form an instant 2-cycle.
        return [nid for nid, st in self.states.items() if st.get("parent") != me]

    def state_of(self, u: NodeId) -> NodeState:
        if u == self.me:
            return self.my_state
        state = self._node_states.get(u)
        if state is None:
            st = self.states[u]
            state = NodeState(parent=st["parent"], cost=st["cost"], hop=st["hop"])
            self._node_states[u] = state
        return state

    def dist(self, v: NodeId, u: NodeId) -> float:
        assert v == self.me
        d = self.dists.get(u)
        if d is None:  # no advertised position: distance_from raises
            return self.table.get(u).distance_from(self.my_pos)
        return d

    def flag_of(self, u: NodeId) -> bool:
        if u == self.me:
            return self.my_flag
        return bool(self.states[u].get("flag", False))

    def flag_excluding(self, u: NodeId, v: NodeId) -> bool:
        # Detaching v from its parent never changes v's own subtree flag.
        if u == v:
            return self.my_flag if u == self.me else self.flag_of(u)
        st = self.states[u]
        if not st.get("flag", False):
            return False
        return st.get("sole_flag_cause") != v

    def radius_pricer(self, v: NodeId, flagged_only: bool) -> Callable[[NodeId], float]:
        states, radius_from_tops, exclude = self.states, self._radius_from_tops, (v,)
        return lambda u: radius_from_tops(states[u], exclude, flagged_only)

    @staticmethod
    def _radius_from_tops(st: Dict, exclude, flagged_only: bool) -> float:
        """Radius over u's (flagged) children excluding given ids.

        Exact even though beacons truncate the list: excluding a child that
        did not make the top entries cannot lower the maximum.
        """
        for d, n in st["r_flag_tops" if flagged_only else "r_all_tops"]:
            if n not in exclude:
                return float(d)
        return 0.0

    def count_in_range(self, u: NodeId, radius: float) -> int:
        if radius <= 0.0:
            return 0
        dists = self.states[u].get("nbr_dists")
        if dists is None:
            return 0
        return bisect.bisect_right(dists, radius + 1e-12)

    def path_pricer(self, v: NodeId, v_flag: bool, metric) -> Callable[[NodeId], float]:
        """One-level telescoped form of the round model's chain walk.

        Beacons carry the pair (cost_flagged, cost_unflagged) each node
        derives from its parent's beacon, so lighting up a pruned branch
        is priced without any global knowledge.  When the candidate ``u``
        shares ``v``'s current parent, ``u``'s advertised cost embeds the
        parent's radius *with v attached*; the shared-parent correction
        below re-prices that marginal in the v-detached world (without it,
        sibling evaluations chase their own attachment and flip-flop
        forever — the DES analogue of GlobalView.path_pricer's exact walk).
        """
        if not getattr(metric, "path_couples_to_children", False):
            state_of = self.state_of
            return lambda u: state_of(u).cost
        states = self.states

        def price(u: NodeId) -> float:
            st = states[u]
            flagged_without_v = st.get("flag", False) and st.get("sole_flag_cause") != v
            if st.get("member", False):
                flagged_without_v = True
            if flagged_without_v:
                base = float(st["cost"])
            elif v_flag:
                base = float(st.get("cost_flagged", st["cost"]))
            else:
                base = float(st.get("cost_unflagged", st["cost"]))
            return base + self._shared_parent_correction(u, v, st, metric)

        return price

    def _shared_parent_correction(self, u: NodeId, v: NodeId, st_u: Dict, metric) -> float:
        """Re-price delta_p(u) without v when u and v share parent p."""
        p = st_u.get("parent")
        if p is None or p != self.my_state.parent:
            return 0.0
        info_p = self.table.get(p)
        info_u = self.table.get(u)
        if info_p is None or info_p.position is None or info_u.position is None:
            return 0.0
        st_p = info_p.state
        if not st_u.get("flag", False):
            return 0.0  # unflagged u imposed no marginal on p anyway
        d_pu = float(
            ((info_p.position[0] - info_u.position[0]) ** 2
             + (info_p.position[1] - info_u.position[1]) ** 2) ** 0.5
        )
        # p's node cost, as its beacon's neighbour distances count it
        node_cost = metric.view_node_cost(self)

        def delta(r_wo: float) -> float:
            return node_cost(p, max(r_wo, d_pu)) - node_cost(p, r_wo)

        r_wo_u = self._radius_from_tops(st_p, (u,), flagged_only=True)
        r_wo_uv = self._radius_from_tops(st_p, (u, v), flagged_only=True)
        return delta(r_wo_uv) - delta(r_wo_u)


class SSSPSTAgent(MulticastAgent):
    """One SS-SPST-family node."""

    def __init__(
        self,
        node: Node,
        metric: CostMetric,
        config: Optional[SSSPSTConfig] = None,
        n_nodes: Optional[int] = None,
        group_id: int = 0,
    ) -> None:
        super().__init__(node, group_id)
        self.metric = metric
        self.config = config or SSSPSTConfig()
        self.n_nodes = n_nodes if n_nodes is not None else node.network.n
        self.table = NeighborTable(
            timeout=MISS_FACTOR * self.config.beacon_interval
        )
        self.oc_max = self._oc_max()
        self.h_max = self.n_nodes
        if self.is_source:
            self.state = NodeState(parent=None, cost=0.0, hop=0)
        else:
            self.state = NodeState(parent=None, cost=self.oc_max, hop=self.h_max)
        self.flag = self.is_member
        self._beacon_seq = 0
        self._timer: Optional[PeriodicTimer] = None
        self._hold_until = -1.0
        self.parent_changes = 0  # stability accounting (SS-SPST-F analysis)
        # Apply-style maintenance of the derived beacon-view structures
        # (mirroring GlobalView.apply in the round model): the children
        # map and the flagged-children set are patched as beacons arrive
        # and entries expire, instead of re-scanning the whole neighbor
        # table on every tick / radius query / flag refresh.
        self._child_infos: Dict[NodeId, NeighborInfo] = {}
        self._flagged_children: Set[NodeId] = set()

    # ------------------------------------------------------------------
    def _oc_max(self) -> float:
        """Scenario-constant OC_max (cf. metric.infinity for topologies)."""
        radio = self.network.radio
        per_node = self.metric.etx(radio.max_range) + self.n_nodes * self.metric.e_rx
        return (self.n_nodes + 1) * max(per_node, 1.0) + 1.0

    def start(self) -> None:
        interval = self.config.beacon_interval
        # Group 0 keeps the historical stream label draw-for-draw (the
        # single-group bit-identity contract); extra groups get their own
        # independent beacon substreams.
        if self.group_id == 0:
            stream = self.network.streams.derive("beacon", self.node.id)
        else:
            stream = self.network.streams.derive(
                "beacon", self.node.id, self.group_id
            )
        activation = self.config.activation
        if activation in ("distributed", "randomized"):
            # Historical default, draw-for-draw: random phase + jitter.
            jitter = BEACON_JITTER
            offset = float(stream.uniform(0.0, interval))
        elif activation == "weakly-fair":
            jitter = 0.5 * interval
            offset = float(stream.uniform(0.0, interval))
        elif activation == "synchronous":
            jitter = 0.0
            offset = 0.0
        else:  # central: id-order serialization across the interval
            jitter = 0.0
            offset = (self.node.id / max(self.n_nodes, 1)) * interval
        self._timer = PeriodicTimer(
            self.sim,
            interval,
            self._tick,
            jitter=jitter,
            rng=stream,
            start_offset=offset,
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def on_node_death(self) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Periodic behaviour
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.node.alive:
            return
        now = self.sim.now
        for nid in self.table.expire(now):
            self._sync_child(nid, None)
        if self.state.parent is not None and self.state.parent not in self.table:
            # Parent beacon missing: sensed disconnection (a fault).
            self._set_state(NodeState(None, self.oc_max, self.h_max))
        self._refresh_flag()
        view = LocalView(self)
        self._run_rule(view)
        # same instant, same position, same table: the beacon reuses the
        # view's distances
        self._broadcast_beacon(view.dists)

    def _sync_child(self, nid: NodeId, info: Optional[NeighborInfo]) -> None:
        """Patch the children/flag structures for one neighbor's new state
        (``info is None`` = the neighbor expired or was forgotten)."""
        if info is not None and info.state.get("parent") == self.node.id:
            self._child_infos[nid] = info
            if info.state.get("flag", False):
                self._flagged_children.add(nid)
            else:
                self._flagged_children.discard(nid)
        else:
            self._child_infos.pop(nid, None)
            self._flagged_children.discard(nid)

    def _children(self) -> List[NeighborInfo]:
        return list(self._child_infos.values())

    def _refresh_flag(self) -> None:
        self.flag = self.is_member or bool(self._flagged_children)

    def _run_rule(self, view: LocalView) -> None:
        new_state = compute_update_local(
            self.metric,
            view,
            self.node.id,
            is_root=self.is_source,
            h_max=self.h_max,
            oc_max=self.oc_max,
            hysteresis=self.config.switch_threshold,
        )
        # Hold-down: a *voluntary* switch away from a still-alive parent is
        # suppressed until the hold-down expires; disconnection (parent
        # expired, handled in _tick) and first joins always pass.
        voluntary = (
            new_state.parent != self.state.parent
            and self.state.parent is not None
            and self.state.parent in self.table
        )
        if voluntary and self.sim.now < self._hold_until:
            # Keep the incumbent but refresh cost/hop from the view.
            info = self.table.get(self.state.parent)
            if info is not None:
                oc = self.metric.join_cost(view, self.node.id, self.state.parent)
                hop = min(info.state["hop"] + 1, self.h_max)
                new_state = NodeState(self.state.parent, oc, hop)
        self._set_state(new_state)

    def _set_state(self, new_state: NodeState) -> None:
        if new_state.parent != self.state.parent:
            self.parent_changes += 1
            self._hold_until = self.sim.now + (
                self.config.hold_down_intervals * self.config.beacon_interval
            )
        self.state = new_state

    # ------------------------------------------------------------------
    # Beaconing
    # ------------------------------------------------------------------
    #: how many per-child (distance, id) entries a beacon carries for each
    #: radius list; removing any child not in the top entries cannot change
    #: the radius, so truncation stays exact for radius queries.
    TOPS = 4

    def _radius_bookkeeping(self, dists: Dict[NodeId, float]) -> Dict[str, object]:
        """Radius bookkeeping over all / flagged children, from the table.

        Beacons advertise the top-``TOPS`` child distances (descending) for
        both child sets so neighbors can evaluate radii with *any* child
        excluded — needed both for fair incumbent comparisons and for the
        shared-parent price correction in :meth:`LocalView.path_pricer`.
        ``dists`` are this tick's neighbour distances
        (:meth:`NeighborTable.distances_from`).
        """
        all_pairs = []
        flag_pairs = []
        for info in self._children():
            d = dists[info.node]
            all_pairs.append((d, info.node))
            if info.state.get("flag", False):
                flag_pairs.append((d, info.node))
        out: Dict[str, object] = {}
        for key, pairs in (("r_all_tops", all_pairs), ("r_flag_tops", flag_pairs)):
            pairs.sort(reverse=True)
            out[key] = pairs[: self.TOPS]
        flagged_children = [n for _, n in flag_pairs]
        out["sole_flag_cause"] = (
            flagged_children[0]
            if (not self.is_member and len(flagged_children) == 1)
            else None
        )
        return out

    def _price_pair(self, dists: Dict[NodeId, float]) -> Dict[str, float]:
        """The telescoped (cost_flagged, cost_unflagged) pair for E;
        ``dists`` as in :meth:`_radius_bookkeeping`."""
        if not self.metric.path_couples_to_children:
            return {}
        if self.is_source:
            return {"cost_flagged": 0.0, "cost_unflagged": 0.0}
        p = self.state.parent
        info = self.table.get(p) if p is not None else None
        if info is None:
            return {"cost_flagged": self.oc_max, "cost_unflagged": self.oc_max}
        st = info.state
        me = self.node.id
        p_flagged_wo_me = st.get("member", False) or (
            st.get("flag", False) and st.get("sole_flag_cause") != me
        )
        price_f = st["cost"] if p_flagged_wo_me else st.get("cost_flagged", st["cost"])
        price_u = st["cost"] if p_flagged_wo_me else st.get("cost_unflagged", st["cost"])
        # Parent's marginal for covering me when I am flagged.
        d = dists[p]
        r_wo = LocalView._radius_from_tops(st, (me,), True)
        r_with = max(r_wo, d)
        dists = st.get("nbr_dists") or []
        cnt_with = bisect.bisect_right(dists, r_with + 1e-12)
        cnt_wo = bisect.bisect_right(dists, r_wo + 1e-12) if r_wo > 0 else 0
        cost_at = lambda r, c: 0.0 if r <= 0 else self.metric.etx(r) + c * self.metric.e_rx
        delta = cost_at(r_with, cnt_with) - cost_at(r_wo, cnt_wo)
        return {
            "cost_flagged": float(price_f) + delta,
            "cost_unflagged": float(price_u),
        }

    def _beacon_size(self) -> int:
        return (
            BASE_BEACON_BYTES
            + self.metric.beacon_extra_bytes_fixed
            + self.metric.beacon_extra_bytes_per_neighbor * len(self.table)
        )

    def _broadcast_beacon(self, dists: Dict[NodeId, float]) -> None:
        """Beacon this tick's state; ``dists`` as in
        :meth:`_radius_bookkeeping`."""
        pos = self.node.position
        payload: Dict[str, object] = {
            "pos": (float(pos[0]), float(pos[1])),
            "parent": self.state.parent,
            "cost": self.state.cost,
            "hop": self.state.hop,
            "flag": self.flag,
            "member": self.is_member,
            **self._radius_bookkeeping(dists),
            **self._price_pair(dists),
        }
        if self.metric.beacon_extra_bytes_per_neighbor:
            payload["nbr_dists"] = sorted(dists.values())
        self.send_control(
            PacketKind.BEACON,
            self._beacon_size(),
            payload,
            seq=self._beacon_seq,
        )
        self._beacon_seq += 1

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> bool:
        if packet.group != self.group_id:
            return False  # another session's frames: overheard garbage
        if packet.kind is PacketKind.BEACON:
            info = self.table.update(
                packet.src,
                now=self.sim.now,
                position=packet.payload["pos"],
                state=packet.payload,
            )
            self._sync_child(packet.src, info)
            return True
        if packet.kind is PacketKind.DATA:
            return self._handle_data(packet)
        return False  # frames of other protocols: overheard garbage

    def _handle_data(self, packet: Packet) -> bool:
        if packet.src != self.state.parent:
            return False  # not from my parent: overhearing -> discard
        if self.dups.seen_before(packet.flow_key):
            return False
        useful = False
        if self.is_member:
            self.deliver_locally(packet)
            useful = True
        if self._forward_data(packet):
            useful = True
        return useful

    def _forward_data(self, packet: Packet) -> bool:
        radius = self._data_radius()
        if radius <= 0.0:
            return False
        self.node.send(packet.relay(self.node.id), radius)
        return True

    def _data_radius(self) -> float:
        """Power-controlled radius: farthest flagged child, with margin."""
        # read even with no flagged child: it can be the instant's first
        # mobility evaluation, which the trajectory depends on
        pos = self.node.position
        radius = 0.0
        infos = self._child_infos
        for nid in self._flagged_children:
            radius = max(radius, infos[nid].distance_from(pos))
        if radius <= 0.0:
            return 0.0
        return min(radius * (1.0 + RANGE_MARGIN), self.max_range)

    def _send_fresh_data(self, packet: Packet) -> None:
        radius = self._data_radius()
        if radius > 0.0:
            self.node.send(packet, radius)
