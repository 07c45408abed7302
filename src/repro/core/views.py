"""Information views the update rule reads.

The self-stabilizing rule at node ``v`` only needs *local* information about
each neighbor ``u``:

* ``u``'s advertised state (cost, hop),
* the distance ``d(v, u)``,
* ``u``'s current data-transmission radius — and what that radius would be
  *without v as a child* (so a node can evaluate "stay with my parent"
  against alternatives fairly),
* how many of ``u``'s neighbors sit within a given radius (the
  discard-energy term of SS-SPST-E).

:class:`GlobalView` provides these from a :class:`~repro.graph.topology.Topology`
plus a :class:`~repro.core.state.StateVector` (the round model, where a
"round" delivers every neighbor's beacon).  The DES protocol builds the
same view from received beacon payloads (:mod:`repro.protocols.ss_spst`).
"""

from __future__ import annotations

import abc
from bisect import bisect_left, insort
from typing import Callable, Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.state import NodeState, derive_children, derive_flags
from repro.graph.topology import Topology
from repro.util.ids import NodeId


class CostMemo:
    """One metric's radio terms on one view, keyed on their exact inputs.

    ``etx[r]`` is the per-bit transmit energy at radius ``r`` and
    ``node_cost[(u, r)]`` is SS-SPST-E's node cost of ``u`` at radius
    ``r`` (:meth:`~repro.core.metrics.EnergyAwareMetric.view_node_cost`).
    An entry holds what the metric computes from the same float inputs,
    so reading it never changes a trajectory; it only keeps a rule
    evaluation from pricing one radius twice.
    """

    __slots__ = ("etx", "node_cost")

    def __init__(self) -> None:
        self.etx: Dict[float, float] = {}
        self.node_cost: Dict[Tuple[NodeId, float], float] = {}


class NodeView(abc.ABC):
    """What node ``v`` can see when evaluating neighbor ``u``."""

    def __init__(self) -> None:
        self._cost_memos: Dict[object, CostMemo] = {}

    def cost_memo(self, metric: object) -> CostMemo:
        """``metric``'s :class:`CostMemo` on this view, made on first use.

        The memo lives as long as the view, so a view must not outlive
        the facts its node costs read (the topology's neighbor distances
        for :class:`GlobalView`; one tick's beacon table for the DES
        view).
        """
        memo = self._cost_memos.get(metric)
        if memo is None:
            memo = self._cost_memos[metric] = CostMemo()
        return memo

    @abc.abstractmethod
    def neighbors_of(self, v: NodeId) -> List[NodeId]:
        """Candidate parents: v's current neighbors."""

    @abc.abstractmethod
    def state_of(self, u: NodeId) -> NodeState:
        """u's advertised (parent, cost, hop)."""

    @abc.abstractmethod
    def dist(self, v: NodeId, u: NodeId) -> float:
        """Distance between v and u."""

    @abc.abstractmethod
    def flag_of(self, u: NodeId) -> bool:
        """Whether u currently has a member in its (claimed) subtree."""

    def radius_without(self, u: NodeId, v: NodeId, flagged_only: bool) -> float:
        """u's child radius if v were not its child (0.0 = u silent)
        (one call of :meth:`radius_pricer`)."""
        return self.radius_pricer(v, flagged_only)(u)

    @abc.abstractmethod
    def radius_pricer(
        self, v: NodeId, flagged_only: bool
    ) -> Callable[[NodeId], float]:
        """``u ->`` u's child radius if v were not its child (0.0 = u
        silent), for one evaluation of ``v``: what depends only on ``v``
        is read once (the view must not change while the pricer is in
        use).

        ``flagged_only`` selects the SS-SPST-E notion (only children with a
        member downstream count as data receivers) versus SS-SPST-F (every
        tree child counts).
        """

    @abc.abstractmethod
    def count_in_range(self, u: NodeId, radius: float) -> int:
        """Number of u's graph neighbors within ``radius`` of u."""

    @abc.abstractmethod
    def flag_excluding(self, u: NodeId, v: NodeId) -> bool:
        """u's member flag in the world where ``v`` is detached from its
        current parent (v's subtree no longer contributes flags)."""

    def path_price(
        self, u: NodeId, v: NodeId, v_flag: bool, metric: object
    ) -> float:
        """Price of candidate parent ``u``'s path, seen by joiner ``v``
        (one call of :meth:`path_pricer`)."""
        return self.path_pricer(v, v_flag, metric)(u)

    @abc.abstractmethod
    def path_pricer(
        self, v: NodeId, v_flag: bool, metric: object
    ) -> Callable[[NodeId], float]:
        """``u ->`` price of candidate parent ``u``'s path, seen by joiner
        ``v``, for one evaluation of ``v`` (the view must not change
        while the pricer is in use).

        Evaluated in the world where ``v`` is detached from its current
        parent, and where ``u`` additionally carries ``v_flag`` (the member
        flag ``v`` would contribute by attaching).  Pricing candidates this
        way is symmetric between the incumbent parent and alternatives:

        * the incumbent's path is no longer "pre-paid" by v's current
          attachment (which would make every alternative look cheaper and
          cause parent flip-flopping), and
        * an alternative whose branch is currently pruned is charged the
          full cost of lighting that branch up to the root (the ancestors
          must start forwarding data for v), which a simple advertised-cost
          read would miss.

        For metrics whose path cost does not couple to the child set (hop,
        T, F) this is just ``state_of(u).cost``.
        """


class _DetachedFlags:
    """Member flags in a v-detached world: the live flags with a small
    ancestor prefix turned off.

    Detaching ``v`` can only *lower* flags, and only on the contiguous
    ancestor prefix of ``v``'s parent whose member support came solely
    through ``v`` — so the detached world is representable as the live
    flag list plus an "off" set, no copy required.  Supports exactly the
    indexing the metric code performs on flag vectors.
    """

    __slots__ = ("base", "off")

    def __init__(self, base: Sequence[bool], off: Set[NodeId]) -> None:
        self.base = base
        self.off = off

    def __getitem__(self, u: NodeId) -> bool:
        return bool(self.base[u]) and u not in self.off

    def __len__(self) -> int:
        return len(self.base)


def _count_parent_cycles(states: Sequence[NodeState]) -> int:
    """Number of cycles in the parent-pointer functional graph.

    Arbitrary (illegitimate) states may contain parent cycles; while any
    exist, counter-based flag maintenance is unsound (a cycle can keep its
    own flags alive) and the view falls back to full re-derivation.
    """
    n = len(states)
    color = [0] * n  # 0 = unvisited, 1 = on current walk, 2 = finished
    cycles = 0
    for s in range(n):
        if color[s]:
            continue
        path = []
        w: Optional[int] = s
        while w is not None and color[w] == 0:
            color[w] = 1
            path.append(w)
            w = states[w].parent
        if w is not None and color[w] == 1:
            cycles += 1  # the walk bit its own tail: one new cycle
        for x in path:
            color[x] = 2
    return cycles


class GlobalView(NodeView):
    """Round-model view: global topology + a state vector snapshot.

    The view is *updatable*: :meth:`apply` replaces one node's state in
    place and incrementally maintains every derived structure:

    * children lists are patched (kept sorted, matching
      :func:`~repro.core.state.derive_children` exactly);
    * member flags and a per-node flagged-children counter are updated by
      walking only the old-parent and new-parent ancestor chains — a flag
      can only toggle along those chains, and the walk stops at the first
      ancestor whose flag is unaffected;
    * the number of parent-pointer cycles is tracked so the counter scheme
      is only trusted on acyclic states (cycles can be self-supporting;
      while any exist, flags fall back to lazy full re-derivation).

    :meth:`apply` reports which nodes' flags actually flipped (or ``None``
    when it cannot tell), which is what lets the incremental executors
    build *finite* dirty sets for the chain-coupled SS-SPST-E metric
    instead of marking every node dirty.
    """

    def __init__(self, topo: Topology, states: Sequence[NodeState]) -> None:
        super().__init__()
        self.topo = topo
        self.states = list(states)
        self._children = derive_children(self.states)
        self._flags_cache: Optional[List[bool]] = None
        self._fcnt: Optional[List[int]] = None  # per-node flagged-children count
        self._n_cycles = _count_parent_cycles(self.states)
        self._flags_excl: Dict[NodeId, Sequence[bool]] = {}
        # Per-evaluation chain-price memo: ``w -> {carried_flag: price}`` of
        # w's upstream chain in the owner's detached world.  Candidates of
        # one evaluating node share chain prefixes (all chains converge
        # toward the root), so one evaluation walks each chain segment once
        # instead of once per candidate.  Any apply() invalidates it.
        self._price_memo: Dict[NodeId, Dict[bool, float]] = {}
        self._price_memo_owner: Optional[NodeId] = None
        # Cross-evaluation chain-price memo: same layout, but priced in the
        # *live* world and therefore shared by every evaluating node whose
        # detachment is invisible to chain reads (disconnected or unflagged
        # evaluators — the common case).  Unlike the per-evaluation memo it
        # survives apply(): only the prices of the *subtrees of the touched
        # tree positions* (the changed node, flagged endpoints, flag-flipped
        # ancestors and their parents — the flag-flip report again) are
        # dropped, so deep-chain stabilization walks each settled prefix
        # once instead of once per evaluation (O(n) chain steps on a line
        # instead of O(n²)).
        self._chain_memo: Dict[NodeId, Dict[bool, float]] = {}
        #: diagnostic: total ancestor steps walked by :meth:`path_pricer`
        #: (what the chain memos shrink; read by the ablation bench)
        self.chain_steps: int = 0
        #: the topology's neighbor-distance rows (Python floats), read by
        #: :meth:`dist` and the chain walks, fetched on first use
        self._dist_rows: Optional[List[Dict[NodeId, float]]] = None
        # Per-evaluation descendant set of the evaluating node, used by
        # :meth:`path_pricer` to price candidates inside the evaluator's
        # own subtree (loop candidates) without walking their chains.
        self._desc_owner: Optional[NodeId] = None
        self._desc_set: Set[NodeId] = set()

    @property
    def _flags(self) -> List[bool]:
        """Member flags, derived lazily (metrics that never read flags —
        hop, tx — never pay for them).  On acyclic states the flagged-
        children counters are built alongside and both are maintained
        incrementally by :meth:`apply` from then on."""
        if self._flags_cache is None:
            self._flags_cache = derive_flags(self.topo, self.states)
            self._fcnt = None
        if self._fcnt is None and self._n_cycles == 0:
            fcnt = [0] * len(self.states)
            flags = self._flags_cache
            for c, st in enumerate(self.states):
                if st.parent is not None and flags[c]:
                    fcnt[st.parent] += 1
            self._fcnt = fcnt
        return self._flags_cache

    # ------------------------------------------------------------------
    # In-place updates
    # ------------------------------------------------------------------
    def apply(self, v: NodeId, new_state: NodeState) -> Optional[Tuple[NodeId, ...]]:
        """Replace ``v``'s state, updating derived structures in place.

        Returns the nodes whose member flag flipped (possibly empty), or
        ``None`` when the impact is unknown — flags were not materialized
        yet, or a parent cycle is involved and the counter scheme cannot
        localize the change.  Callers building dirty sets must treat
        ``None`` as "anything may have changed".
        """
        old = self.states[v]
        if old.parent == new_state.parent:
            # Cost/hop-only change: children, flags and cycles untouched;
            # chain prices can still shift (disconnected-terminal costs).
            self.states[v] = new_state
            self._price_memo.clear()
            self._price_memo_owner = None
            if old.parent is None and new_state.cost != old.cost:
                # Chain walks read a node's advertised cost only at a
                # disconnected chain head; prices of everything routing
                # through v are stale.  Attached cost changes are invisible
                # to chain pricing (it re-derives marginals from radii).
                self._drop_chain_prices((v,))
            return ()

        p_old, p_new = old.parent, new_state.parent
        # A parent move can only create/destroy a cycle *through v*; check
        # before and after the edit.  With zero cycles the "before" walk is
        # provably negative and skipped.
        was_on_cycle = self._n_cycles > 0 and self._on_own_cycle(v)
        if p_old is not None:
            siblings = self._children[p_old]
            i = bisect_left(siblings, v)
            if i == len(siblings) or siblings[i] != v:
                raise ValueError(
                    f"GlobalView.apply: node {v} is not a recorded child of "
                    f"its current parent {p_old}; the state vector or "
                    f"children lists were mutated outside apply()"
                )
            del siblings[i]
        self.states[v] = new_state
        if p_new is not None:
            insort(self._children[p_new], v)
        now_on_cycle = self._on_own_cycle(v)
        self._n_cycles += int(now_on_cycle) - int(was_on_cycle)

        self._flags_excl.clear()
        self._price_memo.clear()
        self._price_memo_owner = None
        self._desc_owner = None  # children map changed

        if was_on_cycle or now_on_cycle or self._n_cycles > 0:
            # Cycles can keep their own flags alive; no local walk is
            # sound.  Re-derive lazily and report "unknown".
            self._flags_cache = None
            self._fcnt = None
            self._chain_memo.clear()
            return None
        if self._flags_cache is None or self._fcnt is None:
            self._chain_memo.clear()
            return None  # flags never materialized: nothing to maintain

        # Acyclic before and after: v's own flag depends only on its own
        # children (unchanged), so only the two ancestor chains can flip.
        if not self._flags_cache[v]:
            # An unflagged child is invisible to flagged radii and flag
            # scans: only chains routing *through v* are repriced.
            self._drop_chain_prices((v,))
            return ()
        flips: List[NodeId] = []
        if p_old is not None:
            self._dec_flag_chain(p_old, flips)
        if p_new is not None:
            self._inc_flag_chain(p_new, flips)
        # Stale chain prices: exactly the subtrees of the touched positions
        # (mirrors the reader analysis of the incremental engine's
        # ``_affected``) — v's own chain moved, the endpoints' flagged
        # radii changed, and every flip rewrote a flag its parent's radius
        # and descendants' prices read.
        stale = {v, p_old, p_new}
        for f in flips:
            stale.add(f)
            stale.add(self.states[f].parent)
        stale.discard(None)
        self._drop_chain_prices(stale)
        return tuple(flips)

    def _drop_chain_prices(self, roots: Iterable[NodeId]) -> None:
        """Invalidate shared chain prices of the subtrees under ``roots``."""
        if not self._chain_memo:
            return
        for w in self.collect_subtrees(roots):
            self._chain_memo.pop(w, None)

    def _on_own_cycle(self, v: NodeId) -> bool:
        """Whether following parent pointers from ``v`` returns to ``v``."""
        w = self.states[v].parent
        for _ in range(len(self.states)):
            if w is None:
                return False
            if w == v:
                return True
            w = self.states[w].parent
        return False  # walked into a foreign cycle: v is not on it

    def _dec_flag_chain(self, w: Optional[NodeId], flips: List[NodeId]) -> None:
        """Ancestor walk after ``w`` lost one flagged child."""
        members = self.topo.members
        flags, fcnt, states = self._flags_cache, self._fcnt, self.states
        while w is not None:
            fcnt[w] -= 1
            if w in members or fcnt[w] > 0:
                break  # flag survives: nothing changes further up
            flags[w] = False
            flips.append(w)
            w = states[w].parent

    def _inc_flag_chain(self, w: Optional[NodeId], flips: List[NodeId]) -> None:
        """Ancestor walk after ``w`` gained one flagged child."""
        flags, fcnt, states = self._flags_cache, self._fcnt, self.states
        while w is not None:
            fcnt[w] += 1
            if flags[w]:
                break  # already flagged: ancestors unaffected
            flags[w] = True
            flips.append(w)
            w = states[w].parent

    def collect_subtrees(self, roots: Iterable[NodeId]) -> Set[NodeId]:
        """All nodes in the (current) subtrees rooted at ``roots``.

        Used by the incremental executors: a changed radius/flag at node
        ``y`` is read by exactly the candidate chains passing through
        ``y``, i.e. by evaluators adjacent to ``y``'s subtree.  Robust to
        parent cycles (the visited set bounds the walk).
        """
        out: Set[NodeId] = set(roots)
        stack = sorted(out)
        children = self._children
        while stack:
            w = stack.pop()
            for c in children[w]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    # ------------------------------------------------------------------
    def neighbors_of(self, v: NodeId) -> List[NodeId]:
        return self.topo.neighbors(v)

    def state_of(self, u: NodeId) -> NodeState:
        return self.states[u]

    def _neighbor_dists(self) -> List[Dict[NodeId, float]]:
        rows = self._dist_rows
        if rows is None:
            rows = self._dist_rows = self.topo.dist_rows()
        return rows

    def dist(self, v: NodeId, u: NodeId) -> float:
        rows = self._dist_rows or self._neighbor_dists()
        d = rows[v].get(u)
        return float(self.topo.dist[v, u]) if d is None else d

    def flag_of(self, u: NodeId) -> bool:
        return self._flags[u]

    def radius_pricer(
        self, v: NodeId, flagged_only: bool
    ) -> Callable[[NodeId], float]:
        # In flagged-only (SS-SPST-E) evaluations the world is "v detached",
        # so sibling flags that depended on v's subtree are recomputed.
        flags = self.flags_excluding(v) if flagged_only else self._flags
        radius_excluding, exclude = self._radius_excluding, (v,)
        return lambda u: radius_excluding(u, exclude, flags, flagged_only)

    def count_in_range(self, u: NodeId, radius: float) -> int:
        if radius <= 0.0:
            return 0
        return self.topo.count_within(u, radius)

    def flags_excluding(self, v: NodeId) -> Sequence[bool]:
        """Member flags with ``v`` detached from its current parent (cached).

        On acyclic states this is an ancestor walk over the flagged-children
        counters: detaching ``v`` turns off exactly the contiguous ancestor
        prefix whose only member support came through ``v`` (each ancestor
        in turn loses one flagged child; the walk stops at the first member
        or multiply-supported node).  Cyclic states fall back to a full
        re-derivation over a detached copy.
        """
        cached = self._flags_excl.get(v)
        if cached is not None:
            return cached
        flags = self._flags  # materializes counters on acyclic states
        st = self.states[v]
        out: Sequence[bool]
        if st.parent is None or not flags[v]:
            out = flags  # detaching changes nothing
        elif self._fcnt is None:
            detached = list(self.states)
            detached[v] = NodeState(parent=None, cost=st.cost, hop=st.hop)
            out = derive_flags(self.topo, detached)
        else:
            off: Set[NodeId] = set()
            members = self.topo.members
            fcnt, states = self._fcnt, self.states
            w = st.parent
            while w is not None:
                if w in members or fcnt[w] > 1:
                    break  # keeps a flag source besides the detached chain
                off.add(w)
                w = states[w].parent
            out = _DetachedFlags(flags, off) if off else flags
        self._flags_excl[v] = out
        return out

    def flag_excluding(self, u: NodeId, v: NodeId) -> bool:
        return bool(self.flags_excluding(v)[u])

    def _detach_neutral(self, v: NodeId, flags: Sequence[bool]) -> bool:
        """Whether detaching ``v`` is invisible to *every* chain-walk read.

        Chain walks read, at each ancestor step into ``p``: ``p``'s
        children flags and flagged radius with the chain predecessor ``w``
        (and ``v``) excluded.  Detaching ``v`` changes those reads only

        * at ``parent(v)`` — and only when ``v`` carries a flag — or
        * at the parents of the ``off`` prefix (ancestors whose flag the
          detachment turns off),

        and in both cases only for walks whose predecessor ``w`` is *not*
        the affected child (a walk's own predecessor is always excluded
        anyway).  When every affected node is its parent's only child —
        the entire class of chain/line structures, and any evaluator that
        is disconnected or unflagged — no such walk exists: every price is
        the live-world price, so evaluations may share one memo
        (``_chain_memo``).  Cyclic states are never neutral (counter
        maintenance is untrusted there).
        """
        if self._n_cycles:
            return False
        st = self.states[v]
        if st.parent is None or not flags[v]:
            return True
        if len(self._children[st.parent]) != 1:
            return False
        off = flags.off if isinstance(flags, _DetachedFlags) else ()
        for o in off:
            p = self.states[o].parent
            if p is not None and len(self._children[p]) != 1:
                return False
        return True

    def _radius_excluding(
        self,
        u: NodeId,
        exclude: Container[NodeId],
        flags: Sequence[bool],
        flagged_only: bool,
    ) -> float:
        radius = 0.0
        for c in self._children[u]:
            if c in exclude:
                continue
            if flagged_only and not flags[c]:
                continue
            d = self.dist(u, c)
            if d > radius:
                radius = d
        return radius

    def path_pricer(
        self, v: NodeId, v_flag: bool, metric: object
    ) -> Callable[[NodeId], float]:
        """Exact iterative chain walk in the v-detached world (ABC docstring).

        The price is the *marginal* global cost of lighting up ``u``'s
        path for ``v``: walking up from ``u``, each ancestor link is
        charged the cost of starting to cover its chain child **only
        while the chain is lit solely by ``v``'s carried flag**.  The
        carried flag dies at the first ancestor that is flagged in the
        v-detached world *independently of v* — from there up, the path
        is already paid for in the baseline, and recharging it would
        double-count.  (That double-charge was a real bug: it priced the
        incumbent's already-lit chain as if it had to be built from
        scratch, which made cheap parents look expensive, disagreed with
        the true global-cost delta of the move, and drove persistent
        limit cycles no activation order could escape — see
        ``docs/convergence.md``.)  A chain whose head is disconnected
        still contributes the head's advertised cost (``OC_max``-ish), so
        orphaned subtrees stay unattractive while count-to-infinity
        resolves.

        Guards against parent cycles (possible in arbitrary illegitimate
        states) by falling back to the advertised cost when a node
        repeats, and never recurses — line topologies deeper than the
        interpreter's recursion limit are fine.  Chain-price prefixes are
        memoized per ``(node, carried-flag)``, so evaluating all of
        ``v``'s candidates costs one walk over the union of their chains.
        When ``v``'s detachment is invisible to every chain read — ``v``
        disconnected, or unflagged (an unflagged child contributes to no
        flagged radius and no flag scan) — the prices equal their
        live-world values and go into the *cross-evaluation* memo
        (``_chain_memo``), which survives until an apply() touches the
        priced subtrees; flagged attached evaluators fall back to the
        per-evaluation memo (``_price_memo``), whose prefixes are valid
        only in their own detached world.

        The pricer finds ``v``'s descendants once, and its detached flags
        and memo on its first chain walk: a pricer that walks no chain
        leaves the per-evaluation memo as it found it.
        """
        if not getattr(metric, "path_couples_to_children", False):
            states = self.states
            return lambda u: states[u].cost

        if self._desc_owner != v:
            # Descendants of the evaluating node, via the children map
            # (exact inverse of the parent pointers, so this agrees with
            # "the chain from u passes through v" even in cyclic states).
            seen_d: Set[NodeId] = set()
            stack = [v]
            kids = self._children
            while stack:
                for c in kids[stack.pop()]:
                    if c not in seen_d:
                        seen_d.add(c)
                        stack.append(c)
            self._desc_owner, self._desc_set = v, seen_d
        desc = self._desc_set
        states, topo = self.states, self.topo
        source = topo.source
        dist_rows = self._neighbor_dists()
        radius_excluding = self._radius_excluding
        # v's detached world, set on the first chain walk; node costs on
        # the first step that charges a link
        flags: Sequence[bool] = ()
        memo: Optional[Dict[NodeId, Dict[bool, float]]] = None
        node_cost: Optional[Callable[[NodeId, float], float]] = None

        def price(u: NodeId) -> float:
            nonlocal flags, memo, node_cost
            if u in desc:
                # u hangs below v: its chain runs through v itself, so in
                # the v-detached world it is headless and never reaches
                # the root (attaching to u would form a parent loop).
                # Price it at the metric's infinity — the same ``OC_max``
                # sentinel a disconnected node advertises — so a node's
                # own subtree loses to every rooted candidate.  Without
                # this, a chain running through v priced as already-lit
                # (near zero) and v flip-flopped into and out of the loop
                # forever; pricing it at v's advertised cost instead
                # still lured free-riders (advertised cost 0) back into
                # loops they had just escaped.  The verdict is
                # evaluator-specific, which is also why it is decided
                # *before* the walk: the shared chain memo may hold
                # prefixes (written by other evaluators) that cross v.
                return metric.infinity(topo)
            if memo is None:
                flags = self.flags_excluding(v)
                if self._detach_neutral(v, flags):
                    # Detaching v changes nothing any chain walk reads:
                    # prices are live-world values, shared across
                    # evaluating nodes.
                    memo = self._chain_memo
                elif self._price_memo_owner == v:
                    memo = self._price_memo
                else:
                    # New evaluating node: prior prefixes were priced in
                    # a different detached world.
                    self._price_memo = memo = {}
                    self._price_memo_owner = v

            # v's flag is "carried" up the chain only while the chain
            # nodes are unlit without it; it dies at the first
            # independently flagged ancestor.
            w, carried = u, bool(v_flag) and not flags[u]
            seen = {u}
            pending: List[Tuple[Tuple[NodeId, bool], float]] = []
            cacheable = True
            while True:
                by_flag = memo.get(w)
                base = None if by_flag is None else by_flag.get(carried)
                if base is not None:
                    break
                if w == source:
                    base = 0.0
                    memo.setdefault(w, {})[carried] = base
                    break
                p = states[w].parent
                if p is None:
                    base = states[w].cost  # disconnected: advertised OC_max
                    memo.setdefault(w, {})[carried] = base
                    break
                self.chain_steps += 1
                if carried:
                    # w is lit only by v's attachment: p must start
                    # covering it.  Marginal against p's baseline flagged
                    # radius in the v-detached world (w is unlit there,
                    # so excluding it is a no-op, kept for robustness).
                    d = dist_rows[w].get(p, 0.0)  # 0.0 for a non-edge
                    r_wo = radius_excluding(p, (w, v), flags, flagged_only=True)
                    if d <= r_wo:
                        delta = 0.0  # w already covered: marginal exactly zero
                    else:
                        if node_cost is None:
                            node_cost = metric.view_node_cost(self)
                        delta = node_cost(p, d) - node_cost(p, r_wo)
                else:
                    delta = 0.0
                if p in seen:  # cycle in an illegitimate state: stop re-pricing
                    # The cut point depends on where *this* walk started,
                    # so the price is valid for this candidate only —
                    # memoizing it would leak one candidate's cut into
                    # another's chain.
                    base = states[p].cost + delta
                    cacheable = False
                    break
                seen.add(p)
                pending.append(((w, carried), delta))
                w, carried = p, carried and not flags[p]
            # Backfill the walked prefixes: price(w) = delta(w->p) +
            # price(p).  A walk truncated by the cycle guard yields
            # start-dependent values: return them, but keep them out of
            # the shared memo so every candidate prices cycles from its
            # own walk (the pre-memo per-candidate semantics).
            total = base
            for (kw, kf), delta in reversed(pending):
                total += delta
                if cacheable:
                    memo.setdefault(kw, {})[kf] = total
            return total

        return price
