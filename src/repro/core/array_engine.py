"""Vectorized round engine: columnar state, batched rule evaluation.

:class:`ArrayRoundEngine` is a drop-in :class:`~repro.core.rounds.RoundEngine`
that rebuilds the round-model state as numpy columns — parent, cost, hop,
member flags and flagged-children counters — and evaluates each activation
step's whole dirty frontier as batched array operations instead of one
Python rule evaluation per node.  It exists for scale: the object engine
tops out around 10^3 nodes per study, the array engine takes the daemon
studies to 10^4–10^5 (perfbench's ``rounds-deep`` workload times it).

The path is chosen per step from its size.  A hop, tx or farthest step
with fewer than :data:`MIN_BATCH_STEP` nodes to evaluate takes the
scalar rule and per-move applies on the same :class:`ColumnarView`
(whose :meth:`~ColumnarView.apply` keeps the columns, and the snapshot
dirt a metric reads, in step), because a vector pass costs more than a
few scalar evaluations.  So serial and narrow distributed daemons run at
about the object engine's speed, and wide steps still vectorize.
SS-SPST-E steps take the vector path at every size.

The contract is **bit-identical trajectories** with the object engine —
states, rounds, convergence verdict, cost history, move counts and
evaluation counts — under every daemon and both evaluation modes.  That
is only possible because the vectorization replicates the scalar
semantics operation for operation:

* the per-candidate costs are built from the *same* float64 values in the
  *same* order (per-edge transmit energies are precomputed once with the
  scalar radio model, then gathered — never recomputed with vector
  transcendentals, whose last-ulp behaviour may differ);
* the sequential candidate fold of ``rules.compute_update_local``
  (relative ``COST_TOL`` band first, incumbent/hop/distance/id tail on
  a tie) is a per-row minimum cost plus one lexsort per batch of the
  pairs tied at it, exact whenever no other cost lies within the tie
  band of the minimum; rows with such a near-tie or a non-finite cost
  are re-folded by masked passes over candidate *slots* in neighbor
  order, which keep the fold's non-commutative tolerant-comparison
  semantics;
* SS-SPST-E's chain pricing becomes a prefix scan over the parent forest:
  two per-node price columns (``Pd`` — carried flag dead, ``Pc`` —
  carried flag alive) are propagated root-to-leaf per snapshot, exactly
  mirroring the top-down accumulation of
  :meth:`~repro.core.views.GlobalView.path_pricer`.

Two layers keep the hot path free of per-move Python
(``docs/array_engine.md`` walks through each):

* **batched move commits** — for the locally-coupled metrics (hop, tx,
  farthest) a wide activation step's updates are compared, counted and
  scattered into the columns as array operations
  (:meth:`ColumnarView.commit_batch`); the object-world children lists,
  flag counters and cycle census become lazily-rematerialized views,
  rebuilt on the first scalar read after a batch.  The chain-coupled
  SS-SPST-E metric keeps per-move applies (its dirty sets need the
  per-move flag-flip reports) — but those applies feed the next layer;
* **incremental snapshots** — per-step derived arrays (child top-2
  radii, link marginals, chain prices, Euler intervals) are no longer
  rebuilt from scratch: every apply reports which rows went stale and
  the next snapshot re-scans only the dirty subtrees.

Where exact vectorization is not sound, the engine *narrows* instead of
approximating: evaluators whose detachment is visible to chain reads
(flagged, attached) re-price only the candidates inside their correction
zone — the subtree of the first ancestor that keeps its flag without them
— through the scalar path; snapshots with parent cycles (arbitrary
illegitimate states) or a parented source fall back to scalar evaluation
for the affected steps.  Adaptive daemons (adversarial) schedule against
live probes and always use the scalar path.

Select it through ``engine_for(..., engine="array")``, the campaign
``engine`` scenario knob, or ``--engine array`` on the CLI.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.daemons import Daemon
from repro.core.metrics import (
    CostMetric,
    EnergyAwareMetric,
    FarthestChildMetric,
    HopMetric,
    TxEnergyMetric,
)
from repro.core.rounds import RoundEngine
from repro.core.rules import COST_TOL, H_MAX
from repro.core.state import NodeState, derive_children, derive_flags
from repro.core.views import GlobalView
from repro.graph.topology import Topology

#: the metrics whose rule reads only a bounded neighbourhood: their steps
#: commit as one batch (SS-SPST-E commits per move)
_LOCAL_KINDS = ("hop", "tx", "farthest")

#: the fewest nodes a hop, tx or farthest activation step needs to take
#: the vector path.  Below it the vector path's fixed cost per step (pair
#: gather, fold, batched commit, closure) exceeds what the scalar rule
#: spends on the step's nodes.  Chosen from a ``daemon_k`` sweep at
#: n = 600 and n = 4000 (``docs/array_engine.md`` §7): the break-even
#: step lies near 40 nodes for hop, 20 for tx and under 16 for farthest.
MIN_BATCH_STEP = 24


def _excl_cumsum(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (the start offset of each group)."""
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class EdgeCsr:
    """Compressed adjacency with per-edge scalar-exact transmit energies.

    Row order matches ``topo.neighbors(v)`` exactly (the rule's candidate
    fold is order-sensitive), and rows are id-sorted, so membership
    lookups are binary searches.  ``sdist`` is the per-row distance-sorted
    copy backing the vectorized in-range counting (same values as
    :meth:`Topology.count_within` bisects over).
    """

    def __init__(self, topo: Topology, metric: CostMetric) -> None:
        self.n = topo.n
        provided = getattr(topo, "csr_arrays", None)
        if provided is not None:
            self.indptr, self.nbr, self.dist = provided()
        else:
            rows = [topo.neighbors(v) for v in range(topo.n)]
            counts = np.array([len(r) for r in rows], dtype=np.int64)
            self.indptr = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
            self.nbr = np.array(
                [u for r in rows for u in r], dtype=np.int64
            )
            self.dist = np.array(
                [float(topo.dist[v, u]) for v, r in enumerate(rows) for u in r],
                dtype=np.float64,
            )
        self._rowid = np.repeat(
            np.arange(self.n, dtype=np.int64),
            np.diff(self.indptr),
        )
        order = np.lexsort((self.dist, self._rowid))
        self.sdist = self.dist[order]
        self._metric = metric
        self._etx: Optional[np.ndarray] = None
        # Lazy rank tables for the searchsorted-based count_within and the
        # batched edge_slots lookup (built on first use; hop runs that
        # never range-count never pay for them).
        self._uvals: Optional[np.ndarray] = None
        self._rank_K = 0
        self._rank_aug: Optional[np.ndarray] = None
        self._nbr_aug: Optional[np.ndarray] = None

    def etx(self) -> np.ndarray:
        """Per-edge per-bit transmit energy, computed with the *scalar*
        radio model once (vector pow may differ in the last ulp)."""
        if self._etx is None:
            m = self._metric
            self._etx = np.array(
                [m.etx(float(d)) for d in self.dist], dtype=np.float64
            )
        return self._etx

    def edge_slot(self, v: int, u: int) -> int:
        """CSR position of edge (v, u), or -1 when absent."""
        i0, i1 = int(self.indptr[v]), int(self.indptr[v + 1])
        i = i0 + int(np.searchsorted(self.nbr[i0:i1], u))
        if i < i1 and int(self.nbr[i]) == u:
            return i
        return -1

    def edge_slots(self, V: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Batched :meth:`edge_slot`: CSR positions of edges ``(V, P)``,
        -1 where absent.  Rows are id-sorted, so ``rowid * n + nbr`` is a
        globally sorted key and every lookup is one searchsorted."""
        if self._nbr_aug is None:
            self._nbr_aug = self._rowid * np.int64(self.n) + self.nbr
        aug = self._nbr_aug
        if aug.size == 0:
            return np.full(len(V), -1, dtype=np.int64)
        q = V.astype(np.int64) * np.int64(self.n) + P
        i = np.searchsorted(aug, q)
        hit = (i < aug.size) & (aug[np.minimum(i, aug.size - 1)] == q)
        return np.where(hit, i, -1)

    def count_within(self, U: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """Vectorized ``Topology.count_within``: per-row bisect_right with
        the same ``radius + 1e-12`` tolerance key.

        Exact rank trick: with ``uvals`` the sorted unique distances,
        ``rank(d) = searchsorted(uvals, d)`` and a row-offset augmented
        key ``row * K + rank`` (globally sorted because ``sdist`` is
        row-grouped and ascending within rows), the per-row bisect_right
        over distances becomes a single searchsorted over integer keys:
        entries of row ``u`` with ``d <= key`` are exactly those with
        ``rank < searchsorted(uvals, key, "right")``.
        """
        if self._rank_aug is None:
            self._uvals = np.unique(self.sdist)
            self._rank_K = np.int64(self._uvals.size + 1)
            self._rank_aug = (
                self._rowid * self._rank_K
                + np.searchsorted(self._uvals, self.sdist)
            )
        qr = np.searchsorted(self._uvals, radius + 1e-12, side="right")
        pos = np.searchsorted(
            self._rank_aug, U * self._rank_K + qr, side="left"
        )
        return pos - self.indptr[U]


class ColumnarView(GlobalView):
    """A :class:`GlobalView` that mirrors the state vector into columns.

    ``par`` (int64, -1 for None), ``costa`` (float64) and ``hopa``
    (int64) shadow the ``NodeState`` list; ``pdist_*`` / ``pe_etx_*``
    mirror the two parent-edge distance conventions the scalar code uses
    (raw matrix value — inf for a non-edge — in radius scans, 0.0 for a
    non-edge in chain walks).  ``version`` bumps on every *real*
    mutation (no-op applies and empty batches leave it alone) so the
    engine can cache per-snapshot derived arrays.

    The object-world derived structures the base class maintains
    per-move — children lists, the cycle census, member flags with their
    flagged-children counters — are demoted to *lazily rematerialized*
    views here: a batched commit (:meth:`commit_batch`) just invalidates
    them, and the first scalar-path read rebuilds them from the columns
    (children via :func:`derive_children`, the cycle census via
    pointer-jumping).  Flags are stored as a numpy bool column (the
    counters as an int64 column) so snapshots can alias them without a
    conversion pass.

    Every mutation also reports *snapshot dirt*: which top-2 rows
    (``_at_dirty`` / ``_ft_dirty``), link marginals (``_ml_dirty``) and
    price subtrees (``_price_roots``) went stale, plus a forest version
    (``_forest_ver``) for the Euler intervals.  The engine consumes and
    resets these on each snapshot build; events it cannot localize
    (cycles, flag re-derivation) set ``_snap_full`` instead.  Only the
    farthest and energy snapshots read the parent-edge columns and the
    dirt: with ``track_edges`` off (hop and tx) mutations skip both.
    """

    def __init__(
        self,
        topo: Topology,
        states: Sequence[NodeState],
        csr: EdgeCsr,
        metric: CostMetric,
        track_edges: bool,
    ) -> None:
        super().__init__(topo, states)
        self.csr = csr
        self._col_metric = metric
        self.track_edges = track_edges
        n = topo.n
        self.par = np.full(n, -1, dtype=np.int64)
        self.costa = np.empty(n, dtype=np.float64)
        self.hopa = np.empty(n, dtype=np.int64)
        self.pdist_raw = np.zeros(n, dtype=np.float64)
        self.pdist_edge = np.zeros(n, dtype=np.float64)
        self.pe_etx_raw = np.zeros(n, dtype=np.float64)
        self.pe_etx_edge = np.zeros(n, dtype=np.float64)
        for v, s in enumerate(self.states):
            self.costa[v] = s.cost
            self.hopa[v] = s.hop
            if s.parent is not None:
                self.par[v] = s.parent
                if track_edges:
                    self._set_parent_edge(v, s.parent)
        self.version = 0
        self._forest_ver = 0
        self._snap_reset()

    # -- lazily rematerialized object mirrors --------------------------

    @property
    def _children(self) -> Dict[int, List[int]]:
        kids = self._children_obj
        if kids is None:
            kids = self._children_obj = derive_children(self.states)
        return kids

    @_children.setter
    def _children(self, value: Optional[Dict[int, List[int]]]) -> None:
        self._children_obj = value

    @property
    def _n_cycles(self) -> int:
        if self._cycles_stale:
            self._n_cycles_val = self._count_cycles_batch()
            self._cycles_stale = False
        return self._n_cycles_val

    @_n_cycles.setter
    def _n_cycles(self, value: int) -> None:
        self._n_cycles_val = value
        self._cycles_stale = False

    def _count_cycles_batch(self) -> int:
        """Parent-cycle census via pointer-jumping: after >= n doubling
        steps every chain has either hit a root (-1 absorbs) or landed
        *on* its cycle; counting distinct cycles is then a walk over the
        surviving representatives (cycles are rare and short in
        practice — the vector part does the O(n log n) work)."""
        par = self.par
        n = par.size
        r = par.copy()
        k = 1
        while k < n:
            idx = np.where(r >= 0, r, 0)
            r = np.where(r >= 0, r[idx], np.int64(-1))
            k *= 2
        reps = np.unique(r[r >= 0])
        states = self.states
        seen: Set[int] = set()
        cycles = 0
        for v in reps.tolist():
            if v in seen:
                continue
            cycles += 1
            seen.add(v)
            w = states[v].parent
            while w != v:
                seen.add(w)
                w = states[w].parent
        return cycles

    @property
    def _flags(self) -> np.ndarray:
        """Member flags as a numpy bool column (base class stores lists).

        Same lazy-materialization contract as the base property; the
        flagged-children counters become an int64 column built by one
        bincount.  Re-derivation invalidates any incremental snapshot
        (the per-move flip reports since the last build are void)."""
        if self._flags_cache is None:
            self._flags_cache = np.array(
                derive_flags(self.topo, self.states), dtype=bool
            )
            self._fcnt = None
            self._snap_full = True
        if self._fcnt is None and self._n_cycles == 0:
            par = self.par
            sel = (par >= 0) & self._flags_cache
            self._fcnt = np.bincount(
                par[sel], minlength=len(self.states)
            ).astype(np.int64)
        return self._flags_cache

    # ------------------------------------------------------------------

    def _set_parent_edge(self, v: int, p: int) -> None:
        i = self.csr.edge_slot(v, p)
        if i >= 0:
            d = float(self.csr.dist[i])
            e = self._col_metric.etx(d)
            self.pdist_raw[v] = d
            self.pdist_edge[v] = d
            self.pe_etx_raw[v] = e
            self.pe_etx_edge[v] = e
        else:
            # Matches the scalar conventions: radius scans read the dist
            # matrix (inf for a non-edge), chain walks price it as 0.0.
            self.pdist_raw[v] = math.inf
            self.pdist_edge[v] = 0.0
            self.pe_etx_raw[v] = math.inf
            self.pe_etx_edge[v] = 0.0

    def apply(self, v: int, new_state: NodeState) -> Optional[Tuple[int, ...]]:
        old = self.states[v]
        if new_state == old:
            return ()  # no-op: nothing changed, caches stay valid
        p_old, p_new = old.parent, new_state.parent
        out = super().apply(v, new_state)
        self.version += 1
        self.costa[v] = new_state.cost
        self.hopa[v] = new_state.hop
        self.par[v] = -1 if p_new is None else p_new
        if not self.track_edges:
            return out
        if p_new is not None and p_old != p_new:
            self._set_parent_edge(v, p_new)
        # Snapshot dirt.  The all-children top-2 rows (``at``) depend
        # only on parent pointers and edge distances, so the endpoint
        # tracking is sound even when the flag walk reported "unknown".
        if p_old != p_new:
            self._forest_ver += 1
            if p_old is not None:
                self._at_dirty.add(p_old)
            if p_new is not None:
                self._at_dirty.add(p_new)
            if out is None:
                self._snap_full = True
            else:
                self._ml_dirty.add(v)
                self._price_roots.add(v)
                fl = self._flags_cache
                if fl is not None and fl[v]:
                    if p_old is not None:
                        self._ft_dirty.add(p_old)
                    if p_new is not None:
                        self._ft_dirty.add(p_new)
                for f in out:
                    self._price_roots.add(f)
                    pf = self.states[f].parent
                    if pf is not None:
                        self._ft_dirty.add(pf)
        elif p_old is None and new_state.cost != old.cost:
            # Chain walks read a node's advertised cost only at a
            # disconnected chain head: its subtree's prices are stale.
            self._price_roots.add(v)
        return out

    def commit_batch(
        self,
        va: np.ndarray,
        po: np.ndarray,
        pn: np.ndarray,
        new_states: Sequence[NodeState],
    ) -> None:
        """Scatter a whole activation step's applied updates at once.

        ``va`` are the updated nodes, ``po``/``pn`` their old/new parent
        columns (-1 for None).  Replaces per-move :meth:`apply` for the
        locally-coupled metrics: the object mirrors are invalidated (and
        lazily rebuilt on the next scalar-path read) instead of walked,
        and parent-edge columns are refreshed by one batched CSR lookup.
        Bumps ``version`` exactly once.
        """
        states = self.states
        for v, s in zip(va.tolist(), new_states):
            states[v] = s
        self.par[va] = pn
        self.costa[va] = np.fromiter(
            (s.cost for s in new_states), np.float64, count=len(new_states)
        )
        self.hopa[va] = np.fromiter(
            (s.hop for s in new_states), np.int64, count=len(new_states)
        )
        moved = po != pn
        if moved.any():
            mv = va[moved]
            mp = pn[moved]
            att = mp >= 0
            if self.track_edges and att.any():
                slots = self.csr.edge_slots(mv[att], mp[att])
                hit = slots >= 0
                sl = np.where(hit, slots, 0)
                d = np.where(hit, self.csr.dist[sl], math.inf)
                e = np.where(hit, self.csr.etx()[sl], math.inf)
                self.pdist_raw[mv[att]] = d
                self.pe_etx_raw[mv[att]] = e
                self.pdist_edge[mv[att]] = np.where(hit, d, 0.0)
                self.pe_etx_edge[mv[att]] = np.where(hit, e, 0.0)
            if self.track_edges:
                old_p = po[moved]
                self._at_dirty.update(old_p[old_p >= 0].tolist())
                self._at_dirty.update(mp[att].tolist())
            self._forest_ver += 1
            self._snap_full = True
            self._children_obj = None
            self._cycles_stale = True
            self._desc_owner = None
            if self._flags_cache is not None:
                self._flags_cache = None
                self._fcnt = None
            self._flags_excl.clear()
            self._chain_memo.clear()
        self._price_memo.clear()
        self._price_memo_owner = None
        self.version += 1

    def _snap_reset(self) -> None:
        """Clear the snapshot dirt (called after each snapshot build)."""
        self._snap_full = False
        self._at_dirty: Set[int] = set()
        self._ft_dirty: Set[int] = set()
        self._ml_dirty: Set[int] = set()
        self._price_roots: Set[int] = set()


class _Snapshot:
    """Per-snapshot derived arrays (valid for one view version).

    ``kptr/kcnt/kbuf/roots`` are the parent-forest child CSR (with the
    chain walk's source cut) and ``forest_ver`` the
    :attr:`ColumnarView._forest_ver` they were built at; incremental
    updates reuse them while the forest is unchanged.
    """

    __slots__ = (
        "flags", "ft1", "ft1c", "ft2", "ft1e", "ft2e",
        "at1", "at1c", "at2", "at1e", "at2e",
        "ML", "Pd", "Pc", "tin", "tout",
        "kptr", "kcnt", "kbuf", "roots", "forest_ver",
    )


def _top2_scatter(
    kids: np.ndarray,
    par: np.ndarray,
    dist: np.ndarray,
    etxv: np.ndarray,
    r1: np.ndarray,
    c1: np.ndarray,
    r2: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
) -> None:
    """Scatter per-parent top-2 child distances (+ energies) for the
    given children into the ``r1/c1/r2/e1/e2`` rows of their parents.
    The lexsort key (parent, -dist, id) fully determines the order
    (ids are unique), so the result is input-order independent."""
    p = par[kids]
    d = dist[kids]
    order = np.lexsort((kids, -d, p))
    ks = kids[order]
    ps = p[order]
    ds = d[order]
    es = etxv[kids][order]
    first = np.ones(ks.size, dtype=bool)
    first[1:] = ps[1:] != ps[:-1]
    second = np.zeros(ks.size, dtype=bool)
    second[1:] = first[:-1] & (ps[1:] == ps[:-1])
    r1[ps[first]] = ds[first]
    c1[ps[first]] = ks[first]
    e1[ps[first]] = es[first]
    r2[ps[second]] = ds[second]
    e2[ps[second]] = es[second]


def _top2(
    n: int,
    kids: np.ndarray,
    par: np.ndarray,
    dist: np.ndarray,
    etxv: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-parent top-2 child distances (+ matching transmit energies).

    Excluding one child from a radius scan needs at most the runner-up:
    ``r1`` where the excluded child is not the argmax, else ``r2`` (tied
    maxima make the two equal, so either branch is value-correct).
    """
    r1 = np.zeros(n, dtype=np.float64)
    r2 = np.zeros(n, dtype=np.float64)
    e1 = np.zeros(n, dtype=np.float64)
    e2 = np.zeros(n, dtype=np.float64)
    c1 = np.full(n, -1, dtype=np.int64)
    if kids.size:
        _top2_scatter(kids, par, dist, etxv, r1, c1, r2, e1, e2)
    return r1, c1, r2, e1, e2


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _fold_sequential(
    n_rows: int,
    row_pair: np.ndarray,
    slot: np.ndarray,
    valid: np.ndarray,
    eff: np.ndarray,
    oc: np.ndarray,
    inc_pair: np.ndarray,
    hopU: np.ndarray,
    D_pair: np.ndarray,
    U_pair: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sequential candidate fold of ``compute_update_local``: one
    masked pass per candidate slot in neighbor order.

    Exact on every input (it replays the rule's band-then-tail
    comparison pair by pair);
    :func:`_fold` routes the rows it cannot decide exactly through here.
    """
    b_eff = np.zeros(n_rows, dtype=np.float64)
    b_oc = np.zeros(n_rows, dtype=np.float64)
    b_inc = np.zeros(n_rows, dtype=np.int64)
    b_hop = np.zeros(n_rows, dtype=np.int64)
    b_d = np.zeros(n_rows, dtype=np.float64)
    b_id = np.zeros(n_rows, dtype=np.int64)
    has = np.zeros(n_rows, dtype=bool)
    n_slots = int(slot[valid].max()) + 1 if valid.any() else 0
    with np.errstate(invalid="ignore"):
        for j in range(n_slots):
            sel = np.flatnonzero((slot == j) & valid)
            if not sel.size:
                continue
            rw = row_pair[sel]
            ca = eff[sel]
            cb = b_eff[rw]
            band = COST_TOL * np.maximum(np.abs(ca), np.abs(cb))
            lt = ca < cb - band
            gt = ca > cb + band
            tie = ~(lt | gt)
            ainc = inc_pair[sel]
            binc = b_inc[rw]
            ahop = hopU[sel]
            bhop = b_hop[rw]
            ad = D_pair[sel]
            bd = b_d[rw]
            au = U_pair[sel]
            bu = b_id[rw]
            lex = (ainc < binc) | (
                (ainc == binc)
                & (
                    (ahop < bhop)
                    | (
                        (ahop == bhop)
                        & ((ad < bd) | ((ad == bd) & (au < bu)))
                    )
                )
            )
            take = np.flatnonzero(~has[rw] | lt | (tie & lex))
            if take.size:
                rr = rw[take]
                ss = sel[take]
                b_eff[rr] = eff[ss]
                b_oc[rr] = oc[ss]
                b_inc[rr] = inc_pair[ss]
                b_hop[rr] = hopU[ss]
                b_d[rr] = D_pair[ss]
                b_id[rr] = U_pair[ss]
                has[rr] = True
    return has, b_id, b_oc, b_hop


def _fold(
    n_rows: int,
    row_pair: np.ndarray,
    slot: np.ndarray,
    valid: np.ndarray,
    eff: np.ndarray,
    oc: np.ndarray,
    inc_pair: np.ndarray,
    hopU: np.ndarray,
    D_pair: np.ndarray,
    U_pair: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The candidate fold as a per-row minimum plus one lexsort.

    Same result as :func:`_fold_sequential`, plus the number of rows
    that went through it; pairs must come grouped by row (ascending
    ``row_pair``).  Each row keeps the valid pairs at its minimum
    ``eff``, and one lexsort of those by ``(row, incumbent, hop, dist,
    id)`` picks the winner.  That is exact when the row's costs are
    finite and its next distinct cost exceeds the minimum by more than
    ``2 * COST_TOL * max|eff|`` of the row: every tolerant comparison
    against a minimum-cost pair then agrees with the plain one (the
    factor 2 absorbs the rounding of ``cb - band``), so the fold's best
    is a minimum-cost pair from the first one on, and the tie-breaks
    order those strictly (ids are unique within a row).  Rows with a
    near-tie at the minimum, an inf or a NaN are re-folded
    sequentially, restricted to their own pairs.
    """
    has = np.zeros(n_rows, dtype=bool)
    b_id = np.zeros(n_rows, dtype=np.int64)
    b_oc = np.zeros(n_rows, dtype=np.float64)
    b_hop = np.zeros(n_rows, dtype=np.int64)
    sel = np.flatnonzero(valid)
    if not sel.size:
        return has, b_id, b_oc, b_hop, 0
    rs = row_pair[sel]
    head = _run_heads(rs)
    starts = np.flatnonzero(head)
    seg = np.cumsum(head) - 1
    e = eff[sel]
    with np.errstate(invalid="ignore"):
        lo = np.minimum.reduceat(e, starts)
        at_lo = e == lo[seg]
        nxt = np.minimum.reduceat(np.where(at_lo, np.inf, e), starts)
        thr = (2.0 * COST_TOL) * np.maximum.reduceat(np.abs(e), starts)
        bad = ~np.isfinite(thr) | (nxt - lo <= thr)

    c = sel[at_lo]  # still grouped by row
    cs = seg[at_lo]
    if (cs[1:] == cs[:-1]).any():  # exact ties at the minimum
        order = np.lexsort((U_pair[c], D_pair[c], hopU[c], inc_pair[c], cs))
        c = c[order]
        cs = cs[order]
        first = _run_heads(cs)
        c = c[first]
        cs = cs[first]
    win = c[~bad[cs]]
    rows = row_pair[win]
    has[rows] = True
    b_id[rows] = U_pair[win]
    b_oc[rows] = oc[win]
    b_hop[rows] = hopU[win]
    if not bad.any():
        return has, b_id, b_oc, b_hop, 0

    redo = rs[starts[bad]]
    local = np.full(n_rows, -1, dtype=np.int64)
    local[redo] = np.arange(redo.size, dtype=np.int64)
    sub = sel[local[rs] >= 0]  # ascending: neighbor order is kept
    r_has, r_id, r_oc, r_hop = _fold_sequential(
        redo.size, local[row_pair[sub]], slot[sub],
        np.ones(sub.size, dtype=bool), eff[sub], oc[sub],
        inc_pair[sub], hopU[sub], D_pair[sub], U_pair[sub],
    )
    has[redo] = r_has
    b_id[redo] = r_id
    b_oc[redo] = r_oc
    b_hop[redo] = r_hop
    return has, b_id, b_oc, b_hop, int(redo.size)


class ArrayRoundEngine(RoundEngine):
    """Round engine with batched columnar rule evaluation.

    Same constructor, entry points and trajectory semantics as
    :class:`RoundEngine`; only the per-step evaluation and commit paths
    differ.  Wide steps (``synchronous``, ``distributed`` with a large
    ``k``) take the vector path, where one snapshot's derived arrays
    serve the whole step.  Hop, tx and farthest steps smaller than
    :data:`MIN_BATCH_STEP` take the inherited scalar path, so serial
    daemons run at about the object engine's speed; SS-SPST-E steps
    vectorize at every size.

    :attr:`profile` accumulates per-stage wall-clock counters
    (``commit_s`` / ``snapshot_s`` / ``evaluate_s`` / ``fold_s`` /
    ``scalar_s``), step/snapshot tallies and ``fold_fallback_rows``
    across runs until :meth:`reset_profile`.  ``batch_steps`` counts the
    steps the vector path evaluated, ``scalar_steps`` the non-empty
    steps the scalar rule evaluated.
    """

    def __init__(
        self,
        topo: Topology,
        metric: CostMetric,
        daemon: Union[str, Daemon] = "synchronous",
        *,
        incremental: bool = False,
        rng: Optional[np.random.Generator] = None,
        **daemon_options: object,
    ) -> None:
        super().__init__(
            topo,
            metric,
            daemon,
            incremental=incremental,
            rng=rng,
            **daemon_options,
        )
        self.csr = EdgeCsr(topo, metric)
        t = type(metric)
        if t is HopMetric:
            self._kind = "hop"
        elif t is TxEnergyMetric:
            self._kind = "tx"
        elif t is EnergyAwareMetric:
            self._kind = "energy"
        elif t is FarthestChildMetric:
            self._kind = "farthest"
        else:
            self._kind = None  # unknown metric subclass: scalar evaluation
        self._snap_view: Optional[ColumnarView] = None
        self._snap_ver = -1
        self._snap: Optional[_Snapshot] = None
        self.reset_profile()

    def reset_profile(self) -> None:
        """Zero the per-stage profile counters."""
        self.profile = {
            "commit_s": 0.0,
            "snapshot_s": 0.0,
            "evaluate_s": 0.0,
            "fold_s": 0.0,
            "scalar_s": 0.0,
            "snapshots_full": 0,
            "snapshots_incremental": 0,
            "batch_steps": 0,
            "scalar_steps": 0,
            "fold_fallback_rows": 0,
        }

    # ------------------------------------------------------------------
    def _make_view(self, states: Sequence[NodeState]) -> ColumnarView:
        return ColumnarView(
            self.topo, states, self.csr, self.metric,
            self._kind in ("farthest", "energy"),
        )

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def _commit_step(
        self,
        view: GlobalView,
        step_idx: int,
        todo: Sequence[int],
        olds: Sequence[NodeState],
        news: Sequence[NodeState],
        dirty: Optional[Set[int]],
        next_dirty: Optional[Set[int]],
        pos: Dict[int, int],
    ) -> int:
        t0 = time.perf_counter()
        try:
            if self._batch_step(todo) and isinstance(view, ColumnarView):
                return self._commit_batch(
                    view, step_idx, todo, news, dirty, next_dirty, pos
                )
            return super()._commit_step(
                view, step_idx, todo, olds, news, dirty, next_dirty, pos
            )
        finally:
            self.profile["commit_s"] += time.perf_counter() - t0

    def _commit_batch(
        self,
        view: "ColumnarView",
        step_idx: int,
        todo: Sequence[int],
        news: Sequence[NodeState],
        dirty: Optional[Set[int]],
        next_dirty: Optional[Set[int]],
        pos: Dict[int, int],
    ) -> int:
        """Batched :meth:`RoundEngine._commit_step` for the locally-
        coupled metrics: the tolerant move test, the silent-rewrite
        test, the column scatter and the affected-set closure all run as
        array operations.  The chain-coupled metric (SS-SPST-E) keeps
        the scalar path — its dirty sets need the per-move flag-flip
        reports — but its applies feed the incremental snapshots.

        Exactness notes: ``approx_equals`` vectorizes as ``np.maximum``
        under errstate (costs are never NaN; an inf incumbent against an
        inf update gives ``|inf - inf| <= inf`` → False both ways), the
        dataclass inequality as per-column ``!=`` (None as -1), and the
        union of per-change radius balls equals the ball of the unioned
        seeds, so the dirty split matches the scalar loop node for node.
        """
        m = len(todo)
        va = np.asarray(todo, dtype=np.int64)
        po = view.par[va]
        co = view.costa[va]
        ho = view.hopa[va]
        pn = np.fromiter(
            (-1 if s.parent is None else s.parent for s in news),
            np.int64,
            count=m,
        )
        cn = np.fromiter((s.cost for s in news), np.float64, count=m)
        hn = np.fromiter((s.hop for s in news), np.int64, count=m)
        with np.errstate(invalid="ignore"):
            band = COST_TOL * np.maximum(np.abs(co), np.abs(cn))
            approx = (po == pn) & (ho == hn) & (np.abs(co - cn) <= band)
        n_moves = int(m - np.count_nonzero(approx))
        if self.daemon.parallel and self.daemon.overwrite:
            applied = (po != pn) | (co != cn) | (ho != hn)
        else:
            applied = ~approx
        idx = np.flatnonzero(applied)
        if idx.size == 0:
            return n_moves
        view.commit_batch(
            va[idx],
            po[idx],
            pn[idx],
            [news[i] for i in idx.tolist()],
        )
        if dirty is not None:
            mvd = po[idx] != pn[idx]
            ends = np.concatenate((po[idx][mvd], pn[idx][mvd]))
            seeds = np.unique(np.concatenate((va[idx], ends[ends >= 0])))
            for w in self._close_over(seeds):
                if pos.get(w, -1) > step_idx:
                    dirty.add(w)
                else:
                    next_dirty.add(w)
        return n_moves

    def _close_over(self, seeds: np.ndarray) -> Sequence[int]:
        """``_affected``'s dependency-radius closure around already-
        unioned seeds, as CSR frontier expansions."""
        radius = self.metric.dependency_radius
        if radius is None:
            return range(self.topo.n)
        indptr, nbr = self.csr.indptr, self.csr.nbr
        out = seeds
        frontier = seeds
        for _ in range(radius):
            cnts = indptr[frontier + 1] - indptr[frontier]
            tot = int(cnts.sum())
            if tot == 0:
                break
            offs = np.repeat(indptr[frontier], cnts) + (
                np.arange(tot, dtype=np.int64)
                - np.repeat(_excl_cumsum(cnts), cnts)
            )
            nxt = np.setdiff1d(nbr[offs], out)
            if nxt.size == 0:
                break
            out = np.union1d(out, nxt)
            frontier = nxt
        return out.tolist()

    # ------------------------------------------------------------------
    # Evaluation path
    # ------------------------------------------------------------------
    def _evaluate_step(self, view: GlobalView, todo: Sequence[int]) -> List[NodeState]:
        if self._batch_step(todo) or (
            self._kind == "energy" and self._prices_scan(view)
        ):
            return self._evaluate_batch(view, todo, self._kind)
        t0 = time.perf_counter()
        out = super()._evaluate_step(view, todo)
        self.profile["scalar_s"] += time.perf_counter() - t0
        self.profile["scalar_steps"] += 1
        return out

    def _batch_step(self, todo: Sequence[int]) -> bool:
        """Whether a step of a locally-coupled metric is large enough
        for the vector path; smaller ones take the scalar rule."""
        return len(todo) >= MIN_BATCH_STEP and self._kind in _LOCAL_KINDS

    def _prices_scan(self, view: GlobalView) -> bool:
        """Whether SS-SPST-E's forest prefix scan prices this state.

        Parent cycles make the scan unsound (the scalar walk's cycle
        guard is per-candidate); a parented source cuts the forest
        differently from the children map.  Both are rare and transient:
        such steps take the scalar rule."""
        return view._n_cycles == 0 and view.par[self.topo.source] < 0

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _snapshot(self, view: ColumnarView, kind: str) -> _Snapshot:
        if self._snap_view is view and self._snap_ver == view.version:
            return self._snap
        t0 = time.perf_counter()
        n = self.topo.n
        prev = self._snap if self._snap_view is view else None
        s: Optional[_Snapshot] = None
        if prev is not None:
            # Incremental update: cheaper than a rebuild while the dirty
            # rows are a small fraction of the columns (either path is
            # exact; the threshold is pure heuristic).
            if kind == "farthest" and len(view._at_dirty) * 4 <= n:
                self._update_at(view, prev)
                s = prev
            elif (
                kind == "energy"
                and not view._snap_full
                and (
                    len(view._ft_dirty)
                    + len(view._ml_dirty)
                    + len(view._price_roots)
                )
                * 4
                <= n
            ):
                self._update_energy(view, prev)
                s = prev
        if s is None:
            s = _Snapshot()
            par = view.par
            if kind == "farthest":
                kids = np.flatnonzero(par >= 0)
                s.at1, s.at1c, s.at2, s.at1e, s.at2e = _top2(
                    n, kids, par, view.pdist_raw, view.pe_etx_raw
                )
            elif kind == "energy":
                self._build_energy_full(view, s)
            self.profile["snapshots_full"] += 1
        else:
            self.profile["snapshots_incremental"] += 1
        view._snap_reset()
        self._snap_view = view
        self._snap_ver = view.version
        self._snap = s
        self.profile["snapshot_s"] += time.perf_counter() - t0
        return s

    # -- incremental updates -------------------------------------------
    def _update_at(self, view: ColumnarView, s: _Snapshot) -> None:
        """Refresh the all-children top-2 rows of the dirty parents
        (``at`` rows read only parent pointers and edge distances, so
        endpoint tracking stays sound through cycles and flag events)."""
        if not view._at_dirty:
            return
        dp = np.unique(
            np.fromiter(view._at_dirty, np.int64, count=len(view._at_dirty))
        )
        s.at1[dp] = 0.0
        s.at2[dp] = 0.0
        s.at1e[dp] = 0.0
        s.at2e[dp] = 0.0
        s.at1c[dp] = -1
        par = view.par
        att = np.flatnonzero(par >= 0)
        kids = att[np.isin(par[att], dp)]
        if kids.size:
            _top2_scatter(
                kids, par, view.pdist_raw, view.pe_etx_raw,
                s.at1, s.at1c, s.at2, s.at1e, s.at2e,
            )

    def _update_energy(self, view: ColumnarView, s: _Snapshot) -> None:
        """Re-derive only the stale snapshot rows.

        Staleness propagates in one direction: a parent move / flag flip
        dirties the endpoints' flagged top-2 rows (``_ft_dirty``); a
        changed top-2 row re-prices the marginals of exactly that
        parent's (current) children; a changed marginal or chain event
        re-prices exactly that node's subtree.  The sweep roots are the
        union; everything else is bitwise-unchanged by construction.
        """
        par = view.par
        flags = view._flags  # materializes counters; np bool column
        s.flags = flags
        if s.forest_ver != view._forest_ver:
            self._build_forest(view, s)
            levels = self._forest_levels(s)
            self._forest_intervals(view, s, levels)
            s.forest_ver = view._forest_ver
        kids_ft = np.empty(0, dtype=np.int64)
        if view._ft_dirty:
            dp = np.unique(
                np.fromiter(
                    view._ft_dirty, np.int64, count=len(view._ft_dirty)
                )
            )
            s.ft1[dp] = 0.0
            s.ft2[dp] = 0.0
            s.ft1e[dp] = 0.0
            s.ft2e[dp] = 0.0
            s.ft1c[dp] = -1
            kids_ft = self._gather_kids(s, dp)
            fk = kids_ft[flags[kids_ft]]
            if fk.size:
                _top2_scatter(
                    fk, par, view.pdist_raw, view.pe_etx_raw,
                    s.ft1, s.ft1c, s.ft2, s.ft1e, s.ft2e,
                )
        W = np.unique(
            np.concatenate(
                (
                    np.fromiter(
                        view._ml_dirty, np.int64, count=len(view._ml_dirty)
                    ),
                    kids_ft,
                )
            )
        )
        if W.size:
            s.ML[W] = 0.0
            att = W[(par[W] >= 0) & (W != self.topo.source)]
            if att.size:
                self._ml_fill(view, s, att)
        R = np.unique(
            np.concatenate(
                (
                    np.fromiter(
                        view._price_roots,
                        np.int64,
                        count=len(view._price_roots),
                    ),
                    W,
                )
            )
        )
        if R.size:
            self._sweep_prices(view, s, R)

    def _sweep_prices(
        self, view: ColumnarView, s: _Snapshot, R: np.ndarray
    ) -> None:
        """Recompute ``Pd``/``Pc`` for exactly the subtrees rooted at
        ``R``: prune nested roots with the Euler intervals (only the
        outermost survive, so every survivor's parent is provably
        outside all swept subtrees and its rows are clean), reseed the
        survivors from their parents, descend level by level."""
        tin, tout = s.tin, s.tout
        order = np.argsort(tin[R], kind="stable")
        keep: List[int] = []
        last_tout = -1
        for r in R[order].tolist():
            if tin[r] >= last_tout:
                keep.append(r)
                last_tout = int(tout[r])
        roots = np.asarray(keep, dtype=np.int64)
        par = view.par
        src = self.topo.source
        flags = s.flags
        rooted = par[roots] < 0
        rr = roots[rooted]
        if rr.size:
            base = np.where(rr == src, 0.0, view.costa[rr])
            s.Pd[rr] = base
            s.Pc[rr] = base
        at = roots[~rooted]
        if at.size:
            pk = par[at]
            s.Pd[at] = s.Pd[pk]
            s.Pc[at] = np.where(flags[pk], s.Pd[pk], s.Pc[pk]) + s.ML[at]
        frontier = roots
        while frontier.size:
            kids = self._gather_kids(s, frontier)
            if kids.size == 0:
                break
            pk = par[kids]
            s.Pd[kids] = s.Pd[pk]
            s.Pc[kids] = np.where(flags[pk], s.Pd[pk], s.Pc[pk]) + s.ML[kids]
            frontier = kids

    # -- full builds ---------------------------------------------------
    def _build_energy_full(self, view: ColumnarView, s: _Snapshot) -> None:
        n = self.topo.n
        par = view.par
        flags = view._flags
        s.flags = flags
        kids = np.flatnonzero((par >= 0) & flags)
        s.ft1, s.ft1c, s.ft2, s.ft1e, s.ft2e = _top2(
            n, kids, par, view.pdist_raw, view.pe_etx_raw
        )
        s.ML = np.zeros(n, dtype=np.float64)
        ids = np.arange(n, dtype=np.int64)
        att = np.flatnonzero((par >= 0) & (ids != self.topo.source))
        if att.size:
            self._ml_fill(view, s, att)
        self._build_forest(view, s)
        s.forest_ver = view._forest_ver
        levels = self._forest_levels(s)
        self._scan_prices(view, s, levels)
        self._forest_intervals(view, s, levels)

    def _ml_fill(self, view: ColumnarView, s: _Snapshot, att: np.ndarray) -> None:
        """The link-marginal block over ``att`` (attached, non-source)
        rows: ``ML[w]`` is the marginal of link ``w -> parent(w)`` while
        the carried flag is alive.  Same expressions and floats whether
        called on all rows (full build) or a dirty subset."""
        csr = self.csr
        par = view.par
        p = par[att]
        d = view.pdist_edge[att]
        de = view.pe_etx_edge[att]
        r_wo = np.where(s.ft1c[p] == att, s.ft2[p], s.ft1[p])
        r_e = np.where(s.ft1c[p] == att, s.ft2e[p], s.ft1e[p])
        cnt_d = csr.count_within(p, d)
        cnt_r = csr.count_within(p, r_wo)
        e_rx = self.metric.e_rx
        with np.errstate(invalid="ignore"):
            ncar_d = de + cnt_d * e_rx
            ncar_r = np.where(r_wo > 0.0, r_e + cnt_r * e_rx, 0.0)
            s.ML[att] = np.where(d <= r_wo, 0.0, ncar_d - ncar_r)

    def _build_forest(self, view: ColumnarView, s: _Snapshot) -> None:
        """Child CSR of the parent forest.  The chain walk's source cut
        (``par_eff[src] = -1``) is a no-op here: the batch gate
        guarantees a detached source."""
        n = self.topo.n
        par = view.par
        att = np.flatnonzero(par >= 0)
        cnt = np.bincount(par[att], minlength=n).astype(np.int64)
        s.kcnt = cnt
        s.kptr = _excl_cumsum(cnt)
        s.kbuf = att[np.argsort(par[att], kind="stable")]
        s.roots = np.flatnonzero(par < 0)

    def _gather_kids(self, s: _Snapshot, parents: np.ndarray) -> np.ndarray:
        cnts = s.kcnt[parents]
        tot = int(cnts.sum())
        if tot == 0:
            return np.empty(0, dtype=np.int64)
        offs = np.repeat(s.kptr[parents], cnts) + (
            np.arange(tot, dtype=np.int64)
            - np.repeat(_excl_cumsum(cnts), cnts)
        )
        return s.kbuf[offs]

    def _forest_levels(self, s: _Snapshot) -> List[np.ndarray]:
        levels: List[np.ndarray] = []
        frontier = s.roots
        while frontier.size:
            kids = self._gather_kids(s, frontier)
            if kids.size == 0:
                break
            levels.append(kids)
            frontier = kids
        return levels

    def _scan_prices(
        self, view: ColumnarView, s: _Snapshot, levels: List[np.ndarray]
    ) -> None:
        """Root-to-leaf chain-price prefix scan, one level at a time —
        the exact accumulation order of the scalar walk's memo backfill,
        so the floats match bit for bit."""
        n = self.topo.n
        par = view.par
        src = self.topo.source
        flags = s.flags
        Pd = np.zeros(n, dtype=np.float64)
        Pc = np.zeros(n, dtype=np.float64)
        base = np.where(s.roots == src, 0.0, view.costa[s.roots])
        Pd[s.roots] = base
        Pc[s.roots] = base
        for kids in levels:
            pk = par[kids]
            Pd[kids] = Pd[pk]
            Pc[kids] = np.where(flags[pk], Pd[pk], Pc[pk]) + s.ML[kids]
        s.Pd = Pd
        s.Pc = Pc

    def _forest_intervals(
        self, view: ColumnarView, s: _Snapshot, levels: List[np.ndarray]
    ) -> None:
        """Euler tin/tout, vectorized: subtree sizes bottom-up, then
        preorder numbers level by level (a child starts one past its
        parent plus the sizes of its earlier siblings).  The numbering
        can differ from the scalar builder's (which pushes children onto
        a stack, visiting them reversed) — only interval *membership* is
        ever observed, and any consistent numbering yields the same
        verdicts."""
        n = self.topo.n
        par = view.par
        sz = np.ones(n, dtype=np.int64)
        for kids in reversed(levels):
            np.add.at(sz, par[kids], sz[kids])
        tin = np.zeros(n, dtype=np.int64)
        tin[s.roots] = _excl_cumsum(sz[s.roots])
        for kids in levels:
            pk = par[kids]
            gc = _excl_cumsum(sz[kids])
            firsts = np.ones(kids.size, dtype=bool)
            firsts[1:] = pk[1:] != pk[:-1]
            gi = np.flatnonzero(firsts)
            reps = np.diff(np.append(gi, kids.size))
            base = np.repeat(gc[gi], reps)
            tin[kids] = tin[pk] + 1 + (gc - base)
        s.tin = tin
        s.tout = tin + sz

    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, view: ColumnarView, todo: Sequence[int], kind: str
    ) -> List[NodeState]:
        t_start = time.perf_counter()
        prof = self.profile
        snap0 = prof["snapshot_s"]
        fold0 = prof["fold_s"]
        topo, metric, csr = self.topo, self.metric, self.csr
        src = topo.source
        h_max = H_MAX(topo)
        oc_max = metric.infinity(topo)

        todo_arr = np.asarray(todo, dtype=np.int64)
        Vrow = todo_arr[todo_arr != src]
        n_rows = len(Vrow)
        results: List[Optional[NodeState]] = [None] * len(todo)
        if n_rows:
            counts = csr.indptr[Vrow + 1] - csr.indptr[Vrow]
            P = int(counts.sum())
        else:
            P = 0
        if P == 0:
            has = np.zeros(n_rows, dtype=bool)
            b_id = b_hop = np.zeros(n_rows, dtype=np.int64)
            b_oc = np.zeros(n_rows, dtype=np.float64)
        else:
            row_pair = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
            V_pair = Vrow[row_pair]
            slot = np.arange(P, dtype=np.int64) - np.repeat(
                _excl_cumsum(counts), counts
            )
            offs = np.repeat(csr.indptr[Vrow], counts) + slot
            U_pair = csr.nbr[offs]
            D_pair = csr.dist[offs]
            hopU = view.hopa[U_pair]
            valid = hopU < h_max

            oc = self._pair_costs(
                view, kind, Vrow, row_pair, V_pair, U_pair, D_pair, offs, valid
            )

            inc_b = U_pair == view.par[V_pair]
            hyst = metric.switch_hysteresis
            with np.errstate(invalid="ignore"):
                eff = np.where(inc_b, oc, oc * (1.0 + hyst))
            inc_pair = np.where(inc_b, 0, 1).astype(np.int64)

            t_fold = time.perf_counter()
            has, b_id, b_oc, b_hop, n_redo = _fold(
                n_rows, row_pair, slot, valid,
                eff, oc, inc_pair, hopU, D_pair, U_pair,
            )
            prof["fold_s"] += time.perf_counter() - t_fold
            prof["fold_fallback_rows"] += n_redo

        rows = zip(has.tolist(), b_id.tolist(), b_oc.tolist(), b_hop.tolist())
        for i, v in enumerate(todo):
            if v == src:
                results[i] = NodeState(parent=None, cost=0.0, hop=0)
                continue
            h, p, c, hp = next(rows)
            if h:
                results[i] = NodeState(parent=p, cost=c, hop=hp + 1)
            else:
                results[i] = NodeState(parent=None, cost=oc_max, hop=h_max)
        prof["evaluate_s"] += (
            (time.perf_counter() - t_start)
            - (prof["snapshot_s"] - snap0)
            - (prof["fold_s"] - fold0)
        )
        prof["batch_steps"] += 1
        return results

    # ------------------------------------------------------------------
    def _pair_costs(
        self,
        view: "ColumnarView",
        kind: str,
        Vrow: np.ndarray,
        row_pair: np.ndarray,
        V_pair: np.ndarray,
        U_pair: np.ndarray,
        D_pair: np.ndarray,
        offs: np.ndarray,
        valid: np.ndarray,
    ) -> np.ndarray:
        metric, csr = self.metric, self.csr
        if kind == "hop":
            return view.costa[U_pair] + 1.0
        if kind == "tx":
            return view.costa[U_pair] + csr.etx()[offs]
        if kind == "farthest":
            s = self._snapshot(view, kind)
            etx_d = csr.etx()[offs]
            with np.errstate(invalid="ignore"):
                excl = s.at1c[U_pair] == V_pair
                r_wo = np.where(excl, s.at2[U_pair], s.at1[U_pair])
                r_we = np.where(excl, s.at2e[U_pair], s.at1e[U_pair])
                etx_with = np.where(D_pair > r_wo, etx_d, r_we)
                delta = (etx_with - r_we) + metric.e_rx
                return view.costa[U_pair] + delta
        # energy
        s = self._snapshot(view, kind)
        flags = s.flags
        tin, tout = s.tin, s.tout
        inf = metric.infinity(self.topo)
        etx_d = csr.etx()[offs]
        e_rx = metric.e_rx
        with np.errstate(invalid="ignore"):
            vfl = flags[V_pair]
            in_desc = (tin[V_pair] <= tin[U_pair]) & (
                tin[U_pair] < tout[V_pair]
            )
            price = np.where(vfl & ~flags[U_pair], s.Pc[U_pair], s.Pd[U_pair])
            price = np.where(in_desc, inf, price)
            excl = s.ft1c[U_pair] == V_pair
            r_wo = np.where(excl, s.ft2[U_pair], s.ft1[U_pair])
            r_e = np.where(excl, s.ft2e[U_pair], s.ft1e[U_pair])
            cnt_d = csr.count_within(U_pair, D_pair)
            cnt_r = csr.count_within(U_pair, r_wo)
            ncar_d = etx_d + cnt_d * e_rx
            ncar_r = np.where(r_wo > 0.0, r_e + cnt_r * e_rx, 0.0)
            marg = np.where(D_pair <= r_wo, 0.0, ncar_d - ncar_r)
            delta = np.where(vfl, marg, 0.0)
            oc = price + delta

        # Correction zones: a flagged attached evaluator's detachment is
        # visible to chain reads below the first ancestor that keeps its
        # flag without it (``zr``); candidates inside zr's subtree are
        # re-priced through the scalar path (exact detached-world walk).
        # Everything outside reads only live values — the vector price is
        # already exact there.
        zlo = np.zeros(len(Vrow), dtype=np.int64)
        zhi = np.zeros(len(Vrow), dtype=np.int64)
        states = view.states
        members = self.topo.members
        fcnt = view._fcnt
        any_zone = False
        for r, v in enumerate(Vrow.tolist()):
            if not flags[v]:
                continue
            pv = states[v].parent
            if pv is None:
                continue
            w = pv
            last = pv
            while w is not None and w not in members and fcnt[w] <= 1:
                last = w
                w = states[w].parent
            zr = w if w is not None else last
            zlo[r] = tin[zr]
            zhi[r] = tout[zr]
            any_zone = True
        if any_zone:
            in_zone = (tin[U_pair] >= zlo[row_pair]) & (
                tin[U_pair] < zhi[row_pair]
            )
            for i in np.flatnonzero(in_zone & valid).tolist():
                oc[i] = metric.join_cost(view, int(V_pair[i]), int(U_pair[i]))
        return oc
