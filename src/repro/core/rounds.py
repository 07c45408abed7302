"""The round engine: one evaluator for every activation daemon.

The paper measures stabilization in *rounds*: "the time period in which
each node in the system receives at least one beacon message from each of
its neighbors and performs computation based on its received information"
(section 2).  *Which* nodes act within a round — and in what order — is
the **daemon** (:mod:`repro.core.daemons`); *how* scheduled nodes are
evaluated is the :class:`RoundEngine`, which comes in two modes:

* **full** — every scheduled node is evaluated every round (the baseline
  the proofs talk about);
* **incremental** — only scheduled nodes in the **dirty set** are
  evaluated: the nodes whose dependency region changed since they were
  last evaluated.  For the locally-coupled metrics (hop, tx, farthest)
  the region is a ``dependency_radius``-hop closure around the endpoints
  of each change (see :class:`~repro.core.metrics.CostMetric`).  The
  chain-coupled SS-SPST-E metric reads, at every evaluation, the whole
  ancestor chains of the candidate parents — so a change reaches exactly
  the nodes *adjacent to the subtrees* of the touched tree positions:
  the moved node, both parent endpoints, and every ancestor whose member
  flag flipped (reported by :meth:`~repro.core.views.GlobalView.apply`).
  When the view cannot localize a change (parent cycles in illegitimate
  states), the engine degenerates gracefully to a full dirty set for
  that change.

For every daemon the two modes produce **bit-identical trajectories**
(states, rounds, cost history, moves): a node outside the dirty set
recomputes exactly the state it already holds, so skipping it cannot
alter any round's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.daemons import Daemon, RoundContext, daemon_by_name
from repro.core.metrics import CostMetric
from repro.core.rules import COST_TOL, H_MAX, compute_update
from repro.core.state import NodeState, StateVector
from repro.core.views import GlobalView
from repro.graph.topology import Topology
from repro.graph.tree import TreeAssignment


def fresh_states(topo: Topology, metric: CostMetric) -> StateVector:
    """Canonical start: root correct, everyone else disconnected.

    "Each node in the network, when it is not connected to the tree has an
    energy cost OC_max" (section 5).
    """
    inf = metric.infinity(topo)
    h_max = H_MAX(topo)
    return [
        NodeState(parent=None, cost=0.0, hop=0)
        if v == topo.source
        else NodeState(parent=None, cost=inf, hop=h_max)
        for v in range(topo.n)
    ]


def arbitrary_states(
    topo: Topology,
    metric: CostMetric,
    rng: np.random.Generator,
) -> StateVector:
    """A random (possibly wildly illegitimate) initial state.

    Parent pointers may form cycles, point anywhere in the neighborhood or
    be absent; costs and hops are random garbage within representable
    bounds.  Self-stabilization must recover from *any* such state
    (Lemma 1), which the property tests exercise.
    """
    inf = metric.infinity(topo)
    h_max = H_MAX(topo)
    states: StateVector = []
    for v in range(topo.n):
        nbrs = topo.neighbors(v)
        if nbrs and rng.random() < 0.8:
            parent = int(rng.choice(nbrs))
        else:
            parent = None
        cost = float(rng.uniform(0.0, inf))
        hop = int(rng.integers(0, h_max + 1))
        states.append(NodeState(parent=parent, cost=cost, hop=hop))
    return states


@dataclass
class StabilizationResult:
    """Outcome of running an engine to fixpoint."""

    states: StateVector
    rounds: int
    converged: bool
    cost_history: List[float] = field(default_factory=list)
    moves: int = 0  # total individual state changes applied
    #: rule evaluations spent *stabilizing*: evaluations in rounds that
    #: moved at least one node.  The trailing move-free pass(es) that
    #: certify the fixpoint are a convergence check, not work — the
    #: incremental engine may short-circuit them entirely (empty dirty
    #: set), so counting them made the full and incremental diagnostics
    #: disagree by exactly n on the final round.  Runs that exhaust
    #: ``max_rounds`` without converging count every evaluation.
    evaluations: int = 0
    #: ancestor steps walked by SS-SPST-E chain pricing (diagnostic; the
    #: quantity the cross-evaluation price-prefix memo shrinks — always 0
    #: for metrics without chain coupling)
    chain_steps: int = 0

    def tree(self, topo: Topology) -> TreeAssignment:
        """Extract the parent assignment as a validated tree."""
        return TreeAssignment(topo, [s.parent for s in self.states])


def total_cost(states: Sequence[NodeState], cap: float) -> float:
    """Sum of per-node costs, capped (the Lemma-1 Lyapunov quantity)."""
    return float(sum(min(s.cost, cap) for s in states))


class RoundEngine:
    """Evaluate a daemon's activation schedule to a fixpoint.

    Parameters
    ----------
    daemon:
        A :class:`~repro.core.daemons.Daemon` instance or registry name
        (``"synchronous"``, ``"central"``, ``"randomized"``,
        ``"distributed"``, ``"adversarial-max-cost"``, ``"weakly-fair"``).
    incremental:
        Dirty-set evaluation (bit-identical to full evaluation, usually
        much cheaper once the system is mostly settled).
    rng:
        Feeds stochastic daemons when ``daemon`` is given by name.
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
        self.topo = topo
        self.metric = metric
        if isinstance(daemon, Daemon):
            if daemon_options:
                raise ValueError("daemon options require a daemon given by name")
            self.daemon = daemon
        else:
            self.daemon = daemon_by_name(daemon, rng=rng, **daemon_options)
        self.incremental = bool(incremental)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        states: StateVector,
        max_rounds: Optional[int] = None,
    ) -> StabilizationResult:
        """Run rounds until a fixpoint (or ``max_rounds``).

        ``rounds`` in the result counts rounds in which at least one node
        changed state — the paper's "takes k rounds to stabilize".
        """
        view = self._make_view(states)
        dirty = set(range(self.topo.n)) if self.incremental else None
        return self._run_from(view, dirty, max_rounds)

    def run_perturbed(
        self,
        settled_states: StateVector,
        perturbations: Sequence,
        max_rounds: Optional[int] = None,
    ) -> StabilizationResult:
        """Resume from a previously *settled* state vector after external
        state changes (faults), evaluating only the affected region.

        ``perturbations`` is a sequence of ``(v, new_state)`` pairs applied
        on top of ``settled_states``.  Because the changes enter through
        :meth:`GlobalView.apply`, their reach is known exactly and the
        initial dirty set is the changes' dependency region instead of the
        whole network — this is where the incremental mode beats full
        evaluation by orders of magnitude (full evaluation re-evaluates
        every scheduled node every round no matter how local the fault).

        The trajectory is bit-identical to ``run()`` on the perturbed
        vector **provided ``settled_states`` was a fixpoint** (then every
        node outside the affected region would recompute exactly the state
        it already holds).  Resuming from a non-fixpoint vector violates
        that contract and may skip pending moves.  In full mode this is
        simply ``run()`` on the perturbed vector.
        """
        view = self._make_view(settled_states)
        if not self.incremental:
            for v, new_state in perturbations:
                if new_state != view.states[v]:
                    view.apply(v, new_state)
            return self._run_from(view, None, max_rounds)
        if getattr(self.metric, "path_couples_to_children", False):
            # Materialize flags/counters up front so the applies below can
            # report their flag flips (a parent-moving apply on a view
            # without flags returns "unknown" and would dirty everyone).
            # Locally-coupled metrics never read flags — skip the O(n·depth)
            # derivation for them.
            view.flag_of(0)
        dirty: Set[int] = set()
        for v, new_state in perturbations:
            old = view.states[v]
            if new_state == old:
                continue
            report = view.apply(v, new_state)
            dirty |= self._affected(view, [(v, old, new_state)], [report])
        return self._run_from(view, dirty, max_rounds)

    # ------------------------------------------------------------------
    # Engine extension points
    # ------------------------------------------------------------------
    def _make_view(self, states: Sequence[NodeState]) -> GlobalView:
        """Build the working view; array engines substitute a columnar one."""
        return GlobalView(self.topo, states)

    def _evaluate_step(self, view: GlobalView, todo: Sequence[int]) -> List[NodeState]:
        """Compute the rule for every node of one activation step.

        All evaluations within a step read the same snapshot (no applies
        happen between them), so subclasses may batch them —
        :class:`~repro.core.array_engine.ArrayRoundEngine` evaluates the
        whole step as vectorized array operations.  Must return the new
        states aligned with ``todo``.
        """
        return [compute_update(self.topo, self.metric, view, v) for v in todo]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _run_from(
        self,
        view: GlobalView,
        dirty: Optional[Set[int]],
        max_rounds: Optional[int] = None,
    ) -> StabilizationResult:
        if max_rounds is None:
            max_rounds = 4 * self.topo.n + 16
        daemon = self.daemon
        daemon.reset(self.topo.n)
        cap = self.metric.infinity(self.topo)
        states = view.states  # the view owns the working copy
        history = [total_cost(states, cap)]
        moves = 0
        rounds = 0
        evaluations = 0
        quiet_rounds = 0
        quiet_evals = 0
        converged = False
        for round_no in range(max_rounds):
            n_moves, n_evals, dirty = self._play_round(view, dirty, round_no)
            history.append(total_cost(states, cap))
            if n_moves == 0:
                # A move-free round only *certifies* a fixpoint once the
                # daemon's quiescence window is full (a partial daemon may
                # simply not have scheduled any enabled node); its
                # evaluations are check-pass work and are discarded on
                # successful convergence.
                quiet_rounds += 1
                quiet_evals += n_evals
                if quiet_rounds >= daemon.quiescence_rounds:
                    converged = True
                    break
            else:
                evaluations += quiet_evals + n_evals
                quiet_evals = 0
                quiet_rounds = 0
                rounds += 1
                moves += n_moves
        if not converged:
            evaluations += quiet_evals
        return StabilizationResult(
            states=states,
            rounds=rounds,
            converged=converged,
            cost_history=history,
            moves=moves,
            evaluations=evaluations,
            chain_steps=view.chain_steps,
        )

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def _play_round(
        self, view: GlobalView, dirty: Optional[Set[int]], round_no: int
    ) -> Tuple[int, int, Optional[Set[int]]]:
        """Play one round; returns ``(n_moves, n_evals, next_dirty)``.

        ``dirty is None`` selects full evaluation.  The incremental
        bookkeeping mirrors what the daemon would let each node *see*:
        when a change dirties a node whose activation step is still ahead
        in this round's schedule, it is re-marked for the current round
        (it would have read the fresh state anyway); nodes whose step
        already passed — or that are not scheduled at all this round —
        carry over to the next round.
        """
        if self.daemon.adaptive:
            return self._play_adaptive_round(view, dirty, round_no)

        ctx = RoundContext(self, view, dirty, round_no)
        steps = [
            tuple(int(v) for v in step) for step in self.daemon.round_steps(ctx)
        ]
        pos = {}
        if dirty is not None:  # only the in-round re-dirty logic reads pos
            for i, step in enumerate(steps):
                for v in step:
                    pos[v] = i
        next_dirty: Optional[Set[int]] = set() if dirty is not None else None
        n_moves = 0
        n_evals = 0
        for i, step in enumerate(steps):
            # Snapshot semantics: every update in the step is computed
            # from the step-start view, then all are applied.  (A 1-node
            # step makes the snapshot distinction vacuous, so serial
            # daemons flow through the same code path; only the write
            # policy differs — see ``overwrite``.)
            todo = []
            for v in step:
                if dirty is not None:
                    if v not in dirty:
                        continue
                    dirty.discard(v)
                todo.append(v)
            olds = [view.states[v] for v in todo]
            news = self._evaluate_step(view, todo)
            n_evals += len(todo)
            n_moves += self._commit_step(
                view, i, todo, olds, news, dirty, next_dirty, pos
            )
        if dirty is not None:
            # Dirty nodes the daemon never scheduled this round stay dirty.
            next_dirty |= dirty
        return n_moves, n_evals, next_dirty

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
        """Apply one activation step's evaluated updates; returns the
        number of genuine moves.

        The engine's second extension point (after :meth:`_evaluate_step`):
        all of a step's updates are known before any is applied, so
        subclasses may commit them as one batch —
        :class:`~repro.core.array_engine.ArrayRoundEngine` scatters the
        whole step into its columns at once.  Must preserve the scalar
        semantics exactly: a *genuine* move is one failing the tolerant
        ``approx_equals`` check; non-genuine but bitwise-different states
        are still written under parallel overwrite daemons (silent
        rewrites), and every applied change dirties its affected region,
        split between this round (steps still ahead, read via ``pos``)
        and the next.
        """
        n_moves = 0
        parallel = self.daemon.parallel
        overwrite = self.daemon.overwrite
        for v, old, ns in zip(todo, olds, news):
            genuine = not ns.approx_equals(old, tol=COST_TOL)
            if genuine:
                n_moves += 1
            elif not (parallel and overwrite and ns != old):
                continue  # no move; silent rewrites only when overwriting
            # Affected sets are computed per change, immediately after
            # its apply: single-step reader analysis is exact (flags
            # and parents are read in the world the change produced),
            # and the union over steps covers the whole batch.
            report = view.apply(v, ns)
            if dirty is not None:
                for w in self._affected(view, [(v, old, ns)], [report]):
                    if pos.get(w, -1) > step_idx:
                        dirty.add(w)
                    else:
                        next_dirty.add(w)
        return n_moves

    def _play_adaptive_round(
        self, view: GlobalView, dirty: Optional[Set[int]], round_no: int
    ) -> Tuple[int, int, Optional[Set[int]]]:
        """Adaptive daemons read the live view while scheduling, so the
        round is driven lazily: each yielded step is applied before the
        daemon is re-entered.  Evaluation happens through the context's
        probe memo (shared with the daemon's own enabled-node scans), and
        the dirty set is maintained step by step: probed-clean nodes drop
        out, each applied change re-dirties its affected region."""
        ctx = RoundContext(self, view, dirty, round_no)
        n_moves = 0
        for step in self.daemon.round_steps(ctx):
            for v in step:
                old = view.states[v]
                ns = ctx.probe(v)
                if ns.approx_equals(old, tol=COST_TOL):
                    continue  # the daemon scheduled a node that is clean
                report = view.apply(v, ns)
                n_moves += 1
                if dirty is not None:
                    dirty -= ctx.probed_clean
                    dirty.discard(v)
                    dirty |= self._affected(view, [(v, old, ns)], [report])
                ctx.flush_probes()
        if dirty is not None:
            dirty -= ctx.probed_clean
        return n_moves, ctx.evaluations, dirty

    # ------------------------------------------------------------------
    def _affected(
        self,
        view: GlobalView,
        changes: Iterable[Tuple[int, NodeState, NodeState]],
        reports: Optional[Sequence[object]] = None,
    ) -> Set[int]:
        """Nodes whose next update may differ after the given changes.

        ``changes`` is an iterable of ``(v, old_state, new_state)``;
        ``reports`` the per-change flag-flip reports returned by
        :meth:`GlobalView.apply` (``None`` entries mean the view could not
        localize the change).

        The seed set is the changed nodes plus the endpoints of any moved
        parent pointer (their children lists — and hence their advertised
        radii — changed too).  Metrics whose path cost couples to the
        child set (SS-SPST-E) additionally read, for every candidate, the
        radii/flags along the candidate's whole ancestor chain: a change
        at tree position ``y`` is therefore read by exactly the candidates
        in ``y``'s subtree, i.e. the evaluators adjacent to it.  For those
        metrics the seeds are widened to the subtrees of every touched
        position — the moved node, both endpoints, every flag-flipped
        ancestor and its parent (whose flagged radius changed).  Finally
        the closure extends the metric's ``dependency_radius`` hops around
        the seeds.  A ``None`` radius (or an unlocalizable change) means
        every node is affected.
        """
        radius = self.metric.dependency_radius
        if radius is None:
            return set(range(self.topo.n))
        chain_coupled = getattr(self.metric, "path_couples_to_children", False)
        seeds = set()
        subtree_roots = set()
        for i, (v, old, new) in enumerate(changes):
            seeds.add(v)
            endpoints = []
            if old.parent != new.parent:
                if old.parent is not None:
                    endpoints.append(old.parent)
                if new.parent is not None:
                    endpoints.append(new.parent)
            seeds.update(endpoints)
            if chain_coupled:
                flips = reports[i] if reports is not None else None
                if flips is None:
                    return set(range(self.topo.n))
                # v's own subtree re-routes through the new chain (and
                # chains terminating at a disconnected v read its cost).
                subtree_roots.add(v)
                # The endpoints' *flagged* radii only changed if the moved
                # child carries a flag; moves of pruned (unflagged) nodes
                # stay invisible to every chain price.
                if view.flag_of(v):
                    subtree_roots.update(endpoints)
                for f in flips:
                    subtree_roots.add(f)
                    pf = view.states[f].parent
                    if pf is not None:
                        subtree_roots.add(pf)
        if subtree_roots:
            seeds |= view.collect_subtrees(subtree_roots)
        out = set(seeds)
        frontier = seeds
        for _ in range(radius):
            nxt = set()
            for v in frontier:
                nxt.update(self.topo.neighbors(v))
            nxt -= out
            if not nxt:
                break
            out |= nxt
            frontier = nxt
        return out
