"""Activation daemons: *who* gets to move, and *when*.

Self-stabilization guarantees are always stated relative to a **daemon**
— the adversary/scheduler that decides which enabled nodes execute their
guarded update in each round.  The paper's round-count examples assume
the synchronous daemon; Dijkstra-style proofs are usually stated under a
central daemon; the DES protocol's jittered beacons realize a randomized
one; and the schedules under which self-stabilization claims are really
stressed (adversarial, bounded-delay) are daemons too.

This module decomposes the daemon from the evaluation engine
(:class:`~repro.core.rounds.RoundEngine`): a :class:`Daemon` yields, per
round, a sequence of **activation steps** — tuples of node ids that
update simultaneously from the same snapshot.  Serial daemons yield
1-node steps; the synchronous daemon yields one n-node step.  Every
daemon automatically composes with both the full and the incremental
(dirty-set) evaluation modes of the engine, with bit-identical
trajectories between the two — a new schedule is a ~30-line subclass,
not a new executor.

Provided daemons:

====================  =================================================
``synchronous``       all nodes at once from the previous round's
                      snapshot (the paper's round-count model)
``central``           one node at a time in id order (classic proofs)
``randomized``        one at a time, fresh random permutation per round
                      (what jittered beacons do; escapes the fixed-order
                      limit cycles of the F/E metrics almost surely)
``distributed``       k-local-parallel: a random permutation chunked
                      into groups of ``k`` nodes that move simultaneously
                      (between central ``k=1`` and synchronous ``k=n``)
``adversarial-max-cost``  greedy adversary: among the *enabled* nodes it
                      always activates the one whose move keeps the total
                      capped cost highest (stalling the Lyapunov descent;
                      the schedule convergence claims must survive)
``weakly-fair``       bounded-delay: each round activates a random
                      subset, but no node is skipped more than
                      ``delay - 1`` rounds in a row (the weakest fairness
                      under which convergence is still guaranteed)
====================  =================================================
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Type

import numpy as np

from repro.core.rules import COST_TOL, compute_update
from repro.util.ids import NodeId

Step = Tuple[NodeId, ...]


class Daemon(abc.ABC):
    """Activation scheduler: yields per-round activation sequences.

    Subclasses only describe *scheduling*; evaluation, state application,
    dirty-set bookkeeping, convergence detection and diagnostics all live
    in :class:`~repro.core.rounds.RoundEngine`, so every daemon works
    under both the full and the incremental engine mode unchanged.
    """

    #: registry/config name
    name: str = "?"
    #: True when multi-node steps are snapshot steps (all updates computed
    #: from the step-start view, then applied together)
    parallel: bool = False
    #: parallel-step write policy: also apply updates that differ from the
    #: current state only below the move tolerance (the semantics of
    #: ``daemon="synchronous"``; silent rewrites propagate but do not
    #: count as moves)
    overwrite: bool = False
    #: True when the schedule reads the live view (the engine then drives
    #: the round lazily, step by step, instead of materializing it)
    adaptive: bool = False
    #: how many consecutive move-free rounds certify a fixpoint.  Daemons
    #: that schedule (or scan) every node each round need 1; a partial
    #: daemon needs its bounded delay (a round may make no moves simply
    #: because no enabled node was scheduled).
    quiescence_rounds: int = 1

    def reset(self, n: int) -> None:
        """Per-run initialization (fairness bookkeeping etc.)."""

    @abc.abstractmethod
    def round_steps(self, ctx: "RoundContext") -> Iterable[Step]:
        """The activation steps of one round.

        Non-adaptive daemons must not read ``ctx.view`` — their schedule
        may depend only on ``ctx.n``, ``ctx.round_no``, their own rng and
        fairness bookkeeping, so that full and incremental engine modes
        (which invoke this exactly once per round either way) see the
        same schedule.  Adaptive daemons may read the view through
        ``ctx.probe``/``ctx.current`` and are re-entered lazily after
        each step is applied.
        """


class RoundContext:
    """What a daemon may read while scheduling one round.

    Built by the engine.  ``probe`` computes (and memoizes, until a state
    change invalidates it) the update rule's result for one node — each
    fresh computation counts toward the run's ``evaluations`` diagnostic.
    ``candidates()`` is the set of nodes that can possibly be enabled:
    every node in full mode, the dirty set in incremental mode (a clean
    node recomputes its own state by the dirty-set invariant, so
    restricting an enabled-node scan to it is exact, not a heuristic).
    """

    __slots__ = ("engine", "view", "round_no", "n", "evaluations", "_dirty",
                 "_cap", "_probe_cache", "probed_clean")

    def __init__(
        self,
        engine: object,
        view: object,
        dirty: Optional[Set[NodeId]],
        round_no: int,
    ) -> None:
        self.engine = engine
        self.view = view
        self.round_no = round_no
        self.n = engine.topo.n
        self.evaluations = 0
        self._dirty = dirty
        self._cap = engine.metric.infinity(engine.topo)
        self._probe_cache: Dict[NodeId, object] = {}
        #: nodes whose probe matched their current state since the last
        #: state change (the engine prunes them from the dirty set)
        self.probed_clean: set = set()

    def candidates(self) -> Iterable[NodeId]:
        """Nodes that may be enabled, in deterministic (id) order."""
        if self._dirty is None:
            return range(self.n)
        return sorted(self._dirty)

    def current(self, v: NodeId) -> object:
        """v's current state."""
        return self.view.states[v]

    def probe(self, v: NodeId) -> object:
        """The state the update rule assigns to ``v`` right now."""
        ns = self._probe_cache.get(v)
        if ns is None:
            ns = compute_update(self.engine.topo, self.engine.metric, self.view, v)
            self._probe_cache[v] = ns
            self.evaluations += 1
            if ns.approx_equals(self.view.states[v], tol=COST_TOL):
                self.probed_clean.add(v)
        return ns

    def is_enabled(self, v: NodeId) -> bool:
        """Whether ``v``'s guard is violated (its update would move it)."""
        return not self.probe(v).approx_equals(self.view.states[v], tol=COST_TOL)

    def capped(self, cost: float) -> float:
        """Cost clipped at OC_max (the Lyapunov summand)."""
        return min(cost, self._cap)

    def flush_probes(self) -> None:
        """Invalidate probe memos after a state change (engine-called)."""
        self._probe_cache.clear()
        self.probed_clean.clear()


# ----------------------------------------------------------------------
# The daemons
# ----------------------------------------------------------------------
class SynchronousDaemon(Daemon):
    """All nodes move simultaneously from the previous round's snapshot."""

    name = "synchronous"
    parallel = True
    overwrite = True

    def round_steps(self, ctx: RoundContext) -> Iterator[Step]:
        yield tuple(range(ctx.n))


class CentralDaemon(Daemon):
    """One node at a time, id order, each seeing the freshest states."""

    name = "central"

    def round_steps(self, ctx: RoundContext) -> Iterator[Step]:
        for v in range(ctx.n):
            yield (v,)


class RandomizedDaemon(Daemon):
    """Serial activation in a fresh random order every round.

    Strictly-improving local moves under the F/E metrics are not an exact
    potential game (a move changes *other* nodes' marginal costs), so a
    fixed activation order can enter a limit cycle in rare adversarial
    states.  Randomizing the order — which is what jittered beacon timing
    does in the real protocol — escapes such cycles almost surely.
    """

    name = "randomized"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def round_steps(self, ctx: RoundContext) -> Iterator[Step]:
        for v in self.rng.permutation(ctx.n):
            yield (int(v),)


class DistributedDaemon(Daemon):
    """k-local-parallel: random groups of ``k`` nodes move simultaneously.

    A random permutation is chunked into ``ceil(n / k)`` snapshot steps;
    within a step the ``k`` nodes all read the step-start view (the
    distributed-daemon assumption that an arbitrary bounded subset acts
    concurrently).  ``k = 1`` degenerates to the randomized serial
    daemon, ``k = n`` to a randomly-ordered synchronous one.
    """

    name = "distributed"
    parallel = True  # snapshot steps, but no sync-style silent rewrites

    def __init__(self, rng: np.random.Generator, k: int = 4) -> None:
        if k < 1:
            raise ValueError("distributed daemon needs k >= 1")
        self.rng = rng
        self.k = int(k)

    def round_steps(self, ctx: RoundContext) -> Iterator[Step]:
        perm = [int(v) for v in self.rng.permutation(ctx.n)]
        for i in range(0, ctx.n, self.k):
            yield tuple(perm[i : i + self.k])


class AdversarialMaxCostDaemon(Daemon):
    """Greedy adversary: always activates the worst enabled node.

    Each step it scans the enabled nodes (guard violated) and activates
    the one whose move leaves the total capped cost *highest* — the
    schedule that fights the Lemma-1 Lyapunov descent hardest.  A round
    is at most ``n`` such picks (or fewer when the system quiesces).
    Under metrics that are exact potentials (hop, tx) this only slows
    convergence; under the F/E metrics it can drive the limit cycles the
    randomized daemon escapes, which is precisely what makes it the right
    stress test for convergence claims.
    """

    name = "adversarial-max-cost"
    adaptive = True

    def round_steps(self, ctx: RoundContext) -> Iterator[Step]:
        for _ in range(ctx.n):
            best: Optional[Tuple[Tuple[float, int], NodeId]] = None
            for v in ctx.candidates():
                ns = ctx.probe(v)
                old = ctx.current(v)
                if ns.approx_equals(old, tol=COST_TOL):
                    continue
                delta = ctx.capped(ns.cost) - ctx.capped(old.cost)
                key = (delta, -v)  # max delta; ties -> smallest id
                if best is None or key > best[0]:
                    best = (key, v)
            if best is None:
                return  # quiescent: nothing enabled
            yield (best[1],)


class WeaklyFairDaemon(Daemon):
    """Bounded-delay daemon: random subsets, no node starved past ``delay``.

    Each round every node is scheduled with probability ``p``; a node
    skipped ``delay - 1`` rounds in a row is scheduled unconditionally,
    so any window of ``delay`` consecutive rounds activates every node at
    least once (weak fairness with a hard bound).  Scheduled nodes run
    serially in id order.  Because a round may legitimately make no moves
    while enabled nodes sit unscheduled, a fixpoint is only certified by
    ``delay`` consecutive move-free rounds (``quiescence_rounds``).
    """

    name = "weakly-fair"

    def __init__(self, rng: np.random.Generator, delay: int = 3, p: float = 0.5) -> None:
        if delay < 1:
            raise ValueError("weakly-fair daemon needs delay >= 1")
        if not 0.0 <= p <= 1.0:
            raise ValueError("activation probability must be in [0, 1]")
        self.rng = rng
        self.delay = int(delay)
        self.p = float(p)
        self.quiescence_rounds = int(delay)
        self._skipped: Optional[list] = None

    def reset(self, n: int) -> None:
        self._skipped = [0] * n  # consecutive rounds without activation

    def round_steps(self, ctx: RoundContext) -> Iterator[Step]:
        if self._skipped is None or len(self._skipped) != ctx.n:
            self.reset(ctx.n)
        draws = self.rng.random(ctx.n)
        skipped = self._skipped
        for v in range(ctx.n):
            if skipped[v] + 1 >= self.delay or draws[v] < self.p:
                skipped[v] = 0
                yield (v,)
            else:
                skipped[v] += 1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Daemon]] = {
    d.name: d
    for d in (
        SynchronousDaemon,
        CentralDaemon,
        RandomizedDaemon,
        DistributedDaemon,
        AdversarialMaxCostDaemon,
        WeaklyFairDaemon,
    )
}

#: canonical daemon order used across configs, tests and reports
DAEMON_NAMES: Tuple[str, ...] = tuple(_REGISTRY)

#: subset with a DES (beacon-scheduling) realization; the adversarial
#: daemon is a round-model-only stress schedule (a packet-level adversary
#: would need omniscient, zero-latency control of every node's clock)
DES_DAEMON_NAMES: Tuple[str, ...] = tuple(
    n for n in DAEMON_NAMES if n != AdversarialMaxCostDaemon.name
)

def require_des_daemon(name: str) -> None:
    """Raise the canonical error when ``name`` has no DES realization.

    One message, shared by every layer that gates on a beacon-schedule
    realization (the DES experiment backend, the protocol factory), so
    callers and tests see the same wording everywhere.
    """
    if name not in DES_DAEMON_NAMES:
        raise ValueError(
            f"daemon {name!r} has no DES realization; choose "
            f"from {sorted(DES_DAEMON_NAMES)} (the adversarial daemon "
            f"is round-model only)"
        )


#: daemons whose construction takes an rng
_NEEDS_RNG = {RandomizedDaemon.name, DistributedDaemon.name, WeaklyFairDaemon.name}


def daemon_by_name(
    name: str, rng: Optional[np.random.Generator] = None, **kwargs: object
) -> Daemon:
    """Instantiate a daemon by registry name.

    ``rng`` feeds the stochastic daemons (randomized / distributed /
    weakly-fair); when omitted a deterministic default stream is used so
    engines stay reproducible.  Extra ``kwargs`` reach the daemon's
    constructor (e.g. ``k=`` for distributed, ``delay=``/``p=`` for
    weakly-fair).
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown daemon {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    if cls.name in _NEEDS_RNG:
        if rng is None:
            rng = np.random.default_rng(0)
        return cls(rng, **kwargs)
    if kwargs:
        raise ValueError(f"daemon {name!r} takes no options (got {sorted(kwargs)})")
    return cls()
