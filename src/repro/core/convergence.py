"""Checkers for the paper's three lemmas (section 5).

* **Lemma 1 (Convergence)** — from any initial state, a connected topology
  reaches a legitimate state in finitely many rounds; once every node has
  joined the tree, the total cost is non-increasing round over round.
* **Lemma 2 (Closure)** — a legitimate state does not change under further
  rounds (absent topology faults).
* **Lemma 3 (Loop freedom)** — at stabilization the parent pointers form a
  tree (no cycles) and hop counts are bounded by ``|V|``; transient loops
  self-destruct through the hop-count ceiling.

These are used by the unit and property-based tests; they return rich
result objects rather than asserting, so tests can report exactly which
lemma failed and where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.legitimacy import extract_tree, is_legitimate
from repro.core.metrics import CostMetric
from repro.core.rounds import RoundEngine, StabilizationResult
from repro.core.rules import H_MAX
from repro.core.state import NodeState, StateVector
from repro.graph.topology import Topology

#: an engine instance, or a daemon name to build one from (the daemon
#: axis of the experiment layer reaches the lemma checkers this way)
ExecutorLike = Union[RoundEngine, str]


#: registered engine implementations for :func:`engine_for`'s ``engine=``
#: axis: the scalar reference engine and its vectorized drop-in (same
#: trajectories bit for bit; see ``core/array_engine.py``)
ENGINE_NAMES = ("object", "array")


def engine_for(
    topo: Topology,
    metric: CostMetric,
    executor: ExecutorLike,
    *,
    incremental: bool = True,
    engine: str = "object",
    rng: Optional[np.random.Generator] = None,
    **daemon_options: object,
) -> RoundEngine:
    """Accept either an engine or a daemon name.

    The one construction path shared by the lemma checkers and the
    ``rounds`` experiment backend: a name builds an incremental engine
    (bit-identical to full evaluation, usually much cheaper) with a
    deterministic rng unless one is supplied.  ``engine`` selects the
    implementation — ``"object"`` (the scalar reference) or ``"array"``
    (vectorized columnar evaluation, same trajectories, built for
    10^4–10^5 nodes).  Extra keyword options reach the named daemon's
    constructor (e.g. ``k=`` for the distributed daemon — the
    ``daemon_k`` scenario knob); passing them with an engine instance is
    an error, mirroring ``RoundEngine``.
    """
    if isinstance(executor, str):
        if engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
            )
        if engine == "array":
            from repro.core.array_engine import ArrayRoundEngine

            cls = ArrayRoundEngine
        else:
            cls = RoundEngine
        return cls(
            topo,
            metric,
            daemon=executor,
            incremental=incremental,
            rng=np.random.default_rng(0) if rng is None else rng,
            **daemon_options,
        )
    if daemon_options:
        raise ValueError("daemon options require a daemon given by name")
    if engine != "object":
        raise ValueError("engine selection requires a daemon given by name")
    return executor


@dataclass
class LemmaReport:
    """Outcome of one lemma check."""

    holds: bool
    detail: str = ""


def check_convergence(
    topo: Topology,
    metric: CostMetric,
    executor: ExecutorLike,
    initial: StateVector,
    max_rounds: Optional[int] = None,
) -> LemmaReport:
    """Lemma 1: the executor (engine or daemon name) reaches a legitimate
    fixpoint."""
    result = engine_for(topo, metric, executor).run(initial, max_rounds=max_rounds)
    if not result.converged:
        return LemmaReport(False, f"no fixpoint within {len(result.cost_history) - 1} rounds")
    if not is_legitimate(topo, metric, result.states):
        return LemmaReport(False, "fixpoint reached but state is not legitimate")
    if topo.is_connected():
        tree = extract_tree(topo, result.states)
        if tree is None:
            return LemmaReport(False, "parent pointers do not form a tree")
        if not tree.spans_all():
            return LemmaReport(False, "tree does not span the connected graph")
    return LemmaReport(True, f"stabilized in {result.rounds} rounds")


def check_closure(
    topo: Topology,
    metric: CostMetric,
    executor: ExecutorLike,
    stabilized: StateVector,
    extra_rounds: int = 5,
) -> LemmaReport:
    """Lemma 2: further rounds leave a legitimate state untouched."""
    if not is_legitimate(topo, metric, stabilized):
        return LemmaReport(False, "input state is not legitimate")
    result = engine_for(topo, metric, executor).run(
        list(stabilized), max_rounds=extra_rounds
    )
    if result.rounds != 0:
        return LemmaReport(False, f"state moved for {result.rounds} extra rounds")
    same = all(
        a.approx_equals(b) for a, b in zip(result.states, stabilized)
    )
    return LemmaReport(same, "" if same else "states drifted without counting a round")


def check_loop_freedom(
    topo: Topology,
    states: Sequence[NodeState],
) -> LemmaReport:
    """Lemma 3: no parent cycles; hop counts within ``[0, |V|]``."""
    h_max = H_MAX(topo)
    for v, s in enumerate(states):
        if not (0 <= s.hop <= h_max):
            return LemmaReport(False, f"node {v} hop {s.hop} outside [0, {h_max}]")
    if extract_tree(topo, states) is None:
        return LemmaReport(False, "parent pointers contain a cycle")
    return LemmaReport(True)


def cost_monotone_after_join(result: StabilizationResult, tol: float = 1e-9) -> bool:
    """Lemma 1's Lyapunov claim, checked on an executor trace.

    After the last round in which a disconnected node joins, the total
    cost must be non-increasing.  (While nodes still carry ``OC_max`` the
    total trivially decreases as they join; this checks the interesting
    suffix too.)
    """
    hist = result.cost_history
    for a, b in zip(hist, hist[1:]):
        if b > a * (1.0 + tol) + tol:
            return False
    return True
