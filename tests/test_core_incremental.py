"""Property tests: incremental executors match the baselines bit-for-bit.

The dirty-set executors promise an *identical trajectory* — states,
round count, cost history, move count, convergence verdict — to their
baseline counterparts, on any topology and from any (however
illegitimate) initial state.  Hypothesis drives random connected
geometric graphs and arbitrary states through all four metrics under
both daemons; the incremental view's derived structures are additionally
checked against from-scratch derivation after random edit sequences.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    GlobalView,
    NodeState,
    RoundEngine,
    arbitrary_states,
    derive_children,
    derive_flags,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import METRIC_NAMES
from repro.core.views import _count_parent_cycles
from repro.graph import Topology

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: enough for any trajectory on these graph sizes, converged or cyclic
MAX_ROUNDS = 120


def random_connected_topology(seed, n_min=5, n_max=14):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(n_min, n_max + 1))
        pos = rng.random((n, 2)) * 400.0
        members = [int(x) for x in rng.choice(n, size=max(2, n // 3), replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            return topo
    pytest.skip("could not sample a connected topology")


def assert_same_trajectory(a, b):
    assert a.states == b.states  # exact, not approx: bit-identical
    assert a.rounds == b.rounds
    assert a.converged == b.converged
    assert a.cost_history == b.cost_history
    assert a.moves == b.moves


#: daemons whose full and incremental engines are compared
DAEMONS = ("synchronous", "central")


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_incremental_matches_baseline_from_arbitrary_state(metric_name, seed):
    """Arbitrary initial states: cycles, garbage costs, dangling parents."""
    topo = random_connected_topology(seed)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 1))
    for daemon in DAEMONS:
        base = RoundEngine(topo, m, daemon=daemon).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        inc = RoundEngine(topo, m, daemon=daemon, incremental=True).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        assert_same_trajectory(base, inc)


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_incremental_matches_baseline_from_fresh_state(metric_name, seed):
    """The canonical start: root correct, everyone else disconnected."""
    topo = random_connected_topology(seed)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    init = fresh_states(topo, m)
    for daemon in DAEMONS:
        base = RoundEngine(topo, m, daemon=daemon).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        inc = RoundEngine(topo, m, daemon=daemon, incremental=True).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        assert_same_trajectory(base, inc)
        if base.converged:
            assert is_legitimate(topo, m, inc.states)


def _scratch_counters(view):
    """Flagged-children counters derived from scratch."""
    flags = derive_flags(view.topo, view.states)
    fcnt = [0] * len(view.states)
    for c, s in enumerate(view.states):
        if s.parent is not None and flags[c]:
            fcnt[s.parent] += 1
    return fcnt


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_incremental_view_apply_matches_rederivation(seed):
    """GlobalView.apply must keep children, flags, the flagged-children
    counters and the cycle count exactly equal to a from-scratch
    derivation after an arbitrary edit sequence."""
    topo = random_connected_topology(seed)
    m = metric_by_name("energy", EXAMPLE_RADIO)
    rng = np.random.default_rng(seed + 7)
    states = arbitrary_states(topo, m, rng)
    view = GlobalView(topo, states)
    for _ in range(30):
        v = int(rng.integers(0, topo.n))
        nbrs = topo.neighbors(v)
        parent = int(rng.choice(nbrs)) if nbrs and rng.random() < 0.7 else None
        ns = NodeState(
            parent=parent,
            cost=float(rng.uniform(0.0, 10.0)),
            hop=int(rng.integers(0, topo.n + 1)),
        )
        before = list(view._flags)
        flips = view.apply(v, ns)
        assert view._children == derive_children(view.states)
        assert view._flags == derive_flags(topo, view.states)
        assert view._n_cycles == _count_parent_cycles(view.states)
        if view._fcnt is not None:  # acyclic: counters must be exact
            assert view._fcnt == _scratch_counters(view)
        if flips is not None:
            # Every node whose flag actually changed must be reported
            # (extra entries are allowed: a node can flip off along the
            # old chain and back on along the new one — its flagged child
            # set still changed, which is what dirty sets care about).
            changed = {u for u in range(topo.n) if before[u] != view._flags[u]}
            assert changed <= set(flips)


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_flags_excluding_matches_scratch_after_applies(seed):
    """The counter-walk ``flags_excluding`` must equal a from-scratch
    derivation over a detached copy, for every node, across an arbitrary
    apply sequence (both parent moves and cost-only changes)."""
    topo = random_connected_topology(seed, n_max=10)
    m = metric_by_name("energy", EXAMPLE_RADIO)
    rng = np.random.default_rng(seed + 13)
    states = arbitrary_states(topo, m, rng)
    view = GlobalView(topo, states)

    def check_all():
        for v in range(topo.n):
            got = view.flags_excluding(v)
            detached = list(view.states)
            if detached[v].parent is not None:
                detached[v] = NodeState(
                    parent=None, cost=detached[v].cost, hop=detached[v].hop
                )
            scratch = derive_flags(topo, detached)
            assert [bool(got[u]) for u in range(topo.n)] == scratch, (
                f"flags_excluding({v}) diverged"
            )

    check_all()
    for _ in range(12):
        v = int(rng.integers(0, topo.n))
        if rng.random() < 0.5:  # cost-only change: caches may survive
            old = view.states[v]
            ns = NodeState(parent=old.parent, cost=float(rng.uniform(0.0, 9.0)), hop=old.hop)
        else:  # parent move: detached-flag caches must be invalidated
            nbrs = topo.neighbors(v)
            parent = int(rng.choice(nbrs)) if nbrs and rng.random() < 0.8 else None
            ns = NodeState(parent=parent, cost=view.states[v].cost, hop=view.states[v].hop)
        view.apply(v, ns)
        check_all()


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_path_price_shared_memo_matches_fresh_view(seed):
    """The cross-evaluation chain memo must never leak one evaluator's
    detached world into another's price: across an arbitrary apply
    sequence, every (candidate, evaluator) path_price must equal the same
    query on a freshly derived view (whose memos are empty)."""
    topo = random_connected_topology(seed, n_max=10)
    m = metric_by_name("energy", EXAMPLE_RADIO)
    rng = np.random.default_rng(seed + 23)
    view = GlobalView(topo, arbitrary_states(topo, m, rng))

    def check_all():
        for v in range(topo.n):
            v_flag = bool(view.flag_excluding(v, v))
            for u in topo.neighbors(v):
                got = view.path_price(u, v, v_flag, m)
                fresh = GlobalView(topo, view.states).path_price(u, v, v_flag, m)
                assert got == fresh, f"path_price({u}, {v}) diverged"

    check_all()
    for _ in range(8):
        v = int(rng.integers(0, topo.n))
        nbrs = topo.neighbors(v)
        if rng.random() < 0.3:
            old = view.states[v]
            ns = NodeState(old.parent, float(rng.uniform(0.0, 9.0)), old.hop)
        else:
            parent = int(rng.choice(nbrs)) if nbrs and rng.random() < 0.8 else None
            ns = NodeState(parent, view.states[v].cost, view.states[v].hop)
        view.apply(v, ns)
        check_all()


def test_path_price_cycle_fallback_is_candidate_order_independent():
    """Prices through a parent cycle are cut where the walk started, so
    they are per-candidate values: evaluating one candidate must never
    change another candidate's price (the chain-price memo must not leak
    cycle-truncated entries across candidates)."""
    topo = Topology.from_edges(
        4,
        {(0, 1): 100.0, (1, 2): 100.0, (2, 3): 100.0, (1, 3): 120.0},
        source=0,
        members=[1],
    )
    m = metric_by_name("energy", EXAMPLE_RADIO)
    states = [
        NodeState(parent=None, cost=0.0, hop=0),
        NodeState(parent=2, cost=1.0, hop=2),  # 1 <-> 2: planted cycle
        NodeState(parent=1, cost=2.0, hop=3),
        NodeState(parent=None, cost=9.0, hop=4),
    ]
    fresh = [
        GlobalView(topo, states).path_price(u, 3, True, m) for u in (1, 2)
    ]
    shared = GlobalView(topo, states)
    forward = [shared.path_price(u, 3, True, m) for u in (1, 2)]
    shared = GlobalView(topo, states)
    backward = [shared.path_price(u, 3, True, m) for u in (2, 1)][::-1]
    assert forward == fresh
    assert backward == fresh


class TestApplyHardening:
    """apply() must fail loudly (with node ids) when the caller mutated
    the state vector behind the view's back, not with a bare
    ``ValueError: list.remove(x)`` from deep inside."""

    def test_externally_mutated_parent_raises_clear_error(self):
        topo = random_connected_topology(11)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="central", incremental=True).run(
            fresh_states(topo, m)
        )
        view = GlobalView(topo, res.states)
        v = next(
            u for u in range(topo.n) if view.states[u].parent is not None
        )
        old = view.states[v]
        # Simulate external mutation: rewrite v's parent without apply().
        view.states[v] = NodeState(parent=None, cost=old.cost, hop=old.hop)
        view._children[old.parent].remove(v)
        view.states[v] = old  # state restored, children list now stale
        with pytest.raises(ValueError, match=rf"node {v}.*parent {old.parent}"):
            view.apply(v, NodeState(parent=None, cost=1.0, hop=2))

    def test_consistent_apply_still_works(self):
        topo = random_connected_topology(11)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="central", incremental=True).run(
            fresh_states(topo, m)
        )
        view = GlobalView(topo, res.states)
        v = next(u for u in range(topo.n) if view.states[u].parent is not None)
        ns = NodeState(parent=view.states[v].parent, cost=5.0, hop=3)
        assert view.apply(v, ns) == ()


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
@pytest.mark.parametrize("metric_name", ("hop", "energy"))
def test_run_perturbed_matches_baseline(metric_name, seed):
    """Warm-start recovery: run_perturbed from a settled vector plus
    faults must be bit-identical to a cold baseline run on the perturbed
    vector (the contract that makes the fault-recovery ablation sound).

    Only the central-daemon pair is checked: the settled vector is a
    *tolerance* fixpoint of the central daemon, which is exactly the
    fixpoint notion the central daemon itself uses (it never writes
    approx-equal states), but the synchronous daemon silently rewrites
    every node every round, so sub-tolerance float drift on clean nodes
    could make an exact-equality comparison flake for the sync pair."""
    topo = random_connected_topology(seed)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    settled = RoundEngine(topo, m, daemon="central", incremental=True).run(
        fresh_states(topo, m), max_rounds=MAX_ROUNDS
    )
    if not settled.converged:  # F/E fixed-order limit cycles: not in scope
        return
    rng = np.random.default_rng(seed + 3)
    faults = []
    for _ in range(3):
        v = int(rng.integers(1, topo.n))
        nbrs = topo.neighbors(v)
        st = settled.states[v]
        if rng.random() < 0.5:
            faults.append((v, NodeState(st.parent, float(rng.uniform(0, 9)), st.hop)))
        elif nbrs:
            faults.append((v, NodeState(int(rng.choice(nbrs)), st.cost, st.hop)))
    if not faults:
        return
    perturbed = list(settled.states)
    applied = []
    for v, ns in faults:
        if perturbed[v] == ns:
            continue
        perturbed[v] = ns
        applied.append((v, ns))
    base = RoundEngine(topo, m, daemon="central").run(
        list(perturbed), max_rounds=MAX_ROUNDS
    )
    inc = RoundEngine(topo, m, daemon="central", incremental=True).run_perturbed(
        list(settled.states), applied, max_rounds=MAX_ROUNDS
    )
    assert_same_trajectory(base, inc)


class TestPlantedCycle:
    """Deterministic regression: the Lemma-3 count-to-infinity escape must
    take the exact same number of rounds incrementally."""

    def _topo(self):
        edges = {
            (0, 1): 100.0, (1, 2): 100.0, (2, 3): 100.0, (3, 4): 80.0,
            (4, 5): 80.0, (5, 2): 90.0, (1, 5): 120.0,
        }
        return Topology.from_edges(6, edges, source=0, members=[2, 4])

    def test_cycle_broken_identically(self):
        topo = self._topo()
        m = metric_by_name("hop", EXAMPLE_RADIO)
        states = fresh_states(topo, m)
        # plant 3 -> 4 -> 5 -> 3 with bogus small hops and finite costs
        states[3] = NodeState(4, 3.0, 3)
        states[4] = NodeState(5, 3.0, 3)
        states[5] = NodeState(3, 3.0, 3)
        for daemon in DAEMONS:
            base = RoundEngine(topo, m, daemon=daemon).run(list(states))
            inc = RoundEngine(topo, m, daemon=daemon, incremental=True).run(
                list(states)
            )
            assert base.converged
            assert_same_trajectory(base, inc)


class TestDirtySetActuallyShrinks:
    """The dirty set must collapse once the system settles (the point of
    the exercise): re-running from a fixpoint does no rounds, and a
    single planted perturbation never dirties the whole line."""

    def test_fixpoint_reruns_do_nothing(self):
        # hop: guaranteed convergent (the F metric can limit-cycle under
        # fixed-order daemons — a documented instability, not a target).
        topo = random_connected_topology(3)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="central", incremental=True).run(
            fresh_states(topo, m)
        )
        assert res.converged
        again = RoundEngine(topo, m, daemon="synchronous", incremental=True).run(
            list(res.states)
        )
        assert again.converged and again.rounds == 0 and again.moves == 0

    def test_local_fault_stays_local_for_local_metrics(self):
        n = 30
        edges = {(i, i + 1): 100.0 for i in range(n - 1)}
        topo = Topology.from_edges(n, edges, source=0, members=range(n))
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="synchronous", incremental=True).run(
            fresh_states(topo, m)
        )
        assert res.converged
        # Perturb one mid-line node; recovery must be 1 round / 1 move,
        # i.e. the executor did not treat the whole line as dirty.
        states = list(res.states)
        states[15] = NodeState(parent=16, cost=states[15].cost, hop=states[15].hop)
        rec = RoundEngine(topo, m, daemon="synchronous", incremental=True).run(states)
        assert rec.converged
        assert rec.states == res.states
        baseline = RoundEngine(topo, m, daemon="synchronous").run(list(states))
        assert_same_trajectory(baseline, rec)
