"""Property-based tests (hypothesis) for the self-stabilization lemmas.

Random connected geometric topologies, random group memberships, and —
for the convergence properties — *arbitrary* initial states including
parent cycles and garbage costs.  These are the strongest checks of
Lemmas 1-3 in the suite.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    RoundEngine,
    arbitrary_states,
    check_loop_freedom,
    extract_tree,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core.examples import EXAMPLE_RADIO
from repro.graph import Topology

from helpers import random_connected_topology

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: the largest random topology these tests draw
N_MAX = 18


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_hop_converges_from_arbitrary_state(seed):
    """Lemma 1 for SS-SPST under both daemons, arbitrary initial states."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("hop", EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 1))
    for daemon in ("synchronous", "central"):
        res = RoundEngine(topo, m, daemon=daemon).run(list(init))
        assert res.converged
        assert is_legitimate(topo, m, res.states)
        tree = extract_tree(topo, res.states)
        assert tree is not None and tree.spans_all()


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_tx_converges_from_arbitrary_state(seed):
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("tx", EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 2))
    res = RoundEngine(topo, m, daemon="central").run(init)
    assert res.converged
    assert is_legitimate(topo, m, res.states)


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_energy_converges_under_randomized_daemon(seed):
    """Lemma 1 for SS-SPST-E.  Fixed-order daemons admit rare limit cycles
    (a faithful echo of the instability the paper reports for the F
    metric); the randomized daemon — matching jittered beacons — converges."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("energy", EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 3))
    res = RoundEngine(
        topo, m, daemon="randomized", rng=np.random.default_rng(seed + 4)
    ).run(init, max_rounds=300)
    assert res.converged
    assert is_legitimate(topo, m, res.states)
    tree = extract_tree(topo, res.states)
    assert tree is not None and tree.spans_all()


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_loop_freedom_at_fixpoint(seed):
    """Lemma 3: no cycles, hops bounded, for every metric that converged."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    for name in ("hop", "tx", "energy"):
        m = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(
            topo, m, daemon="randomized", rng=np.random.default_rng(seed)
        ).run(fresh_states(topo, m), max_rounds=300)
        if not res.converged:  # F-style oscillation is documented behaviour
            continue
        report = check_loop_freedom(topo, res.states)
        assert report.holds, report.detail


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_closure_at_fixpoint(seed):
    """Lemma 2: legitimate states are fixpoints of further rounds."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("energy", EXAMPLE_RADIO)
    res = RoundEngine(
        topo, m, daemon="randomized", rng=np.random.default_rng(seed)
    ).run(fresh_states(topo, m), max_rounds=300)
    if not res.converged:
        return
    again = RoundEngine(topo, m, daemon="central").run(list(res.states), max_rounds=5)
    assert again.rounds == 0


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_hop_tree_is_bfs_optimal(seed):
    """The hop fixpoint gives every node its BFS-minimal depth."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("hop", EXAMPLE_RADIO)
    res = RoundEngine(topo, m, daemon="central").run(fresh_states(topo, m))
    assert res.converged
    bfs = topo.bfs_hops()
    for v, s in enumerate(res.states):
        assert s.hop == int(bfs[v])


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
def test_fault_recovery_after_edge_removal(seed):
    """Adaptivity: stabilize, delete a random tree edge (a 'fault'), and
    re-stabilize on the shrunken topology.  The system must converge to a
    legitimate state of the *new* topology (the MANET adaptation story)."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("hop", EXAMPLE_RADIO)
    res = RoundEngine(topo, m, daemon="central").run(fresh_states(topo, m))
    assert res.converged
    tree = res.tree(topo)
    edges = tree.edges()
    if not edges:
        return
    rng = np.random.default_rng(seed + 9)
    p, v = edges[int(rng.integers(len(edges)))]
    dist2 = topo.dist.copy()
    dist2[p, v] = dist2[v, p] = np.inf
    topo2 = Topology(dist2, topo.source, topo.members)
    # Carry over the old states - they are now (possibly) illegitimate.
    carried = list(res.states)
    if carried[v].parent == p:
        pass  # the broken parent pointer is exactly the planted fault
    res2 = RoundEngine(topo2, m, daemon="central").run(carried)
    assert res2.converged
    assert is_legitimate(topo2, m, res2.states)


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000), scale=st.floats(0.5, 3.0))
def test_metric_scale_invariance(seed, scale):
    """Scaling all energies by a constant must not change the chosen tree
    (per-bit units are arbitrary)."""
    from repro.energy.radio import FirstOrderRadioModel

    topo = random_connected_topology(seed, n_max=N_MAX)
    r1 = EXAMPLE_RADIO
    r2 = FirstOrderRadioModel(
        e_elec=r1.e_elec * scale,
        e_rx=r1.e_rx * scale,
        eps_amp=r1.eps_amp * scale,
        alpha=r1.alpha,
        max_range=r1.max_range,
        d_floor=r1.d_floor,
    )
    m1 = metric_by_name("energy", r1)
    m2 = metric_by_name("energy", r2)
    res1 = RoundEngine(
        topo, m1, daemon="randomized", rng=np.random.default_rng(seed)
    ).run(fresh_states(topo, m1), max_rounds=300)
    res2 = RoundEngine(
        topo, m2, daemon="randomized", rng=np.random.default_rng(seed)
    ).run(fresh_states(topo, m2), max_rounds=300)
    if res1.converged and res2.converged:
        assert [s.parent for s in res1.states] == [s.parent for s in res2.states]
