"""The rule's candidate fold against the full-key reference fold.

``compute_update_local`` compares each candidate's effective cost with
the best's inside the relative ``COST_TOL`` band and builds the
``(incumbent, hop, dist, id)`` tie-break tail only on a tie; every
candidate is priced by one per-evaluation pricer.  The reference below
is the fold it replaced: one full 5-tuple key per candidate, folded
with ``_better``, each candidate priced by a fresh ``join_cost`` call
on a view whose cost memo is never reused.  The two must choose the
same state, bit for bit, on round-model views of all four metrics and
on beacon-table views of every SS-SPST agent, and on hand-made
candidate sets that force exact ties, near-ties 0.5 x ``COST_TOL``
apart, equal hops and equal distances, with and without an incumbent.

The count guards pin what one evaluation reads: ``flag_excluding(v,
v)`` once, the v-detached flags once per reader rather than per
candidate, each transmit-energy radius at most once per view, and a
fresh memo for every beacon tick.
"""

from __future__ import annotations

import collections
import math
from typing import Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import NodeState, RoundEngine, arbitrary_states, fresh_states, metric_by_name
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import METRIC_NAMES, CostMetric
from repro.core.rules import COST_TOL, H_MAX, compute_update_local
from repro.core.views import CostMemo, GlobalView
from repro.energy import FirstOrderRadioModel
from repro.graph import Topology
from repro.graph.sparse import SparseTopology
from repro.groups.models import GroupSpec
from repro.metrics.hub import MetricsHub
from repro.mobility import StaticPlacement
from repro.net import MacConfig, Network
from repro.protocols.registry import make_agent_factory
from repro.protocols.ss_spst import LocalView, SSSPSTAgent
from repro.sim import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The reference: full keys folded with _better
# ----------------------------------------------------------------------
def _better(a: Tuple, b: Tuple) -> bool:
    """Lexicographic comparison with tolerant (relative) cost equality."""
    ca, cb = a[0], b[0]
    scale = max(abs(ca), abs(cb))
    if ca < cb - COST_TOL * scale:
        return True
    if ca > cb + COST_TOL * scale:
        return False
    return a[1:] < b[1:]


def reference_update(metric, view, v, is_root, h_max, oc_max, hysteresis=0.0):
    if is_root:
        return NodeState(parent=None, cost=0.0, hop=0)
    current_parent = view.state_of(v).parent
    best: Optional[Tuple] = None
    for u in view.neighbors_of(v):
        su = view.state_of(u)
        if su.hop >= h_max:
            continue
        oc = metric.join_cost(view, v, u)
        effective = oc if u == current_parent else oc * (1.0 + hysteresis)
        key = (effective, 0 if u == current_parent else 1, su.hop, view.dist(v, u), u)
        if best is None or _better(key, best[0]):
            best = (key, oc, su.hop, u)
    if best is None:
        return NodeState(parent=None, cost=oc_max, hop=h_max)
    _, oc, hop_u, u = best
    return NodeState(parent=u, cost=oc, hop=hop_u + 1)


def without_memo(view):
    """``view`` with a fresh cost memo on every read: nothing is reused."""
    view.cost_memo = lambda metric: CostMemo()
    return view


def assert_same_state(got: NodeState, want: NodeState) -> None:
    assert got.parent == want.parent
    assert got.hop == want.hop
    assert float(got.cost).hex() == float(want.cost).hex()


# ----------------------------------------------------------------------
# Round-model views
# ----------------------------------------------------------------------
def random_topology(seed: int, sparse: bool):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    pos = rng.random((n, 2)) * 400.0
    members = [int(x) for x in rng.choice(n, size=max(2, n // 3), replace=False)]
    cls = SparseTopology if sparse else Topology
    return cls.from_positions(pos, 250.0, source=0, members=members)


@settings(max_examples=60, **SETTINGS)
@given(
    seed=st.integers(0, 10_000),
    metric_name=st.sampled_from(METRIC_NAMES),
    kind=st.sampled_from(("fresh", "arbitrary", "stepped")),
    rounds=st.integers(1, 6),
    hysteresis=st.sampled_from((0.0, 0.05, 0.5 * COST_TOL, 3.0 * COST_TOL)),
    sparse=st.booleans(),
)
def test_global_view_fold_matches_reference(
    seed, metric_name, kind, rounds, hysteresis, sparse
):
    topo = random_topology(seed, sparse)
    metric = metric_by_name(metric_name, EXAMPLE_RADIO)
    if kind == "fresh":
        states = fresh_states(topo, metric)
    else:
        states = arbitrary_states(topo, metric, np.random.default_rng(seed))
        if kind == "stepped":
            engine = RoundEngine(topo, metric, daemon="central")
            states = engine.run(states, max_rounds=rounds).states
    fast = GlobalView(topo, states)
    slow = without_memo(GlobalView(topo, states))
    args = dict(h_max=H_MAX(topo), oc_max=metric.infinity(topo), hysteresis=hysteresis)
    for v in range(topo.n):
        is_root = v == topo.source
        assert_same_state(
            compute_update_local(metric, fast, v, is_root, **args),
            reference_update(metric, slow, v, is_root, **args),
        )
    # one pricer per evaluation walks exactly the chains the per-candidate
    # pricers walk: the shared memos are chosen the same way
    assert fast.chain_steps == slow.chain_steps


# ----------------------------------------------------------------------
# Beacon-table views
# ----------------------------------------------------------------------
RADIO = FirstOrderRadioModel(e_elec=1e-6, e_rx=0.3e-6, max_range=250.0)


def beacon_network(positions, protocol, until):
    sim = Simulator()
    mob = StaticPlacement(
        len(positions), Arena(600, 600), positions=np.array(positions, dtype=float)
    )
    net = Network(sim, mob, RADIO, RngStreams(5), mac_config=MacConfig())
    receivers = tuple(range(1, mob.n, 2))
    net.set_groups([GroupSpec(0, 0, receivers)])
    net.hub = MetricsHub({0: len(receivers)})
    net.attach_agents(make_agent_factory(protocol))
    net.start()
    sim.run(until=until)
    return sim, net


POINT = st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 600.0))


@settings(max_examples=12, **SETTINGS)
@given(
    positions=st.lists(POINT, min_size=3, max_size=9),
    protocol=st.sampled_from(("ss-spst", "ss-spst-t", "ss-spst-f", "ss-spst-e")),
    until=st.floats(2.5, 9.0),
)
def test_local_view_fold_matches_reference(positions, protocol, until):
    _, net = beacon_network(positions, protocol, until)
    for node in net.nodes:
        agent = node.agent
        assert isinstance(agent, SSSPSTAgent)
        for hysteresis in (0.0, agent.config.switch_threshold):
            args = dict(
                is_root=agent.is_source,
                h_max=agent.h_max,
                oc_max=agent.oc_max,
                hysteresis=hysteresis,
            )
            assert_same_state(
                compute_update_local(agent.metric, LocalView(agent), node.id, **args),
                reference_update(
                    agent.metric, without_memo(LocalView(agent)), node.id, **args
                ),
            )


# ----------------------------------------------------------------------
# Forced ties: a table-priced star around the evaluating node
# ----------------------------------------------------------------------
class TableMetric(CostMetric):
    """Join costs read from a table: the fold sees exactly these values."""

    name = "table"

    def __init__(self, costs):
        super().__init__(EXAMPLE_RADIO)
        self.costs = costs

    def pricer(self, view, v):
        return lambda u, su: self.costs[u]

    def tree_cost(self, topo, tree):  # pragma: no cover - never settled
        raise NotImplementedError


BASES = (0.0, 1.0, 2.0, 2.5e-6)


@st.composite
def forced_cost(draw, bases):
    """A join cost at one of the row's ``bases``: an exact tie, a
    near-tie 0.5-10 x COST_TOL away (0.5 x ties, 2 x does not), or a
    signed zero or non-finite value."""
    base = draw(st.sampled_from(bases))
    kind = draw(st.sampled_from(("exact", "exact", "near", "near", "near", "odd")))
    if kind == "exact":
        return base
    if kind == "near":
        f = draw(st.one_of(st.sampled_from((0.5, 2.0, 3.0)), st.floats(0.5, 10.0)))
        f *= draw(st.sampled_from((-1.0, 1.0)))
        return base * (1.0 + f * COST_TOL) if base else f * COST_TOL
    return draw(st.sampled_from((-0.0, math.inf, -math.inf, math.nan)))


@st.composite
def forced_candidates(draw):
    """A star: evaluating node 1, candidates 2..k+1 (plus the source 0)
    with costs from one or two shared bases, hops and distances from two
    values each (or ``H_MAX``: out of ``N1``), and an incumbent or none."""
    k = draw(st.integers(1, 8))
    n = k + 2
    dists = {(1, u): draw(st.sampled_from((10.0, 20.0))) for u in range(2, n)}
    dists[(0, 1)] = draw(st.sampled_from((10.0, 20.0)))
    bases = draw(st.lists(st.sampled_from(BASES), min_size=1, max_size=2))
    costs = {u: draw(forced_cost(bases)) for u in [0] + list(range(2, n))}
    hops = [0, 0] + [draw(st.sampled_from((1, 1, 2, n))) for _ in range(2, n)]
    incumbent = draw(st.sampled_from([None, 0] + list(range(2, n))))
    hysteresis = draw(st.sampled_from((0.0, 0.0, 0.5 * COST_TOL, 3.0 * COST_TOL, 0.05)))
    return n, dists, costs, hops, incumbent, hysteresis


def star_view(dists, hops, incumbent):
    """Node 1 evaluating the star ``dists`` around it; ``hops[u]`` is each
    candidate's advertised hop."""
    n = len(hops)
    topo = Topology.from_edges(n, dists, source=0, members=[1])
    states = [NodeState(parent=None, cost=0.0, hop=hop) for hop in hops]
    states[1] = NodeState(parent=incumbent, cost=1.0, hop=3)
    return GlobalView(topo, states)


@settings(max_examples=800, **SETTINGS)
@given(case=forced_candidates())
def test_forced_ties_match_reference(case):
    n, dists, costs, hops, incumbent, hysteresis = case
    view = star_view(dists, hops, incumbent)
    metric = TableMetric(costs)
    args = dict(is_root=False, h_max=n, oc_max=99.0, hysteresis=hysteresis)
    assert_same_state(
        compute_update_local(metric, view, 1, **args),
        reference_update(metric, view, 1, **args),
    )


def _star(costs, hops, incumbent, dists=None):
    edges = {(1, u): 10.0 for u in range(2, len(hops))}
    edges[(0, 1)] = 10.0
    edges.update(dists or {})
    view = star_view(edges, hops, incumbent)
    return compute_update_local(
        TableMetric(costs), view, 1, is_root=False, h_max=len(hops), oc_max=99.0
    )


def test_near_tie_goes_to_the_lower_hop():
    """0.5 x COST_TOL apart is a tie: the dearer candidate's lower hop wins."""
    lo, hi = 1.0, 1.0 + 0.5 * COST_TOL
    got = _star({0: 5.0, 2: lo, 3: hi}, [0, 0, 2, 1], incumbent=None)
    assert (got.parent, got.cost, got.hop) == (3, hi, 2)


def test_outright_win_resets_the_tie_break_tail():
    """A tie builds the best's tail; a later outright win must not keep
    it: candidate 4 then ties with 3 (same hop, same distance) and loses
    on id, although it would beat the earlier tied pair's tail."""
    lo = 1.0
    costs = {0: 2.0, 2: 2.0, 3: lo, 4: lo}
    got = _star(costs, [2, 0, 2, 1, 1], None, {(1, 2): 20.0})
    assert (got.parent, got.cost, got.hop) == (3, lo, 2)


def test_infinite_cost_ties_with_every_finite_one():
    """The band scales with the larger magnitude: against an infinite
    cost it is infinite, so any finite cost ties and the tail decides."""
    got = _star({0: 1.0, 2: math.inf}, [1, 0, 0], None)
    assert (got.parent, got.cost, got.hop) == (2, math.inf, 1)


def test_exact_tie_goes_to_the_incumbent_then_the_shorter_link():
    costs = {0: 2.0, 2: 2.0, 3: 2.0}
    assert _star(costs, [0, 0, 1, 1], incumbent=3).parent == 3
    # no incumbent, equal hops: the shorter link, then the smaller id
    assert _star(costs, [0, 0, 1, 1], None, {(1, 2): 20.0}).parent == 0
    assert _star(costs, [1, 0, 1, 1], None, {(0, 1): 20.0}).parent == 2


# ----------------------------------------------------------------------
# Count guards
# ----------------------------------------------------------------------
def counting(monkeypatch, cls, name):
    """Count the calls of ``cls.name`` by their arguments."""
    calls = collections.Counter()
    original = getattr(cls, name)

    def spy(self, *args):
        calls[args] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, spy)
    return calls


def _settled_e_view():
    topo = next(
        t for t in (random_topology(s, sparse=False) for s in range(11, 99))
        if t.n >= 8 and t.is_connected()
    )
    metric = metric_by_name("energy", EXAMPLE_RADIO)
    states = RoundEngine(topo, metric, daemon="central").run(
        arbitrary_states(topo, metric, np.random.default_rng(3)), max_rounds=3
    ).states
    return topo, metric, states


def test_energy_evaluation_reads_the_detached_flag_once(monkeypatch):
    topo, metric, states = _settled_e_view()
    calls = counting(monkeypatch, GlobalView, "flag_excluding")
    view = GlobalView(topo, states)
    args = dict(h_max=H_MAX(topo), oc_max=metric.infinity(topo))
    for v in range(1, topo.n):
        calls.clear()
        compute_update_local(metric, view, v, is_root=False, **args)
        assert calls == {(v, v): 1}


def test_energy_evaluation_reads_the_detached_flags_per_evaluation(monkeypatch):
    """The v-detached flags are read once per reader of an evaluation
    (``v_flag``, the radius pricer, the first chain walk), never once
    per candidate: every ``v`` here has more candidates than reads."""
    topo, metric, states = _settled_e_view()
    calls = counting(monkeypatch, GlobalView, "flags_excluding")
    view = GlobalView(topo, states)
    args = dict(h_max=H_MAX(topo), oc_max=metric.infinity(topo))
    for v in range(1, topo.n):
        calls.clear()
        compute_update_local(metric, view, v, is_root=False, **args)
        assert set(calls) == {(v,)}
        assert calls[(v,)] <= 3 < len(topo.neighbors(v))


def test_transmit_energy_priced_once_per_radius_per_view(monkeypatch):
    for metric_name in ("tx", "farthest", "energy"):
        topo, metric, states = _settled_e_view()
        metric = metric_by_name(metric_name, EXAMPLE_RADIO)
        oc_max = metric.infinity(topo)  # OC_max's own radius, priced up front
        calls = counting(monkeypatch, FirstOrderRadioModel, "tx_cost_per_bit")
        view = GlobalView(topo, states)
        for _ in range(2):
            for v in range(1, topo.n):
                compute_update_local(
                    metric, view, v, is_root=False, h_max=H_MAX(topo), oc_max=oc_max
                )
        assert calls and max(calls.values()) == 1
        monkeypatch.undo()


def test_beacon_ticks_price_once_per_radius_on_a_fresh_memo(monkeypatch):
    """Each tick's LocalView starts with an empty memo and prices each
    radius at most once; nothing carries over to the next tick."""
    positions = [[0, 0], [150, 0], [300, 0], [150, 150], [300, 150], [80, 220]]
    sim, net = beacon_network(positions, "ss-spst-e", until=6.0)
    seen = []
    run_rule = SSSPSTAgent._run_rule

    def spying_run_rule(agent, view):
        memo = view.cost_memo(agent.metric)
        assert not memo.etx and not memo.node_cost
        calls.clear()
        run_rule(agent, view)
        assert max(calls.values(), default=0) <= 1
        seen.append((agent.node.id, view, len(memo.etx)))

    monkeypatch.setattr(SSSPSTAgent, "_run_rule", spying_run_rule)
    calls = counting(monkeypatch, FirstOrderRadioModel, "tx_cost_per_bit")
    sim.run(until=12.0)
    ticks = collections.Counter(node for node, _, _ in seen)
    assert len(ticks) == len(positions) and min(ticks.values()) >= 2
    assert len({id(view) for _, view, _ in seen}) == len(seen)
    assert any(priced for _, _, priced in seen)


def test_evaluation_without_chain_walks_keeps_the_price_memo():
    """Node 2 has no candidate in ``N1`` (its parent sits at ``H_MAX``),
    so its evaluation walks no chain and must leave node 3's
    per-evaluation chain memo in place: re-evaluating 3 walks nothing."""
    edges = {(0, 1): 50.0, (1, 2): 50.0, (1, 3): 50.0, (3, 4): 50.0, (0, 4): 50.0}
    topo = Topology.from_edges(5, edges, source=0, members=[2, 3])
    metric = metric_by_name("energy", EXAMPLE_RADIO)
    states = [
        NodeState(None, 0.0, 0),
        NodeState(0, 1.0, 5),  # hop H_MAX: out of every N1
        NodeState(1, 1.0, 2),
        NodeState(1, 1.0, 2),
        NodeState(0, 1.0, 1),
    ]
    view = GlobalView(topo, states)
    args = dict(is_root=False, h_max=H_MAX(topo), oc_max=metric.infinity(topo))
    compute_update_local(metric, view, 3, **args)
    assert view.chain_steps == 1  # 4 -> 0, lit by 3's flag alone
    assert compute_update_local(metric, view, 2, **args).parent is None
    compute_update_local(metric, view, 3, **args)
    assert view.chain_steps == 1
