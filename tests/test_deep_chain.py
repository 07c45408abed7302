"""Deep parent-chain regression: SS-SPST-E on line topologies far beyond
the interpreter's recursion limit.

``GlobalView._cost_up`` used to price candidate paths with one Python
stack frame per ancestor, so any parent chain deeper than
``sys.getrecursionlimit()`` (line topologies at n >~ 1000, or long chains
in arbitrary illegitimate states) raised ``RecursionError``.  The walk is
iterative now; these tests pin that on a 2000-node line — stabilization,
legitimacy, and a direct deep ``path_price`` query — without touching the
recursion limit.
"""

import sys

import pytest

from repro.core import (
    NodeState,
    RoundEngine,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core.examples import EXAMPLE_RADIO
from repro.core.views import GlobalView
from repro.graph import Topology

N_LINE = 2000  # well above the default recursion limit (usually 1000)


def _line(n, members):
    edges = {(i, i + 1): 60.0 for i in range(n - 1)}
    return Topology.from_edges(n, edges, source=0, members=members)


@pytest.fixture(scope="module")
def line_result():
    topo = _line(N_LINE, members=[1, N_LINE // 2, N_LINE - 1])
    metric = metric_by_name("energy", EXAMPLE_RADIO)
    result = RoundEngine(topo, metric, daemon="central", incremental=True).run(
        fresh_states(topo, metric)
    )
    return topo, metric, result


def test_line_is_deeper_than_recursion_limit():
    assert N_LINE > sys.getrecursionlimit()


def test_deep_line_stabilizes_without_recursion_error(line_result):
    topo, metric, result = line_result
    assert result.converged
    assert is_legitimate(topo, metric, result.states)


def test_deep_line_tree_is_the_line(line_result):
    topo, _metric, result = line_result
    tree = result.tree(topo)
    assert all(tree.parents[v] == v - 1 for v in range(1, topo.n))


def test_path_price_walks_a_full_depth_chain(line_result):
    """A direct path_price query whose chain spans the whole line — the
    exact call shape that used to overflow the stack."""
    topo, metric, result = line_result
    view = GlobalView(topo, result.states)
    deepest = topo.n - 1
    price = view.path_price(
        result.states[deepest].parent, deepest, True, metric
    )
    assert price >= 0.0


def test_deep_chain_in_illegitimate_state():
    """Arbitrary states can also hold deep chains (and a cycle at the
    top); pricing through them must not recurse either."""
    n = 1500
    topo = _line(n, members=[n - 1])
    metric = metric_by_name("energy", EXAMPLE_RADIO)
    states = [NodeState(parent=v - 1 if v else None, cost=1.0, hop=v) for v in range(n)]
    # plant a 2-cycle at the top of the chain: 0 <-> 1
    states[0] = NodeState(parent=1, cost=1.0, hop=0)
    view = GlobalView(topo, states)
    price = view.path_price(n - 2, n - 1, True, metric)
    assert price >= 0.0
