"""Array engine parity and scale-invariance properties.

The vectorized :class:`~repro.core.array_engine.ArrayRoundEngine`'s whole
contract is **bit-identity** with the scalar :class:`RoundEngine` — not
"close enough": states, rounds, convergence verdict, cost history and
move counts must match exactly, under every daemon, both evaluation
modes, and from arbitrary illegitimate states (the object engine is the
oracle; see ``core/array_engine.py`` for why exactness is achievable).
Alongside: the scale-invariance property both engines must satisfy
(uniform energy rescaling changes neither the chosen tree nor the
convergence verdict — the regression behind ``COST_TOL``'s relative
semantics, see ``docs/convergence.md``), the sparse topology's
equivalence to the dense one, and the ``engine=`` plumbing.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DAEMON_NAMES,
    ArrayRoundEngine,
    NodeState,
    RoundEngine,
    arbitrary_states,
    engine_for,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core import array_engine
from repro.core.array_engine import _fold, _fold_sequential
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import METRIC_NAMES
from repro.core.rules import COST_TOL
from repro.energy.radio import FirstOrderRadioModel
from repro.graph import SparseTopology, Topology

from helpers import assert_same_trajectory, random_connected_topology

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: the largest random topology these tests draw
N_MAX = 12

MAX_ROUNDS = 150


def pair(topo, metric, daemon, incremental, seed=9, **daemon_options):
    """Matched (object, array) engines with identical daemon rng streams."""
    obj = RoundEngine(
        topo, metric, daemon=daemon, incremental=incremental,
        rng=np.random.default_rng(seed), **daemon_options,
    )
    arr = ArrayRoundEngine(
        topo, metric, daemon=daemon, incremental=incremental,
        rng=np.random.default_rng(seed), **daemon_options,
    )
    return obj, arr


#: ``MIN_BATCH_STEP`` values the parity cases run at: the shipped one,
#: under which the small steps of the locally-coupled metrics take the
#: scalar rule, and 1, which sends every such step through the vector
#: fold, commit and near-tie fallback
BATCH_FLOORS = (array_engine.MIN_BATCH_STEP, 1)


def array_runs(metric_name, run):
    """``run()``'s results at each of :data:`BATCH_FLOORS` (SS-SPST-E
    takes the vector path at every step size: one run)."""
    floors = BATCH_FLOORS[:1] if metric_name == "energy" else BATCH_FLOORS
    for floor in floors:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(array_engine, "MIN_BATCH_STEP", floor)
            yield run()


# ----------------------------------------------------------------------
# The tentpole contract: the object engine is the bit-identity oracle
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000), metric_name=st.sampled_from(METRIC_NAMES))
@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("daemon", DAEMON_NAMES)
def test_array_engine_bit_identical_any_daemon(daemon, incremental, metric_name, seed):
    """Every daemon x every metric x both modes, from arbitrary
    illegitimate states (parent cycles, garbage costs): the array engine
    replays the object engine exactly."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 1))
    want = pair(topo, m, daemon, incremental)[0].run(
        list(init), max_rounds=MAX_ROUNDS
    )
    for got in array_runs(
        metric_name,
        lambda: pair(topo, m, daemon, incremental)[1].run(
            list(init), max_rounds=MAX_ROUNDS
        ),
    ):
        assert_same_trajectory(want, got, evaluations=True)


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000), metric_name=st.sampled_from(METRIC_NAMES))
@pytest.mark.parametrize("daemon", DAEMON_NAMES)
def test_array_engine_bit_identical_warm_start(daemon, metric_name, seed):
    """run_perturbed parity: settle with the object engine, corrupt a few
    nodes, and let both engines absorb the same faults."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    settled = RoundEngine(
        topo, m, daemon=daemon, incremental=True, rng=np.random.default_rng(9)
    ).run(fresh_states(topo, m), max_rounds=MAX_ROUNDS)
    if not settled.converged:  # adversarial may legitimately stall on F
        return
    rng = np.random.default_rng(seed + 7)
    faults = []
    for v in rng.choice(topo.n, size=max(1, topo.n // 4), replace=False):
        v = int(v)
        if v == topo.source:
            continue
        nbrs = topo.neighbors(v)
        u = int(rng.choice(nbrs)) if nbrs else None
        ns = NodeState(
            parent=u,
            cost=float(rng.random() * 1e-5),
            hop=int(rng.integers(0, topo.n)),
        )
        if settled.states[v] != ns:
            faults.append((v, ns))
    if not faults:
        return
    want = pair(topo, m, daemon, True)[0].run_perturbed(
        list(settled.states), faults, max_rounds=MAX_ROUNDS
    )
    for got in array_runs(
        metric_name,
        lambda: pair(topo, m, daemon, True)[1].run_perturbed(
            list(settled.states), faults, max_rounds=MAX_ROUNDS
        ),
    ):
        assert_same_trajectory(want, got, evaluations=True)


@pytest.mark.parametrize(
    "metric_name,n,daemon,k,max_rounds,floor",
    [pytest.param(m, 400, "distributed", 40, 400, None, id=m) for m in METRIC_NAMES]
    + [
        pytest.param(m, 400, "distributed", 40, 400, 1, id=f"{m}-vector")
        for m in ("hop", "tx", "farthest")
    ]
    + [
        pytest.param(
            "tx", 2000, "synchronous", None, 600, None, id="tx-synchronous-2000"
        )
    ],
)
def test_array_engine_bit_identical_at_moderate_scale(
    metric_name, n, daemon, k, max_rounds, floor, monkeypatch
):
    """A few hundred nodes under a wide distributed daemon: large enough
    for the batched commits and incremental snapshot patching to engage
    (the small random topologies above mostly rebuild snapshots in
    full), still checked against the object engine.  Its steps of up to
    40 nodes mix both sides of ``MIN_BATCH_STEP``; the ``-vector`` cases
    set it to 1, so every step vectorizes.  The n = 2000 synchronous tx
    case is the deep-scale headline schedule (one n-node batch per
    round) at a size the object engine still runs in seconds.  The
    deployment side grows with sqrt(n), so the mean degree (~20) does
    not depend on n."""
    if floor is not None:
        monkeypatch.setattr(array_engine, "MIN_BATCH_STEP", floor)
    sp = SparseTopology.random_geometric(
        n, side=30.0 * n ** 0.5, radius=80.0, seed=2
    )
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    options = {} if k is None else {"k": k}
    obj, arr = pair(sp, m, daemon, True, seed=4, **options)
    res = arr.run(fresh_states(sp, m), max_rounds=max_rounds)
    assert_same_trajectory(
        obj.run(fresh_states(sp, m), max_rounds=max_rounds), res, evaluations=True
    )
    if metric_name in ("farthest", "energy"):
        assert arr.profile["snapshots_incremental"] > 0
    # the sequential fallback re-folds a subset of the evaluated rows
    assert arr.profile["fold_fallback_rows"] <= res.evaluations


# ----------------------------------------------------------------------
# The candidate fold: per-row minimum + tie lexsort vs the slot-pass fold
# ----------------------------------------------------------------------
FOLD_BASES = (0.0, 1.0, 2.0, 3.0, 7.0, 2.5e-6, 3.1e-6, 4.2e-4)


@st.composite
def fold_costs(draw, bases):
    """A candidate cost around one of the row's ``bases``: exact (integer
    or shared) ties, near-ties at 0.5-10 x COST_TOL relative, signed
    zeros and non-finite values."""
    base = draw(st.sampled_from(bases))
    kind = draw(st.sampled_from(("exact", "exact", "near", "near", "odd")))
    if kind == "exact":
        return base
    if kind == "near":
        f = draw(st.one_of(st.sampled_from((0.5, 0.9, 1.1)), st.floats(0.5, 10.0)))
        f *= draw(st.sampled_from((-1.0, 1.0)))
        return base * (1.0 + f * COST_TOL) if base else f * COST_TOL
    return draw(st.sampled_from((-0.0, math.inf, -math.inf, math.nan)))


@st.composite
def fold_inputs(draw):
    """Raw ``_fold`` arguments: rows of 0-8 candidates in neighbor order
    (unique ids per row), an invalid mask and hysteresis-scaled ``eff``."""
    hyst = draw(st.sampled_from((0.0, 0.0, 0.05, 3.0 * COST_TOL)))
    cols = {k: [] for k in ("row", "slot", "valid", "oc", "inc", "hop", "d", "u")}
    n_rows = draw(st.integers(1, 6))
    for r in range(n_rows):
        k = draw(st.integers(0, 8))
        ids = draw(st.permutations(range(12)))[:k]
        incumbent = draw(st.integers(-1, k - 1)) if k else -1
        # few cost levels per row, so that ties and near-ties collide
        bases = draw(st.lists(st.sampled_from(FOLD_BASES), min_size=1, max_size=2))
        for j, u in enumerate(ids):
            cols["row"].append(r)
            cols["slot"].append(j)
            cols["valid"].append(draw(st.integers(0, 5)) > 0)
            cols["oc"].append(draw(fold_costs(bases)))
            cols["inc"].append(0 if j == incumbent else 1)
            cols["hop"].append(draw(st.integers(0, 3)))
            cols["d"].append(draw(st.sampled_from((10.0, 20.0, 35.5))))
            cols["u"].append(u)
    a = {k: np.array(v) for k, v in cols.items()}
    oc = a["oc"].astype(np.float64)
    inc = a["inc"].astype(np.int64)
    with np.errstate(invalid="ignore"):
        eff = np.where(inc == 0, oc, oc * (1.0 + hyst))
    return (
        n_rows, a["row"].astype(np.int64), a["slot"].astype(np.int64),
        a["valid"].astype(bool), eff, oc, inc, a["hop"].astype(np.int64),
        a["d"].astype(np.float64), a["u"].astype(np.int64),
    )


def assert_same_fold(got, want):
    """Equal ``has``/``b_id``/``b_hop``, and ``b_oc`` equal bit for bit
    (the sign of zero and NaN payloads included)."""
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        if a.dtype == np.float64:
            a, b = a.view(np.int64), b.view(np.int64)
        np.testing.assert_array_equal(a, b)


@settings(max_examples=400, deadline=None)
@given(args=fold_inputs())
def test_fold_matches_sequential_fold(args):
    *got, n_redo = _fold(*args)
    assert_same_fold(got, _fold_sequential(*args))
    assert 0 <= n_redo <= args[0]


def test_fold_hands_near_ties_to_the_sequential_fold():
    """Costs 0.5 x COST_TOL apart tie in the rule's fold, so the
    hop tie-break picks the dearer candidate; the per-row minimum alone
    would pick the cheaper one.  The second row (exact integer ties)
    stays on the fast path."""
    lo, hi = 1.0, 1.0 + 0.5 * COST_TOL
    args = (
        2,
        np.array([0, 0, 1, 1], dtype=np.int64),            # row
        np.array([0, 1, 0, 1], dtype=np.int64),            # slot
        np.ones(4, dtype=bool),                            # valid
        np.array([lo, hi, 3.0, 3.0]),                      # eff
        np.array([lo, hi, 3.0, 3.0]),                      # oc
        np.ones(4, dtype=np.int64),                        # incumbent
        np.array([2, 1, 1, 1], dtype=np.int64),            # hop
        np.full(4, 10.0),                                  # dist
        np.array([4, 7, 9, 5], dtype=np.int64),            # id
    )
    *got, n_redo = _fold(*args)
    assert n_redo == 1
    assert_same_fold(got, _fold_sequential(*args))
    has, b_id, b_oc, b_hop = got
    assert has.tolist() == [True, True]
    assert b_id.tolist() == [7, 5]
    assert b_oc.tolist() == [hi, 3.0]


# ----------------------------------------------------------------------
# ColumnarView bookkeeping regressions
# ----------------------------------------------------------------------
class TestColumnarView:
    def _view(self, seed=3, metric_name="hop"):
        from repro.core.array_engine import ColumnarView, EdgeCsr

        topo = random_connected_topology(seed, n_min=8, n_max=12)
        m = metric_by_name(metric_name, EXAMPLE_RADIO)
        csr = EdgeCsr(topo, m)
        return topo, m, ColumnarView(topo, fresh_states(topo, m), csr, m, True)

    def test_noop_apply_does_not_bump_version(self):
        """Satellite regression: re-applying a node's current state is a
        no-op and must not invalidate version-keyed caches (snapshots are
        cached on ``view.version``; a spurious bump forces a rebuild)."""
        topo, m, view = self._view()
        v = (topo.source + 1) % topo.n
        before = view.version
        assert view.apply(v, view.states[v]) == ()
        assert view.version == before
        # a real mutation still bumps it
        ns = NodeState(parent=None, cost=m.infinity(topo), hop=0)
        if view.states[v] != ns:
            view.apply(v, ns)
            assert view.version == before + 1

    def test_count_within_matches_scalar_oracle(self):
        """The searchsorted ``EdgeCsr.count_within`` equals the per-row
        bisect the topology answers, for every node and mixed radii."""
        topo, m, view = self._view(seed=11)
        csr = view.csr
        rng = np.random.default_rng(0)
        U = rng.integers(0, topo.n, size=64).astype(np.int64)
        radii = rng.uniform(0.0, 500.0, size=64)
        got = csr.count_within(U, radii)
        want = [topo.count_within(int(u), float(r)) for u, r in zip(U, radii)]
        assert got.tolist() == want


# ----------------------------------------------------------------------
# Scalar fallback: the energy batch gate
# ----------------------------------------------------------------------
class TestScalarFallback:
    """SS-SPST-E's batched evaluator refuses states its snapshot cannot
    price (parent cycles anywhere, a rooted source) and falls back to
    the scalar per-node path; the fallback must engage *and* stay
    bit-identical to the object engine."""

    def _run_pair(self, topo, m, init):
        obj = RoundEngine(
            topo, m, daemon="central", incremental=True,
            rng=np.random.default_rng(9),
        ).run(list(init), max_rounds=MAX_ROUNDS)
        arr_eng = ArrayRoundEngine(
            topo, m, daemon="central", incremental=True,
            rng=np.random.default_rng(9),
        )
        arr = arr_eng.run(list(init), max_rounds=MAX_ROUNDS)
        assert_same_trajectory(obj, arr, evaluations=True)
        return arr_eng

    def test_parent_cycle_start(self):
        topo = random_connected_topology(31, n_min=8, n_max=12)
        m = metric_by_name("energy", EXAMPLE_RADIO)
        init = list(fresh_states(topo, m))
        # a 2-cycle between two adjacent non-source nodes
        v = next(
            u for u in range(topo.n)
            if u != topo.source
            and any(w != topo.source for w in topo.neighbors(u))
        )
        w = next(u for u in topo.neighbors(v) if u != topo.source)
        init[v] = NodeState(parent=w, cost=1.0, hop=1)
        init[w] = NodeState(parent=v, cost=1.0, hop=1)
        eng = self._run_pair(topo, m, init)
        assert eng.profile["scalar_steps"] > 0

    def test_rooted_source_start(self):
        topo = random_connected_topology(32, n_min=8, n_max=12)
        m = metric_by_name("energy", EXAMPLE_RADIO)
        init = list(fresh_states(topo, m))
        src = topo.source
        init[src] = NodeState(
            parent=topo.neighbors(src)[0], cost=2.5, hop=3
        )
        eng = self._run_pair(topo, m, init)
        assert eng.profile["scalar_steps"] > 0


# ----------------------------------------------------------------------
# Scale invariance: per-bit energy units are arbitrary, so uniformly
# rescaling every radio constant must change neither the tree nor the
# convergence verdict — on either engine (the satellite-1 regression,
# generalized across metrics x daemons x engines)
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(
    seed=st.integers(0, 100_000),
    metric_name=st.sampled_from(METRIC_NAMES),
    scale=st.sampled_from([1e-3, 0.5, 2.0, 1e3]),
)
@pytest.mark.parametrize("engine", ["object", "array"])
@pytest.mark.parametrize("daemon", ["synchronous", "central", "randomized"])
def test_rescaling_invariant_tree_and_verdict(daemon, engine, metric_name, scale, seed):
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
    results = []
    for radio in (r1, r2):
        m = metric_by_name(metric_name, radio)
        eng = engine_for(
            topo, m, daemon, incremental=True, engine=engine,
            rng=np.random.default_rng(seed),
        )
        results.append(eng.run(fresh_states(topo, m), max_rounds=300))
    res1, res2 = results
    assert res1.converged == res2.converged
    assert res1.rounds == res2.rounds
    assert [s.parent for s in res1.states] == [s.parent for s in res2.states]


# ----------------------------------------------------------------------
# Sparse topology: same graph, same answers
# ----------------------------------------------------------------------
def _sparse_from_dense(topo):
    rows = [topo.neighbors(v) for v in range(topo.n)]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    nbr = np.array([u for r in rows for u in r], dtype=np.int64)
    nd = np.array(
        [float(topo.dist[v, u]) for v, r in enumerate(rows) for u in r]
    )
    return SparseTopology(topo.n, indptr, nbr, nd, topo.source, topo.members)


class TestSparseTopology:
    def test_queries_match_dense(self):
        topo = random_connected_topology(5, n_min=10, n_max=16)
        sp = _sparse_from_dense(topo)
        assert sp.members == topo.members
        for v in range(topo.n):
            assert sp.neighbors(v) == topo.neighbors(v)
            assert sp.degree(v) == topo.degree(v)
            assert sp.neighbor_distances(v) == topo.neighbor_distances(v)
            for u in range(topo.n):
                assert sp.has_edge(v, u) == topo.has_edge(v, u)
                assert sp.dist[v, u] == topo.dist[v, u]
            for radius in (0.0, 50.0, 150.0, 400.0):
                assert sp.count_within(v, radius) == topo.count_within(v, radius)
                assert sp.neighbors_within(v, radius) == topo.neighbors_within(
                    v, radius
                )
        assert sp.is_connected() == topo.is_connected()
        assert list(sp.bfs_hops()) == list(topo.bfs_hops())

    def test_infinity_matches_dense(self):
        topo = random_connected_topology(6, n_min=8, n_max=12)
        sp = _sparse_from_dense(topo)
        for name in METRIC_NAMES:
            m = metric_by_name(name, EXAMPLE_RADIO)
            assert m.infinity(sp) == m.infinity(topo)

    def test_trajectories_match_dense(self):
        """The same graph behind either topology class stabilizes the
        same way, on both engines."""
        topo = random_connected_topology(7, n_min=8, n_max=12)
        sp = _sparse_from_dense(topo)
        m = metric_by_name("energy", EXAMPLE_RADIO)
        init = arbitrary_states(topo, m, np.random.default_rng(3))
        ref = RoundEngine(
            topo, m, daemon="central", incremental=True
        ).run(list(init), max_rounds=MAX_ROUNDS)
        for engine in ("object", "array"):
            got = engine_for(
                sp, m, "central", incremental=True, engine=engine
            ).run(list(init), max_rounds=MAX_ROUNDS)
            assert_same_trajectory(ref, got, evaluations=True)

    def test_random_geometric_is_valid(self):
        sp = SparseTopology.random_geometric(
            300, side=600.0, radius=80.0, seed=4
        )
        assert sp.n == 300
        assert sp.source in sp.members
        # symmetry: every directed edge has its mirror with equal length
        for v in range(sp.n):
            for u, d in sp.neighbor_distances(v):
                assert sp.dist[u, v] == d

    def test_from_positions_matches_dense(self):
        """Same coordinates, same unit-disk rule: identical edge sets,
        distances within floating-point rounding (the sparse direct form
        is tighter than the dense ``|x|^2+|y|^2-2x.y`` identity, so exact
        bit-equality is deliberately NOT promised — see
        ``_geometric_edges``)."""
        rng = np.random.default_rng(12)
        pos = rng.uniform(0.0, 600.0, size=(300, 2))
        members = range(0, 300, 5)
        dt = Topology.from_positions(pos, 70.0, 0, members)
        sp = SparseTopology.from_positions(pos, 70.0, 0, members)
        assert sp.members == dt.members
        for v in range(300):
            assert sp.neighbors(v) == sorted(dt.neighbors(v))
            for u in sp.neighbors(v):
                assert sp.dist[v, u] == pytest.approx(
                    dt.dist[v, u], abs=1e-6
                )

    def test_from_positions_shift_invariant(self):
        rng = np.random.default_rng(13)
        pos = rng.uniform(0.0, 400.0, size=(200, 2))
        a = SparseTopology.from_positions(pos, 60.0, 0, [1, 2])
        b = SparseTopology.from_positions(pos - 987.25, 60.0, 0, [1, 2])
        assert np.array_equal(a._indptr, b._indptr)
        assert np.array_equal(a._nbr, b._nbr)


# ----------------------------------------------------------------------
# The topology scenario knob
# ----------------------------------------------------------------------
class TestTopologyKnob:
    def test_sparse_runs_on_rounds_backend(self):
        from repro.experiments.backends import backend_by_name
        from repro.experiments.config import ScenarioConfig

        b = backend_by_name("rounds")
        base = ScenarioConfig.quick(
            backend="rounds", protocol="ss-spst", daemon="central",
            n_nodes=30,
        )
        ra = b.record_from(b.run(base))
        rb = b.record_from(
            b.run(base.replace(topology="sparse", engine="array"))
        )
        # Same scenario coordinates; the representations may round
        # near-coincident pair distances differently, so assert the
        # structural outcome, not bitwise equality.
        assert rb["summary"]["converged"] == ra["summary"]["converged"] == 1
        assert rb["summary"]["connected"] == ra["summary"]["connected"]

    def test_sparse_is_not_hash_neutral(self):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.store import _hash_payload, config_key

        base = ScenarioConfig.quick(backend="rounds", protocol="ss-spst")
        assert "topology" not in _hash_payload(base)
        assert config_key(base) != config_key(base.replace(topology="sparse"))

    def test_des_backend_rejects_topology_knob(self):
        from repro.experiments.config import ScenarioConfig

        with pytest.raises(ValueError, match="rounds-backend knob"):
            ScenarioConfig.quick(topology="sparse")

    def test_unknown_topology_rejected(self):
        from repro.experiments.config import ScenarioConfig

        with pytest.raises(ValueError, match="unknown topology"):
            ScenarioConfig.quick(backend="rounds", topology="csr")


# ----------------------------------------------------------------------
# engine_for plumbing
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_names(self):
        topo = random_connected_topology(1, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        assert isinstance(
            engine_for(topo, m, "central", engine="array"), ArrayRoundEngine
        )
        obj = engine_for(topo, m, "central", engine="object")
        assert type(obj) is RoundEngine

    def test_unknown_engine_rejected(self):
        topo = random_connected_topology(1, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        with pytest.raises(ValueError, match="unknown engine"):
            engine_for(topo, m, "central", engine="bogus")

    def test_engine_selection_requires_daemon_name(self):
        topo = random_connected_topology(1, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        inst = RoundEngine(topo, m, daemon="central")
        with pytest.raises(ValueError, match="daemon given by name"):
            engine_for(topo, m, inst, engine="array")

    def test_config_knob_reaches_rounds_backend(self):
        from repro.experiments.backends import backend_by_name
        from repro.experiments.config import ScenarioConfig

        b = backend_by_name("rounds")
        base = ScenarioConfig.quick(
            backend="rounds", protocol="ss-spst-e", engine="object"
        )
        ra = b.record_from(b.run(base))
        rb = b.record_from(b.run(base.replace(engine="array")))
        sa, sb = ra["summary"], rb["summary"]
        # Bit-identity covers results; chain_steps counts *scalar* chain
        # work, which the vector path mostly avoids — excluded from the
        # contract (same carve-out as full vs incremental).
        for key in ("rounds", "moves", "evaluations", "converged", "total_cost"):
            if key in sa:
                assert sa[key] == sb[key], key

    def test_des_backend_rejects_engine_knob(self):
        from repro.experiments.config import ScenarioConfig

        with pytest.raises(ValueError, match="rounds-backend knob"):
            ScenarioConfig.quick(engine="array")


# ----------------------------------------------------------------------
# Moderate-scale sanity: the point of the array engine
# ----------------------------------------------------------------------
def test_array_engine_stabilizes_thousand_node_sparse():
    sp = SparseTopology.random_geometric(1000, side=1000.0, radius=80.0, seed=2)
    m = metric_by_name("tx", EXAMPLE_RADIO)
    res = engine_for(
        sp, m, "synchronous", incremental=True, engine="array"
    ).run(fresh_states(sp, m))
    assert res.converged
    assert is_legitimate(sp, m, res.states)
