"""Daemon × engine decomposition tests.

The stabilization guarantees are stated relative to an activation daemon;
these tests pin the decomposition's core contract — every daemon runs
under both engine modes with **bit-identical** trajectories — plus the
daemon-specific semantics: quiescence certification for the partial
(weakly-fair) daemon, the adversarial daemon's ability to drive the F/E
limit cycles the randomized daemon escapes, registry behavior, and
the evaluations-accounting fix (the converged-check pass is not work).

Every test that builds through :func:`engine` runs on each round-engine
implementation (``engine_name``; the object engine's cases keep their
plain ids), and the generic single-daemon tests run under the central
and the randomized daemon (the ``test_daemon`` fixture in
``conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DAEMON_NAMES,
    DES_DAEMON_NAMES,
    ENGINE_NAMES,
    NodeState,
    RoundEngine,
    arbitrary_states,
    check_closure,
    check_convergence,
    daemon_by_name,
    engine_for,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core.daemons import Daemon
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import METRIC_NAMES

from helpers import assert_same_trajectory, default_hidden, random_connected_topology

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MAX_ROUNDS = 150


#: the largest random topology these tests draw
N_MAX = 12

#: parametrizes a test over every round-engine implementation
ENGINES = pytest.mark.parametrize("engine_name", default_hidden(ENGINE_NAMES))


def engine(topo, metric, daemon, incremental, engine_name, seed=0):
    # The array engine is bit-identical to the object engine by contract,
    # so every assertion in this module must hold unchanged under either
    # implementation.
    return engine_for(
        topo,
        metric,
        daemon,
        incremental=incremental,
        engine=engine_name,
        rng=np.random.default_rng(seed),
    )


# ----------------------------------------------------------------------
# The tentpole contract: all daemons x {full, incremental} bit-identical
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
@ENGINES
@pytest.mark.parametrize("metric_name", METRIC_NAMES)
@pytest.mark.parametrize("daemon", DAEMON_NAMES)
def test_full_and_incremental_bit_identical_any_daemon(
    daemon, metric_name, engine_name, seed
):
    """Every daemon x every metric, from arbitrary illegitimate states:
    the incremental engine replays the full engine exactly (states,
    rounds, cost history, moves)."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 1))
    full = engine(topo, m, daemon, False, engine_name, seed=9).run(
        list(init), max_rounds=MAX_ROUNDS
    )
    inc = engine(topo, m, daemon, True, engine_name, seed=9).run(
        list(init), max_rounds=MAX_ROUNDS
    )
    assert_same_trajectory(full, inc)


@settings(**SETTINGS)
@given(seed=st.integers(0, 100_000))
@ENGINES
@pytest.mark.parametrize("daemon", DAEMON_NAMES)
def test_run_perturbed_matches_full_run_any_daemon(daemon, engine_name, seed):
    """Warm-start fault recovery is daemon-generic: run_perturbed from a
    settled vector equals a full-mode run on the perturbed vector."""
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("energy", EXAMPLE_RADIO)
    settled = engine(topo, m, daemon, True, engine_name, seed=5).run(
        fresh_states(topo, m), max_rounds=MAX_ROUNDS
    )
    if not settled.converged:  # adversarial may legitimately stall
        return
    rng = np.random.default_rng(seed + 3)
    faults = []
    for _ in range(3):
        v = int(rng.integers(1, topo.n))
        st_v = settled.states[v]
        nbrs = [u for u in topo.neighbors(v) if u != st_v.parent]
        if rng.random() < 0.5:
            faults.append((v, NodeState(st_v.parent, float(rng.uniform(0, 9)), st_v.hop)))
        elif nbrs:
            faults.append((v, NodeState(int(rng.choice(nbrs)), st_v.cost, st_v.hop)))
    applied = []
    perturbed = list(settled.states)
    for v, ns in faults:
        if perturbed[v] != ns:
            perturbed[v] = ns
            applied.append((v, ns))
    if not applied:
        return
    full = engine(topo, m, daemon, False, engine_name, seed=11).run(
        list(perturbed), max_rounds=MAX_ROUNDS
    )
    inc = engine(topo, m, daemon, True, engine_name, seed=11).run_perturbed(
        list(settled.states), applied, max_rounds=MAX_ROUNDS
    )
    assert_same_trajectory(full, inc)


@ENGINES
@pytest.mark.parametrize("metric_name", ["hop", "tx"])
@pytest.mark.parametrize("daemon", DAEMON_NAMES)
def test_every_daemon_converges_for_potential_metrics(daemon, metric_name, engine_name):
    """hop/tx are exact potentials: every daemon — including the greedy
    adversary — must reach the legitimate fixpoint."""
    topo = random_connected_topology(42, n_max=N_MAX)
    m = metric_by_name(metric_name, EXAMPLE_RADIO)
    res = engine(topo, m, daemon, True, engine_name, seed=1).run(
        fresh_states(topo, m), max_rounds=400
    )
    assert res.converged
    assert is_legitimate(topo, m, res.states)


# ----------------------------------------------------------------------
# Limit-cycle regression: the adversarial daemon stalls where the
# randomized daemon converges (the schedule-dependence the paper's F/E
# instability discussion is about)
# ----------------------------------------------------------------------
@ENGINES
def test_adversarial_stalls_where_randomized_converges(engine_name):
    # The F metric keeps the paper's advertised-cost pricing and hence its
    # documented best-response cycles; E's exact marginal chain pricing
    # (see docs/convergence.md) removed every adversarial stall we could
    # find for it, so the schedule-dependence regression is pinned on F.
    seed = 3  # found by search; stable because everything is seeded
    topo = random_connected_topology(seed, n_max=N_MAX)
    m = metric_by_name("farthest", EXAMPLE_RADIO)
    init = arbitrary_states(topo, m, np.random.default_rng(seed + 1))
    adv = RoundEngine(topo, m, daemon="adversarial-max-cost").run(
        list(init), max_rounds=150
    )
    assert not adv.converged  # greedy max-cost scheduling enters a limit cycle
    rand = engine(topo, m, "randomized", False, engine_name, seed=0).run(
        list(init), max_rounds=300
    )
    assert rand.converged
    assert is_legitimate(topo, m, rand.states)
    # The cycle is a scheduling artifact, not a broken state: the stalled
    # trajectory still stabilizes once handed to a randomized schedule.
    recovered = engine(topo, m, "randomized", False, engine_name, seed=1).run(
        list(adv.states), max_rounds=300
    )
    assert recovered.converged


# ----------------------------------------------------------------------
# Daemon-specific semantics
# ----------------------------------------------------------------------
class TestWeaklyFair:
    def test_no_false_convergence_on_partial_rounds(self):
        """A move-free round under a partial daemon must not certify a
        fixpoint: with delay D the engine demands D consecutive quiet
        rounds, so the result is never 'converged' while enabled nodes
        exist."""
        topo = random_connected_topology(3, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        # p = 0 schedules nothing except forced (starvation-bound) picks:
        # every node still runs every `delay` rounds, so this converges.
        daemon = daemon_by_name(
            "weakly-fair", rng=np.random.default_rng(0), delay=4, p=0.0
        )
        res = RoundEngine(topo, m, daemon=daemon).run(fresh_states(topo, m))
        assert res.converged
        assert is_legitimate(topo, m, res.states)

    def test_quiescence_window_matches_delay(self):
        daemon = daemon_by_name("weakly-fair", delay=5)
        assert daemon.quiescence_rounds == 5

    def test_rejects_bad_options(self):
        with pytest.raises(ValueError):
            daemon_by_name("weakly-fair", delay=0)
        with pytest.raises(ValueError):
            daemon_by_name("weakly-fair", p=1.5)


class TestDistributed:
    @ENGINES
    def test_chunk_size_one_is_serial(self, engine_name):
        """k=1 distributed == randomized serial (same rng, same schedule)."""
        topo = random_connected_topology(11, n_max=N_MAX)
        m = metric_by_name("energy", EXAMPLE_RADIO)
        init = arbitrary_states(topo, m, np.random.default_rng(2))
        k1 = RoundEngine(
            topo, m, daemon="distributed", rng=np.random.default_rng(5), k=1
        ).run(list(init), max_rounds=MAX_ROUNDS)
        rand = engine(topo, m, "randomized", False, engine_name, seed=5).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        assert_same_trajectory(k1, rand)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            daemon_by_name("distributed", k=0)


# ----------------------------------------------------------------------
# Generic engine behavior under the central and the randomized daemon
# ----------------------------------------------------------------------
class TestDaemonGeneric:
    def test_lemma1_and_2_hold(self, test_daemon):
        topo = random_connected_topology(17, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        report = check_convergence(topo, m, test_daemon, fresh_states(topo, m))
        assert report.holds, report.detail
        res = RoundEngine(
            topo, m, daemon=test_daemon, rng=np.random.default_rng(0)
        ).run(fresh_states(topo, m))
        closure = check_closure(topo, m, test_daemon, res.states)
        assert closure.holds, closure.detail

    @ENGINES
    def test_deterministic_given_seed(self, test_daemon, engine_name):
        topo = random_connected_topology(23, n_max=N_MAX)
        m = metric_by_name("energy", EXAMPLE_RADIO)
        runs = [
            engine(topo, m, test_daemon, inc, engine_name, seed=13).run(
                fresh_states(topo, m)
            )
            for inc in (False, False, True)
        ]
        assert runs[0].states == runs[1].states
        assert_same_trajectory(runs[0], runs[2])


# ----------------------------------------------------------------------
# Evaluations accounting (the converged-check pass is not work)
# ----------------------------------------------------------------------
class TestEvaluationsAccounting:
    @ENGINES
    def test_fixpoint_rerun_costs_zero_evaluations(self, engine_name):
        """Re-running a settled vector does zero stabilization work under
        both modes — the certifying pass is no longer billed, which is
        what used to make baselines and incrementals disagree by exactly
        n on the final round."""
        topo = random_connected_topology(29, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        settled = engine(topo, m, "central", True, engine_name).run(
            fresh_states(topo, m)
        )
        assert settled.converged
        for incremental in (False, True):
            again = engine(topo, m, "central", incremental, engine_name).run(
                list(settled.states)
            )
            assert again.converged and again.rounds == 0
            assert again.evaluations == 0
        # Warm-started with no effective faults the incremental engine
        # short-circuits the check pass entirely; the diagnostic agrees.
        warm = engine(topo, m, "central", True, engine_name).run_perturbed(
            list(settled.states), []
        )
        assert warm.converged and warm.evaluations == 0

    @ENGINES
    def test_full_mode_counts_n_per_counted_round(self, engine_name):
        topo = random_connected_topology(31, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = engine(topo, m, "central", False, engine_name).run(fresh_states(topo, m))
        assert res.converged
        assert res.evaluations == res.rounds * topo.n

    @ENGINES
    def test_incremental_never_out_evaluates_full(self, engine_name):
        topo = random_connected_topology(37, n_max=N_MAX)
        m = metric_by_name("energy", EXAMPLE_RADIO)
        init = fresh_states(topo, m)
        full = engine(topo, m, "central", False, engine_name).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        inc = engine(topo, m, "central", True, engine_name).run(
            list(init), max_rounds=MAX_ROUNDS
        )
        assert_same_trajectory(full, inc)
        assert inc.evaluations <= full.evaluations


# ----------------------------------------------------------------------
# Registry and deprecation shims
# ----------------------------------------------------------------------
class TestRegistryAndShims:
    def test_daemon_names_cover_the_taxonomy(self):
        assert set(DAEMON_NAMES) == {
            "synchronous",
            "central",
            "randomized",
            "distributed",
            "adversarial-max-cost",
            "weakly-fair",
        }
        assert "adversarial-max-cost" not in DES_DAEMON_NAMES
        assert set(DES_DAEMON_NAMES) < set(DAEMON_NAMES)

    def test_daemon_by_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown daemon"):
            daemon_by_name("round-robin")
        with pytest.raises(ValueError, match="no options"):
            daemon_by_name("central", k=3)

    def test_engine_accepts_instance_and_name(self):
        topo = random_connected_topology(41, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        by_name = RoundEngine(topo, m, daemon="central").run(fresh_states(topo, m))
        by_inst = RoundEngine(topo, m, daemon=daemon_by_name("central")).run(
            fresh_states(topo, m)
        )
        assert_same_trajectory(by_name, by_inst)

    def test_custom_daemon_subclass_plugs_in(self):
        """The point of the decomposition: a new schedule is a tiny
        subclass, not a new executor."""

        class ReverseCentral(Daemon):
            name = "reverse-central"

            def round_steps(self, ctx):
                for v in reversed(range(ctx.n)):
                    yield (v,)

        topo = random_connected_topology(43, n_max=N_MAX)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        full = RoundEngine(topo, m, daemon=ReverseCentral()).run(fresh_states(topo, m))
        inc = RoundEngine(topo, m, daemon=ReverseCentral(), incremental=True).run(
            fresh_states(topo, m)
        )
        assert full.converged
        assert is_legitimate(topo, m, full.states)
        assert_same_trajectory(full, inc)
