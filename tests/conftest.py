"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.energy.radio import FirstOrderRadioModel
from repro.sim.kernel import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def arena() -> Arena:
    return Arena(750.0, 750.0)


@pytest.fixture
def radio() -> FirstOrderRadioModel:
    return FirstOrderRadioModel()


@pytest.fixture
def example_radio() -> FirstOrderRadioModel:
    """The radio used by the worked examples (higher reception cost)."""
    from repro.core.examples import EXAMPLE_RADIO

    return EXAMPLE_RADIO


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(12345)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


@pytest.fixture
def test_daemon() -> str:
    """Default activation daemon for daemon-generic tests.

    CI matrixes the tier-1 job over ``REPRO_TEST_DAEMON={central,
    randomized}`` so both disciplines stay exercised by default-path
    tests; any registry name works locally.
    """
    return os.environ.get("REPRO_TEST_DAEMON", "central")


@pytest.fixture
def test_backend() -> str:
    """Default experiment backend for backend-generic tests.

    The CI rounds leg sets ``REPRO_TEST_BACKEND=rounds`` so the campaign
    CLI smoke exercises the round-model executor end to end; the default
    keeps the historical DES path.
    """
    return os.environ.get("REPRO_TEST_BACKEND", "des")


@pytest.fixture
def test_engine() -> str:
    """Default round-engine implementation for engine-generic tests.

    CI adds a ``REPRO_TEST_ENGINE=array`` tier-1 matrix entry so the
    vectorized columnar engine runs the same default-path tests as the
    scalar reference (their trajectories are bit-identical by contract,
    so the tests themselves need no engine awareness); the default keeps
    the object engine.
    """
    return os.environ.get("REPRO_TEST_ENGINE", "object")


@pytest.fixture
def test_store(tmp_path) -> str:
    """A fresh result-store spec for store-generic tests.

    The CI store leg sets ``REPRO_TEST_STORE=sqlite`` so the campaign /
    backend / scenario-model tests persist through the SQLite columnar
    store; the default is a JSON record dir (one ``<config_key>.json``
    file per run).  Both resolve through
    :func:`repro.experiments.store.open_store`.
    """
    if os.environ.get("REPRO_TEST_STORE", "json") == "sqlite":
        return f"sqlite:{tmp_path / 'results.sqlite'}"
    return str(tmp_path / "result-cache")


@pytest.fixture
def test_mobility() -> str:
    """Default mobility model for scenario-generic tests.

    The CI scenario-models leg sets ``REPRO_TEST_MOBILITY=gauss-markov``
    so a non-default mobility model runs through the full runner /
    backend / campaign stack on every push; the default keeps the
    paper's random-waypoint path.  ``trace`` is not a valid value here
    (it needs a scenario file).
    """
    return os.environ.get("REPRO_TEST_MOBILITY", "waypoint")
