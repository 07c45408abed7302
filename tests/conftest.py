"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.energy.radio import FirstOrderRadioModel
from repro.sim.kernel import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

from helpers import default_hidden


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


@pytest.fixture(params=default_hidden(("central", "randomized")))
def test_daemon(request) -> str:
    """Activation daemon for daemon-generic tests: each runs under the
    central and the randomized daemon."""
    return request.param


@pytest.fixture(params=default_hidden(("des", "rounds")))
def test_backend(request) -> str:
    """Experiment backend for backend-generic tests: the packet-level
    simulator and the round-model executor."""
    return request.param


@pytest.fixture(params=["json", "sqlite"])
def test_store(request, tmp_path) -> str:
    """A fresh result-store spec for store-generic tests, once per store
    backend: a JSON record dir (one ``<config_key>.json`` file per run)
    and the SQLite columnar store.  Both resolve through
    :func:`repro.experiments.store.open_store`."""
    if request.param == "sqlite":
        return f"sqlite:{tmp_path / 'results.sqlite'}"
    return str(tmp_path / "records")


@pytest.fixture(params=default_hidden(("waypoint", "gauss-markov")))
def test_mobility(request) -> str:
    """Mobility model for scenario-generic tests: the paper's random
    waypoint and Gauss-Markov, each through the full runner / backend /
    campaign stack.  ``trace`` is not a value here (it needs a scenario
    file)."""
    return request.param
