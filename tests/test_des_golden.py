"""Record-byte golden for the packet-level DES, on every protocol.

Each case runs one quick DES scenario and pins the sha256 of its
canonical store record: ``record_from(result)`` with ``elapsed_s``
removed, serialised as sorted, compact JSON (the same digest the
benchmark harness pins).  Any change to the event order, the collision
and capture model, the loss RNG draws, the energy sums or the persisted
``events_executed`` counter changes these bytes.

``ScenarioConfig.quick`` keeps the default ``loss_prob=0.01``, so the
medium's loss RNG runs inside its receiver loop on every case.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.backends import backend_by_name
from repro.experiments.config import ScenarioConfig
from repro.protocols.registry import PROTOCOL_NAMES

BASE = dict(sim_time=16.0, n_nodes=50, seed=3)

GOLDEN = {
    "ss-spst": (
        "aa88a586abb928cde564a4ea602a8df5"
        "26039acff64bf5ba4b53f9b467b6a6aa"
    ),
    "ss-spst-t": (
        "3da0f1a60854a606483c0ccdbc6880df"
        "ace25365d50a9b92531a139a04bdab9e"
    ),
    "ss-spst-f": (
        "07a8e99249bef3a9f5a1c6dce2a8694f"
        "9b34e6c5e39a7f8f3255f125fe5863f1"
    ),
    "ss-spst-e": (
        "9179d4e82a765b8a5501f452fdddea0c"
        "9e22ea085c269ed150112409ded7790a"
    ),
    "maodv": (
        "1aa4a1286b1b77572df057ff548a88ed"
        "af66c313571b0245fee2b426cbc82ce4"
    ),
    "odmrp": (
        "a760af7f3898a04e3eaa87c6423459ce"
        "fd730bfd27143ed4456b200b2f8a3dad"
    ),
    "flooding": (
        "fec7c40574592e2a507e8d9daca11bd8"
        "58e9a64217aaa3b3da86e03fe096a241"
    ),
    "ss-spst-e/groups=2": (
        "a382d1cec96a2f09c61e73dbbc3e33dd"
        "397ac08e307a30dac8a9a5c95775e704"
    ),
}


def _case(name: str) -> ScenarioConfig:
    protocol, _, groups = name.partition("/groups=")
    extra = {"group_count": int(groups)} if groups else {}
    return ScenarioConfig.quick(protocol=protocol, **BASE, **extra)


def record_digest(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "elapsed_s"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_every_protocol():
    assert set(PROTOCOL_NAMES) <= {n.partition("/")[0] for n in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_des_record_bytes_unchanged(name):
    backend = backend_by_name("des")
    result = backend.run(_case(name))
    assert record_digest(backend.record_from(result)) == GOLDEN[name]
