"""The array engine's step-size dispatch, pinned on the rounds backend.

``ArrayRoundEngine`` evaluates and commits a hop, tx or farthest step
with fewer than ``MIN_BATCH_STEP`` nodes through the scalar rule, and
larger steps through the vector path; SS-SPST-E steps vectorize at every
size.  The choice must not show in any output.  These cases run each
SS-SPST variant on a 200-node sparse topology under ``distributed``
(k = 4, so every step is small) and under ``synchronous`` (wide steps),
and pin:

* the record bytes, as the vector-only engine wrote them (SS-SPST-E's
  ``chain_steps``, which counts scalar chain walks, included);
* that the small steps did take the scalar rule, and the wide ones the
  vector path, so neither side of the dispatch can go dead unnoticed;
* SS-SPST-E's ``batch_steps``, which the dispatch must leave alone.

Synchronous SS-SPST-F limit-cycles here until ``max_rounds``
(``docs/convergence.md``); seed 8 is one where synchronous SS-SPST-E
converges, so that case stays well under a second.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import convergence
from repro.experiments.backends import backend_by_name
from repro.experiments.config import ScenarioConfig

#: sha256 of each case's record JSON (sorted keys)
RECORD_SHA256 = {
    ("ss-spst", "distributed"):
        "1ba459563f0651d28978f8ae8800a083a9e1b4e2a2398513e721ffec16392bef",
    ("ss-spst", "synchronous"):
        "7d52e435b0f43ddd7483d1ae23acaa3d88ba08c81a7e23fa08f14b01f8499195",
    ("ss-spst-t", "distributed"):
        "bd5a8bcbfd13a5a7475ed40e6b55fd21f57e5bd8d1ba4d5e1fe066d2333a74fa",
    ("ss-spst-t", "synchronous"):
        "8431fc0e2acd3a3ca73296aaa9ae3a57c5df8156d263f1e7adb059513aa4ccd2",
    ("ss-spst-f", "distributed"):
        "6d3f9b66866ad7330c26f226e69207ae204cd5d561f4f68b9dff527516825650",
    ("ss-spst-f", "synchronous"):
        "5e3ae753ed3390a6ce441f5862b5b50c92fe227bb09b75427a67f8f67e5dcb67",
    ("ss-spst-e", "distributed"):
        "381e7fb9ab8cc0f3da580ef44e54e07724f372d55abc2fbda6e4061f67549b9a",
    ("ss-spst-e", "synchronous"):
        "8cddcd0ac27aa3fcd11aa06d68297e252f280f75ba570a67503e2341d8e55428",
}

#: SS-SPST-E's (chain_steps, batch_steps) of the settling run
ENERGY_STEPS = {
    "distributed": (1536, 397),
    "synchronous": (34914, 19),
}


@pytest.fixture
def engines(monkeypatch):
    """The engines the rounds backend builds, in order (settling run
    first, then the fault-recovery run)."""
    made = []
    original = convergence.engine_for

    def recording(*args, **kwargs):
        engine = original(*args, **kwargs)
        made.append(engine)
        return engine

    monkeypatch.setattr(convergence, "engine_for", recording)
    return made


@pytest.mark.parametrize(
    "protocol,daemon", sorted(RECORD_SHA256), ids="-".join
)
def test_dispatch_keeps_the_record(protocol, daemon, engines):
    config = ScenarioConfig.quick(
        backend="rounds", engine="array", topology="sparse",
        density_ref_n=50, n_nodes=200, protocol=protocol, daemon=daemon,
        daemon_k=4, seed=8,
    )
    backend = backend_by_name("rounds")
    record = backend.record_from(backend.run(config))
    blob = json.dumps(record, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == RECORD_SHA256[protocol, daemon]

    profile = engines[0].profile
    if protocol == "ss-spst-e":
        assert (
            record["summary"]["chain_steps"], profile["batch_steps"]
        ) == ENERGY_STEPS[daemon]
    elif daemon == "distributed":
        assert profile["scalar_steps"] > 0
    if daemon == "synchronous":
        assert profile["batch_steps"] > 0
