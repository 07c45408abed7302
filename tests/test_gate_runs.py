"""Golden for the DES speed gate's runs: the default n=50 scenario, run
for the full 300 simulated seconds.

The record-byte goldens (``test_des_golden.py``) run 16 s scenarios;
a change can keep those bytes and still fork a trajectory later in a
run.  These two cases pin ``repr(RunSummary)`` and ``events_executed``
of the runs the protocols' speed gate times, so a faster tree must also
be the same tree over the whole run.  About 7 s per case; CI runs this
file as its own step.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario

GOLDEN = {
    "ss-spst": (
        "RunSummary(pdr=0.8967924002415572, "
        "energy_per_packet_mj=25.379381444340062, "
        "avg_delay_ms=9.574781038269398, "
        "control_overhead=0.005308627186905116, "
        "unavailability=0.04010889292196007, data_originated=4532, "
        "data_delivered=77221, total_energy_j=1959.821214513384, "
        "control_bytes_tx=209888, data_bytes_tx=14760960, "
        "duplicates_suppressed=0)",
        729022,
    ),
    "ss-spst-e": (
        "RunSummary(pdr=0.884946810981558, "
        "energy_per_packet_mj=16.974550974499124, "
        "avg_delay_ms=11.868315770284198, "
        "control_overhead=0.010657924846786787, "
        "unavailability=0.032304900181488204, data_originated=4532, "
        "data_delivered=76201, total_energy_j=1293.4777588078077, "
        "control_bytes_tx=415818, data_bytes_tx=13777408, "
        "duplicates_suppressed=0)",
        511919,
    ),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_gate_run_is_pinned(protocol):
    summary, events = GOLDEN[protocol]
    result = run_scenario(ScenarioConfig(protocol=protocol, seed=1, sim_time=300))
    assert repr(result.summary) == summary
    assert result.diagnostics["events_executed"] == events
