#!/usr/bin/env python
"""Head-to-head comparison of all multicast protocols on one scenario.

The scenario everything in the paper turns on: identical mobility, group
and channel for every protocol (only the protocol-specific RNG substreams
differ), so differences in the metrics are attributable to the protocols.
Prints the comparison table and an ASCII PDR-vs-velocity chart.

Usage::

    python examples/protocol_comparison.py [--fast]
"""

import dataclasses
import sys

from repro.analysis import ascii_plot
from repro.experiments import ScenarioConfig, run_scenario
from repro.experiments.figures import FIGURES

PROTOCOLS = ("ss-spst", "ss-spst-t", "ss-spst-f", "ss-spst-e", "maodv", "odmrp")


def main() -> None:
    fast = "--fast" in sys.argv
    sim_time = 60.0 if fast else 120.0

    print("=" * 78)
    print("Single-scenario comparison (v_max = 5 m/s, group = 20)")
    print("=" * 78)
    header = (f"{'protocol':>10s} {'PDR':>7s} {'mJ/pkt':>8s} {'delay ms':>9s} "
              f"{'overhead':>9s} {'unavail':>8s}")
    print(header)
    for protocol in PROTOCOLS:
        cfg = ScenarioConfig.quick(
            protocol=protocol, v_max=5.0, seed=7, sim_time=sim_time
        )
        s = run_scenario(cfg).summary
        print(f"{protocol:>10s} {s.pdr:7.3f} {s.energy_per_packet_mj:8.2f} "
              f"{s.avg_delay_ms:9.2f} {s.control_overhead:9.4f} "
              f"{s.unavailability:8.3f}")

    print()
    print("=" * 78)
    print("PDR vs velocity (the Figure 14 shape)")
    print("=" * 78)
    # Figure 14's campaign, on this example's shorter runs and seeds.
    fig = dataclasses.replace(
        FIGURES["fig14"],
        protocols=("ss-spst", "ss-spst-e", "maodv", "odmrp"),
        base_quick=ScenarioConfig.quick(sim_time=sim_time),
    )
    result = fig.run(seeds=(7,) if fast else (7, 8))
    print(result.format_table("pdr vs v_max"))
    print(ascii_plot(result.x_values, result.series, y_label="pdr", x_label="v_max (m/s)"))


if __name__ == "__main__":
    main()
