"""Application traffic generators.

The paper's workload is one constant-bit-rate source
(:class:`CbrSource`); the ``traffic`` axis of the scenario-model API
(:mod:`repro.experiments.scenario_models`) builds it.  A source has the
duck-typed contract ``start()`` / ``stop()`` / ``packets_sent`` that the
experiment runner drives.
"""

from repro.traffic.cbr import CbrSource

__all__ = ["CbrSource"]
