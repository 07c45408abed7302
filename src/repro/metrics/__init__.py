"""Evaluation metrics (paper section 6).

:class:`MetricsHub` is the single sink for simulation observations; at the
end of a run :meth:`MetricsHub.summary` produces the quantities every
figure of the paper reports:

* **Packet delivery ratio** — delivered data packets over packets that
  *should* have been received (originated x receivers);
* **Energy consumed per packet delivered** — total network joules (all
  nodes, all buckets) over delivered data packets, in millijoules;
* **Average delay** — mean end-to-end delivery latency, in milliseconds;
* **Control byte overhead** — control bytes transmitted per data byte
  delivered;
* **Unavailability ratio** — fraction of sampled service probes in which a
  receiver had no live multicast service (no delivery within a recency
  window), averaged over receivers.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "MetricsHub": "hub",
    "RunSummary": "hub",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
