"""DES protocol implementations.

Six multicast protocols run on the :mod:`repro.net` substrate:

* :class:`SSSPSTAgent` with a pluggable cost metric — the SS-SPST family
  (SS-SPST / -T / -F / -E), proactive and self-stabilizing via periodic
  beacons (paper sections 2-5);
* :class:`MaodvAgent` — tree-based on-demand baseline (RREQ/RREP/MACT +
  group-leader hello), after Royer & Perkins;
* :class:`OdmrpAgent` — mesh-based on-demand baseline (JOIN-QUERY /
  JOIN-REPLY forwarding group), after Gerla, Lee & Chiang;
* :class:`FloodingAgent` — the every-node-rebroadcasts reference.

Use :func:`make_agent_factory` to instantiate by protocol name
("ss-spst", "ss-spst-t", "ss-spst-f", "ss-spst-e", "maodv", "odmrp",
"flooding").

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "MulticastAgent": "base",
    "SSSPSTAgent": "ss_spst",
    "SSSPSTConfig": "ss_spst",
    "MaodvAgent": "maodv",
    "OdmrpAgent": "odmrp",
    "FloodingAgent": "flooding",
    "PROTOCOL_NAMES": "registry",
    "make_agent_factory": "registry",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
