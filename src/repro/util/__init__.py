"""Shared low-level utilities: identifiers, geometry, RNG streams, units.

These helpers are dependency-free (NumPy only) and used by every other
subpackage.  Nothing in here knows about simulation, protocols or energy.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "NodeId": "ids",
    "IdAllocator": "ids",
    "Arena": "geometry",
    "distance": "geometry",
    "pairwise_distances": "geometry",
    "clamp_point": "geometry",
    "RngStreams": "rng",
    "derive_seed": "rng",
    "BITS_PER_BYTE": "units",
    "KBPS": "units",
    "MS": "units",
    "US": "units",
    "joules_to_mj": "units",
    "mj_to_joules": "units",
    "bytes_to_bits": "units",
    "bits_to_bytes": "units",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
