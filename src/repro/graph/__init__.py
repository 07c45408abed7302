"""Static graph layer: topologies, trees, reference constructions.

The self-stabilizing algorithms of :mod:`repro.core` run against an
abstract :class:`Topology` (nodes, weighted adjacency, multicast group),
which can come from geometric positions or from an explicit edge list (the
paper's worked example gives distances, not coordinates).

Also here: the static multicast-tree machinery used for validation —
tree representation/pruning (:mod:`repro.graph.tree`), classic reference
constructions (BIP/MIP, :mod:`repro.graph.bip`), and brute-force /
heuristic minimum-energy trees (:mod:`repro.graph.emin`) used to measure
how close SS-SPST-E gets to the optimum.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "Topology": "topology",
    "SparseTopology": "sparse",
    "TreeAssignment": "tree",
    "bip_tree": "bip",
    "mip_tree": "bip",
    "exhaustive_min_energy_tree": "emin",
    "local_search_min_energy_tree": "emin",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
