"""repro — reproduction of "Energy-Aware Self-Stabilization in Mobile Ad
Hoc Networks: A Multicasting Case Study" (Mukherjee, Sridharan, Gupta —
IPDPS 2007).

Layout (see README.md; ``docs/deviations.md`` lists the substitutions for
ns-2):

* :mod:`repro.core` — the paper's contribution: the four tree-cost
  metrics (hop / T / F / E), the guarded self-stabilizing rule, round
  executors and the Lemma 1-3 machinery;
* :mod:`repro.protocols` — packet-level SS-SPST family plus the MAODV /
  ODMRP / flooding baselines;
* :mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.mobility`,
  :mod:`repro.energy` — the simulation substrate (ns-2 replacement);
* :mod:`repro.experiments` — scenario runner, campaigns and one definition
  per evaluation figure (``FIGURES['fig07']..['fig16']``).

Importing ``repro`` loads no subpackage, and each subpackage resolves
its exports on first use (:func:`lazy_exports`), so a process loads only
the modules it reads: a rounds campaign never imports the DES stack.

Quick start::

    from repro.experiments import ScenarioConfig, run_scenario
    summary = run_scenario(ScenarioConfig.quick(protocol="ss-spst-e")).summary
"""

import importlib
import sys
from typing import Callable, Mapping

__version__ = "1.0.0"


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable:
    """A PEP 562 module ``__getattr__`` resolving ``package``'s exports
    on first use.

    ``exports`` maps each exported name to the submodule of ``package``
    that defines it; a name is imported only when first read (``from
    package import name`` included), then bound on the package so later
    reads skip this hook.  An exported name must not also name a
    submodule: importing that submodule would rebind the package
    attribute to the module.
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__all__ = [
    "core",
    "protocols",
    "sim",
    "net",
    "mobility",
    "energy",
    "graph",
    "traffic",
    "metrics",
    "experiments",
    "analysis",
    "util",
]
