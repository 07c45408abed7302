"""Machine-readable registry contract (consumed by :mod:`repro.lint`).

``REGISTRY_AXES`` declares, as one **pure literal**, every registry
axis the experiment layer exposes: where the registry lives, the
canonical names symbol, the lookup entry point the CLI/validation layer
goes through, and the registered names themselves.  The linter's R3xx
rules read the literal statically (so they run on fixture trees and on
machines without the runtime dependencies installed) and check that
every name is documented, tested, and CLI-reachable.

The literal is kept honest against the live registries by
:func:`verify_registry_contract`, which ``tests/test_lint.py`` runs on
every CI leg: registering a new daemon/model/backend without updating
this table (or vice versa) fails the build with a field-level diff.

To add a registry name: register it in its module, add it to the tuple
here, document it in the README taxonomy (or ``docs/``), and reference
it from at least one test — the linter walks you through whichever of
those you forget (see ``docs/static_analysis.md``).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: axis -> {module (package-relative path), symbol (canonical names
#: tuple), lookup (CLI/validation entry point), names (registered)}
REGISTRY_AXES: Dict[str, Dict[str, object]] = {
    "daemon": {
        "module": "core/daemons.py",
        "symbol": "DAEMON_NAMES",
        "lookup": "daemon_by_name",
        "names": (
            "synchronous",
            "central",
            "randomized",
            "distributed",
            "adversarial-max-cost",
            "weakly-fair",
        ),
    },
    "metric": {
        "module": "core/metrics.py",
        "symbol": "METRIC_NAMES",
        "lookup": "metric_by_name",
        "names": ("hop", "tx", "farthest", "energy"),
    },
    "placement": {
        "module": "experiments/scenario_models.py",
        "symbol": "MODEL_NAMES",
        "lookup": "model_by_name",
        "names": ("uniform", "grid"),
    },
    "mobility": {
        "module": "experiments/scenario_models.py",
        "symbol": "MODEL_NAMES",
        "lookup": "model_by_name",
        "names": (
            "waypoint",
            "gauss-markov",
            "random-walk",
            "static",
            "trace",
        ),
    },
    "membership": {
        "module": "experiments/scenario_models.py",
        "symbol": "MODEL_NAMES",
        "lookup": "model_by_name",
        "names": ("static-random", "rotating"),
    },
    "traffic": {
        "module": "experiments/scenario_models.py",
        "symbol": "MODEL_NAMES",
        "lookup": "model_by_name",
        "names": ("cbr",),
    },
    "backend": {
        "module": "experiments/backends.py",
        "symbol": "BACKEND_NAMES",
        "lookup": "backend_by_name",
        "names": ("des", "rounds"),
    },
    "group-size": {
        "module": "experiments/scenario_models.py",
        "symbol": "MODEL_NAMES",
        "lookup": "model_by_name",
        "names": ("fixed", "linear-ramp"),
    },
    "group-overlap": {
        "module": "experiments/scenario_models.py",
        "symbol": "MODEL_NAMES",
        "lookup": "model_by_name",
        "names": ("independent", "disjoint", "shared-core"),
    },
    "engine": {
        "module": "core/convergence.py",
        "symbol": "ENGINE_NAMES",
        "lookup": "engine_for",
        "names": ("object", "array"),
    },
}


def registered_names(axis: str) -> Tuple[str, ...]:
    """The contract's registered names for one axis."""
    try:
        decl = REGISTRY_AXES[axis]
    except KeyError:
        raise ValueError(
            f"unknown registry axis {axis!r}; choose from "
            f"{sorted(REGISTRY_AXES)}"
        ) from None
    return tuple(decl["names"])  # type: ignore[arg-type]


def _live_names() -> Dict[str, Tuple[str, ...]]:
    """The live registries' name tuples, axis by axis (imports lazily:
    the contract literal itself must stay importable anywhere)."""
    from repro.core.convergence import ENGINE_NAMES
    from repro.core.daemons import DAEMON_NAMES
    from repro.core.metrics import METRIC_NAMES
    from repro.experiments.backends import BACKEND_NAMES
    from repro.experiments.scenario_models import MODEL_NAMES

    live: Dict[str, Tuple[str, ...]] = {
        "daemon": tuple(DAEMON_NAMES),
        "metric": tuple(METRIC_NAMES),
        "backend": tuple(BACKEND_NAMES),
        "engine": tuple(ENGINE_NAMES),
    }
    for axis, names in MODEL_NAMES.items():
        live[axis] = tuple(names)
    return live


def verify_registry_contract() -> None:
    """Raise ``ValueError`` when the literal contract drifts from the
    live registries (either direction), with a field-level diff."""
    live = _live_names()
    problems = []
    for axis in sorted(set(REGISTRY_AXES) | set(live)):
        declared = set(registered_names(axis)) if axis in REGISTRY_AXES else set()
        actual = set(live.get(axis, ()))
        if not declared and actual:
            problems.append(f"axis {axis!r} is live but not in REGISTRY_AXES")
            continue
        if declared and axis not in live:
            problems.append(f"axis {axis!r} is declared but has no live registry")
            continue
        missing = sorted(actual - declared)
        stale = sorted(declared - actual)
        if missing:
            problems.append(f"{axis}: registered but undeclared: {missing}")
        if stale:
            problems.append(f"{axis}: declared but unregistered: {stale}")
    if problems:
        raise ValueError(
            "registry contract drift (update repro/contracts.py):\n  "
            + "\n  ".join(problems)
        )
