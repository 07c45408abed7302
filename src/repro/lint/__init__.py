"""Contract-aware static analysis for the reproduction (``repro.lint``).

Three repo-specific rule families keep the guarantees of PRs 4-8 from
regressing as the codebase grows (see ``docs/static_analysis.md`` for
the full catalogue and suppression syntax):

* **determinism** (``D1xx``, :mod:`repro.lint.determinism`) — no
  wall-clock, unseeded randomness, env reads or hash-order leaks inside
  the deterministic core;
* **hash-participation** (``H2xx``, :mod:`repro.lint.hashes`) — every
  ``ScenarioConfig``/``SSSPSTConfig`` field accounted for in the cache
  hash contract;
* **registry consistency** (``R3xx``, :mod:`repro.lint.registries`) —
  every registered daemon/metric/model/backend/engine name documented,
  tested and CLI-reachable.

Run it with ``python -m repro.lint src/repro`` (see
:mod:`repro.lint.cli`).  The linter is pure stdlib and never imports
the code it analyzes, so it works on fixture corpora and on trees whose
dependencies are not installed.
"""

from repro.lint.base import Baseline, Finding, Project
from repro.lint.cli import main, run_lint

__all__ = ["Baseline", "Finding", "Project", "main", "run_lint"]
