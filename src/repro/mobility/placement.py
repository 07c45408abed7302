"""Initial node placement samplers.

The paper's evaluation places nodes uniformly at random in the arena;
that remains the default.  The sampler here is the *placement* axis's
one alternative (:mod:`repro.experiments.scenario_models`): a lattice,
the exact layout the analytic anchors need.

A sampler is a pure function of ``(n, arena, rng)`` returning an
``(n, 2)`` position array inside the arena; determinism per rng seed is
what the scenario hypothesis tests pin down.  Samplers never share an
rng with mobility: a sampler draws from the dedicated ``placement``
substream, while the uniform *default* has no sampler at all — it hands
the mobility model ``None`` so its historical self-sampling path
(``Arena.sample_points`` from the ``mobility`` substream) keeps default
scenarios bit-identical to the pre-model-API code.
"""

from __future__ import annotations

import numpy as np

from repro.util.geometry import Arena


def grid_positions(
    n: int,
    arena: Arena,
    rng: np.random.Generator,
    jitter_frac: float = 0.0,
) -> np.ndarray:
    """A near-square lattice covering the arena, row-major node order.

    ``jitter_frac`` perturbs each lattice point uniformly by that
    fraction of the cell pitch (0 keeps the lattice exact and draws
    nothing from ``rng``).
    """
    if not 0.0 <= jitter_frac <= 1.0:
        raise ValueError("grid jitter_frac must be in [0, 1]")
    cols = int(np.ceil(np.sqrt(n * arena.width / arena.height)))
    cols = max(cols, 1)
    rows = int(np.ceil(n / cols))
    dx, dy = arena.width / cols, arena.height / rows
    idx = np.arange(n)
    pos = np.column_stack(
        [(idx % cols + 0.5) * dx, (idx // cols + 0.5) * dy]
    ).astype(float)
    if jitter_frac > 0.0:
        pos += rng.uniform(-0.5, 0.5, size=(n, 2)) * np.array([dx, dy]) * jitter_frac
        pos[:, 0] = np.clip(pos[:, 0], 0.0, arena.width)
        pos[:, 1] = np.clip(pos[:, 1], 0.0, arena.height)
    return pos
