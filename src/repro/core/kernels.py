"""Kernel fingerprint for benchmark results.

The array engine runs one implementation of its hot loops: the
pure-numpy formulations in :mod:`repro.core.array_engine`.  This module
only reports that fact, plus whether numba happens to be importable, so
machine fingerprints recorded beside benchmark results keep their shape.
"""

from __future__ import annotations

from typing import Optional

_numba_ok: Optional[bool] = None


def numba_available() -> bool:
    """Whether numba is importable (cached)."""
    global _numba_ok
    if _numba_ok is None:
        try:
            import numba  # noqa: F401

            _numba_ok = True
        except ImportError:
            _numba_ok = False
    return _numba_ok


def active_kernel() -> str:
    """The kernel the array engine runs: always ``"numpy"``."""
    return "numpy"
