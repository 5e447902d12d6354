"""Reduction-kernel backend selection.

The hot inner loops (per-cell products with compensated accumulation
over refinements that can reach millions of cells) exist twice: a
Cython extension (``_fast``) and a pure-Python implementation
(``_pure``).  The compiled one is used when importable; set
``MEASURE_LIMITS_BACKEND=pure`` (or ``fast``) to force a choice.
``perfbench/`` times the kernels inside end-to-end runs.
"""

from __future__ import annotations

import os

import numpy as np

from . import _pure

_choice = os.environ.get("MEASURE_LIMITS_BACKEND", "auto").lower()

if _choice == "pure":
    _impl = _pure
elif _choice == "fast":
    from . import _fast as _impl  # type: ignore[no-redef]
else:
    try:
        from . import _fast as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND: str = _impl.BACKEND


def _as_c_f8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def comp_sum(xs) -> float:
    """Deterministic compensated sum of a 1-d float array."""
    return _impl.comp_sum(_as_c_f8(xs))


def pos_neg_dot(values, masses) -> tuple[float, float, bool, bool]:
    """(pos_sum, neg_sum, pos_inf, neg_inf) of a cell-value/mass pairing."""
    v = _as_c_f8(values)
    m = _as_c_f8(masses)
    if v.shape != m.shape:
        raise ValueError("values and masses must have equal length")
    return _impl.pos_neg_dot(v, m)


def tail_dot(values, masses, k: float) -> tuple[float, bool]:
    """Sum of |value|*mass over cells where |value| >= k, plus an inf flag."""
    v = _as_c_f8(values)
    m = _as_c_f8(masses)
    if v.shape != m.shape:
        raise ValueError("values and masses must have equal length")
    return _impl.tail_dot(v, m, float(k))
