"""Correctness gate: every benchmark output against the float64 reference.

The kernels compute in float32; the references
(:func:`repro.blas3.reference.reference` for single calls,
:meth:`repro.dag.Dag.reference` for chains) compute in float64.  An
output passes when its largest absolute error is at most
``ATOL + RTOL * max|reference|``: float32 rounding scales with the
magnitude of the result, and the generated solves are well conditioned
(boosted diagonals), so their error scales the same way.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["RTOL", "ATOL", "compare", "Gate"]

RTOL = 1e-5
ATOL = 1e-6


def compare(output, expected) -> Tuple[float, Optional[str]]:
    """``(error / tolerance, problem)``; ``problem`` is ``None`` on a pass."""
    if output is None:
        return float("inf"), "no output"
    got = np.asarray(output, dtype=np.float64)
    want = np.asarray(expected, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf"), f"shape {got.shape}, expected {want.shape}"
    if not np.all(np.isfinite(got)):
        return float("inf"), "non-finite values"
    if not got.size:
        return 0.0, None
    error = float(np.max(np.abs(got - want)))
    limit = ATOL + RTOL * float(np.max(np.abs(want)))
    ratio = error / limit
    if ratio > 1.0:
        return ratio, f"max abs error {error:.3g} over tolerance {limit:.3g}"
    return ratio, None


class Gate:
    """Counts every checked operation and keeps each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        #: largest error seen on a passing output, as a share of its tolerance
        self.worst = 0.0

    def check(self, label: str, output, expected, error: Optional[str] = None) -> bool:
        self.attempted += 1
        if error is None:
            ratio, error = compare(output, expected)
            if error is None:
                self.worst = max(self.worst, ratio)
        if error is not None:
            self.failures.append(f"{label}: {error}")
        return error is None

    @property
    def failed(self) -> int:
        return len(self.failures)
