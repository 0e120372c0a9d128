"""NumPy reference semantics for the 24 BLAS3 variants.

Pure-NumPy (float64) oracles used to validate both the OA-generated
kernels and the CUBLAS/MAGMA-like baselines.  Full BLAS semantics —
``alpha``/``beta`` scaling, through the same
:func:`~repro.blas3.routines.epilogue` every execution path applies —
live here; the IR kernels compute the ``alpha = beta = 1`` core update
(see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .naming import parse_variant
from .routines import epilogue, get_spec

__all__ = ["reference", "densify_symmetric", "densify_triangular", "random_inputs"]


def densify_symmetric(stored: np.ndarray, uplo: str) -> np.ndarray:
    """Rebuild the full symmetric matrix from its stored triangle:
    ``X + Xᵀ − diag(X)`` (paper §III-B, the Symmetry allocation mode)."""
    tri = np.tril(stored) if uplo == "L" else np.triu(stored)
    return tri + tri.T - np.diag(np.diag(tri))


def densify_triangular(stored: np.ndarray, uplo: str, trans: str) -> np.ndarray:
    tri = np.tril(stored) if uplo == "L" else np.triu(stored)
    return tri.T if trans == "T" else tri


def reference(
    name: str,
    inputs: Mapping[str, np.ndarray],
    alpha: float = 1.0,
    beta: float = 1.0,
) -> np.ndarray:
    """Expected result of a variant on ``inputs`` (float64 arithmetic)."""
    v = parse_variant(name)
    a = np.asarray(inputs["A"], dtype=np.float64)
    b = np.asarray(inputs["B"], dtype=np.float64)
    c = np.asarray(inputs["C"], dtype=np.float64) if "C" in inputs else None

    if v.family == "TRSM":
        op = densify_triangular(a, v.uplo, v.trans)
        if v.side == "L":
            x = np.linalg.solve(op, b)
        else:
            x = np.linalg.solve(op.T, b.T).T
        return alpha * x

    if v.family == "GEMM":
        opa = a.T if v.trans_a == "T" else a
        opb = b.T if v.trans_b == "T" else b
        prod = opa @ opb
    elif v.family == "BGEMM":
        opa = a.transpose(0, 2, 1) if v.trans_a == "T" else a
        opb = b.transpose(0, 2, 1) if v.trans_b == "T" else b
        prod = np.matmul(opa, opb)
    elif v.family == "SYMM":
        full = densify_symmetric(a, v.uplo)
        prod = full @ b if v.side == "L" else b @ full
    elif v.family == "TRMM":
        op = densify_triangular(a, v.uplo, v.trans)
        prod = op @ b if v.side == "L" else b @ op
    else:
        raise ValueError(f"unknown family {v.family!r}")
    return epilogue(prod, alpha, beta, c)


def random_inputs(
    name: str, sizes: Mapping[str, int], seed: int = 0
) -> Dict[str, np.ndarray]:
    """Structured float32 inputs for a variant (stored triangles, zero
    blanks, boosted diagonals for solves), shaped by its routine spec.
    ``K`` defaults to ``N`` and ``P`` to 1."""
    spec = get_spec(name)
    rng = np.random.default_rng(seed)
    env = {"K": sizes["N"], "P": 1, **sizes}
    out: Dict[str, np.ndarray] = {}
    for arr in spec.arrays:
        x = rng.standard_normal(spec.extent(arr.name, env)).astype(np.float32)
        stored = arr.triangular or arr.symmetric
        if stored:
            x = np.tril(x) if stored == "lower" else np.triu(x)
        if arr.triangular and spec.variant.family == "TRSM":
            x = x + 4.0 * np.eye(len(x), dtype=np.float32)
        out[arr.name] = x
    return out
