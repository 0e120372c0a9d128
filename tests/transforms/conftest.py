"""Shared fixtures: the BLAS3 source nests from the paper and references."""

import numpy as np

from repro.ir import Array, ArrayRef, build_computation, interpret, var

PARAMS = {"BM": 8, "BN": 8, "KT": 4, "TX": 4, "TY": 2}

GEMM_NN_SRC = """
Li: for (i = 0; i < M; i++)
Lj:   for (j = 0; j < N; j++)
Lk:     for (k = 0; k < K; k++)
          C[i][j] += A[i][k] * B[k][j];
"""

TRMM_LLN_SRC = """
Li: for (i = 0; i < M; i++)
Lj:   for (j = 0; j < N; j++)
Lk:     for (k = 0; k <= i; k++)
          C[i][j] += A[i][k] * B[k][j];
"""

TRSM_LLN_SRC = """
Li: for (i = 0; i < M; i++)
Lj:   for (j = 0; j < N; j++) {
Lk:     for (k = 0; k < i; k++)
          B[i][j] -= A[i][k] * B[k][j];
Ld:     B[i][j] = B[i][j] / A[i][i];
      }
"""

SYMM_LN_SRC = """
Li: for (i = 0; i < M; i++)
Lj:   for (j = 0; j < N; j++) {
Lk:     for (k = 0; k < i; k++) {
          C[i][j] += A[i][k] * B[k][j];
          C[k][j] += A[i][k] * B[i][j];
        }
Ld:     C[i][j] += A[i][i] * B[i][j];
      }
"""


def gemm_comp():
    return build_computation(
        "GEMM-NN",
        GEMM_NN_SRC,
        [
            Array("A", (var("M"), var("K"))),
            Array("B", (var("K"), var("N"))),
            Array("C", (var("M"), var("N"))),
        ],
    )


def trmm_comp():
    return build_computation(
        "TRMM-LL-N",
        TRMM_LLN_SRC,
        [
            Array("A", (var("M"), var("M")), triangular="lower", zero_blank=True),
            Array("B", (var("M"), var("N"))),
            Array("C", (var("M"), var("N"))),
        ],
        dim_symbols=("M", "N"),
    )


def trsm_comp():
    return build_computation(
        "TRSM-LL-N",
        TRSM_LLN_SRC,
        [
            Array("A", (var("M"), var("M")), triangular="lower"),
            Array("B", (var("M"), var("N"))),
        ],
        dim_symbols=("M", "N"),
    )


def symm_comp():
    comp = build_computation(
        "SYMM-LN",
        SYMM_LN_SRC,
        [
            Array("A", (var("M"), var("M")), symmetric="lower"),
            Array("B", (var("M"), var("N"))),
            Array("C", (var("M"), var("N"))),
        ],
        dim_symbols=("M", "N"),
    )
    # Annotate access regions (the paper's real/shadow/diagonal comments).
    lk = comp.find_loop("Lk")
    s_real, s_shadow = lk.body
    lj = comp.find_loop("Lj")
    for stmt, region in ((s_real, "real"), (s_shadow, "shadow"), (lj.body[1], "diag")):
        stmt.expr = stmt.expr.map_refs(
            lambda r: ArrayRef(r.array, r.indices, region) if r.array == "A" else r
        )
    return comp


def run_gemm(comp, m=32, n=16, k=8, seed=0, flags=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    c = rng.standard_normal((m, n)).astype(np.float32)
    out = interpret(comp, {"M": m, "N": n, "K": k}, {"A": a, "B": b, "C": c}, flags=flags)
    return out["C"], c + a @ b


def run_trmm(comp, m=16, n=16, seed=1, flags=None, dirty_blank=False):
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((m, m))).astype(np.float32)
    if dirty_blank:
        a = a + np.triu(rng.standard_normal((m, m)), 1).astype(np.float32)
    b = rng.standard_normal((m, n)).astype(np.float32)
    out = interpret(comp, {"M": m, "N": n}, {"A": a, "B": b}, flags=flags)
    return out["C"], np.tril(a) @ b


def run_trsm(comp, m=16, n=16, seed=2, flags=None):
    import scipy.linalg as sla

    rng = np.random.default_rng(seed)
    a = (np.tril(rng.standard_normal((m, m))) + 4 * np.eye(m)).astype(np.float32)
    b = rng.standard_normal((m, n)).astype(np.float32)
    out = interpret(comp, {"M": m, "N": n}, {"A": a, "B": b}, flags=flags)
    ref = sla.solve_triangular(a.astype(np.float64), b.astype(np.float64), lower=True)
    return out["B"], ref


def run_symm(comp, m=16, n=16, seed=3, flags=None):
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((m, m))).astype(np.float32)
    afull = a + a.T - np.diag(np.diag(a))
    b = rng.standard_normal((m, n)).astype(np.float32)
    out = interpret(comp, {"M": m, "N": n}, {"A": a, "B": b}, flags=flags)
    return out["C"], afull @ b
