"""Labeled-source definitions of the 24 BLAS3 routine variants.

Each variant is defined the way the paper presents routines (Fig. 3,
Fig. 14, §IV-A): a labeled C loop nest over column-major matrices, array
declarations carrying the structural facts (symmetric/triangular storage,
zero blanks), developer region annotations for symmetric accesses
(``// for real/shadow area``), and the adaptor assignments that relate the
variant to the GEMM-NN optimization scheme.

Conventions (documented deviations in DESIGN.md):

* kernels compute the ``alpha = beta = 1`` update (``C += op(A)op(B)`` /
  in-place solve); the library applies alpha/beta scaling outside;
* TRMM is written out-of-place into C (the paper's Fig. 14 presentation);
* backward substitutions are expressed with a reversed index
  (``i = M-1-ii``), keeping all loops ascending and bounds affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ir.ast import Array, ArrayRef, Computation
from ..ir.builder import build_computation
from ..ir.affine import var
from .naming import ALL_VARIANTS, BATCHED_VARIANTS, VariantName, parse_variant

__all__ = [
    "RoutineSpec",
    "get_spec",
    "build_routine",
    "all_specs",
    "infer_sizes",
    "epilogue",
    "BASE_GEMM_SCRIPT",
    "BASE_BGEMM_SCRIPT",
    "DEFAULT_TUNE_BATCH",
]

#: The GEMM-NN optimization scheme (paper Fig. 3) every variant reuses.
BASE_GEMM_SCRIPT = """
(Lii, Ljj) = thread_grouping((Li, Lj));
(Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
loop_unroll(Ljjj, Lkkk);
SM_alloc(B, Transpose);
Reg_alloc(C);
"""

#: Batched variants claim the outermost batch loop for the grid's z
#: dimension first, then reuse the GEMM scheme per problem.
BASE_BGEMM_SCRIPT = "batch_grid(Lp);" + BASE_GEMM_SCRIPT

#: batch extent used when tuning/verifying a batched routine
DEFAULT_TUNE_BATCH = 8


@dataclass(frozen=True)
class RoutineSpec:
    """Everything the OA framework needs to generate one routine variant."""

    variant: VariantName
    source: str
    arrays: Tuple[Array, ...]
    dim_symbols: Tuple[str, ...]
    #: (adaptor name, object) pairs fed to the composer
    adaptations: Tuple[Tuple[str, str], ...]
    #: the array the routine writes (its result)
    output: str
    #: (stmt position in Lk body -> region) for the symmetric A refs;
    #: "diag" tags the Ld statement.
    regions: Tuple[Tuple[int, str], ...] = ()
    flops_formula: str = ""
    #: maps the base GEMM script's array names (A = per-thread row panel,
    #: B = reduction×column operand, C = output) to this routine's arrays —
    #: right-side variants swap the operand roles.
    role_map: Tuple[Tuple[str, str], ...] = (("A", "A"), ("B", "B"), ("C", "C"))

    @cached_property
    def axis_symbols(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """``(operand, dimension symbol of each axis)`` for every array."""
        return tuple(
            (arr.name, tuple(d.single_var() for d in arr.dims)) for arr in self.arrays
        )

    def sizes_from_shapes(
        self, shapes: Mapping[str, Tuple[int, ...]]
    ) -> Dict[str, int]:
        """Dimension sizes implied by operand shapes.

        Every bound operand's shape is unified against its declared
        dims, so a rank mismatch, a dimension two operands disagree on,
        or a dimension no bound operand determines raises ``ValueError``.
        Keys naming no operand are ignored.
        """
        found: Dict[str, int] = {}
        for name, symbols in self.axis_symbols:
            if name not in shapes:
                continue
            shape = tuple(shapes[name])
            if len(shape) != len(symbols):
                raise ValueError(
                    f"{self.name}: operand {name} expects rank "
                    f"{len(symbols)}, got shape {shape}"
                )
            for sym, extent in zip(symbols, shape):
                prior = found.setdefault(sym, int(extent))
                if prior != extent:
                    raise ValueError(
                        f"{self.name}: dimension {sym} is both {prior} and {extent}"
                    )
        unbound = [sym for sym in self.dim_symbols if sym not in found]
        if unbound:
            raise ValueError(
                f"{self.name}: dimensions {unbound} are not determined by the "
                "bound operands"
            )
        return {sym: found[sym] for sym in self.dim_symbols}

    def array(self, name: str) -> Array:
        """The declaration of operand ``name``."""
        for arr in self.arrays:
            if arr.name == name:
                return arr
        raise KeyError(f"{self.name} has no operand {name!r}")

    def extent(self, name: str, sizes: Mapping[str, int]) -> Tuple[int, ...]:
        """The shape of operand ``name`` at dimension sizes ``sizes``."""
        return tuple(d.evaluate(sizes) for d in self.array(name).dims)

    def logical_inputs(
        self, inputs: Mapping[str, np.ndarray], sizes: Mapping[str, int]
    ) -> Dict[str, np.ndarray]:
        """Each operand of ``inputs`` cut to its extent at ``sizes``.

        Callers may hand buffers *larger* than the problem named by
        explicit ``sizes`` (the BLAS leading-dimension convention):
        anything beyond the logical extent is storage, not data.  Smaller
        is not storage, it is an inconsistent call.
        """
        out = dict(inputs)
        for arr in self.arrays:
            if arr.name not in inputs:
                continue
            data = np.asarray(inputs[arr.name])
            logical = self.extent(arr.name, sizes)
            if data.ndim != len(logical) or data.shape == logical:
                continue
            if any(have < want for want, have in zip(logical, data.shape)):
                raise ValueError(
                    f"{self.name}: array {arr.name} has shape {data.shape}, "
                    f"smaller than its logical extent {logical}"
                )
            out[arr.name] = data[tuple(slice(0, want) for want in logical)]
        return out

    def pad(
        self, inputs: Mapping[str, np.ndarray], sizes: Mapping[str, int]
    ) -> Dict[str, np.ndarray]:
        """Each operand of ``inputs`` zero-padded (float32) to its extent
        at ``sizes``, which it must fit.

        Zero padding is exact for the multiply families; a solve's
        triangular operand also gets 1 on its padded diagonal, which
        keeps the solve exact.
        """
        out = {}
        for arr in self.arrays:
            if arr.name not in inputs:
                continue
            data = np.asarray(inputs[arr.name], dtype=np.float32)
            buf = np.zeros(self.extent(arr.name, sizes), np.float32)
            buf[tuple(slice(0, have) for have in data.shape)] = data
            if arr.triangular and self.variant.family == "TRSM":
                for d in range(data.shape[0], buf.shape[0]):
                    buf[d, d] = 1.0
            out[arr.name] = buf
        return out

    def resolve_role(self, name: str) -> str:
        return dict(self.role_map).get(name, name)

    @property
    def name(self) -> str:
        return self.variant.name

    def nominal_flops(self, sizes: Dict[str, int]) -> float:
        m = sizes.get("M", 0)
        n = sizes.get("N", 0)
        k = sizes.get("K", 0)
        p = sizes.get("P", 1)
        return {
            "2MNK": 2.0 * m * n * k,
            "2PMNK": 2.0 * p * m * n * k,
            "2MMN": 2.0 * m * m * n,
            "2MNN": 2.0 * m * n * n,
            "MMN": float(m) * m * n,
            "MNN": float(m) * n * n,
        }[self.flops_formula]

    def make_sizes(
        self, n: int, k: Optional[int] = None, p: Optional[int] = None
    ) -> Dict[str, int]:
        sizes = {"M": n, "N": n}
        if "K" in self.dim_symbols:
            sizes["K"] = k or n
        if "P" in self.dim_symbols:
            sizes["P"] = p or DEFAULT_TUNE_BATCH
        return sizes


def infer_sizes(spec: "RoutineSpec", inputs: Mapping) -> Dict[str, int]:
    """Dimension sizes implied by a call's arrays.

    ``inputs`` maps operand names to arrays; keys naming no operand of
    ``spec`` are ignored.  The shapes are unified by
    :meth:`RoutineSpec.sizes_from_shapes`, so operands that disagree
    raise ``ValueError``.  Only *inferred* sizes must agree: a caller
    passing explicit sizes may hand larger buffers (see
    :meth:`RoutineSpec.logical_inputs`).

    The one size inference of every execution path: tuned routines, the
    serving runtime's bucketing and routing and the distributed library;
    :meth:`repro.dag.Dag.node_sizes` unifies its propagated shapes with
    the same method.
    """
    return spec.sizes_from_shapes(
        {name: np.shape(inputs[name]) for name, _ in spec.axis_symbols if name in inputs}
    )


def epilogue(raw, alpha: float, beta: float, c=None):
    """The BLAS result ``alpha * raw + beta * C`` of an accumulating call.

    ``raw`` is the core update ``op(A) op(B)`` the kernels compute.  As
    reference BLAS specifies, ``C`` is not read when ``beta == 0``, so
    NaN or Inf in an unused ``C`` never reaches the result.  ``c`` must
    already have ``raw``'s shape and the caller's working dtype.
    """
    out = alpha * raw
    if c is not None and beta != 0.0:
        out = out + beta * c
    return out


def _c(m="M", n="N") -> Array:
    return Array("C", (var(m), var(n)))


def _gemm_spec(ta: str, tb: str) -> RoutineSpec:
    a_ref = "A[i][k]" if ta == "N" else "A[k][i]"
    b_ref = "B[k][j]" if tb == "N" else "B[j][k]"
    a_dims = (var("M"), var("K")) if ta == "N" else (var("K"), var("M"))
    b_dims = (var("K"), var("N")) if tb == "N" else (var("N"), var("K"))
    source = f"""
    Li: for (i = 0; i < M; i++)
    Lj:   for (j = 0; j < N; j++)
    Lk:     for (k = 0; k < K; k++)
              C[i][j] += {a_ref} * {b_ref};
    """
    adaptations = []
    if ta == "T":
        adaptations.append(("Adaptor_Transpose", "A"))
    if tb == "T":
        adaptations.append(("Adaptor_Transpose", "B"))
    return RoutineSpec(
        variant=VariantName("GEMM", trans_a=ta, trans_b=tb),
        source=source,
        arrays=(Array("A", a_dims), Array("B", b_dims), _c()),
        dim_symbols=("M", "N", "K"),
        adaptations=tuple(adaptations),
        output="C",
        flops_formula="2MNK",
    )


def _bgemm_spec(ta: str, tb: str) -> RoutineSpec:
    a_ref = "A[p][i][k]" if ta == "N" else "A[p][k][i]"
    b_ref = "B[p][k][j]" if tb == "N" else "B[p][j][k]"
    a_dims = (
        (var("P"), var("M"), var("K"))
        if ta == "N"
        else (var("P"), var("K"), var("M"))
    )
    b_dims = (
        (var("P"), var("K"), var("N"))
        if tb == "N"
        else (var("P"), var("N"), var("K"))
    )
    source = f"""
    Lp: for (p = 0; p < P; p++)
    Li:   for (i = 0; i < M; i++)
    Lj:     for (j = 0; j < N; j++)
    Lk:       for (k = 0; k < K; k++)
                C[p][i][j] += {a_ref} * {b_ref};
    """
    adaptations = []
    if ta == "T":
        adaptations.append(("Adaptor_Transpose", "A"))
    if tb == "T":
        adaptations.append(("Adaptor_Transpose", "B"))
    return RoutineSpec(
        variant=VariantName("BGEMM", trans_a=ta, trans_b=tb),
        source=source,
        arrays=(
            Array("A", a_dims),
            Array("B", b_dims),
            Array("C", (var("P"), var("M"), var("N"))),
        ),
        dim_symbols=("P", "M", "N", "K"),
        adaptations=tuple(adaptations),
        output="C",
        flops_formula="2PMNK",
    )


def _symm_spec(side: str, uplo: str) -> RoutineSpec:
    sym_dim = "M" if side == "L" else "N"
    if side == "L":
        stored = "A[i][k]" if uplo == "L" else "A[k][i]"
        first_region = "real" if uplo == "L" else "shadow"
        source = f"""
        Li: for (i = 0; i < M; i++)
        Lj:   for (j = 0; j < N; j++) {{
        Lk:     for (k = 0; k < i; k++) {{
                  C[i][j] += {stored} * B[k][j];
                  C[k][j] += {stored} * B[i][j];
                }}
        Ld:     C[i][j] += A[i][i] * B[i][j];
              }}
        """
    else:
        stored = "A[j][k]" if uplo == "L" else "A[k][j]"
        first_region = "shadow" if uplo == "L" else "real"
        source = f"""
        Li: for (i = 0; i < M; i++)
        Lj:   for (j = 0; j < N; j++) {{
        Lk:     for (k = 0; k < j; k++) {{
                  C[i][j] += B[i][k] * {stored};
                  C[i][k] += B[i][j] * {stored};
                }}
        Ld:     C[i][j] += B[i][j] * A[j][j];
              }}
        """
    second_region = "shadow" if first_region == "real" else "real"
    return RoutineSpec(
        variant=VariantName("SYMM", side=side, uplo=uplo),
        source=source,
        arrays=(
            Array(
                "A",
                (var(sym_dim), var(sym_dim)),
                symmetric="lower" if uplo == "L" else "upper",
            ),
            Array("B", (var("M"), var("N"))),
            _c(),
        ),
        dim_symbols=("M", "N"),
        adaptations=(("Adaptor_Symmetry", "A"),),
        output="C",
        regions=((0, first_region), (1, second_region), (2, "diag")),
        flops_formula="2MMN" if side == "L" else "2MNN",
        role_map=(
            (("A", "A"), ("B", "B"), ("C", "C"))
            if side == "L"
            else (("A", "B"), ("B", "A"), ("C", "C"))
        ),
    )


_TRMM_BODY = {
    # (side, uplo, trans) -> (k-range, A reference)
    ("L", "L", "N"): ("for (k = 0; k <= i; k++)", "A[i][k] * B[k][j]"),
    ("L", "L", "T"): ("for (k = i; k < M; k++)", "A[k][i] * B[k][j]"),
    ("L", "U", "N"): ("for (k = i; k < M; k++)", "A[i][k] * B[k][j]"),
    ("L", "U", "T"): ("for (k = 0; k <= i; k++)", "A[k][i] * B[k][j]"),
    ("R", "L", "N"): ("for (k = j; k < N; k++)", "B[i][k] * A[k][j]"),
    ("R", "L", "T"): ("for (k = 0; k <= j; k++)", "B[i][k] * A[j][k]"),
    ("R", "U", "N"): ("for (k = 0; k <= j; k++)", "B[i][k] * A[k][j]"),
    ("R", "U", "T"): ("for (k = j; k < N; k++)", "B[i][k] * A[j][k]"),
}


def _trmm_spec(side: str, uplo: str, trans: str) -> RoutineSpec:
    krange, expr = _TRMM_BODY[(side, uplo, trans)]
    tri_dim = "M" if side == "L" else "N"
    source = f"""
    Li: for (i = 0; i < M; i++)
    Lj:   for (j = 0; j < N; j++)
    Lk:     {krange}
              C[i][j] += {expr};
    """
    return RoutineSpec(
        variant=VariantName("TRMM", side=side, uplo=uplo, trans=trans),
        source=source,
        arrays=(
            Array(
                "A",
                (var(tri_dim), var(tri_dim)),
                triangular="lower" if uplo == "L" else "upper",
                zero_blank=True,
            ),
            Array("B", (var("M"), var("N"))),
            _c(),
        ),
        dim_symbols=("M", "N"),
        adaptations=(
            (("Adaptor_Transpose", "A"),) if trans == "T" else ()
        )
        + (("Adaptor_Triangular", "A"),),
        output="C",
        flops_formula="MMN" if side == "L" else "MNN",
        role_map=(
            (("A", "A"), ("B", "B"), ("C", "C"))
            if side == "L"
            else (("A", "B"), ("B", "A"), ("C", "C"))
        ),
    )


# TRSM: {key: (forward?, left?, k-range, update expr, pivot ref)}
# Backward substitutions use a reversed index (rv = M-1-ii / N-1-jj).
_TRSM_FORMS = {
    ("L", "L", "N"): (
        """
        Li: for (i = 0; i < M; i++)
        Lj:   for (j = 0; j < N; j++) {
        Lk:     for (k = 0; k < i; k++)
                  B[i][j] -= A[i][k] * B[k][j];
        Ld:     B[i][j] = B[i][j] / A[i][i];
              }
        """
    ),
    ("L", "U", "T"): (
        """
        Li: for (i = 0; i < M; i++)
        Lj:   for (j = 0; j < N; j++) {
        Lk:     for (k = 0; k < i; k++)
                  B[i][j] -= A[k][i] * B[k][j];
        Ld:     B[i][j] = B[i][j] / A[i][i];
              }
        """
    ),
    ("L", "L", "T"): (
        """
        Li: for (ii = 0; ii < M; ii++)
        Lj:   for (j = 0; j < N; j++) {
        Lk:     for (k = M - ii; k < M; k++)
                  B[M - 1 - ii][j] -= A[k][M - 1 - ii] * B[k][j];
        Ld:     B[M - 1 - ii][j] = B[M - 1 - ii][j] / A[M - 1 - ii][M - 1 - ii];
              }
        """
    ),
    ("L", "U", "N"): (
        """
        Li: for (ii = 0; ii < M; ii++)
        Lj:   for (j = 0; j < N; j++) {
        Lk:     for (k = M - ii; k < M; k++)
                  B[M - 1 - ii][j] -= A[M - 1 - ii][k] * B[k][j];
        Ld:     B[M - 1 - ii][j] = B[M - 1 - ii][j] / A[M - 1 - ii][M - 1 - ii];
              }
        """
    ),
    ("R", "U", "N"): (
        """
        Li: for (i = 0; i < M; i++)
        Lj:   for (j = 0; j < N; j++) {
        Lk:     for (k = 0; k < j; k++)
                  B[i][j] -= B[i][k] * A[k][j];
        Ld:     B[i][j] = B[i][j] / A[j][j];
              }
        """
    ),
    ("R", "L", "T"): (
        """
        Li: for (i = 0; i < M; i++)
        Lj:   for (j = 0; j < N; j++) {
        Lk:     for (k = 0; k < j; k++)
                  B[i][j] -= B[i][k] * A[j][k];
        Ld:     B[i][j] = B[i][j] / A[j][j];
              }
        """
    ),
    ("R", "L", "N"): (
        """
        Li: for (i = 0; i < M; i++)
        Lj:   for (jj = 0; jj < N; jj++) {
        Lk:     for (k = N - jj; k < N; k++)
                  B[i][N - 1 - jj] -= B[i][k] * A[k][N - 1 - jj];
        Ld:     B[i][N - 1 - jj] = B[i][N - 1 - jj] / A[N - 1 - jj][N - 1 - jj];
              }
        """
    ),
    ("R", "U", "T"): (
        """
        Li: for (i = 0; i < M; i++)
        Lj:   for (jj = 0; jj < N; jj++) {
        Lk:     for (k = N - jj; k < N; k++)
                  B[i][N - 1 - jj] -= B[i][k] * A[N - 1 - jj][k];
        Ld:     B[i][N - 1 - jj] = B[i][N - 1 - jj] / A[N - 1 - jj][N - 1 - jj];
              }
        """
    ),
}


def _trsm_spec(side: str, uplo: str, trans: str) -> RoutineSpec:
    tri_dim = "M" if side == "L" else "N"
    return RoutineSpec(
        variant=VariantName("TRSM", side=side, uplo=uplo, trans=trans),
        source=_TRSM_FORMS[(side, uplo, trans)],
        arrays=(
            Array(
                "A",
                (var(tri_dim), var(tri_dim)),
                triangular="lower" if uplo == "L" else "upper",
            ),
            Array("B", (var("M"), var("N"))),
        ),
        dim_symbols=("M", "N"),
        adaptations=(
            (("Adaptor_Transpose", "A"),) if trans == "T" else ()
        )
        + (("Adaptor_Solver", "A"),),
        output="B",
        flops_formula="MMN" if side == "L" else "MNN",
        role_map=(
            (("A", "A"), ("B", "B"), ("C", "B"))
            if side == "L"
            else (("A", "B"), ("B", "A"), ("C", "B"))
        ),
    )


def _build_catalog() -> Dict[str, RoutineSpec]:
    specs: List[RoutineSpec] = []
    specs.extend(_gemm_spec(a, b) for a in "NT" for b in "NT")
    specs.extend(_symm_spec(s, u) for s in "LR" for u in "LU")
    specs.extend(_trmm_spec(s, u, t) for s in "LR" for u in "LU" for t in "NT")
    specs.extend(_trsm_spec(s, u, t) for s in "LR" for u in "LU" for t in "NT")
    specs.extend(_bgemm_spec(a, b) for a in "NT" for b in "NT")
    catalog = {spec.name: spec for spec in specs}
    assert set(catalog) == {
        v.name for v in ALL_VARIANTS + BATCHED_VARIANTS
    }
    return catalog


_CATALOG = _build_catalog()


def get_spec(name: str) -> RoutineSpec:
    """Look up a routine spec by its postfix name (e.g. ``TRSM-LL-N``)."""
    key = parse_variant(name).name
    return _CATALOG[key]


def all_specs() -> List[RoutineSpec]:
    return [_CATALOG[v.name] for v in ALL_VARIANTS]


def build_routine(name: str) -> Computation:
    """Build the labeled-source computation for a variant, with the
    developer's region annotations applied."""
    spec = get_spec(name)
    comp = build_computation(
        spec.name, spec.source, spec.arrays, dim_symbols=spec.dim_symbols
    )
    if spec.regions:
        lk = comp.find_loop("Lk")
        lj = comp.find_loop("Lj")
        stmts = list(lk.body) + [n for n in lj.body if n is not lk]
        for pos, region in spec.regions:
            stmt = stmts[pos]
            stmt.expr = stmt.expr.map_refs(
                lambda ref: ArrayRef(ref.array, ref.indices, region) if ref.array == "A" else ref
            )
    return comp
