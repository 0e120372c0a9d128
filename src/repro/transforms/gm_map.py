"""``GM_map`` — remap a matrix in global memory (§IV-A.1).

The component materialises a transformed copy of the matrix *before* the
compute kernel runs (a separate remap kernel / stage), then retargets every
reference.  It "is valid only when it is the first optimization in an
optimization sequence" — the mixer enforces that location constraint.

Modes (§III-B):

* ``Transpose`` — ``NewX = Xᵀ``; every ``X[a][b]`` becomes ``NewX[b][a]``.
  This is how GEMM-TN/NT/TT become GEMM-NN so its scheme can be reused.
* ``Symmetry`` — ``NewX = X + Xᵀ − diag(X)``: the full matrix is rebuilt
  from the stored triangle; *real/diag* references keep their subscripts,
  *shadow* references (the developer-annotated second access) swap theirs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..ir.affine import var
from ..ir.ast import (
    Array,
    ArrayRef,
    Assign,
    Cmp,
    Computation,
    Guard,
    Loop,
    Stage,
    fresh_label,
)
from ..ir.visitors import map_statements
from .base import (
    LOC_FIRST,
    POOL_POLYHEDRAL,
    Transform,
    TransformError,
    TransformResult,
)
from .util import require

__all__ = ["GMMap", "derived_names"]


def derived_names(comp: Computation, source: str) -> List[str]:
    """Names of arrays derived from ``source`` (GM_map targets), plus itself."""
    return [source] + [
        a.name for a in comp.arrays.values() if a.source == source
    ]


class GMMap(Transform):
    name = "GM_map"
    pool = POOL_POLYHEDRAL
    location = LOC_FIRST
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"GM_map expects (array, mode), got {args}")
        target, mode = args
        if mode not in ("Transpose", "Symmetry"):
            raise TransformError(f"GM_map supports Transpose/Symmetry, got {mode!r}")
        comp = comp.clone()
        arr = comp.array(target)
        require(arr.storage == "global", f"{target} is not in global memory")
        require(arr.rank == 2, "GM_map supports 2-D matrices")
        # Location constraint: must precede thread grouping.
        require(
            not comp.main_stage.meta.get("grouped"),
            "GM_map is only valid as the first optimization in a sequence",
        )

        if mode == "Transpose":
            new_name = f"{target}_t"
            new_dims = (arr.dims[1], arr.dims[0])
        else:
            require(
                arr.symmetric in ("lower", "upper"),
                f"GM_map(Symmetry) needs a symmetric-storage matrix, {target} is not",
            )
            new_name = f"{target}_full"
            new_dims = (arr.dims[0], arr.dims[1])
        require(new_name not in comp.arrays, f"{new_name} already exists")
        new_arr = Array(new_name, new_dims, storage="global", layout=arr.layout, source=target)
        comp.add_array(new_arr)

        remap = self._remap_stage(target, new_name, mode, arr)
        comp.stages.insert(0, remap)

        # Retarget references in the compute stage.
        def rewrite(ref: ArrayRef) -> ArrayRef:
            if ref.array != target:
                return ref
            if mode == "Transpose" or ref.region == "shadow":
                return ArrayRef(new_name, (ref.indices[1], ref.indices[0]), ref.region)
            return ArrayRef(new_name, ref.indices, ref.region)

        map_statements(comp.main_stage.body, lambda stmt: stmt.map_refs(rewrite))
        return TransformResult(
            comp, notes=[f"{target} -> {new_name} ({mode}) via remap kernel"]
        )

    @staticmethod
    def _remap_stage(target: str, new_name: str, mode: str, arr: Array) -> Stage:
        """Fig. §IV-A.1 step 1-2: the data-mapping loop nest, later
        distributed over blocks/threads at code-generation time."""
        gi, gj = var("gi"), var("gj")
        if mode == "Transpose":
            # NewX is (d1 x d0): NewX[gi][gj] = X[gj][gi]
            stmt = Assign(ArrayRef(new_name, (gi, gj)), ArrayRef(target, (gj, gi)))
            body = [stmt]
            d0, d1 = arr.dims[1], arr.dims[0]
        else:
            # NewX = X + Xᵀ − diag(X): mirror the stored triangle.
            direct = Assign(ArrayRef(new_name, (gi, gj)), ArrayRef(target, (gi, gj)))
            mirrored = Assign(ArrayRef(new_name, (gi, gj)), ArrayRef(target, (gj, gi)))
            stored_cond = (
                Cmp(gi, ">=", gj) if arr.symmetric == "lower" else Cmp(gi, "<=", gj)
            )
            body = [Guard(stored_cond, [direct], [mirrored], note="symmetry fill")]
            d0, d1 = arr.dims[0], arr.dims[1]
        inner = Loop("gj", 0, d1, body, label=fresh_label("Lgm_j"))
        outer = Loop("gi", 0, d0, [inner], label=fresh_label("Lgm_i"))
        return Stage(name=f"gm_map_{new_name}", body=[outer], role="remap")
