"""Triangular-matrix components: ``peel_triangular``, ``padding_triangular``
and ``binding_triangular`` (paper §IV-A.3 / §IV-A.4, Fig. 6 and Fig. 7).

A triangular iteration space gives the threads of a block *un-uniform
loop bounds*.  After thread grouping a triangular reduction bound mixes a
block base (``bi``/``ibb``) with per-thread offsets; over one block the
bound expression ``P`` spans ``[P_min, P_max]``, splitting the trapezoid
into

* a **rectangular** region every thread executes fully — below ``P_min``
  when the triangular bound is an upper bound (``k < i + c``), above
  ``P_max`` when it is a lower bound (``k >= i + c``, the transposed /
  upper-uplo variants) — and
* a **triangular** region around the diagonal tiles.

``peel_triangular`` separates the two at a tile-aligned split point;
``padding_triangular`` instead extends the triangular bound over the full
tile — valid only when the blank area of the matrix is zero, hence the
variant-level ``check_blank_zero`` condition; ``binding_triangular``
serialises the triangular region onto one thread of the block (the TRSM
diagonal solve of Fig. 7), rebuilding the original statement order so the
intra-row-block recurrence is honoured.

Detection fails — and the composer's filter drops the component — when no
trapezoid is exposed yet (before thread grouping, as §IV-A.3 notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..ir.affine import AffineExpr, MaxExpr, MinExpr, aff, var
from ..ir.ast import (
    And,
    Assign,
    Barrier,
    Cmp,
    Computation,
    Guard,
    Loop,
    Node,
    fresh_label,
)
from ..ir.visitors import iter_loops, replace_node, walk_with_context
from .base import (
    POOL_POLYHEDRAL,
    Transform,
    TransformError,
    TransformFailure,
    TransformResult,
)
from .footprint import VarRange, split_base_span
from .gm_map import derived_names
from .util import KernelStructure, make_phase, require

__all__ = ["PeelTriangular", "PaddingTriangular", "BindingTriangular", "blank_zero_flag"]


def blank_zero_flag(array: str) -> str:
    """Name of the runtime flag set by ``check_blank_zero(X)``."""
    return f"blank_zero_{array}"


def _relabel_all(node: Node) -> Node:
    """Fresh labels for a cloned subtree (labels must stay unique)."""
    clone = node.clone()
    for loop in iter_loops([clone]):
        loop.label = fresh_label(loop.label.split("_")[0] if "_" in loop.label else loop.label)
    return clone


def _thread_vars(stage_meta: Dict) -> set:
    out = set()
    out |= set(stage_meta.get("i_vars", ("tx", "a")))
    out |= set(stage_meta.get("j_vars", ("ty", "b")))
    return out


def _thread_ranges(comp: Computation) -> Dict[str, VarRange]:
    """Ranges of the thread-decomposition variables (from the tunables)."""
    p = comp.params
    bm, bn = p.get("BM", 64), p.get("BN", 16)
    tx_n, ty_n = p.get("TX", 16), p.get("TY", 4)
    mt, nt = max(1, bm // tx_n), max(1, bn // ty_n)
    zero = aff(0)
    # The per-thread loops a/b step by 1; their TX/TY scaling lives in the
    # index expression's coefficient, which split_base_span multiplies in.
    return {
        "tx": VarRange(zero, tx_n, 1),
        "ty": VarRange(zero, ty_n, 1),
        "a": VarRange(zero, mt, 1),
        "b": VarRange(zero, nt, 1),
    }


def _bound_thread_dependent(bound, tvars: set) -> bool:
    return bool(set(bound.free_vars()) & tvars)


@dataclass
class Trapezoid:
    """A detected triangular reduction bound."""

    kloop: Loop
    kk_loop: Optional[Loop]  # enclosing tile loop, None before tiling
    side: str  # "upper": k < P;  "lower": k >= P
    operand: AffineExpr  # the thread-dependent bound expression P
    p_min: AffineExpr  # min of P over the block's threads
    p_max: AffineExpr  # max of P over the block's threads


def _align_down(expr: AffineExpr, kt: int) -> AffineExpr:
    return expr - (expr.offset % kt)


def _align_up(expr: AffineExpr, kt: int) -> AffineExpr:
    return expr + ((-expr.offset) % kt)


def _find_trapezoid(comp: Computation) -> Trapezoid:
    """Locate the triangular reduction loop (either bound side).

    Raises :class:`TransformFailure` when no trapezoid is detectable —
    in particular before thread grouping has exposed block bases.
    """
    stage = comp.main_stage
    require(
        stage.meta.get("grouped", False),
        "cannot detect a trapezoid area (thread grouping has not exposed block bases yet)",
    )
    tvars = _thread_vars(stage.meta)
    ranges = _thread_ranges(comp)
    base_candidates = {stage.meta.get("i_base"), stage.meta.get("j_base")}

    ks = KernelStructure(stage)
    seq_vars = {lp.var for lp in ks.sequential_block_loops()}

    for phase in ks.compute_phases():
        for node, _loops in walk_with_context([phase]):
            if not isinstance(node, Loop) or node.mapped_to is not None:
                continue
            for side, bound in (("upper", node.upper), ("lower", node.lower)):
                wrapper = MinExpr if side == "upper" else MaxExpr
                operands = list(bound.operands) if isinstance(bound, wrapper) else (
                    [bound] if isinstance(bound, AffineExpr) else []
                )
                for op in operands:
                    if not isinstance(op, AffineExpr):
                        continue
                    if not _bound_thread_dependent(op, tvars):
                        continue
                    block_vars = [
                        v
                        for v in op.free_vars()
                        if v in base_candidates or (v in seq_vars and v != "kk")
                    ]
                    if len(block_vars) != 1 or abs(op.coeff(block_vars[0])) != 1:
                        continue
                    p_min, span = split_base_span(op, ranges)
                    # The enclosing tile loop, if any, contributes via the
                    # loop's other bound referencing `kk`.
                    other = node.lower if side == "upper" else node.upper
                    kk_loop = None
                    for lp in ks.sequential_block_loops():
                        if lp.var in other.free_vars() and lp.var not in base_candidates:
                            kk_loop = lp
                    return Trapezoid(node, kk_loop, side, op, p_min, p_min + span)
    raise TransformFailure("cannot detect a trapezoid area (no triangular bound)")


def _strip_operand(loop: Loop, side: str, operand: AffineExpr) -> None:
    """Remove the triangular operand from a min/max bound (or replace a bare
    triangular bound with nothing — caller sets the new bound)."""
    bound = loop.upper if side == "upper" else loop.lower
    wrapper = MinExpr if side == "upper" else MaxExpr
    if isinstance(bound, wrapper):
        rest = [op for op in bound.operands if op != operand]
        new_bound = rest[0] if len(rest) == 1 else wrapper(rest)
    else:
        raise TransformError("expected a min/max triangular bound")
    if side == "upper":
        loop.upper = new_bound
    else:
        loop.lower = new_bound


class PeelTriangular(Transform):
    name = "peel_triangular"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 1:
            raise TransformError(f"peel_triangular expects (array,), got {args}")
        comp = comp.clone()
        trap = _find_trapezoid(comp)
        kt = comp.params.get("KT", 16)
        # Split at a KT-aligned point: before tiling, a later loop_tiling
        # then gets full tiles on the rectangular part (block bases are
        # KT-aligned by construction).
        split = (
            _align_down(trap.p_min, kt)
            if trap.side == "upper"
            else _align_up(trap.p_max, kt)
        )

        if trap.kk_loop is not None:
            rect = trap.kk_loop  # keep labels on the rectangular copy
            tri = _relabel_all(trap.kk_loop)
            if trap.side == "upper":
                rect.upper = split
                tri.lower = split
            else:
                rect.lower = split
                tri.upper = split
            for lp in iter_loops([rect]):
                bound = lp.upper if trap.side == "upper" else lp.lower
                wrapper = MinExpr if trap.side == "upper" else MaxExpr
                if isinstance(bound, wrapper) and trap.operand in bound.operands:
                    _strip_operand(lp, trap.side, trap.operand)
            # Rect always first: for solver flows the rectangular update
            # reads rows finalised in *earlier* row-block iterations, and
            # for accumulations the order is immaterial.
            pieces = [rect, Barrier("peel: rect/tri split"), tri]
        else:
            # Pre-tiling: split the per-thread reduction loop itself.
            rect = trap.kloop
            tri = _relabel_all(trap.kloop)
            if trap.side == "upper":
                require(
                    isinstance(rect.lower, AffineExpr),
                    "peel_triangular expects an affine lower bound",
                )
                rect.upper = split
                tri.lower = split
                pieces = [rect, tri]
            else:
                require(
                    isinstance(rect.upper, AffineExpr),
                    "peel_triangular expects an affine upper bound",
                )
                rect.lower = split
                tri.upper = split
                pieces = [tri, rect]
        if not replace_node(comp.main_stage.body, rect, pieces):
            raise TransformError("target node vanished from stage")

        comp.main_stage.meta["peel"] = {"side": trap.side, "split": split}
        return TransformResult(
            comp,
            notes=[f"peeled ({trap.side}-bound trapezoid) at {split}"],
        )


class PaddingTriangular(Transform):
    name = "padding_triangular"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 1:
            raise TransformError(f"padding_triangular expects (array,), got {args}")
        target = args[0]
        comp = comp.clone()
        names = set(derived_names(comp, target))
        trap = _find_trapezoid(comp)

        # Padding multiplies blank elements in: every statement under the
        # padded loop must be an accumulation that multiplies the padded
        # matrix, so zero blanks contribute nothing.
        for node, _loops in walk_with_context([trap.kloop]):
            if isinstance(node, Assign):
                require(
                    node.op in ("+=", "-="),
                    "padding requires pure accumulation statements",
                )
                require(
                    any(r.array in names for r in node.expr.array_refs()),
                    f"padded statements must read {target}",
                )

        padded = trap.kloop
        bound = padded.upper if trap.side == "upper" else padded.lower
        wrapper = MinExpr if trap.side == "upper" else MaxExpr
        if isinstance(bound, wrapper):
            _strip_operand(padded, trap.side, trap.operand)
        else:
            # Pre-tiling: extend to the block-uniform extreme.
            if trap.side == "upper":
                padded.upper = trap.p_max
            else:
                padded.lower = trap.p_min

        # The padded variant is only valid when the blank area holds zeros.
        # Per §IV-A.3 the framework emits multi-versioned code — in our
        # pipeline that versioning lives at the *variant* level: the flag
        # below marks this variant as conditional, and the OA library pairs
        # it with an unconditioned fallback behind a runtime
        # ``check_blank_zero(X)`` dispatch.
        comp.flags[blank_zero_flag(target)] = True
        return TransformResult(
            comp,
            notes=[
                f"padded triangular ({trap.side}) bound; variant requires "
                f"{blank_zero_flag(target)}"
            ],
        )


class BindingTriangular(Transform):
    name = "binding_triangular"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"binding_triangular expects (array, thread), got {args}")
        target, thread_str = args
        try:
            bound_thread = int(thread_str)
        except (TypeError, ValueError):
            raise TransformError(f"thread id must be an integer, got {thread_str!r}")
        comp = comp.clone()
        stage = comp.main_stage
        require(stage.meta.get("grouped", False), "binding requires thread grouping")
        i_parallel = stage.meta.get("i_parallel", True)
        j_parallel = stage.meta.get("j_parallel", True)
        require(
            not (i_parallel and j_parallel),
            "binding_triangular applies to the solver workload distribution",
        )
        orig_body = stage.meta.get("orig_body")
        require(orig_body is not None, "original loop body unavailable")

        tvars = _thread_vars(stage.meta)
        ks = KernelStructure(stage)
        ibase = stage.meta["i_base"]
        jbase = stage.meta["j_base"]
        p = comp.params
        bm, bn = p.get("BM", 64), p.get("BN", 16)
        tx_n, ty_n = p.get("TX", 16), p.get("TY", 4)

        # The sequential block loop (row or column blocks) hosts the solve.
        seq_base = ibase if not i_parallel else jbase
        row_loop = None
        for lp in ks.sequential_block_loops():
            if lp.var == seq_base:
                row_loop = lp
        require(row_loop is not None, f"block-sequential loop {seq_base!r} not found")

        # Find the first item containing a thread-dependent (triangular)
        # bound; everything from there on is the dependent triangular tail.
        def is_triangular(item: Node) -> bool:
            if not isinstance(item, Loop):
                return False
            for lp in iter_loops([item]):
                if _bound_thread_dependent(lp.upper, tvars) or _bound_thread_dependent(
                    lp.lower, tvars
                ):
                    return True
            return False

        first_tri = None
        for idx, item in enumerate(row_loop.body):
            if is_triangular(item):
                first_tri = idx
                break
        require(first_tri is not None, "no triangular region to bind")

        kept = row_loop.body[:first_tri]
        has_rect = any(
            isinstance(item, Loop) and item.mapped_to is None for item in kept
        )
        peel_meta = stage.meta.get("peel")

        # Rebuild the solve from the original statement order, restricted to
        # the current row block (and, when a peeled rectangular part remains,
        # with the reduction clamped at the peel split).
        si, sj = var("si"), var("sj")
        orig_i = stage.meta["orig_i"]
        orig_j = stage.meta["orig_j"]
        serial: List[Node] = [
            _relabel_all(node) for node in orig_body
        ]
        serial = [node.substitute({orig_i: si, orig_j: sj}) for node in serial]
        if has_rect and peel_meta is not None:
            split = peel_meta["split"]
            for lp in iter_loops(serial):
                if peel_meta["side"] == "upper" and _bound_thread_dependent(
                    lp.upper, {"si", "sj"}
                ):
                    lp.lower = split
                elif peel_meta["side"] == "lower" and _bound_thread_dependent(
                    lp.lower, {"si", "sj"}
                ):
                    lp.upper = split

        sj_loop = Loop("sj", aff(jbase), var(jbase) + bn, serial, label=fresh_label("Lsj"))
        si_loop = Loop("si", aff(ibase), var(ibase) + bm, [sj_loop], label=fresh_label("Lsi"))
        cond = And([Cmp(var("tx"), "==", bound_thread), Cmp(var("ty"), "==", 0)])
        guard = Guard(cond, [si_loop], note=f"bound to thread ({bound_thread},0)")
        phase = make_phase([guard], tx_n, ty_n, kind="compute")

        row_loop.body[:] = kept + [Barrier("rect update done"), phase]
        return TransformResult(
            comp,
            notes=[
                f"triangular solve bound to thread ({bound_thread},0); "
                + ("rect part kept parallel" if has_rect else "fully serialised")
            ],
        )
