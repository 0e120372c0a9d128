"""``thread_grouping`` — expose two-level (grid × thread-block) parallelism.

Paper §III-B: "distributing loop iterations across the thread blocks and
threads within a thread block", polyhedral implementation following
Baskaran et al.  Our implementation distinguishes the workload
distributions the paper describes:

* **Both loops parallel** (GEMM, TRMM, post-adaptor SYMM): the classic
  Fig. 4 distribution — a 2-D grid of (BM × BN) tiles, a (TX × TY) thread
  block, each thread computing a (BM/TX × BN/TY) register sub-tile in a
  cyclic layout (``i = bi + tx + a*TX``), which keeps ``threadIdx.x``
  aligned with the column-major stride-1 dimension for coalescing.

* **First loop carries a dependence** (TRSM — Adaptor_Solver; paper Fig. 7):
  only the second loop is distributed across blocks; the first is
  strip-mined into sequential row-blocks at block level ("the adjusted
  workload distribution"), with threads covering the (row-block × column)
  tile.  The triangular intra-block dependence this leaves behind is what
  ``binding_triangular`` later serialises.

Trip counts assume tile-divisible problem sizes (the paper's "fulltile"
regime; sizes 512–4096 with power-of-two tiles).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..ir.affine import var
from ..ir.ast import Computation, Loop, fresh_label
from ..ir.dependence import carrying_loops
from ..ir.visitors import find_loop_path
from .base import LOC_ANY, POOL_POLYHEDRAL, Transform, TransformError, TransformResult
from .util import default_params, make_phase, require

__all__ = ["ThreadGrouping"]


class ThreadGrouping(Transform):
    name = "thread_grouping"
    pool = POOL_POLYHEDRAL
    location = LOC_ANY
    returns = 2

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"thread_grouping expects two loop labels, got {args}")
        label_i, label_j = args
        comp = comp.clone()
        comp.params.update(default_params({**comp.params, **params}))
        p = comp.params
        stage = comp.main_stage

        # A prior batch_grid leaves the (Li, Lj) pair wrapped in batch
        # loops (block.z grid level, optionally a serial BP strip).
        # Descend through them: grouping then happens per batch problem.
        batch_labels = tuple(stage.meta.get("batch_labels", ()))
        host_body = stage.body
        while (
            len(host_body) == 1
            and isinstance(host_body[0], Loop)
            and (
                host_body[0].mapped_to == "block.z"
                or host_body[0].label in batch_labels
            )
        ):
            host_body = host_body[0].body

        path_j = find_loop_path(host_body, label_j)
        require(path_j is not None, f"loop {label_j!r} not found")
        loop_i = path_j[0] if path_j[0].label == label_i else None
        require(
            loop_i is not None and len(path_j) >= 2 and path_j[-1].label == label_j,
            f"{label_i!r} must be the outermost loop enclosing {label_j!r}",
        )
        loop_j = path_j[-1]
        require(
            len(path_j) == 2 and len(loop_i.body) == 1 and loop_i.body[0] is loop_j,
            "thread_grouping expects a perfectly nested (Li, Lj) pair",
        )
        require(
            host_body == [loop_i],
            f"{label_i!r} must be the stage's outer loop (below any batch level)",
        )
        require(
            loop_i.lower.is_constant and loop_i.lower.constant_value == 0,
            "Li must start at 0",
        )
        require(
            loop_j.lower.is_constant and loop_j.lower.constant_value == 0,
            "Lj must start at 0",
        )

        carrying = carrying_loops(stage.body[0], among=(loop_i, loop_j))
        i_parallel = loop_i not in carrying
        j_parallel = loop_j not in carrying
        require(
            i_parallel or j_parallel,
            "thread_grouping needs at least one parallel loop",
        )

        if i_parallel and j_parallel:
            new_body, lii, ljj = self._group_2d(loop_i, loop_j, p)
            notes = ["distribution: 2D grid (Fig. 4 workload distribution)"]
            i_base, j_base = "bi", "bj"
        elif j_parallel:
            new_body, lii, ljj = self._group_solver(loop_i, loop_j, p)
            notes = ["distribution: row-block sequential (Fig. 7 workload distribution)"]
            i_base, j_base = "ibb", "bj"
        else:
            new_body, lii, ljj = self._group_solver_right(loop_i, loop_j, p)
            notes = [
                "distribution: column-block sequential (Fig. 7 workload "
                "distribution, right-side solve)"
            ]
            i_base, j_base = "bi", "jbb"

        host_body[:] = new_body
        stage.meta.update(
            {
                "i_base": i_base,
                "j_base": j_base,
                "i_vars": ("tx", "a"),
                "j_vars": ("ty", "b"),
                "orig_i": loop_i.var,
                "orig_j": loop_j.var,
                "orig_body": [n.clone() for n in loop_j.body],
                "grouped": True,
                "i_parallel": i_parallel,
                "j_parallel": j_parallel,
            }
        )
        return TransformResult(comp, labels=(lii, ljj), notes=notes)

    # -- case 1: both loops parallel ---------------------------------------
    def _group_2d(self, loop_i: Loop, loop_j: Loop, p: Dict[str, int]):
        bm, bn, tx_n, ty_n = p["BM"], p["BN"], p["TX"], p["TY"]
        require(bm % tx_n == 0 and bn % ty_n == 0, "tile sizes must be divisible by thread counts")
        mt, nt = bm // tx_n, bn // ty_n

        i_expr = var("bi") + var("tx") + var("a") * tx_n
        j_expr = var("bj") + var("ty") + var("b") * ty_n
        inner = [node.substitute({loop_i.var: i_expr, loop_j.var: j_expr}) for node in loop_j.body]

        lii = fresh_label("Lii")
        ljj = fresh_label("Ljj")
        loop_b = Loop("b", 0, nt, inner, label=ljj)
        loop_a = Loop("a", 0, mt, [loop_b], label=lii)
        phase = make_phase([loop_a], tx_n, ty_n)
        block_j = Loop(
            "bj", 0, loop_j.upper, [phase], label=fresh_label("Lbj"),
            step=bn, mapped_to="block.y",
        )
        block_i = Loop(
            "bi", 0, loop_i.upper, [block_j], label=fresh_label("Lbi"),
            step=bm, mapped_to="block.x",
        )
        return [block_i], lii, ljj

    # -- case 2: Li carries a dependence (Adaptor_Solver shape) -------------
    def _group_solver(self, loop_i: Loop, loop_j: Loop, p: Dict[str, int]):
        bm, bn, tx_n, ty_n = p["BM"], p["BN"], p["TX"], p["TY"]
        require(bm % tx_n == 0 and bn % ty_n == 0, "tile sizes must be divisible by thread counts")
        mt, nt = bm // tx_n, bn // ty_n

        i_expr = var("ibb") + var("tx") + var("a") * tx_n
        j_expr = var("bj") + var("ty") + var("b") * ty_n
        inner = [node.substitute({loop_i.var: i_expr, loop_j.var: j_expr}) for node in loop_j.body]

        lii = fresh_label("Lii")
        ljj = fresh_label("Ljj")
        loop_b = Loop("b", 0, nt, inner, label=ljj)
        loop_a = Loop("a", 0, mt, [loop_b], label=lii)
        phase = make_phase([loop_a], tx_n, ty_n)
        rowblock = Loop(
            "ibb", 0, loop_i.upper, [phase], label=fresh_label("Libb"), step=bm
        )
        block_j = Loop(
            "bj", 0, loop_j.upper, [rowblock], label=fresh_label("Lbj"),
            step=bn, mapped_to="block.x",
        )
        return [block_j], lii, ljj

    # -- case 3: Lj carries a dependence (right-side solver shape) ----------
    def _group_solver_right(self, loop_i: Loop, loop_j: Loop, p: Dict[str, int]):
        bm, bn, tx_n, ty_n = p["BM"], p["BN"], p["TX"], p["TY"]
        require(bm % tx_n == 0 and bn % ty_n == 0, "tile sizes must be divisible by thread counts")
        mt, nt = bm // tx_n, bn // ty_n

        i_expr = var("bi") + var("tx") + var("a") * tx_n
        j_expr = var("jbb") + var("ty") + var("b") * ty_n
        inner = [node.substitute({loop_i.var: i_expr, loop_j.var: j_expr}) for node in loop_j.body]

        lii = fresh_label("Lii")
        ljj = fresh_label("Ljj")
        loop_b = Loop("b", 0, nt, inner, label=ljj)
        loop_a = Loop("a", 0, mt, [loop_b], label=lii)
        phase = make_phase([loop_a], tx_n, ty_n)
        colblock = Loop(
            "jbb", 0, loop_j.upper, [phase], label=fresh_label("Ljbb"), step=bn
        )
        block_i = Loop(
            "bi", 0, loop_i.upper, [colblock], label=fresh_label("Lbi"),
            step=bm, mapped_to="block.x",
        )
        return [block_i], lii, ljj
