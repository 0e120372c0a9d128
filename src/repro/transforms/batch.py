"""``batch_grid`` — distribute a batch loop across the grid's z dimension.

Strided-batched BLAS3 (millions of *small* problems) wants one fused
launch covering the whole batch instead of P serial launches: the batch
loop is embarrassingly parallel, so it maps straight onto ``blockIdx.z``
the way CUBLAS's ``gemmStridedBatched`` kernels do.  With ``BP > 1`` the
batch dimension is additionally strip-mined — each z-block serially
processes ``BP`` consecutive problems, which amortises the block's
shared-memory staging and raises arithmetic intensity for tiny matrices
at the cost of grid-level parallelism.  The tuner treats ``BP`` as just
another tile knob.

The component must run **before** ``thread_grouping`` (it is first in
the batched base scripts): it claims the stage's outermost loop, and
``thread_grouping`` then descends through the batch level to find its
(Li, Lj) pair.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..ir.affine import var
from ..ir.ast import Computation, Loop, fresh_label
from ..ir.dependence import carrying_loops
from .base import LOC_ANY, POOL_POLYHEDRAL, Transform, TransformError, TransformResult
from .util import require

__all__ = ["BatchGrid"]


class BatchGrid(Transform):
    name = "batch_grid"
    pool = POOL_POLYHEDRAL
    location = LOC_ANY
    returns = 0

    def apply(
        self, comp: Computation, args: Sequence[str], params: Dict[str, int]
    ) -> TransformResult:
        if len(args) != 1:
            raise TransformError(f"batch_grid expects one loop label, got {args}")
        label_p = args[0]
        comp = comp.clone()
        comp.params.update(params)
        stage = comp.main_stage

        require(
            len(stage.body) == 1
            and isinstance(stage.body[0], Loop)
            and stage.body[0].label == label_p,
            f"{label_p!r} must be the stage's outermost (and only) loop",
        )
        loop_p = stage.body[0]
        require(
            loop_p.lower.is_constant and loop_p.lower.constant_value == 0,
            "batch loop must start at 0",
        )
        require(
            not carrying_loops(loop_p, among=(loop_p,)),
            "batch loop must be parallel (independent problems)",
        )

        bp = int(comp.params.get("BP", 1))
        if bp <= 1:
            mapped = Loop(
                loop_p.var,
                loop_p.lower,
                loop_p.upper,
                loop_p.body,
                label=loop_p.label,
                step=loop_p.step,
                mapped_to="block.z",
            )
            stage.body[:] = [mapped]
            batch_labels = (mapped.label,)
            notes = ["batch distribution: one problem per z-block"]
        else:
            # Strip-mine: each z-block serially covers BP problems.  No
            # bounds guard is generated, so P must divide by BP — the
            # oracle/tuner guarantee it (same "fulltile" regime as the
            # paper's tile sizes).
            inner_label = fresh_label("Lpp")
            p_expr = var("pb") + var("pp")
            inner_body = [node.substitute({loop_p.var: p_expr}) for node in loop_p.body]
            inner = Loop("pp", 0, bp, inner_body, label=inner_label)
            outer = Loop(
                "pb",
                0,
                loop_p.upper,
                [inner],
                label=fresh_label("Lpb"),
                step=bp,
                mapped_to="block.z",
            )
            stage.body[:] = [outer]
            batch_labels = (outer.label, inner_label)
            notes = [f"batch distribution: {bp} problems per z-block (BP={bp})"]
        stage.meta["batch_labels"] = batch_labels
        return TransformResult(comp, labels=(), notes=notes)
