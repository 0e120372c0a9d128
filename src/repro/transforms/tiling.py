"""``loop_tiling`` — reduction tiling for shared-memory locality (§III-B).

Applied after ``thread_grouping``, the component strip-mines the reduction
loop (the third label) by the tunable tile ``KT`` and hoists the tile loop
to **block level**, so that shared-memory staging (``SM_alloc``) can insert
per-tile copy phases between barriers.  The per-thread loops named by the
first two labels stay where they are; the three labels returned —
``(Liii, Ljjj, Lkkk)`` in the paper's scripts — name the intra-tile loops
that ``loop_unroll`` targets.

When the reduction loop has siblings inside the per-thread nest (e.g. the
fissioned real/shadow/diagonal parts of SYMM, or a peeled triangular part),
the phase is first distributed (loop fission at the thread-nest level) so
the tile loop encloses only the reduction it names.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..ir.affine import AffineExpr, MaxExpr, MinExpr, aff, bound_min
from ..ir.ast import Barrier, Loop, Node, fresh_label
from ..ir.visitors import find_loop, iter_loops, locate, replace_node
from .base import (
    POOL_POLYHEDRAL,
    Transform,
    TransformError,
    TransformFailure,
    TransformResult,
)
from .footprint import collect_var_ranges, const_difference, max_over, min_over
from .util import KernelStructure, require

__all__ = ["LoopTiling"]


def _rebuild_chain(chain: Sequence[Loop], inner_body: List[Node], relabel: bool) -> Node:
    """Rebuild a loop chain around ``inner_body`` (labels fresh if asked)."""
    node: List[Node] = inner_body
    for loop in reversed(chain):
        node = [
            Loop(
                loop.var,
                loop.lower,
                loop.upper,
                node,
                label=fresh_label(loop.label) if relabel else loop.label,
                step=loop.step,
                mapped_to=loop.mapped_to,
                unroll=loop.unroll,
            )
        ]
    return node[0]


class LoopTiling(Transform):
    name = "loop_tiling"
    pool = POOL_POLYHEDRAL
    returns = 3

    def apply(self, comp, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 3:
            raise TransformError(f"loop_tiling expects three loop labels, got {args}")
        l1, l2, l3 = args
        comp = comp.clone()
        comp.params.update(params)
        comp.params.setdefault("KT", 16)
        kt = comp.params["KT"]
        stage = comp.main_stage
        ks = KernelStructure(stage)

        # Locate the phase holding the reduction loop.
        target_phase = None
        kloop = None
        for phase in ks.phases():
            found = find_loop(phase.body, l3)
            if found is not None:
                target_phase = phase
                kloop = found
                break
        require(kloop is not None, f"reduction loop {l3!r} not found in any phase")
        # The named per-thread loops normally live in the same phase; after
        # an earlier fission they may have been relabeled (their clones keep
        # the structure), so their absence is tolerated.
        require(
            isinstance(kloop.lower, AffineExpr) and isinstance(kloop.upper, AffineExpr),
            f"loop {l3!r} already has min/max bounds (tiled twice?)",
        )

        chain, container, idx = locate([target_phase], kloop)
        if container is not chain[-1].body:
            raise TransformFailure(
                f"reduction loop {l3!r} is not directly nested in the per-thread chain"
            )
        pre_nodes, post_nodes = container[:idx], container[idx + 1 :]

        # Fission the phase so the named reduction stands alone.
        items: List[Node] = []
        if pre_nodes:
            items.append(_rebuild_chain(chain, pre_nodes, relabel=True))
            items.append(Barrier("phase fission (pre)"))

        # Strip-mine the reduction loop.
        local = collect_var_ranges(chain)
        lo_block = min_over(kloop.lower, local)
        up_block = max_over(kloop.upper, local)
        # Align the tile loop to KT so peel split points (multiples of the
        # block tile) land on tile boundaries; the inner max() clamps any
        # overshoot below the true lower bound.
        lo_block = lo_block - (lo_block.offset % kt)
        kk_label = fresh_label("Lkk")
        kkk_label = fresh_label("Lkkk")

        if kloop.lower.is_constant and kloop.lower.constant_value == 0:
            inner_lower = aff("kk")
        else:
            inner_lower = MaxExpr([kloop.lower, aff("kk")])

        if (
            not (set(kloop.upper.free_vars()) & set(local))
            and kloop.upper.offset % kt == 0
        ):
            # Upper bound uniform across threads and tile-aligned (block
            # bases are KT-aligned by construction; problem sizes are
            # tile-divisible in the full-tile regime): full tiles.
            inner_upper = aff("kk") + kt
        else:
            inner_upper = bound_min(aff("kk") + kt, kloop.upper)

        inner_k = Loop(
            kloop.var,
            inner_lower,
            inner_upper,
            kloop.body,
            label=kkk_label,
            step=kloop.step,
        )
        container[:] = [inner_k]
        kk_loop = Loop("kk", lo_block, up_block, [target_phase, Barrier("tile flush")],
                       label=kk_label, step=kt)
        items.append(kk_loop)

        if post_nodes:
            items.append(Barrier("phase fission (post)"))
            items.append(_rebuild_chain(chain, post_nodes, relabel=True))

        if not replace_node(ks.items, target_phase, items):
            raise TransformError("phase container not found")

        stage.meta["kk_var"] = "kk"
        stage.meta["kk_label"] = kk_label
        stage.meta["tiled"] = True
        return TransformResult(comp, labels=(l1, l2, kkk_label))


class LoopUnroll(Transform):
    """``loop_unroll`` — annotate loops with full unrolling (§III-B).

    Fails (is omitted by the filter) when a named loop's trip count is not
    a compile-time constant — exactly the paper's "loop_unroll fails due to
    the existence of the non-rectangular areas" degeneration (§IV-B.2).
    """

    name = "loop_unroll"
    pool = POOL_POLYHEDRAL
    returns = 0

    MAX_UNROLL = 64

    def apply(self, comp, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if not args:
            raise TransformError("loop_unroll expects at least one loop label")
        # Plan on the input: every named loop's factor, or the first failure.
        wanted = set(args)
        loops: Dict[str, Loop] = {}
        for loop in iter_loops(comp.main_stage.body):
            if loop.label in wanted and loop.label not in loops:
                loops[loop.label] = loop
                if len(loops) == len(wanted):
                    break
        factors: Dict[str, int] = {}
        for label in args:
            loop = loops.get(label)
            require(loop is not None, f"loop {label!r} not found")
            if isinstance(loop.lower, (MinExpr, MaxExpr)) or isinstance(
                loop.upper, (MinExpr, MaxExpr)
            ):
                raise TransformFailure(
                    f"loop {label!r} is non-rectangular (min/max bounds); unroll fails"
                )
            diff = const_difference(loop.upper, loop.lower)
            require(
                diff is not None,
                f"loop {label!r} has a non-constant trip count; unroll fails",
            )
            trip = max(0, -(-diff // loop.step))
            require(trip > 0, f"loop {label!r} has an empty domain")
            factors[label] = min(trip, self.MAX_UNROLL)
        notes = [f"{label}: unroll x{factors[label]}" for label in args]
        comp = comp.clone()
        for loop in iter_loops(comp.main_stage.body):
            if loop.label in factors:
                loop.unroll = factors.pop(loop.label)
                if not factors:
                    break
        return TransformResult(comp, notes=notes)
