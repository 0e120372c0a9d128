"""Standalone loop transformations: interchange, fission, fusion.

``format_iteration`` composes these internally (§IV-A.2); they are also
exposed as individual pool components so hand-written EPOD scripts and the
ablation benchmarks can invoke them directly.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..ir.affine import AffineExpr
from ..ir.ast import Computation, Loop, fresh_label
from ..ir.dependence import fusion_legal, interchange_legal
from ..ir.visitors import find_loop, find_loop_path, locate, replace_node
from .base import POOL_POLYHEDRAL, Transform, TransformError, TransformResult
from .util import require

__all__ = ["LoopInterchange", "LoopFission", "LoopFusion"]


class LoopInterchange(Transform):
    """Swap two perfectly nested rectangular loops (dependence-checked)."""

    name = "loop_interchange"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"loop_interchange expects two labels, got {args}")
        outer_label, inner_label = args
        comp = comp.clone()
        stage = comp.main_stage
        path = find_loop_path(stage.body, inner_label)
        require(path is not None, f"loop {inner_label!r} not found")
        inner = path[-1]
        outer = next((lp for lp in path if lp.label == outer_label), None)
        require(outer is not None, f"{outer_label!r} does not enclose {inner_label!r}")
        require(
            len(outer.body) == 1 and outer.body[0] is inner,
            "loops must be perfectly nested for interchange",
        )
        for lp in (outer, inner):
            require(
                isinstance(lp.lower, AffineExpr) and isinstance(lp.upper, AffineExpr),
                f"loop {lp.label} has min/max bounds",
            )
        require(
            not inner.lower.depends_on(outer.var)
            and not inner.upper.depends_on(outer.var),
            "inner bounds depend on the outer variable (not rectangular)",
        )
        require(
            interchange_legal(outer, path[:-2]),
            "interchange violates a data dependence",
        )
        outer.var, inner.var = inner.var, outer.var
        outer.lower, inner.lower = inner.lower, outer.lower
        outer.upper, inner.upper = inner.upper, outer.upper
        outer.step, inner.step = inner.step, outer.step
        outer.label, inner.label = inner.label, outer.label
        return TransformResult(comp, notes=[f"interchanged {outer_label} <-> {inner_label}"])


class LoopFission(Transform):
    """Distribute a loop over its statements (one loop per statement)."""

    name = "loop_fission"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 1:
            raise TransformError(f"loop_fission expects one label, got {args}")
        comp = comp.clone()
        stage = comp.main_stage
        loop = find_loop(stage.body, args[0])
        require(loop is not None, f"loop {args[0]!r} not found")
        require(len(loop.body) >= 2, "nothing to distribute")
        pieces = []
        for child_idx, child in enumerate(loop.body):
            label = loop.label if child_idx == 0 else fresh_label(loop.label)
            pieces.append(
                Loop(loop.var, loop.lower, loop.upper, [child], label=label, step=loop.step)
            )
        replace_node(stage.body, loop, pieces)
        return TransformResult(comp, notes=[f"fissioned into {len(pieces)} loops"])


class LoopFusion(Transform):
    """Fuse two adjacent loops with identical domains (dependence-checked)."""

    name = "loop_fusion"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"loop_fusion expects two labels, got {args}")
        comp = comp.clone()
        stage = comp.main_stage
        first = find_loop(stage.body, args[0])
        second = find_loop(stage.body, args[1])
        require(first is not None and second is not None, "loops not found")
        _loops, container, idx = locate(stage.body, first)
        require(
            idx + 1 < len(container) and container[idx + 1] is second,
            "loops must be adjacent siblings",
        )
        require(fusion_legal(first, second), "fusion violates a data dependence")
        rename = {second.var: AffineExpr.variable(first.var)}
        first.body.extend(child.substitute(rename) for child in second.body)
        container.pop(idx + 1)
        return TransformResult(comp, notes=[f"fused {args[1]} into {args[0]}"])
