"""Structural validation of computations.

Run after every transformation during development and by the composer's
filter before a candidate script is accepted: catches malformed IR early
(unbound variables, references to undeclared arrays, duplicate labels,
shape-rank mismatches, mapped-loop nesting violations).
"""

from __future__ import annotations

from typing import List, Sequence, Set

from .affine import AffineExpr
from .ast import (
    Assign,
    Barrier,
    Computation,
    GRID_DIMS,
    Guard,
    Loop,
    Node,
    THREAD_DIMS,
)

__all__ = ["ValidationError", "validate"]


class ValidationError(ValueError):
    """Raised when a computation violates a structural invariant."""


def validate(comp: Computation) -> None:
    """Raise :class:`ValidationError` on the first violated invariant."""
    seen_labels: Set[str] = set()
    for stage in comp.stages:
        _check_body(
            comp,
            stage.body,
            bound=set(comp.dim_symbols),
            seen_labels=seen_labels,
            mapped_seen=[],
            stage_name=stage.name,
        )


def _names(expr):
    """The variables an affine expression or a min/max bound reads."""
    return expr.terms if isinstance(expr, AffineExpr) else expr.free_vars()


def _check_body(
    comp: Computation,
    body: Sequence[Node],
    bound: Set[str],
    seen_labels: Set[str],
    mapped_seen: List[str],
    stage_name: str,
) -> None:
    """Check ``body`` under the variables ``bound`` and the grid/thread
    dimensions ``mapped_seen`` of its enclosing loops; each loop adds its
    own to both while its body is checked and removes them after."""
    for node in body:
        if isinstance(node, Loop):
            _check_loop(comp, node, bound, seen_labels, mapped_seen, stage_name)
        elif isinstance(node, Assign):
            _check_stmt(comp, node, bound, stage_name)
        elif isinstance(node, Guard):
            _check_body(comp, node.body, bound, seen_labels, mapped_seen, stage_name)
            _check_body(comp, node.else_body, bound, seen_labels, mapped_seen, stage_name)
        elif isinstance(node, Barrier):
            continue
        else:
            raise ValidationError(f"[{stage_name}] unknown node type {type(node).__name__}")


def _check_loop(
    comp: Computation,
    loop: Loop,
    bound: Set[str],
    seen_labels: Set[str],
    mapped_seen: List[str],
    stage_name: str,
) -> None:
    if loop.label in seen_labels:
        raise ValidationError(f"[{stage_name}] duplicate loop label {loop.label!r}")
    seen_labels.add(loop.label)
    for bnd, which in ((loop.lower, "lower"), (loop.upper, "upper")):
        names = _names(bnd)
        if not bound.issuperset(names):
            raise ValidationError(
                f"[{stage_name}] loop {loop.label}: {which} bound {bnd} uses "
                f"unbound variable(s) {sorted(set(names) - bound)}"
            )
    if loop.var in bound:
        raise ValidationError(
            f"[{stage_name}] loop {loop.label} shadows variable {loop.var!r}"
        )
    if loop.mapped_to:
        if loop.mapped_to in mapped_seen:
            raise ValidationError(
                f"[{stage_name}] dimension {loop.mapped_to} mapped twice"
            )
        # thread loops may appear under grid loops only
        if loop.mapped_to in GRID_DIMS and any(d in THREAD_DIMS for d in mapped_seen):
            raise ValidationError(
                f"[{stage_name}] grid-mapped loop {loop.label} nested inside a "
                "thread-mapped loop"
            )
        mapped_seen.append(loop.mapped_to)
    bound.add(loop.var)
    _check_body(comp, loop.body, bound, seen_labels, mapped_seen, stage_name)
    bound.discard(loop.var)
    if loop.mapped_to:
        mapped_seen.pop()


def _check_stmt(
    comp: Computation, stmt: Assign, bound: Set[str], stage_name: str
) -> None:
    for ref_ in stmt.all_refs():
        if ref_.array not in comp.arrays:
            raise ValidationError(
                f"[{stage_name}] reference to undeclared array {ref_.array!r}"
            )
        array = comp.arrays[ref_.array]
        if len(ref_.indices) != array.rank:
            raise ValidationError(
                f"[{stage_name}] {ref_.array} is rank {array.rank} but "
                f"referenced with {len(ref_.indices)} subscripts"
            )
        for idx in ref_.indices:
            if not bound.issuperset(idx.terms):
                raise ValidationError(
                    f"[{stage_name}] subscript {idx} of {ref_.array} uses "
                    f"unbound variable(s) {sorted(set(idx.terms) - bound)}"
                )
