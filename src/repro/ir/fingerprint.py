"""Label-free structural encoding of loop-nest IR.

Two nests that differ only in their loop labels (which come from a
global counter, so every translation of the same EPOD script gets fresh
ones) encode identically; any change to a loop variable, bound, step,
thread mapping, guard predicate, statement or operator encodes
differently.  The encoding keys both the JIT's compiled-kernel registry
(:func:`computation_fingerprint`) and the dependence oracle's memo
(:func:`repro.ir.dependence.carrying_loops` and the reordering checks).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple

from .affine import AffineExpr, MaxExpr, MinExpr
from .ast import (
    And,
    ArrayRef,
    Assign,
    Barrier,
    BinOp,
    Cmp,
    Computation,
    Const,
    Expr,
    Flag,
    Guard,
    Loop,
    Neg,
    Node,
    Predicate,
    Recip,
    ScalarRef,
)

__all__ = [
    "UnsupportedIR",
    "computation_fingerprint",
    "encode_body",
]


class UnsupportedIR(TypeError):
    """An IR shape outside the encodable (and compilable) subset."""


def _enc_bound(bound) -> Tuple:
    if isinstance(bound, AffineExpr):
        return ("aff", bound.offset, tuple(sorted(bound.terms.items())))
    if isinstance(bound, (MinExpr, MaxExpr)):
        kind = "min" if isinstance(bound, MinExpr) else "max"
        # Operand order does not affect min/max semantics (matches the
        # set-based __eq__ of _MinMaxExpr), so sort for stability.
        return (kind, tuple(sorted(_enc_bound(o) for o in bound.operands)))
    raise UnsupportedIR(f"cannot fingerprint bound {bound!r}")


def _enc_expr(expr: Expr) -> Tuple:
    if isinstance(expr, Const):
        return ("const", expr.value)
    if isinstance(expr, ScalarRef):
        return ("scalar", expr.name)
    if isinstance(expr, ArrayRef):
        return ("ref", expr.array, tuple(_enc_bound(i) for i in expr.indices))
    if isinstance(expr, BinOp):
        return ("bin", expr.op, _enc_expr(expr.left), _enc_expr(expr.right))
    if isinstance(expr, Neg):
        return ("neg", _enc_expr(expr.operand))
    if isinstance(expr, Recip):
        return ("recip", _enc_expr(expr.operand))
    raise UnsupportedIR(f"cannot fingerprint expression {expr!r}")


def _enc_pred(pred: Predicate) -> Tuple:
    if isinstance(pred, Cmp):
        return ("cmp", pred.op, _enc_bound(pred.lhs), _enc_bound(pred.rhs))
    if isinstance(pred, And):
        return ("and", tuple(_enc_pred(p) for p in pred.operands))
    if isinstance(pred, Flag):
        return ("flag", pred.name)
    raise UnsupportedIR(f"cannot fingerprint predicate {pred!r}")


def _enc_node(node: Node) -> Tuple:
    if isinstance(node, Assign):
        return ("assign", node.op, _enc_expr(node.target), _enc_expr(node.expr))
    if isinstance(node, Loop):
        # Labels are deliberately excluded: they come from a global
        # counter, so two translations of the same script would otherwise
        # never share a compiled kernel.
        return (
            "loop",
            node.var,
            _enc_bound(node.lower),
            _enc_bound(node.upper),
            node.step,
            node.mapped_to,
            tuple(_enc_node(child) for child in node.body),
        )
    if isinstance(node, Guard):
        return (
            "guard",
            _enc_pred(node.cond),
            tuple(_enc_node(child) for child in node.body),
            tuple(_enc_node(child) for child in node.else_body),
        )
    if isinstance(node, Barrier):
        return ("barrier",)
    raise UnsupportedIR(f"cannot fingerprint node {node!r}")


def encode_body(body: Sequence[Node]) -> Tuple:
    """Hashable structural encoding of a statement list (labels excluded).

    Raises :class:`UnsupportedIR` for node shapes outside the encoder's
    subset.
    """
    return tuple(_enc_node(node) for node in body)


def computation_fingerprint(comp: Computation) -> str:
    """Structural digest of everything that affects compiled execution.

    Only stage bodies matter: array shapes, dtypes and runtime scalars /
    flags are resolved when the compiled kernel is *called*, not when it
    is built, so structurally identical computations (e.g. two
    translations of the same EPOD script, or ``comp.clone()`` with fresh
    loop labels) share one cache entry.
    """
    payload = tuple(encode_body(stage.body) for stage in comp.stages)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:32]
