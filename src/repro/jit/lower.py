"""Lowering of the loop-nest IR to flat Python/NumPy source.

The tree-walking interpreter in :mod:`repro.ir.interpret` pays the full
visitor cost — ``isinstance`` dispatch, ``dict`` environments, affine
``evaluate`` calls — *per element* of the iteration space, which makes
every hot path in the system (legality probes, functional verification,
``TunedRoutine.run``, the serving runtime) scale as interpreted Python.
This module lowers a :class:`~repro.ir.ast.Computation` **once** into
ordinary Python source:

* loops become native ``for`` statements with their affine bounds inlined
  as integer arithmetic over local variables;
* array subscripts become direct NumPy indexing expressions;
* guards become ``if``/``else`` with the predicate inlined;
* innermost loops are **vectorized into NumPy slice operations** when
  :func:`repro.ir.dependence.carries_dependence` proves the loop carries
  no dependence (the same PolyDeps-style oracle the composer's filter
  trusts) — elementwise slice arithmetic in NumPy is bit-identical to the
  scalar loop because the per-element float operations are the same IEEE
  operations in the same order.

The lowered source is ``exec``'d into a callable of signature
``fn(buffers, sizes, scalars, flags)`` that mutates ``buffers`` in place,
exactly like the interpreter's ``_execute``.  Node shapes outside the
compilable subset raise :class:`UnsupportedIR`; the registry
(:mod:`repro.jit.registry`) turns that into a transparent fallback to
:func:`repro.ir.interpret.interpret`.

``thread_order="desc"`` is compiled as a *separate* kernel that walks
thread-mapped loops in reverse (``reversed(range(...))``), so the
composer's data-race probe keeps its meaning: racy loops carry
dependences, are never vectorized, and faithfully execute in the
requested order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..ir.affine import AffineExpr, MaxExpr, MinExpr
from ..ir.ast import (
    THREAD_DIMS,
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
from ..ir.dependence import carries_dependence
from ..ir.fingerprint import UnsupportedIR, computation_fingerprint

__all__ = [
    "UnsupportedIR",
    "LoweredKernel",
    "computation_fingerprint",
    "lower_computation",
]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


@dataclass
class LoweredKernel:
    """One compiled kernel: its source, key and the executable callable."""

    source: str
    fingerprint: str
    thread_order: str
    vectorized_loops: int
    fn: Callable


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


class _Lowerer:
    def __init__(self, thread_order: str):
        if thread_order not in ("asc", "desc"):
            raise ValueError(f"unknown thread_order {thread_order!r}")
        self.thread_order = thread_order
        self.lines: List[str] = []
        self._tmp = itertools.count()
        self._env: Dict[str, str] = {}  # env var name -> python local
        self._arrays: Dict[str, str] = {}
        self._scalars: Dict[str, str] = {}
        self._free: Set[str] = set()  # env vars read before any loop binds them
        self.vectorized_loops = 0

    # -- small emission helpers ---------------------------------------
    def tmp(self, prefix: str = "t") -> str:
        return f"_{prefix}{next(self._tmp)}"

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def env_name(self, name: str, bound: Set[str]) -> str:
        if name not in self._env:
            self._env[name] = f"v{len(self._env)}_{_sanitize(name)}"
        if name not in bound:
            self._free.add(name)
        return self._env[name]

    def array_name(self, name: str) -> str:
        if name not in self._arrays:
            self._arrays[name] = f"b{len(self._arrays)}_{_sanitize(name)}"
        return self._arrays[name]

    def scalar_name(self, name: str) -> str:
        if name not in self._scalars:
            self._scalars[name] = f"s{len(self._scalars)}_{_sanitize(name)}"
        return self._scalars[name]

    # -- expression code -----------------------------------------------
    def aff_code(self, expr: AffineExpr, bound: Set[str]) -> str:
        if not isinstance(expr, AffineExpr):
            raise UnsupportedIR(f"expected affine expression, got {expr!r}")
        parts: List[str] = []
        for name in sorted(expr.terms):
            coeff = expr.terms[name]
            var = self.env_name(name, bound)
            parts.append(var if coeff == 1 else f"{coeff}*{var}")
        if expr.offset or not parts:
            parts.append(str(expr.offset))
        return "(" + " + ".join(parts) + ")"

    def bound_code(self, bound_expr, bound: Set[str]) -> str:
        if isinstance(bound_expr, AffineExpr):
            return self.aff_code(bound_expr, bound)
        if isinstance(bound_expr, (MinExpr, MaxExpr)):
            pick = "min" if isinstance(bound_expr, MinExpr) else "max"
            ops = ", ".join(self.aff_code(o, bound) for o in bound_expr.operands)
            return f"{pick}({ops})"
        raise UnsupportedIR(f"cannot lower bound {bound_expr!r}")

    def pred_code(self, pred: Predicate, bound: Set[str]) -> str:
        if isinstance(pred, Cmp):
            return (
                f"({self.bound_code(pred.lhs, bound)} {pred.op} "
                f"{self.bound_code(pred.rhs, bound)})"
            )
        if isinstance(pred, And):
            return "(" + " and ".join(self.pred_code(p, bound) for p in pred.operands) + ")"
        if isinstance(pred, Flag):
            return f"_flags.get({pred.name!r}, False)"
        raise UnsupportedIR(f"cannot lower predicate {pred!r}")

    def ref_code(
        self,
        ref: ArrayRef,
        bound: Set[str],
        vec: Optional["_VecCtx"] = None,
        depth: int = 0,
    ) -> str:
        codes: List[str] = []
        for index in ref.indices:
            if vec is not None and index.depends_on(vec.var):
                codes.append(vec.slice_code(self, index, bound, depth))
            else:
                codes.append(self.aff_code(index, bound))
        return f"{self.array_name(ref.array)}[{', '.join(codes)}]"

    def expr_code(
        self,
        expr: Expr,
        bound: Set[str],
        vec: Optional["_VecCtx"] = None,
        depth: int = 0,
    ) -> str:
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, ScalarRef):
            return self.scalar_name(expr.name)
        if isinstance(expr, ArrayRef):
            return self.ref_code(expr, bound, vec, depth)
        if isinstance(expr, BinOp):
            # Mirror of the interpreter's operator check: an op outside
            # the BinOp algebra is a ValueError, never silent division.
            if expr.op not in BinOp.OPS:
                raise ValueError(f"unknown binary operator {expr.op!r}")
            left = self.expr_code(expr.left, bound, vec, depth)
            right = self.expr_code(expr.right, bound, vec, depth)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, Neg):
            return f"(-{self.expr_code(expr.operand, bound, vec, depth)})"
        if isinstance(expr, Recip):
            return f"(1.0 / {self.expr_code(expr.operand, bound, vec, depth)})"
        raise UnsupportedIR(f"cannot lower expression {expr!r}")

    # -- statements -----------------------------------------------------
    def emit_assign(
        self,
        node: Assign,
        bound: Set[str],
        depth: int,
        vec: Optional["_VecCtx"] = None,
    ) -> None:
        if node.op not in Assign.OPS:
            raise ValueError(f"unknown assignment operator {node.op!r}")
        value = self.expr_code(node.expr, bound, vec, depth)
        target = self.ref_code(node.target, bound, vec, depth)
        self.line(depth, f"{target} {node.op} {value}")

    def emit_body(self, body: Sequence[Node], bound: Set[str], depth: int) -> None:
        emitted = False
        for node in body:
            if isinstance(node, Assign):
                self.emit_assign(node, bound, depth)
            elif isinstance(node, Loop):
                self.emit_loop(node, bound, depth)
            elif isinstance(node, Guard):
                self.emit_guard(node, bound, depth)
            elif isinstance(node, Barrier):
                continue  # no-op in sequential semantics, same as interpret
            else:
                raise UnsupportedIR(f"cannot lower node {node!r}")
            emitted = True
        if not emitted:
            self.line(depth, "pass")

    def emit_guard(self, node: Guard, bound: Set[str], depth: int) -> None:
        self.line(depth, f"if {self.pred_code(node.cond, bound)}:")
        self.emit_body(node.body, bound, depth + 1)
        if node.else_body:
            self.line(depth, "else:")
            self.emit_body(node.else_body, bound, depth + 1)

    def emit_loop(self, node: Loop, bound: Set[str], depth: int) -> None:
        lo = self.tmp("lo")
        hi = self.tmp("hi")
        self.line(depth, f"{lo} = {self.bound_code(node.lower, bound)}")
        self.line(depth, f"{hi} = {self.bound_code(node.upper, bound)}")
        if self._try_vectorize(node, lo, hi, bound, depth):
            self.vectorized_loops += 1
            return
        var = self.env_name(node.var, bound | {node.var})
        rng = f"range({lo}, {hi}, {node.step})"
        if self.thread_order == "desc" and node.mapped_to in THREAD_DIMS:
            rng = f"reversed({rng})"
        self.line(depth, f"for {var} in {rng}:")
        was_bound = node.var in bound
        bound.add(node.var)
        self.emit_body(node.body, bound, depth + 1)
        if not was_bound:
            bound.discard(node.var)

    # -- vectorization ---------------------------------------------------
    def _try_vectorize(
        self, node: Loop, lo: str, hi: str, bound: Set[str], depth: int
    ) -> bool:
        """Turn the loop over ``node.var`` into NumPy slice assignments.

        Two shapes compile:

        * a flat body of ``Assign`` statements — the classic innermost
          vectorization; and
        * a body that is a single nested ``Loop`` whose own body is flat
          ``Assign`` statements (the register-tile-over-reduction shape
          ``for b: for k: C[b] += ...``) — lowered by *interchange*: the
          inner loop is emitted scalar and the outer one becomes the
          slice axis.  Each element's accumulation order over the inner
          variable is untouched, so results stay bit-identical.

        Legality for both: every statement's target strides along
        ``node.var`` (a var-invariant target is a reduction whose
        sequential order must be preserved), every reference maps to a
        slice, and :func:`carries_dependence` proves the loop carries no
        dependence — which also makes the interchange order-preserving
        per element.
        """
        stmts: List[Assign] = []
        inner: Optional[Loop] = None
        for child in node.body:
            if isinstance(child, Barrier):
                continue
            if isinstance(child, Assign):
                stmts.append(child)
            elif isinstance(child, Loop) and inner is None and not stmts:
                inner = child
            else:
                return False
        if inner is not None:
            if stmts:
                return False  # mixed loop + statements: keep scalar
            for child in inner.body:
                if isinstance(child, Barrier):
                    continue
                if not isinstance(child, Assign):
                    return False
                stmts.append(child)
            # Interchange needs the inner bounds to be node.var-invariant.
            for b in (inner.lower, inner.upper):
                try:
                    if node.var in b.free_vars():
                        return False
                except AttributeError:
                    return False
        if not stmts:
            return False
        for stmt in stmts:
            if not self._sliceable(stmt.target, node.var, require_dep=True):
                return False
            for ref in stmt.expr.array_refs():
                if not self._sliceable(ref, node.var, require_dep=False):
                    return False
        try:
            # Legality: the loop must carry no dependence (PolyDeps role).
            if carries_dependence([node], 0):
                return False
        except Exception:
            return False  # undecidable shapes stay on the scalar loop

        n = self.tmp("n")
        self.line(depth, f"{n} = max(0, -(-({hi} - {lo}) // {node.step}))")
        vec = _VecCtx(node.var, lo, n, node.step)
        was_bound = node.var in bound
        bound.add(node.var)
        body_depth = depth
        inner_was_bound = False
        if inner is not None:
            ilo = self.tmp("lo")
            ihi = self.tmp("hi")
            self.line(depth, f"{ilo} = {self.bound_code(inner.lower, bound)}")
            self.line(depth, f"{ihi} = {self.bound_code(inner.upper, bound)}")
            ivar = self.env_name(inner.var, bound | {inner.var})
            rng = f"range({ilo}, {ihi}, {inner.step})"
            if self.thread_order == "desc" and inner.mapped_to in THREAD_DIMS:
                rng = f"reversed({rng})"
            self.line(depth, f"for {ivar} in {rng}:")
            inner_was_bound = inner.var in bound
            bound.add(inner.var)
            body_depth = depth + 1
        for stmt in stmts:
            self.emit_assign(stmt, bound, body_depth, vec)
        if inner is not None and not inner_was_bound:
            bound.discard(inner.var)
        if not was_bound:
            bound.discard(node.var)
        return True

    @staticmethod
    def _sliceable(ref: ArrayRef, var: str, require_dep: bool) -> bool:
        dep_dims = 0
        for index in ref.indices:
            if not isinstance(index, AffineExpr):
                return False
            coeff = index.coeff(var)
            if coeff < 0:
                return False  # negative stride slices flip index meaning
            if coeff > 0:
                dep_dims += 1
        if dep_dims > 1:
            return False  # e.g. A[v][v]: a diagonal, not a slice
        if require_dep and dep_dims == 0:
            return False
        return True


class _VecCtx:
    """Per-vectorized-loop context mapping v-dependent indices to slices."""

    __slots__ = ("var", "lo", "n", "step")

    def __init__(self, var: str, lo: str, n: str, step: int):
        self.var = var
        self.lo = lo
        self.n = n
        self.step = step

    def slice_code(
        self, lowerer: _Lowerer, index: AffineExpr, bound: Set[str], depth: int
    ) -> str:
        coeff = index.coeff(self.var)
        rest = index.substitute({self.var: 0})
        start = lowerer.tmp("st")
        lowerer.line(
            depth,
            f"{start} = {lowerer.aff_code(rest, bound - {self.var})} + {coeff}*{self.lo}",
        )
        stride = coeff * self.step
        # Exactly n elements: start, start+stride, ...; an empty loop
        # (n == 0) degenerates to the always-empty slice [start:start].
        return f"{start}:{start} + {stride}*{self.n}:{stride}"


def lower_computation(comp: Computation, thread_order: str = "asc") -> LoweredKernel:
    """Lower every stage of ``comp`` into one compiled callable.

    Raises :class:`UnsupportedIR` (or ``ValueError`` for malformed
    operators) when the computation contains shapes outside the
    compilable subset; callers fall back to the interpreter.
    """
    lowerer = _Lowerer(thread_order)
    for stage in comp.stages:
        lowerer.emit_body(stage.body, set(), 1)

    prologue: List[str] = []
    for name, local in lowerer._arrays.items():
        prologue.append(f"    {local} = _buffers[{name!r}]")
    for name, local in lowerer._scalars.items():
        prologue.append(f"    {local} = _scalars[{name!r}]")
    for name in sorted(lowerer._free):
        prologue.append(f"    {lowerer._env[name]} = _sizes[{name!r}]")

    body = prologue + lowerer.lines
    if not body:
        body = ["    pass"]
    source = "def _kernel(_buffers, _sizes, _scalars, _flags):\n" + "\n".join(body)

    namespace: Dict[str, object] = {}
    code = compile(source, f"<jit:{comp.name}:{thread_order}>", "exec")
    exec(code, namespace)
    return LoweredKernel(
        source=source,
        fingerprint=computation_fingerprint(comp),
        thread_order=thread_order,
        vectorized_loops=lowerer.vectorized_loops,
        fn=namespace["_kernel"],
    )
