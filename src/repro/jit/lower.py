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
* one loop per nest is **vectorized into NumPy slice operations**: its
  whole body is lowered once over slices along the loop variable, with
  nested loops and guards left native.  Legal when the body slices
  along the variable and :func:`repro.ir.dependence.carrying_loops`
  proves the loop carries no dependence for any value of the loops
  around it (the same PolyDeps-style oracle the composer's filter
  trusts); elementwise slice arithmetic in NumPy is bit-identical to
  the scalar loop because the per-element float operations are the
  same IEEE operations in the same order.  In a sequential nest (no
  loop in, around or below it mapped to the grid, e.g. a BLAS3
  reference routine) the deepest legal loop is chosen, so reductions
  stay serial.  A loop in a thread-mapped region slices only a flat
  body of statements or one loop of them (DESIGN.md §9 says why).

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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from ..ir.dependence import carrying_loops
from ..ir.fingerprint import UnsupportedIR, computation_fingerprint
from ..ir.visitors import iter_loops, walk

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
        self._sequential: Dict[int, bool] = {}  # id(loop) -> slice axis?

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

    def emit_body(
        self,
        body: Sequence[Node],
        bound: Set[str],
        depth: int,
        outer: Tuple[Loop, ...] = (),
        vec: Optional["_VecCtx"] = None,
    ) -> None:
        emitted = False
        for node in body:
            if isinstance(node, Assign):
                self.emit_assign(node, bound, depth, vec)
            elif isinstance(node, Loop):
                self.emit_loop(node, bound, depth, outer, vec)
            elif isinstance(node, Guard):
                self.emit_guard(node, bound, depth, outer, vec)
            elif isinstance(node, Barrier):
                continue  # no-op in sequential semantics, same as interpret
            else:
                raise UnsupportedIR(f"cannot lower node {node!r}")
            emitted = True
        if not emitted:
            self.line(depth, "pass")

    def emit_guard(
        self,
        node: Guard,
        bound: Set[str],
        depth: int,
        outer: Tuple[Loop, ...],
        vec: Optional["_VecCtx"],
    ) -> None:
        self.line(depth, f"if {self.pred_code(node.cond, bound)}:")
        self.emit_body(node.body, bound, depth + 1, outer, vec)
        if node.else_body:
            self.line(depth, "else:")
            self.emit_body(node.else_body, bound, depth + 1, outer, vec)

    def emit_loop(
        self,
        node: Loop,
        bound: Set[str],
        depth: int,
        outer: Tuple[Loop, ...],
        vec: Optional["_VecCtx"],
    ) -> None:
        """Emit ``node`` as a native loop, or, when it is the slice axis
        (:meth:`_slice_axis`), as its body once over NumPy slices.
        Inside a slice axis (``vec`` set) every loop is native."""
        lo = self.tmp("lo")
        hi = self.tmp("hi")
        self.line(depth, f"{lo} = {self.bound_code(node.lower, bound)}")
        self.line(depth, f"{hi} = {self.bound_code(node.upper, bound)}")
        was_bound = node.var in bound
        if vec is None and self._slice_axis(node, outer):
            self.vectorized_loops += 1
            n = self.tmp("n")
            self.line(depth, f"{n} = max(0, -(-({hi} - {lo}) // {node.step}))")
            bound.add(node.var)
            self.emit_body(node.body, bound, depth, vec=_VecCtx(node.var, lo, n, node.step))
        else:
            var = self.env_name(node.var, bound | {node.var})
            rng = f"range({lo}, {hi}, {node.step})"
            if self.thread_order == "desc" and node.mapped_to in THREAD_DIMS:
                rng = f"reversed({rng})"
            self.line(depth, f"for {var} in {rng}:")
            bound.add(node.var)
            self.emit_body(node.body, bound, depth + 1, outer + (node,), vec)
        if not was_bound:
            bound.discard(node.var)

    # -- vectorization ---------------------------------------------------
    def _slice_axis(self, node: Loop, outer: Tuple[Loop, ...]) -> bool:
        """Whether ``node`` becomes a slice axis over its whole body.

        Its body must slice along ``node.var`` (:func:`_sliceable_body`)
        and the loop must carry no dependence inside the ``outer`` loops
        (:func:`carrying_loops`).  Lowering the body once over the slice
        runs ``node`` innermost; with no dependence between its
        iterations, each element sees the same float operations in the
        same order as the scalar loop, so results stay bit-identical.

        In a **sequential** nest (no loop in it, around it or below it is
        mapped to the grid) the deepest such loop is chosen: one trace
        decides every loop of the nest when its outermost loop is reached.
        A loop in a thread-mapped region slices only a flat body of
        statements or a single loop of statements (lowered by
        interchange); the ROADMAP's SIMT item owns those regions.
        """
        if node.mapped_to is None and not any(loop.mapped_to for loop in outer):
            if id(node) not in self._sequential:
                self._sequential.update(_plan_sequential(node, outer))
            if id(node) in self._sequential:
                return self._sequential[id(node)]
        return (
            _thread_region_shape(node)
            and _sliceable_body(node)
            and not _carrying(node, outer, [node])
        )


def _plan_sequential(root: Loop, outer: Tuple[Loop, ...]) -> Dict[int, bool]:
    """Slice-axis decisions for every loop of ``root``'s nest, keyed by
    ``id``; empty when a loop in it is mapped (not a sequential nest)."""
    loops = list(iter_loops([root]))
    if any(loop.mapped_to is not None for loop in loops):
        return {}
    candidates = [loop for loop in loops if _sliceable_body(loop)]
    legal: Set[int] = set()
    if candidates:
        carrying = _carrying(root, outer, candidates)
        legal = {id(loop) for loop in candidates if loop not in carrying}
    return {
        id(loop): id(loop) in legal
        and not any(id(inner) in legal for inner in iter_loops(loop.body))
        for loop in loops
    }


def _thread_region_shape(node: Loop) -> bool:
    """Whether ``node``'s body is statements only, or a single loop whose
    body is statements only (barriers aside): the shapes a loop in a
    thread-mapped region may slice."""
    kids = [child for child in node.body if not isinstance(child, Barrier)]
    if len(kids) == 1 and isinstance(kids[0], Loop):
        kids = [child for child in kids[0].body if not isinstance(child, Barrier)]
    return bool(kids) and all(isinstance(child, Assign) for child in kids)


def _carrying(nest: Loop, outer: Tuple[Loop, ...], among: List[Loop]) -> Set[Loop]:
    try:
        return carrying_loops(nest, outer, among)
    except (KeyError, TypeError):  # an unbound name or an untraceable node
        return set(among)  # stays scalar


def _sliceable_body(node: Loop) -> bool:
    """Whether ``node``'s body lowers once over slices along its variable.

    Every statement's target strides along it (a var-invariant target is
    a reduction whose sequential order must be preserved) and every
    reference maps to a slice; no nested loop rebinds it or uses it in a
    bound, and no guard tests it.  At least one statement.
    """
    var = node.var
    statements = 0
    for child in walk(node.body):
        if isinstance(child, Assign):
            if not _sliceable(child.target, var, require_dep=True):
                return False
            if not all(_sliceable(ref, var, require_dep=False) for ref in child.expr.array_refs()):
                return False
            statements += 1
        elif isinstance(child, Loop):
            if child.var == var or var in child.lower.free_vars() | child.upper.free_vars():
                return False
        elif isinstance(child, Guard):
            if var in _pred_vars(child.cond):
                return False
        elif not isinstance(child, Barrier):
            return False
    return statements > 0


def _pred_vars(pred: Predicate) -> Set[str]:
    if isinstance(pred, Cmp):
        return set(pred.lhs.free_vars()) | set(pred.rhs.free_vars())
    if isinstance(pred, And):
        return set().union(*(_pred_vars(p) for p in pred.operands))
    return set()


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
