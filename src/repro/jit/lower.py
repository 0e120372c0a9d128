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
* loops are **vectorized into NumPy slice operations**: a chain of
  loops, each the only child of the one before, becomes slice axes, and
  the innermost one's whole body is lowered once over one slice
  dimension per axis, with nested loops and guards left native.  Legal
  when every axis's body slices along its variable, the references meet
  the axes in order and :func:`repro.ir.dependence.carrying_loops`
  proves no axis carries a dependence for any value of the loops around
  it (the same PolyDeps-style oracle the composer's filter trusts);
  elementwise slice arithmetic in NumPy is bit-identical to the scalar
  loops because the per-element float operations are the same IEEE
  operations in the same order.  Every loop reached outside slice axes
  is tried by the same rule (:meth:`_Lowerer._slice_axes`): a register
  tile's ``a``/``b`` become one multi-axis slice expression, GEMM's
  reference ``i``/``j`` another, and reductions stay native loops;
* inside each native loop, slices and the views that ``+=``/``-=``
  update are **hoisted** above the loop when they do not depend on its
  variable, so a reduction loop runs ``view += rhs`` only.

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
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
from ..ir.visitors import iter_statements, walk

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


#: identifiers in emitted code (locals, builtins, keywords alike)
_NAME = re.compile(r"[A-Za-z_]\w*")


class _Frame:
    """A native ``for`` being emitted: the local its loop binds, where
    its ``for`` line sits, and what is hoisted above it."""

    __slots__ = ("var", "at", "depth", "lo", "hi", "pre", "views", "guards")

    def __init__(self, var: str, at: int, depth: int, lo: str, hi: str):
        self.var = var
        self.at = at  # index of the ``for`` line in the emitted lines
        self.depth = depth
        self.lo = lo
        self.hi = hi
        self.pre: List[str] = []  # loop-invariant definitions
        self.views: Dict[str, str] = {}  # target code -> local view of it
        self.guards = 0  # guards open in the loop's body


class _Axis(NamedTuple):
    """One slice axis: a loop variable, its first value and trip count
    (locals) and its step."""

    var: str
    lo: str
    n: str
    step: int


class _VecCtx:
    """The slice axes of one vectorized nest, outermost first.

    An index that moves with an axis's variable becomes a slice; a
    reference's dimensions then follow the axes in order, and a
    reference without some axis gets a ``None`` (length-1) dimension in
    its place, so it broadcasts against the others.
    """

    __slots__ = ("axes",)

    def __init__(self, axes: Sequence[_Axis]):
        self.axes = list(axes)

    def axis_of(self, index: AffineExpr) -> Optional[int]:
        for at, axis in enumerate(self.axes):
            if index.depends_on(axis.var):
                return at
        return None

    def slices(self, ref: ArrayRef) -> bool:
        return any(self.axis_of(index) is not None for index in ref.indices)


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
        self._frames: List[_Frame] = []  # open native loops, outermost first
        self._level: Dict[str, int] = {}  # temp -> open loops around its definition

    # -- small emission helpers ---------------------------------------
    def tmp(self, prefix: str = "t") -> str:
        return f"_{prefix}{next(self._tmp)}"

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def define(self, depth: int, name: str, code: str, hoist: bool = False) -> None:
        """Emit ``name = code`` here or, with ``hoist``, right inside the
        innermost open native loop whose variable ``code`` reads,
        directly or through a temp defined inside that loop."""
        level = self._where(code) if hoist else len(self._frames)
        if level < len(self._frames):
            self._frames[level].pre.append(f"{name} = {code}")
        else:
            self.line(depth, f"{name} = {code}")
        self._level[name] = level

    def _where(self, code: str) -> int:
        """How many open native loops ``code`` must sit inside: one past
        the innermost whose variable, or a temp defined inside which, it
        reads."""
        level = 0
        for name in _NAME.findall(code):
            if name in self._level:
                level = max(level, self._level[name])
                continue
            for at in range(len(self._frames) - 1, level - 1, -1):
                if self._frames[at].var == name:
                    level = at + 1
                    break
        return level

    def view(self, target: str) -> str:
        """A local standing for the sliced ``target`` of an update: a view
        made above the innermost native loop, when ``target`` does not
        depend on that loop and no guard inside it holds the update;
        otherwise ``target`` itself.  The view is made only when the loop
        runs at least once, so an index valid only inside it never
        raises."""
        if not self._frames:
            return target
        frame = self._frames[-1]
        if frame.guards or self._where(target) == len(self._frames):
            return target
        if target not in frame.views:
            frame.views[target] = self.tmp("v")
        return frame.views[target]

    def _hoist(self, frame: _Frame) -> None:
        """Put ``frame``'s hoisted lines in front of its ``for`` line."""
        indent = "    " * frame.depth
        lines = [indent + code for code in frame.pre]
        if frame.views:
            lines.append(f"{indent}if {frame.lo} < {frame.hi}:")
            lines += [f"{indent}    {name} = {code}" for code, name in frame.views.items()]
        self.lines[frame.at : frame.at] = lines

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
        vec: Optional[_VecCtx] = None,
        depth: int = 0,
    ) -> str:
        codes: List[str] = []
        last = None  # the axis of the last slice placed
        for index in ref.indices:
            axis = None if vec is None else vec.axis_of(index)
            if axis is None:
                codes.append(self.aff_code(index, bound))
                continue
            if last is not None:
                codes += ["None"] * (axis - last - 1)
            codes.append(self.slice_code(vec.axes[axis], index, bound, depth))
            last = axis
        if last is not None:
            codes += ["None"] * (len(vec.axes) - last - 1)
        return f"{self.array_name(ref.array)}[{', '.join(codes)}]"

    def slice_code(self, axis: _Axis, index: AffineExpr, bound: Set[str], depth: int) -> str:
        coeff = index.coeff(axis.var)
        rest = index.substitute({axis.var: 0})
        start = self.tmp("st")
        self.define(
            depth, start, f"{self.aff_code(rest, bound - {axis.var})} + {coeff}*{axis.lo}", hoist=True
        )
        stride = coeff * axis.step
        # Exactly n elements: start, start+stride, ...; an empty loop
        # (n == 0) degenerates to the always-empty slice [start:start].
        piece = self.tmp("sl")
        self.define(depth, piece, f"slice({start}, {start} + {stride}*{axis.n}, {stride})", hoist=True)
        return piece

    def expr_code(
        self,
        expr: Expr,
        bound: Set[str],
        vec: Optional[_VecCtx] = None,
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
        vec: Optional[_VecCtx] = None,
    ) -> None:
        if node.op not in Assign.OPS:
            raise ValueError(f"unknown assignment operator {node.op!r}")
        value = self.expr_code(node.expr, bound, vec, depth)
        target = self.ref_code(node.target, bound, vec, depth)
        if node.op != "=" and vec is not None and vec.slices(node.target):
            # a view aliases the buffer, so ``view += rhs`` is the
            # getitem, in-place add and setitem of ``target += rhs``
            target = self.view(target)
        self.line(depth, f"{target} {node.op} {value}")

    def emit_body(
        self,
        body: Sequence[Node],
        bound: Set[str],
        depth: int,
        outer: Tuple[Loop, ...] = (),
        vec: Optional[_VecCtx] = None,
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
        vec: Optional[_VecCtx],
    ) -> None:
        self.line(depth, f"if {self.pred_code(node.cond, bound)}:")
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            frame.guards += 1
        self.emit_body(node.body, bound, depth + 1, outer, vec)
        if node.else_body:
            self.line(depth, "else:")
            self.emit_body(node.else_body, bound, depth + 1, outer, vec)
        if frame is not None:
            frame.guards -= 1

    def emit_loop(
        self,
        node: Loop,
        bound: Set[str],
        depth: int,
        outer: Tuple[Loop, ...],
        vec: Optional[_VecCtx],
    ) -> None:
        """Emit ``node`` as a native loop, or, when it heads a nest of
        slice axes (:meth:`_slice_axes`), as that nest's body once over
        NumPy slices.  Inside slice axes (``vec`` set) every loop is
        native."""
        lo = self.tmp("lo")
        hi = self.tmp("hi")
        self.define(depth, lo, self.bound_code(node.lower, bound))
        self.define(depth, hi, self.bound_code(node.upper, bound))
        axes = self._slice_axes(node, outer) if vec is None else []
        if axes:
            self.emit_sliced(axes, lo, hi, bound, depth)
            return
        was_bound = node.var in bound
        var = self.env_name(node.var, bound | {node.var})
        rng = f"range({lo}, {hi}, {node.step})"
        if self.thread_order == "desc" and node.mapped_to in THREAD_DIMS:
            rng = f"reversed({rng})"
        frame = _Frame(var, len(self.lines), depth, lo, hi)
        self.line(depth, f"for {var} in {rng}:")
        self._frames.append(frame)
        bound.add(node.var)
        self.emit_body(node.body, bound, depth + 1, outer + (node,), vec)
        self._frames.pop()
        self._hoist(frame)
        if not was_bound:
            bound.discard(node.var)

    def emit_sliced(self, axes: List[Loop], lo: str, hi: str, bound: Set[str], depth: int) -> None:
        """Emit the innermost body of the loop chain ``axes`` (outermost
        first; ``lo``/``hi`` hold the first one's bounds) once, over one
        slice dimension per axis."""
        added = [loop.var for loop in axes if loop.var not in bound]
        ctx = []
        for at, loop in enumerate(axes):
            if at:
                lo, hi = self.tmp("lo"), self.tmp("hi")
                self.define(depth, lo, self.bound_code(loop.lower, bound))
                self.define(depth, hi, self.bound_code(loop.upper, bound))
            n = self.tmp("n")
            self.define(depth, n, f"max(0, -(-({hi} - {lo}) // {loop.step}))")
            bound.add(loop.var)
            ctx.append(_Axis(loop.var, lo, n, loop.step))
        self.vectorized_loops += len(axes)
        self.emit_body(axes[-1].body, bound, depth, vec=_VecCtx(ctx))
        bound.difference_update(added)

    # -- vectorization ---------------------------------------------------
    def _slice_axes(self, node: Loop, outer: Tuple[Loop, ...]) -> List[Loop]:
        """The loops, ``node`` first, that become slice axes over the
        innermost one's body; empty when ``node`` stays native.

        The axes are the longest prefix of ``node``'s :func:`_chain`
        whose loops are unmapped, run more than once (:func:`_runs_once`)
        and slice their bodies (:func:`_sliceable_body`), whose
        references meet them in order (:func:`_axes_ordered`), and of
        which one :func:`carrying_loops` question, inside the ``outer``
        loops, finds none carrying.  Each of these holds for a prefix
        when it holds for a longer one, so trimming the chain at the
        first failure finds that prefix.  It is kept when it spans more
        than two elements (:func:`_narrow`); a shorter one spans fewer.
        Lowering the body once over the slices runs the axes innermost;
        with no dependence between their iterations, each element sees
        the same float operations in the same order as the scalar loops,
        so results stay bit-identical.  A native loop's body is lowered
        by the same rule, so every loop reached outside slice axes is
        tried.
        """
        axes = list(itertools.takewhile(_may_slice, _chain(node)))
        while axes and not _axes_ordered(axes):
            axes.pop()
        if axes:
            carrying = _carrying(node, outer, axes)
            axes = list(itertools.takewhile(lambda loop: loop not in carrying, axes))
        return [] if _narrow(axes) else axes


def _chain(node: Loop) -> List[Loop]:
    """``node`` and each loop that is the only child (barriers aside) of
    the one before it."""
    chain = [node]
    while True:
        kids = [child for child in chain[-1].body if not isinstance(child, Barrier)]
        if len(kids) != 1 or not isinstance(kids[0], Loop):
            return chain
        chain.append(kids[0])


def _may_slice(loop: Loop) -> bool:
    """Whether ``loop`` may be a slice axis, its dependences aside.

    A thread-mapped loop is no axis (the ROADMAP's SIMT item owns thread
    loops as axes), nor is a loop that runs at most once: its length-1
    dimension buys nothing and makes every operation broadcast (a 1x4
    update costs ~1.8x a 4-wide one in NumPy), so it stays a native loop
    and the loops under it are tried in turn.
    """
    return loop.mapped_to is None and not _runs_once(loop) and _sliceable_body(loop)


def _trips(loop: Loop) -> Optional[int]:
    """``loop``'s trip count when both its bounds are constants."""
    lo, hi = loop.lower, loop.upper
    if isinstance(lo, AffineExpr) and isinstance(hi, AffineExpr) and not lo.terms and not hi.terms:
        return max(0, -(-(hi.offset - lo.offset) // loop.step))
    return None


def _runs_once(loop: Loop) -> bool:
    """Whether ``loop``'s constant bounds give it at most one iteration."""
    trips = _trips(loop)
    return trips is not None and trips <= 1


def _narrow(axes: Sequence[Loop]) -> bool:
    """Whether ``axes`` provably span at most two elements: one slice
    operation then costs more than the scalar ones it replaces (a
    2-wide update under a native loop runs at 0.78x the speed of two
    scalar ones, a 3-wide one at 1.14x)."""
    trips = [_trips(loop) for loop in axes]
    return None not in trips and math.prod(trips) <= 2


def _axes_ordered(axes: Sequence[Loop]) -> bool:
    """Whether every reference under the innermost axis moves with at
    most one axis per subscript, and meets the axes in their order: then
    each reference's slice dimensions are the axes' in order."""
    names = [loop.var for loop in axes]
    for stmt in iter_statements(axes[-1].body):
        for ref in stmt.all_refs():
            seen: List[int] = []
            for index in ref.indices:
                moved = [at for at, name in enumerate(names) if index.depends_on(name)]
                if len(moved) > 1:
                    return False
                seen += moved
            if seen != sorted(seen):
                return False
    return True


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
