"""Hypothesis strategies for small random loop nests.

Shared by the dependence-trace tests (:mod:`tests.ir`) and the JIT
cross-checks (:mod:`tests.jit`).  Enclosing loop variables appear in
inner bounds (triangular, ``M - i``), in guard predicates and in index
offsets, so a nest's dependences change with the loops around it.

``nonnegative=True`` keeps every loop value and index at or above zero
(and below :data:`EXTENT`), so the nest can run on real arrays.  A
:class:`Reach` bounds the offsets, constant bounds and steps drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.ir.affine import AffineExpr, MaxExpr, MinExpr
from repro.ir.ast import (
    THREAD_DIMS,
    Array,
    ArrayRef,
    Assign,
    Barrier,
    BinOp,
    Cmp,
    Computation,
    Const,
    Guard,
    Loop,
    Stage,
)

ARRAYS = {"A": 1, "B": 2, "C": 3}  # name -> rank
LOOP_VARS = ("i", "j", "tx")  # siblings may reuse a name, as tx/ty do across phases
SIZES = ("M", "N")
#: every array dimension of :func:`computation`; above any index a
#: nonnegative nest of :func:`nests` reaches with sizes up to 5
EXTENT = 64


@dataclass(frozen=True)
class Reach:
    """The largest affine offset, constant upper bound and loop step a
    drawn nest may hold."""

    offset: int
    bound: int
    step: int


#: below the least extent of a dependence trace (6), so a nest's trace
#: domain stays small enough for a scalar reference to walk
NEAR = Reach(offset=2, bound=4, step=3)
#: up to and past the least extent, where the extent grows with the nest
FAR = Reach(offset=8, bound=8, step=8)


def affine(draw, names, nonnegative=False, reach=FAR):
    """Up to two of ``names`` with small coefficients, plus an offset."""
    lo = 0 if nonnegative else -1
    terms = {}
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)) if names else ():
        terms[name] = draw(st.integers(lo, 2))
    return AffineExpr(terms, draw(st.integers(lo, reach.offset)))


def lower(draw, outer, nonnegative=False):
    choice = draw(st.integers(0, 2 if outer else 0))
    if choice == 0:
        return AffineExpr.constant(draw(st.integers(0, 2)))
    inner = AffineExpr({draw(st.sampled_from(outer)): 1}, draw(st.integers(0 if nonnegative else -1, 1)))
    if choice == 1:
        return inner  # triangular
    return MaxExpr((AffineExpr.constant(draw(st.integers(0, 1))), inner))


def upper(draw, outer, reach=FAR):
    choice = draw(st.integers(0, 4 if outer else 1))
    if choice == 0:
        return AffineExpr.constant(draw(st.integers(0, reach.bound)))  # 0 trips included
    size = AffineExpr.variable(draw(st.sampled_from(SIZES)))
    if choice == 1:
        return size
    var = draw(st.sampled_from(outer))
    if choice == 4:
        return size - AffineExpr.variable(var)  # shrinks as the enclosing loop runs
    inner = AffineExpr({var: 1}, draw(st.integers(0, 2)))
    if choice == 2:
        return inner  # triangular
    return MinExpr((inner, size))


def ref(draw, outer, nonnegative=False, reach=FAR):
    array = draw(st.sampled_from(sorted(ARRAYS)))
    return ArrayRef(array, [affine(draw, outer, nonnegative, reach) for _ in range(ARRAYS[array])])


def assign(draw, outer, nonnegative=False, reach=FAR):
    target = ref(draw, outer, nonnegative, reach)
    if nonnegative and outer:
        # stride along the innermost loop, so that loop may become a slice
        *lead, last = target.indices
        target = ArrayRef(target.array, (*lead, last + AffineExpr.variable(outer[-1])))
    operands = [ref(draw, outer, nonnegative, reach) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        operands.append(target.clone())  # reads and writes one cell
    expr = Const(2.0)
    for operand in operands:
        expr = BinOp("*", expr, operand)
    return Assign(target, expr, draw(st.sampled_from(Assign.OPS)))


def nodes(draw, outer, depth, nonnegative=False, mapped=False, reach=FAR):
    """A body of 1-3 nodes; ``mapped`` lets loops map to thread dims."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ("loop", "loop", "assign", "guard", "barrier") if depth else ("assign",)
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            out.append(assign(draw, outer, nonnegative, reach))
        elif kind == "barrier":
            out.append(Barrier())
        elif kind == "guard":
            cond = Cmp(affine(draw, outer, reach=reach), "<", affine(draw, outer, reach=reach))
            inner = (draw, outer, depth - 1, nonnegative, mapped, reach)
            else_body = nodes(*inner) if draw(st.booleans()) else []
            out.append(Guard(cond, nodes(*inner), else_body))
        else:
            var = draw(st.sampled_from([v for v in LOOP_VARS if v not in outer]))
            lo, hi = lower(draw, outer, nonnegative), upper(draw, outer, reach)
            body = nodes(draw, outer + [var], depth - 1, nonnegative, mapped, reach)
            mapped_to = draw(st.sampled_from((None, None) + THREAD_DIMS)) if mapped else None
            step = draw(st.integers(1, reach.step))
            out.append(Loop(var, lo, hi, body, step=step, mapped_to=mapped_to))
    return out


@st.composite
def nests(draw, nonnegative=False, mapped=False, reach=FAR):
    """``(body, sizes, default_size)``: a nest and a trace domain."""
    body = nodes(draw, [], 3, nonnegative, mapped, reach)
    sizes = {name: draw(st.integers(0, 4)) for name in SIZES if draw(st.booleans())}
    return body, sizes, draw(st.integers(1, 4))


def computation(body) -> Computation:
    """``body`` as a one-stage computation over the arrays of :data:`ARRAYS`."""
    arrays = {
        name: Array(name, tuple(AffineExpr.constant(EXTENT) for _ in range(rank)))
        for name, rank in ARRAYS.items()
    }
    return Computation("nest", arrays, [Stage("nest", body)], scalars=(), dim_symbols=SIZES)
