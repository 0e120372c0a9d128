"""The array-shaped dependence trace equals the scalar trace it replaced.

:func:`scalar_dependences` below is the original tracer, kept here as
the reference: it walks every statement instance in Python, records one
object per access, and compares every pair of accesses to one cell.
:func:`repro.ir.dependence._trace_dependences` must return exactly its
sorted :class:`Dependence` list, both on every body the tuner really
traces (:func:`record_traced_bodies`) and on random small nests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import jit
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.gpu import GTX_285
from repro.ir import dependence
from repro.ir.affine import AffineExpr, MaxExpr, MinExpr
from repro.ir.ast import ArrayRef, Assign, Barrier, BinOp, Cmp, Const, Guard, Loop
from repro.ir.dependence import (
    Dependence,
    _collect_statements,
    _free_symbols,
    _loop_vars,
    _trace_dependences,
)
from repro.tuner import LibraryGenerator, TuningOptions

# ---------------------------------------------------------------------------
# The scalar reference tracer
# ---------------------------------------------------------------------------


@dataclass
class _Access:
    time: int
    stmt_index: int
    itervec: Tuple[Tuple[str, int], ...]  # (loop var, value) outermost first
    is_write: bool


def _trace(body, env, loops, stmt_ids, accesses, clock) -> None:
    for node in body:
        if isinstance(node, Assign):
            stmt_index = stmt_ids[id(node)]
            time = clock[0]
            clock[0] += 1
            for is_write, refs in ((False, node.reads()), (True, node.writes())):
                for ref_ in refs:
                    cell = (ref_.array, tuple(i.evaluate(env) for i in ref_.indices))
                    accesses.setdefault(cell, []).append(
                        _Access(time, stmt_index, loops, is_write)
                    )
        elif isinstance(node, Loop):
            lo = node.lower.evaluate(env)
            hi = node.upper.evaluate(env)
            for value in range(lo, hi, node.step):
                env[node.var] = value
                _trace(node.body, env, loops + ((node.var, value),), stmt_ids, accesses, clock)
            env.pop(node.var, None)
        elif isinstance(node, Guard):
            _trace(node.body, env, loops, stmt_ids, accesses, clock)
            _trace(node.else_body, env, loops, stmt_ids, accesses, clock)
        elif not isinstance(node, Barrier):
            raise TypeError(f"cannot trace node {node!r}")


def _direction(src: _Access, dst: _Access) -> Tuple[str, ...]:
    common: List[str] = []
    src_map = dict(src.itervec)
    for var_name, dst_val in dst.itervec:
        if var_name in src_map:
            src_val = src_map[var_name]
            common.append("<" if src_val < dst_val else ("=" if src_val == dst_val else ">"))
    return tuple(common)


def scalar_accesses(body, sizes, default_size) -> Dict[Tuple, List[_Access]]:
    """Every access of ``body``'s trace, grouped by ``(array, cell)``."""
    stmt_ids = {id(s): idx for idx, s in enumerate(_collect_statements(body))}
    free: Set[str] = set()
    for node in body:
        free |= _free_symbols(node)
    env: Dict[str, int] = {}
    for name in free - _loop_vars(body):
        env[name] = (sizes or {}).get(name, default_size)
    if sizes:
        for name, value in sizes.items():
            env.setdefault(name, value)
    accesses: Dict[Tuple, List[_Access]] = {}
    _trace(body, env, (), stmt_ids, accesses, [0])
    return accesses


def scalar_dependences(body, sizes, default_size) -> List[Dependence]:
    """The dependence set of ``body``, traced one access at a time."""
    accesses = scalar_accesses(body, sizes, default_size)
    deps: Set[Dependence] = set()
    for (array, _cell), access_list in accesses.items():
        access_list.sort(key=lambda a: a.time)
        for i, first in enumerate(access_list):
            for second in access_list[i + 1 :]:
                if not (first.is_write or second.is_write):
                    continue
                if first.is_write and second.is_write:
                    kind = "output"
                elif first.is_write:
                    kind = "flow"
                else:
                    kind = "anti"
                deps.add(
                    Dependence(
                        kind, array, first.stmt_index, second.stmt_index, _direction(first, second)
                    )
                )
    return sorted(deps, key=lambda d: (d.array, d.kind, d.src, d.dst, d.direction))


# ---------------------------------------------------------------------------
# Every body the tuner traces
# ---------------------------------------------------------------------------

#: the four configurations a serve set-up searches
SERVE_SPACE = (
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
)
SERVE_ROUTINES = ("BGEMM-NN", "SYMM-LL", "TRSM-LL-N", "GEMM-NN")


def record_traced_bodies():
    """``[(body, sizes, default_size)]`` for every memo miss of the
    dependence oracle while generating all 28 routines on the GTX 285
    (curated space), then the serve space's plans at N=16."""
    recorded = []
    trace = dependence._trace_dependences

    def recording(body, sizes, default_size):
        recorded.append(([node.clone() for node in body], sizes, default_size))
        return trace(body, sizes, default_size)

    jit.clear_cache()  # empties the oracle's memo too
    dependence._trace_dependences = recording
    try:
        curated = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1))
        for variant in ALL_VARIANTS + BATCHED_VARIANTS:
            curated.generate(variant.name)
        serve = LibraryGenerator(
            GTX_285, options=TuningOptions(jobs=1, space=SERVE_SPACE, tune_size=16)
        )
        for name in SERVE_ROUTINES:
            serve.generate(name)
    finally:
        dependence._trace_dependences = trace
        jit.clear_cache()
    return recorded


@pytest.fixture(scope="module")
def traced_bodies():
    return record_traced_bodies()


def test_every_traced_body_matches_the_scalar_trace(traced_bodies):
    assert len(traced_bodies) > 100
    for index, (body, sizes, default_size) in enumerate(traced_bodies):
        expected = scalar_dependences(body, sizes, default_size)
        assert _trace_dependences(body, sizes, default_size) == expected, index


# ---------------------------------------------------------------------------
# Random small nests
# ---------------------------------------------------------------------------

ARRAYS = {"A": 1, "B": 2, "C": 3}  # name -> rank
LOOP_VARS = ("i", "j", "tx")  # siblings may reuse a name, as tx/ty do across phases
SIZES = ("M", "N")


def _affine(draw, names, lo=-1, hi=2):
    terms = {}
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)) if names else ():
        terms[name] = draw(st.integers(lo, hi))
    return AffineExpr(terms, draw(st.integers(-1, 2)))


def _lower(draw, outer):
    choice = draw(st.integers(0, 2 if outer else 0))
    if choice == 0:
        return AffineExpr.constant(draw(st.integers(0, 2)))
    inner = AffineExpr({draw(st.sampled_from(outer)): 1}, draw(st.integers(-1, 1)))
    if choice == 1:
        return inner  # triangular
    return MaxExpr((AffineExpr.constant(draw(st.integers(0, 1))), inner))


def _upper(draw, outer):
    choice = draw(st.integers(0, 3 if outer else 1))
    if choice == 0:
        return AffineExpr.constant(draw(st.integers(0, 4)))  # 0 trips included
    if choice == 1:
        return AffineExpr.variable(draw(st.sampled_from(SIZES)))
    inner = AffineExpr({draw(st.sampled_from(outer)): 1}, draw(st.integers(0, 2)))
    if choice == 2:
        return inner  # triangular
    return MinExpr((inner, AffineExpr.variable(draw(st.sampled_from(SIZES)))))


def _ref(draw, outer):
    array = draw(st.sampled_from(sorted(ARRAYS)))
    return ArrayRef(array, [_affine(draw, outer) for _ in range(ARRAYS[array])])


def _assign(draw, outer):
    target = _ref(draw, outer)
    operands = [_ref(draw, outer) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        operands.append(target.clone())  # reads and writes one cell
    expr = Const(2.0)
    for operand in operands:
        expr = BinOp("*", expr, operand)
    return Assign(target, expr, draw(st.sampled_from(Assign.OPS)))


def _nodes(draw, outer, depth):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ("loop", "loop", "assign", "guard", "barrier") if depth else ("assign",)
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            out.append(_assign(draw, outer))
        elif kind == "barrier":
            out.append(Barrier())
        elif kind == "guard":
            cond = Cmp(_affine(draw, outer), "<", _affine(draw, outer))
            else_body = _nodes(draw, outer, depth - 1) if draw(st.booleans()) else []
            out.append(Guard(cond, _nodes(draw, outer, depth - 1), else_body))
        else:
            var = draw(st.sampled_from([v for v in LOOP_VARS if v not in outer]))
            lower, upper = _lower(draw, outer), _upper(draw, outer)
            body = _nodes(draw, outer + [var], depth - 1)
            out.append(Loop(var, lower, upper, body, step=draw(st.integers(1, 3))))
    return out


@st.composite
def nests(draw):
    body = _nodes(draw, [], 3)
    sizes = {name: draw(st.integers(0, 4)) for name in SIZES if draw(st.booleans())}
    return body, sizes, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nest=nests())
def test_random_nests_match_the_scalar_trace(nest):
    body, sizes, default_size = nest
    assert _trace_dependences(body, sizes, default_size) == scalar_dependences(
        body, sizes, default_size
    )


def test_shared_names_and_in_place_update():
    """Sibling ``tx`` loops compare as one loop; ``C[i] += C[i]`` is an
    anti dependence of the statement on itself."""
    stmt = Assign(ArrayRef("C", ["tx"]), ArrayRef("C", ["tx"]), "+=")
    copy = Assign(ArrayRef("D", ["tx"]), ArrayRef("C", [AffineExpr({"tx": 1}, 1)]))
    body = [Loop("tx", 0, 4, [stmt]), Barrier(), Loop("tx", 0, 3, [copy])]
    deps = _trace_dependences(body, None, 6)
    assert deps == scalar_dependences(body, None, 6)
    assert Dependence("anti", "C", 0, 0, ("=",)) in deps
    assert Dependence("flow", "C", 0, 1, (">",)) in deps


def test_shadowed_loop_compares_the_innermost_source_loop():
    """An inner loop reusing its parent's name: the source side of a
    direction reads the innermost value, the destination side each loop."""
    outer = Assign(ArrayRef("A", ["i"]), Const(1.0))
    inner = Assign(ArrayRef("A", ["i"]), ArrayRef("A", [AffineExpr({"i": 1}, 1)]), "+=")
    body = [Loop("i", 0, 3, [outer, Loop("i", 0, 3, [inner])])]
    deps = _trace_dependences(body, None, 6)
    assert deps == scalar_dependences(body, None, 6)
    assert any(len(d.direction) == 2 and d.src == d.dst == 1 for d in deps)
