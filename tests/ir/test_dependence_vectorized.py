"""The array-shaped dependence traces equal the scalar trace.

:func:`scalar_dependences` below is the original tracer, kept here as
the reference: it walks every statement instance in Python, records one
object per access, and compares every pair of accesses to one cell.
:func:`repro.ir.dependence._trace_dependences` must return exactly its
sorted :class:`Dependence` list, and
:func:`repro.ir.dependence._trace_carrying` exactly the loops
:func:`scalar_carrying` derives from it, both on every body the tuner
really traces (:func:`record_traced_bodies`) and on random small nests.
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
from repro.ir.affine import AffineExpr
from repro.ir.ast import ArrayRef, Assign, Barrier, Const, Guard, Loop
from repro.ir.dependence import (
    Dependence,
    _collect_statements,
    _depths,
    _free_symbols,
    _loop_vars,
    _trace_carrying,
    _trace_dependences,
    carrying_loops,
)
from repro.ir.fingerprint import encode_body
from repro.jit import lower as jit_lower
from repro.tuner import LibraryGenerator, TuningOptions

from ..nest_strategies import lower, nests, nodes, upper

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


def scalar_carrying(body, wrappers, asked, default_size=6) -> frozenset:
    """Which ``asked`` pre-order positions of the nest under ``wrappers``
    single-loop shells of ``body`` hold a loop that carries a dependence:
    one whose statements are both inside the loop, with "=" on every loop
    around it and not on the loop itself."""
    deps = scalar_dependences(body, None, default_size)
    index = {id(stmt): i for i, stmt in enumerate(_collect_statements(body))}
    nest = body
    for _ in range(wrappers):
        nest = nest[0].body
    carrying = set()
    for position, (loop, depth) in enumerate(_depths(nest, wrappers)):
        inside = {index[id(stmt)] for stmt in _collect_statements(loop.body)}
        if position in asked and any(
            dep.src in inside
            and dep.dst in inside
            and dep.direction[depth] != "="
            and set(dep.direction[:depth]) <= {"="}
            for dep in deps
        ):
            carrying.add(position)
    return frozenset(carrying)


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


def record_traced_bodies(carrying=None):
    """``[(body, sizes, default_size)]`` for every memo miss of the
    dependence oracle while generating all 28 routines on the GTX 285
    (curated space), then the serve space's plans at N=16.  A dict passed
    as ``carrying`` collects every distinct question the JIT's slice
    legality asks :func:`carrying_loops`, as ``(body, wrappers, asked)``
    (:func:`wrapped`) mapped to the answer's positions."""
    recorded = []
    trace, asking = dependence._trace_dependences, jit_lower.carrying_loops

    def recording(body, sizes, default_size):
        recorded.append(([node.clone() for node in body], sizes, default_size))
        return trace(body, sizes, default_size)

    def recording_carrying(nest, enclosing=(), among=None):
        answer = asking(nest, enclosing, among)
        loops = [loop for loop, _ in _depths([nest], 0)]
        asked = tuple(i for i, loop in enumerate(loops) if any(loop is x for x in among))
        body, wrappers = wrapped(nest, enclosing)
        key = (encode_body(body), wrappers, asked)
        carrying[key] = (body, wrappers, asked), {i for i, loop in enumerate(loops) if loop in answer}
        return answer

    jit.clear_cache()  # empties the oracle's memo too
    dependence._trace_dependences = recording
    if carrying is not None:
        jit_lower.carrying_loops = recording_carrying
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
        jit_lower.carrying_loops = asking
        jit.clear_cache()
    return recorded


def wrapped(nest, enclosing):
    """A clone of ``nest`` in clones of the enclosing loops
    :func:`carrying_loops` wraps it in, and how many those are."""
    wrappers = dependence._wrappers(nest, enclosing)
    body = [nest.clone()]
    for loop in reversed(wrappers):
        body = [Loop(loop.var, loop.lower, loop.upper, body, step=loop.step)]
    return body, len(wrappers)


def scalar_carrying_loops(body, wrappers, asked) -> frozenset:
    """What :func:`carrying_loops` answers, from the scalar trace alone:
    the loops the wrapped trace shows carrying, and when there are
    wrappers, those a trace of the nest alone shows."""
    found = scalar_carrying(body, wrappers, asked)
    if not wrappers:
        return found
    nest = body
    for _ in range(wrappers):
        nest = nest[0].body
    return found | scalar_carrying(nest, 0, asked)


@pytest.fixture(scope="module")
def traced_bodies():
    carrying = {}
    return record_traced_bodies(carrying), list(carrying.values())


def test_every_traced_body_matches_the_scalar_trace(traced_bodies):
    pairs, carrying = traced_bodies
    assert len(pairs) + len(carrying) > 100
    for index, (body, sizes, default_size) in enumerate(pairs):
        expected = scalar_dependences(body, sizes, default_size)
        assert _trace_dependences(body, sizes, default_size) == expected, index
    for index, (question, answer) in enumerate(carrying):
        assert answer == scalar_carrying_loops(*question), index


# ---------------------------------------------------------------------------
# Random small nests
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Loops that carry a dependence
# ---------------------------------------------------------------------------


@st.composite
def enclosed_nests(draw):
    """``(nest, enclosing)``: a loop nest inside 0-2 single-loop shells
    whose variables its bounds, guards and indices use."""
    names = ["w0", "w1"][: draw(st.integers(0, 2))]
    nest = Loop("n", lower(draw, names), upper(draw, names), nodes(draw, names + ["n"], 2))
    enclosing = []
    for depth, name in enumerate(names):
        enclosing.append(Loop(name, lower(draw, names[:depth]), upper(draw, names[:depth]), []))
    for shell, inner in zip(enclosing, enclosing[1:] + [nest]):
        shell.body = [inner]
    return nest, enclosing


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=enclosed_nests())
def test_random_wrapped_nests_match_the_scalar_carrying(case):
    nest, enclosing = case
    loops = [loop for loop, _ in _depths([nest], 0)]
    body, every = enclosing[:1] or [nest], range(len(loops))
    assert _trace_carrying(body, len(enclosing), every) == scalar_carrying(
        body, len(enclosing), every
    )
    answer = {i for i, loop in enumerate(loops) if loop in carrying_loops(nest, enclosing)}
    assert answer == scalar_carrying_loops(*wrapped(nest, enclosing), every)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=enclosed_nests())
def test_pinned_enclosing_loops_never_hide_a_dependence(case):
    """Wrapping only the enclosing loops that can change the answer finds
    every loop that wrapping all of them finds."""
    nest, enclosing = case
    loops = [loop for loop, _ in _depths([nest], 0)]
    everything = _trace_carrying(enclosing[:1] or [nest], len(enclosing), range(len(loops)))
    assert {loops[i] for i in everything} <= carrying_loops(nest, enclosing)
