"""The grouping traces give the answers of the scalar pairs.

:func:`scalar_dependences` below is the original tracer, kept here as
the reference: it walks every statement instance in Python, records one
object per access, and compares every pair of accesses to one cell.
:func:`repro.ir.dependence._trace_carrying` must return exactly the
loops :func:`scalar_carrying` derives from its dependences, and
:func:`repro.ir.dependence._order_kept` exactly what
:func:`scalar_order_kept` derives from the pairs, both on every question
really asked (:func:`record_questions`) and on random small nests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import jit
from repro.blas3 import build_routine
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.composer import fuse_chain, stitch_chain
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.ir import dependence, fusion_legal, interchange_legal
from repro.ir.affine import AffineExpr
from repro.ir.ast import ArrayRef, Assign, Barrier, Const, Guard, Loop
from repro.ir.dependence import (
    _collect_statements,
    _depths,
    _free_symbols,
    _loop_vars,
    _order_kept,
    _trace_carrying,
    carrying_loops,
)
from repro.ir.fingerprint import encode_body
from repro.jit import lower as jit_lower
from repro.transforms import batch, thread_grouping
from repro.tuner import LibraryGenerator, TuningOptions

from ..nest_strategies import lower, nests, nodes, upper

# ---------------------------------------------------------------------------
# The scalar reference tracer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between two statement instances, summarised.

    ``kind`` ∈ {"flow", "anti", "output"}.  ``direction`` holds one
    symbol ("<", "=", ">") per loop of the destination that the source
    also has (by name; the source's innermost of that name), outermost
    first.  ``src``/``dst`` are statement positions in textual order.
    """

    kind: str
    array: str
    src: int
    dst: int
    direction: Tuple[str, ...]


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
            saved = env.get(node.var)
            for value in range(lo, hi, node.step):
                env[node.var] = value
                _trace(node.body, env, loops + ((node.var, value),), stmt_ids, accesses, clock)
            env.pop(node.var, None)
            if saved is not None:
                env[node.var] = saved
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


def scalar_accesses(body, default_size=6) -> Dict[Tuple, List[_Access]]:
    """Every access of ``body``'s trace, grouped by ``(array, cell)``, in
    execution order; every free size symbol at ``default_size``."""
    stmt_ids = {id(s): idx for idx, s in enumerate(_collect_statements(body))}
    free: Set[str] = set()
    for node in body:
        free |= _free_symbols(node)
    env = dict.fromkeys(free - _loop_vars(body), default_size)
    accesses: Dict[Tuple, List[_Access]] = {}
    _trace(body, env, (), stmt_ids, accesses, [0])
    return accesses


def scalar_dependences(body, default_size=6) -> List[Dependence]:
    """The dependence set of ``body``, traced one access at a time."""
    accesses = scalar_accesses(body, default_size)
    deps: Set[Dependence] = set()
    for (array, _cell), access_list in accesses.items():
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
    deps = scalar_dependences(body, default_size)
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


def scalar_order_kept(before, after) -> bool:
    """Whether running ``after`` in place of ``before`` keeps the order of
    every pair of accesses to one cell of which one writes.

    An instance of ``before`` stands for the instance of ``after`` of its
    statement (by textual position) that sees the same loop values, the
    k-th such for the k-th; ``after`` must run exactly those."""

    def instances(accesses) -> Dict[Tuple, List[int]]:
        times: Dict[Tuple, Set[int]] = {}
        for access_list in accesses.values():
            for a in access_list:
                key = (a.stmt_index, tuple(sorted(dict(a.itervec).items())))
                times.setdefault(key, set()).add(a.time)
        return {key: sorted(ts) for key, ts in times.items()}

    old, new = scalar_accesses(before), scalar_accesses(after)
    old_runs, new_runs = instances(old), instances(new)
    if {k: len(v) for k, v in old_runs.items()} != {k: len(v) for k, v in new_runs.items()}:
        return False
    moved = {t: new_runs[key][rank] for key, ts in old_runs.items() for rank, t in enumerate(ts)}
    for access_list in old.values():
        for i, first in enumerate(access_list):
            for second in access_list[i + 1 :]:
                if (first.is_write or second.is_write) and first.time != second.time:
                    if moved[first.time] > moved[second.time]:
                        return False
    return True


# ---------------------------------------------------------------------------
# Every question asked
# ---------------------------------------------------------------------------

#: the modules that ask :func:`carrying_loops`
ASKERS = (batch, jit_lower, thread_grouping)
#: the four configurations a serve set-up searches
SERVE_SPACE = (
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
)
SERVE_ROUTINES = ("BGEMM-NN", "SYMM-LL", "TRSM-LL-N", "GEMM-NN")
#: producer -> consumer chains whose loop fusion is attempted edge by edge
CHAINS = (
    (("GEMM-NN", {"A": "A", "B": "B"}), ("TRSM-LL-N", {"A": "L"})),
    (("GEMM-NN", {"A": "A", "B": "B"}), ("TRMM-LL-T", {"A": "L"})),
    (("GEMM-NN", {"A": "A", "B": "B"}), ("GEMM-NN", {"B": "D"})),
    (("GEMM-TN", {"A": "A", "B": "B"}), ("SYMM-LL", {"A": "S"}), ("TRSM-LU-T", {"A": "U"})),
)


def perfect_pairs(body, enclosing=()):
    """``(outer, enclosing)`` for every loop of ``body`` holding just one
    loop whose bounds do not use its variable: each interchange a
    ``loop_interchange`` could apply."""
    for node in body:
        if isinstance(node, Loop):
            kids = node.body
            if len(kids) == 1 and isinstance(kids[0], Loop):
                if node.var not in dependence._bound_vars(kids[0]):
                    yield node, tuple(enclosing)
            yield from perfect_pairs(node.body, (*enclosing, node))
        elif isinstance(node, Guard):
            yield from perfect_pairs(node.body + node.else_body, enclosing)


def record_questions():
    """``(carrying, orders)``: every distinct question asked while
    generating all 28 routines on the GTX 285 (curated space, then the
    serve space's plans at N=16), fusing every edge of :data:`CHAINS`
    and asking every interchange of the 28 reference nests.  A
    :func:`carrying_loops` question of thread grouping, the batch grid or
    the JIT's slice legality is recorded as ``(body, wrappers, asked)``
    (:func:`wrapped`) with its answer's positions; a reordering question
    as the ``(before, after)`` of a memo miss of :func:`_order_kept`."""
    carrying, orders = {}, []
    asking, order = dependence.carrying_loops, dependence._order_kept

    def recording_carrying(nest, enclosing=(), among=None):
        answer = asking(nest, enclosing, among)
        loops = [loop for loop, _ in _depths([nest], 0)]
        asked = tuple(
            i for i, loop in enumerate(loops) if among is None or any(loop is x for x in among)
        )
        body, wrappers = wrapped(nest, enclosing)
        question = (body, wrappers, asked)
        carrying[encode_body(body), wrappers, asked] = question, {
            i for i, loop in enumerate(loops) if loop in answer
        }
        return answer

    def recording_order(before, after):
        orders.append(([node.clone() for node in before], [node.clone() for node in after]))
        return order(before, after)

    jit.clear_cache()  # empties the dependence memo too
    dependence._order_kept = recording_order
    for module in ASKERS:
        module.carrying_loops = recording_carrying
    try:
        curated = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1))
        for variant in ALL_VARIANTS + BATCHED_VARIANTS:
            curated.generate(variant.name)
        serve = LibraryGenerator(
            GTX_285, options=TuningOptions(jobs=1, space=SERVE_SPACE, tune_size=16)
        )
        for name in SERVE_ROUTINES:
            serve.generate(name)
        for steps in CHAINS:
            stitched = stitch_chain(Dag(chain(*steps)))
            fuse_chain(stitched, (True,) * len(stitched.edges))
        for variant in ALL_VARIANTS + BATCHED_VARIANTS:
            for outer, enclosing in perfect_pairs(build_routine(variant.name).main_stage.body):
                interchange_legal(outer, enclosing)
    finally:
        dependence._order_kept = order
        for module in ASKERS:
            module.carrying_loops = asking
        jit.clear_cache()
    return list(carrying.values()), orders


def wrap(body, wrappers):
    for loop in reversed(wrappers):
        body = [Loop(loop.var, loop.lower, loop.upper, body, step=loop.step)]
    return body


def wrapped(nest, enclosing):
    """A clone of ``nest`` in clones of the loops :func:`carrying_loops`
    wraps it in, and how many those are."""
    wrappers = dependence._wrappers([nest], enclosing)
    return wrap([nest.clone()], wrappers), len(wrappers)


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
def questions():
    return record_questions()


def test_every_traced_body_matches_the_scalar_trace(questions):
    carrying, orders = questions
    assert len(carrying) > 100
    assert orders
    for index, (question, answer) in enumerate(carrying):
        assert answer == scalar_carrying_loops(*question), index
    for index, (before, after) in enumerate(orders):
        assert _order_kept(before, after) == scalar_order_kept(before, after), index


# ---------------------------------------------------------------------------
# Random small nests
# ---------------------------------------------------------------------------


def shadowing(draw, outer):
    """Maybe one loop reusing the innermost ``outer`` loop's name."""
    if not draw(st.booleans()):
        return []
    return [Loop(outer[-1], lower(draw, outer), upper(draw, outer), nodes(draw, outer, 1))]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nest=nests())
def test_random_nests_match_the_scalar_trace(nest):
    body, _, _ = nest
    every = range(len(list(_depths(body, 0))))
    assert _trace_carrying(body, 0, every) == scalar_carrying(body, 0, every)


@st.composite
def fusions(draw):
    """Two loops over one domain, each body maybe shadowing ``i``."""
    lo, hi = lower(draw, []), upper(draw, [])
    first = nodes(draw, ["i"], 2) + shadowing(draw, ["i"])
    second = nodes(draw, ["i"], 2) + shadowing(draw, ["i"])
    return Loop("i", lo, hi, first), Loop("i", lo, hi, second)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=fusions())
def test_random_fusions_match_the_scalar_pairs(case):
    """Fusion is legal iff no pair is reversed, iff the fused trace has no
    dependence from a second-loop statement to a first-loop one."""
    a, b = case
    fused = Loop("i", a.lower, a.upper, a.body + b.body)
    legal = fusion_legal(a, b)
    assert legal == scalar_order_kept([a, b], [fused])
    n_a = len(_collect_statements(a.body))
    assert legal == (not any(d.src >= n_a > d.dst for d in scalar_dependences([fused])))


@st.composite
def interchanges(draw):
    """``(nest, enclosing)``: a rectangular ``i``/``j`` pair, its body
    maybe shadowing ``j``, inside 0-2 single-loop shells whose variables
    its bounds, guards and indices use."""
    names = ["w0", "w1"][: draw(st.integers(0, 2))]
    body = nodes(draw, names + ["i", "j"], 1) + shadowing(draw, names + ["i", "j"])
    inner = Loop("j", lower(draw, names), upper(draw, names), body)
    nest = Loop("i", lower(draw, names), upper(draw, names), [inner])
    enclosing = [Loop(name, lower(draw, names[:d]), upper(draw, names[:d]), []) for d, name in enumerate(names)]
    for shell, kid in zip(enclosing, enclosing[1:] + [nest]):
        shell.body = [kid]
    return nest, enclosing


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=interchanges())
def test_random_interchanges_match_the_scalar_pairs(case):
    """Interchange is legal iff no pair in one run of the nest is
    reversed; without shadowing, iff no dependence in one run has
    direction (<, >) on the two loops (the exact rule)."""
    nest, enclosing = case
    (inner,) = nest.body
    swapped = Loop("j", inner.lower, inner.upper, [Loop("i", nest.lower, nest.upper, inner.body)])
    wrappers = dependence._wrappers([nest], enclosing)
    shells = (wrappers, []) if wrappers else ([],)
    legal = interchange_legal(nest, enclosing)
    assert legal == all(scalar_order_kept(wrap([nest], s), wrap([swapped], s)) for s in shells)
    if "j" not in _loop_vars(inner.body):
        assert legal == (
            not any(
                set(dep.direction[: len(s)]) <= {"="}
                and dep.direction[len(s) : len(s) + 2] == ("<", ">")
                for s in shells
                for dep in scalar_dependences(wrap([nest], s))
            )
        )


def test_shared_names_and_in_place_update():
    """Sibling ``tx`` loops compare as one loop; ``C[i] += C[i]`` touches
    one cell per instance, so no loop carries it."""
    stmt = Assign(ArrayRef("C", ["tx"]), ArrayRef("C", ["tx"]), "+=")
    copy = Assign(ArrayRef("D", ["tx"]), ArrayRef("C", [AffineExpr({"tx": 1}, 1)]))
    body = [Loop("tx", 0, 4, [stmt]), Barrier(), Loop("tx", 0, 3, [copy])]
    deps = scalar_dependences(body)
    assert Dependence("anti", "C", 0, 0, ("=",)) in deps
    assert Dependence("flow", "C", 0, 1, (">",)) in deps
    assert _trace_carrying(body, 0, (0, 1)) == scalar_carrying(body, 0, (0, 1)) == frozenset()
    assert not fusion_legal(Loop("tx", 0, 4, [stmt]), Loop("tx", 0, 4, [copy]))


def test_shadowed_loop_compares_the_innermost_source_loop():
    """An inner loop reusing its parent's name: each statement sees the
    innermost value, for carrying, fusion and interchange alike."""
    outer = Assign(ArrayRef("A", ["i"]), Const(1.0))
    inner = Assign(ArrayRef("A", ["i"]), ArrayRef("A", [AffineExpr({"i": 1}, 1)]), "+=")
    body = [Loop("i", 0, 3, [outer, Loop("i", 0, 3, [inner])])]
    assert _trace_carrying(body, 0, (0, 1)) == scalar_carrying(body, 0, (0, 1))
    a, b = Loop("i", 0, 3, [outer]), Loop("i", 0, 3, [Loop("i", 0, 3, [inner])])
    fused = Loop("i", 0, 3, [outer, Loop("i", 0, 3, [inner])])
    assert fusion_legal(a, b) == scalar_order_kept([a, b], [fused]) is False
    nest = Loop("i", 0, 3, [Loop("j", 0, 3, [Loop("i", 0, 3, [inner])])])
    swapped = Loop("j", 0, 3, [Loop("i", 0, 3, [Loop("i", 0, 3, [inner])])])
    assert interchange_legal(nest) == scalar_order_kept([nest], [swapped])


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
