"""The grouping traces give the answers of a scalar trace.

:func:`scalar_accesses` below is the original tracer, kept here as the
reference: it walks every statement instance in Python and records one
object per access.  :func:`scalar_dependences` compares every pair of
accesses to one cell, which states the carrying question directly;
:func:`scalar_carrying` answers it with one pass over each cell's
accesses instead, and a property checks the two agree
(:func:`test_random_nests_match_the_scalar_trace`).
:func:`scalar_order_kept` passes once over each cell's accesses too,
and the fusion and interchange properties check it against their
dependence-direction rules.
:func:`repro.ir.dependence._trace_carrying` must return exactly the
loops :func:`scalar_carrying_loops` finds, and
:func:`repro.ir.dependence._order_kept` exactly what
:func:`scalar_order_kept` finds, both on one domain (:func:`sized`), on
every question really asked (:func:`record_questions`) and on random
small nests.  The domain itself is checked by brute force: one sized
trace finds every loop that scalar traces at every size value from 1 to
twice the extent find.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import jit
from repro.blas3 import build_routine
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.composer import fuse_chain, stitch_chain
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.ir import dependence, fusion_legal, interchange_legal
from repro.ir.affine import AffineExpr
from repro.ir.ast import ArrayRef, Assign, Barrier, Const, Guard, Loop
from repro.ir.dependence import _depths, _order_kept, _trace_carrying, carrying_loops
from repro.ir.fingerprint import encode_body
from repro.ir.visitors import iter_loops, iter_statements
from repro.jit import lower as jit_lower
from repro.transforms import batch, thread_grouping
from repro.tuner import LibraryGenerator, TuningOptions

from ..nest_strategies import NEAR, SIZES, lower, nests, nodes, upper

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


def _trace(body, env, loops, stmt_refs, accesses, clock) -> None:
    for node in body:
        if isinstance(node, Assign):
            stmt_index, refs = stmt_refs[id(node)]
            time = clock[0]
            clock[0] += 1
            if clock[0] > clock[1]:
                raise OverflowError("more statement instances than the limit")
            for is_write, array, indices in refs:
                cell = (array, tuple([i.evaluate(env) for i in indices]))
                accesses.setdefault(cell, []).append(_Access(time, stmt_index, loops, is_write))
        elif isinstance(node, Loop):
            lo = node.lower.evaluate(env)
            hi = node.upper.evaluate(env)
            saved = env.get(node.var)
            for value in range(lo, hi, node.step):
                env[node.var] = value
                _trace(node.body, env, loops + ((node.var, value),), stmt_refs, accesses, clock)
            env.pop(node.var, None)
            if saved is not None:
                env[node.var] = saved
        elif isinstance(node, Guard):
            _trace(node.body, env, loops, stmt_refs, accesses, clock)
            _trace(node.else_body, env, loops, stmt_refs, accesses, clock)
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


def scalar_accesses(body, size, limit=float("inf")) -> Dict[Tuple, List[_Access]]:
    """Every access of ``body``'s trace, grouped by ``(array, cell)``, in
    execution order; every free size symbol at ``size``.  Raises
    ``OverflowError`` past ``limit`` statement instances."""
    stmt_refs = {
        id(s): (idx, [(w, r.array, r.indices) for w, rs in ((False, s.reads()), (True, s.writes())) for r in rs])
        for idx, s in enumerate(iter_statements(body))
    }
    env = dict.fromkeys(dependence._symbols(body), size)
    accesses: Dict[Tuple, List[_Access]] = {}
    _trace(body, env, (), stmt_refs, accesses, [0, limit])
    return accesses


def scalar_dependences(body, size) -> List[Dependence]:
    """The dependence set of ``body``, traced one access at a time."""
    accesses = scalar_accesses(body, size)
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


def _nest_loops(body, wrappers):
    """``(loop, depth, inside)`` for every loop of the nest under
    ``wrappers`` single-loop shells of ``body``, in pre order, with the
    textual positions of the statements inside it."""
    index = {id(stmt): i for i, stmt in enumerate(iter_statements(body))}
    nest = body
    for _ in range(wrappers):
        nest = nest[0].body
    for loop, depth in _depths(nest, wrappers):
        yield loop, depth, {index[id(stmt)] for stmt in iter_statements(loop.body)}


def paired_carrying(body, wrappers, asked, size) -> frozenset:
    """Which ``asked`` pre-order positions of the nest under ``wrappers``
    single-loop shells of ``body`` hold a loop that carries a dependence
    at ``size``: one whose statements are both inside the loop, with "="
    on every loop around it and not on the loop itself."""
    deps = scalar_dependences(body, size)
    carrying = set()
    for position, (_, depth, inside) in enumerate(_nest_loops(body, wrappers)):
        if position in asked and any(
            dep.src in inside
            and dep.dst in inside
            and dep.direction[depth] != "="
            and set(dep.direction[:depth]) <= {"="}
            for dep in deps
        ):
            carrying.add(position)
    return frozenset(carrying)


def scalar_carrying(body, wrappers, asked, size, limit=float("inf")) -> frozenset:
    """:func:`paired_carrying` from the same scalar trace, without the
    pairs: a loop carries a dependence when the accesses to one cell
    from inside it, in one iteration of the loops around it, hold a
    write and two of its values.  The trace may hold at most ``limit``
    statement instances."""
    traced = scalar_accesses(body, size, limit)
    carrying = set()
    for position, (_, depth, inside) in enumerate(_nest_loops(body, wrappers)):
        groups: Dict[Tuple, Tuple[Set[int], List[bool]]] = {}
        for cell, group in traced.items():
            for a in group:
                if a.stmt_index in inside:
                    values, written = groups.setdefault((cell, a.itervec[:depth]), (set(), [False]))
                    values.add(a.itervec[depth][1])
                    written[0] |= a.is_write
        if position in asked and any(len(values) > 1 and w for values, (w,) in groups.values()):
            carrying.add(position)
    return frozenset(carrying)


def sized(*bodies):
    """``(bodies, ranged, extent)``: the domain the grouping trace runs
    ``bodies`` on; each body in the loops over 1..S of the size symbols
    that run over a range, how many those are, and S."""
    extent, loops = dependence._sizing([node for body in bodies for node in body])
    return [wrap(body, loops) for body in bodies], len(loops), extent


def scalar_order_kept(before, after) -> bool:
    """Whether running ``after`` in place of ``before`` keeps the order of
    every pair of accesses to one cell of which one writes, on their
    :func:`sized` domain (:func:`order_kept`)."""
    (before, after), _, extent = sized(before, after)
    return order_kept(scalar_accesses(before, extent), scalar_accesses(after, extent))


def order_kept(old, new) -> bool:
    """Whether the traced accesses ``new`` keep the order of every pair
    of the traced accesses ``old`` to one cell of which one writes.

    An instance of ``old`` stands for the instance of ``new`` of its
    statement (by textual position) that sees the same loop values, the
    k-th such for the k-th; ``new`` must run exactly those."""

    def instances(accesses) -> Dict[Tuple, List[int]]:
        runs = {a.time: a for access_list in accesses.values() for a in access_list}
        times: Dict[Tuple, List[int]] = {}
        for time in sorted(runs):
            key = (runs[time].stmt_index, tuple(sorted(dict(runs[time].itervec).items())))
            times.setdefault(key, []).append(time)
        return times

    old_runs, new_runs = instances(old), instances(new)
    if {k: len(v) for k, v in old_runs.items()} != {k: len(v) for k, v in new_runs.items()}:
        return False
    moved = {t: new_runs[key][rank] for key, ts in old_runs.items() for rank, t in enumerate(ts)}
    # a pair is reversed iff its later access moves before the latest
    # earlier access it conflicts with; one instance's accesses move together
    for access_list in old.values():
        latest = latest_write = -1
        for a in access_list:
            if moved[a.time] < (latest if a.is_write else latest_write):
                return False
            latest = max(latest, moved[a.time])
            if a.is_write:
                latest_write = max(latest_write, moved[a.time])
    return True


# ---------------------------------------------------------------------------
# Every question asked
# ---------------------------------------------------------------------------

#: the modules that ask :func:`carrying_loops`
ASKERS = (batch, jit_lower, thread_grouping)


def _perfbench_serve_space():
    """The ``SERVE_SPACE`` tuple of ``perfbench/workloads.py``, read from
    its source: importing that module would import perfbench's ``gate``,
    ``speed`` and ``tracing`` too."""
    source = (Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SERVE_SPACE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/workloads.py assigns no SERVE_SPACE")


#: the four configurations a serve set-up searches
SERVE_SPACE = _perfbench_serve_space()
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
    as the ``(before, after, wrappers)`` of a memo miss of
    :func:`_order_kept`."""
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

    def recording_order(before, after, wrappers):
        orders.append(([node.clone() for node in before], [node.clone() for node in after], wrappers))
        return order(before, after, wrappers)

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
    """What :func:`carrying_loops` answers, from one scalar trace of
    ``body`` on its :func:`sized` domain."""
    (body,), ranged, extent = sized(body)
    return scalar_carrying(body, ranged + wrappers, asked, extent)


@pytest.fixture(scope="module")
def questions():
    return record_questions()


def test_every_traced_body_matches_the_scalar_trace(questions):
    carrying, orders = questions
    assert len(carrying) > 100
    assert orders
    for index, (question, answer) in enumerate(carrying):
        assert answer == scalar_carrying_loops(*question), index
    for index, (before, after, wrappers) in enumerate(orders):
        assert _order_kept(before, after, wrappers) == scalar_order_kept(before, after), index


# ---------------------------------------------------------------------------
# Random small nests
# ---------------------------------------------------------------------------


def shadowing(draw, outer):
    """Maybe one loop reusing the innermost ``outer`` loop's name."""
    if not draw(st.booleans()):
        return []
    return [
        Loop(outer[-1], lower(draw, outer), upper(draw, outer, NEAR), nodes(draw, outer, 1, reach=NEAR))
    ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nest=nests(reach=NEAR))
def test_random_nests_match_the_scalar_trace(nest):
    body, _, _ = nest
    every = range(len(list(_depths(body, 0))))
    assert _trace_carrying(body, 0, every) == scalar_carrying_loops(body, 0, every)
    # the one pass answers what the pairs do; size 3 keeps the pairs few
    assert scalar_carrying(body, 0, every, 3) == paired_carrying(body, 0, every, 3)


@st.composite
def fusions(draw):
    """Two loops over one domain, each body maybe shadowing ``i``."""
    lo, hi = lower(draw, []), upper(draw, [], NEAR)
    first = nodes(draw, ["i"], 2, reach=NEAR) + shadowing(draw, ["i"])
    second = nodes(draw, ["i"], 2, reach=NEAR) + shadowing(draw, ["i"])
    return Loop("i", lo, hi, first), Loop("i", lo, hi, second)


def backward(accesses, first, shells) -> bool:
    """Whether, in one iteration of the ``shells`` outermost loops of a
    fused trace's ``accesses``, an access of a statement at textual
    position ``first`` or later comes before an access to its cell of an
    earlier statement, one of them writing: a dependence from the second
    body to the first."""
    for group in accesses.values():
        seen: Dict[Tuple, Tuple[bool, bool]] = {}  # shell values -> second body's (access, write)
        for a in group:
            accessed, written = seen.get(a.itervec[:shells], (False, False))
            if a.stmt_index >= first:
                seen[a.itervec[:shells]] = (True, written or a.is_write)
            elif written or (accessed and a.is_write):
                return True
    return False


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=fusions())
def test_random_fusions_match_the_scalar_pairs(case):
    """Fusion is legal iff no pair is reversed, iff the fused trace has no
    dependence from a second-loop statement to a first-loop one."""
    a, b = case
    fused = Loop("i", a.lower, a.upper, a.body + b.body)
    legal = fusion_legal(a, b)
    (unfused, fused), ranged, extent = sized([a, b], [fused])
    traced = scalar_accesses(fused, extent)
    assert legal == order_kept(scalar_accesses(unfused, extent), traced)
    assert legal == (not backward(traced, len(list(iter_statements(a.body))), ranged))


@st.composite
def interchanges(draw):
    """``(nest, enclosing)``: a rectangular ``i``/``j`` pair, its body
    maybe shadowing ``j``, inside 0-2 single-loop shells whose variables
    its bounds, guards and indices use."""
    names = ["w0", "w1"][: draw(st.integers(0, 2))]
    body = nodes(draw, names + ["i", "j"], 1, reach=NEAR) + shadowing(draw, names + ["i", "j"])
    inner = Loop("j", lower(draw, names), upper(draw, names, NEAR), body)
    nest = Loop("i", lower(draw, names), upper(draw, names, NEAR), [inner])
    enclosing = [
        Loop(name, lower(draw, names[:d]), upper(draw, names[:d], NEAR), [])
        for d, name in enumerate(names)
    ]
    for shell, kid in zip(enclosing, enclosing[1:] + [nest]):
        shell.body = [kid]
    return nest, enclosing


def crossing(accesses, shells) -> bool:
    """Whether, in one iteration of the ``shells`` outermost loops of a
    trace's ``accesses``, two accesses to one cell, one of them writing,
    run in the direction (<, >) on the two loops below them."""
    for group in accesses.values():
        runs: Dict[Tuple, List] = {}
        for a in group:
            runs.setdefault(a.itervec[:shells], []).append(a)
        for run in runs.values():
            run.sort(key=lambda a: a.itervec[shells][1])
            # the largest second-loop value at a smaller first-loop value
            most = most_written = float("-inf")
            for _, same in groupby(run, key=lambda a: a.itervec[shells][1]):
                same = [(a.itervec[shells + 1][1], a.is_write) for a in same]
                if any(j < (most if w else most_written) for j, w in same):
                    return True
                most = max([most] + [j for j, _ in same])
                most_written = max([most_written] + [j for j, w in same if w])
    return False


#: the most statement instances the interchange property's scalar
#: reference traces per order; past it the example is discarded (the
#: sized domain of coprime loop steps can reach gigabytes of accesses)
MAX_INTERCHANGE_INSTANCES = 200_000


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
    legal = interchange_legal(nest, enclosing)
    (before, after), ranged, extent = sized(wrap([nest], wrappers), wrap([swapped], wrappers))
    try:
        traced = scalar_accesses(before, extent, MAX_INTERCHANGE_INSTANCES)
        traced_after = scalar_accesses(after, extent, MAX_INTERCHANGE_INSTANCES)
    except OverflowError:
        assume(False)
    assert legal == order_kept(traced, traced_after)
    if "j" not in {loop.var for loop in iter_loops(inner.body)}:
        assert legal == (not crossing(traced, ranged + len(wrappers)))


def test_shared_names_and_in_place_update():
    """Sibling ``tx`` loops compare as one loop; ``C[i] += C[i]`` touches
    one cell per instance, so no loop carries it."""
    stmt = Assign(ArrayRef("C", ["tx"]), ArrayRef("C", ["tx"]), "+=")
    copy = Assign(ArrayRef("D", ["tx"]), ArrayRef("C", [AffineExpr({"tx": 1}, 1)]))
    body = [Loop("tx", 0, 4, [stmt]), Barrier(), Loop("tx", 0, 3, [copy])]
    deps = scalar_dependences(body, 6)
    assert Dependence("anti", "C", 0, 0, ("=",)) in deps
    assert Dependence("flow", "C", 0, 1, (">",)) in deps
    assert _trace_carrying(body, 0, (0, 1)) == scalar_carrying_loops(body, 0, (0, 1)) == frozenset()
    assert not fusion_legal(Loop("tx", 0, 4, [stmt]), Loop("tx", 0, 4, [copy]))


def test_shadowed_loop_compares_the_innermost_source_loop():
    """An inner loop reusing its parent's name: each statement sees the
    innermost value, for carrying, fusion and interchange alike."""
    outer = Assign(ArrayRef("A", ["i"]), Const(1.0))
    inner = Assign(ArrayRef("A", ["i"]), ArrayRef("A", [AffineExpr({"i": 1}, 1)]), "+=")
    body = [Loop("i", 0, 3, [outer, Loop("i", 0, 3, [inner])])]
    assert _trace_carrying(body, 0, (0, 1)) == scalar_carrying_loops(body, 0, (0, 1))
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
    body = nodes(draw, names + ["n"], 2, reach=NEAR)
    nest = Loop("n", lower(draw, names), upper(draw, names, NEAR), body)
    enclosing = []
    for depth, name in enumerate(names):
        enclosing.append(Loop(name, lower(draw, names[:depth]), upper(draw, names[:depth], NEAR), []))
    for shell, inner in zip(enclosing, enclosing[1:] + [nest]):
        shell.body = [inner]
    return nest, enclosing


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=enclosed_nests())
def test_random_wrapped_nests_match_the_scalar_carrying(case):
    nest, enclosing = case
    loops = [loop for loop, _ in _depths([nest], 0)]
    body, every = enclosing[:1] or [nest], range(len(loops))
    assert _trace_carrying(body, len(enclosing), every) == scalar_carrying_loops(
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


@st.composite
def running_nests(draw):
    """``(nest, enclosing)``: a loop nest inside 0-2 single-loop shells
    that each run at least once for every value of the loops around them
    and of the sizes; the nest's bounds, guards and indices use them."""
    names = ["w0", "w1"][: draw(st.integers(0, 2))]
    nest = Loop("n", lower(draw, names), upper(draw, names), nodes(draw, names + ["n"], 1))
    enclosing = []
    for depth, name in enumerate(names):
        start = {draw(st.sampled_from(names[:depth])): 1} if depth and draw(st.booleans()) else {}
        lo = AffineExpr(start, draw(st.integers(0, 2)))
        span = draw(
            st.one_of(
                st.integers(1, 8).map(AffineExpr.constant),
                st.sampled_from(SIZES).map(AffineExpr.variable),
            )
        )
        enclosing.append(Loop(name, lo, lo + span, [], step=draw(st.integers(1, 8))))
    for shell, inner in zip(enclosing, enclosing[1:] + [nest]):
        shell.body = [inner]
    return nest, enclosing


#: the most statement instances the brute-force property traces at one
#: size value; past it the example is discarded
MAX_INSTANCES = 5_000


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=running_nests())
def test_one_sized_trace_finds_what_every_size_finds(case):
    """:func:`carrying_loops` answers exactly the loops a scalar trace of
    the nest in all its enclosing loops shows carrying at some size value
    from 1 to 2S, S being the extent of the traced body: no larger size
    shows more, and the enclosing loops left out hide nothing."""
    nest, enclosing = case
    loops = [loop for loop, _ in _depths([nest], 0)]
    every = range(len(loops))
    extent, _ = dependence._sizing(wrapped(nest, enclosing)[0])
    body = enclosing[:1] or [nest]
    try:  # the largest size first: it is the one to exceed the limit
        union = frozenset().union(
            *(
                scalar_carrying(body, len(enclosing), every, size, MAX_INSTANCES)
                for size in range(2 * extent, 0, -1)
            )
        )
    except OverflowError:
        assume(False)
    assert {i for i, loop in enumerate(loops) if loop in carrying_loops(nest, enclosing)} == union
