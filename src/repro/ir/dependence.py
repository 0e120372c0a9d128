"""PolyDeps-like data-dependence analysis.

The composer's filter (paper §IV-B.2) checks every composed transformation
sequence "to ensure that data dependences are satisfied with the PolyDeps
tool".  This module plays that role for our IR.  It traces a nest on a
small concrete domain and answers two questions from that trace:

* **Does this loop carry a dependence?** (:func:`carrying_loops`, asked
  by thread grouping, the batch grid and the JIT's slice axes): do two
  of its own instances, in one iteration of every loop around it, touch
  one cell, one of them writing it?
* **Does this reordering keep every cell's writes, and the reads between
  them, in order?** (:func:`fusion_legal`, :func:`interchange_legal`).

BLAS3 nests are tiny, so one exhaustive trace per question, on a domain
sized from the traced body (:func:`_sizing`, DESIGN.md §9), shows their
dependence *patterns*; only the loops around the nest that can change
the answer are traced (:func:`_wrappers`), one tile at a time
(:func:`_domain`).  The trace is array-shaped: each statement's
instances are enumerated one loop level at a time as NumPy integer
columns, every reference evaluates to index columns, and both questions
group the accesses by cell with sorts instead of pairing them.

The auto-tuner translates every composed script under every tuning
config, and the legality checks see the same handful of loop nests
thousands of times with only their (global-counter) labels changed.
Every answer is therefore memoized process-wide, keyed on the label-free
structural encoding of the traced bodies (:mod:`repro.ir.fingerprint`)
plus the question; :func:`clear_cache` empties the memo and
:func:`repro.jit.clear_cache` calls it, so a cold reset is really cold.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .affine import AffineExpr, MaxExpr, MinExpr, aff
from .ast import Assign, ArrayRef, Barrier, Guard, Loop, Node
from .fingerprint import UnsupportedIR, encode_body
from .visitors import iter_loops, iter_statements, walk

__all__ = ["carrying_loops", "clear_cache", "fusion_legal", "interchange_legal"]

#: the least value of a size symbol in a trace (:func:`_sizing`)
_MIN_EXTENT = 6

#: the most instances one loop level of a trace chunk may enumerate.
#: The BLAS3 nests the tuner asks about enumerate at most 1,024; the
#: lcm extent of nests with coprime steps can ask for billions.  A
#: question past it is not traced and gets the conservative answer:
#: every loop asked about carries, no reordering is kept.
_MAX_LEVEL_INSTANCES = 1 << 22

#: the most index cells (rows x columns) one trace chunk may hold in the
#: loop columns it enumerates, and in any one array it builds from them
#: (the order keys of :func:`_times`, the access matrix of
#: :func:`_accesses`).  Many statements or references under one level
#: multiply its instances: a chunk within the level budget once needed
#: a 13 x 7,334,343 int64 key array.  The BLAS3 questions of the golden
#: spaces hold at most 73,728.  A chunk past it gets the same
#: conservative answer.
_MAX_CHUNK_CELLS = 1 << 24


class _TooLarge(Exception):
    """A trace past :data:`_MAX_LEVEL_INSTANCES` or :data:`_MAX_CHUNK_CELLS`."""


def _within_budget(cells: int) -> None:
    if cells > _MAX_CHUNK_CELLS:
        raise _TooLarge


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------


# structural body encoding x question -> answer
_MEMO: Dict[Tuple, object] = {}
_LOCK = threading.Lock()
_MAX_ENTRIES = 4096  # far above any real workload; a leak backstop, not an LRU


def clear_cache() -> None:
    """Forget every memoized answer."""
    with _LOCK:
        _MEMO.clear()


def _memoized(body: Sequence[Node], question: Tuple, compute):
    """``compute()``, memoized on ``body``'s label-free structure and
    ``question``; bodies the structural encoder rejects are not cached."""
    try:
        key = (encode_body(body), *question)
    except UnsupportedIR:
        return compute()
    with _LOCK:
        result = _MEMO.get(key)
    if result is None:
        result = compute()
        with _LOCK:
            if len(_MEMO) >= _MAX_ENTRIES:
                _MEMO.clear()
            _MEMO[key] = result
    return result


# ---------------------------------------------------------------------------
# The trace
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    """The instances of one statement: ``n`` rows in a shared scope."""

    stmt: Assign
    n: int
    keys: List  # order-key columns: ints (shared by all rows) or arrays
    loops: List[Tuple[str, np.ndarray]]  # enclosing loops, outermost first
    scope: Dict  # name -> int (symbol) or array (loop variable)


def _evaluate(bound, scope: Mapping, n: int) -> np.ndarray:
    """``bound`` (affine, min or max) at each of ``n`` rows."""
    if isinstance(bound, (MinExpr, MaxExpr)):
        pick = np.minimum if isinstance(bound, MinExpr) else np.maximum
        return reduce(pick, (_evaluate(o, scope, n) for o in bound.operands))
    total = np.full(n, bound.offset, dtype=np.int64)
    for name, coeff in bound.terms.items():
        try:
            total += coeff * scope[name]
        except KeyError:
            raise KeyError(f"unbound variable {name!r} while evaluating {bound}") from None
    return total


def _enumerate(
    body: Sequence[Node],
    symbols: Dict[str, int],
    n: int,
    keys: List,
    loops: List[Tuple[str, np.ndarray]],
    out: List[_Block],
    spent: List[int],
) -> None:
    """Append a :class:`_Block` per statement reached under ``n`` rows.

    Each child extends the order key with its position, and a loop also
    with its value, so a lexsort of the keys is execution order.  Guards
    trace the body, then the else branch, with no predicate evaluated.
    ``spent`` tallies the cells of the columns made so far.
    """
    scope = {**symbols, **dict(loops)}  # an inner loop shadows an outer one
    for pos, node in enumerate(body):
        if isinstance(node, Assign):
            out.append(_Block(node, n, keys + [pos], loops, scope))
        elif isinstance(node, Loop):
            lo = _evaluate(node.lower, scope, n)
            span = np.maximum(_evaluate(node.upper, scope, n) - lo, 0)
            trips = (span + node.step - 1) // node.step
            instances = int(trips.sum())
            if instances > _MAX_LEVEL_INSTANCES:
                raise _TooLarge
            # the rows, the value, and every array key and loop column again
            columns = 2 + len(loops) + sum(not isinstance(k, int) for k in keys)
            spent[0] += instances * columns
            _within_budget(spent[0])
            rows = np.repeat(np.arange(n), trips)
            if not len(rows):
                continue
            first = np.cumsum(trips) - trips
            value = lo[rows] + node.step * (np.arange(len(rows)) - first[rows])
            _enumerate(
                node.body,
                symbols,
                len(rows),
                [k if isinstance(k, int) else k[rows] for k in keys] + [pos, value],
                [(name, col[rows]) for name, col in loops] + [(node.var, value)],
                out,
                spent,
            )
        elif isinstance(node, Guard):
            for branch, nodes in enumerate((node.body, node.else_body)):
                _enumerate(nodes, symbols, n, keys + [pos, branch], loops, out, spent)
        elif not isinstance(node, Barrier):  # pragma: no cover - defensive
            raise TypeError(f"cannot trace node {node!r}")


def _chunks(body: Sequence[Node], extent: int, cut: int) -> Iterator[List[_Block]]:
    """The statement instances of ``body``, its free symbols at
    ``extent``, as one list of blocks per iteration of its ``cut``
    outermost loops (each its parent's only node)."""
    symbols = dict.fromkeys(_symbols(body), extent)

    def descend(nodes, keys, loops) -> Iterator[List[_Block]]:
        if len(loops) == cut:
            blocks: List[_Block] = []
            _enumerate(nodes, symbols, 1, keys, loops, blocks, [0])
            yield blocks
            return
        (loop,) = nodes
        scope = {**symbols, **dict(loops)}
        lo, hi = (int(_evaluate(bound, scope, 1)[0]) for bound in (loop.lower, loop.upper))
        for value in range(lo, hi, loop.step):
            yield from descend(loop.body, keys + [0, value], loops + [(loop.var, np.array([value]))])

    return descend(body, [], [])


def _times(blocks: Sequence[_Block]) -> List[np.ndarray]:
    """Each block's instances' positions in execution order."""
    sizes = [blk.n for blk in blocks]
    levels = max(len(blk.keys) for blk in blocks)
    _within_budget(levels * sum(sizes))
    keys = np.zeros((levels, sum(sizes)), dtype=np.int64)
    at = 0
    for blk in blocks:
        for level, key in enumerate(blk.keys):
            keys[level, at : at + blk.n] = key
        at += blk.n
    time = np.empty(at, dtype=np.int64)
    time[np.lexsort(keys[::-1])] = np.arange(at)
    return np.split(time, np.cumsum(sizes)[:-1])


def _accesses(
    blocks: Sequence[_Block], tail: Callable[[int], List[np.ndarray]]
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(width, accesses, writes, owner)``: every access of a non-empty
    trace (each statement's reads, then its write) as a column of
    ``accesses`` (its (array, rank) code, then its indices zero-padded to
    the highest rank: ``width`` rows naming the cell; then the rows
    ``tail(block)`` gives for the block's instances, zero-padded),
    whether it writes, and its block."""
    refs = [
        (b, ref, is_write)
        for b, blk in enumerate(blocks)
        for is_write, group in ((False, blk.stmt.reads()), (True, blk.stmt.writes()))
        for ref in group
    ]
    width = 1 + max(len(ref.indices) for _, ref, _ in refs)
    tails = [tail(b) for b in range(len(blocks))]
    sizes = [blocks[b].n for b, _, _ in refs]
    height = width + max(map(len, tails))
    _within_budget(height * sum(sizes))
    accesses = np.zeros((height, sum(sizes)), dtype=np.int32)
    arrays: Dict[Tuple[str, int], int] = {}
    at = 0
    for (b, ref, _), n in zip(refs, sizes):
        column = accesses[:, at : at + n]
        column[0] = arrays.setdefault((ref.array, len(ref.indices)), len(arrays))
        for row, index in enumerate(ref.indices, 1):
            column[row] = _evaluate(index, blocks[b].scope, n)
        for row, values in enumerate(tails[b], width):
            column[row] = values
        at += n
    writes = np.repeat([is_write for _, _, is_write in refs], sizes)
    owner = np.repeat([b for b, _, _ in refs], sizes)
    return width, accesses, writes, owner


def _runs(rows: np.ndarray) -> np.ndarray:
    """The first column of each run of equal columns of ``rows``."""
    change = np.any(rows[:, 1:] != rows[:, :-1], axis=0)
    return np.concatenate(([0], np.flatnonzero(change) + 1))


def _symbols(body: Sequence[Node]) -> Set[str]:
    """The names ``body``'s bounds and subscripts use that no loop in it
    binds: its size symbols, and the variables of loops around it."""
    free, bound = set(), set()
    for node in walk(body):
        if isinstance(node, Loop):
            bound.add(node.var)
            free |= _bound_vars(node)
        elif isinstance(node, Assign):
            for ref in node.all_refs():
                for index in ref.indices:
                    free |= index.free_vars()
    return free - bound


def _bound_vars(loop: Loop) -> Set[str]:
    return set(loop.lower.free_vars()) | set(loop.upper.free_vars())


def _operands(bound) -> Iterator[AffineExpr]:
    """The affine pieces of a (min/max) bound."""
    if isinstance(bound, (MinExpr, MaxExpr)):
        for operand in bound.operands:
            yield from _operands(operand)
    else:
        yield bound


# ---------------------------------------------------------------------------
# What a trace must enumerate
# ---------------------------------------------------------------------------


def _scaled(body: Sequence[Node]) -> Set[str]:
    """The names some written array's references in ``body`` scale
    unequally: the overlap of that array's cells changes with them."""
    refs: Dict[str, List[Tuple[ArrayRef, bool]]] = {}
    for stmt in iter_statements(body):
        for is_write, group in ((False, stmt.reads()), (True, stmt.writes())):
            for ref in group:
                refs.setdefault(ref.array, []).append((ref, is_write))
    scaled: Set[str] = set()
    for group in refs.values():
        if any(is_write for _, is_write in group):
            names = {name for ref, _ in group for index in ref.indices for name in index.free_vars()}
            for name in names:
                if len({tuple(index.coeff(name) for index in ref.indices) for ref, _ in group}) > 1:
                    scaled.add(name)
    return scaled


def _wrappers(body: Sequence[Node], enclosing: Sequence[Loop]) -> List[Loop]:
    """The loops of ``enclosing`` (outermost first) a trace of ``body``
    inside them must wrap it in: those whose variable a bound in
    ``body`` uses or :func:`_scaled` lists, plus, transitively, the ones
    their bounds use.  Every other enclosing variable shifts each
    array's references equally, so it stays a pinned symbol.  Guard
    predicates are not listed: the trace runs both branches.
    """
    needed = _scaled(body).union(*map(_bound_vars, iter_loops(body)))
    for loop in reversed(enclosing):
        if loop.var in needed:
            needed |= _bound_vars(loop)
    return [loop for loop in enclosing if loop.var in needed]


def _sizing(body: Sequence[Node]) -> Tuple[int, List[Loop]]:
    """``(extent, ranged)``: the value S of every size symbol in a trace
    of ``body``, and one loop over 1..S, outermost, per size symbol that
    can change the answer either way (DESIGN.md §9 states the rule and
    why pinning the others at S is exact)."""
    steps, offsets, starts, shrink, ranged = [1], [], [0], [0], _scaled(body)
    variables = {loop.var for loop in iter_loops(body)}
    indices = [index for stmt in iter_statements(body) for r in stmt.all_refs() for index in r.indices]
    for node in walk(body):
        if isinstance(node, Loop):
            # a subscript that scales the loop by c moves c steps per iteration
            steps += [node.step * max(1, abs(index.coeff(node.var))) for index in [*indices, aff(0)]]
            lower, upper = list(_operands(node.lower)), list(_operands(node.upper))
            # both ends closing in on each other as an enclosing loop grows
            closing = [(e.coeff(v), f.coeff(v)) for v in variables for e in lower for f in upper]
            shrink += [up - down for up, down in closing if up > 0 > down]
            for is_upper, bound in ((False, node.lower), (True, node.upper)):
                for expr in _operands(bound):
                    offsets.append(expr.offset)
                    ranged |= {n for n, coeff in expr.terms.items() if not is_upper or coeff < 0}
                    if not is_upper:
                        starts.append(expr.offset)
    offsets += [index.offset for index in indices]
    span = max(offsets, default=0) - min(offsets, default=0)
    # the references' cells repeat their pattern together every lcm of the steps
    extent = max(_MIN_EXTENT, 1 + math.lcm(*steps), 1 + span) + max(starts) + _lag(body, {})
    extent *= max(1, max(shrink))
    ranged &= _symbols(body)
    return extent, [Loop(name, 1, extent + 1, [], label=name) for name in sorted(ranged)]


def _lag(body: Sequence[Node], behind: Dict[str, int]) -> int:
    """How far short of the extent a loop of ``body`` can end because
    its trip count moves with the variable of a loop around it: its step
    plus how far short, and one step of, that loop (``behind`` maps each
    enclosing variable to that sum), at most."""
    lag = 0
    for node in body:
        if isinstance(node, Loop):
            lower, upper = list(_operands(node.lower)), list(_operands(node.upper))
            moved = [
                behind[name]
                for name in _bound_vars(node) & behind.keys()
                if {e.coeff(name) for e in lower} != {e.coeff(name) for e in upper}
            ]
            own = node.step + max(moved) if moved else 0
            lag = max(lag, own, _lag(node.body, {**behind, node.var: own + node.step}))
        elif isinstance(node, Guard):
            lag = max(lag, _lag(node.body + node.else_body, behind))
    return lag


def _domain(bodies: Sequence[Sequence[Node]], wrappers: int) -> Tuple[List, int, int, int]:
    """``(traced, shells, extent, cut)``: ``bodies`` (under ``wrappers``
    single-loop shells) in the ranged loops of :func:`_sizing`, their
    shell count, the extent, and how many outer shells a trace is cut
    by: down to the innermost of step > 1, which is exact (§9)."""
    extent, ranged = _sizing([node for body in bodies for node in body])
    traced = [_wrap(body, ranged) for body in bodies]
    shells = len(ranged) + wrappers
    steps = [loop.step for loop, _ in list(_depths(traced[0], 0))[:shells]]
    cut = max((depth + 1 for depth, step in enumerate(steps) if step > 1), default=0)
    return traced, shells, extent, cut


def _wrap(body: Sequence[Node], wrappers: Sequence[Loop]) -> List[Node]:
    """``body`` inside fresh copies of the ``wrappers`` (outermost first)."""
    body = list(body)
    for loop in reversed(wrappers):
        body = [Loop(loop.var, loop.lower, loop.upper, body, label=loop.label, step=loop.step)]
    return body


# ---------------------------------------------------------------------------
# Does this loop carry a dependence?
# ---------------------------------------------------------------------------


def carrying_loops(
    nest: Loop, enclosing: Sequence[Loop] = (), among: Optional[Sequence[Loop]] = None
) -> Set[Loop]:
    """The loops of ``among`` (by default every loop of ``nest``, itself
    included; compared by identity) that carry a dependence when
    ``nest`` runs inside the ``enclosing`` loops (outermost first).

    A loop carries a dependence when two of its own instances, in one
    iteration of every loop around it, touch one cell and one of them
    writes it.  One trace of ``nest`` in its :func:`_wrappers` answers
    for every loop asked about.  Loops :func:`_own_cells` proves
    independent need no trace.
    """
    loops = [loop for loop, _ in _depths([nest], 0)]
    wanted = None if among is None else {id(loop) for loop in among}
    asked = tuple(
        i
        for i, loop in enumerate(loops)
        if (wanted is None or id(loop) in wanted) and not _own_cells(loop)
    )
    if not asked:
        return set()
    wrappers = _wrappers([nest], enclosing)
    body = _wrap([nest], wrappers)
    positions = _memoized(
        body, ("carrying", len(wrappers), asked), lambda: _trace_carrying(body, len(wrappers), asked)
    )
    return {loops[i] for i in positions}


def _trace_carrying(body: Sequence[Node], wrappers: int, asked: Sequence[int]) -> frozenset:
    """Which of the ``asked`` pre-order positions hold a loop that
    carries a dependence in the nest under ``wrappers`` single-loop
    shells of ``body``, traced once on its :func:`_domain`.

    It groups each loop's accesses by cell and by the values of the
    loops around it: the loop carries a dependence exactly when a group
    holding a write spans two of its values.
    """
    (body,), shells, extent, cut = _domain([body], wrappers)
    loops = list(_depths(body, 0))[shells:]  # the shells come first
    carrying: Set[int] = set()
    try:
        for blocks in _chunks(body, extent, cut):
            if blocks:
                carrying |= _carried(blocks, loops, [i for i in asked if i not in carrying])
            if carrying.issuperset(asked):
                break
    except _TooLarge:
        return frozenset(asked)
    return frozenset(carrying)


def _carried(blocks: Sequence[_Block], loops: Sequence, asked: Sequence[int]) -> Set[int]:
    """Which ``asked`` positions of ``loops`` (``(loop, depth)`` in pre
    order) carry a dependence among the instances in ``blocks``."""
    width, accesses, writes, owner = _accesses(blocks, lambda b: [v for _, v in blocks[b].loops])
    carrying = set()
    for position in asked:
        loop, depth = loops[position]
        inside = {id(stmt) for stmt in iter_statements(loop.body)}
        picked = np.isin(owner, [b for b, blk in enumerate(blocks) if id(blk.stmt) in inside])
        if not np.any(writes[picked]):
            continue
        # group by cell, then by the values of the loops around this one
        group = accesses[: width + depth + 1, picked]
        order = np.lexsort(group[width + depth - 1 :: -1])
        group, written = group[:, order], writes[picked][order]
        starts = _runs(group[:-1])
        value = group[-1]
        spread = np.minimum.reduceat(value, starts) != np.maximum.reduceat(value, starts)
        if np.any(spread & np.logical_or.reduceat(written, starts)):
            carrying.add(position)
    return carrying


def _own_cells(loop: Loop) -> bool:
    """Whether each iteration of ``loop`` provably touches its own cells
    of every array written inside it, so it carries no dependence.

    True when every reference inside the loop to each such array shares
    one subscript: the same affine index at the same position, one that
    moves with the loop's variable and reads no loop inside it.  Two
    iterations in one iteration of the loops around it then differ in
    that subscript.
    """
    inner = {child.var for child in iter_loops(loop.body)}
    refs: Dict[str, List[ArrayRef]] = {}
    statements = list(iter_statements(loop.body))
    for stmt in statements:
        for ref in stmt.all_refs():
            refs.setdefault(ref.array, []).append(ref)
    for array in {stmt.target.array for stmt in statements}:
        first, *rest = refs[array]
        if not any(
            index.coeff(loop.var)
            and not (index.free_vars() & inner)
            and all(at < len(ref.indices) and ref.indices[at] == index for ref in rest)
            for at, index in enumerate(first.indices)
        ):
            return False
    return True


def _depths(body: Sequence[Node], depth: int):
    """``(loop, depth)`` for every loop in ``body``, whose own loops sit
    at ``depth``."""
    for node in body:
        if isinstance(node, Loop):
            yield node, depth
            yield from _depths(node.body, depth + 1)
        elif isinstance(node, Guard):
            yield from _depths(node.body + node.else_body, depth)


# ---------------------------------------------------------------------------
# Does this reordering keep every cell's accesses in order?
# ---------------------------------------------------------------------------


def fusion_legal(loop_a: Loop, loop_b: Loop) -> bool:
    """Two adjacent loops over one domain may be fused iff running both
    bodies in each iteration, instead of all of ``loop_a`` and then all
    of ``loop_b``, keeps every cell's accesses in order (:func:`_kept`),
    and no loop inside ``loop_b`` rebinds ``loop_a``'s variable, which
    renaming ``loop_b``'s variable to it would capture."""
    to_a = {loop_b.var: AffineExpr.variable(loop_a.var)}
    if loop_a.step != loop_b.step or (loop_a.lower, loop_a.upper) != (
        loop_b.lower.substitute(to_a),
        loop_b.upper.substitute(to_a),
    ):
        return False
    if loop_b.var != loop_a.var and any(loop.var == loop_a.var for loop in iter_loops(loop_b.body)):
        return False  # the rename would bind ``loop_b``'s variable to that inner loop
    second = [child.substitute(to_a) for child in loop_b.body]

    def loop(body: List[Node]) -> Loop:
        return Loop(loop_a.var, loop_a.lower, loop_a.upper, body, label=loop_a.label, step=loop_a.step)

    return _kept([loop(loop_a.body), loop(second)], [loop(loop_a.body + second)], ())


def interchange_legal(nest: Loop, enclosing: Sequence[Loop] = ()) -> bool:
    """Whether ``nest`` may swap places with the one loop it holds when
    it runs inside the ``enclosing`` loops (outermost first): iff the
    swap keeps every cell's accesses in order (:func:`_kept`).  Only the
    instances of one run of the nest change places, so one run is
    traced, in the wrappers that can change the answer."""
    (inner,) = nest.body
    swapped = Loop(
        inner.var,
        inner.lower,
        inner.upper,
        [Loop(nest.var, nest.lower, nest.upper, inner.body, label=nest.label, step=nest.step)],
        label=inner.label,
        step=inner.step,
    )
    return _kept([nest], [swapped], enclosing)


def _kept(before: List[Node], after: List[Node], enclosing: Sequence[Loop]) -> bool:
    """Whether running ``after`` in place of ``before`` inside the
    ``enclosing`` loops keeps every cell's writes, and the reads between
    them, in order, under the :func:`_wrappers` of ``before``
    (:func:`_order_kept`).  Memoized."""
    wrappers = _wrappers(before, enclosing)
    old, new = _wrap(before, wrappers), _wrap(after, wrappers)
    return _memoized(
        old + new, ("order", len(before), len(wrappers)), lambda: _order_kept(old, new, len(wrappers))
    )


def _order_kept(before: Sequence[Node], after: Sequence[Node], wrappers: int) -> bool:
    """Whether ``after``, which runs the statements of ``before`` in the
    same textual order, keeps every cell's writes, and the reads between
    them, in ``before``'s order, on their :func:`_domain` under the same
    ``wrappers`` single-loop shells, chunk by chunk.

    An instance of ``after`` stands for the instance of ``before`` of its
    statement that sees the same loop values (identical instances pair
    up in turn); ``after`` must run exactly those.  Each cell's accesses
    are numbered into write epochs in ``before``'s order: reads before
    the first write are epoch 0, the k-th write (from 0) is epoch 2k+1
    and the reads after it epoch 2k+2.  The reordering is legal iff the
    epochs never decrease in ``after``'s order.
    """
    (before, after), _, extent, cut = _domain([before, after], wrappers)
    index = [{id(s): i for i, s in enumerate(iter_statements(body))} for body in (before, after)]
    chunks = zip(_chunks(before, extent, cut), _chunks(after, extent, cut))
    try:
        return all(_chunk_kept(index, old, new) for old, new in chunks)
    except _TooLarge:
        return False


def _chunk_kept(index: Sequence[Dict[int, int]], old: List, new: List) -> bool:
    """:func:`_order_kept` for one chunk: the blocks ``old`` of
    ``before`` and ``new`` of ``after``, whose statements ``index`` maps
    (by id) to their textual positions in each."""
    if [index[0][id(blk.stmt)] for blk in old] != [index[1][id(blk.stmt)] for blk in new]:
        return False
    if not old:
        return True
    old_time, new_time = _times(old), _times(new)
    moved = []
    for x, y, x_time, y_time in zip(old, new, old_time, new_time):
        seen, sees = dict(x.loops), dict(y.loops)
        if x.n != y.n or seen.keys() != sees.keys():
            return False
        names = sorted(seen, reverse=True)  # lexsort's last key leads
        ox = np.lexsort([x_time, *(seen[name] for name in names)])
        oy = np.lexsort([y_time, *(sees[name] for name in names)])
        if not all(np.array_equal(seen[name][ox], sees[name][oy]) for name in names):
            return False
        at = np.empty(x.n, dtype=np.int64)
        at[ox] = y_time[oy]
        moved.append(at)
    width, accesses, writes, _ = _accesses(old, lambda b: [old_time[b], moved[b]])
    # each cell's accesses in before's order, reads of an instance first
    order = np.lexsort((writes, accesses[width], *accesses[:width][::-1]))
    accesses, writes = accesses[:, order], writes[order]
    starts = _runs(accesses[:width])
    cell = np.zeros(len(writes), dtype=np.int64)
    cell[starts[1:]] = 1
    cell = np.cumsum(cell)
    earlier = np.cumsum(writes) - writes
    epoch = 2 * (earlier - earlier[starts][cell]) + writes
    order = np.lexsort((writes, accesses[width + 1], cell))
    epoch, cell = epoch[order], cell[order]
    return bool(np.all((np.diff(epoch) >= 0) | (np.diff(cell) != 0)))
