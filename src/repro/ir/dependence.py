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

BLAS3 nests are tiny, so an exhaustive trace with every free size symbol
at :data:`_TRACE_SIZE` shows their dependence *patterns*; a name that
can change the answer runs over a range instead (:func:`_wrappers`).
The trace is array-shaped: each statement's instances are enumerated one
loop level at a time as NumPy integer columns, every reference evaluates
to index columns, and both questions group the accesses by cell with
sorts instead of pairing them.

The auto-tuner translates every composed script under every tuning
config, and the legality checks see the same handful of loop nests
thousands of times with only their (global-counter) labels changed.
Every answer is therefore memoized process-wide, keyed on the label-free
structural encoding of the traced bodies (:mod:`repro.ir.fingerprint`)
plus the question; :func:`clear_cache` empties the memo and
:func:`repro.jit.clear_cache` calls it, so a cold reset is really cold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .affine import AffineExpr, MaxExpr, MinExpr
from .ast import Assign, ArrayRef, Barrier, Guard, Loop, Node
from .fingerprint import UnsupportedIR, encode_body
from .visitors import iter_loops, walk

__all__ = ["carrying_loops", "clear_cache", "fusion_legal", "interchange_legal"]

#: the value of every free size symbol in a trace, and the top of the
#: range a size symbol that can change the answer runs over
_TRACE_SIZE = 6


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


def _collect_statements(body: Sequence[Node]) -> List[Assign]:
    out: List[Assign] = []

    def rec(nodes: Sequence[Node]) -> None:
        for node in nodes:
            if isinstance(node, Assign):
                out.append(node)
            elif isinstance(node, Loop):
                rec(node.body)
            elif isinstance(node, Guard):
                rec(node.body)
                rec(node.else_body)

    rec(body)
    return out


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
) -> None:
    """Append a :class:`_Block` per statement reached under ``n`` rows.

    Each child extends the order key with its position, and a loop also
    with its value, so a lexsort of the keys is execution order.  Guards
    trace the body, then the else branch, with no predicate evaluated.
    """
    scope = {**symbols, **dict(loops)}  # an inner loop shadows an outer one
    for pos, node in enumerate(body):
        if isinstance(node, Assign):
            out.append(_Block(node, n, keys + [pos], loops, scope))
        elif isinstance(node, Loop):
            lo = _evaluate(node.lower, scope, n)
            span = np.maximum(_evaluate(node.upper, scope, n) - lo, 0)
            trips = (span + node.step - 1) // node.step
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
            )
        elif isinstance(node, Guard):
            for branch, nodes in enumerate((node.body, node.else_body)):
                _enumerate(nodes, symbols, n, keys + [pos, branch], loops, out)
        elif not isinstance(node, Barrier):  # pragma: no cover - defensive
            raise TypeError(f"cannot trace node {node!r}")


def _instances(body: Sequence[Node]) -> List[_Block]:
    """The statement instances of ``body``, its free symbols at
    :data:`_TRACE_SIZE`."""
    free: Set[str] = set()
    for node in body:
        free |= _free_symbols(node)
    blocks: List[_Block] = []
    _enumerate(body, dict.fromkeys(free - _loop_vars(body), _TRACE_SIZE), 1, [], [], blocks)
    return blocks


def _times(blocks: Sequence[_Block]) -> List[np.ndarray]:
    """Each block's instances' positions in execution order."""
    sizes = [blk.n for blk in blocks]
    keys = np.zeros((max(len(blk.keys) for blk in blocks), sum(sizes)), dtype=np.int64)
    at = 0
    for blk in blocks:
        for level, key in enumerate(blk.keys):
            keys[level, at : at + blk.n] = key
        at += blk.n
    time = np.empty(at, dtype=np.int64)
    time[np.lexsort(keys[::-1])] = np.arange(at)
    return np.split(time, np.cumsum(sizes)[:-1])


def _reference_columns(blocks: Sequence[_Block]) -> List[Tuple[int, str, bool, List[np.ndarray]]]:
    """``(block, array, is_write, indices)`` for each statement's reads,
    then its write: the index values each instance touches."""
    return [
        (b, r.array, is_write, [_evaluate(i, blk.scope, blk.n) for i in r.indices])
        for b, blk in enumerate(blocks)
        for is_write, group in ((False, blk.stmt.reads()), (True, blk.stmt.writes()))
        for r in group
    ]


def _accesses(
    blocks: Sequence[_Block], tail: Callable[[int], List[np.ndarray]]
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(width, accesses, writes, owner)``: every access of a non-empty
    trace as a column of ``accesses`` (its (array, rank) code, then its
    indices zero-padded to the highest rank: ``width`` rows naming the
    cell; then the rows ``tail(block)`` gives for the block's instances,
    zero-padded), whether it writes, and its block."""
    refs = _reference_columns(blocks)
    width = 1 + max(len(columns) for *_, columns in refs)
    tails = [tail(b) for b in range(len(blocks))]
    height = width + max(map(len, tails))
    arrays: Dict[Tuple[str, int], int] = {}
    matrices = []
    for b, array, _, columns in refs:
        extra = tails[b]
        matrix = np.zeros((height, blocks[b].n), dtype=np.int64)
        matrix[0] = arrays.setdefault((array, len(columns)), len(arrays))
        if columns:
            matrix[1 : 1 + len(columns)] = columns
        if extra:
            matrix[width : width + len(extra)] = extra
        matrices.append(matrix)
    writes = np.concatenate([np.full(blocks[b].n, w) for b, _, w, _ in refs])
    owner = np.concatenate([np.full(blocks[b].n, b) for b, *_ in refs])
    return width, np.concatenate(matrices, axis=1), writes, owner


def _runs(rows: np.ndarray) -> np.ndarray:
    """The first column of each run of equal columns of ``rows``."""
    change = np.any(rows[:, 1:] != rows[:, :-1], axis=0)
    return np.concatenate(([0], np.flatnonzero(change) + 1))


def _free_symbols(node: Node) -> Set[str]:
    free: Set[str] = set()
    if isinstance(node, Assign):
        for r in node.all_refs():
            for idx in r.indices:
                free |= set(idx.free_vars())
    elif isinstance(node, Loop):
        free |= set(node.lower.free_vars()) | set(node.upper.free_vars())
        for child in node.body:
            free |= _free_symbols(child)
    elif isinstance(node, Guard):
        for child in node.body + node.else_body:
            free |= _free_symbols(child)
    return free


def _loop_vars(body: Sequence[Node]) -> Set[str]:
    out: Set[str] = set()

    def rec(nodes: Sequence[Node]) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                out.add(node.var)
                rec(node.body)
            elif isinstance(node, Guard):
                rec(node.body)
                rec(node.else_body)

    rec(body)
    return out


# ---------------------------------------------------------------------------
# What a trace must enumerate
# ---------------------------------------------------------------------------


def _wrappers(body: Sequence[Node], enclosing: Sequence[Loop]) -> List[Loop]:
    """The loops a trace of ``body`` inside the ``enclosing`` loops
    (outermost first) must wrap it in.

    A name can change the answer when a bound in ``body`` uses it (the
    trip counts change with it) or when one array's references scale it
    unequally where one of them is a write (the cells' overlap changes
    with it).  Such an enclosing loop is kept, plus, transitively, the
    enclosing loops its bounds use; a size symbol scaled unequally
    becomes one more loop, outermost, running 1.. :data:`_TRACE_SIZE`.
    A name that shifts every reference to an array equally cannot change
    which instances meet, so it stays pinned and the trace stays small.
    Guard predicates are not listed: the trace runs both branches
    without evaluating them.
    """
    outer = [loop.var for loop in enclosing]
    needed: Set[str] = set()
    inner: Set[str] = set()
    refs: Dict[str, List[Tuple[ArrayRef, bool]]] = {}
    for node in walk(body):
        if isinstance(node, Loop):
            inner.add(node.var)
            needed |= _bound_vars(node)
        elif isinstance(node, Assign):
            for is_write, group in ((False, node.reads()), (True, node.writes())):
                for ref in group:
                    refs.setdefault(ref.array, []).append((ref, is_write))
    indexed = {
        name
        for group in refs.values()
        for ref, _ in group
        for index in ref.indices
        for name in index.free_vars()
    }
    sizes = sorted(indexed - inner - set(outer))
    scaled: Set[str] = set()
    for group in refs.values():
        if any(is_write for _, is_write in group):
            for name in outer + sizes:
                if len({tuple(index.coeff(name) for index in ref.indices) for ref, _ in group}) > 1:
                    scaled.add(name)
    needed |= scaled
    for loop in reversed(enclosing):
        if loop.var in needed:
            needed |= _bound_vars(loop)
    return [Loop(name, 1, _TRACE_SIZE + 1, [], label=name) for name in sizes if name in scaled] + [
        loop for loop in enclosing if loop.var in needed
    ]


def _wrap(body: Sequence[Node], wrappers: Sequence[Loop]) -> List[Node]:
    """``body`` inside fresh copies of the ``wrappers`` (outermost first)."""
    body = list(body)
    for loop in reversed(wrappers):
        body = [Loop(loop.var, loop.lower, loop.upper, body, label=loop.label, step=loop.step)]
    return body


def _shells(wrappers: List[Loop]) -> Tuple[List[Loop], ...]:
    """The wrappers each trace of a question runs under: ``wrappers``,
    and when there are any, none (every name pinned at the trace size).
    The wrapped trace runs an enclosing tile loop whose step exceeds the
    trace size once or not at all, so the pinned trace samples values it
    misses."""
    return (wrappers, []) if wrappers else ([],)


def _bound_vars(loop: Loop) -> Set[str]:
    return set(loop.lower.free_vars()) | set(loop.upper.free_vars())


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
    writes it.  One trace per shell (:func:`_shells`) of
    :func:`_wrappers` answers for every loop asked about, and a
    dependence any of them shows counts.  Loops :func:`_own_cells`
    proves independent need no trace.
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

    def trace() -> frozenset:
        return frozenset().union(
            *(_trace_carrying(_wrap([nest], shell), len(shell), asked) for shell in _shells(wrappers))
        )

    positions = _memoized(_wrap([nest], wrappers), ("carrying", len(wrappers), asked), trace)
    return {loops[i] for i in positions}


def _trace_carrying(body: Sequence[Node], wrappers: int, asked: Sequence[int]) -> frozenset:
    """Which of the ``asked`` pre-order positions hold a loop that
    carries a dependence in the nest under ``wrappers`` single-loop
    shells of ``body``.

    It groups each loop's accesses by cell and by the values of the
    loops around it: the loop carries a dependence exactly when a group
    holding a write spans two of its values.
    """
    nest = body
    for _ in range(wrappers):
        nest = nest[0].body
    blocks = _instances(body)
    if not blocks:
        return frozenset()
    width, accesses, writes, owner = _accesses(blocks, lambda b: [v for _, v in blocks[b].loops])
    carrying = set()
    for position, (loop, depth) in enumerate(_depths(nest, wrappers)):
        if position not in asked:
            continue
        inside = {id(stmt) for stmt in _collect_statements(loop.body)}
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
    return frozenset(carrying)


def _own_cells(loop: Loop) -> bool:
    """Whether each iteration of ``loop`` provably touches its own cells
    of every array written inside it, so it carries no dependence.

    True when each such array is referenced inside the loop through one
    index tuple, with a subscript that moves with the loop's variable
    and with no loop inside it: two iterations in one iteration of the
    loops around it then differ in that subscript.
    """
    inner = {child.var for child in iter_loops(loop.body)}
    indices: Dict[str, Set[Tuple]] = {}
    statements = _collect_statements(loop.body)
    for stmt in statements:
        for ref in stmt.all_refs():
            indices.setdefault(ref.array, set()).add(ref.indices)
    for array in {stmt.target.array for stmt in statements}:
        if len(indices[array]) > 1:
            return False
        (subscripts,) = indices[array]
        if not any(
            index.coeff(loop.var) and not (index.free_vars() & inner) for index in subscripts
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
    of ``loop_b``, keeps every cell's accesses in order (:func:`_kept`)."""
    rename = {loop_b.var: loop_a.var}
    if loop_a.step != loop_b.step or (loop_a.lower, loop_a.upper) != (
        loop_b.lower.rename(rename),
        loop_b.upper.rename(rename),
    ):
        return False
    second = [_rename_node(child.clone(), rename) for child in loop_b.body]

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
    them, in order (:func:`_order_kept`) under every shell of their
    wrappers (:func:`_shells`).  Memoized."""
    wrappers = _wrappers(before, enclosing)

    def trace() -> bool:
        return all(_order_kept(_wrap(before, shell), _wrap(after, shell)) for shell in _shells(wrappers))

    body = _wrap(before, wrappers) + _wrap(after, wrappers)
    return _memoized(body, ("order", len(before), len(wrappers)), trace)


def _order_kept(before: Sequence[Node], after: Sequence[Node]) -> bool:
    """Whether ``after``, which runs the statements of ``before`` in the
    same textual order, keeps every cell's writes, and the reads between
    them, in ``before``'s order.

    An instance of ``after`` stands for the instance of ``before`` of its
    statement that sees the same loop values (identical instances pair
    up in turn); ``after`` must run exactly those.  Each cell's accesses
    are numbered into write epochs in ``before``'s order: reads before
    the first write are epoch 0, the k-th write (from 0) is epoch 2k+1
    and the reads after it epoch 2k+2.  The
    reordering is legal iff the epochs never decrease in ``after``'s
    order.
    """
    old, new = _instances(before), _instances(after)
    if _statements(before, old) != _statements(after, new):
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


def _statements(body: Sequence[Node], blocks: Sequence[_Block]) -> List[int]:
    """The textual position in ``body`` of each block's statement."""
    index = {id(stmt): i for i, stmt in enumerate(_collect_statements(body))}
    return [index[id(blk.stmt)] for blk in blocks]


def _rename_node(node: Node, mapping: Mapping[str, str]) -> Node:
    subst = {old: AffineExpr.variable(new) for old, new in mapping.items()}
    if isinstance(node, Assign):
        return node.substitute(subst)
    if isinstance(node, Loop):
        node.lower = node.lower.substitute(subst)
        node.upper = node.upper.substitute(subst)
        node.body = [_rename_node(c, mapping) for c in node.body]
        return node
    if isinstance(node, Guard):
        node.body = [_rename_node(c, mapping) for c in node.body]
        node.else_body = [_rename_node(c, mapping) for c in node.else_body]
        return node
    return node
