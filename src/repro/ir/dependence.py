"""PolyDeps-like data-dependence analysis.

The composer's filter (paper §IV-B.2) checks every composed transformation
sequence "to ensure that data dependences are satisfied with the PolyDeps
tool".  This module plays that role for our IR with two layers:

* a fast symbolic **GCD test** that can prove independence of a pair of
  affine references, and
* an **exhaustive small-domain checker** that traces the nest on small
  concrete sizes and extracts the exact dependence set with direction
  vectors — the oracle the legality predicates are built on.  BLAS3 nests
  are tiny, so exhaustive extraction at sizes ~6–8 is exact for the
  dependence *patterns* (constant-distance and direction information does
  not change with the sizes involved here).  The trace runs on NumPy
  integer arrays, one row per statement instance or access.

The auto-tuner translates every composed script under every tuning
config, and the legality checks see the same handful of loop nests
thousands of times with only their (global-counter) labels changed.
:func:`analyze_dependences` therefore memoizes its exact result
process-wide, keyed on the label-free structural encoding of the body
(:mod:`repro.ir.fingerprint`) plus the trace domain (``sizes``,
``default_size``); :func:`clear_cache` empties the memo and
:func:`repro.jit.clear_cache` calls it, so a cold reset is really cold.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .affine import AffineExpr, MaxExpr, MinExpr
from .ast import Assign, ArrayRef, Barrier, Guard, Loop, Node
from .fingerprint import UnsupportedIR, encode_body
from .visitors import iter_loops, walk

__all__ = [
    "Dependence",
    "gcd_test",
    "banerjee_test",
    "may_alias",
    "analyze_dependences",
    "carried_depths",
    "clear_cache",
    "direction_vectors_for",
    "interchange_legal",
    "fusion_legal",
    "carries_dependence",
    "carrying_loops",
]

# Direction symbols: "<" (carried forward), "=" (loop-independent),
# ">" (would be carried backward — illegal unless removed).
DIRECTIONS = ("<", "=", ">")


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between two statement instances, summarised.

    ``kind`` ∈ {"flow", "anti", "output"}.  ``direction`` holds one symbol
    per *common* enclosing loop (outermost first).  ``src``/``dst`` identify
    statements by their position index in textual order.
    """

    kind: str
    array: str
    src: int
    dst: int
    direction: Tuple[str, ...]

    def loop_carried(self) -> bool:
        return any(d != "=" for d in self.direction)


# ---------------------------------------------------------------------------
# GCD test
# ---------------------------------------------------------------------------


def gcd_test(ref_a: ArrayRef, ref_b: ArrayRef) -> bool:
    """Return True when the two references *may* touch the same element.

    Classic per-dimension GCD test on ``ref_a[idx] = ref_b[idx']`` treating
    each loop variable occurrence as an independent integer unknown.  A
    False result is a proof of independence; True is "cannot rule out".
    """
    if ref_a.array != ref_b.array:
        return False
    if len(ref_a.indices) != len(ref_b.indices):
        return True  # malformed; be conservative
    for ia, ib in zip(ref_a.indices, ref_b.indices):
        # Solve sum(ca_k * xa_k) - sum(cb_k * xb_k) = cb0 - ca0 over integers.
        coeffs = [*(ia.terms.values()), *(-c for c in ib.terms.values())]
        rhs = ib.offset - ia.offset
        if not coeffs:
            if rhs != 0:
                return False
            continue
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        if g == 0:
            if rhs != 0:
                return False
            continue
        if rhs % g != 0:
            return False
    return True


def banerjee_test(
    ref_a: ArrayRef,
    ref_b: ArrayRef,
    bounds: Mapping[str, Tuple[int, int]],
) -> bool:
    """Banerjee bounds test: may the two references touch the same element
    when each variable ``v`` ranges over the **inclusive** interval
    ``bounds[v]``?

    For each dimension, the equation ``a(x) − b(y) = 0`` (treating the two
    references' variable instances as independent) is checked against the
    interval of the left-hand side: if 0 lies outside
    ``[min(a−b), max(a−b)]`` the dimension — hence the pair — is
    independent.  Like :func:`gcd_test`, False is a proof of independence
    and True is "cannot rule out"; variables without bounds are treated as
    fully unconstrained (a wide symmetric default).
    """
    if ref_a.array != ref_b.array:
        return False
    if len(ref_a.indices) != len(ref_b.indices):
        return True
    for ia, ib in zip(ref_a.indices, ref_b.indices):
        lo = ia.offset - ib.offset
        hi = lo
        unbounded = (-(1 << 20), 1 << 20)  # conservative default
        for name, coeff in ia.terms.items():
            vlo, vhi = bounds.get(name, unbounded)
            lo += min(coeff * vlo, coeff * vhi)
            hi += max(coeff * vlo, coeff * vhi)
        for name, coeff in ib.terms.items():
            vlo, vhi = bounds.get(name, unbounded)
            lo += min(-coeff * vlo, -coeff * vhi)
            hi += max(-coeff * vlo, -coeff * vhi)
        if not (lo <= 0 <= hi):
            return False
    return True


def may_alias(
    ref_a: ArrayRef,
    ref_b: ArrayRef,
    bounds: Optional[Mapping[str, Tuple[int, int]]] = None,
) -> bool:
    """Combined GCD + Banerjee independence proof (the PolyDeps front line)."""
    if not gcd_test(ref_a, ref_b):
        return False
    if bounds is not None and not banerjee_test(ref_a, ref_b, bounds):
        return False
    return True


# ---------------------------------------------------------------------------
# The memoized oracle
# ---------------------------------------------------------------------------


# structural body encoding x trace domain -> dependence set, or carrying loops
_MEMO: Dict[Tuple, object] = {}
_LOCK = threading.Lock()
_MAX_ENTRIES = 4096  # far above any real workload; a leak backstop, not an LRU


def clear_cache() -> None:
    """Forget every memoized dependence set."""
    with _LOCK:
        _MEMO.clear()


def _memoized(body: Sequence[Node], domain: Tuple, compute):
    """``compute()``, memoized on ``body``'s label-free structure and
    ``domain``; bodies the structural encoder rejects are not cached."""
    try:
        key = (encode_body(body), *domain)
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


def analyze_dependences(
    body: Sequence[Node],
    sizes: Optional[Mapping[str, int]] = None,
    default_size: int = 6,
) -> List[Dependence]:
    """Extract the dependence set of ``body`` on a small concrete domain.

    Memoized on the body's label-free structure and the trace domain;
    bodies the structural encoder rejects are analyzed uncached.  Every
    call returns a fresh list.
    """
    domain = (tuple(sorted((sizes or {}).items())), default_size)
    return list(
        _memoized(body, domain, lambda: tuple(_trace_dependences(body, sizes, default_size)))
    )


# ---------------------------------------------------------------------------
# Exhaustive small-domain dependence extraction
# ---------------------------------------------------------------------------
#
# The trace is array-shaped end to end.  Each statement's instances are
# enumerated one loop level at a time as integer columns (one row per
# instance), every reference evaluates to one cell-id column, and one
# lexsort puts the instances in execution order.  Sorting the accesses
# by (cell, time, reads before the write) makes each cell's accesses one
# contiguous run; the pairs of a run that contain a write are expanded a
# chunk at a time and classified with array ops, and only the distinct
# (reference pair, direction) rows ever become Python objects.  The
# result is exactly what tracing one instance at a time would give.

# Direction digits 0, 1, 2 name "<", "=", ">"; digit 3 marks a
# destination loop the source lacks.  Packed base 4 into an int64, one
# digit per loop: nests up to 31 deep.
_SYMBOLS = "<=>"
_PAIR_CHUNK = 1 << 12  # pairs classified per batch, bounding the transient arrays


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


def _direction_table(blocks: Sequence[_Block], depth: int) -> np.ndarray:
    """``T[a, b, p]``: the column of block ``a``'s loops compared with
    block ``b``'s ``p``-th loop, or -1 when ``a`` has no loop of that
    name.  A shadowed name compares its innermost source loop."""
    table = np.full((len(blocks), len(blocks), depth), -1, dtype=np.int64)
    for a, src in enumerate(blocks):
        last = {name: col for col, (name, _) in enumerate(src.loops)}
        for b, dst in enumerate(blocks):
            for p, (name, _) in enumerate(dst.loops):
                table[a, b, p] = last.get(name, -1)
    return table


def _trace_dependences(
    body: Sequence[Node],
    sizes: Optional[Mapping[str, int]],
    default_size: int,
) -> List[Dependence]:
    stmt_ids = {id(s): idx for idx, s in enumerate(_collect_statements(body))}
    blocks = _instances(body, sizes, default_size)
    if not blocks:
        return []

    # Instances: one row each, in execution order, with its loop values.
    starts = np.cumsum([0] + [blk.n for blk in blocks])
    n_rows = int(starts[-1])
    depth = max(len(blk.loops) for blk in blocks)
    keys = np.zeros((max(len(blk.keys) for blk in blocks), n_rows), dtype=np.int64)
    values = np.zeros((n_rows, depth), dtype=np.int64)
    for blk, lo, hi in zip(blocks, starts, starts[1:]):
        for level, key in enumerate(blk.keys):
            keys[level, lo:hi] = key
        for col, (_, loop_values) in enumerate(blk.loops):
            values[lo:hi, col] = loop_values
    order = np.lexsort(keys[::-1])
    del keys
    values = values[order]
    time = np.empty(n_rows, dtype=np.int64)
    time[order] = np.arange(n_rows)

    # Accesses: one int64 each packing (cell, time, ref), so one sort
    # groups each cell's accesses in execution order, reads first.
    refs = _reference_cells(blocks)
    n_refs = len(refs)
    access = np.empty(sum(blocks[b].n for b, *_ in refs), dtype=np.int64)
    at = 0
    for r, (b, _, _, cell) in enumerate(refs):
        n = blocks[b].n
        access[at : at + n] = (cell * n_rows + time[starts[b] : starts[b + 1]]) * n_refs + r
        at += n
    del time
    access.sort()
    ref = access % n_refs
    access //= n_refs
    row = access % n_rows
    cell = access // n_rows
    del access

    # Partners of each access: every later access of its cell if it is a
    # write, every later write of its cell if it is a read.  Access i's
    # partners are ``partners[start[i]:stop[i]]``: positions, then writes.
    ref_block = np.array([b for b, *_ in refs], dtype=np.int64)
    ref_write = np.array([is_write for _, _, is_write, _ in refs])
    is_write = ref_write[ref]
    count = len(cell)
    index = np.arange(count)
    run_end = np.append(np.flatnonzero(np.diff(cell)) + 1, count)
    run_end = run_end[np.searchsorted(run_end, index, "right")]
    del cell
    writes = np.flatnonzero(is_write)
    partners = np.concatenate((index, writes))
    start = np.where(is_write, index + 1, count + np.searchsorted(writes, index, "right"))
    stop = np.where(is_write, run_end, count + np.searchsorted(writes, run_end, "left"))
    del run_end

    # Classify: a pair's (ref, ref) fixes its array, kind and statements;
    # its direction packs one base-4 digit per destination loop.
    n_blocks = len(blocks)
    table = _direction_table(blocks, depth).reshape(n_blocks * n_blocks, depth)
    found: Set[Tuple[int, int]] = set()
    for first, offset in _pair_chunks(stop - start):
        second = partners[start[first] + offset]
        src, dst = ref[first], ref[second]
        pair = ref_block[src] * n_blocks + ref_block[dst]
        src_row, dst_row = row[first], row[second]
        code = np.zeros(len(first), dtype=np.int64)
        for p in range(depth):
            col = table[pair, p]
            sign = np.sign(values[src_row, col] - values[dst_row, p]) + 1
            code = code * 4 + np.where(col < 0, 3, sign)
        head = src * n_refs + dst
        order = np.lexsort((code, head))
        head, code = head[order], code[order]
        fresh = np.ones(len(head), dtype=bool)
        fresh[1:] = (head[1:] != head[:-1]) | (code[1:] != code[:-1])
        found.update(zip(head[fresh].tolist(), code[fresh].tolist()))

    deps: Set[Dependence] = set()
    for head, code in found:
        src, dst = divmod(head, n_refs)
        digits = []
        for _ in range(depth):
            code, digit = divmod(code, 4)
            digits.append(digit)
        if not ref_write[src]:
            kind = "anti"
        else:
            kind = "output" if ref_write[dst] else "flow"
        deps.add(
            Dependence(
                kind,
                refs[src][1],
                stmt_ids[id(blocks[ref_block[src]].stmt)],
                stmt_ids[id(blocks[ref_block[dst]].stmt)],
                tuple(_SYMBOLS[d] for d in reversed(digits) if d != 3),
            )
        )
    return sorted(deps, key=lambda d: (d.array, d.kind, d.src, d.dst, d.direction))


def _instances(
    body: Sequence[Node], sizes: Optional[Mapping[str, int]], default_size: int
) -> List[_Block]:
    """The statement instances of ``body`` with its free symbols at
    ``sizes``, else ``default_size``."""
    free: Set[str] = set()
    for node in body:
        free |= _free_symbols(node)
    symbols = {name: (sizes or {}).get(name, default_size) for name in free - _loop_vars(body)}
    for name, value in (sizes or {}).items():
        symbols.setdefault(name, value)
    blocks: List[_Block] = []
    _enumerate(body, symbols, 1, [], [], blocks)
    return blocks


def _reference_columns(blocks: Sequence[_Block]) -> List[Tuple[int, str, bool, List[np.ndarray]]]:
    """``(block, array, is_write, indices)`` for each statement's reads,
    then its write: the index values each instance touches."""
    return [
        (b, r.array, is_write, [_evaluate(i, blk.scope, blk.n) for i in r.indices])
        for b, blk in enumerate(blocks)
        for is_write, group in ((False, blk.stmt.reads()), (True, blk.stmt.writes()))
        for r in group
    ]


def _reference_cells(blocks: Sequence[_Block]) -> List[Tuple[int, str, bool, np.ndarray]]:
    """``(block, array, is_write, cell)`` for each statement's reads, then
    its write: the cell id each instance touches.  Each (array, rank)
    gets a dense block of ids spanning what its references touch."""
    refs = _reference_columns(blocks)
    spans: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    for _, array, _, columns in refs:
        span = [(int(c.min()), int(c.max())) for c in columns]
        seen = spans.setdefault((array, len(columns)), span)
        spans[array, len(columns)] = [(min(a, c), max(b, d)) for (a, b), (c, d) in zip(seen, span)]
    base, layouts = 0, {}
    for group, span in spans.items():
        strides = np.cumprod([1] + [hi - lo + 1 for lo, hi in span])
        layouts[group] = base, [lo for lo, _ in span], strides[:-1]
        base += int(strides[-1])
    out = []
    for b, array, is_write, columns in refs:
        first, lows, strides = layouts[array, len(columns)]
        cell = np.full(blocks[b].n, first, dtype=np.int64)
        for column, lo, stride in zip(columns, lows, strides):
            cell += (column - lo) * stride
        out.append((b, array, is_write, cell))
    return out


def _pair_chunks(fanout: np.ndarray):
    """Yield ``(first, offset)``: access ``first`` with its ``offset``-th
    partner, for every partner of every access, about
    :data:`_PAIR_CHUNK` pairs at a time."""
    ends = np.cumsum(fanout)
    begins = ends - fanout
    lo = 0
    while lo < len(fanout) and begins[lo] < ends[-1]:
        hi = max(int(np.searchsorted(ends, begins[lo] + _PAIR_CHUNK, "right")), lo + 1)
        first = np.repeat(np.arange(lo, hi), fanout[lo:hi])
        yield first, np.arange(begins[lo], ends[hi - 1]) - begins[first]
        lo = hi


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
# Legality predicates
# ---------------------------------------------------------------------------


def direction_vectors_for(
    deps: Sequence[Dependence], depth_a: int, depth_b: int
) -> List[Tuple[str, str]]:
    """Project each dependence's direction vector onto two loop depths."""
    out = []
    for dep in deps:
        if len(dep.direction) > max(depth_a, depth_b):
            out.append((dep.direction[depth_a], dep.direction[depth_b]))
    return out


def interchange_legal(
    body: Sequence[Node],
    depth_a: int,
    depth_b: int,
    sizes: Optional[Mapping[str, int]] = None,
) -> bool:
    """Loops at ``depth_a`` < ``depth_b`` may be interchanged iff no
    dependence has direction ``(<, >)`` on those two depths."""
    deps = analyze_dependences(body, sizes)
    for da, db in direction_vectors_for(deps, depth_a, depth_b):
        if da == "<" and db == ">":
            return False
    return True


def carried_depths(
    body: Sequence[Node], sizes: Optional[Mapping[str, int]] = None
) -> Set[int]:
    """Depths (outermost = 0) of the loops that carry some dependence."""
    return {
        depth
        for dep in analyze_dependences(body, sizes)
        for depth, symbol in enumerate(dep.direction)
        if symbol != "="
    }


def carries_dependence(
    body: Sequence[Node], depth: int, sizes: Optional[Mapping[str, int]] = None
) -> bool:
    """Whether the loop at ``depth`` carries any dependence (blocks
    parallelisation of that loop)."""
    return depth in carried_depths(body, sizes)


def carrying_loops(
    nest: Loop, enclosing: Sequence[Loop] = (), among: Optional[Sequence[Loop]] = None
) -> Set[Loop]:
    """The loops of ``among`` (by default every loop of ``nest``, itself
    included; compared by identity) that carry a dependence when
    ``nest`` runs inside the ``enclosing`` loops (outermost first).

    A loop carries a dependence when two of its own instances, in one
    iteration of every loop around it, touch one cell and one of them
    writes it.  One trace answers for every loop asked about.  It wraps
    ``nest`` in the enclosing loops whose variables can change the
    answer (:func:`_wrappers`); the other enclosing variables stay
    pinned, like any free symbol.  Loops :func:`_own_cells` proves
    independent need no trace.  A nest that needs wrapping is also
    traced alone, every enclosing variable pinned at the trace size, and
    a dependence either trace shows counts: the wrapped trace runs an
    enclosing tile loop whose step exceeds the trace size once or not at
    all, so the pinned trace samples values it misses.  Memoized
    alongside :func:`analyze_dependences`.
    """
    loops = [loop for loop, _ in _depths([nest], 0)]
    asked = tuple(
        i
        for i, loop in enumerate(loops)
        if (among is None or any(loop is x for x in among)) and not _own_cells(loop)
    )
    if not asked:
        return set()
    wrappers = _wrappers(nest, enclosing)
    body: List[Node] = [nest]
    for loop in reversed(wrappers):
        body = [Loop(loop.var, loop.lower, loop.upper, body, label=loop.label, step=loop.step)]

    def trace() -> frozenset:
        carrying = _trace_carrying(body, len(wrappers), asked)
        return carrying | _trace_carrying([nest], 0, asked) if wrappers else carrying

    positions = _memoized(body, ("carrying", len(wrappers), asked), trace)
    return {loops[i] for i in positions}


def _trace_carrying(
    body: Sequence[Node], wrappers: int, asked: Sequence[int], default_size: int = 6
) -> frozenset:
    """Which of the ``asked`` pre-order positions hold a loop that
    carries a dependence in the nest under ``wrappers`` single-loop
    shells of ``body``.

    Rather than pairing accesses, it groups each loop's accesses by cell
    and by the values of the loops around it: the loop carries a
    dependence exactly when a group holding a write spans two of its
    values.
    """
    nest = body
    for _ in range(wrappers):
        nest = nest[0].body
    blocks = _instances(body, None, default_size)
    refs = _reference_columns(blocks)
    if not refs:
        return frozenset()
    # One matrix per reference, a row each: its (array, rank) code, its
    # indices zero-padded to the highest rank, then its loop values.
    width = 1 + max(len(columns) for *_, columns in refs)
    arrays: Dict[Tuple[str, int], int] = {}
    rows = []
    for b, array, _, columns in refs:
        blk = blocks[b]
        matrix = np.zeros((width + len(blk.loops), blk.n), dtype=np.int64)
        matrix[0] = arrays.setdefault((array, len(columns)), len(arrays))
        for row, column in enumerate(columns, 1):
            matrix[row] = column
        for row, (_, values) in enumerate(blk.loops, width):
            matrix[row] = values
        rows.append(matrix)
    carrying = set()
    for position, (loop, depth) in enumerate(_depths(nest, wrappers)):
        if position not in asked:
            continue
        inside = {id(stmt) for stmt in _collect_statements(loop.body)}
        picked = [r for r, (b, *_) in enumerate(refs) if id(blocks[b].stmt) in inside]
        if not any(refs[r][2] for r in picked):
            continue
        # group by cell, then by the values of the loops around this one
        accesses = np.concatenate([rows[r][: width + depth + 1] for r in picked], axis=1)
        writes = np.repeat([refs[r][2] for r in picked], [blocks[refs[r][0]].n for r in picked])
        order = np.lexsort(accesses[width + depth - 1 :: -1])
        accesses, writes = accesses[:, order], writes[order]
        value = accesses[-1]
        starts = np.flatnonzero(np.any(accesses[:-1, 1:] != accesses[:-1, :-1], axis=0)) + 1
        starts = np.concatenate(([0], starts))
        spread = np.minimum.reduceat(value, starts) != np.maximum.reduceat(value, starts)
        if np.any(spread & np.logical_or.reduceat(writes, starts)):
            carrying.add(position)
    return frozenset(carrying)


def _wrappers(nest: Loop, enclosing: Sequence[Loop]) -> List[Loop]:
    """The enclosing loops a trace of ``nest`` must enumerate.

    Those whose variable a bound in the nest uses (the trip counts
    change with it), or that one array's references scale unequally
    where one of them is a write (the cells' overlap changes with it),
    plus, transitively, the loops their own bounds use.  A variable that
    shifts every reference to an array equally cannot change which
    instances meet, so it stays pinned and the trace stays small.  Guard
    predicates are not listed: the trace runs both branches without
    evaluating them.
    """
    outer = [loop.var for loop in enclosing]
    needed: Set[str] = set()
    refs: Dict[str, List[Tuple[ArrayRef, bool]]] = {}
    for node in walk([nest]):
        if isinstance(node, Loop):
            needed |= _bound_vars(node)
        elif isinstance(node, Assign):
            for is_write, group in ((False, node.reads()), (True, node.writes())):
                for ref in group:
                    refs.setdefault(ref.array, []).append((ref, is_write))
    for group in refs.values():
        if any(is_write for _, is_write in group):
            for var in outer:
                scales = {tuple(index.coeff(var) for index in ref.indices) for ref, _ in group}
                if len(scales) > 1:
                    needed.add(var)
    for loop in reversed(enclosing):
        if loop.var in needed:
            needed |= _bound_vars(loop)
    return [loop for loop in enclosing if loop.var in needed]


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


def _bound_vars(loop: Loop) -> Set[str]:
    return set(loop.lower.free_vars()) | set(loop.upper.free_vars())


def _depths(body: Sequence[Node], depth: int):
    """``(loop, depth)`` for every loop in ``body``, whose own loops sit
    at ``depth``."""
    for node in body:
        if isinstance(node, Loop):
            yield node, depth
            yield from _depths(node.body, depth + 1)
        elif isinstance(node, Guard):
            yield from _depths(node.body + node.else_body, depth)


def fusion_legal(
    loop_a: Loop,
    loop_b: Loop,
    sizes: Optional[Mapping[str, int]] = None,
) -> bool:
    """Two adjacent loops may be fused iff fusing them does not reverse any
    dependence: in the fused body, no dependence from (original) second-loop
    instances back to first-loop instances may become carried backward.

    Checked empirically: trace the sequential pair, trace the fused form,
    and require the fused execution to preserve every flow dependence's
    source-before-destination ordering.
    """
    if loop_a.step != loop_b.step:
        return False
    # Rename loop_b's variable to loop_a's so domains align.
    if loop_a.lower != loop_b.lower or loop_a.upper != loop_b.upper:
        renamed_lower = _rename_bound(loop_b.lower, {loop_b.var: loop_a.var})
        renamed_upper = _rename_bound(loop_b.upper, {loop_b.var: loop_a.var})
        if renamed_lower != loop_a.lower or renamed_upper != loop_a.upper:
            return False

    fused_body = [child.clone() for child in loop_a.body]
    rename = {loop_b.var: loop_a.var}
    for child in loop_b.body:
        fused_body.append(_rename_node(child.clone(), rename))
    fused = Loop(loop_a.var, loop_a.lower, loop_a.upper, fused_body, step=loop_a.step)

    fused_deps = analyze_dependences([fused], sizes)
    # Count statements in loop_a to split indices.
    n_a = len(_collect_statements(loop_a.body))

    # Sequential execution runs EVERY first-loop access before any
    # second-loop access, so in the fused nest a dependence is reversed
    # exactly when a second-loop access comes first.  The trace-based
    # analyzer records dependences in *execution* order, which shows the
    # reversal in either of two shapes: a cross dependence whose source
    # is a second-loop statement (e.g. a consumer reading rows the
    # producer has not written yet surfaces as anti ``B→A`` carried by
    # the fused loop), or a first-to-second dependence whose outer
    # direction turned ">".
    for fdep in fused_deps:
        if fdep.src >= n_a > fdep.dst:
            return False
        if fdep.src < n_a <= fdep.dst and fdep.direction:
            if fdep.direction[0] == ">":
                return False
    return True


def _rename_bound(bound, mapping: Mapping[str, str]):
    return bound.rename(mapping)


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
