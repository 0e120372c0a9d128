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


# structural body encoding x sorted sizes x default_size -> dependence set
_MEMO: Dict[Tuple, Tuple[Dependence, ...]] = {}
_LOCK = threading.Lock()
_MAX_ENTRIES = 4096  # far above any real workload; a leak backstop, not an LRU


def clear_cache() -> None:
    """Forget every memoized dependence set."""
    with _LOCK:
        _MEMO.clear()


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
    try:
        key = (encode_body(body), tuple(sorted((sizes or {}).items())), default_size)
    except UnsupportedIR:
        return _trace_dependences(body, sizes, default_size)
    with _LOCK:
        deps = _MEMO.get(key)
    if deps is None:
        deps = tuple(_trace_dependences(body, sizes, default_size))
        with _LOCK:
            if len(_MEMO) >= _MAX_ENTRIES:
                _MEMO.clear()
            _MEMO[key] = deps
    return list(deps)


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
    free: Set[str] = set()
    for node in body:
        free |= _free_symbols(node)
    symbols = {name: (sizes or {}).get(name, default_size) for name in free - _loop_vars(body)}
    for name, value in (sizes or {}).items():
        symbols.setdefault(name, value)

    blocks: List[_Block] = []
    _enumerate(body, symbols, 1, [], [], blocks)
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

    # References: each statement's reads, then its write.  Each (array,
    # rank) gets a dense block of cell ids spanning what its references touch.
    refs = [
        (b, r.array, is_write, [_evaluate(i, blk.scope, blk.n) for i in r.indices])
        for b, blk in enumerate(blocks)
        for is_write, group in ((False, blk.stmt.reads()), (True, blk.stmt.writes()))
        for r in group
    ]
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

    # Accesses: one int64 each packing (cell, time, ref), so one sort
    # groups each cell's accesses in execution order, reads first.
    n_refs = len(refs)
    access = np.empty(sum(blocks[b].n for b, *_ in refs), dtype=np.int64)
    at = 0
    for r, (b, array, _, columns) in enumerate(refs):
        cell, lows, strides = layouts[array, len(columns)]
        for column, lo, stride in zip(columns, lows, strides):
            cell = cell + (column - lo) * stride
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
