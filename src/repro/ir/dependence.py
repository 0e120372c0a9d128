"""PolyDeps-like data-dependence analysis.

The composer's filter (paper §IV-B.2) checks every composed transformation
sequence "to ensure that data dependences are satisfied with the PolyDeps
tool".  This module plays that role for our IR with two layers:

* a fast symbolic **GCD test** that can prove independence of a pair of
  affine references, and
* an **exhaustive small-domain checker** that executes the nest on small
  symbolic sizes and extracts the exact dependence set with direction
  vectors — the oracle the legality predicates are built on.  BLAS3 nests
  are tiny, so exhaustive extraction at sizes ~6–8 is exact for the
  dependence *patterns* (constant-distance and direction information does
  not change with the sizes involved here).

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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .affine import AffineExpr
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
# Exhaustive small-domain dependence extraction
# ---------------------------------------------------------------------------


@dataclass
class _Access:
    time: int
    stmt_index: int
    itervec: Tuple[Tuple[str, int], ...]  # (loop var, value) outermost first
    is_write: bool


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


def _trace(
    body: Sequence[Node],
    env: Dict[str, int],
    loops: Tuple[Tuple[str, int], ...],
    stmt_ids: Dict[int, int],
    accesses: Dict[Tuple[str, Tuple[int, ...]], List[_Access]],
    clock: List[int],
) -> None:
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
                _trace(
                    node.body,
                    env,
                    loops + ((node.var, value),),
                    stmt_ids,
                    accesses,
                    clock,
                )
            env.pop(node.var, None)
        elif isinstance(node, Guard):
            # Guards are control flow the dependence test must be
            # conservative about: trace both branches.
            _trace(node.body, env, loops, stmt_ids, accesses, clock)
            _trace(node.else_body, env, loops, stmt_ids, accesses, clock)
        elif isinstance(node, Barrier):
            continue
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot trace node {node!r}")


def _direction(src: _Access, dst: _Access) -> Tuple[str, ...]:
    common: List[str] = []
    src_map = dict(src.itervec)
    for var_name, dst_val in dst.itervec:
        if var_name in src_map:
            src_val = src_map[var_name]
            common.append("<" if src_val < dst_val else ("=" if src_val == dst_val else ">"))
    return tuple(common)


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


def _trace_dependences(
    body: Sequence[Node],
    sizes: Optional[Mapping[str, int]],
    default_size: int,
) -> List[Dependence]:
    stmts = _collect_statements(body)
    stmt_ids = {id(s): idx for idx, s in enumerate(stmts)}
    free: Set[str] = set()
    for node in body:
        free |= _free_symbols(node)
    bound_vars = _loop_vars(body)
    env: Dict[str, int] = {}
    for name in free - bound_vars:
        env[name] = (sizes or {}).get(name, default_size)
    if sizes:
        for name, value in sizes.items():
            env.setdefault(name, value)

    accesses: Dict[Tuple[str, Tuple[int, ...]], List[_Access]] = {}
    clock = [0]
    _trace(body, env, (), stmt_ids, accesses, clock)

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
                        kind,
                        array,
                        first.stmt_index,
                        second.stmt_index,
                        _direction(first, second),
                    )
                )
    return sorted(deps, key=lambda d: (d.array, d.kind, d.src, d.dst, d.direction))


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
