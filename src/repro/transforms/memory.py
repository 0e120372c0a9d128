"""Traditional-pool memory optimizations: ``SM_alloc`` and ``Reg_alloc``.

Paper §III-B: the developer only names the object and the allocation mode
(``NoChange`` / ``Transpose`` / ``Symmetry``); the framework "automatically
determine[s] the data mapping induced and generate[s] the data movement
statements required", padding shared tiles to dodge bank conflicts
(``(16,16) → (16,17)``).

``SM_alloc(X, mode)`` stages each block's footprint of ``X`` in shared
memory: a copy phase (coalesced, thread-distributed, guarded by barriers)
is inserted into the enclosing reduction-tile loop and every compute
reference is retargeted to the tile.

``Reg_alloc(X)`` promotes each thread's accumulator footprint to
registers: a load phase before the reduction, a store phase after.  The
register file is modeled as an array indexed ``[tx][ty][...]`` so the same
IR executes identically under the sequential oracle and the GPU simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.affine import AffineExpr, aff, const, var
from ..ir.ast import (
    Array,
    ArrayRef,
    Assign,
    Barrier,
    Cmp,
    Guard,
    Loop,
    Node,
    fresh_label,
)
from ..ir.visitors import iter_loops, iter_statements, locate, map_statements
from .base import (
    POOL_TRADITIONAL,
    Transform,
    TransformError,
    TransformFailure,
    TransformResult,
)
from .footprint import VarRange, collect_var_ranges, split_base_span
from .gm_map import derived_names
from .util import KernelStructure, make_phase, phase_thread_vars, require

__all__ = ["SMAlloc", "RegAlloc", "SMEM_BANKS", "ALLOC_MODES"]

SMEM_BANKS = 16  # padding granularity (cc1.x bank count; the paper's example)
ALLOC_MODES = ("NoChange", "Transpose", "Symmetry")

#: the tile one reference covers in a phase: the base of every subscript
#: and the spans of the trailing two
_Tile = Tuple[Tuple[AffineExpr, ...], int, int]


def _read_write_refs(phase: Loop, array: str) -> Tuple[List[ArrayRef], List[ArrayRef]]:
    """Refs to ``array`` in a phase, split into (pure reads, written refs)."""
    reads: List[ArrayRef] = []
    writes: List[ArrayRef] = []
    for stmt in iter_statements([phase]):
        for r in stmt.expr.array_refs():
            if r.array == array:
                reads.append(r)
        if stmt.target.array == array:
            writes.append(stmt.target)
    return reads, writes


def _tile(ref: ArrayRef, local: Dict[str, VarRange]) -> _Tile:
    """The tile ``ref`` covers over the phase's loop ranges ``local``.

    Batched (strided) matrices carry leading batch indices; the staged
    tile is still the trailing 2-D slice of one problem.
    """
    parts = [split_base_span(ix, local) for ix in ref.indices]
    require(
        all(s == 0 for _b, s in parts[:-2]),
        "batch index must be phase-invariant to stage a tile",
    )
    return tuple(b for b, _s in parts), parts[-2][1], parts[-1][1]


def _tile_loop(ks: KernelStructure, phase: Loop, base_vars: set) -> Optional[Loop]:
    """Innermost sequential loop enclosing ``phase`` whose var appears in
    the bases: the loop each iteration of which stages a new tile.

    After peeling there are two tile loops with the same variable name and
    each phase must stage its copies in its own.
    """
    enclosing, _container, _idx = locate(ks.items, phase)
    for loop in reversed(enclosing):
        if loop.mapped_to is None and loop.var in base_vars:
            return loop
    return None


def _copy_phase(
    arr: Array, shared_name: str, mode: str, bases: Sequence[AffineExpr],
    extents: Tuple[int, int], tx_n: int, ty_n: int,
) -> Loop:
    """The thread-distributed phase copying one tile of ``arr`` to shared memory."""
    e0, e1 = extents
    *lead_bases, base0, base1 = bases
    # Copy loops: inner loop walks the stride-1 (first, column-major)
    # dimension of the source with threadIdx.x for coalescing.
    ci = var("ci")
    cj = var("cj")
    src = ArrayRef(arr.name, [*lead_bases, base0 + ci, base1 + cj])
    if mode == "Transpose":
        dst = ArrayRef(shared_name, [cj, ci])
    else:
        dst = ArrayRef(shared_name, [ci, cj])
    if mode == "Symmetry":
        mirror = ArrayRef(arr.name, [*lead_bases, base1 + cj, base0 + ci])
        lo_first = arr.symmetric != "upper"
        real_cond = (
            Cmp(base0 + ci, ">=", base1 + cj)
            if lo_first
            else Cmp(base0 + ci, "<=", base1 + cj)
        )
        body: List[Node] = [
            Guard(
                real_cond,
                [Assign(dst, src)],
                [Assign(dst, mirror)],
                note="symmetric tile: mirror the shadow area",
            )
        ]
    else:
        body = [Assign(dst, src)]
    inner = Loop("ci", aff("tx"), e0, body, label=fresh_label("Lci"), step=tx_n)
    outer = Loop("cj", aff("ty"), e1, [inner], label=fresh_label("Lcj"), step=ty_n)
    return make_phase([outer], tx_n, ty_n, kind="copy")


def _retarget(
    phase: Loop, target: str, tiles: Dict[ArrayRef, _Tile], bases: Tuple[AffineExpr, ...],
    shared_name: str, mode: str,
) -> None:
    """Point every ref of ``phase`` whose tile has ``bases`` at the shared tile."""
    *_lead_bases, base0, base1 = bases

    def retarget(ref: ArrayRef) -> ArrayRef:
        if ref.array != target or tiles[ref][0] != bases:
            return ref
        local0 = ref.indices[-2] - base0
        local1 = ref.indices[-1] - base1
        if mode == "Transpose":
            return ArrayRef(shared_name, [local1, local0])
        return ArrayRef(shared_name, [local0, local1])

    map_statements(phase.body, lambda stmt: stmt.map_refs(retarget))


class SMAlloc(Transform):
    name = "SM_alloc"
    pool = POOL_TRADITIONAL
    returns = 0

    @staticmethod
    def _resolve_target(comp, target: str) -> str:
        """Follow GM_map's derived arrays to the one the kernel references."""
        require(target in comp.arrays, f"array {target!r} not declared")
        referenced = {
            r.array for stmt in iter_statements(comp.main_stage.body) for r in stmt.all_refs()
        }
        for name in reversed(derived_names(comp, target)):  # prefer the derived array
            if name in referenced:
                return name
        return target

    def apply(self, comp, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"SM_alloc expects (array, mode), got {args}")
        target, mode = args
        if mode not in ALLOC_MODES:
            raise TransformError(f"unknown allocation mode {mode!r}")
        comp = comp.clone()
        # An earlier GM_map may have retargeted references to a derived
        # array (A -> A_full / A_t): stage the array actually referenced.
        target = self._resolve_target(comp, target)
        arr = comp.array(target)
        require(arr.storage == "global", f"{target} is not in global memory")
        require(arr.rank in (2, 3), "SM_alloc supports 2-D (or batched 3-D) matrices")
        ks = KernelStructure(comp.main_stage)
        p = comp.params
        tx_n, ty_n = p.get("TX", 16), p.get("TY", 4)

        # Plan from each reference's tile.  Only tiles no reference writes
        # are staged (a written tile must stay visible in global memory);
        # phases whose footprint cannot be sized at compile time (e.g. a
        # serialised triangular solve) keep their global accesses.
        plans = []  # (phase, tile of each ref, staged bases, tile loop)
        extents: Optional[Tuple[int, int]] = None
        for phase in ks.compute_phases():
            reads, writes = _read_write_refs(phase, target)
            if not reads:
                continue
            try:
                local = collect_var_ranges(list(iter_loops([phase])), optimistic=True)
                tiles = {r: _tile(r, local) for r in dict.fromkeys(reads + writes)}
            except TransformFailure:
                continue  # unsized footprint: leave this phase in global memory
            written = {tiles[w] for w in writes}
            for tile in dict.fromkeys(tiles[r] for r in reads):
                bases, s0, s1 = tile
                if tile in written:
                    continue
                if extents not in (None, (s0 + 1, s1 + 1)):
                    continue  # only one tile geometry per shared array
                extents = (s0 + 1, s1 + 1)
                base_vars = {v for b in bases for v in b.free_vars()}
                plans.append((phase, tiles, bases, _tile_loop(ks, phase, base_vars)))
        require(bool(plans), f"no stageable read-only references to {target}")
        # Staging discipline: once any plan stages per reduction-tile (inside
        # a sequential block loop), a block-top staging of the same shared
        # array would be overwritten before use — drop un-scoped plans, and
        # keep the first plan per scope (later copies would clobber earlier
        # ones within the same tile iteration).
        if any(scope is not None for *_plan, scope in plans):
            plans = [plan for plan in plans if plan[3] is not None]
        first_per_scope: Dict[int, tuple] = {}
        for plan in plans:
            first_per_scope.setdefault(id(plan[3]), plan)
        e0, e1 = extents
        require(
            e0 * e1 <= 64 * 1024,
            f"{target} footprint {e0}x{e1} too large for shared memory",
        )

        # Declare the shared tile with anti-bank-conflict padding.
        shared_name = f"{target}_s"
        require(shared_name not in comp.arrays, f"{shared_name} already allocated")
        if mode == "Transpose":
            minor = e0
            dims = (const(e1), const(e0 + (1 if e0 % SMEM_BANKS == 0 else 0)))
        else:
            minor = e1
            dims = (const(e0), const(e1 + (1 if e1 % SMEM_BANKS == 0 else 0)))
        pad = 1 if minor % SMEM_BANKS == 0 else 0
        comp.add_array(
            Array(shared_name, dims, storage="shared", layout="row", pad=pad, source=target)
        )

        for phase, tiles, bases, scope in first_per_scope.values():
            host = scope.body if scope is not None else ks.items
            host[0:0] = [
                _copy_phase(arr, shared_name, mode, bases, extents, tx_n, ty_n),
                Barrier("smem tile ready"),
            ]
            _retarget(phase, target, tiles, bases, shared_name, mode)

        notes = [
            f"{target} -> {shared_name}[{dims[0]}][{dims[1]}] mode={mode} pad={pad}"
        ]
        return TransformResult(comp, notes=notes)


class RegAlloc(Transform):
    name = "Reg_alloc"
    pool = POOL_TRADITIONAL
    returns = 0

    def apply(self, comp, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 1:
            raise TransformError(f"Reg_alloc expects (array,), got {args}")
        target = args[0]
        comp = comp.clone()
        # The paper's scripts copied from GEMM name the output "C"; for
        # routines that update in place (TRSM) the output array differs —
        # resolve by name, failing cleanly when absent.
        require(target in comp.arrays, f"array {target!r} not declared")
        arr = comp.array(target)
        require(arr.storage == "global", f"{target} is not in global memory")
        stage = comp.main_stage
        ks = KernelStructure(stage)
        p = comp.params
        tx_n, ty_n = p.get("TX", 16), p.get("TY", 4)

        # All compute-phase refs must be the same accumulator reference.
        phases: List[Loop] = []
        all_refs: List[ArrayRef] = []
        for ph in ks.compute_phases():
            reads, writes = _read_write_refs(ph, target)
            if reads or writes:
                phases.append(ph)
                all_refs += reads + writes
        require(bool(phases), f"no compute-phase references to {target}")
        first = all_refs[0]
        require(
            all(r == first for r in all_refs),
            f"refs to {target} are not uniform; register promotion fails",
        )

        # Decompose subscripts: local per-thread loop vars index the register
        # file; everything else must be block-invariant across the reduction.
        ref_vars = set()
        for idx in first.indices:
            ref_vars |= set(idx.free_vars())
        index_vars: List[Tuple[str, int]] = []  # (var, trip)
        base_vars = set()
        # Uniform refs imply uniform structure: classify against the first
        # phase's loops.
        phase0 = phases[0]
        tx_var, ty_var = phase_thread_vars(phase0)
        loops = {lp.var: lp for lp in iter_loops([phase0])}
        for name in sorted(ref_vars):
            if name in (tx_var, ty_var):
                continue
            if name in loops:
                lp = loops[name]
                if not (
                    isinstance(lp.lower, AffineExpr)
                    and lp.lower.is_constant
                    and lp.lower.constant_value == 0
                    and lp.step == 1
                    and lp.trip_count() is not None
                ):
                    raise TransformFailure(
                        f"{target} subscript var {name!r} is not a normalized "
                        "per-thread loop; register promotion fails"
                    )
                index_vars.append((name, lp.trip_count()))
            else:
                base_vars.add(name)

        require(
            "kk" not in base_vars,
            f"{target} footprint varies with the reduction tile; promotion fails",
        )

        reg_name = f"{target}_r"
        require(reg_name not in comp.arrays, f"{reg_name} already allocated")
        dims = (const(tx_n), const(ty_n)) + tuple(const(t) for _n, t in index_vars)
        comp.add_array(Array(reg_name, dims, storage="register", layout="row", source=target))

        reg_index_exprs = [var(tx_var), var(ty_var)] + [var(n) for n, _t in index_vars]

        # Rewrite compute refs.
        def rewrite_expr(ref: ArrayRef) -> ArrayRef:
            if ref.array != target or ref != first:
                return ref
            return ArrayRef(reg_name, reg_index_exprs)

        for ph in phases:
            map_statements(ph.body, lambda stmt: stmt.map_refs(rewrite_expr))

        # Load / store staging phases.
        def staging(op_load: bool) -> Loop:
            reg_ref = ArrayRef(reg_name, [var("tx"), var("ty")] + [var(n) for n, _t in index_vars])
            glob_ref = ArrayRef(target, first.indices)
            stmt = Assign(reg_ref, glob_ref) if op_load else Assign(glob_ref, reg_ref)
            body: List[Node] = [stmt]
            for name, trip in reversed(index_vars):
                body = [Loop(name, 0, trip, body, label=fresh_label(f"Lreg_{name}"))]
            return make_phase(body, tx_n, ty_n, kind="regload" if op_load else "regstore")

        scope = _tile_loop(ks, phase0, base_vars)
        host_body = scope.body if scope is not None else ks.items
        host_body.insert(0, staging(op_load=True))
        host_body.insert(1, Barrier("registers loaded"))
        host_body.append(Barrier("compute done"))
        host_body.append(staging(op_load=False))

        notes = [
            f"{target} -> {reg_name} per-thread "
            f"{'x'.join(str(t) for _n, t in index_vars) or '1'} registers"
        ]
        return TransformResult(comp, notes=notes)
