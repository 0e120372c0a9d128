"""Static kernel analysis: extract a performance model from transformed IR.

Walks a compute stage in canonical form (block loops → phases →
per-thread loops) and summarises, per phase:

* arithmetic work (FLOPs, instruction estimate honouring unroll factors
  and fused multiply-add),
* memory accesses per space (global / shared / register) with their
  **per-thread distinct counts** (a reference invariant in an inner loop
  is register-cached by scalar replacement, so it is counted once per
  distinct index, not once per iteration), and
* the element stride between *consecutive threads* (``threadIdx.x``)
  for each access — the input to the coalescing and bank-conflict models.

Loops with data-dependent (min/max) bounds are counted with their
*average* trip over the enclosing domain — triangular reductions come out
at the expected ½ factor.  The result is an estimate by construction; the
counters it produces are compared to the paper's profiles by shape, not
digit (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.affine import AffineExpr, Bound, MinExpr
from ..ir.ast import (
    And,
    Assign,
    Barrier,
    BinOp,
    Cmp,
    Computation,
    Flag,
    Guard,
    Loop,
    Node,
    Stage,
)

__all__ = ["AccessModel", "PhaseModel", "KernelModel", "analyze_stage", "analyze_computation"]

#: stride magnitude treated as "row jump" (fully scattered across threads)
LARGE_STRIDE = 1 << 20


@dataclass
class AccessModel:
    """One array reference's aggregate behaviour in a phase."""

    array: str
    space: str  # "global" | "shared" | "register"
    kind: str  # "load" | "store"
    count_per_block: float  # distinct accesses per block (thread-summed)
    stride_tx: int  # element stride between consecutive threads
    serial: bool = False
    #: scattered across threads but each thread walks consecutive
    #: addresses (a column walk) — cache-amortised on Fermi
    thread_sequential: bool = False


@dataclass
class PhaseModel:
    kind: str  # compute / copy / regload / regstore
    serial: bool
    threads: int
    flops_per_block: float = 0.0
    insts_per_block: float = 0.0
    accesses: List[AccessModel] = field(default_factory=list)


@dataclass
class KernelModel:
    """Launch-level performance summary of one stage."""

    name: str
    role: str
    grid_blocks: float
    threads_per_block: int
    regs_per_thread: int
    smem_bytes: int
    barriers_per_block: float
    phases: List[PhaseModel]

    @property
    def flops_per_block(self) -> float:
        return sum(p.flops_per_block for p in self.phases)

    @property
    def insts_per_block(self) -> float:
        return sum(p.insts_per_block for p in self.phases)

    def total_flops(self) -> float:
        return self.flops_per_block * self.grid_blocks

    def total_insts(self) -> float:
        return self.insts_per_block * self.grid_blocks

    def accesses(self) -> List[Tuple[AccessModel, float]]:
        """(access, total executions) across the launch."""
        return [
            (a, a.count_per_block * self.grid_blocks)
            for p in self.phases
            for a in p.accesses
        ]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _avg_bound(bound: Bound, env: Mapping[str, float]) -> float:
    if isinstance(bound, AffineExpr):
        return bound.offset + sum(c * env.get(v, 0.0) for v, c in bound.terms.items())
    values = [_avg_bound(op, env) for op in bound.operands]
    return min(values) if isinstance(bound, MinExpr) else max(values)


def _avg_trip(
    loop: Loop, env: Mapping[str, float], thread_vars: Tuple[str, ...] = ()
) -> float:
    """Expected trip count over the enclosing domain.

    Thread-distributed loops (``for ci = tx; ci < E; ci += TX``) have a
    *clamped* per-thread trip; the expectation over threads equals
    ``E / step``, which is what evaluating the lower bound at thread
    index 0 yields — so thread variables are zeroed in the lower bound.
    """
    lo_env = env
    if thread_vars and any(loop.lower.depends_on(v) for v in thread_vars):
        lo_env = dict(env)
        for v in thread_vars:
            lo_env[v] = 0.0
    lo = _avg_bound(loop.lower, lo_env)
    hi = _avg_bound(loop.upper, env)
    return max(0.0, (hi - lo) / loop.step)


def _is_serial_guard(cond) -> Optional[bool]:
    """True when the guard pins the thread indices to constants."""
    cmps = cond.operands if isinstance(cond, And) else (cond,)
    pins = 0
    for c in cmps:
        if not isinstance(c, Cmp) or c.op != "==":
            return None
        lhs_vars = c.lhs.free_vars()
        if lhs_vars and all(v in ("tx", "ty") for v in lhs_vars):
            pins += 1
    return pins >= 2 if pins else None


def _fma_insts(stmt: Assign) -> float:
    """Instruction estimate for one statement execution.

    ``x += a*b`` fuses into one MAD; other arithmetic counts one
    instruction per operator; division costs extra on all three chips.
    """
    flops = stmt.flop_count()
    insts = float(flops)
    if stmt.op in ("+=", "-=") and isinstance(stmt.expr, BinOp) and stmt.expr.op == "*":
        insts = max(1.0, flops - 1)  # multiply-accumulate fusion
    if stmt.expr.uses_division():
        insts += 8  # fp32 division microcode
    return insts


class _StrideContext:
    """Resolves element strides w.r.t. threadIdx.x inside a phase."""

    def __init__(self, comp: Computation, tx_var: Optional[str], loops: List[Loop]):
        self.comp = comp
        self.tx_var = tx_var
        # Loop vars whose *origin* depends on tx (e.g. copy loops with
        # lower bound tx): substitute their lower bound for stride purposes.
        self.subst: Dict[str, AffineExpr] = {}
        for lp in loops:
            lower = lp.lower
            if isinstance(lower, AffineExpr) and tx_var and lower.depends_on(tx_var):
                self.subst[lp.var] = lower

    def _tx_coeff(self, expr: AffineExpr) -> int:
        if not self.tx_var:
            return 0
        resolved = expr.substitute(self.subst) if self.subst else expr
        return resolved.coeff(self.tx_var)

    def stride(self, array_name: str, indices: Tuple[AffineExpr, ...]) -> int:
        arr = self.comp.arrays[array_name]
        if arr.rank == 1:
            return self._tx_coeff(indices[0])
        c0 = self._tx_coeff(indices[0])
        c1 = self._tx_coeff(indices[1])
        if arr.storage == "shared":
            # Row layout: pitch is the (padded) minor dimension.
            pitch = int(arr.dims[1].constant_value)
            return c0 * pitch + c1
        if arr.layout == "col":
            # Column-major: first subscript is stride-1, second jumps rows.
            return c0 + c1 * LARGE_STRIDE
        return c1 + c0 * LARGE_STRIDE


# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------


class _StageAnalyzer:
    def __init__(self, comp: Computation, stage: Stage, sizes: Mapping[str, int]):
        self.comp = comp
        self.stage = stage
        self.env: Dict[str, float] = {k: float(v) for k, v in sizes.items()}
        self.grid_blocks = 1.0
        self.threads_per_block = 1
        self.barriers = 0.0
        self.phases: List[PhaseModel] = []

    def run(self) -> KernelModel:
        if self.stage.role == "remap":
            model = self._remap_model()
        else:
            self._walk_block(self.stage.body, mult=1.0)
            model = KernelModel(
                name=self.stage.name,
                role=self.stage.role,
                grid_blocks=self.grid_blocks,
                threads_per_block=self.threads_per_block,
                regs_per_thread=self._regs_per_thread(),
                smem_bytes=self._smem_bytes(),
                barriers_per_block=self.barriers,
                phases=self.phases,
            )
        return model

    # -- resources -----------------------------------------------------
    def _regs_per_thread(self) -> int:
        regs = 14  # addressing, loop counters, staging temporaries
        tpb = max(1, self.threads_per_block)
        for arr in self.comp.arrays.values():
            if arr.storage == "register":
                total = 1
                for d in arr.dims:
                    total *= int(d.constant_value)
                regs += max(1, total // tpb)
        return regs

    def _smem_bytes(self) -> int:
        total = 0
        for arr in self.comp.arrays.values():
            if arr.storage == "shared":
                elems = 1
                for d in arr.dims:
                    elems *= int(d.constant_value)
                total += elems * 4
        return total

    # -- remap stages ----------------------------------------------------
    def _remap_model(self) -> KernelModel:
        """GM_map's data-remapping kernel: a memory-bound 2-D copy.

        Modeled as a standard 16x16-thread transpose/copy grid (that is
        what the thread-grouping of §IV-A.1 step 2 produces).
        """
        loops = [n for n in self.stage.body if isinstance(n, Loop)]
        outer = loops[0]
        inner = outer.body[0]
        d0 = _avg_bound(outer.upper, self.env)
        d1 = _avg_bound(inner.upper, self.env)
        elements = d0 * d1
        threads = 256
        blocks = max(1.0, elements / threads)
        phase = PhaseModel(kind="copy", serial=False, threads=threads)
        phase.flops_per_block = 0.0
        phase.insts_per_block = 6.0 * threads  # ld + st + addressing
        phase.accesses = [
            AccessModel("__src__", "global", "load", float(threads), 1),
            # Transpose writes jump rows from the warp's point of view.
            AccessModel("__dst__", "global", "store", float(threads), LARGE_STRIDE),
        ]
        return KernelModel(
            name=self.stage.name,
            role="remap",
            grid_blocks=blocks,
            threads_per_block=threads,
            regs_per_thread=10,
            smem_bytes=0,
            barriers_per_block=0.0,
            phases=[phase],
        )

    # -- block level -----------------------------------------------------
    def _walk_block(self, body: List[Node], mult: float) -> None:
        for node in body:
            if isinstance(node, Loop):
                if node.mapped_to in ("block.x", "block.y", "block.z"):
                    trip = _avg_trip(node, self.env)
                    self.grid_blocks *= max(1.0, trip)
                    self.env[node.var] = (
                        _avg_bound(node.lower, self.env)
                        + (max(1.0, trip) - 1) / 2 * node.step
                    )
                    self._walk_block(node.body, mult)
                elif node.mapped_to == "thread.x":
                    self._walk_phase(node, mult)
                else:
                    trip = _avg_trip(node, self.env)
                    self.env[node.var] = (
                        _avg_bound(node.lower, self.env)
                        + (max(1.0, trip) - 1) / 2 * node.step
                    )
                    self._walk_block(node.body, mult * max(0.0, trip))
            elif isinstance(node, Barrier):
                self.barriers += mult
            elif isinstance(node, Guard):
                flag_on = self._flag_value(node.cond)
                if flag_on is True:
                    self._walk_block(node.body, mult)
                elif flag_on is False:
                    self._walk_block(node.else_body, mult)
                else:
                    self._walk_block(node.body, mult * 0.5)
                    self._walk_block(node.else_body, mult * 0.5)
            elif isinstance(node, Assign):
                # Block-level statement outside any phase: negligible.
                continue

    def _flag_value(self, cond) -> Optional[bool]:
        if isinstance(cond, Flag):
            return bool(self.comp.flags.get(cond.name, True))
        return None

    # -- phase level -----------------------------------------------------
    def _walk_phase(self, phase: Loop, mult: float) -> None:
        from ..transforms.util import phase_kind

        tx_loop = phase
        ty_loop = phase.body[0] if phase.body and isinstance(phase.body[0], Loop) else None
        tx_n = int(_avg_trip(tx_loop, self.env))
        ty_n = int(_avg_trip(ty_loop, self.env)) if ty_loop is not None and ty_loop.mapped_to == "thread.y" else 1
        threads = max(1, tx_n * ty_n)
        self.threads_per_block = max(self.threads_per_block, threads)

        model = PhaseModel(kind=phase_kind(phase), serial=False, threads=threads)
        env = dict(self.env)
        env[tx_loop.var] = (tx_n - 1) / 2
        inner_body = ty_loop.body if ty_loop is not None and ty_loop.mapped_to == "thread.y" else phase.body
        if ty_loop is not None and ty_loop.mapped_to == "thread.y":
            env[ty_loop.var] = (ty_n - 1) / 2

        tvars = (tx_loop.var,) + (
            (ty_loop.var,) if ty_loop is not None and ty_loop.mapped_to == "thread.y" else ()
        )
        self._walk_thread(
            inner_body,
            env,
            per_thread_mult=mult,
            loops=[],
            model=model,
            serial=False,
            tx_var=tx_loop.var,
            threads=threads,
            thread_vars=tvars,
        )
        self.phases.append(model)

    def _walk_thread(
        self,
        body: List[Node],
        env: Dict[str, float],
        per_thread_mult: float,
        loops: List[Loop],
        model: PhaseModel,
        serial: bool,
        tx_var: str,
        threads: int,
        thread_vars: Tuple[str, ...] = (),
    ) -> None:
        for node in body:
            if isinstance(node, Loop):
                trip = _avg_trip(node, env, thread_vars)
                env2 = dict(env)
                env2[node.var] = (
                    _avg_bound(node.lower, env) + (max(1.0, trip) - 1) / 2 * node.step
                )
                # Loop bookkeeping instructions (amortised by unrolling).
                overhead = 2.0 * trip / max(1, node.unroll)
                weight = per_thread_mult * (1 if serial else threads)
                model.insts_per_block += overhead * weight
                self._walk_thread(
                    node.body,
                    env2,
                    per_thread_mult * trip,
                    loops + [node],
                    model,
                    serial,
                    tx_var,
                    threads,
                    thread_vars,
                )
            elif isinstance(node, Guard):
                pinned = _is_serial_guard(node.cond)
                flag_on = self._flag_value(node.cond)
                if pinned:
                    model.serial = True
                    self._walk_thread(
                        node.body, env, per_thread_mult, loops, model, True, tx_var, threads, thread_vars
                    )
                elif flag_on is True:
                    self._walk_thread(node.body, env, per_thread_mult, loops, model, serial, tx_var, threads, thread_vars)
                elif flag_on is False:
                    self._walk_thread(node.else_body, env, per_thread_mult, loops, model, serial, tx_var, threads, thread_vars)
                else:
                    self._walk_thread(node.body, env, per_thread_mult * 0.5, loops, model, serial, tx_var, threads, thread_vars)
                    self._walk_thread(node.else_body, env, per_thread_mult * 0.5, loops, model, serial, tx_var, threads, thread_vars)
            elif isinstance(node, Assign):
                self._account_stmt(
                    node, env, per_thread_mult, loops, model, serial, tx_var, threads, thread_vars
                )
            elif isinstance(node, Barrier):
                continue

    def _account_stmt(
        self,
        stmt: Assign,
        env: Dict[str, float],
        per_thread_mult: float,
        loops: List[Loop],
        model: PhaseModel,
        serial: bool,
        tx_var: str,
        threads: int,
        thread_vars: Tuple[str, ...] = (),
    ) -> None:
        thread_factor = 1 if serial else threads
        execs = per_thread_mult * thread_factor
        model.flops_per_block += stmt.flop_count() * execs
        model.insts_per_block += _fma_insts(stmt) * execs

        strides = _StrideContext(self.comp, None if serial else tx_var, loops)
        loop_vars = {lp.var: lp for lp in loops}

        def account_ref(ref, kind: str) -> None:
            arr = self.comp.arrays.get(ref.array)
            if arr is None or arr.storage == "register":
                return
            # Distinct-access count: only loops the subscripts depend on
            # multiply (invariant loads are register-cached).
            dep_mult = per_thread_mult
            for name, lp in loop_vars.items():
                if not any(idx.depends_on(name) for idx in ref.indices):
                    trip = max(1.0, _avg_trip(lp, env, thread_vars))
                    dep_mult /= trip
            count = dep_mult * thread_factor
            stride = strides.stride(ref.array, ref.indices)
            # Scattered-across-threads accesses where each thread walks
            # consecutive addresses (the minor subscript advances with an
            # inner unit-step loop) amortise through a cache when there is
            # one (Fermi L1).
            seq_walk = False
            if abs(stride) >= LARGE_STRIDE and arr.storage == "global":
                minor = 0 if arr.layout == "col" else arr.rank - 1
                for lname, lp in loop_vars.items():
                    if (
                        abs(ref.indices[minor].coeff(lname)) * lp.step == 1
                        and lp.mapped_to is None
                    ):
                        seq_walk = True
            model.accesses.append(
                AccessModel(
                    ref.array, arr.storage, kind, count, stride, serial, seq_walk
                )
            )
            # Loads/stores occupy instruction slots — but a shared-memory
            # operand folds into the consuming MAD on G80/GT200 and
            # dual-issues with it on Fermi (Volkov's 60%-of-peak recipe),
            # so it costs only half a slot.
            model.insts_per_block += count * (0.5 if arr.storage == "shared" else 1.0)

        for ref in stmt.expr.array_refs():
            account_ref(ref, "load")
        if stmt.op in ("+=", "-="):
            account_ref(stmt.target, "load")
        account_ref(stmt.target, "store")


def analyze_stage(
    comp: Computation, stage: Stage, sizes: Mapping[str, int]
) -> KernelModel:
    """Build the :class:`KernelModel` for one stage."""
    return _StageAnalyzer(comp, stage, sizes).run()


def analyze_computation(
    comp: Computation, sizes: Mapping[str, int]
) -> List[KernelModel]:
    """Kernel models for every stage, launch order preserved."""
    return [analyze_stage(comp, stage, sizes) for stage in comp.stages]
