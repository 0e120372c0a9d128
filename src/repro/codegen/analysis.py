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
    Array,
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
from ..transforms.util import phase_kind

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
        total = 0
        for v, c in bound.terms.items():
            total += c * env.get(v, 0.0)
        return bound.offset + total
    values = [_avg_bound(op, env) for op in bound.operands]
    return min(values) if isinstance(bound, MinExpr) else max(values)


def _loop_average(
    loop: Loop, env: Mapping[str, float], thread_vars: Tuple[str, ...] = ()
) -> Tuple[float, float]:
    """``(expected trip, mean loop-variable value)`` over the enclosing domain.

    Thread-distributed loops (``for ci = tx; ci < E; ci += TX``) have a
    *clamped* per-thread trip; the expectation over threads equals
    ``E / step``, which is what evaluating the lower bound at thread
    index 0 yields — so thread variables are zeroed in the lower bound
    of the trip (not in the mean value).
    """
    lower = loop.lower
    lo = lo_trip = _avg_bound(lower, env)
    for v in thread_vars:
        if lower.depends_on(v):
            lo_env = dict(env)
            for t in thread_vars:
                lo_env[t] = 0.0
            lo_trip = _avg_bound(lower, lo_env)
            break
    hi = _avg_bound(loop.upper, env)
    trip = max(0.0, (hi - lo_trip) / loop.step)
    return trip, lo + (max(1.0, trip) - 1) / 2 * loop.step


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


def _flag_value(flags: Mapping[str, bool], cond) -> Optional[bool]:
    """A runtime flag guard's setting (flags default on); ``None`` for any
    other predicate."""
    if isinstance(cond, Flag):
        return bool(flags.get(cond.name, True))
    return None


def _fma_insts(stmt: Assign, flops: int) -> float:
    """Instruction estimate for one execution of ``stmt`` (``flops`` FLOPs).

    ``x += a*b`` fuses into one MAD; other arithmetic counts one
    instruction per operator; division costs extra on all three chips.
    """
    insts = float(flops)
    if stmt.op in ("+=", "-=") and isinstance(stmt.expr, BinOp) and stmt.expr.op == "*":
        insts = max(1.0, flops - 1)  # multiply-accumulate fusion
    if stmt.expr.uses_division():
        insts += 8  # fp32 division microcode
    return insts


def _stride(
    arr: Array, indices: Tuple[AffineExpr, ...], tx_var: Optional[str], tx_of: Mapping[str, int]
) -> int:
    """Element stride of one access between consecutive threads (``tx_var``;
    ``None`` in serial code, where every thread is the same one).

    ``tx_of`` holds the ``tx_var`` coefficient of the lower bound of each
    enclosing loop whose origin moves with the thread index."""
    if tx_var is None:
        return 0
    coeffs = []
    for expr in indices[:1 if arr.rank == 1 else 2]:
        # the tx coefficient once each loop variable in tx_of is
        # replaced by its lower bound
        coeff = expr.terms.get(tx_var, 0)
        for name, c in expr.terms.items():
            if name in tx_of:
                coeff += c * tx_of[name]
        coeffs.append(coeff)
    if arr.rank == 1:
        return coeffs[0]
    c0, c1 = coeffs
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
                if node.mapped_to == "thread.x":
                    self._walk_phase(node, mult)
                    continue
                trip, self.env[node.var] = _loop_average(node, self.env)
                if node.mapped_to in ("block.x", "block.y", "block.z"):
                    self.grid_blocks *= max(1.0, trip)
                    self._walk_block(node.body, mult)
                else:
                    self._walk_block(node.body, mult * max(0.0, trip))
            elif isinstance(node, Barrier):
                self.barriers += mult
            elif isinstance(node, Guard):
                flag_on = _flag_value(self.comp.flags, node.cond)
                if flag_on is True:
                    self._walk_block(node.body, mult)
                elif flag_on is False:
                    self._walk_block(node.else_body, mult)
                else:
                    self._walk_block(node.body, mult * 0.5)
                    self._walk_block(node.else_body, mult * 0.5)
            # a block-level statement outside any phase is negligible

    # -- phase level -----------------------------------------------------
    def _walk_phase(self, phase: Loop, mult: float) -> None:
        first = phase.body[0] if phase.body else None
        ty_loop = first if isinstance(first, Loop) and first.mapped_to == "thread.y" else None
        tx_n = int(_loop_average(phase, self.env)[0])
        ty_n = int(_loop_average(ty_loop, self.env)[0]) if ty_loop is not None else 1
        threads = max(1, tx_n * ty_n)
        self.threads_per_block = max(self.threads_per_block, threads)

        model = PhaseModel(kind=phase_kind(phase), serial=False, threads=threads)
        env = self.env
        env[phase.var] = (tx_n - 1) / 2
        thread_vars: Tuple[str, ...] = (phase.var,)
        if ty_loop is not None:
            env[ty_loop.var] = (ty_n - 1) / 2
            thread_vars += (ty_loop.var,)
        walk = _PhaseWalk(self.comp, model, phase.var, threads, thread_vars)
        walk.body(ty_loop.body if ty_loop is not None else phase.body, env, mult, (), {}, False)
        self.phases.append(model)


class _PhaseWalk:
    """The per-thread walk of one phase.

    Each loop's average trip and mean variable value are evaluated once,
    on entry, and handed down with the loop (``loops``: the enclosing
    per-thread loops with their trips, clamped to at least 1), as is the
    ``threadIdx.x`` coefficient of every enclosing loop whose lower bound
    moves with the thread index (``tx_of``; e.g. a copy loop starting at
    ``tx``) for the stride model.  Valid IR never shadows a loop variable
    nor reads one outside its loop, so the stage's one ``env`` serves
    every phase (each loop sets its variable's mean on entry) and a
    loop's bounds read the same values at the loop and at every
    statement inside it.
    """

    def __init__(
        self, comp: Computation, model: PhaseModel, tx_var: str, threads: int,
        thread_vars: Tuple[str, ...],
    ):
        self.arrays = comp.arrays
        self.flags = comp.flags
        self.model = model
        self.tx_var = tx_var
        self.threads = threads
        self.thread_vars = thread_vars

    def body(
        self, body: List[Node], env: Dict[str, float], mult: float,
        loops: Tuple[Tuple[Loop, float], ...], tx_of: Dict[str, int], serial: bool,
    ) -> None:
        for node in body:
            if isinstance(node, Loop):
                trip, env[node.var] = _loop_average(node, env, self.thread_vars)
                # Loop bookkeeping instructions (amortised by unrolling).
                overhead = 2.0 * trip / max(1, node.unroll)
                self.model.insts_per_block += overhead * (mult * (1 if serial else self.threads))
                inner_tx = tx_of
                lower = node.lower
                if isinstance(lower, AffineExpr) and lower.depends_on(self.tx_var):
                    inner_tx = dict(tx_of)
                    inner_tx[node.var] = lower.coeff(self.tx_var)
                self.body(
                    node.body, env, mult * trip, loops + ((node, max(1.0, trip)),),
                    inner_tx, serial,
                )
            elif isinstance(node, Guard):
                pinned = _is_serial_guard(node.cond)
                flag_on = _flag_value(self.flags, node.cond)
                if pinned:
                    self.model.serial = True
                    self.body(node.body, env, mult, loops, tx_of, True)
                elif flag_on is True:
                    self.body(node.body, env, mult, loops, tx_of, serial)
                elif flag_on is False:
                    self.body(node.else_body, env, mult, loops, tx_of, serial)
                else:
                    self.body(node.body, env, mult * 0.5, loops, tx_of, serial)
                    self.body(node.else_body, env, mult * 0.5, loops, tx_of, serial)
            elif isinstance(node, Assign):
                self.statement(node, mult, loops, tx_of, serial)

    def statement(
        self, stmt: Assign, mult: float, loops: Tuple[Tuple[Loop, float], ...],
        tx_of: Dict[str, int], serial: bool,
    ) -> None:
        model = self.model
        thread_factor = 1 if serial else self.threads
        execs = mult * thread_factor
        flops = stmt.flop_count()
        model.flops_per_block += flops * execs
        model.insts_per_block += _fma_insts(stmt, flops) * execs
        tx_var = None if serial else self.tx_var
        accesses = [(ref, "load") for ref in stmt.expr.array_refs()]
        if stmt.op in ("+=", "-="):
            accesses.append((stmt.target, "load"))
        accesses.append((stmt.target, "store"))
        for ref, kind in accesses:
            arr = self.arrays.get(ref.array)
            if arr is None or arr.storage == "register":
                continue
            # Distinct-access count: only loops the subscripts depend on
            # multiply (invariant loads are register-cached).
            used = ref.index_vars()
            dep_mult = mult
            for loop, trip in loops:
                if loop.var not in used:
                    dep_mult /= trip
            count = dep_mult * thread_factor
            stride = _stride(arr, ref.indices, tx_var, tx_of)
            # Scattered-across-threads accesses where each thread walks
            # consecutive addresses (the minor subscript advances with an
            # inner unit-step loop) amortise through a cache when there is
            # one (Fermi L1).
            seq_walk = False
            if abs(stride) >= LARGE_STRIDE and arr.storage == "global":
                minor = ref.indices[0 if arr.layout == "col" else arr.rank - 1]
                seq_walk = any(
                    abs(minor.coeff(loop.var)) * loop.step == 1 and loop.mapped_to is None
                    for loop, _trip in loops
                )
            model.accesses.append(
                AccessModel(ref.array, arr.storage, kind, count, stride, serial, seq_walk)
            )
            # Loads/stores occupy instruction slots — but a shared-memory
            # operand folds into the consuming MAD on G80/GT200 and
            # dual-issues with it on Fermi (Volkov's 60%-of-peak recipe),
            # so it costs only half a slot.
            model.insts_per_block += count * (0.5 if arr.storage == "shared" else 1.0)


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
