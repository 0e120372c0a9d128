"""Analytic timing model: kernel models + architecture → execution time.

A deliberately simple, documented roofline-style model.  Per kernel:

* **compute time** — warp-instruction issue cycles across the SMs.  A
  warp instruction occupies an SM for ``warp_size / sps_per_sm`` cycles
  (4 on G80/GT200, 1 on Fermi's 32-SP SMs).  Phases serialised onto one
  thread (``binding_triangular``) still issue whole warps, so their
  instructions are not divided by the warp width.  Shared-memory bank
  conflicts add replay cycles.
* **memory time** — effective DRAM bytes (coalescing-adjusted, from
  :mod:`repro.gpu.counters`) over the board bandwidth.  Low occupancy
  cannot keep the memory pipeline full: bandwidth scales down below a
  knee of 50% occupancy (≈ what G80-era latency × bandwidth products
  demand).
* compute and memory overlap: kernel time is the max of the two, plus
  barrier and launch overheads.

Issue efficiency below full occupancy follows the same knee: with too few
warps an SM cannot cover register read-after-write latency (Volkov's
observation that ~25% occupancy suffices given enough ILP — our register-
tiled kernels carry that ILP, modeled via the per-thread work factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..codegen.analysis import KernelModel
from .arch import GPUArch
from .counters import bank_conflict_degree, effective_bytes
from .occupancy import Occupancy, occupancy

__all__ = [
    "KernelTiming",
    "LaunchTiming",
    "BatchTiming",
    "ChainTiming",
    "DistTiming",
    "estimate_kernel_time",
    "estimate_time",
    "estimate_batched_time",
    "estimate_chain_time",
    "estimate_dist_time",
]

#: occupancy knee under which latency can no longer be hidden
_OCC_KNEE_MEM = 0.50
_OCC_KNEE_COMPUTE = 0.25
#: cycles an SM loses per __syncthreads()
_BARRIER_CYCLES = 40.0
#: sustained fraction of peak issue rate for tuned kernels
_ISSUE_EFFICIENCY = 0.85


@dataclass
class KernelTiming:
    name: str
    time_s: float
    compute_s: float
    memory_s: float
    occupancy: Occupancy
    bytes_moved: float
    insts: float
    flops: float
    bound: str  # "compute" | "memory" | "infeasible"


@dataclass
class LaunchTiming:
    kernels: List[KernelTiming] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        return sum(k.time_s for k in self.kernels)

    @property
    def feasible(self) -> bool:
        return all(k.bound != "infeasible" for k in self.kernels)

    def gflops(self, nominal_flops: float) -> float:
        t = self.time_s
        return nominal_flops / t / 1e9 if t > 0 else 0.0


def estimate_kernel_time(arch: GPUArch, model: KernelModel) -> KernelTiming:
    occ = occupancy(
        arch,
        threads_per_block=max(1, model.threads_per_block),
        regs_per_thread=model.regs_per_thread,
        smem_per_block=model.smem_bytes,
    )
    if not occ.feasible:
        return KernelTiming(
            model.name, float("inf"), float("inf"), float("inf"), occ, 0.0, 0.0, 0.0,
            "infeasible",
        )

    # --- compute ---------------------------------------------------------
    cycles_per_warp_inst = arch.warp_size / arch.sps_per_sm
    warp_insts = 0.0
    conflict_extra = 0.0
    for phase in model.phases:
        if phase.serial:
            # One active lane: the warp still occupies issue slots per inst.
            warp_insts += phase.insts_per_block
        else:
            warp_insts += phase.insts_per_block / arch.warp_size
        for access in phase.accesses:
            if access.space == "shared":
                degree = bank_conflict_degree(arch, access.stride_tx)
                if degree > 1.0:
                    conflict_extra += (
                        access.count_per_block / arch.warp_size * (degree - 1.0)
                    )
    warp_insts_total = (warp_insts + conflict_extra) * model.grid_blocks
    issue_eff = _ISSUE_EFFICIENCY * min(1.0, occ.occupancy / _OCC_KNEE_COMPUTE)
    # A launch smaller than the chip leaves SMs idle.
    active_sms = min(arch.num_sms, max(1.0, model.grid_blocks))
    compute_cycles = warp_insts_total / active_sms * cycles_per_warp_inst / max(
        issue_eff, 1e-3
    )
    compute_s = compute_cycles / (arch.clock_ghz * 1e9)

    # --- memory ----------------------------------------------------------
    bytes_moved = 0.0
    for access, total in model.accesses():
        bytes_moved += effective_bytes(arch, access, total)
    mem_eff = min(1.0, occ.occupancy / _OCC_KNEE_MEM)
    # Small launches cannot saturate the board either.
    mem_eff *= min(1.0, active_sms / arch.num_sms)
    memory_s = bytes_moved / (arch.mem_bandwidth_gbs * 1e9) / max(mem_eff, 1e-3)

    # --- overheads ---------------------------------------------------------
    barrier_s = (
        model.barriers_per_block
        * model.grid_blocks
        / (arch.num_sms * max(1, occ.blocks_per_sm))
        * _BARRIER_CYCLES
        / (arch.clock_ghz * 1e9)
    )

    time_s = max(compute_s, memory_s) + barrier_s + arch.launch_overhead_s
    return KernelTiming(
        name=model.name,
        time_s=time_s,
        compute_s=compute_s,
        memory_s=memory_s,
        occupancy=occ,
        bytes_moved=bytes_moved,
        insts=model.total_insts(),
        flops=model.total_flops(),
        bound="compute" if compute_s >= memory_s else "memory",
    )


def estimate_time(arch: GPUArch, models: Sequence[KernelModel]) -> LaunchTiming:
    """Timing for a launch sequence (remap kernels + compute kernels)."""
    return LaunchTiming([estimate_kernel_time(arch, m) for m in models])


@dataclass
class BatchTiming:
    """Serial vs fused launch cost for ``batch`` copies of one problem."""

    batch: int
    #: one launch per problem: every copy pays the launch overhead and,
    #: for grids smaller than the chip, leaves SMs idle
    serial_s: float
    #: one launch with the grid widened ``batch``× along ``block.z``
    fused_s: float

    @property
    def speedup(self) -> float:
        return self.serial_s / self.fused_s if self.fused_s > 0 else 0.0


def estimate_batched_time(
    arch: GPUArch, models: Sequence[KernelModel], batch: int
) -> BatchTiming:
    """Why strided-batched beats launch-per-problem for small grids.

    *Serial* runs the launch sequence ``batch`` times: each iteration
    pays ``arch.launch_overhead_s`` again, and a grid of B blocks keeps
    only ``min(B, num_sms)`` SMs busy — tiny problems leave most of the
    chip idle every single launch.  *Fused* widens each kernel's grid
    ``batch``× (what ``batch_grid`` does along ``block.z``): one
    overhead, and ``min(B·batch, num_sms)`` SMs active.  The two costs
    come from the same analytic model, so the comparison isolates
    exactly the launch-amortisation + occupancy effect.
    """
    if batch < 1:
        raise ValueError("estimate_batched_time needs batch >= 1")
    serial = estimate_time(arch, models).time_s * batch
    fused_models = [
        replace(m, grid_blocks=m.grid_blocks * batch) for m in models
    ]
    fused = estimate_time(arch, fused_models).time_s
    return BatchTiming(batch=batch, serial_s=serial, fused_s=fused)


@dataclass
class ChainTiming:
    """Back-to-back vs fused launch cost of a routine chain.

    ``serial_s`` runs every node as its own launch sequence;
    ``fused_s`` merges the compute kernels of each fused segment (per
    the edge mask) into one launch whose intermediate stays on chip.
    ``saved_bytes`` is the global intermediate traffic fusion dropped.
    """

    serial_s: float
    fused_s: float
    feasible: bool
    saved_bytes: float
    kernels: List[KernelTiming] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        """The chain's cost as ranked: ``fused_s``, which is ``inf``
        exactly when the merged launch is infeasible."""
        return self.fused_s

    @property
    def speedup(self) -> float:
        return self.serial_s / self.fused_s if self.fused_s > 0 else 0.0


def _merge_segment(
    arch: GPUArch,
    parts,  # [(KernelModel, drop_stores: set, drop_loads: set)]
):
    """One merged compute kernel for a fused segment.

    The merged launch uses the *widest* grid/block of its parts (every
    part's work must fit the shared schedule), pays every part's
    register and shared-memory footprint simultaneously (producer and
    consumer tiles coexist in one kernel — the pressure that makes
    fusion *lose* on register-hungry configs), and concatenates the
    parts' phases with per-block counts rescaled to the merged grid so
    instruction/byte totals are preserved.  Accesses on the segment's
    internal links (the producer's global stores of the intermediate,
    the consumer's global loads of it) are dropped — that round-trip is
    exactly what fusion eliminates.  Returns ``(model, saved_bytes)``.
    """
    grid = max(m.grid_blocks for m, _, _ in parts)
    saved = 0.0
    phases = []
    barriers = 0.0
    for model, drop_stores, drop_loads in parts:
        scale = model.grid_blocks / grid
        barriers += model.barriers_per_block * scale
        for phase in model.phases:
            accesses = []
            for access in phase.accesses:
                dropped = access.space == "global" and (
                    (access.kind == "store" and access.array in drop_stores)
                    or (access.kind == "load" and access.array in drop_loads)
                )
                if dropped:
                    saved += effective_bytes(
                        arch, access, access.count_per_block * model.grid_blocks
                    )
                    continue
                accesses.append(
                    replace(
                        access,
                        count_per_block=access.count_per_block * scale,
                    )
                )
            phases.append(
                replace(
                    phase,
                    flops_per_block=phase.flops_per_block * scale,
                    insts_per_block=phase.insts_per_block * scale,
                    accesses=accesses,
                )
            )
    merged = KernelModel(
        name="+".join(m.name for m, _, _ in parts),
        role="compute",
        grid_blocks=grid,
        threads_per_block=max(m.threads_per_block for m, _, _ in parts),
        regs_per_thread=sum(m.regs_per_thread for m, _, _ in parts),
        smem_bytes=sum(m.smem_bytes for m, _, _ in parts),
        barriers_per_block=barriers,
        phases=phases,
    )
    return merged, saved


@dataclass
class DistTiming:
    """Event-timeline account of one distributed (multi-device) call.

    ``overlapped_s`` is the timeline makespan — transfers overlap with
    every panel compute that does not *wait* on them; ``serial_s`` is
    the legacy accounting (all transfers charged serially on top of the
    slowest panel), kept reachable for the overlap-vs-serial ablation.
    """

    #: modeled kernel time per participating device rank
    per_device_s: Dict[int, float]
    #: cost of each scheduled transfer, in issue order
    transfer_s: List[float]
    #: timeline makespan: max over devices of (inbound done + compute)
    overlapped_s: float
    #: legacy serial charge: sum(transfers) + max(compute)
    serial_s: float
    nominal_flops: float = 0.0

    @property
    def time_s(self) -> float:
        return self.overlapped_s

    @property
    def comm_s(self) -> float:
        return sum(self.transfer_s)

    @property
    def overlap_saved_s(self) -> float:
        """What overlap-aware accounting reclaims from the serial charge."""
        return self.serial_s - self.overlapped_s

    @property
    def gflops(self) -> float:
        t = self.time_s
        return self.nominal_flops / t / 1e9 if t > 0 else 0.0


def estimate_dist_time(
    compute_s: Union[Mapping[int, float], Sequence[float]],
    transfers: Sequence[Tuple[int, str, float]],
    nominal_flops: float = 0.0,
) -> DistTiming:
    """Overlap-aware makespan of panel computes plus one-sided transfers.

    ``compute_s`` maps device rank → modeled kernel time (a sequence is
    taken as ranks ``0..len-1``); ``transfers`` are ``(dst_rank,
    channel, seconds)`` events in issue order (what
    :func:`repro.dist.comm.schedule` emits).  The timeline is simple and
    documented rather than clever:

    * transfers on one channel serialise in issue order; distinct
      channels (peer links of different nodes, the fabric) proceed
      concurrently — that concurrency is exactly what the legacy serial
      account gave away;
    * a device starts computing once all its inbound transfers have
      landed (the one-sided model's signal-wait), and devices compute
      concurrently;
    * the makespan is the latest of any device finish or channel drain.

    ``serial_s`` keeps the old charge — every transfer summed on top of
    the slowest panel — so callers can report both sides of the claim.
    """
    if not isinstance(compute_s, Mapping):
        compute_s = dict(enumerate(compute_s))
    channel_free: Dict[str, float] = {}
    inbound_done: Dict[int, float] = {}
    costs: List[float] = []
    for dst, channel, seconds in transfers:
        if seconds < 0:
            raise ValueError("transfer events cannot run backwards")
        end = channel_free.get(channel, 0.0) + seconds
        channel_free[channel] = end
        inbound_done[dst] = max(inbound_done.get(dst, 0.0), end)
        costs.append(seconds)
    finishes = [
        inbound_done.get(rank, 0.0) + kernel_s
        for rank, kernel_s in compute_s.items()
    ]
    overlapped = max(
        max(finishes, default=0.0), max(channel_free.values(), default=0.0)
    )
    serial = sum(costs) + max(compute_s.values(), default=0.0)
    return DistTiming(
        per_device_s=dict(compute_s),
        transfer_s=costs,
        overlapped_s=overlapped,
        serial_s=serial,
        nominal_flops=nominal_flops,
    )


def estimate_chain_time(
    arch: GPUArch,
    launches: Sequence[Sequence[KernelModel]],
    links: Sequence,
    mask: Optional[Sequence[bool]] = None,
) -> ChainTiming:
    """Serial vs fused launch cost for a chain of routine launches.

    ``launches[i]`` is node *i*'s kernel-model sequence (remap kernels +
    compute kernels, as :func:`repro.codegen.analysis.analyze_computation`
    produces them); ``links[e]`` names the arrays edge *e* carries —
    ``(producer_output_array, consumer_operand_array)`` in each node's
    own model namespace; ``mask[e]`` says whether edge *e* fuses (default
    all edges).  Nodes joined by fused edges form a segment: the
    segment's compute kernels merge into ONE launch (see
    :func:`_merge_segment`) while remap kernels stay separate; unfused
    nodes keep their serial launch sequence.

    The account captures both sides of the fusion trade: one launch
    overhead instead of N and the intermediate's global round-trip
    dropped (fusion wins), against the merged kernel's summed
    register/shared-memory pressure crushing occupancy — or turning the
    launch infeasible outright (fusion loses; the tuner keeps the
    unfused plan).
    """
    n = len(launches)
    if len(links) != n - 1:
        raise ValueError(f"{n} launches need {n - 1} links, got {len(links)}")
    edge_mask = tuple(mask) if mask is not None else tuple([True] * (n - 1))
    if len(edge_mask) != n - 1:
        raise ValueError(f"mask has {len(edge_mask)} entries for {n - 1} edges")

    serial_s = sum(estimate_time(arch, models).time_s for models in launches)

    segments = []
    start = 0
    for e, fused in enumerate(edge_mask):
        if not fused:
            segments.append((start, e))
            start = e + 1
    segments.append((start, n - 1))

    kernels: List[KernelTiming] = []
    saved_total = 0.0
    for a, b in segments:
        if a == b:
            kernels.extend(estimate_time(arch, launches[a]).kernels)
            continue
        parts = []
        for i in range(a, b + 1):
            drop_stores = {links[i][0]} if i < b else set()
            drop_loads = {links[i - 1][1]} if i > a else set()
            for model in launches[i]:
                if model.role == "compute":
                    parts.append((model, drop_stores, drop_loads))
                else:
                    kernels.append(estimate_kernel_time(arch, model))
        merged, saved = _merge_segment(arch, parts)
        saved_total += saved
        kernels.append(estimate_kernel_time(arch, merged))

    fused_timing = LaunchTiming(kernels)
    return ChainTiming(
        serial_s=serial_s,
        fused_s=fused_timing.time_s,
        feasible=fused_timing.feasible,
        saved_bytes=saved_total,
        kernels=kernels,
    )
