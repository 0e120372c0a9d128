"""Profile counters: the ``cuda_profile`` events of Tables I–III.

Derived from the :class:`~repro.codegen.analysis.KernelModel` plus the
architecture's memory rules:

* **cc 1.0/1.1** (GeForce 9800) — strict half-warp coalescing: a unit-
  stride access is one coherent transaction per half-warp; *any* other
  stride serialises into one incoherent transaction per thread
  (``gld_incoherent`` / ``gst_incoherent``, Table I).
* **cc 1.3** (GTX 285) — transactions are 32-byte segments; nothing is
  reported incoherent, strided accesses just touch more segments
  (Table II).
* **cc 2.0** (Fermi) — the profiler reports per-warp requests
  (``gld_request``/``gst_request``) and instruction counts (Table III);
  cache lines are 128 bytes.

Counts are normalised the way ``cuda_profile`` reports them: events from
one SM's share of the launch (totals divided by the SM count), instruction
counts at warp granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..codegen.analysis import AccessModel, KernelModel, LARGE_STRIDE
from .arch import GPUArch

__all__ = ["ProfileCounters", "count_profile", "transactions_per_group", "effective_bytes"]


@dataclass
class ProfileCounters:
    """Aggregated profiler events for one launch sequence."""

    gld_coherent: float = 0.0
    gld_incoherent: float = 0.0
    gst_coherent: float = 0.0
    gst_incoherent: float = 0.0
    gld_request: float = 0.0
    gst_request: float = 0.0
    local_load: float = 0.0
    local_store: float = 0.0
    instructions: float = 0.0
    smem_bank_conflicts: float = 0.0
    branches: float = 0.0

    def merged(self, other: "ProfileCounters") -> "ProfileCounters":
        out = ProfileCounters()
        for name in vars(out):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out


def transactions_per_group(arch: GPUArch, stride: int) -> float:
    """Memory transactions issued for one access group (half-warp or warp).

    ``stride`` is the element (4-byte) distance between consecutive
    threads; 0 means all threads hit the same address (broadcast).
    """
    g = arch.coalesce_granularity
    stride = abs(stride)
    if stride == 0:
        return 1.0
    if arch.compute_capability < (1, 2):
        return 1.0 if stride == 1 else float(g)
    if not arch.is_fermi:
        # cc1.3: segments of 32B covering the half-warp's span.
        span_bytes = min(stride, LARGE_STRIDE) * (g - 1) * 4 + 4
        return float(min(g, max(1, -(-span_bytes // 64))))
    # Fermi: 128-byte cache lines touched by the warp.
    span_bytes = min(stride, LARGE_STRIDE) * (g - 1) * 4 + 4
    return float(min(g, max(1, -(-span_bytes // 128))))


def _transaction_bytes(arch: GPUArch, stride: int) -> float:
    """Bytes moved over DRAM per access *group*."""
    g = arch.coalesce_granularity
    useful = g * 4.0
    n_tx = transactions_per_group(arch, stride)
    if arch.compute_capability < (1, 2):
        per_tx = 64.0 if n_tx == 1 else 32.0  # serialised 32B transactions
    elif not arch.is_fermi:
        per_tx = 64.0 if n_tx <= 2 else 32.0
    else:
        per_tx = 128.0
    return max(useful, n_tx * per_tx)


def effective_bytes(arch: GPUArch, access: AccessModel, total_execs: float) -> float:
    """DRAM traffic attributable to one access over the launch.

    Waste (bytes moved / bytes used) is capped by the architecture's
    calibration knobs: the raw transaction model over-charges streaming
    column walks that real memory systems partially recover (GT200's
    segment coalescer, Fermi's L1).
    """
    if access.space != "global":
        return 0.0
    useful = total_execs * 4.0
    if access.serial:
        # One thread: each access is its own 32B transaction (or an L1 hit).
        waste = 2.0 if arch.is_fermi else 8.0
        return useful * waste
    groups = total_execs / arch.coalesce_granularity
    raw = groups * _transaction_bytes(arch, access.stride_tx)
    cap = (
        arch.sequential_walk_waste
        if access.thread_sequential
        else arch.uncoalesced_waste_cap
    )
    return min(raw, useful * cap) if raw > useful else raw


def bank_conflict_degree(arch: GPUArch, stride: int) -> float:
    """Serialisation factor for a shared-memory access."""
    import math

    stride = abs(stride)
    if stride == 0:
        return 1.0  # broadcast
    return float(math.gcd(stride, arch.smem_banks))


def count_profile(
    arch: GPUArch, models: Sequence[KernelModel]
) -> ProfileCounters:
    """Aggregate profiler events for a launch sequence on ``arch``."""
    out = ProfileCounters()
    for model in models:
        for access, total in model.accesses():
            if access.space == "shared":
                degree = bank_conflict_degree(arch, access.stride_tx)
                if degree > 1:
                    out.smem_bank_conflicts += (
                        total / arch.coalesce_granularity * (degree - 1) / arch.num_sms
                    )
                continue
            if access.space != "global":
                continue
            if access.serial:
                groups = total  # every lane its own transaction
                n_tx = 1.0
                coalesced = False
            else:
                groups = total / arch.coalesce_granularity
                n_tx = transactions_per_group(arch, access.stride_tx)
                coalesced = n_tx == 1.0
            per_sm = groups / arch.num_sms
            if arch.is_fermi:
                if access.kind == "load":
                    out.gld_request += per_sm
                else:
                    out.gst_request += per_sm
            elif arch.compute_capability < (1, 2):
                if coalesced and not access.serial:
                    if access.kind == "load":
                        out.gld_coherent += per_sm
                    else:
                        out.gst_coherent += per_sm
                else:
                    if access.kind == "load":
                        out.gld_incoherent += per_sm * n_tx
                    else:
                        out.gst_incoherent += per_sm * n_tx
            else:
                # cc1.3 never reports incoherent events.
                if access.kind == "load":
                    out.gld_coherent += per_sm * n_tx
                else:
                    out.gst_coherent += per_sm * n_tx
        out.instructions += model.total_insts() / arch.warp_size / arch.num_sms
        out.branches += model.barriers_per_block * model.grid_blocks / arch.num_sms
    return out
