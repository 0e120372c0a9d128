"""GPU architecture descriptors for the paper's three evaluation platforms.

Specs come from §V of the paper (SM/SP counts, register file, scratchpad,
peak GFLOPS) completed with the public datasheet numbers the performance
model needs (clock, memory bandwidth, occupancy limits) and each chip's
compute-capability memory rules:

* **GeForce 9800 GTX** (G92, cc 1.0/1.1): strict half-warp coalescing —
  any non-unit stride serialises into 16 separate transactions.  This is
  the platform where CUBLAS SYMM's mixed-mode accesses hurt most
  (Table I: 315M ``gld_incoherent``).
* **GTX 285** (GT200, cc 1.3): relaxed coalescing — a half-warp's accesses
  are served by however many 32/64/128-byte segments they touch, so
  strided access costs extra *bandwidth*, not 16× serialisation
  (Table II: ``gld_incoherent`` is 0 even for CUBLAS).
* **Tesla C2050** (Fermi, cc 2.0): L1-cached 128-byte lines per warp;
  the profiler reports per-warp ``gld_request`` counts (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

__all__ = ["GPUArch", "GEFORCE_9800", "GTX_285", "FERMI_C2050", "PLATFORMS"]


@dataclass(frozen=True)
class GPUArch:
    """Static description of one GPU platform."""

    name: str
    compute_capability: Tuple[int, int]
    num_sms: int
    sps_per_sm: int
    clock_ghz: float
    regs_per_sm: int
    smem_per_sm: int  # bytes
    smem_banks: int
    warp_size: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    max_warps_per_sm: int
    mem_bandwidth_gbs: float
    dram_latency_cycles: int
    #: fused multiply-add counts as 2 FLOPs in one instruction slot
    flops_per_sp_per_cycle: int = 2
    #: fixed per-kernel launch cost (seconds)
    launch_overhead_s: float = 5e-6
    #: calibration: bandwidth-waste ceiling for scattered accesses (how many
    #: bytes move per useful byte).  G80's strict coalescer serialises a
    #: half-warp into 16 32-byte transactions (8×); GT200's segment
    #: coalescer recovers about half of that on real access streams; Fermi's
    #: L1 turns a per-thread sequential column walk into ~2× waste.
    uncoalesced_waste_cap: float = 8.0
    sequential_walk_waste: float = 8.0

    @property
    def peak_gflops(self) -> float:
        return (
            self.num_sms
            * self.sps_per_sm
            * self.clock_ghz
            * self.flops_per_sp_per_cycle
        )

    # The timing and counter models read these two per memory access.
    @cached_property
    def is_fermi(self) -> bool:
        return self.compute_capability >= (2, 0)

    @cached_property
    def coalesce_granularity(self) -> int:
        """Threads whose accesses are grouped into transactions."""
        return self.warp_size if self.is_fermi else self.warp_size // 2

    def __str__(self):
        return self.name


GEFORCE_9800 = GPUArch(
    name="GeForce 9800",
    compute_capability=(1, 1),
    num_sms=16,
    sps_per_sm=8,
    clock_ghz=1.674,
    regs_per_sm=8192,
    smem_per_sm=16 * 1024,
    smem_banks=16,
    warp_size=32,
    max_threads_per_sm=768,
    max_blocks_per_sm=8,
    max_threads_per_block=512,
    max_warps_per_sm=24,
    mem_bandwidth_gbs=70.4,
    dram_latency_cycles=500,
    uncoalesced_waste_cap=8.0,
    sequential_walk_waste=8.0,
)

GTX_285 = GPUArch(
    name="GTX 285",
    compute_capability=(1, 3),
    num_sms=30,
    sps_per_sm=8,
    clock_ghz=1.476,
    regs_per_sm=16384,
    smem_per_sm=16 * 1024,
    smem_banks=16,
    warp_size=32,
    max_threads_per_sm=1024,
    max_blocks_per_sm=8,
    max_threads_per_block=512,
    max_warps_per_sm=32,
    mem_bandwidth_gbs=159.0,
    dram_latency_cycles=550,
    uncoalesced_waste_cap=4.0,
    sequential_walk_waste=4.0,
)

FERMI_C2050 = GPUArch(
    name="Fermi Tesla C2050",
    compute_capability=(2, 0),
    num_sms=14,
    sps_per_sm=32,
    clock_ghz=1.15,
    regs_per_sm=32768,
    smem_per_sm=48 * 1024,
    smem_banks=32,
    warp_size=32,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    max_threads_per_block=1024,
    max_warps_per_sm=48,
    mem_bandwidth_gbs=144.0,
    dram_latency_cycles=600,
    uncoalesced_waste_cap=8.0,
    sequential_walk_waste=2.0,
)

PLATFORMS: Dict[str, GPUArch] = {
    "geforce9800": GEFORCE_9800,
    "gtx285": GTX_285,
    "fermi": FERMI_C2050,
}
