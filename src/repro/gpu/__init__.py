"""Simulated GPU substrate: architectures, occupancy, counters, timing."""

from .arch import FERMI_C2050, GEFORCE_9800, GTX_285, GPUArch, PLATFORMS
from .exec import lockstep_matches_sequential, run_lockstep
from .counters import (
    ProfileCounters,
    bank_conflict_degree,
    count_profile,
    effective_bytes,
    transactions_per_group,
)
from .occupancy import Occupancy, occupancy
from .simulator import RunResult, SimulatedGPU
from .timing import (
    KernelTiming,
    LaunchTiming,
    estimate_chain_time,
    estimate_kernel_time,
    estimate_time,
)

__all__ = [
    "FERMI_C2050",
    "GEFORCE_9800",
    "GPUArch",
    "GTX_285",
    "KernelTiming",
    "LaunchTiming",
    "Occupancy",
    "PLATFORMS",
    "ProfileCounters",
    "RunResult",
    "SimulatedGPU",
    "bank_conflict_degree",
    "lockstep_matches_sequential",
    "run_lockstep",
    "count_profile",
    "effective_bytes",
    "estimate_chain_time",
    "estimate_kernel_time",
    "estimate_time",
    "occupancy",
    "transactions_per_group",
]
