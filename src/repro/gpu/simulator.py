"""The simulated-GPU substrate: functional execution + analytic profiling.

The paper runs its generated kernels on three real GPUs; this repo has
none, so :class:`SimulatedGPU` plays that role (see DESIGN.md §2):

* **functional execution** (:meth:`~SimulatedGPU.execute`) interprets
  the transformed IR exactly as a grid of blocks × threads would compute
  it (phases between barriers, register files per thread) — used to
  assert correctness at small sizes and to serve requests;
* **analytic profiling** (:meth:`~SimulatedGPU.profile`; any size, e.g.
  the paper's N=4096) runs the static kernel analysis and the
  coalescing/occupancy/roofline models to produce execution time and
  GFLOPS; the ``cuda_profile``-style counters of Tables I–III are derived
  from the same models when :attr:`RunResult.counters` is first read.

:meth:`~SimulatedGPU.run` is the two together, for tuning, baselines
and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..codegen.analysis import KernelModel, analyze_computation
from ..ir.ast import Computation
from ..jit import LoweredKernel
from ..jit import execute as jit_execute
from .arch import GPUArch
from .counters import ProfileCounters, count_profile
from .timing import LaunchTiming, estimate_time

__all__ = ["RunResult", "SimulatedGPU"]


@dataclass
class RunResult:
    """Everything one launch produces on the simulated GPU."""

    arch: GPUArch
    sizes: Dict[str, int]
    timing: LaunchTiming
    models: List[KernelModel]
    outputs: Optional[Dict[str, np.ndarray]] = None
    nominal_flops: float = 0.0

    @property
    def time_s(self) -> float:
        return self.timing.time_s

    @property
    def gflops(self) -> float:
        t = self.time_s
        return self.nominal_flops / t / 1e9 if t > 0 else 0.0

    @property
    def feasible(self) -> bool:
        return self.timing.feasible

    @cached_property
    def counters(self) -> ProfileCounters:
        """Profile counters of the launch, derived from ``models`` on first
        read (only the Tables I–III reports read them; a search does not)."""
        return count_profile(self.arch, self.models)


class SimulatedGPU:
    """A GPU platform that executes and profiles transformed computations."""

    def __init__(self, arch: GPUArch, telemetry=None):
        self.arch = arch
        self.telemetry = telemetry

    def profile(
        self,
        comp: Computation,
        sizes: Mapping[str, int],
        nominal_flops: float = 0.0,
    ) -> RunResult:
        """Analytic-only run (no data): time and GFLOPS; the profile counters
        follow on first read of :attr:`RunResult.counters`."""
        models = analyze_computation(comp, sizes)
        return RunResult(
            arch=self.arch,
            sizes=dict(sizes),
            timing=estimate_time(self.arch, models),
            models=models,
            nominal_flops=nominal_flops,
        )

    def execute(
        self,
        comp: Computation,
        sizes: Mapping[str, int],
        inputs: Mapping[str, np.ndarray],
        scalars: Optional[Mapping[str, float]] = None,
        flags: Optional[Mapping[str, bool]] = None,
        kernel: Optional[LoweredKernel] = None,
    ) -> Dict[str, np.ndarray]:
        """Functional execution only: the output buffers, no profile.

        Execution goes through the compiled-kernel registry
        (:func:`repro.jit.execute`) — bit-identical to the interpreter,
        with the interpreter as automatic fallback.  A caller holding
        ``comp``'s compiled ``kernel`` (the serving path) skips the
        registry lookup.
        """
        return jit_execute(
            comp,
            sizes,
            inputs,
            scalars=scalars,
            flags=flags,
            telemetry=self.telemetry,
            kernel=kernel,
        )

    def run(
        self,
        comp: Computation,
        sizes: Mapping[str, int],
        inputs: Mapping[str, np.ndarray],
        scalars: Optional[Mapping[str, float]] = None,
        flags: Optional[Mapping[str, bool]] = None,
        nominal_flops: float = 0.0,
    ) -> RunResult:
        """:meth:`execute` plus :meth:`profile` (tuning, baselines, reports)."""
        outputs = self.execute(comp, sizes, inputs, scalars=scalars, flags=flags)
        result = self.profile(comp, sizes, nominal_flops=nominal_flops)
        result.outputs = outputs
        return result
