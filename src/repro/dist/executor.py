"""DistLibrary: tuner-chosen distribution plans plus panel execution.

The distributed analogue of :class:`repro.tuner.library.GeneratedLibrary`:
single-GPU tuned routines stay the unit of compute, and this layer adds
the per-(arch, topology, N) decision of *how to spread one call* over the
topology's device ranks.

* :meth:`DistLibrary.timing` costs one plan with the event timeline
  (:func:`repro.gpu.timing.estimate_dist_time`): transfers serialise per
  channel but **overlap** with other channels and with compute on ranks
  whose inbound data already landed.
* :meth:`DistLibrary.generate` ranks every candidate plan through
  :func:`repro.tuner.search.rank` — the 1D panel split is the baseline,
  so plan choice never loses to the single-node behaviour.
* :meth:`DistLibrary.run` executes the chosen plan functionally, slicing
  each operand on the axis its declared dims put the split on.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..blas3.routines import RoutineSpec, get_spec, infer_sizes
from ..gpu.arch import GPUArch
from ..gpu.simulator import SimulatedGPU
from ..gpu.timing import DistTiming, estimate_dist_time
from ..telemetry import Telemetry, ensure_telemetry
from ..tuner.library import LibraryGenerator, TunedRoutine
from ..tuner.search import rank
from .comm import TransferOp, broadcast, get, schedule
from .plan import (
    DistPlan,
    broadcast_operands,
    enumerate_plans,
    owned_tiles,
    panel_bounds,
    plan_1d,
    split_axis,
    tile_bounds,
)
from .topology import Topology

__all__ = ["DistLibrary"]


def _array_bytes(spec: RoutineSpec, name: str, sizes: Mapping[str, int]) -> float:
    for arr in spec.arrays:
        if arr.name == name:
            elems = 1.0
            for d in arr.dims:
                elems *= d.evaluate(sizes)
            return elems * float(np.dtype(arr.dtype).itemsize)
    return 0.0


def _itemsize(spec: RoutineSpec, name: str) -> float:
    for arr in spec.arrays:
        if arr.name == name:
            return float(np.dtype(arr.dtype).itemsize)
    return 4.0


def _sizes_key(sizes: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((k, int(v)) for k, v in sizes.items()))


class DistLibrary:
    """Distributed BLAS3 over a :class:`~repro.dist.topology.Topology`."""

    def __init__(
        self,
        arch: GPUArch,
        topology: Topology,
        generator: Optional[LibraryGenerator] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.arch = arch
        self.topology = topology
        if telemetry is None and generator is not None:
            telemetry = generator.telemetry
        self.telemetry = ensure_telemetry(telemetry)
        self.generator = generator or LibraryGenerator(arch, telemetry=self.telemetry)
        #: (routine, topology key, sizes key) → RankResult
        self._plan_memo: Dict[tuple, object] = {}
        #: (routine, sizes key) → modeled kernel seconds for one panel/tile
        self._profile_memo: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def routine(self, name: str) -> TunedRoutine:
        return self.generator.generate(name)

    def plans(self, name: str) -> List[DistPlan]:
        """Candidate plans for ``name`` on this topology (1D first)."""
        return enumerate_plans(get_spec(name), self.topology)

    def default_plan(self, name: str) -> DistPlan:
        """The legacy 1D split over every device (no search)."""
        return plan_1d(get_spec(name), self.topology.total_devices)

    # ------------------------------------------------------------------
    def transfers(
        self, plan: DistPlan, sizes: Mapping[str, int]
    ) -> List[TransferOp]:
        """The one-sided ops a plan issues before compute, in issue order.

        * **1D** — rank 0 owns the replicated operands and *puts* each to
          every participating peer (split operands are resident with
          their owner: no transfer).
        * **2D** — operands are distributed like the output; each rank
          *gets* the A slices its row-block needs from its ``pc - 1``
          grid-row peers and the B slices its column-block needs from its
          ``pr - 1`` grid-column peers, ``1/pc`` (resp. ``1/pr``) of the
          K extent from each.
        """
        spec = get_spec(plan.routine)
        if plan.kind == "1d":
            parts = len(panel_bounds(int(sizes[plan.split]), plan.devices))
            ops: List[TransferOp] = []
            for name in broadcast_operands(spec, plan.split):
                nbytes = _array_bytes(spec, name, sizes)
                ops.extend(broadcast(name, 0, range(parts), nbytes))
            return ops

        pr, pc = plan.grid
        k = float(sizes["K"])
        a_item = _itemsize(spec, "A")
        b_item = _itemsize(spec, "B")
        owned = owned_tiles(plan, sizes)
        row_blocks = tile_bounds(int(sizes["M"]), pr, plan.cyclic)
        col_blocks = tile_bounds(int(sizes["N"]), pc, plan.cyclic)
        rows_of = {
            r: sum(hi - lo for i, (lo, hi) in enumerate(row_blocks) if i % pr == r)
            for r in range(pr)
        }
        cols_of = {
            c: sum(hi - lo for j, (lo, hi) in enumerate(col_blocks) if j % pc == c)
            for c in range(pc)
        }
        ops = []
        for r in range(pr):
            for c in range(pc):
                dst = r * pc + c
                if dst not in owned:
                    continue
                for c2 in range(pc):
                    if c2 == c:
                        continue
                    nbytes = rows_of[r] * (k / pc) * a_item
                    if nbytes > 0:
                        ops.append(get("A", r * pc + c2, dst, nbytes))
                for r2 in range(pr):
                    if r2 == r:
                        continue
                    nbytes = cols_of[c] * (k / pr) * b_item
                    if nbytes > 0:
                        ops.append(get("B", r2 * pc + c, dst, nbytes))
        return ops

    # ------------------------------------------------------------------
    def _kernel_s(self, tuned: TunedRoutine, gpu: SimulatedGPU, sizes) -> float:
        key = (tuned.name, _sizes_key(sizes))
        hit = self._profile_memo.get(key)
        if hit is None:
            hit = gpu.profile(
                tuned.comp, dict(sizes), nominal_flops=tuned.spec.nominal_flops(dict(sizes))
            ).time_s
            self._profile_memo[key] = hit
        return hit

    def timing(
        self,
        name: str,
        n: Optional[int] = None,
        *,
        plan: Optional[DistPlan] = None,
        sizes: Optional[Mapping[str, int]] = None,
    ) -> DistTiming:
        """Event-timeline model of one distributed call.

        Per-rank kernel times come from the simulated GPU on each rank's
        panel/tile sizes; transfer events come from :meth:`transfers`.
        The returned :class:`~repro.gpu.timing.DistTiming` carries both
        the overlapped account (``time_s``) and the serial one
        (``serial_s``) the old model charged.
        """
        spec = get_spec(name)
        if sizes is None:
            if n is None:
                raise ValueError("timing() needs n or sizes")
            sizes = spec.make_sizes(n)
        if plan is None:
            plan = self.default_plan(name)
        with self.telemetry.span(
            "dist.timing",
            routine=spec.name,
            plan=plan.describe(),
            devices=plan.devices,
        ):
            tuned = self.routine(name)
            gpu = SimulatedGPU(self.arch)
            compute: Dict[int, float] = {}
            if plan.kind == "1d":
                length = int(sizes[plan.split])
                bounds = panel_bounds(length, plan.devices)
                if length % plan.devices:
                    self.telemetry.incr("dist.uneven_splits")
                if len(bounds) < plan.devices:
                    self.telemetry.incr(
                        "dist.empty_panels", plan.devices - len(bounds)
                    )
                for rank, (lo, hi) in enumerate(bounds):
                    panel_sizes = dict(sizes)
                    panel_sizes[plan.split] = hi - lo
                    compute[rank] = self._kernel_s(tuned, gpu, panel_sizes)
            else:
                owned = owned_tiles(plan, sizes)
                if int(sizes["M"]) % plan.grid[0] or int(sizes["N"]) % plan.grid[1]:
                    self.telemetry.incr("dist.uneven_splits")
                missing = plan.devices - len(owned)
                if missing > 0:
                    self.telemetry.incr("dist.empty_panels", missing)
                for rank, tiles in owned.items():
                    total = 0.0
                    for (rlo, rhi), (clo, chi) in tiles:
                        tile_sizes = dict(sizes)
                        tile_sizes["M"] = rhi - rlo
                        tile_sizes["N"] = chi - clo
                        total += self._kernel_s(tuned, gpu, tile_sizes)
                    compute[rank] = total

            ops = self.transfers(plan, sizes)
            self.telemetry.incr("dist.transfers", len(ops))
            self.telemetry.incr("dist.bytes", int(sum(op.nbytes for op in ops)))
            timing = estimate_dist_time(
                compute,
                schedule(ops, self.topology),
                nominal_flops=spec.nominal_flops(dict(sizes)),
            )
            self.telemetry.incr("dist.timings")
            return timing

    def gflops(self, name: str, n: int, plan: Optional[DistPlan] = None) -> float:
        return self.timing(name, n, plan=plan).gflops

    # ------------------------------------------------------------------
    def generate(
        self,
        name: str,
        n: Optional[int] = None,
        *,
        sizes: Optional[Mapping[str, int]] = None,
    ):
        """Search the distribution plans for ``name`` at one problem size.

        Every candidate of :func:`~repro.dist.plan.enumerate_plans` is
        costed with :meth:`timing` and ranked by
        :func:`repro.tuner.search.rank`, the ranker fusion masks share:
        the 1D split comes first, so it is the baseline and wins ties.
        Results are memoised per (routine, topology, sizes).  Returns a
        :class:`repro.tuner.search.RankResult` whose ``winner`` is the
        chosen :class:`~repro.dist.plan.DistPlan`.
        """
        spec = get_spec(name)
        if sizes is None:
            if n is None:
                raise ValueError("generate() needs n or sizes")
            sizes = spec.make_sizes(n)
        key = (spec.name, self.topology.key(), _sizes_key(sizes))
        hit = self._plan_memo.get(key)
        if hit is not None:
            return hit
        with self.telemetry.span(
            "dist.generate",
            routine=spec.name,
            topology=str(self.topology),
            devices=self.topology.total_devices,
        ):
            result = rank(
                enumerate_plans(spec, self.topology),
                lambda p: self.timing(name, sizes=sizes, plan=p),
            )
            self.telemetry.incr("search.dist_plans", len(result.evaluated))
            self.telemetry.incr(
                "dist.plan_2d_selected"
                if result.winner.kind == "2d"
                else "dist.plan_1d_selected"
            )
        self._plan_memo[key] = result
        return result

    # ------------------------------------------------------------------
    def run(
        self,
        name: str,
        *,
        plan: Optional[DistPlan] = None,
        tuned: Optional[TunedRoutine] = None,
        alpha: float = 1.0,
        beta: float = 1.0,
        sizes: Optional[Mapping[str, int]] = None,
        **arrays: np.ndarray,
    ) -> np.ndarray:
        """Functional distributed execution of one call.

        With ``plan=None`` the tuner-chosen plan for the call's sizes is
        used (searched and memoised on first need).  Each panel or tile
        runs ``tuned``, by default the generator's routine for ``name``;
        a caller already holding a resolved routine (the serving tier's
        plan) passes it so nothing is re-tuned.  The unified calling
        convention (keyword arrays, explicit ``alpha``/``beta``) is
        shared with :meth:`TunedRoutine.run`.
        """
        spec = get_spec(name)
        if tuned is None:
            tuned = self.routine(name)
        full = {k: np.asarray(v) for k, v in arrays.items()}
        logical = dict(sizes) if sizes is not None else infer_sizes(spec, full)
        if plan is None:
            plan = self.generate(name, sizes=logical).winner
        with self.telemetry.span(
            "dist.run", routine=spec.name, plan=plan.describe(), devices=plan.devices
        ):
            self.telemetry.incr("dist.runs")
            if plan.kind == "1d":
                return self._run_1d(spec, tuned, plan, full, logical, alpha, beta)
            return self._run_2d(spec, tuned, plan, full, logical, alpha, beta)

    def _run_1d(self, spec, tuned, plan, full, logical, alpha, beta):
        split = plan.split
        length = int(logical[split])
        bounds = panel_bounds(length, plan.devices)
        if length % plan.devices:
            self.telemetry.incr("dist.uneven_splits")
        panels = []
        for lo, hi in bounds:
            panel_inputs = {}
            for arr in spec.arrays:
                if arr.name not in full:
                    continue
                data = full[arr.name]
                axis = split_axis(arr, split)
                if axis is not None:
                    index = [slice(None)] * data.ndim
                    index[axis] = slice(lo, hi)
                    data = data[tuple(index)]
                panel_inputs[arr.name] = np.ascontiguousarray(data)
            panel_sizes = dict(logical)
            panel_sizes[split] = hi - lo
            panels.append(
                tuned._execute(panel_inputs, sizes=panel_sizes, alpha=alpha, beta=beta)
            )
        out_arr = next(a for a in spec.arrays if a.name == spec.output)
        return np.concatenate(panels, axis=split_axis(out_arr, split))

    def _run_2d(self, spec, tuned, plan, full, logical, alpha, beta):
        ta = spec.variant.trans_a
        tb = spec.variant.trans_b
        m, n, k = int(logical["M"]), int(logical["N"]), int(logical["K"])
        a = full["A"]
        b = full["B"]
        c = full.get("C")
        out = np.zeros((m, n), dtype=np.float32)
        owned = owned_tiles(plan, logical)
        for rank in sorted(owned):
            for (rlo, rhi), (clo, chi) in owned[rank]:
                a_panel = a[rlo:rhi, :k] if ta == "N" else a[:k, rlo:rhi]
                b_panel = b[:k, clo:chi] if tb == "N" else b[clo:chi, :k]
                tile_inputs = {
                    "A": np.ascontiguousarray(a_panel),
                    "B": np.ascontiguousarray(b_panel),
                }
                if c is not None:
                    tile_inputs["C"] = np.ascontiguousarray(c[rlo:rhi, clo:chi])
                tile_sizes = {"M": rhi - rlo, "N": chi - clo, "K": k}
                out[rlo:rhi, clo:chi] = tuned._execute(
                    tile_inputs, sizes=tile_sizes, alpha=alpha, beta=beta
                )
        return out
