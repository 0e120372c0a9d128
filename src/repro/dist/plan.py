"""Distribution plans: how one BLAS3 call spreads over a topology.

Two plan families, both reusing the single-GPU tuned routines per panel:

* **1D panel split** — the legacy strategy: the independent dimension
  (column panels for GEMM / left-side variants, row panels for
  right-side ones) is ceil-split across all devices and every operand
  *without* that dimension is replicated to each participant (the
  broadcast).  Always a candidate, so plan selection never loses to the
  single-node behaviour.
* **2D block-cyclic process grid** — for the large-N regime (GEMM
  family): devices form a ``pr × pc`` grid, the output is distributed
  block-cyclically over it, and each device fetches only the operand
  slices its tiles need from its grid-row/grid-column peers — per-device
  communication shrinks from the full operand to ``O(1/pr + 1/pc)`` of
  it, at the price of more (smaller) messages and tiles.

The broadcast operands are *derived from the routine spec* — an operand
is replicated exactly when its declared dims do not contain the split
dimension, which also gets batched variants right, where the
replicated operand is ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..blas3.routines import RoutineSpec
from .topology import Topology

__all__ = [
    "DistPlan",
    "split_dim",
    "split_axis",
    "broadcast_operands",
    "panel_bounds",
    "tile_bounds",
    "owned_tiles",
    "plan_1d",
    "enumerate_plans",
]


@dataclass(frozen=True)
class DistPlan:
    """One way to distribute a routine over ``pr × pc`` device ranks.

    ``kind == "1d"`` splits ``split`` into ``devices`` ceil-sized panels
    (``grid`` is ``(1, P)`` for a column split, ``(P, 1)`` for rows).
    ``kind == "2d"`` distributes the output block-cyclically over the
    grid; ``cyclic`` is the number of tiles per grid dimension per
    device (1 = plain block distribution).
    """

    routine: str
    kind: str  # "1d" | "2d"
    grid: Tuple[int, int]
    split: str
    cyclic: int = 1

    def __post_init__(self):
        if self.kind not in ("1d", "2d"):
            raise ValueError(f"plan kind must be 1d/2d, got {self.kind!r}")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ValueError(f"bad process grid {self.grid}")
        if self.cyclic < 1:
            raise ValueError("cyclic factor must be >= 1")

    @property
    def devices(self) -> int:
        return self.grid[0] * self.grid[1]

    def describe(self) -> str:
        if self.kind == "1d":
            return f"1d[{self.split}/{self.devices}]"
        suffix = f"x{self.cyclic}" if self.cyclic > 1 else ""
        return f"2d[{self.grid[0]}x{self.grid[1]}{suffix}]"


def split_dim(spec: RoutineSpec) -> str:
    """The dimension a 1D split partitions across devices.

    GEMM and left-side variants have independent *column* panels; for
    right-side variants the roles flip and *row* panels are independent.
    (Batched variants fall to the row split: the per-problem rows of
    every batch entry are independent.)
    """
    if spec.variant.family == "GEMM" or spec.variant.side == "L":
        return "N"
    return "M"


def split_axis(arr, split: str):
    """The axis of ``arr`` carrying the split dimension, or ``None``.

    Slicing by declared-dim position (not a hardcoded axis) is what
    keeps transposed operands correct — GEMM-NT's ``B`` is ``(N, K)``,
    so its column split slices axis 0."""
    for axis, dim in enumerate(arr.dims):
        if str(dim) == split:
            return axis
    return None


def broadcast_operands(spec: RoutineSpec, split: str) -> Tuple[str, ...]:
    """Operands replicated to every rank: those without the split dim."""
    return tuple(
        arr.name for arr in spec.arrays if split_axis(arr, split) is None
    )


def panel_bounds(length: int, parts: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` split-dimension slices, one per non-empty panel.

    Ceil-sized panels: an uneven split gives the first devices the
    larger panel and the last the remainder, so the slowest device
    models the *largest* panel.  Ranks beyond ``length`` get no panel.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    step = -(-length // parts)
    bounds = []
    for d in range(parts):
        lo = min(length, d * step)
        hi = min(length, lo + step)
        if lo < hi:
            bounds.append((lo, hi))
    return bounds


def tile_bounds(length: int, parts: int, cyclic: int) -> List[Tuple[int, int]]:
    """Non-empty block bounds of a block-cyclic dimension.

    The dimension is cut into ``parts * cyclic`` ceil-sized blocks;
    block ``b`` is owned by grid coordinate ``b % parts``."""
    return panel_bounds(length, parts * cyclic)


def owned_tiles(
    plan: DistPlan, sizes
) -> Dict[int, List[Tuple[Tuple[int, int], Tuple[int, int]]]]:
    """rank → list of ``((rlo, rhi), (clo, chi))`` output tiles it owns.

    Ranks are grid-row-major (``rank = r * pc + c``), which lands each
    grid row on consecutive devices — on a multi-node topology whose
    node width matches ``pc``, grid-row traffic stays on peer links.
    """
    pr, pc = plan.grid
    rows = tile_bounds(sizes["M"], pr, plan.cyclic)
    cols = tile_bounds(sizes["N"], pc, plan.cyclic)
    owned: Dict[int, List[Tuple[Tuple[int, int], Tuple[int, int]]]] = {}
    for bi, rbounds in enumerate(rows):
        for bj, cbounds in enumerate(cols):
            rank = (bi % pr) * pc + (bj % pc)
            owned.setdefault(rank, []).append((rbounds, cbounds))
    return owned


def plan_1d(spec: RoutineSpec, devices: int) -> DistPlan:
    """The legacy panel split over ``devices`` ranks."""
    split = split_dim(spec)
    grid = (1, devices) if split == "N" else (devices, 1)
    return DistPlan(routine=spec.name, kind="1d", grid=grid, split=split)


def _grid_factors(devices: int) -> List[Tuple[int, int]]:
    """All genuinely 2D factorisations ``pr × pc == devices``."""
    out = []
    for pr in range(2, devices):
        if devices % pr == 0 and devices // pr >= 2:
            out.append((pr, devices // pr))
    return out


#: block-cyclic factors the plan search crosses into each 2D grid
CYCLIC_FACTORS = (1, 2)


def enumerate_plans(spec: RoutineSpec, topology: Topology) -> List[DistPlan]:
    """Candidate plans for one routine on one topology, 1D first.

    The 1D split is *always* emitted (plan selection can never lose to
    the legacy behaviour); 2D grids are emitted for the GEMM family only
    — its output tiles depend on plain operand panels, so every tile
    runs the tuned GEMM kernel unchanged.  Structured variants (SYMM /
    TRMM / TRSM) keep their panel split, where the structured operand
    stays whole on every rank.
    """
    devices = topology.total_devices
    plans = [plan_1d(spec, devices)]
    if spec.variant.family != "GEMM" or devices < 4:
        return plans
    for pr, pc in _grid_factors(devices):
        for cyclic in CYCLIC_FACTORS:
            plans.append(
                DistPlan(
                    routine=spec.name,
                    kind="2d",
                    grid=(pr, pc),
                    split="MN",
                    cyclic=cyclic,
                )
            )
    return plans
