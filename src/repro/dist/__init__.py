"""Distributed multi-node execution (the paper's §VII at cluster scale).

The paper's multi-GPU future-work step, on one node
(:func:`~repro.dist.topology.single_node`) or many, with a modeled
communication substrate:

* :mod:`~repro.dist.topology` — a :class:`Topology` descriptor: nodes ×
  devices per node plus the three link classes the cost model charges
  (host PCIe, intra-node peer, inter-node fabric).
* :mod:`~repro.dist.comm` — one-sided ``put``/``get`` transfer ops as
  first-class schedulable events, costed per link (in the spirit of
  NVSHMEM-style node libraries).
* :mod:`~repro.dist.plan` — distribution plans: the 1D column/row panel
  split plus 2D block-cyclic process grids for the large-N regime.
* :mod:`~repro.dist.executor` — :class:`DistLibrary`: functional panel
  execution reusing the single-GPU tuned routines, and an event-timeline
  timing model that *overlaps* transfers with panel compute
  (:func:`repro.gpu.timing.estimate_dist_time`) instead of charging them
  serially.

The split strategy is a tuned decision per (arch, topology, N):
:meth:`DistLibrary.generate` ranks every candidate plan through
:func:`repro.tuner.search.rank`, the ranker fusion masks share — with
the 1D split as the baseline, so choosing never loses to the
single-node behaviour.
"""

from .comm import TransferOp, broadcast, get, put, schedule
from .executor import DistLibrary
from .plan import (
    DistPlan,
    broadcast_operands,
    enumerate_plans,
    panel_bounds,
    plan_1d,
    split_dim,
)
from .topology import Link, Topology, multi_node, single_node

__all__ = [
    "DistLibrary",
    "DistPlan",
    "Link",
    "Topology",
    "TransferOp",
    "broadcast",
    "broadcast_operands",
    "enumerate_plans",
    "get",
    "multi_node",
    "panel_bounds",
    "plan_1d",
    "put",
    "schedule",
    "single_node",
    "split_dim",
]
