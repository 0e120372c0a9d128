"""Topology descriptors: nodes × devices plus the links between them.

A :class:`Topology` is the static shape of the cluster the distribution
planner targets — how many nodes, how many devices per node, and the
bandwidth/latency of the three link classes every transfer is costed on:

* **host** — the PCIe link between a node's host memory and its devices
  (the classic staging path; the legacy single-node broadcast model);
* **peer** — intra-node device-to-device transfers (P2P over the PCIe
  switch / NVLink-class links, depending on the era modeled);
* **fabric** — the inter-node interconnect.  It is modeled as ONE shared
  resource (a flat, bisection-limited switch): every cross-node transfer
  serialises on it, which is what makes broadcast-heavy 1D plans lose to
  2D grids at large N.

Link *latency* is charged per transfer (one-sided op issue + completion
signalling), so fine-grained plans pay for their message count — the
term that keeps the 1D split competitive at small N.

Devices are numbered with global ranks ``0 .. total_devices-1`` in
node-major order: node ``k`` hosts ranks ``[k*devices_per_node,
(k+1)*devices_per_node)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Link", "Topology", "single_node", "multi_node", "PCIE_BANDWIDTH_GBS"]

#: Gen2 x16, the era's host link (shared by the paper's three platforms).
PCIE_BANDWIDTH_GBS = 6.0


@dataclass(frozen=True)
class Link:
    """One link class: per-transfer latency plus a bandwidth term."""

    name: str
    bandwidth_gbs: float
    latency_s: float = 0.0

    def __post_init__(self):
        if self.bandwidth_gbs <= 0:
            raise ValueError(f"link {self.name!r} needs positive bandwidth")
        if self.latency_s < 0:
            raise ValueError(f"link {self.name!r} has negative latency")

    def transfer_s(self, nbytes: float) -> float:
        """Modeled time of one transfer of ``nbytes`` over this link."""
        return self.latency_s + float(nbytes) / (self.bandwidth_gbs * 1e9)


@dataclass(frozen=True)
class Topology:
    """Static shape of the execution substrate the planner targets."""

    nodes: int
    devices_per_node: int
    host_link: Link
    peer_link: Link
    fabric_link: Link
    name: str = ""

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("topology needs at least one node")
        if self.devices_per_node < 1:
            raise ValueError("topology needs at least one device per node")

    @property
    def total_devices(self) -> int:
        return self.nodes * self.devices_per_node

    def node_of(self, rank: int) -> int:
        """The node hosting a global device rank (node-major layout)."""
        if not 0 <= rank < self.total_devices:
            raise ValueError(
                f"rank {rank} outside topology of {self.total_devices} devices"
            )
        return rank // self.devices_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def link_between(self, src: int, dst: int) -> Link:
        """The link a ``src → dst`` device transfer is costed on."""
        if src == dst:
            raise ValueError(f"no link from device {src} to itself")
        return self.peer_link if self.same_node(src, dst) else self.fabric_link

    def channel(self, src: int, dst: int) -> str:
        """The serialisation resource a ``src → dst`` transfer occupies.

        Transfers sharing a channel run back to back on the event
        timeline; distinct channels proceed concurrently.  Intra-node
        transfers occupy their node's peer channel; every inter-node
        transfer shares the single fabric channel.
        """
        if self.same_node(src, dst):
            return f"peer:{self.node_of(src)}"
        return "fabric"

    def key(self) -> str:
        """Stable identity for plan memoisation / cache keying."""
        parts = [f"{self.nodes}x{self.devices_per_node}"]
        for link in (self.host_link, self.peer_link, self.fabric_link):
            parts.append(f"{link.name}={link.bandwidth_gbs:g}gbs+{link.latency_s:g}s")
        return ":".join(parts)

    def __str__(self):
        return self.name or f"{self.nodes} node(s) × {self.devices_per_node} device(s)"


def single_node(
    devices: int,
    pcie_gbs: float = PCIE_BANDWIDTH_GBS,
    peer_gbs: float | None = None,
    peer_latency_s: float = 0.0,
) -> Topology:
    """One node of ``devices`` identical GPUs — the legacy substrate.

    Defaults reproduce the original single-node broadcast model exactly:
    peer transfers stage through host PCIe (one host→device copy per
    extra device) at :data:`PCIE_BANDWIDTH_GBS` with zero per-message
    latency.
    """
    host = Link("pcie", pcie_gbs, 0.0)
    peer = Link("peer", peer_gbs if peer_gbs is not None else pcie_gbs, peer_latency_s)
    return Topology(
        nodes=1,
        devices_per_node=devices,
        host_link=host,
        peer_link=peer,
        # unused on one node, but keep the descriptor total
        fabric_link=Link("fabric", pcie_gbs, 0.0),
        name=f"single-node-{devices}",
    )


def multi_node(
    nodes: int,
    devices_per_node: int,
    pcie_gbs: float = PCIE_BANDWIDTH_GBS,
    peer_gbs: float = 12.0,
    peer_latency_s: float = 5e-6,
    fabric_gbs: float = 3.0,
    fabric_latency_s: float = 25e-6,
) -> Topology:
    """A cluster of identical nodes joined by a shared fabric.

    Era-appropriate defaults: PCIe Gen2 host links, P2P peer copies at
    roughly 2× host bandwidth, and a QDR-InfiniBand-class fabric —
    3 GB/s sustained with a 25 µs per-message one-sided-op overhead
    (issue + remote completion signal)."""
    return Topology(
        nodes=nodes,
        devices_per_node=devices_per_node,
        host_link=Link("pcie", pcie_gbs, 10e-6),
        peer_link=Link("peer", peer_gbs, peer_latency_s),
        fabric_link=Link("fabric", fabric_gbs, fabric_latency_s),
        name=f"{nodes}-node-{devices_per_node}-device",
    )
