"""Tests for one-sided transfer ops and the event-timeline model."""

import pytest

from repro.dist.comm import TransferOp, broadcast, get, put, schedule
from repro.dist.topology import multi_node, single_node
from repro.gpu.timing import estimate_dist_time


class TestTransferOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferOp("push", "A", 0, 1, 4.0)
        with pytest.raises(ValueError):
            put("A", 1, 1, 4.0)
        with pytest.raises(ValueError):
            get("A", 0, 1, -4.0)

    def test_cost_and_channel_follow_topology(self):
        top = multi_node(2, 2)
        intra = put("A", 0, 1, 1e9)
        inter = put("A", 0, 2, 1e9)
        assert intra.channel(top) == "peer:0"
        assert inter.channel(top) == "fabric"
        assert intra.cost_s(top) == pytest.approx(
            top.peer_link.transfer_s(1e9)
        )
        assert inter.cost_s(top) > intra.cost_s(top)

    def test_broadcast_emits_one_put_per_peer(self):
        ops = broadcast("A", 0, range(4), 8.0)
        assert len(ops) == 3
        assert all(op.kind == "put" and op.src == 0 for op in ops)
        assert [op.dst for op in ops] == [1, 2, 3]

    def test_schedule_preserves_issue_order(self):
        top = single_node(4)
        ops = broadcast("A", 0, range(3), 6e9)
        events = schedule(ops, top)
        assert [dst for dst, _, _ in events] == [1, 2]
        assert all(ch == "peer:0" for _, ch, _ in events)
        assert all(sec == pytest.approx(1.0) for _, _, sec in events)


def serial_charge(timing):
    """The serial account: every transfer summed on top of the slowest
    panel, with no overlap."""
    return sum(timing.transfer_s) + max(timing.per_device_s.values())


class TestEstimateDistTime:
    def test_single_channel_matches_serial(self):
        # One shared channel and uniform compute: the last transfer
        # gates the last device — no overlap to reclaim.
        timing = estimate_dist_time(
            {0: 1.0, 1: 1.0, 2: 1.0},
            [(1, "peer:0", 0.25), (2, "peer:0", 0.25)],
        )
        assert serial_charge(timing) == pytest.approx(1.5)
        assert timing.time_s == pytest.approx(1.5)

    def test_distinct_channels_overlap(self):
        # Same transfers spread over two channels: they run
        # concurrently, and the serial account's pessimism shows.
        timing = estimate_dist_time(
            {0: 1.0, 1: 1.0, 2: 1.0},
            [(1, "peer:0", 0.25), (2, "fabric", 0.25)],
        )
        assert serial_charge(timing) == pytest.approx(1.5)
        assert timing.time_s == pytest.approx(1.25)
        assert serial_charge(timing) - timing.time_s == pytest.approx(0.25)

    def test_device_waits_for_all_inbound(self):
        timing = estimate_dist_time(
            {0: 0.1},
            [(0, "peer:0", 0.5), (0, "fabric", 0.2)],
        )
        assert timing.time_s == pytest.approx(0.6)

    def test_transfers_on_one_channel_serialise(self):
        timing = estimate_dist_time(
            {0: 0.0, 1: 0.1},
            [(0, "fabric", 0.5), (1, "fabric", 0.5)],
        )
        # the second transfer starts only at t=0.5
        assert timing.time_s == pytest.approx(1.1)

    def test_channel_drain_bounds_makespan(self):
        # A transfer to a rank with no compute still occupies the link.
        timing = estimate_dist_time({0: 0.1}, [(2, "fabric", 1.0)])
        assert timing.time_s == pytest.approx(1.0)

    def test_sequence_compute_means_ranks_in_order(self):
        timing = estimate_dist_time([0.5, 1.0], [(1, "peer:0", 0.25)])
        assert timing.per_device_s == {0: 0.5, 1: 1.0}
        assert timing.time_s == pytest.approx(1.25)

    def test_rejects_negative_transfer(self):
        with pytest.raises(ValueError):
            estimate_dist_time({0: 1.0}, [(0, "fabric", -0.1)])

    def test_gflops_uses_overlapped_time(self):
        timing = estimate_dist_time({0: 1.0}, [], nominal_flops=2e9)
        assert timing.gflops == pytest.approx(2.0)
