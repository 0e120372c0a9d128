"""Tests for the micro-batching queue."""

import numpy as np
import pytest

from repro.serve.batching import MicroBatcher
from repro.serve.request import Request


def _req(rid, routine="GEMM-NN", shape=(32, 32), alpha=1.0):
    arrays = {
        "A": np.zeros(shape, np.float32),
        "B": np.zeros(shape, np.float32),
        "C": np.zeros(shape, np.float32),
    }
    return Request(id=rid, routine=routine, arrays=arrays, alpha=alpha)


class TestGroupKey:
    def test_same_shape_same_key(self):
        assert _req(1).group_key == _req(2).group_key

    def test_shape_routine_and_scaling_split_groups(self):
        base = _req(1)
        assert base.group_key != _req(2, shape=(64, 64)).group_key
        assert base.group_key != _req(3, routine="SYMM-LL").group_key
        assert base.group_key != _req(4, alpha=2.0).group_key


class TestMicroBatcher:
    def test_coalesces_same_shape_head_group(self):
        batcher = MicroBatcher(max_batch=8)
        for rid in range(4):
            batcher.append(_req(rid))
        batcher.append(_req(99, shape=(64, 64)))
        batch = batcher.next_batch()
        assert [r.id for r in batch] == [0, 1, 2, 3]
        assert [r.id for r in batcher.next_batch()] == [99]
        assert len(batcher) == 0

    def test_preserves_submission_order_within_batch(self):
        batcher = MicroBatcher(max_batch=8)
        order = [5, 2, 9, 1]
        for rid in order:
            batcher.append(_req(rid))
        assert [r.id for r in batcher.next_batch()] == order

    def test_max_batch_caps_group(self):
        batcher = MicroBatcher(max_batch=3)
        for rid in range(5):
            batcher.append(_req(rid))
        assert [r.id for r in batcher.next_batch()] == [0, 1, 2]
        assert [r.id for r in batcher.next_batch()] == [3, 4]

    def test_interleaved_groups_keep_fifo_head(self):
        batcher = MicroBatcher(max_batch=8)
        batcher.append(_req(1))
        batcher.append(_req(2, shape=(64, 64)))
        batcher.append(_req(3))
        assert [r.id for r in batcher.next_batch()] == [1, 3]
        assert [r.id for r in batcher.next_batch()] == [2]

    def test_matching_head_counts_joinable(self):
        batcher = MicroBatcher(max_batch=8)
        assert batcher.matching_head() == 0
        batcher.append(_req(1))
        batcher.append(_req(2, shape=(64, 64)))
        batcher.append(_req(3))
        assert batcher.matching_head() == 2

    def test_peak_depth_tracks_high_water(self):
        batcher = MicroBatcher()
        for rid in range(3):
            batcher.append(_req(rid))
        batcher.next_batch()
        batcher.append(_req(9))
        assert batcher.peak_depth == 3

    def test_empty_batch(self):
        assert MicroBatcher().next_batch() == []

    def test_max_batch_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
