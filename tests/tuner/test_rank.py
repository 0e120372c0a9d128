"""Tests for :func:`repro.tuner.search.rank`, the one ranker behind the
fusion-mask choice and the distribution-plan choice."""

import itertools
import math

import pytest

from repro.blas3.routines import get_spec
from repro.dist import enumerate_plans, multi_node
from repro.gpu.timing import ChainTiming, DistTiming
from repro.tuner.search import rank


def chain_sweep(times):
    """Fusion masks over two edges (all-unfused first), costed as chain
    timings; an ``inf`` time is an infeasible merged launch."""
    masks = list(itertools.product((False, True), repeat=2))[: len(times)]
    timings = [
        ChainTiming(serial_s=1.0, fused_s=t, feasible=t != math.inf, saved_bytes=0.0)
        for t in times
    ]
    return masks, timings


def dist_sweep(times):
    """Distribution plans of a 4×4 cluster (the 1D split first), costed
    as event-timeline accounts."""
    plans = enumerate_plans(get_spec("GEMM-NN"), multi_node(4, 4))[: len(times)]
    timings = [
        DistTiming(per_device_s={0: t}, transfer_s=[], overlapped_s=t, serial_s=t)
        for t in times
    ]
    return plans, timings


@pytest.mark.parametrize("sweep", [chain_sweep, dist_sweep])
@pytest.mark.parametrize(
    "times, want",
    [
        pytest.param([1.0, 1.0], 0, id="tie-keeps-baseline"),
        pytest.param([1.0, 0.5], 1, id="strictly-faster-wins"),
        pytest.param([1.0, math.inf], 0, id="infeasible-never-wins"),
        pytest.param([math.inf, 2.0, math.inf], 1, id="infeasible-baseline-loses"),
        pytest.param([1.0, 0.5, 0.5], 1, id="first-equal-winner-kept"),
        pytest.param([], None, id="empty-raises"),
    ],
)
def test_rank(sweep, times, want):
    candidates, timings = sweep(times)
    assert len(candidates) == len(times)
    cost = dict(zip(candidates, timings)).__getitem__
    if want is None:
        with pytest.raises(ValueError):
            rank(candidates, cost)
        return
    result = rank(candidates, cost)
    assert result.winner is candidates[want]
    assert result.timing is timings[want]
    assert result.baseline is timings[0]
    assert result.evaluated == list(zip(candidates, timings))
