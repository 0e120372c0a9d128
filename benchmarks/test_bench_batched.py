"""Benchmark: batched small-matrix serving (BGEMM packing + sub-16 plans).

The ROADMAP's "millions of users" target mostly means millions of
*small* problems — traffic that a one-launch-per-request service serves
worst, because per-launch overhead and idle SMs dominate tiny kernels.
PR 8 adds strided-batched BGEMM and a second coalescing tier that packs
same-class small GEMM requests into one batched launch.  This benchmark
measures both halves of that claim on ``BENCH_batched.json``:

* **packing** — replay a Zipf-distributed small-matrix backlog (small
  classes most popular, the inference-head regime) through a
  single-server virtual-time model three ways: every request its own
  launch against the shared 16-class plan, every request its own launch
  against per-bucket plans, and packed into BGEMM launches of up to
  ``MAX_BATCH`` same-class requests.  Packed serving must sustain the
  highest QPS.
* **sub-16 plans** — a dedicated bucket-8 plan (tuned over the
  small-tile space) must beat the shared 16-class plan at N≤8, where
  the 16-class plan pads an 8-point problem up to its own tune size.

Launch costs come from the same analytic timing model the tuner ranks
with (:meth:`repro.gpu.SimulatedGPU.profile`), plus a fixed per-launch
overhead — the quantity packing amortizes.  Replays are deterministic
(seeded), so smoke mode (``BENCH_SMOKE=1``, shorter backlog) asserts
the same invariants CI-fast.
"""

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.gpu import GTX_285, SimulatedGPU, estimate_time
from repro.tuner.library import LibraryGenerator
from repro.tuner.options import TuningOptions
from repro.tuner.space import small_space

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_batched.json"

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
ARCH = GTX_285
#: pack classes replayed (power-of-two ceiling of the largest dim)
CLASSES = (8, 16)
#: Zipf exponent over classes, smallest class most popular
ZIPF_S = 1.1
N_REQUESTS = 400 if SMOKE else 4000
MAX_BATCH = 8
#: fixed per-launch cost (driver + dispatch), the term packing amortizes
LAUNCH_OVERHEAD_S = 50e-6
SEED = 1234

#: tuning space for the 16-class plans (tiny on purpose — the benchmark
#: measures serving policy, not search breadth)
SPACE_16 = (
    {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 1},
)


def _plan(name, tune_size, space):
    gen = LibraryGenerator(
        ARCH, options=TuningOptions(tune_size=tune_size, space=tuple(space))
    )
    return gen.generate(name)


def _launch_time(plan, sizes):
    return SimulatedGPU(ARCH).profile(plan.comp, sizes).time_s


def _space_for(cls):
    return small_space() if cls < 16 else SPACE_16


def _synthesize_backlog(rng):
    """A Zipf small-matrix backlog: (class, m, n, k) per request.

    Dims are drawn from the upper half of each class so every request's
    power-of-two ceiling lands exactly in its class (mirroring
    ``Request.pack_key``) while shapes still differ request-to-request.
    """
    ranks = np.arange(1, len(CLASSES) + 1, dtype=float)
    weights = ranks**-ZIPF_S
    weights /= weights.sum()
    picks = rng.choice(len(CLASSES), size=N_REQUESTS, p=weights)
    backlog = []
    for pick in picks:
        cls = CLASSES[pick]
        m, n, k = (int(rng.integers(cls // 2 + 1, cls + 1)) for _ in range(3))
        backlog.append((cls, m, n, k))
    return backlog


def _replay_per_request(backlog, cost_by_class):
    """One launch per request; sustained QPS of the backlog."""
    total_s = sum(LAUNCH_OVERHEAD_S + cost_by_class[cls] for cls, _, _, _ in backlog)
    return len(backlog) / total_s


def _replay_packed(backlog, packed_cost):
    """FIFO pack replay mirroring the MicroBatcher's second tier.

    Take the queue head, collect up to ``MAX_BATCH`` same-class riders
    in FIFO order (others keep their positions), launch one BGEMM.
    """
    queue = list(backlog)
    total_s = 0.0
    launches = 0
    packed_requests = 0
    waste_macs = 0
    while queue:
        head_cls = queue[0][0]
        batch, rest = [], []
        for event in queue:
            if event[0] == head_cls and len(batch) < MAX_BATCH:
                batch.append(event)
            else:
                rest.append(event)
        queue = rest
        total_s += LAUNCH_OVERHEAD_S + packed_cost(len(batch), head_cls)
        launches += 1
        packed_requests += len(batch)
        logical = sum(m * n * k for _, m, n, k in batch)
        waste_macs += len(batch) * head_cls**3 - logical
    qps = len(backlog) / total_s
    return {
        "sustained_qps": round(qps, 1),
        "launches": launches,
        "avg_batch": round(packed_requests / launches, 2),
        "pack_waste_macs": int(waste_macs),
    }


def test_bench_batched():
    rng = np.random.default_rng(SEED)
    backlog = _synthesize_backlog(rng)

    # --- plans: shared 16-class, per-bucket GEMM, per-bucket BGEMM ---
    gemm = {cls: _plan("GEMM-NN", cls, _space_for(cls)) for cls in CLASSES}
    bgemm = {cls: _plan("BGEMM-NN", cls, _space_for(cls)) for cls in CLASSES}

    gemm_cost = {
        cls: _launch_time(gemm[cls], {"M": cls, "N": cls, "K": cls})
        for cls in CLASSES
    }
    shared_cost = {cls: gemm_cost[16] for cls in CLASSES}

    packed_cache = {}

    def packed_cost(p, cls):
        plan = bgemm[cls]
        strip = int(plan.config.get("BP", 1))
        padded = int(math.ceil(p / strip) * strip)
        key = (padded, cls)
        if key not in packed_cache:
            sizes = {"P": padded, "M": cls, "N": cls, "K": cls}
            packed_cache[key] = SimulatedGPU(ARCH).profile(plan.comp, sizes).time_s
        return packed_cache[key]

    # --- claim 1: packed BGEMM launches beat one-launch-per-request ---
    qps_shared = _replay_per_request(backlog, shared_cost)
    qps_bucketed = _replay_per_request(backlog, gemm_cost)
    packed = _replay_packed(backlog, packed_cost)

    # --- claim 2: a sub-16 bucket plan wins at N <= 8, where the shared
    # 16-class plan pads the problem up to its own tune size ---
    t_sub16 = _launch_time(gemm[8], {"M": 8, "N": 8, "K": 8})
    t_shared = gemm_cost[16]
    macs8 = 2 * 8**3

    # --- narrative: the timing model's fused-vs-serial account.  Serial
    # runs the launch sequence once per problem: every copy pays the
    # launch overhead again and a tiny grid leaves most SMs idle.  Fused
    # is one launch with each grid widened MAX_BATCH× along block.z
    # (what batch_grid does) ---
    models = SimulatedGPU(ARCH).profile(gemm[8].comp, {"M": 8, "N": 8, "K": 8}).models
    serial_s = estimate_time(ARCH, models).time_s * MAX_BATCH
    fused_s = estimate_time(
        ARCH, [replace(m, grid_blocks=m.grid_blocks * MAX_BATCH) for m in models]
    ).time_s
    fused_speedup = serial_s / fused_s

    record = {
        "smoke": SMOKE,
        "arch": ARCH.name,
        "classes": list(CLASSES),
        "zipf_s": ZIPF_S,
        "n_requests": N_REQUESTS,
        "max_batch": MAX_BATCH,
        "launch_overhead_s": LAUNCH_OVERHEAD_S,
        "plans": {
            str(cls): {
                "gemm_config": dict(gemm[cls].config),
                "gemm_gflops": round(gemm[cls].tuned_gflops, 2),
                "bgemm_config": dict(bgemm[cls].config),
                "bgemm_gflops": round(bgemm[cls].tuned_gflops, 2),
            }
            for cls in CLASSES
        },
        "packing": {
            "per_request_16class_qps": round(qps_shared, 1),
            "per_request_bucketed_qps": round(qps_bucketed, 1),
            "packed": packed,
            "packed_speedup_vs_16class": round(
                packed["sustained_qps"] / qps_shared, 2
            ),
            "packed_speedup_vs_bucketed": round(
                packed["sustained_qps"] / qps_bucketed, 2
            ),
        },
        "sub16": {
            "bucket8_plan_at_n8_us": round(t_sub16 * 1e6, 3),
            "shared_16class_at_n8_us": round(t_shared * 1e6, 3),
            "speedup": round(t_shared / t_sub16, 2),
            "bucket8_effective_gflops": round(macs8 / t_sub16 / 1e9, 2),
            "shared_effective_gflops": round(macs8 / t_shared / 1e9, 2),
        },
        "fused_estimate": {
            "batch": MAX_BATCH,
            "serial_us": round(serial_s * 1e6, 3),
            "fused_us": round(fused_s * 1e6, 3),
            "speedup": round(fused_speedup, 2),
        },
    }

    # acceptance bars (ISSUE 8): packed serving sustains more QPS than
    # one-launch-per-request — against both baselines — and the sub-16
    # bucket plan beats the shared 16-class plan at N <= 8
    assert packed["sustained_qps"] > qps_bucketed
    assert packed["sustained_qps"] > qps_shared
    assert t_sub16 < t_shared
    # the fused-grid account agrees: one big launch beats many small ones
    assert fused_speedup > 1.0

    BENCH_PATH.write_text(json.dumps(record, indent=1))
    emit(
        f"batched small-matrix serving ({'smoke, ' if SMOKE else ''}"
        f"{N_REQUESTS} requests, Zipf over classes {list(CLASSES)})\n"
        f"per-request (16-class)  {qps_shared:10.1f} qps\n"
        f"per-request (bucketed)  {qps_bucketed:10.1f} qps\n"
        f"packed BGEMM            {packed['sustained_qps']:10.1f} qps   "
        f"({packed['launches']} launches, avg batch {packed['avg_batch']}, "
        f"waste {packed['pack_waste_macs']} MACs)\n"
        f"sub-16 @ N=8: bucket-8 plan {record['sub16']['bucket8_plan_at_n8_us']} us "
        f"vs shared {record['sub16']['shared_16class_at_n8_us']} us "
        f"({record['sub16']['speedup']}x)\n"
        f"written to {BENCH_PATH}"
    )
