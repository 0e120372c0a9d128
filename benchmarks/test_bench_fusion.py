"""Benchmark: cross-routine kernel fusion for request DAGs.

PR 9's tentpole claim: real BLAS3 traffic arrives as *chains*
(``GEMM→TRSM`` in blocked solvers), and serving each hop as its own
launch pays per-launch overhead plus a round trip of the intermediate
through global memory.  The chain tuner (:mod:`repro.tuner.chain`)
stitches adjacent nodes' loop nests, asks the dependence analysis which
edges may fuse, and crosses the per-edge fuse/no-fuse decision into the
variant search — keeping the unfused plan as the exact fallback.

``BENCH_fusion.json`` records both halves of the claim on three chain
families:

* **solve** (``GEMM→TRSM-LL-N``) — the edge is legal and modeled
  profitable: one fused kernel skips the intermediate's global-memory
  round trip and one launch overhead.  Fused serving must beat
  back-to-back dispatch.
* **transposed** (``GEMM→TRMM-LL-T``) — the consumer reads the
  intermediate through ``A^T``; the dependence analysis vetoes the edge
  and the tuner must decline, falling back to the exact unfused plan.
* **scaled** (``GEMM(alpha=2)→TRSM-LL-N``) — legality holds but the
  producer's scaling makes its raw accumulator wrong for a fused
  consumer; eligibility must decline.

Every family — fused or declined — must execute bit-identically to the
unfused per-node plans and numerically match the NumPy chained
reference.  Timings come from the same analytic model the tuner ranks
with, plus a fixed per-launch overhead (the term fusion amortizes).
Smoke mode (``BENCH_SMOKE=1``, smaller N) asserts the same invariants
CI-fast.
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.tuner.chain import build_chain_plan
from repro.tuner.library import LibraryGenerator
from repro.tuner.options import TuningOptions

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_fusion.json"

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
ARCH = GTX_285
N = 32 if SMOKE else 128
#: fixed per-launch cost (driver + dispatch), one of the two terms a
#: fused chain amortizes (the other is the intermediate's DRAM round trip)
LAUNCH_OVERHEAD_S = 50e-6
SEED = 1234

#: tiny pinned space — the benchmark measures the fusion decision, not
#: search breadth
SPACE = (
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
)

FAMILIES = {
    "solve": chain(
        ("GEMM-NN", {"A": "A", "B": "B"}),
        ("TRSM-LL-N", {"A": "L"}),
    ),
    "transposed": chain(
        ("GEMM-NN", {"A": "A", "B": "B"}),
        ("TRMM-LL-T", {"A": "L"}),
    ),
    "scaled": chain(
        ("GEMM-NN", {"A": "A", "B": "B"}, {"alpha": 2.0}),
        ("TRSM-LL-N", {"A": "L"}),
    ),
}


def _make_inputs(rng):
    a = rng.standard_normal((N, N)).astype(np.float32)
    b = rng.standard_normal((N, N)).astype(np.float32)
    low = (
        np.tril(rng.standard_normal((N, N))) + N * np.eye(N)
    ).astype(np.float32)
    return {"A": a, "B": b, "L": low}


def _bytes_moved(timing):
    return sum(k.bytes_moved for k in timing.kernels)


def test_bench_fusion():
    rng = np.random.default_rng(SEED)
    generator = LibraryGenerator(
        ARCH, options=TuningOptions(tune_size=N, space=SPACE, jobs=1)
    )

    record = {
        "smoke": SMOKE,
        "arch": ARCH.name,
        "n": N,
        "launch_overhead_s": LAUNCH_OVERHEAD_S,
        "space": [dict(cfg) for cfg in SPACE],
        "families": {},
    }
    report_lines = [
        f"cross-routine fusion ({'smoke, ' if SMOKE else ''}N={N}, "
        f"{ARCH.name})"
    ]

    for name, expr in FAMILIES.items():
        dag = Dag(expr)
        arrays = _make_inputs(rng)
        fused_plan = build_chain_plan(dag, generator, arrays=arrays, fuse=True)
        unfused_plan = build_chain_plan(
            dag, generator, arrays=arrays, fuse=False
        )

        fused_out = fused_plan.execute(dag, arrays)
        unfused_out = unfused_plan.execute(dag, arrays)
        reference = dag.reference(arrays)
        exact = bool(np.array_equal(fused_out, unfused_out))
        max_err = float(np.max(np.abs(fused_out - reference)))
        faithful = bool(
            np.allclose(fused_out, reference, rtol=1e-3, atol=1e-3)
        )

        # The chosen mask's launches against the all-unfused ones: back
        # to back, every node pays one overhead and the intermediate
        # round-trips through DRAM; the chosen plan pays one overhead
        # per launched segment.
        timing = fused_plan.timing
        unfused = fused_plan.unfused_timing
        saved_bytes = _bytes_moved(unfused) - _bytes_moved(timing)
        serial_dispatch_s = len(dag) * LAUNCH_OVERHEAD_S + unfused.time_s
        chosen_dispatch_s = (
            len(fused_plan.segments) * LAUNCH_OVERHEAD_S + timing.time_s
        )
        entry = {
            "routines": [node.routine for node in dag.nodes],
            "legal": list(fused_plan.legal),
            "eligible": list(fused_plan.eligible),
            "fused": fused_plan.fused,
            "segments": len(fused_plan.segments),
            "notes": list(fused_plan.notes),
            "bit_identical_to_unfused": exact,
            "matches_reference": faithful,
            "max_abs_err_vs_reference": max_err,
            "modeled_serial_us": round(unfused.time_s * 1e6, 3),
            "modeled_chosen_us": round(timing.time_s * 1e6, 3),
            "saved_mb": round(saved_bytes / 2**20, 4),
            "back_to_back_dispatch_us": round(serial_dispatch_s * 1e6, 3),
            "chosen_dispatch_us": round(chosen_dispatch_s * 1e6, 3),
            "dispatch_speedup": round(
                serial_dispatch_s / chosen_dispatch_s, 3
            ),
        }
        record["families"][name] = entry

        decision = "fused" if fused_plan.fused else "declined"
        speedup = entry["dispatch_speedup"]
        report_lines.append(
            f"{name:11s} {' -> '.join(entry['routines']):24s} "
            f"{decision:8s} speedup {speedup:5.2f}x  "
            f"exact={exact}  max err {max_err:.2e}"
        )

        # every path must be exact against the unfused per-node plans
        # and faithful to the chained NumPy reference
        assert exact, f"{name}: fused path diverged from unfused plans"
        assert faithful, f"{name}: chain result off the reference"

    solve = record["families"]["solve"]
    transposed = record["families"]["transposed"]
    scaled = record["families"]["scaled"]

    # claim 1: the legal, profitable chain fuses and beats back-to-back
    # dispatch (fewer launches AND no intermediate round trip)
    assert solve["fused"] and solve["legal"] == [True]
    assert solve["segments"] == 1
    assert solve["dispatch_speedup"] > 1.0
    assert solve["saved_mb"] > 0.0

    # claim 2: the tuner declines where fusion is illegal or unsound —
    # and the declined chains still serve exact unfused results
    assert not transposed["fused"] and transposed["legal"] == [False]
    assert transposed["notes"]
    assert not scaled["fused"] and scaled["eligible"] == [False]

    BENCH_PATH.write_text(json.dumps(record, indent=1))
    report_lines.append(f"written to {BENCH_PATH}")
    emit("\n".join(report_lines))
