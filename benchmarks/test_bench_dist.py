"""Benchmark: distributed multi-node execution (dist/ package).

PR 10's tentpole claims, recorded in ``BENCH_dist.json``:

* **Overlap beats serial accounting** — on a multi-node topology the
  peer channels of different nodes and the shared fabric run
  concurrently, so the event-timeline makespan
  (:func:`repro.gpu.timing.estimate_dist_time`) undercuts the legacy
  serial charge (every transfer summed on top of the slowest panel).
  On the legacy single-node substrate the two accounts coincide — the
  single-node multi-GPU numbers are unchanged, which the record also
  asserts.
* **1D-vs-2D crossover** — on a 4-node × 4-device cluster the tuner's
  plan search (:meth:`repro.dist.executor.DistLibrary.generate`) keeps
  the 1D panel split at small N (fewer fabric messages: the per-message
  latency term dominates) and crosses to a 2D block-cyclic process grid
  at large N (each rank fetches ``O(1/pr + 1/pc)`` of the operands
  instead of a full broadcast: the bandwidth term dominates).

Every plan the sweep selects also executes functionally and must match
the NumPy reference — the timeline ranks plans, it never changes
results.  Smoke mode (``BENCH_SMOKE=1``) sweeps a shorter N list and
asserts the same invariants CI-fast.
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.blas3 import random_inputs, reference
from repro.dist import DistLibrary, multi_node, single_node
from repro.gpu import GTX_285
from repro.telemetry import Telemetry
from repro.tuner.library import LibraryGenerator
from repro.tuner.options import TuningOptions

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_dist.json"

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
ARCH = GTX_285
ROUTINE = "GEMM-NN"
#: the crossover sweep: small N favours 1D (message latency), large N
#: favours the 2D grid (broadcast bytes)
SWEEP_NS = (128, 512, 2048) if SMOKE else (128, 256, 512, 1024, 2048, 4096)
OVERLAP_N = 512
FUNCTIONAL_N = 32
SEED = 1234

#: tiny pinned space — the benchmark measures the distribution decision,
#: not search breadth
SPACE = ({"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},)


def test_bench_dist():
    telemetry = Telemetry()
    generator = LibraryGenerator(
        ARCH,
        options=TuningOptions(space=SPACE, jobs=1),
        telemetry=telemetry,
    )

    record = {
        "smoke": SMOKE,
        "arch": ARCH.name,
        "routine": ROUTINE,
        "space": [dict(cfg) for cfg in SPACE],
    }
    report_lines = [
        f"distributed execution ({'smoke, ' if SMOKE else ''}{ARCH.name})"
    ]

    # -- claim 1: overlap-aware vs serial accounting -------------------
    pair = DistLibrary(ARCH, multi_node(2, 2), generator=generator)
    t = pair.timing(ROUTINE, OVERLAP_N, plan=pair.default_plan(ROUTINE))
    single = DistLibrary(ARCH, single_node(4), generator=generator)
    ts = single.timing(ROUTINE, OVERLAP_N, plan=single.default_plan(ROUTINE))
    record["overlap"] = {
        "topology": str(pair.topology),
        "n": OVERLAP_N,
        "plan": pair.default_plan(ROUTINE).describe(),
        "overlapped_us": round(t.overlapped_s * 1e6, 3),
        "serial_us": round(t.serial_s * 1e6, 3),
        "saved_us": round(t.overlap_saved_s * 1e6, 3),
        "comm_us": round(t.comm_s * 1e6, 3),
        "single_node_overlapped_us": round(ts.overlapped_s * 1e6, 3),
        "single_node_serial_us": round(ts.serial_s * 1e6, 3),
    }
    report_lines.append(
        f"overlap   {pair.topology}: overlapped "
        f"{t.overlapped_s * 1e6:8.1f}us vs serial {t.serial_s * 1e6:8.1f}us "
        f"(saved {t.overlap_saved_s * 1e6:.1f}us)"
    )
    # multi-node channels overlap; the legacy single-node broadcast has
    # one channel and reclaims nothing (single-node numbers unchanged)
    assert t.overlapped_s < t.serial_s
    assert ts.overlapped_s == ts.serial_s

    # -- claim 2: 1D-vs-2D crossover as N grows ------------------------
    cluster = DistLibrary(
        ARCH, multi_node(4, 4), generator=generator, telemetry=telemetry
    )
    sweep = []
    for n in SWEEP_NS:
        result = cluster.generate(ROUTINE, n)
        entry = {
            "n": n,
            "plan": result.winner.describe(),
            "kind": result.winner.kind,
            "time_us": round(result.timing.time_s * 1e6, 3),
            "baseline_1d_us": round(result.baseline.time_s * 1e6, 3),
            "speedup_over_1d": round(result.baseline.time_s / result.timing.time_s, 3),
            "plans_evaluated": len(result.evaluated),
            "comm_us": round(result.timing.comm_s * 1e6, 3),
            "transfers": len(result.timing.transfer_s),
        }
        sweep.append(entry)
        report_lines.append(
            f"N={n:5d}  chosen {entry['plan']:10s} "
            f"{entry['time_us']:10.1f}us  (1d {entry['baseline_1d_us']:10.1f}us, "
            f"speedup {entry['speedup_over_1d']:5.2f}x)"
        )
    record["crossover"] = {
        "topology": str(cluster.topology),
        "sweep": sweep,
    }
    kinds = [e["kind"] for e in sweep]
    # small N stays on the legacy 1D split; large N crosses to a 2D grid
    assert kinds[0] == "1d", "smallest N should keep the 1D panel split"
    assert kinds[-1] == "2d", "largest N should cross to a 2D grid"
    # the crossover is monotone: once 2D wins it keeps winning
    first_2d = kinds.index("2d")
    assert all(k == "2d" for k in kinds[first_2d:])
    # where 2D is chosen it is strictly faster than the 1D baseline
    assert all(
        e["speedup_over_1d"] > 1.0 for e in sweep if e["kind"] == "2d"
    )

    # -- functional backbone: chosen plans compute the right answer ----
    inputs = random_inputs(
        ROUTINE, {"M": FUNCTIONAL_N, "N": FUNCTIONAL_N, "K": FUNCTIONAL_N}, seed=SEED
    )
    want = reference(ROUTINE, inputs)
    checked = {}
    for plan in cluster.plans(ROUTINE)[:3]:  # 1D plus the first two grids
        got = cluster.run(ROUTINE, plan=plan, **inputs)
        ok = bool(np.allclose(got, want, rtol=4e-3, atol=4e-3))
        checked[plan.describe()] = ok
        assert ok, f"plan {plan.describe()} diverged from the reference"
    record["functional"] = {"n": FUNCTIONAL_N, "matches_reference": checked}

    # -- dist.* counters across the whole run --------------------------
    record["counters"] = {
        name: telemetry.count(name)
        for name in (
            "dist.timings",
            "dist.transfers",
            "dist.bytes",
            "dist.runs",
            "dist.uneven_splits",
            "dist.empty_panels",
            "dist.plan_1d_selected",
            "dist.plan_2d_selected",
            "search.dist_plans",
        )
    }
    assert record["counters"]["dist.plan_1d_selected"] > 0
    assert record["counters"]["dist.plan_2d_selected"] > 0
    assert record["counters"]["search.dist_plans"] > 0

    BENCH_PATH.write_text(json.dumps(record, indent=1))
    report_lines.append(f"written to {BENCH_PATH}")
    emit("\n".join(report_lines))
