"""Benchmark: the array-shaped dependence trace against the scalar one.

Records every body the dependence oracle traces while generating all 28
routines on the GTX 285 (curated space, then the serve space at N=16),
and times both tracers over that corpus: the array-shaped
:func:`repro.ir.dependence._trace_dependences` and the scalar reference
kept in ``tests/ir/test_dependence_vectorized.py``.  It checks that
both return the same dependence lists, that the array engine is at
least 5x faster in total, and that one analysis of the largest body
peaks under 2 MB of Python allocations (``tracemalloc``).  The record
goes to ``BENCH_dependence.json``.
"""

import json
import time
import tracemalloc
from pathlib import Path

from repro.ir.dependence import _trace_dependences
from tests.ir.test_dependence_vectorized import (
    record_traced_bodies,
    scalar_accesses,
    scalar_dependences,
)

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_dependence.json"
REPEATS = 3  # each total is the best of this many passes over the corpus
MIN_SPEEDUP = 5.0
MAX_PEAK_BYTES = 2 << 20


def trace_size(body, sizes, default_size):
    """``(accesses, same-cell pairs with a write)`` of one trace."""
    accesses = pairs = 0
    for cell in scalar_accesses(body, sizes, default_size).values():
        reads = sum(not a.is_write for a in cell)
        accesses += len(cell)
        pairs += len(cell) * (len(cell) - 1) // 2 - reads * (reads - 1) // 2  # minus read-read
    return accesses, pairs


def best_total(tracer, bodies):
    """Least wall-clock seconds of one pass of ``tracer`` over ``bodies``,
    and that pass's results."""
    best, results = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        results = [tracer(*entry) for entry in bodies]
        best = min(best, time.perf_counter() - t0)
    return best, results


def test_bench_dependence():
    bodies = record_traced_bodies()
    sizes = [trace_size(*entry) for entry in bodies]
    _trace_dependences(*bodies[0])  # first-call imports stay out of the timing
    vector_s, vector = best_total(_trace_dependences, bodies)
    scalar_s, scalar = best_total(scalar_dependences, bodies)

    largest = max(range(len(bodies)), key=lambda i: sizes[i][0])
    tracemalloc.start()
    try:
        _trace_dependences(*bodies[largest])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    record = {
        "arch": "GTX 285",
        "corpus": "28 routines, curated space; BGEMM-NN, SYMM-LL, TRSM-LL-N, GEMM-NN, "
        "serve space at N=16",
        "clock": "host wall-clock, best of %d passes; counts are exact" % REPEATS,
        "bodies": len(bodies),
        "accesses": sum(a for a, _ in sizes),
        "pairs": sum(p for _, p in sizes),
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
        "largest_body_accesses": sizes[largest][0],
        "largest_body_pairs": sizes[largest][1],
        "largest_body_peak_bytes": peak,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=1))
    emit(
        f"dependence trace over {record['bodies']} bodies "
        f"({record['accesses']} accesses, {record['pairs']} pairs)\n"
        f"scalar {scalar_s:.3f} s   vectorized {vector_s:.3f} s   "
        f"speed-up {record['speedup']:.1f}x\n"
        f"largest body: {sizes[largest][0]} accesses, peak {peak / 1024:.0f} KiB"
    )
    assert vector == scalar
    assert record["speedup"] >= MIN_SPEEDUP
    assert peak < MAX_PEAK_BYTES
