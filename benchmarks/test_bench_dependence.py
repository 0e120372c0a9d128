"""Benchmark: the grouping dependence predicates against the scalar trace.

Records every question the dependence analysis is asked while generating
all 28 routines on the GTX 285 (curated space, then the serve space at
N=16), fusing the chain edges and asking every interchange of the
reference nests (``record_questions`` in
``tests/ir/test_dependence_vectorized.py``), and answers each one with
both engines on one domain per question: the grouping traces of
:mod:`repro.ir.dependence` (:func:`~repro.ir.dependence._trace_carrying`,
:func:`~repro.ir.dependence._order_kept`) and the scalar references
kept in that test file, which walk every statement instance in Python
and pass once over each cell's accesses.  It checks that both give the
same answers, that the grouping engine is at least 5x faster in total,
and that answering the largest question peaks under 2 MB of Python
allocations (``tracemalloc``).  The record goes to
``BENCH_dependence.json``.
"""

import json
import time
import tracemalloc
from pathlib import Path

from repro.ir.dependence import _order_kept, _trace_carrying
from tests.ir.test_dependence_vectorized import (
    record_questions,
    scalar_accesses,
    scalar_carrying_loops,
    scalar_order_kept,
    sized,
)

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_dependence.json"
REPEATS = 3  # each total is the best of this many passes over the corpus
MIN_SPEEDUP = 5.0
MAX_PEAK_BYTES = 2 << 20


def trace_size(bodies):
    """``(accesses, same-cell pairs with a write)`` of the traces of
    ``bodies`` on their :func:`sized` domain."""
    accesses = pairs = 0
    traced, _, extent = sized(*bodies)
    for body in traced:
        for cell in scalar_accesses(body, extent).values():
            reads = sum(not a.is_write for a in cell)
            accesses += len(cell)
            pairs += len(cell) * (len(cell) - 1) // 2 - reads * (reads - 1) // 2  # minus read-read
    return accesses, pairs


def best_total(answer, questions):
    """Least wall-clock seconds of one pass of ``answer`` over
    ``questions``, and that pass's answers."""
    best, results = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        results = [answer(kind, args) for kind, args in questions]
        best = min(best, time.perf_counter() - t0)
    return best, results


def grouping(kind, args):
    return _trace_carrying(*args) if kind == "carrying" else _order_kept(*args)


def scalar(kind, args):
    return scalar_carrying_loops(*args) if kind == "carrying" else scalar_order_kept(*args[:2])


def test_bench_dependence():
    carrying, orders = record_questions()
    questions = [("carrying", question) for question, _ in carrying]
    questions += [("order", pair) for pair in orders]
    sizes = [trace_size(args[:1] if kind == "carrying" else args[:2]) for kind, args in questions]
    grouping(*questions[0])  # first-call imports stay out of the timing
    grouping_s, fast = best_total(grouping, questions)
    scalar_s, slow = best_total(scalar, questions)

    largest = max(range(len(questions)), key=lambda i: sizes[i][0])
    tracemalloc.start()
    try:
        grouping(*questions[largest])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    record = {
        "arch": "GTX 285",
        "corpus": "28 routines, curated space; BGEMM-NN, SYMM-LL, TRSM-LL-N, GEMM-NN, "
        "serve space at N=16; chain fusions; reference-nest interchanges",
        "clock": "host wall-clock, best of %d passes; counts are exact" % REPEATS,
        "carrying_questions": len(carrying),
        "order_questions": len(orders),
        "accesses": sum(a for a, _ in sizes),
        "pairs": sum(p for _, p in sizes),
        "scalar_s": scalar_s,
        "grouping_s": grouping_s,
        "speedup": scalar_s / grouping_s,
        "largest_question_accesses": sizes[largest][0],
        "largest_question_pairs": sizes[largest][1],
        "largest_question_peak_bytes": peak,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=1))
    emit(
        f"dependence questions: {len(carrying)} carrying, {len(orders)} reordering "
        f"({record['accesses']} accesses, {record['pairs']} pairs)\n"
        f"scalar {scalar_s:.3f} s   grouping {grouping_s:.3f} s   "
        f"speed-up {record['speedup']:.1f}x\n"
        f"largest question: {sizes[largest][0]} accesses, peak {peak / 1024:.0f} KiB"
    )
    assert fast == slow
    assert record["speedup"] >= MIN_SPEEDUP
    assert peak < MAX_PEAK_BYTES
