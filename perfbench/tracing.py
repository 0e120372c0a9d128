"""Wall-clock spans recorded from outside the program, for the traced run.

The benchmark never edits the program to trace it.  :func:`instrumented`
replaces each layer's entry point, at the attribute its caller looks it
up through, with a wrapper that records one span per call, and restores
every original on exit.  A span carries ``(name, start, end, parent,
rid)``: the parent is the innermost open span on the same thread, and
``rid`` (the request id) is inherited from the parent unless the
wrapper names one.

All times are host wall-clock (``time.perf_counter``).  The only other
values kept are ones the program returns or is handed anyway (batch
sizes, a profile's modeled time), stored on the span as ``info``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Span",
    "Recorder",
    "ENTRY_POINTS",
    "instrumented",
    "covered",
    "self_times",
    "root_of",
    "layer_table",
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "phase", "info")

    def __init__(self, name, start, end, parent=None, rid=None, phase="measure"):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.phase = phase
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "phase": self.phase,
        }


class Recorder:
    """In-memory span store for one traced run.

    ``phase`` labels every span opened while it is set, so set-up,
    warm-up and measured requests can be told apart afterwards.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        span = Span(name, 0.0, 0.0, parent, rid, self.phase)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, rid=None):
        span = self.begin(name, rid)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(self, name: str, fn: Callable, capture=None, rid_of=None) -> Callable:
        """``fn`` recording a span per call.  ``capture(result, args)``
        stores a value on the span; ``rid_of(args)`` names the request."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name, rid_of(args) if rid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if capture is not None:
                span.info = capture(result, args)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


def _profile_info(run, _args):
    kernels = run.timing.kernels
    return {
        "modeled_s": run.time_s,
        "flops": sum(k.flops for k in kernels),
        "bytes": sum(k.bytes_moved for k in kernels),
    }


def _pack_info(packed, args):
    # args = (service, batch, started, launch): the logical multiply-adds
    # of a batch that went out as one pack, set against serve.pack_waste
    if not packed:
        return None
    macs = 0
    for request in args[1]:
        (m, k), n = request.arrays["A"].shape, request.arrays["B"].shape[1]
        macs += m * n * k
    return {"logical_macs": macs}


def _head_rid(args):
    return f"svc:{args[1][0].id}"


#: (span name, module, attribute path, capture, rid_of).  The attribute
#: path is the binding each caller resolves at call time, so a module
#: that did ``from x import f`` is patched in its own namespace.
ENTRY_POINTS: Sequence[Tuple] = (
    ("serve.submit", "repro.serve.service", "BlasService.submit", None, None),
    ("serve.submit", "repro.serve.service", "BlasService.submit_dag", None, None),
    ("serve.dispatch", "repro.serve.service", "BlasService._execute_batch", None, _head_rid),
    ("serve.pack", "repro.serve.service", "BlasService._try_packed", _pack_info, None),
    ("serve.fulfill", "repro.serve.service", "BlasService._fulfill",
     lambda _r, args: {"wait_s": args[1].wait_s}, None),
    ("serve.lookup", "repro.serve.dispatch", "DispatchTable.lookup", None, None),
    ("serve.batch", "repro.serve.batching", "MicroBatcher.next_batch",
     lambda batch, _a: {"size": len(batch)}, None),
    ("jit.kernel", "repro.gpu.simulator", "jit_execute", None, None),
    ("jit.kernel", "repro.tuner.chain", "jit_execute", None, None),
    ("jit.kernel", "repro.composer.oracle", "jit_execute", None, None),
    ("jit.fingerprint", "repro.jit.registry", "computation_fingerprint", None, None),
    ("jit.lower", "repro.jit.registry", "lower_computation", None, None),
    ("gpu.profile", "repro.gpu.simulator", "SimulatedGPU.profile", _profile_info, None),
    ("codegen.analyze", "repro.gpu.simulator", "analyze_computation", None, None),
    ("tuner.generate", "repro.tuner.library", "LibraryGenerator.generate", None, None),
    ("tuner.search", "repro.tuner.search", "VariantSearch.search",
     lambda result, _a: {"units": result.units_evaluated}, None),
    ("tuner.verify", "repro.tuner.library", "check_equivalence",
     lambda report, _a: {"ok": bool(report.ok)}, None),
    ("tuner.chain_execute", "repro.tuner.chain", "ChainPlan.execute", None, None),
    ("composer.compose", "repro.tuner.library", "compose_candidates",
     lambda candidates, _a: {"candidates": len(candidates)}, None),
    ("epod.translate", "repro.epod.translator", "EpodTranslator.translate", None, None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def instrumented(recorder: Recorder):
    """Install every wrapper of :data:`ENTRY_POINTS` for the duration of
    the block."""
    saved = []
    try:
        for name, module, path, capture, rid_of in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, capture, rid_of))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration
        - covered(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, ())
            if e > span.start and s < span.end
        )
        for index, span in enumerate(spans)
    ]


def root_of(spans: Sequence[Span]) -> List[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots: List[int] = []
    for index, span in enumerate(spans):
        # a parent is always recorded before its children
        roots.append(index if span.parent is None else roots[span.parent])
    return roots


def layer_table(
    spans: Sequence[Span], selfs: Sequence[float], keep: Callable[[Span], bool]
) -> List[Dict]:
    """One row per span name over the kept spans: calls, inclusive and
    self seconds, and self time as a share of all kept self time."""
    rows: Dict[str, Dict] = {}
    for span, own in zip(spans, selfs):
        if not keep(span):
            continue
        row = rows.setdefault(
            span.name, {"name": span.name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    grand = sum(row["self_s"] for row in rows.values()) or 1.0
    for row in rows.values():
        row["self_share"] = row["self_s"] / grand
    return sorted(rows.values(), key=lambda row: -row["self_s"])
