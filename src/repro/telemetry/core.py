"""The :class:`Telemetry` facade: one tracer + one metrics registry.

Every pipeline object (:class:`~repro.oa.OAFramework`,
:class:`~repro.tuner.library.LibraryGenerator`,
:class:`~repro.tuner.search.VariantSearch`,
:class:`~repro.tuner.cache.TuningCache`,
:class:`~repro.dist.executor.DistLibrary`) takes an optional
``telemetry=`` argument.  ``None`` resolves to the shared
:data:`NULL_TELEMETRY` sentinel whose spans are detached and whose
counters discard writes, so instrumented call-sites never branch on
"is telemetry on?".

:meth:`Telemetry.document` renders the run as one machine-readable
dict — ``{"format", "spans", "counters"}`` — which ``--trace-json``
writes to disk and the benchmarks diff across runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

from .metrics import Metrics
from .trace import Span, Tracer

__all__ = [
    "TRACE_FORMAT",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "ensure_telemetry",
]

#: Schema version of the trace document.
TRACE_FORMAT = 1


class Telemetry:
    """Bundles a :class:`Tracer` and a :class:`Metrics` for one run."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.tracer = Tracer(clock)
        self.metrics = Metrics()

    # -- tracing ---------------------------------------------------------
    def span(self, name: str, **tags):
        return self.tracer.span(name, **tags)

    def find(self, name: str) -> List[Span]:
        return self.tracer.find(name)

    # -- counters --------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        self.metrics.incr(name, n)

    def count(self, name: str) -> int:
        return self.metrics.get(name)

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        self.metrics.merge(counters)

    # -- the trace document ----------------------------------------------
    def document(self) -> Dict:
        return {
            "format": TRACE_FORMAT,
            "spans": [root.to_dict() for root in self.tracer.roots],
            "counters": self.metrics.snapshot(),
        }

    def write_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.document(), indent=1))


class _NullMetrics(Metrics):
    """Discards every write; reads always see zero."""

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def merge(self, counters: Mapping[str, int]) -> None:
        pass


class NullTelemetry(Telemetry):
    """The no-op telemetry: detached spans, write-discarding counters.

    Instrumentation against this object costs one Span allocation per
    ``span()`` and nothing per counter, so the un-instrumented pipeline
    stays effectively free.
    """

    enabled = False

    def __init__(self):
        super().__init__()
        self.metrics = _NullMetrics()

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        yield Span(name, dict(tags))  # detached: never recorded


#: Shared sentinel; ``telemetry or NULL`` call-sites resolve through
#: :func:`ensure_telemetry` instead so a caller-supplied object is never
#: accidentally truthiness-tested.
NULL_TELEMETRY = NullTelemetry()


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """``None`` → the shared no-op instance; anything else passes through."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
