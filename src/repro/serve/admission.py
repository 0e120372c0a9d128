"""Admission control of one dispatcher queue.

A loaded queue that keeps accepting work converts overload into
unbounded queue wait: every queued request's latency grows with the
backlog, and the tail (p99) grows fastest.  The admission controller
bounds that tail by *shedding* — rejecting new requests at the door once
the queue depth reaches a high-water mark.  A shed request is answered
instantly with ``Response(source="shed")`` (its ``result()`` raises
:class:`~repro.serve.request.ServeError`), which callers can retry,
redirect, or degrade on — a fast, explicit "no" instead of a slow,
implicit "yes".

Every :class:`~repro.serve.service.BlasService` owns one and judges each
arrival under the lock that enqueues it.  Counters: ``serve.shed``, and
``serve.shard.<i>.shed`` for a shard of the sharded tier, so dashboards
can tell a single hot shard from tier-wide overload.
"""

from __future__ import annotations

from typing import Optional

from ..telemetry import Telemetry, ensure_telemetry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Queue-depth load shedding for one dispatcher queue.

    ``high_water`` is the queue depth at which new requests are
    rejected; ``None`` admits everything (the controller becomes a
    pass-through that still records the depths it judges).
    """

    def __init__(
        self,
        high_water: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if high_water is not None and high_water < 1:
            raise ValueError("admission high_water must be >= 1 (or None)")
        self.high_water = high_water
        self.telemetry = ensure_telemetry(telemetry)
        #: counters incremented per shed request
        self.counters = ("serve.shed",)
        #: deepest queue an arrival has met (the replay's depth gauge)
        self.peak_depth = 0
        self.shed = 0

    def admit(self, queue_depth: int) -> bool:
        """Whether a request may enter the queue at this depth."""
        self.peak_depth = max(self.peak_depth, queue_depth)
        if self.high_water is not None and queue_depth >= self.high_water:
            self.shed += 1
            for name in self.counters:
                self.telemetry.incr(name)
            return False
        return True
