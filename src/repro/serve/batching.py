"""Micro-batching queue of the serving runtime.

Concurrent same-shape requests coalesce into one simulated-GPU launch:
the batcher holds the FIFO of pending requests and, on drain, pulls the
head request plus every queued request sharing its
:attr:`~repro.serve.request.Request.group_key` (up to ``max_batch``).
Submission order is preserved both across batches (the head picks the
group) and within a batch, so serving is deterministic regardless of
how submitter threads interleave.

The *window* — how long the dispatcher waits for same-shape company
before launching — is the service loop's concern
(:class:`~repro.serve.service.BlasService`); the batcher itself is a
pure data structure guarded by the service's lock.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .request import Request

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """FIFO request queue with same-shape batch extraction.

    With ``pack=True`` a second coalescing tier activates: when the
    head's exact-shape group leaves the batch under-full, queued small
    GEMM calls sharing the head's :attr:`~Request.pack_key` shape
    *class* (same routine, different data, possibly different shapes)
    join as riders — the service pads them into one strided-batched
    launch.  Exact-group members always outrank riders, and both tiers
    preserve submission order, so extraction stays deterministic.
    """

    def __init__(self, max_batch: int = 8, pack: bool = False):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.pack = pack
        self._queue: List[Request] = []
        #: deepest the queue has ever been (telemetry gauge)
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._queue)

    def append(self, request: Request) -> None:
        # the keys are computed once, here; extraction compares them
        _ = request.group_key, request.pack_key if self.pack else None
        self._queue.append(request)
        self.peak_depth = max(self.peak_depth, len(self._queue))

    def matching_head(self) -> int:
        """How many queued requests would join the head's batch now."""
        return len(self._form()[0])

    def next_batch(self) -> List[Request]:
        """Extract the head request's group, preserving queue order.

        Pack mode then tops an under-full batch up with shape-class
        riders (see class docstring), again in queue order.
        """
        batch, self._queue = self._form()
        return batch

    def _form(self) -> Tuple[List[Request], List[Request]]:
        """The head's batch and the requests it leaves queued."""
        batch: List[Request] = []
        if not self._queue:
            return batch, []
        head = self._queue[0]
        rest = self._take(
            self._queue, batch, lambda r: r.group_key == head.group_key
        )
        if self.pack and len(batch) < self.max_batch and head.pack_key is not None:
            rest = self._take(rest, batch, lambda r: r.pack_key == head.pack_key)
        return batch, rest

    def _take(self, queue, batch, joins: Callable[[Request], bool]) -> List[Request]:
        """Move the queued requests that ``joins`` accepts into ``batch``
        until it is full; returns the rest in queue order."""
        rest: List[Request] = []
        for index, request in enumerate(queue):
            if len(batch) == self.max_batch:
                return rest + queue[index:]
            if joins(request):
                batch.append(request)
            else:
                rest.append(request)
        return rest
