"""Micro-batching queue of the serving runtime.

Concurrent same-shape requests coalesce into one simulated-GPU launch:
the batcher holds the FIFO of pending requests and, on drain, pulls the
head request plus every queued request sharing its
:meth:`~repro.serve.request.Request.group_key` (up to ``max_batch``).
Submission order is preserved both across batches (the head picks the
group) and within a batch, so serving is deterministic regardless of
how submitter threads interleave.

The *window* — how long the dispatcher waits for same-shape company
before launching — is the service loop's concern
(:class:`~repro.serve.service.BlasService`); the batcher itself is a
pure data structure guarded by the service's lock.
"""

from __future__ import annotations

from typing import List

from .request import Request

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """FIFO request queue with same-shape batch extraction.

    With ``pack=True`` a second coalescing tier activates: when the
    head's exact-shape group leaves the batch under-full, queued small
    GEMM calls sharing the head's :meth:`~Request.pack_key` shape
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
        self._queue.append(request)
        self.peak_depth = max(self.peak_depth, len(self._queue))

    def matching_head(self) -> int:
        """How many queued requests would join the head's batch now."""
        if not self._queue:
            return 0
        key = self._queue[0].group_key()
        count = sum(1 for r in self._queue if r.group_key() == key)
        if self.pack:
            pkey = self._queue[0].pack_key()
            if pkey is not None:
                count += sum(
                    1
                    for r in self._queue
                    if r.group_key() != key
                    and r.pack_key() == pkey
                )
        return count

    def next_batch(self) -> List[Request]:
        """Extract the head request's group, preserving queue order.

        Pack mode then tops an under-full batch up with shape-class
        riders (see class docstring), again in queue order.
        """
        if not self._queue:
            return []
        key = self._queue[0].group_key()
        batch: List[Request] = []
        rest: List[Request] = []
        for request in self._queue:
            if len(batch) < self.max_batch and request.group_key() == key:
                batch.append(request)
            else:
                rest.append(request)
        if self.pack and len(batch) < self.max_batch:
            pkey = batch[0].pack_key()
            if pkey is not None:
                keep: List[Request] = []
                for request in rest:
                    if (
                        len(batch) < self.max_batch
                        and request.pack_key() == pkey
                    ):
                        batch.append(request)
                    else:
                        keep.append(request)
                rest = keep
        self._queue = rest
        return batch
