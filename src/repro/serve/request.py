"""Request/response records of the BLAS3 serving runtime.

A :class:`Request` is one BLAS3 call in flight: the routine, its arrays,
its scaling factors and an optional per-request deadline (a *relative*
budget in seconds from submission).  The service answers with a
:class:`Response`, delivered through a :class:`PendingResult` — a
one-shot future the submitting thread blocks on.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..blas3.routines import get_spec, infer_sizes

__all__ = ["Request", "Response", "PendingResult", "ServeError", "as_completed"]

#: largest dimension eligible for pad-packing (see Request.pack_key):
#: padding waste grows with the class size, and larger calls saturate
#: the GPU alone
PACK_MAX_DIM = 64


class ServeError(RuntimeError):
    """A request failed inside the service (carried via Response.error)."""


@dataclass
class Request:
    """One submitted BLAS3 call, sized once at the door.

    :meth:`call` and :meth:`graph` build requests and size them; every
    later reader uses :attr:`sizes`, and a call that cannot be sized is
    answered with its :attr:`sizing_error`.  The queue that admits a
    request stamps its :attr:`id`, :attr:`submitted_at` and default
    deadline.
    """

    id: int
    routine: str
    arrays: Dict[str, np.ndarray]
    alpha: float = 1.0
    beta: float = 1.0
    #: dimension sizes; a DAG's are flat, ``{"n<i>.<dim>": extent}``
    sizes: Optional[Dict[str, int]] = None
    #: relative deadline budget in seconds (None = no deadline)
    deadline_s: Optional[float] = None
    #: service clock reading at submit time
    submitted_at: float = 0.0
    #: the multi-node :class:`repro.dag.Dag` of a chained request, whose
    #: ``routine`` is then ``dag.routine_key``; None for a single call
    dag: Optional[object] = None
    #: a chained request's sizes per node
    node_sizes: Optional[List[Dict[str, int]]] = None
    sizing_error: Optional[Exception] = None

    @classmethod
    def call(
        cls, routine: str, arrays: Mapping[str, np.ndarray], *,
        alpha: float = 1.0, beta: float = 1.0,
        sizes: Optional[Mapping[str, int]] = None,
        deadline_s: Optional[float] = None,
    ) -> "Request":
        """A single call, sized by ``infer_sizes`` unless ``sizes`` is given."""
        spec = get_spec(routine)  # canonicalises + validates the name
        arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
        error = None
        if sizes is not None:
            sizes = dict(sizes)
        else:
            try:
                sizes = infer_sizes(spec, arrays)
            except ValueError as exc:
                error = exc
        return cls(0, spec.name, arrays, alpha, beta, sizes, deadline_s, sizing_error=error)

    @classmethod
    def graph(
        cls, dag, arrays: Mapping[str, np.ndarray], *, deadline_s: Optional[float] = None
    ) -> "Request":
        """A DAG request: a one-node DAG is the plain call it wraps, a
        multi-node one is sized by one ``dag.node_sizes`` pass."""
        if len(dag) == 1:
            node = dag.nodes[0]
            operands = {op: arrays[sym] for op, sym in node.operands.items()}
            return cls.call(
                node.routine, operands, alpha=node.alpha, beta=node.beta, deadline_s=deadline_s
            )
        arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
        request = cls(0, dag.routine_key, arrays, deadline_s=deadline_s, dag=dag)
        try:
            request.node_sizes = dag.node_sizes({k: a.shape for k, a in arrays.items()})
        except ValueError as exc:
            request.sizing_error = exc
        else:
            request.sizes = dag.flat_sizes(request.node_sizes)
        return request

    @property
    def chained(self) -> bool:
        """Whether this request is a multi-node DAG (chain) request."""
        return self.dag is not None

    @cached_property
    def group_key(self) -> Tuple:
        """Coalescing key: requests agreeing on it batch into one launch.

        Same routine, same array shapes, same scaling — the dispatch
        work (plan lookup, bucketing) is identical for every member, so
        the batch pays it once.  Deadline *presence* is part of the key:
        plan resolution branches on whether the head can afford a cold
        tune, so a deadline-bound head must never decide for
        deadline-free riders (or vice versa).  The budget value itself
        stays out — same-presence requests resolve identically and
        per-request expiry is checked at serve time.  Computed on first
        use, after the queue stamped the deadline.
        """
        shapes = tuple(
            (name, np.shape(arr)) for name, arr in sorted(self.arrays.items())
        )
        sizes = tuple(sorted(self.sizes.items())) if self.sizes else None
        return (
            self.routine,
            shapes,
            sizes,
            self.alpha,
            self.beta,
            self.deadline_s is not None,
        )

    def expired(self, now: float) -> bool:
        """Whether the deadline budget is spent at clock reading ``now``."""
        return self.deadline_s is not None and (now - self.submitted_at) > self.deadline_s

    @cached_property
    def pack_key(self) -> Optional[Tuple]:
        """Shape-*class* coalescing key for cross-request packing.

        Where :attr:`group_key` requires identical shapes,
        ``pack_key`` buckets small GEMM calls by the power-of-two
        ceiling of their *largest* dimension — the same class the
        dispatch table buckets by, so every member of a pack class
        already shares a plan.  Requests agreeing on it can ride one
        strided-batched (BGEMM) launch, zero-padded to the batch's
        per-dimension maxima.  ``None`` for calls that cannot pack —
        non-GEMM routines, unsized calls, or any dimension above
        :data:`PACK_MAX_DIM`.

        Deadline *presence* stays part of the key for the same reason
        it is part of ``group_key``: resolving the batched plan
        branches on whether the batch can afford a cold tune.
        """
        if self.sizes is None or self.routine.split("-", 1)[0] != "GEMM":
            return None
        dims = [int(v) for k, v in self.sizes.items() if k != "P"]
        if not dims or max(dims) > PACK_MAX_DIM or min(dims) < 1:
            return None
        largest = max(dims)
        bucket = 1 << (largest - 1).bit_length() if largest > 1 else 1
        return (self.routine, bucket, self.deadline_s is not None)


@dataclass
class Response:
    """The service's answer to one request."""

    request_id: int
    routine: str
    output: Optional[np.ndarray] = None
    #: "tuned" (hot/lazily-tuned plan), "fallback" (baseline kernel),
    #: "error" (the request failed; see :attr:`error`) or "shed"
    #: (rejected by admission control before reaching a dispatcher)
    source: str = "tuned"
    #: why the baseline answered, when it did ("deadline" | "no-plan")
    fallback_reason: Optional[str] = None
    #: size of the coalesced launch this request rode in
    batch_size: int = 1
    #: queue wait (submit → launch start) and total (submit → done)
    wait_s: float = 0.0
    total_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class PendingResult:
    """One-shot future for a submitted request."""

    def __init__(self, request_id: int, telemetry=None):
        self.request_id = request_id
        self._event = threading.Event()
        self._response: Optional[Response] = None
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["PendingResult"], None]] = []
        self._telemetry = telemetry

    def done(self) -> bool:
        return self._event.is_set()

    def fulfill(self, response: Response) -> None:
        with self._lock:
            self._response = response
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        # Callbacks run on the fulfilling (dispatcher) thread.  Each is
        # isolated: one raising callback must not swallow its siblings
        # or propagate into the serving loop and kill the dispatcher.
        # Counter: ``serve.callback_errors``.
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                if self._telemetry is not None:
                    self._telemetry.incr("serve.callback_errors")

    def add_done_callback(
        self, callback: Callable[["PendingResult"], None]
    ) -> None:
        """Invoke ``callback(self)`` once the response lands.

        The non-blocking completion surface: callbacks registered before
        fulfilment run on the fulfilling (dispatcher) thread, in
        registration order; registering after fulfilment invokes the
        callback immediately on the caller's thread.  Callbacks should be
        quick and must not block — they run inside the serving loop.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def response(self, timeout: Optional[float] = None) -> Response:
        """Block for the response without raising on failure.

        The inspection surface: shed and errored responses come back as
        values (check :attr:`Response.source` / :attr:`Response.error`),
        where :meth:`result` would raise :class:`ServeError`.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still pending after {timeout}s"
            )
        assert self._response is not None
        return self._response

    def result(self, timeout: Optional[float] = None) -> Response:
        """Block for the response; raises :class:`ServeError` on failure."""
        response = self.response(timeout)
        if response.error is not None:
            raise ServeError(response.error)
        return response

    def output(self, timeout: Optional[float] = None) -> np.ndarray:
        """The result array (blocking convenience over :meth:`result`)."""
        return self.result(timeout).output


def as_completed(
    pendings: Iterable[PendingResult], timeout: Optional[float] = None
) -> Iterator[PendingResult]:
    """Yield each :class:`PendingResult` as its response lands.

    Completion order, not submission order — the async consumption
    surface for fan-out submitters::

        pendings = [service.submit(...) for _ in range(64)]
        for pending in as_completed(pendings):
            handle(pending.result())

    ``timeout`` bounds the *total* wait; expiry raises
    :class:`TimeoutError` naming how many results were still pending.
    """
    pendings = list(pendings)
    ready: "queue.Queue[PendingResult]" = queue.Queue()
    for pending in pendings:
        pending.add_done_callback(ready.put)
    deadline = None if timeout is None else time.monotonic() + timeout
    for remaining in range(len(pendings), 0, -1):
        wait = None if deadline is None else deadline - time.monotonic()
        if wait is not None and wait <= 0:
            # The budget is spent, but results that already landed must
            # still drain: a consumer that was busy handling earlier
            # results would otherwise lose responses that arrived in
            # time just because the *clock check* came late.
            try:
                yield ready.get_nowait()
                continue
            except queue.Empty:
                raise TimeoutError(
                    f"{remaining} result(s) still pending after {timeout}s"
                ) from None
        try:
            yield ready.get(timeout=wait)
        except queue.Empty:
            raise TimeoutError(
                f"{remaining} result(s) still pending after {timeout}s"
            ) from None
