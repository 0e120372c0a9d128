"""Process-wide compiled-kernel registry and the JIT execution entry point.

:func:`execute` is a drop-in replacement for
:func:`repro.ir.interpret.interpret`: same signature, same result dict,
bit-identical buffers.  The first call for a given ``(structural
fingerprint, thread_order)`` pair lowers and ``exec``-compiles the
computation (a ``jit.lower`` span, a ``jit.compile`` counter); every
later call — across oracle probes, tuner verify sweeps, simulator runs
and the serving runtime — reuses the cached callable (``jit.cache_hit``).
Computations outside the compilable subset are remembered as
uncompilable and transparently executed by the interpreter
(``jit.fallback``), so callers never need to care which path ran.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..ir import dependence
from ..ir.ast import Computation
from ..ir.interpret import allocate_arrays, run_stages
from .lower import LoweredKernel, UnsupportedIR, computation_fingerprint, lower_computation


def _ensure_telemetry(telemetry):
    # Imported lazily: repro.telemetry pulls in the reporting/baselines
    # stack, which itself imports repro.gpu — a cycle at module-import
    # time now that the simulator executes through this registry.
    from ..telemetry import ensure_telemetry

    return ensure_telemetry(telemetry)

__all__ = [
    "LazyKernel",
    "compile_computation",
    "execute",
    "disabled",
    "clear_cache",
    "cache_info",
]

# fingerprint x thread_order -> LoweredKernel, or None for "known uncompilable"
_CACHE: Dict[Tuple[str, str], Optional[LoweredKernel]] = {}
_LOCK = threading.Lock()
_MAX_ENTRIES = 512  # far above any real workload; a leak backstop, not an LRU

_disabled = threading.local()


@contextlib.contextmanager
def disabled():
    """Force the interpreter path within the block (for A/B benchmarks)."""
    previous = getattr(_disabled, "value", False)
    _disabled.value = True
    try:
        yield
    finally:
        _disabled.value = previous


def is_disabled() -> bool:
    return bool(getattr(_disabled, "value", False))


def clear_cache() -> None:
    """Drop every compiled kernel and every memoized dependence set (the
    dependence memo feeds vectorization legality, so a cold reset of the
    one is a cold reset of both)."""
    with _LOCK:
        _CACHE.clear()
    dependence.clear_cache()


def cache_info() -> Dict[str, int]:
    with _LOCK:
        compiled = sum(1 for kernel in _CACHE.values() if kernel is not None)
        return {"entries": len(_CACHE), "compiled": compiled, "uncompilable": len(_CACHE) - compiled}


def compile_computation(
    comp: Computation,
    thread_order: str = "asc",
    telemetry=None,
) -> Optional[LoweredKernel]:
    """Return the cached compiled kernel for ``comp``, lowering on miss.

    Returns ``None`` when the computation is outside the compilable
    subset; the verdict itself is cached so the lowering attempt is not
    repeated either.
    """
    telemetry = _ensure_telemetry(telemetry)
    try:
        key = (computation_fingerprint(comp), thread_order)
    except UnsupportedIR:
        return None  # not even hashable structurally: interpreter territory
    with _LOCK:
        if key in _CACHE:
            kernel = _CACHE[key]
            telemetry.incr("jit.cache_hit")
            return kernel
    with telemetry.span("jit.lower", routine=comp.name, thread_order=thread_order):
        try:
            kernel: Optional[LoweredKernel] = lower_computation(comp, thread_order)
        except UnsupportedIR:
            kernel = None
    with _LOCK:
        if len(_CACHE) >= _MAX_ENTRIES:
            _CACHE.clear()
        _CACHE[key] = kernel
    if kernel is not None:
        telemetry.incr("jit.compile")
        if kernel.vectorized_loops:
            telemetry.incr("jit.vectorized_loops", kernel.vectorized_loops)
    return kernel


_UNBOUND = object()


class LazyKernel:
    """A caller-held kernel for one computation, compiled on first use.

    Serving plans hold one, so a hot call hands :func:`execute` its
    kernel instead of paying the registry lookup and its fingerprint.
    :meth:`get` is ``None`` under :func:`disabled` (without compiling)
    and for uncompilable IR.  The computation must not change once its
    kernel is bound.
    """

    __slots__ = ("_kernel",)

    def __init__(self):
        self._kernel = _UNBOUND

    def get(self, comp: Computation, telemetry=None) -> Optional[LoweredKernel]:
        if is_disabled():
            return None
        if self._kernel is _UNBOUND:
            self._kernel = compile_computation(comp, telemetry=telemetry)
        return self._kernel


def execute(
    comp: Computation,
    sizes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
    scalars: Optional[Mapping[str, float]] = None,
    flags: Optional[Mapping[str, bool]] = None,
    thread_order: str = "asc",
    telemetry=None,
    kernel: Optional[LoweredKernel] = None,
) -> Dict[str, np.ndarray]:
    """Run ``comp`` through the compiled kernel cache; interpret on fallback.

    Mirrors :func:`repro.ir.interpret.interpret` exactly: scalars default
    to 1.0, runtime flags overlay ``comp.flags``, inputs are copied into
    freshly allocated buffers, and the full buffer dict is returned.

    ``kernel`` is a caller-held :func:`compile_computation` result for
    ``comp``: it runs without the registry lookup (no fingerprint).  It
    is ignored under :func:`disabled` and when it was compiled for the
    other ``thread_order``.
    """
    telemetry = _ensure_telemetry(telemetry)
    scalars = dict(scalars or {})
    for name in comp.scalars:
        scalars.setdefault(name, 1.0)
    merged_flags = dict(comp.flags)
    if flags:
        merged_flags.update(flags)
    buffers = allocate_arrays(comp, sizes, inputs)

    if is_disabled():
        kernel = None
    elif kernel is None or kernel.thread_order != thread_order:
        kernel = compile_computation(comp, thread_order, telemetry)
    if kernel is not None:
        kernel.fn(buffers, sizes, scalars, merged_flags)
    else:
        telemetry.incr("jit.fallback")
        run_stages(comp, buffers, sizes, scalars, merged_flags, thread_order)
    return buffers
