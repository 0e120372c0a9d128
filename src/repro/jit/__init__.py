"""JIT compilation of the loop-nest IR to cached NumPy kernels.

``lower`` turns a :class:`~repro.ir.ast.Computation` into flat Python/
NumPy source (native loops, inlined affine indexing, dependence-proven
slice vectorization); ``registry`` caches the ``exec``'d callables
process-wide by structural fingerprint and provides :func:`execute`, the
drop-in fast path used everywhere :func:`repro.ir.interpret.interpret`
used to sit on a hot path.
"""

from .lower import (
    LoweredKernel,
    UnsupportedIR,
    computation_fingerprint,
    lower_computation,
)
from .registry import (
    LazyKernel,
    cache_info,
    clear_cache,
    compile_computation,
    disabled,
    execute,
    is_disabled,
)

__all__ = [
    "LazyKernel",
    "LoweredKernel",
    "UnsupportedIR",
    "cache_info",
    "clear_cache",
    "compile_computation",
    "computation_fingerprint",
    "disabled",
    "execute",
    "is_disabled",
    "lower_computation",
]
