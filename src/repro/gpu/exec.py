"""Lockstep (SIMT-style) functional execution of transformed kernels.

The sequential oracle in :mod:`repro.ir.interpret` runs each thread of a
phase to completion before the next thread starts.  Real GPUs interleave:
warps advance roughly together, so a kernel whose correctness depends on
*one thread finishing before another starts* is broken hardware-wise even
if the sequential interpretation happens to succeed.

:func:`run_lockstep` executes every phase in **lockstep**: all threads of
the block perform their ``n``-th dynamic statement instance before any
thread performs its ``n+1``-th.  Combined with the ascending/descending
sequential orders this brackets the legal schedules:

* correct kernels (cross-thread communication only through barriers /
  phase boundaries) give identical results under all three schedules;
* racy kernels diverge under at least one of them.

The composer's oracle uses sequential asc/desc (cheap); this module backs
the deeper `tests/gpu/test_lockstep.py` suite and is exposed for users who
want the stricter check.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from ..ir.ast import Assign, Barrier, Computation, Guard, Loop, Node
from ..ir.interpret import _eval_predicate, _execute, allocate_arrays

__all__ = ["run_lockstep", "lockstep_matches_sequential"]


def _thread_steps(
    body: List[Node],
    env: Dict[str, int],
    buffers: Dict[str, np.ndarray],
    scalars: Mapping[str, float],
    flags: Mapping[str, bool],
) -> Iterator[None]:
    """Generator executing one thread's statements, yielding after each."""
    for node in body:
        if isinstance(node, Assign):
            _execute((node,), env, buffers, scalars, flags)
            yield
        elif isinstance(node, Loop):
            lo = node.lower.evaluate(env)
            hi = node.upper.evaluate(env)
            for value in range(lo, hi, node.step):
                env[node.var] = value
                yield from _thread_steps(node.body, env, buffers, scalars, flags)
            env.pop(node.var, None)
        elif isinstance(node, Guard):
            branch = node.body if _eval_predicate(node.cond, env, flags) else node.else_body
            yield from _thread_steps(branch, env, buffers, scalars, flags)
        elif isinstance(node, Barrier):
            continue


def _run_phase_lockstep(
    phase: Loop,
    env: Mapping[str, int],
    buffers: Dict[str, np.ndarray],
    scalars: Mapping[str, float],
    flags: Mapping[str, bool],
) -> None:
    """All (tx, ty) streams advanced round-robin, one statement at a time."""
    ty_loop = phase.body[0]
    assert isinstance(ty_loop, Loop) and ty_loop.mapped_to == "thread.y"
    tx_n = phase.upper.evaluate(env)
    ty_n = ty_loop.upper.evaluate(env)
    streams = []
    for tx in range(tx_n):
        for ty in range(ty_n):
            thread_env = dict(env)
            thread_env[phase.var] = tx
            thread_env[ty_loop.var] = ty
            streams.append(
                _thread_steps(ty_loop.body, thread_env, buffers, scalars, flags)
            )
    live = list(streams)
    while live:
        still = []
        for stream in live:
            try:
                next(stream)
                still.append(stream)
            except StopIteration:
                pass
        live = still


def _run_block_items(
    items: List[Node],
    env: Dict[str, int],
    buffers: Dict[str, np.ndarray],
    scalars: Mapping[str, float],
    flags: Mapping[str, bool],
) -> None:
    for node in items:
        if isinstance(node, Loop):
            if node.mapped_to == "thread.x":
                _run_phase_lockstep(node, env, buffers, scalars, flags)
            else:
                lo, hi = node.lower.evaluate(env), node.upper.evaluate(env)
                for value in range(lo, hi, node.step):
                    env[node.var] = value
                    _run_block_items(node.body, env, buffers, scalars, flags)
                env.pop(node.var, None)
        elif isinstance(node, Barrier):
            continue  # phase boundaries already serialise the lockstep groups
        elif isinstance(node, Guard):
            branch = node.body if _eval_predicate(node.cond, env, flags) else node.else_body
            _run_block_items(branch, env, buffers, scalars, flags)
        elif isinstance(node, Assign):
            _execute((node,), env, buffers, scalars, flags)  # block-level stmt (rare)


def run_lockstep(
    comp: Computation,
    sizes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
    scalars: Optional[Mapping[str, float]] = None,
    flags: Optional[Mapping[str, bool]] = None,
) -> Dict[str, np.ndarray]:
    """Execute all stages with SIMT-lockstep phases; return the buffers."""
    scalars = dict(scalars or {})
    for name in comp.scalars:
        scalars.setdefault(name, 1.0)
    merged_flags = dict(comp.flags)
    if flags:
        merged_flags.update(flags)
    buffers = allocate_arrays(comp, sizes, inputs)
    env: Dict[str, int] = dict(sizes)
    for stage in comp.stages:
        _run_block_items(stage.body, env, buffers, scalars, merged_flags)
    return buffers


def lockstep_matches_sequential(
    comp: Computation,
    sizes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
    outputs: List[str],
    rtol: float = 2e-3,
    atol: float = 2e-3,
) -> bool:
    """The strict schedule-independence probe: sequential == lockstep."""
    from ..jit import execute as jit_execute

    seq = jit_execute(comp, sizes, inputs)
    lock = run_lockstep(comp, sizes, inputs)
    return all(
        np.allclose(lock[name], seq[name], rtol=rtol, atol=atol) for name in outputs
    )
