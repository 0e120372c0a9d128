"""Functional + race oracle backing the composer's filter.

The paper's filter validates composed sequences with the PolyDeps
dependence checker.  Our filter is stricter and end-to-end: a candidate is
legal iff the transformed computation

1. reproduces the source computation's outputs on structured random
   inputs (both multi-version branches), and
2. is *thread-order independent* — executing every phase's threads in
   reverse must give the same answer, otherwise the kernel has an
   intra-phase data race and is not valid GPU code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..ir.ast import Computation
from ..ir.visitors import iter_statements
from ..jit import execute as jit_execute

__all__ = ["make_inputs", "output_arrays", "check_equivalence", "oracle_sizes"]

_ATOL = 2e-3
_RTOL = 2e-3


def oracle_sizes(
    comp: Computation, params: Mapping[str, int], tiles: int = 2
) -> Dict[str, int]:
    """Problem sizes for validation: ``tiles`` tiles per partitioned
    dimension (large enough to exercise inter-block and inter-tile
    behaviour; the compiled execution path keeps bigger sweeps cheap)."""
    bm = params.get("BM", 64)
    bn = params.get("BN", 16)
    kt = params.get("KT", 16)
    bp = max(1, params.get("BP", 1))
    sizes = {}
    for symbol in comp.dim_symbols:
        if symbol == "N":
            sizes[symbol] = tiles * bn
        elif symbol == "K":
            sizes[symbol] = max(tiles * kt, 32)
        elif symbol == "P":
            # batch_grid strip-mines without bounds guards: P must be a
            # BP multiple (and >= 2 problems to exercise the z grid)
            sizes[symbol] = max(tiles, 2) * bp
        else:
            sizes[symbol] = tiles * bm
    return sizes


def _uses_division(comp: Computation) -> bool:
    return any(
        stmt.expr.uses_division()
        for stage in comp.stages
        for stmt in iter_statements(stage.body)
    )


def make_inputs(
    comp: Computation, sizes: Mapping[str, int], seed: int = 0
) -> Dict[str, np.ndarray]:
    """Structured random inputs respecting array attributes.

    Triangular arrays get zero blanks (the stored triangle only); symmetric
    arrays get the stored triangle only; solver inputs get a boosted
    diagonal so triangular solves stay well conditioned in float32.
    """
    rng = np.random.default_rng(seed)
    boost_diag = _uses_division(comp)
    inputs: Dict[str, np.ndarray] = {}
    for name, arr in comp.arrays.items():
        if arr.storage != "global" or arr.source is not None:
            continue
        shape = tuple(d.evaluate(sizes) for d in arr.dims)
        data = rng.standard_normal(shape).astype(np.float32)
        if arr.triangular == "lower" or arr.symmetric == "lower":
            data = np.tril(data)
        elif arr.triangular == "upper" or arr.symmetric == "upper":
            data = np.triu(data)
        if (arr.triangular or arr.symmetric) and boost_diag and shape[0] == shape[1]:
            data = data + 4.0 * np.eye(shape[0], dtype=np.float32)
        inputs[name] = data
    return inputs


def output_arrays(comp: Computation) -> List[str]:
    """Global arrays written by the compute stage (the routine's results)."""
    out: List[str] = []
    for stmt in iter_statements(comp.main_stage.body):
        name = stmt.target.array
        arr = comp.arrays.get(name)
        if arr is not None and arr.storage == "global" and arr.source is None:
            if name not in out:
                out.append(name)
    return out


@dataclass
class EquivalenceReport:
    ok: bool
    reason: str = ""


def check_equivalence(
    candidate: Computation,
    source: Computation,
    params: Mapping[str, int],
    seed: int = 0,
    sizes: Optional[Mapping[str, int]] = None,
    tiles: int = 2,
    telemetry=None,
) -> EquivalenceReport:
    """Functional + race check of ``candidate`` against ``source``.

    Both the reference and the candidate run through the JIT registry
    (:func:`repro.jit.execute`), which is bit-identical to the
    interpreter, so verdicts are unchanged — just cheap enough that
    callers can afford ``tiles > 2`` sweeps.
    """
    sizes = dict(sizes or oracle_sizes(candidate, params, tiles=tiles))
    inputs = make_inputs(source, sizes, seed=seed)
    outputs = output_arrays(source)
    if not outputs:
        return EquivalenceReport(False, "source has no outputs")
    try:
        ref = jit_execute(source, sizes, inputs, telemetry=telemetry)
    except Exception as exc:  # pragma: no cover - source must be sound
        return EquivalenceReport(False, f"source failed: {exc}")

    flag_settings: List[Dict[str, bool]] = [{}]
    if candidate.flags:
        flag_settings = [
            {k: True for k in candidate.flags},
            {k: False for k in candidate.flags},
        ]
    for flags in flag_settings:
        # Padding's fast path multiplies blank elements in: only sound when
        # the blanks really are zero, which make_inputs guarantees — so both
        # flag settings must agree with the reference.
        for order in ("asc", "desc"):
            try:
                got = jit_execute(
                    candidate,
                    sizes,
                    inputs,
                    flags=flags,
                    thread_order=order,
                    telemetry=telemetry,
                )
            except Exception as exc:
                return EquivalenceReport(False, f"execution failed: {exc}")
            for name in outputs:
                if not np.allclose(got[name], ref[name], rtol=_RTOL, atol=_ATOL):
                    kind = "race (thread-order dependent)" if order == "desc" else "wrong result"
                    return EquivalenceReport(
                        False, f"{kind}: output {name} mismatches (flags={flags})"
                    )
    return EquivalenceReport(True)
