"""Symbol renaming over computations — the substrate of cross-routine
stitching.

:func:`repro.composer.fuse.stitch_chain` places several routines' loop
nests side by side in ONE computation, which is only well-formed if the
pieces stop sharing names first: each node's arrays are rewritten to the
chain's shared symbols (so a producer's ``C`` and its consumer's ``B``
become the *same* intermediate array), its dimension symbols get
chain-unique names (later unified where shapes must agree), and its loop
labels get a node prefix (so two ``Li`` nests can coexist and transforms
can still address each by label).

:func:`rename_computation` does all three on a copy and never mutates
its input: it substitutes the dimension map through every node, maps
each statement's array references, then prefixes the labels.  It
accepts any node the IR has, transformed constructs included.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .affine import AffineExpr
from .ast import Array, ArrayRef, Assign, Computation, Loop, Stage
from .visitors import map_statements, walk

__all__ = ["rename_computation"]


def rename_computation(
    comp: Computation,
    *,
    arrays: Optional[Mapping[str, str]] = None,
    dims: Optional[Mapping[str, str]] = None,
    label_prefix: str = "",
    name: Optional[str] = None,
) -> Computation:
    """A structural copy of ``comp`` with symbols renamed.

    ``arrays`` maps array names (declarations and every reference),
    ``dims`` maps dimension symbols (loop bounds, guard predicates,
    array extents, ``dim_symbols``), and ``label_prefix`` is prepended
    to every loop/statement label.  Mappings may be partial; unmapped
    symbols pass through.  The input computation is never modified.
    """
    array_map = dict(arrays or {})
    dim_map = dict(dims or {})
    dim_sub = {old: AffineExpr.variable(new) for old, new in dim_map.items()}

    def rename_ref(ref: ArrayRef) -> ArrayRef:
        new_name = array_map.get(ref.array)
        return ref if new_name is None else ArrayRef(new_name, ref.indices, ref.region)

    new_arrays: Dict[str, Array] = {}
    for old_name, array in comp.arrays.items():
        new_name = array_map.get(old_name, old_name)
        if new_name in new_arrays:
            raise ValueError(
                f"array rename collapses {old_name!r} onto {new_name!r}, "
                "already declared"
            )
        new_dims = tuple(d.substitute(dim_sub) for d in array.dims)
        new_arrays[new_name] = array.with_(name=new_name, dims=new_dims)

    stages: List[Stage] = []
    for stage in comp.stages:
        body = [node.substitute(dim_sub) for node in stage.body]
        map_statements(body, lambda stmt: stmt.map_refs(rename_ref))
        if label_prefix:
            for node in walk(body):
                if isinstance(node, Loop) or (isinstance(node, Assign) and node.label):
                    node.label = f"{label_prefix}{node.label}"
        stages.append(Stage(f"{label_prefix}{stage.name}", body, stage.role, dict(stage.meta)))

    return Computation(
        name if name is not None else comp.name,
        new_arrays,
        stages,
        scalars=comp.scalars,
        dim_symbols=tuple(dim_map.get(s, s) for s in comp.dim_symbols),
        flags=dict(comp.flags),
        params=dict(comp.params),
    )
