"""Expression-DAG IR: multi-call BLAS3 requests as one value graph.

Real BLAS3 traffic arrives as *chains* — ``GEMM→TRSM`` in blocked
solvers, ``SYMM→GEMM`` in projections — and each hop through the serving
tier pays a full launch.  This module gives chains a first-class client
surface: an :class:`Expr` is a symbolic array value (a named input, or
the output of a BLAS3 call over other values), a :class:`Dag` is the
validated, topologically ordered graph a service request carries, and
:func:`chain` builds the common linear pipeline in one call::

    from repro import Dag, chain

    dag = Dag(chain(
        ("GEMM-NN", {"A": "A", "B": "B"}),       # T0 = A @ B
        ("TRSM-LLN", {"A": "L"}),                # solve L X = T0
    ))
    x = service.run_dag(dag, A=a, B=b, L=lower)

Everything downstream keys on the graph *structure*: the canonical
:meth:`Dag.fingerprint` hashes routines, operand wiring and per-node
scalars (never array names or shapes), so identical request shapes share
one dispatch-table entry and micro-batch together, while the fusion
pipeline (:mod:`repro.composer.fuse`, :mod:`repro.tuner.chain`) decides
per edge whether adjacent nodes' loop nests merge into one kernel.

A one-node DAG (:meth:`Dag.single`) is served as the plain call it
wraps: :meth:`repro.serve.Request.graph` turns it into the same request
:meth:`repro.serve.BlasService.submit` builds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..blas3.reference import reference
from ..blas3.routines import get_spec

__all__ = ["Expr", "Dag", "DagNode", "chain"]


def _spec_input_names(spec) -> List[str]:
    return [array.name for array in spec.arrays]


def _optional_operands(spec) -> Tuple[str, ...]:
    """Operands a call may leave unbound (the ``beta``-accumulated C of
    the C-output families; TRSM's B is the right-hand side, never
    optional)."""
    return ("C",) if spec.output == "C" else ()


class Expr:
    """A symbolic array value: a named DAG input or one BLAS3 call.

    Build leaves with :meth:`Expr.input` and applied nodes with
    :meth:`Expr.call`; operands given as plain strings are promoted to
    input leaves.  Instances are immutable and shareable — using one
    Expr as an operand of two calls expresses a value consumed twice.
    """

    __slots__ = ("routine", "operands", "alpha", "beta", "name")

    def __init__(self, routine, operands, alpha, beta, name):
        self.routine = routine
        self.operands = operands
        self.alpha = alpha
        self.beta = beta
        self.name = name

    # -- constructors ---------------------------------------------------
    @staticmethod
    def input(name: str) -> "Expr":
        """A named DAG input (a leaf of the expression graph)."""
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError(f"input name must be an identifier, got {name!r}")
        if name.startswith("_"):
            raise ValueError(
                f"input name {name!r} is reserved (leading underscore names "
                "intermediate values)"
            )
        return Expr(None, {}, 1.0, 1.0, name)

    @classmethod
    def call(
        cls,
        routine: str,
        *,
        alpha: float = 1.0,
        beta: float = 1.0,
        **operands: Union["Expr", str],
    ) -> "Expr":
        """One BLAS3 call over symbolic values.

        ``operands`` bind the routine's spec arrays; every non-optional
        operand must be bound.  A C-output call without a bound ``C``
        computes the pure product (``beta`` is forced to 0).
        """
        spec = get_spec(routine)
        names = _spec_input_names(spec)
        optional = _optional_operands(spec)
        bound = {}
        for key, value in operands.items():
            if key not in names:
                raise ValueError(
                    f"{spec.name} has no operand {key!r} (expected {names})"
                )
            bound[key] = value if isinstance(value, Expr) else Expr.input(value)
        missing = [n for n in names if n not in bound and n not in optional]
        if missing:
            raise ValueError(f"{spec.name} call is missing operands {missing}")
        if "C" in optional and "C" not in bound:
            beta = 0.0
        return cls(spec.name, bound, float(alpha), float(beta), None)

    # -- inspection -----------------------------------------------------
    @property
    def is_input(self) -> bool:
        return self.routine is None

    def __repr__(self) -> str:
        if self.is_input:
            return f"Expr.input({self.name!r})"
        ops = ", ".join(f"{k}={v!r}" for k, v in self.operands.items())
        return f"Expr.call({self.routine!r}, {ops})"


def chain(*steps: Sequence) -> Expr:
    """Build a linear pipeline: each step's unbound operand receives the
    previous step's output.

    Each step is ``(routine, operands)`` or ``(routine, operands,
    scalars)`` where ``operands`` maps operand names to :class:`Expr` or
    input-name strings and ``scalars`` may carry ``alpha``/``beta``.
    The first step must be fully bound; every later step must leave
    exactly one non-optional operand unbound — that is where the chain
    threads through.  Returns the terminal :class:`Expr` (wrap in
    :class:`Dag` to submit).
    """
    if not steps:
        raise ValueError("chain() needs at least one step")
    value: Optional[Expr] = None
    for position, step in enumerate(steps):
        if not isinstance(step, (tuple, list)) or len(step) not in (2, 3):
            raise ValueError(
                "each chain step is (routine, operands[, scalars]); "
                f"step {position} is {step!r}"
            )
        routine, operands = step[0], dict(step[1])
        scalars = dict(step[2]) if len(step) == 3 else {}
        unknown = set(scalars) - {"alpha", "beta"}
        if unknown:
            raise ValueError(f"chain step {position}: unknown scalars {sorted(unknown)}")
        spec = get_spec(routine)
        optional = _optional_operands(spec)
        unbound = [
            n
            for n in _spec_input_names(spec)
            if n not in operands and n not in optional
        ]
        if value is None:
            if unbound:
                raise ValueError(
                    f"chain step 0 ({spec.name}) must be fully bound; "
                    f"missing {unbound}"
                )
        else:
            if len(unbound) != 1:
                raise ValueError(
                    f"chain step {position} ({spec.name}) must leave exactly "
                    f"one operand unbound for the previous output; left {unbound}"
                )
            operands[unbound[0]] = value
        value = Expr.call(routine, **operands, **scalars)
    assert value is not None
    return value


@dataclass(frozen=True)
class DagNode:
    """One validated call of a :class:`Dag`, in topological position.

    ``operands`` map spec operand names to *chain symbols* (input names
    or ``_t<i>`` intermediates); ``sources`` carry the structural wiring
    (``("input", first_use_index)`` or ``("node", producer_index)``)
    the fingerprint hashes.  ``output`` is the chain symbol holding the
    result — for in-place routines (TRSM) it aliases the operand the
    routine updates.
    """

    routine: str
    operands: Mapping[str, str]
    sources: Mapping[str, Tuple[str, int]]
    alpha: float
    beta: float
    output: str
    #: indices of later nodes consuming this node's output
    consumers: Tuple[int, ...] = field(default=(), compare=False)


class Dag:
    """A topologically validated BLAS3 expression graph.

    Construction walks the :class:`Expr` graph once: nodes come out in
    topological order (operands always precede consumers — the graph is
    acyclic by the immutability of :class:`Expr`), input leaves are
    canonicalized by name, and every call is re-validated against its
    routine spec.  The result is the unit the serving tier dispatches
    on: :meth:`fingerprint` keys the plan table, :meth:`node_sizes`
    propagates concrete shapes through the graph, and
    :meth:`reference` is the NumPy chained ground truth every execution
    path must match.
    """

    def __init__(self, root: Expr):
        if isinstance(root, Dag):
            root = root.root
        if not isinstance(root, Expr):
            raise TypeError(f"Dag wraps an Expr, got {type(root).__name__}")
        if root.is_input:
            raise ValueError("a Dag needs at least one call, got a bare input")
        self.root = root
        self.nodes: List[DagNode] = []
        self.inputs: List[str] = []
        self._fingerprint: Optional[str] = None
        self._build()

    # -- construction ---------------------------------------------------
    def _build(self) -> None:
        order: List[Expr] = []
        index_of: Dict[int, int] = {}
        input_index: Dict[str, int] = {}
        consumers: Dict[int, List[int]] = {}

        def visit(expr: Expr) -> None:
            if id(expr) in index_of or expr.is_input:
                return
            for operand in expr.operands.values():
                visit(operand)
            index_of[id(expr)] = len(order)
            order.append(expr)

        visit(self.root)

        symbols: Dict[int, str] = {}  # id(expr) -> chain symbol
        for i, expr in enumerate(order):
            operands: Dict[str, str] = {}
            sources: Dict[str, Tuple[str, int]] = {}
            for name, operand in expr.operands.items():
                if operand.is_input:
                    if operand.name not in input_index:
                        input_index[operand.name] = len(self.inputs)
                        self.inputs.append(operand.name)
                    operands[name] = operand.name
                    sources[name] = ("input", input_index[operand.name])
                else:
                    j = index_of[id(operand)]
                    operands[name] = symbols[id(operand)]
                    sources[name] = ("node", j)
                    consumers.setdefault(j, []).append(i)
            spec = get_spec(expr.routine)
            if spec.output in operands:
                output = operands[spec.output]  # in-place (TRSM updates B)
            else:
                output = f"_t{i}"
            symbols[id(expr)] = output
            self.nodes.append(
                DagNode(
                    routine=expr.routine,
                    operands=operands,
                    sources=sources,
                    alpha=expr.alpha,
                    beta=expr.beta,
                    output=output,
                )
            )
        for i, node in enumerate(self.nodes):
            object.__setattr__(node, "consumers", tuple(consumers.get(i, ())))

    @classmethod
    def single(
        cls, routine: str, *, alpha: float = 1.0, beta: float = 1.0,
        operands: Optional[Sequence[str]] = None,
    ) -> "Dag":
        """The one-node DAG of a plain call: each bound operand is an
        input leaf named after itself."""
        spec = get_spec(routine)
        names = (
            list(operands)
            if operands is not None
            else _spec_input_names(spec)
        )
        bound = {name: Expr.input(name) for name in names}
        return cls(Expr.call(routine, alpha=alpha, beta=beta, **bound))

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def output(self) -> str:
        """Chain symbol of the final result."""
        return self.nodes[-1].output

    @property
    def fingerprint(self) -> str:
        """Canonical structure hash: routines, operand wiring, scalars.

        Array *names* and *shapes* stay out — requests with the same
        call structure share one fingerprint, and the dispatch table's
        size bucket (from :meth:`canonical_sizes`) separates shapes.
        """
        if self._fingerprint is None:
            lines = []
            for node in self.nodes:
                wires = ",".join(
                    f"{name}={kind}{index}"
                    for name, (kind, index) in sorted(node.sources.items())
                )
                lines.append(
                    f"{node.routine}|{wires}|a={node.alpha!r}|b={node.beta!r}"
                )
            digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    @property
    def routine_key(self) -> str:
        """The dispatch-table routine string of a multi-node request."""
        return f"dag:{self.fingerprint[:12]}"

    # -- shape propagation ----------------------------------------------
    def node_sizes(
        self, shapes: Mapping[str, Tuple[int, ...]]
    ) -> List[Dict[str, int]]:
        """Per-node dimension sizes implied by the input shapes.

        Walks the graph once, sizing each node with
        :meth:`repro.blas3.routines.RoutineSpec.sizes_from_shapes` (the
        unification behind ``infer_sizes``) from the concrete shapes
        flowing in; conflicting or undetermined sizes raise
        ``ValueError`` naming the node and symbol.
        """
        known: Dict[str, Tuple[int, ...]] = {
            name: tuple(int(d) for d in shape) for name, shape in shapes.items()
        }
        missing = [name for name in self.inputs if name not in known]
        if missing:
            raise ValueError(f"dag inputs missing arrays {missing}")
        all_sizes: List[Dict[str, int]] = []
        for i, node in enumerate(self.nodes):
            spec = get_spec(node.routine)
            bound = {op: known[symbol] for op, symbol in node.operands.items()}
            try:
                sizes = spec.sizes_from_shapes(bound)
            except ValueError as exc:
                raise ValueError(f"node {i}: {exc}") from None
            known[node.output] = spec.extent(spec.output, sizes)
            all_sizes.append(sizes)
        return all_sizes

    def canonical_sizes(
        self, arrays: Mapping[str, np.ndarray]
    ) -> Dict[str, int]:
        """Flat, order-independent size dict for :class:`Request.sizes`:
        ``{"n<i>.<dim>": extent}`` — joins :meth:`fingerprint` in the
        micro-batcher's group key so identical DAG shapes coalesce."""
        shapes = {name: np.asarray(arr).shape for name, arr in arrays.items()}
        return self.flat_sizes(self.node_sizes(shapes))

    @staticmethod
    def flat_sizes(node_sizes: Sequence[Mapping[str, int]]) -> Dict[str, int]:
        """Per-node sizes (:meth:`node_sizes`) as the flat
        :meth:`canonical_sizes` dict."""
        return {
            f"n{i}.{symbol}": extent
            for i, sizes in enumerate(node_sizes)
            for symbol, extent in sizes.items()
        }

    def output_shape(
        self, arrays: Mapping[str, np.ndarray]
    ) -> Tuple[int, ...]:
        shapes = {name: np.asarray(arr).shape for name, arr in arrays.items()}
        spec = get_spec(self.nodes[-1].routine)
        return spec.extent(spec.output, self.node_sizes(shapes)[-1])

    # -- ground truth ---------------------------------------------------
    def reference(
        self,
        arrays: Mapping[str, np.ndarray],
        node_sizes: Optional[Sequence[Mapping[str, int]]] = None,
    ) -> np.ndarray:
        """NumPy chained reference: every node through
        :func:`repro.blas3.reference` in topological order (float64).

        This is the semantic contract every execution path — unfused
        tuned plans, fused kernels, the serve fallback — is tested
        against.  ``node_sizes`` (from :meth:`node_sizes`, e.g. a served
        request's) says the shapes were already checked.
        """
        if node_sizes is None:
            # operands whose shapes disagree raise ValueError before any work
            self.node_sizes({name: np.asarray(arr).shape for name, arr in arrays.items()})
        values: Dict[str, np.ndarray] = {
            name: np.asarray(arrays[name]) for name in self.inputs
        }
        out = None
        for node in self.nodes:
            inputs = {
                operand: values[symbol]
                for operand, symbol in node.operands.items()
            }
            out = reference(
                node.routine, inputs, alpha=node.alpha, beta=node.beta
            )
            values[node.output] = out
        return out
