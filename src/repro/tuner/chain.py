"""Chain plans: tuned execution of a request DAG, fused where it wins.

:func:`build_chain_plan` is the cross-routine counterpart of
:meth:`~repro.tuner.library.LibraryGenerator.generate`.  For a linear
:class:`repro.dag.Dag` it

1. generates (or loads) every node's :class:`TunedRoutine`,
2. stitches the chain (:func:`repro.composer.fuse.stitch_chain`) and
   probes each edge's fusion legality with the dependence analysis,
3. filters legality down to *eligibility* — fusing an edge bakes the
   producer's result into the consumer's nest with no host epilogue in
   between, so the producer must contribute its raw product
   (``alpha == 1`` and, for C-accumulating families, ``beta == 0`` or no
   bound ``C``), a fused TRSM consumer must solve unscaled
   (``alpha == 1``), and the intermediate must have a single consumer,
4. crosses fuse/no-fuse per eligible edge (at most
   :data:`CHAIN_MASK_EDGES` of them) and ranks the masks with
   :func:`repro.tuner.search.rank`, scored by the analytic chain-timing
   account (:func:`repro.gpu.timing.estimate_chain_time`) — the unfused
   mask is the baseline and wins ties, so the exact per-node fallback
   is never worse than before this module existed,
5. packages the winning mask as a :class:`ChainPlan`: unfused nodes
   execute through their tuned kernels exactly as a plain ``submit``
   would, fused segments execute their stitched-and-fused nest through
   the compiled jit — bit-identical to the unfused chain because legal
   fusion preserves per-element operation order.

Counters: ``fusion.legal_edges`` / ``fusion.illegal_edges`` (dependence
probe), ``fusion.fused`` / ``fusion.declined`` (the tuner's verdict on
eligible edges), ``search.chain_masks`` / ``search.chain_edges_capped``
(masks ranked / eligible edges left unfused past the cap).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..blas3.routines import epilogue, get_spec
from ..composer.fuse import StitchedChain, fuse_chain, stitch_chain
from ..gpu.simulator import SimulatedGPU
from ..gpu.timing import LaunchTiming, estimate_chain_time
from ..ir.ast import Computation
from ..jit import LazyKernel
from ..jit import execute as jit_execute
from ..telemetry import Telemetry, ensure_telemetry
from .library import LibraryGenerator, TunedRoutine
from .search import rank

__all__ = [
    "ChainPlan",
    "ChainSegment",
    "build_chain_plan",
]


@dataclass
class ChainSegment:
    """A maximal run of chain nodes executed as one unit.

    Singleton segments (``start == end``) run their node's tuned kernel;
    multi-node segments carry the stitched-and-fused naive nest
    (``comp``) plus its own :class:`StitchedChain` for the dimension
    environment, and bind ``comp``'s compiled kernel on first run."""

    start: int
    end: int
    comp: Optional[Computation] = None
    stitched: Optional[StitchedChain] = None
    kernel: LazyKernel = field(
        default_factory=LazyKernel, init=False, repr=False, compare=False
    )


class _SegmentView:
    """A sub-range of a dag, re-indexed so :func:`stitch_chain` sees a
    self-contained chain (out-of-segment producers become inputs)."""

    def __init__(self, dag, start: int, end: int):
        self.fingerprint = dag.fingerprint
        self.nodes = []
        for i in range(start, end + 1):
            node = dag.nodes[i]
            sources = {}
            for op, src in node.sources.items():
                if src[0] == "node" and start <= src[1] <= end:
                    sources[op] = ("node", src[1] - start)
                else:
                    sources[op] = ("input", 0)
            self.nodes.append(dataclasses.replace(node, sources=sources))


def _segments_of(n_nodes: int, edges, applied: Sequence[bool]) -> List[Tuple[int, int]]:
    """Partition node indices into maximal fused runs.

    ``edges[e]`` joins consecutive nodes ``(producer, producer+1)``;
    a True in ``applied`` glues that pair into one segment."""
    glued = {edges[e].producer for e, on in enumerate(applied) if on}
    segments = []
    start = 0
    for i in range(n_nodes):
        if i not in glued:
            segments.append((start, i))
            start = i + 1
    return segments


@dataclass
class ChainPlan:
    """The tuned execution plan of one DAG shape (one dispatch entry).

    ``mask`` is the tuner's fuse/no-fuse verdict per stitched edge;
    ``applied`` is what the transform actually fused (equal in practice —
    the legality probe already ran).  ``timing`` models the chosen mask,
    ``unfused_timing`` the exact per-node fallback."""

    dag: object
    arch: object
    node_plans: List[TunedRoutine]
    stitched: StitchedChain
    legal: List[bool]
    eligible: List[bool]
    mask: Tuple[bool, ...]
    applied: List[bool]
    segments: List[ChainSegment]
    timing: Optional[LaunchTiming] = None
    unfused_timing: Optional[LaunchTiming] = None
    notes: List[str] = field(default_factory=list)
    telemetry: Optional[Telemetry] = field(default=None, repr=False, compare=False)

    @property
    def routine_key(self) -> str:
        return self.dag.routine_key

    @property
    def fused(self) -> bool:
        return any(self.applied)

    @property
    def tuned_gflops(self) -> float:
        # Aggregate marker for plan records; per-node numbers live on the
        # node plans themselves.
        return max((p.tuned_gflops for p in self.node_plans), default=0.0)

    # -- execution ------------------------------------------------------
    def execute(
        self,
        dag,
        arrays: Mapping[str, np.ndarray],
        node_sizes: Optional[List[Dict[str, int]]] = None,
    ) -> np.ndarray:
        """Run a request with this plan's structure (same fingerprint).

        Input *names* may differ from the plan's build-time dag — the
        fingerprint hashes wiring, not names — so symbols are remapped
        node-by-node through the shared operand structure.  A caller
        that already sized the request (the serving runtime) passes its
        ``node_sizes``; otherwise they are derived from ``arrays``.
        """
        if node_sizes is None:
            shapes = {name: np.asarray(arr).shape for name, arr in arrays.items()}
            node_sizes = dag.node_sizes(shapes)
        values: Dict[str, np.ndarray] = {
            name: np.asarray(arrays[name]) for name in dag.inputs
        }
        for segment in self.segments:
            if segment.start == segment.end:
                self._run_node(segment.start, dag, node_sizes, values)
            else:
                self._run_fused(segment, dag, node_sizes, values)
        return values[dag.output]

    def _run_node(self, i: int, dag, node_sizes, values) -> None:
        node = dag.nodes[i]
        inputs = {op: values[sym] for op, sym in node.operands.items()}
        values[node.output] = self.node_plans[i]._execute(
            inputs, sizes=node_sizes[i], alpha=node.alpha, beta=node.beta
        )

    def _run_fused(self, segment: ChainSegment, dag, node_sizes, values) -> None:
        a, b = segment.start, segment.end
        plan_nodes = self.dag.nodes[a : b + 1]
        req_nodes = dag.nodes[a : b + 1]
        env = segment.stitched.size_env(node_sizes[a : b + 1])

        # plan symbol -> request symbol, via the shared operand structure
        to_request: Dict[str, str] = {}
        internal: set = set()
        for pnode, rnode in zip(plan_nodes, req_nodes):
            for op, plan_sym in pnode.operands.items():
                to_request[plan_sym] = rnode.operands[op]
            to_request[pnode.output] = rnode.output
            spec = get_spec(pnode.routine)
            if spec.variant.family == "TRSM":
                # In-place solve: the nest overwrites its right-hand
                # side, so only an in-segment intermediate starts zeroed;
                # an external RHS is copied in and solved in place.
                src = pnode.sources.get(spec.output)
                if src is not None and src[0] == "node" and a <= src[1] <= b:
                    internal.add(pnode.output)
            else:
                # C-accumulating families: the nest's accumulator starts
                # zeroed; alpha/beta land in the segment-final epilogue
                # (internal producers are eligibility-checked to
                # alpha=1, beta=0, so raw is already exact for them).
                internal.add(pnode.output)

        inputs: Dict[str, np.ndarray] = {}
        for name, decl in segment.comp.arrays.items():
            if name in internal:
                shape = tuple(d.evaluate(env) for d in decl.dims)
                inputs[name] = np.zeros(shape, np.float32)
            else:
                inputs[name] = np.array(
                    values[to_request[name]], dtype=np.float32
                )

        final = req_nodes[-1]
        c_in = None  # read before the segment's outputs rebind any symbol
        if "C" in final.operands:
            c_in = np.asarray(values[final.operands["C"]], np.float32)

        outputs = jit_execute(
            segment.comp,
            env,
            inputs,
            telemetry=self.telemetry,
            kernel=segment.kernel.get(segment.comp, self.telemetry),
        )
        for pnode, rnode in zip(plan_nodes, req_nodes):
            values[rnode.output] = outputs[pnode.output]
        if get_spec(final.routine).output == "C":
            values[final.output] = epilogue(
                values[final.output], final.alpha, final.beta, c_in
            )


def _edge_eligible(dag, edge, legal: bool) -> Tuple[bool, str]:
    """Whether an edge may enter the fuse/no-fuse tuning space."""
    if not legal:
        return False, "fusion violates a data dependence"
    producer = dag.nodes[edge.producer]
    consumer = dag.nodes[edge.consumer]
    if len(producer.consumers) != 1:
        return False, "intermediate has multiple consumers"
    if producer.alpha != 1.0:
        return False, "producer alpha != 1"
    producer_spec = get_spec(producer.routine)
    if (
        producer_spec.output == "C"
        and "C" in producer.operands
        and producer.beta != 0.0
    ):
        return False, "producer accumulates into a bound C (beta != 0)"
    if get_spec(consumer.routine).variant.family == "TRSM" and consumer.alpha != 1.0:
        return False, "fused TRSM consumer must solve unscaled (alpha != 1)"
    return True, ""


#: at most 2^8 fusion masks per chain — chains are short; edges past
#: the cap stay unfused (counted as ``search.chain_edges_capped``)
CHAIN_MASK_EDGES = 8


def build_chain_plan(
    dag,
    generator: LibraryGenerator,
    node_sizes: Optional[List[Dict[str, int]]] = None,
    *,
    arrays: Optional[Mapping[str, np.ndarray]] = None,
    fuse: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> ChainPlan:
    """Tune one DAG shape end to end (see the module docstring).

    ``node_sizes`` (or ``arrays`` to derive them from) fixes the shape
    the timing model scores; without either, every node is scored at the
    generator's tuning size.  ``fuse=False`` skips the mask search and
    pins the exact unfused plan — the serve tier's default until the
    operator opts in (``--fuse``).
    """
    telemetry = ensure_telemetry(telemetry or generator.telemetry)
    node_plans = [generator.generate(node.routine) for node in dag.nodes]

    if node_sizes is None:
        if arrays is not None:
            shapes = {name: np.asarray(arr).shape for name, arr in arrays.items()}
            node_sizes = dag.node_sizes(shapes)
        else:
            node_sizes = [
                get_spec(node.routine).make_sizes(generator.tune_size)
                for node in dag.nodes
            ]

    stitched = stitch_chain(dag)
    env = stitched.size_env(node_sizes)
    edges = stitched.edges
    notes: List[str] = []

    legal = [False] * len(edges)
    if edges and fuse:
        _, legal, probe_notes = fuse_chain(
            stitched, tuple([True] * len(edges)), sizes=env
        )
        notes.extend(probe_notes)
        telemetry.incr("fusion.legal_edges", sum(legal))
        telemetry.incr("fusion.illegal_edges", len(legal) - sum(legal))

    eligible = [False] * len(edges)
    for e, edge in enumerate(edges):
        ok, why = _edge_eligible(dag, edge, legal[e])
        eligible[e] = ok
        if not ok and legal[e]:
            notes.append(f"edge {e}: {why}")

    mask = tuple([False] * len(edges))
    timing = unfused_timing = None
    if fuse:
        gpu = SimulatedGPU(generator.arch)
        launches = [
            gpu.profile(plan.comp, sizes).models
            for plan, sizes in zip(node_plans, node_sizes)
        ]
        # Every node pair of the chain gets a link; pairs the stitcher
        # left unjoined carry nothing and never fuse.
        position = {edge.producer: e for e, edge in enumerate(edges)}
        pairs = [position.get(p) for p in range(len(dag.nodes) - 1)]
        links = [
            (edges[e].producer_output, edges[e].consumer_operand)
            if e is not None
            else ("", "")
            for e in pairs
        ]
        free = [e for e, ok in enumerate(eligible) if ok]
        if len(free) > CHAIN_MASK_EDGES:
            telemetry.incr("search.chain_edges_capped", len(free) - CHAIN_MASK_EDGES)
            free = free[:CHAIN_MASK_EDGES]

        def masks():
            # all-False first: the exact unfused plan is rank()'s baseline
            for bits in itertools.product((False, True), repeat=len(free)):
                on = dict(zip(free, bits))
                yield tuple(on.get(e, False) for e in range(len(edges)))

        def cost(candidate):
            full = tuple(candidate[e] if e is not None else False for e in pairs)
            return estimate_chain_time(generator.arch, launches, links, full)

        result = rank(masks(), cost)
        telemetry.incr("search.chain_masks", len(result.evaluated))
        mask, timing, unfused_timing = result.winner, result.timing, result.baseline
        telemetry.incr("fusion.fused", sum(mask))
        telemetry.incr(
            "fusion.declined",
            sum(1 for e in range(len(edges)) if eligible[e] and not mask[e]),
        )

    applied = [False] * len(edges)
    if any(mask):
        _, applied, apply_notes = fuse_chain(stitched, mask, sizes=env)
        notes.extend(apply_notes)

    segments: List[ChainSegment] = []
    for a, b in _segments_of(len(dag.nodes), edges, applied):
        if a == b:
            segments.append(ChainSegment(a, b))
            continue
        view = _SegmentView(dag, a, b)
        sub = stitch_chain(view)
        comp, _, sub_notes = fuse_chain(
            sub,
            tuple([True] * len(sub.edges)),
            sizes=sub.size_env(node_sizes[a : b + 1]),
        )
        notes.extend(sub_notes)
        segments.append(ChainSegment(a, b, comp=comp, stitched=sub))

    return ChainPlan(
        dag=dag,
        arch=generator.arch,
        node_plans=node_plans,
        stitched=stitched,
        legal=legal,
        eligible=eligible,
        mask=mask,
        applied=applied,
        segments=segments,
        timing=timing,
        unfused_timing=unfused_timing,
        notes=notes,
        telemetry=telemetry,
    )
