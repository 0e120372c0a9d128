"""repro — reproduction of "Automatic Library Generation for BLAS3 on GPUs"
(Cui, Wang, Xue, Yang, Feng; IPPS 2011).

The package implements the paper's OA (Optimization Adaptor) framework end
to end — EPOD scripts and translator, the ADL adaptor language, the
composer (splitter/mixer/filter/allocator/generator), the auto-tuner —
together with the substrates the paper's evaluation needs: a
polyhedral-lite loop-nest IR, a simulated GPU for the three platforms
(GeForce 9800 / GTX 285 / Fermi C2050), CUBLAS 3.2 / MAGMA v0.2
behavioural baselines, and a CUDA source emitter.

Quickstart::

    from repro import OAFramework, GTX_285

    oa = OAFramework(GTX_285)
    routine = oa.generate("SYMM-LL")
    print(routine.script.render())    # the winning EPOD script
    print(routine.gflops(4096))       # modeled performance

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .adl import (
    ADAPTOR_SOLVER,
    ADAPTOR_SYMMETRY,
    ADAPTOR_TRANSPOSE,
    ADAPTOR_TRIANGULAR,
    Adaptor,
    BUILTIN_ADAPTORS,
    parse_adaptor,
    parse_adaptors,
)
from .blas3 import (
    ALL_VARIANTS,
    BASE_GEMM_SCRIPT,
    build_routine,
    get_spec,
    parse_variant,
    random_inputs,
    reference,
)
from .baselines import cublas_gflops, cublas_kernel, magma_gflops, magma_kernel, magma_supports
from .codegen import emit_cuda
from .composer import Composer
from .dag import Dag, DagNode, Expr, chain
from .dist import DistLibrary, DistPlan, Topology, multi_node, single_node
from .epod import EpodScript, parse_script, translate
from .gpu import (
    FERMI_C2050,
    GEFORCE_9800,
    GPUArch,
    GTX_285,
    PLATFORMS,
    SimulatedGPU,
    occupancy,
)
from .gpu.timing import DistTiming
from .ir import Array, Computation, build_computation, interpret, validate, var
from .jit import compile_computation, execute as jit_execute
from .oa import OAFramework
from .serve import (
    BlasService,
    PlanUnavailableError,
    ServeOptions,
    ShardedBlasService,
    ShardRouter,
    as_completed,
)
from .telemetry import Metrics, Span, Telemetry, Tracer
from .tuner import (
    GeneratedLibrary,
    LibraryGenerator,
    RankingModel,
    TunedRoutine,
    TuningOptions,
    VariantSearch,
    train_model,
)

__version__ = "1.0.0"

__all__ = [
    "ADAPTOR_SOLVER",
    "ADAPTOR_SYMMETRY",
    "ADAPTOR_TRANSPOSE",
    "ADAPTOR_TRIANGULAR",
    "ALL_VARIANTS",
    "Adaptor",
    "Array",
    "BASE_GEMM_SCRIPT",
    "BUILTIN_ADAPTORS",
    "BlasService",
    "Composer",
    "Computation",
    "Dag",
    "DagNode",
    "DistLibrary",
    "DistPlan",
    "DistTiming",
    "EpodScript",
    "Expr",
    "FERMI_C2050",
    "GEFORCE_9800",
    "GPUArch",
    "GTX_285",
    "GeneratedLibrary",
    "LibraryGenerator",
    "Metrics",
    "OAFramework",
    "PLATFORMS",
    "PlanUnavailableError",
    "RankingModel",
    "ServeOptions",
    "ShardRouter",
    "ShardedBlasService",
    "SimulatedGPU",
    "Span",
    "Telemetry",
    "Topology",
    "Tracer",
    "TunedRoutine",
    "TuningOptions",
    "VariantSearch",
    "as_completed",
    "build_computation",
    "build_routine",
    "chain",
    "compile_computation",
    "cublas_gflops",
    "cublas_kernel",
    "emit_cuda",
    "get_spec",
    "interpret",
    "jit_execute",
    "magma_gflops",
    "magma_kernel",
    "magma_supports",
    "multi_node",
    "occupancy",
    "parse_adaptor",
    "parse_adaptors",
    "parse_script",
    "parse_variant",
    "random_inputs",
    "reference",
    "single_node",
    "train_model",
    "translate",
    "validate",
    "var",
]
