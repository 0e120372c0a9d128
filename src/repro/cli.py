"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``routines``
    List the 24 BLAS3 variants and their adaptor assignments.
``adaptors``
    Print the four built-in ADL adaptor definitions (§IV-A).
``generate ROUTINE``
    Compose + search + verify one routine; print the winning EPOD script,
    tuned parameters and modeled GFLOPS.
``compare ROUTINE``
    OA vs CUBLAS 3.2 (and MAGMA v0.2 where it exists) on one platform.
``cuda ROUTINE``
    Emit the generated CUDA source for a routine.
``candidates ROUTINE``
    Show the composer's candidate scripts for a routine.
``library``
    Tune every variant (all 24 by default) and save the resulting
    library as JSON (reloadable with ``repro.tuner.load_library``).
``serve``
    Run a synthetic request stream through the serving tier
    (:class:`repro.serve.ShardedBlasService`): consistent-hash routing
    over ``--shards`` dispatchers, each with an LRU hot-plan cache and
    micro-batching; optional per-request deadlines with baseline
    fallback, queue-depth load shedding (``--high-water``), multi-device
    backends.  Prints per-routine latency and the service counters.
``stats TRACE``
    Print the per-stage wall-time table and counter registry of a trace
    document previously written with ``--trace-json``.
``train-model``
    Fit the ranking cost model from the score corpus a tuning cache dir
    accumulated (every ``generate``/``library`` run with ``--cache-dir``
    records its evaluated configs) and save it next to the corpus, where
    ``TuningOptions(topk=...)`` searches and the serving runtime's
    instant predicted plans pick it up.

All commands take ``--arch {geforce9800,gtx285,fermi}`` (default gtx285)
and ``-n`` for the problem size (default 4096).  The tuning commands
(``generate``, ``compare``, ``cuda``, ``library``) additionally take:

``--jobs N``
    Parallel search workers (default: all CPUs; ``--jobs 1`` forces the
    sequential path).
``--cache-dir DIR``
    Persistent tuning cache directory.  Defaults to ``$REPRO_CACHE_DIR``
    when set, otherwise caching is off.
``--no-cache``
    Disable the tuning cache even if ``$REPRO_CACHE_DIR`` is set.
``--topk K``
    Evaluate only the learned cost model's top-K configurations during a
    cold search (exact-fallback guarded; needs a ``train-model`` run
    against the same cache dir first).
``--trace-json PATH``
    Record pipeline telemetry (nested spans + counters) and write the
    machine-readable trace document to PATH on exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .adl.builtin import BUILTIN_ADAPTORS
from .baselines.cublas import cublas_gflops
from .baselines.magma import magma_gflops, magma_supports
from .blas3.naming import ALL_VARIANTS
from .blas3.routines import get_spec
from .gpu.arch import PLATFORMS
from .oa import OAFramework
from .reporting.format import ascii_table
from .tuner.options import TuningOptions

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch",
        choices=sorted(PLATFORMS),
        default="gtx285",
        help="target GPU platform (default: gtx285)",
    )
    parser.add_argument(
        "-n", type=int, default=4096, help="problem size (default: 4096)"
    )


def _add_tuning(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel search workers (default: cpu count; 1 = sequential)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent tuning cache directory "
        "(default: $REPRO_CACHE_DIR if set, else no cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the tuning cache even if $REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--topk",
        type=int,
        default=None,
        metavar="K",
        help="evaluate only the cost model's top-K configurations during "
        "a cold search (needs a trained model in the cache dir, see "
        "`train-model`; default: exhaustive)",
    )
    parser.add_argument(
        "--trace-json",
        default=None,
        metavar="PATH",
        help="record pipeline telemetry and write the trace document here",
    )


def _tuning_options(args) -> TuningOptions:
    """Build the one TuningOptions the whole command threads downward."""
    cache_dir = None
    if not getattr(args, "no_cache", False):
        cache_dir = getattr(args, "cache_dir", None) or os.environ.get(
            "REPRO_CACHE_DIR"
        )
    return TuningOptions(
        jobs=getattr(args, "jobs", None),
        cache_dir=cache_dir,
        topk=getattr(args, "topk", None),
    )


def _make_telemetry(args):
    if getattr(args, "trace_json", None):
        from .telemetry import Telemetry

        return Telemetry()
    return None


def _make_oa(args) -> OAFramework:
    return OAFramework(
        PLATFORMS[args.arch],
        telemetry=_make_telemetry(args),
        options=_tuning_options(args),
    )


def _finish_trace(oa: OAFramework, args) -> None:
    """Write the run's trace document if ``--trace-json`` was given."""
    path = getattr(args, "trace_json", None)
    if path and oa.telemetry.enabled:
        oa.telemetry.write_json(path)
        print(f"// trace written to {path}", file=sys.stderr)


def _routine_name(text: str) -> str:
    """argparse ``type`` for a variant name: an unknown one is a usage
    error (``error: ...``, exit status 2), not a traceback."""
    try:
        get_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OA framework — automatic BLAS3 library generation "
        "(IPPS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("routines", help="list the 24 BLAS3 variants")
    sub.add_parser("adaptors", help="print the built-in ADL adaptors")

    for name, help_text in (
        ("generate", "tune one routine and print its winning script"),
        ("compare", "OA vs CUBLAS 3.2 / MAGMA v0.2 for one routine"),
        ("cuda", "emit the generated CUDA source"),
        ("candidates", "show the composer's candidate scripts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "routine", type=_routine_name, help="variant name, e.g. SYMM-LL or TRSM-LL-N"
        )
        _add_common(p)
        if name != "candidates":
            _add_tuning(p)

    p = sub.add_parser(
        "stats", help="print per-stage stats from a --trace-json document"
    )
    p.add_argument("trace", help="path to a trace JSON written by --trace-json")

    p = sub.add_parser(
        "train-model",
        help="fit the ranking cost model from a cache dir's score corpus",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="tuning cache directory holding the score corpus "
        "(default: $REPRO_CACHE_DIR)",
    )
    p.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="where to save the model (default: <cache-dir>/predictor-model.json)",
    )
    p.add_argument(
        "--l2",
        type=float,
        default=1.0,
        metavar="LAMBDA",
        help="ridge regularisation strength (default: 1.0)",
    )
    p.add_argument(
        "-k",
        type=int,
        default=8,
        metavar="K",
        help="k for the held-out hit@k report (default: 8)",
    )

    p = sub.add_parser(
        "serve",
        help="run a synthetic request stream through the serving runtime",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=32,
        metavar="R",
        help="number of calls to serve (default: 32)",
    )
    p.add_argument(
        "--routines",
        nargs="+",
        type=_routine_name,
        default=["GEMM-NN", "SYMM-LL"],
        metavar="NAME",
        help="variants the stream cycles through (default: GEMM-NN SYMM-LL)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="D",
        help="per-request deadline budget in ms (default: none)",
    )
    p.add_argument(
        "--devices",
        type=int,
        default=1,
        metavar="K",
        help="simulated devices behind the service (default: 1)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=8,
        metavar="B",
        help="largest coalesced launch (default: 8)",
    )
    p.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        metavar="W",
        help="micro-batch window in ms (default: 2)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="S",
        help="dispatcher shards behind the consistent-hash ingress (default: 1)",
    )
    p.add_argument(
        "--high-water",
        type=int,
        default=None,
        metavar="Q",
        help="per-shard queue depth at which new requests are shed "
        "(default: admit everything)",
    )
    p.add_argument(
        "--pack",
        action="store_true",
        help="coalesce small same-routine GEMM calls into strided-batched "
        "(BGEMM) launches",
    )
    p.add_argument(
        "--min-bucket",
        type=int,
        default=None,
        metavar="N",
        help="smallest dispatch bucket; below 16 dedicated small-tile "
        "plans are tuned (default: 16)",
    )
    p.add_argument(
        "--fuse",
        action="store_true",
        help="mix GEMM->TRSM expression-DAG requests into the stream and "
        "let the chain tuner fuse adjacent nodes where profitable",
    )
    p.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    _add_common(p)
    _add_tuning(p)

    p = sub.add_parser(
        "library", help="tune all variants and save the library as JSON"
    )
    p.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="output path (default: oa-<arch>.json)",
    )
    p.add_argument(
        "--routines",
        nargs="+",
        type=_routine_name,
        default=None,
        metavar="NAME",
        help="subset of variants to tune (default: all 24)",
    )
    _add_common(p)
    _add_tuning(p)
    return parser


def _cmd_routines() -> int:
    rows = []
    for v in ALL_VARIANTS:
        spec = get_spec(v.name)
        adaptors = ", ".join(f"{a}({o})" for a, o in spec.adaptations) or "-"
        rows.append((v.name, v.family, adaptors))
    print(ascii_table(["variant", "family", "adaptors"], rows))
    return 0


def _cmd_adaptors() -> int:
    for adaptor in BUILTIN_ADAPTORS.values():
        print(adaptor.render())
        print()
    return 0


def _cmd_generate(args) -> int:
    oa = _make_oa(args)
    tuned = oa.generate(args.routine)
    print(f"// {tuned.name} on {oa.arch.name}")
    print(f"// tuned parameters: {tuned.config}")
    print(f"// modeled: {tuned.gflops(args.n):.0f} GFLOPS at N={args.n}")
    if tuned.conditions:
        conds = ", ".join(str(c) for c in tuned.conditions)
        print(f"// conditioned on {conds} (runtime check_blank_zero dispatch)")
    print(tuned.render_script())
    _finish_trace(oa, args)
    return 0


def _vs_oa(oa_g: float, base_g: float) -> str:
    """Label a baseline's speed relative to OA's.

    ``oa/base > 1`` means the baseline is that many times *slower* than
    OA; below 1 the baseline is *faster*.  A baseline modeling 0 GFLOPS
    (unsupported / degenerate case) renders as "-" instead of dividing.
    """
    if not base_g or base_g <= 0 or not oa_g or oa_g <= 0:
        return "-"
    ratio = oa_g / base_g
    if ratio >= 1.0:
        return f"{ratio:.2f}x slower"
    return f"{base_g / oa_g:.2f}x faster"


def _cmd_compare(args) -> int:
    arch = PLATFORMS[args.arch]
    oa = _make_oa(args)
    oa_g = oa.gflops(args.routine, args.n)
    cu_g = cublas_gflops(args.routine, arch, args.n)
    rows = [
        ("OA (this work)", f"{oa_g:.0f}", "1.00x"),
        ("CUBLAS 3.2", f"{cu_g:.0f}", _vs_oa(oa_g, cu_g)),
    ]
    if magma_supports(args.routine, arch):
        ma_g = magma_gflops(args.routine, arch, args.n)
        rows.append(("MAGMA v0.2", f"{ma_g:.0f}", _vs_oa(oa_g, ma_g)))
    print(
        ascii_table(
            ["library", "GFLOPS", "vs OA"],
            rows,
            title=f"{args.routine} on {arch.name}, N={args.n}",
        )
    )
    _finish_trace(oa, args)
    return 0


def _cmd_cuda(args) -> int:
    oa = _make_oa(args)
    print(oa.cuda(args.routine))
    _finish_trace(oa, args)
    return 0


def _cmd_library(args) -> int:
    from .tuner.persist import save_library

    oa = _make_oa(args)
    lib = oa.library(args.routines)
    rows = [
        (name, str(tuned.config), f"{tuned.tuned_gflops:.0f}")
        for name, tuned in lib.routines.items()
    ]
    print(
        ascii_table(
            ["variant", "tuned parameters", "GFLOPS"],
            rows,
            title=f"tuned library for {oa.arch.name}",
        )
    )
    output = args.output or f"oa-{args.arch}.json"
    save_library(lib, output)
    print(f"saved {len(lib.routines)} routines to {output}")
    _finish_trace(oa, args)
    return 0


def _cmd_serve(args) -> int:
    from statistics import mean, quantiles

    from .blas3.reference import random_inputs
    from .serve import ServeOptions, ShardedBlasService
    from .telemetry import Telemetry

    # The stats footer always needs live counters, trace flag or not.
    telemetry = Telemetry()
    # every serve flag round-trips through the one argparse adapter
    serve_options = ServeOptions.from_args(args)
    routines = [get_spec(r).name for r in args.routines]
    workload = {
        r: random_inputs(r, get_spec(r).make_sizes(args.n), seed=args.seed)
        for r in routines
    }
    stream = list(routines)
    chain_label = None
    chain_dag = None
    if args.fuse:
        from .dag import Dag, chain

        chain_label = "GEMM-NN->TRSM-LL-N"
        chain_dag = Dag(
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}),
                ("TRSM-LL-N", {"A": "L"}),
            )
        )
        gemm_in = random_inputs(
            "GEMM-NN", get_spec("GEMM-NN").make_sizes(args.n), seed=args.seed
        )
        trsm_in = random_inputs(
            "TRSM-LL-N",
            get_spec("TRSM-LL-N").make_sizes(args.n),
            seed=args.seed + 1,
        )
        workload[chain_label] = {
            "A": gemm_in["A"], "B": gemm_in["B"], "L": trsm_in["A"],
        }
        stream.append(chain_label)
    latencies = {r: [] for r in stream}
    sources = {
        r: {"tuned": 0, "fallback": 0, "shed": 0, "error": 0} for r in stream
    }
    with ShardedBlasService(
        PLATFORMS[args.arch],
        args.shards,
        options=serve_options,
        tuning=_tuning_options(args),
        telemetry=telemetry,
    ) as service:
        pendings = []
        for i in range(args.requests):
            routine = stream[i % len(stream)]
            if routine == chain_label:
                pending = service.submit_dag(chain_dag, **workload[routine])
            else:
                pending = service.submit(routine, **workload[routine])
            pendings.append((routine, pending))
        for routine, pending in pendings:
            response = pending.response()
            sources[routine][response.source] += 1
            if response.ok:
                latencies[routine].append(response.total_s)

    rows = []
    for routine in stream:
        lat = sorted(latencies[routine])
        p95 = quantiles(lat, n=20)[-1] if len(lat) >= 2 else lat[-1] if lat else 0.0
        rows.append(
            (
                routine,
                str(len(lat)),
                str(sources[routine]["tuned"]),
                str(sources[routine]["fallback"]),
                str(sources[routine]["shed"]),
                f"{mean(lat) * 1e3:.1f}" if lat else "-",
                f"{p95 * 1e3:.1f}" if lat else "-",
            )
        )
    print(
        ascii_table(
            ["routine", "served", "tuned", "fallback", "shed", "mean ms", "p95 ms"],
            rows,
            title=f"served {args.requests} requests on {PLATFORMS[args.arch].name}, "
            f"N={args.n}, {args.shards} shard(s), {args.devices} device(s)",
        )
    )
    counters = telemetry.metrics.snapshot()
    launches = counters.get("serve.launches", 0)
    batched = counters.get("serve.batched_requests", 0)
    print(
        f"launches {launches}  "
        f"mean batch {batched / launches if launches else 0:.2f}  "
        f"plan hits {counters.get('serve.plan.hit', 0)}  "
        f"misses {counters.get('serve.plan.miss', 0)}  "
        f"fallbacks {counters.get('serve.fallbacks', 0)}  "
        f"shed {counters.get('serve.shed', 0)}  "
        f"peak queue {counters.get('serve.queue.peak_depth', 0)}"
    )
    if args.fuse:
        print(
            f"dag requests {counters.get('serve.dag.requests', 0)}  "
            f"fused {counters.get('serve.dag.fused', 0)}  "
            f"unfused {counters.get('serve.dag.unfused', 0)}  "
            f"fusible edges {counters.get('fusion.legal_edges', 0)}  "
            f"declined {counters.get('fusion.declined', 0)}"
        )
    path = getattr(args, "trace_json", None)
    if path and telemetry.enabled:
        telemetry.write_json(path)
        print(f"// trace written to {path}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    import json

    from .telemetry import stage_table

    try:
        document = json.loads(open(args.trace).read())
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    print(stage_table(document))
    return 0


def _cmd_train_model(args) -> int:
    from .tuner.cache import TuningCache
    from .tuner.predictor import MODEL_FILENAME, score_docs, train_model

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print(
            "train-model needs --cache-dir (or $REPRO_CACHE_DIR): "
            "the score corpus lives in the tuning cache directory",
            file=sys.stderr,
        )
        return 1
    docs = score_docs(TuningCache(cache_dir))
    if not docs:
        print(
            f"no score documents in {cache_dir} — run `repro generate`/"
            "`repro library` with --cache-dir first to build the corpus",
            file=sys.stderr,
        )
        return 1
    report = train_model(docs, l2=args.l2, k=args.k)
    output = args.output or os.path.join(cache_dir, MODEL_FILENAME)
    report.model.save(output)
    rows = [
        (routine, arch_name, "yes" if hit else "no")
        for routine, arch_name, hit in report.per_doc
    ]
    print(
        ascii_table(
            ["routine", "arch", f"hit@{args.k}"],
            rows,
            title=f"leave-one-out ranking quality ({report.docs} documents)",
        )
    )
    hits = ", ".join(f"hit@{k} {v:.0%}" for k, v in sorted(report.hit_at_k.items()))
    print(f"trained on {report.rows} rows  r2 {report.r2:.3f}  {hits}")
    print(f"model saved to {output}")
    return 0


def _cmd_candidates(args) -> int:
    oa = OAFramework(PLATFORMS[args.arch])
    for candidate in oa.candidates(args.routine):
        print(candidate.render())
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "routines":
        return _cmd_routines()
    if args.command == "adaptors":
        return _cmd_adaptors()
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "cuda":
        return _cmd_cuda(args)
    if args.command == "candidates":
        return _cmd_candidates(args)
    if args.command == "library":
        return _cmd_library(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "train-model":
        return _cmd_train_model(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
