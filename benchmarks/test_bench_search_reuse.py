"""Benchmark: the variant search's step memo and kernel reuse change nothing.

Per config, the search walks the candidate scripts in script-key order
through one EPOD translator, whose step memo applies each transform
step (input computation, component, arguments) once however many
scripts reach it, and it profiles each distinct label-free kernel key
once.  This benchmark builds all 28 routines (the
paper's 24 plus BGEMM) at ``jobs=1`` on the GTX 285 and checks the reuse
against the plain per-unit evaluation:

* every ok score equals a fresh translator's translation of its script,
  profiled on its own: gflops, error, ``applied_key`` and occupancy;
* every winner (and fallback) kernel equals a fresh translation's,
  compared label-free: the structural fingerprint and the printed IR
  with synthesised label counters renamed by first appearance.

It records the search's transform applications, analytic profiles,
reused kernels, ``Computation.clone`` calls (a transform clones its
input only once it knows it applies) and wall time in
``BENCH_search_reuse.json``, and its count fields must equal
``golden/search_reuse_counts.json`` exactly: a change that moves one on
purpose copies the new counts from the record there and explains them.
"""

import json
import re
import time
from pathlib import Path

from repro.blas3 import build_routine
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.epod import EpodTranslator
from repro.gpu import GTX_285
from repro.gpu.simulator import SimulatedGPU
from repro.ir import Computation
from repro.ir.fingerprint import computation_fingerprint
from repro.ir.printer import print_computation
from repro.telemetry import Telemetry
from repro.transforms.registry import REGISTRY
from repro.tuner import LibraryGenerator, TuningOptions, VariantSearch

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_search_reuse.json"
GOLDEN_COUNTS = Path(__file__).parent / "golden" / "search_reuse_counts.json"
ROUTINES = [v.name for v in ALL_VARIANTS] + [v.name for v in BATCHED_VARIANTS]
_COUNTER = re.compile(r"_(\d+)")


def label_free(comp):
    """Fingerprint and printed IR with label counters renumbered."""
    ordinals = {}
    printed = _COUNTER.sub(
        lambda m: "_#%d" % ordinals.setdefault(m.group(1), len(ordinals)),
        print_computation(comp),
    )
    return computation_fingerprint(comp), printed


def fresh_outcome(gpu, source, score, sizes, nominal):
    """``(gflops, error, applied_key, occupancy)`` of one unit, translated
    by its own translator and profiled on its own."""
    result = EpodTranslator(dict(score.config)).translate(
        source, score.script.script, mode="filter"
    )
    run = gpu.profile(result.comp, sizes, nominal_flops=nominal)
    if not run.feasible:
        return 0.0, "infeasible occupancy", (), 0.0
    occupancy = min((k.occupancy.occupancy for k in run.timing.kernels), default=0.0)
    return run.gflops, "", result.applied_key, occupancy


def counting(monkeypatch, tally):
    """Count transform applications, profiles and computation clones made
    inside a search."""
    inside = [False]

    def in_search(fn):
        def wrapper(*args, **kwargs):
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False

        return wrapper

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            tally[name] += inside[0]
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(VariantSearch, "search", in_search(VariantSearch.search))
    monkeypatch.setattr(SimulatedGPU, "profile", counted(SimulatedGPU.profile, "profiles"))
    monkeypatch.setattr(Computation, "clone", counted(Computation.clone, "computation_clones"))
    for cls in {type(t) for t in REGISTRY.values()}:
        monkeypatch.setattr(cls, "apply", counted(cls.apply, "transform_applications"))


def test_bench_search_reuse(monkeypatch):
    telemetry = Telemetry()
    gen = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1), telemetry=telemetry)
    tally = {"transform_applications": 0, "profiles": 0, "computation_clones": 0}
    with monkeypatch.context() as patch:
        counting(patch, tally)
        t0 = time.perf_counter()
        tuned = {name: gen.generate(name, keep_all_scores=True) for name in ROUTINES}
        generate_s = time.perf_counter() - t0
    search_s = sum(span.duration_s for span in telemetry.find("search"))

    gpu = SimulatedGPU(GTX_285)
    checked = 0
    for name, routine in tuned.items():
        spec = routine.spec
        source = build_routine(name)
        sizes = spec.make_sizes(gen.tune_size)
        nominal = spec.nominal_flops(sizes)
        for score in routine.search.scores:
            if not score.ok:
                continue
            got = (score.gflops, score.error, score.applied_key, score.occupancy)
            assert got == fresh_outcome(gpu, source, score, sizes, nominal), (
                name, score.config, score.script.provenance
            )
            checked += 1
        for variant in (routine, routine.fallback):
            if variant is None:
                continue
            again = EpodTranslator(dict(variant.config)).translate(
                source, variant.script.script, mode="filter"
            )
            assert again.applied_key == variant.applied_key, name
            assert label_free(again.comp) == label_free(variant.comp), name

    units = telemetry.count("search.units")
    reused = telemetry.count("search.kernels_reused")
    record = {
        "arch": "GTX 285",
        "space": "curated",
        "jobs": 1,
        "routines": len(tuned),
        "clock": "host wall-clock; counts are exact",
        "search_units": units,
        "kernels_reused": reused,
        "ok_scores_checked": checked,
        "profiles": tally["profiles"],
        "transform_applications": tally["transform_applications"],
        "computation_clones": tally["computation_clones"],
        "translate_components_omitted": telemetry.count("translate.components_omitted"),
        "search_s": search_s,
        "generate_s": generate_s,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=1))
    emit(
        f"search reuse, {len(tuned)} routines, GTX 285, curated space, jobs=1\n"
        f"units {units}   kernels reused {reused}   profiles {tally['profiles']}   "
        f"transform applications {tally['transform_applications']}   "
        f"clones {tally['computation_clones']}\n"
        f"search {search_s:.1f} s   generate {generate_s:.1f} s   "
        f"ok scores checked {checked}"
    )
    golden = json.loads(GOLDEN_COUNTS.read_text())
    assert {name: record[name] for name in golden} == golden
    assert tally["profiles"] == units - reused
    assert checked > 0
