"""End-to-end: the trace document reflects what the pipeline really did.

The acceptance bar for the telemetry layer: a cold ``generate`` emits a
span tree covering compose → search → verify plus cache probes, and a
warm run is distinguishable *from the trace alone* (routine-cache hit
counters nonzero, search spans absent).
"""


from repro.gpu import GTX_285
from repro.telemetry import Telemetry
from repro.tuner import LibraryGenerator, TuningOptions

SMALL_SPACE = [
    {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
]


def generate_with_trace(cache_dir, jobs=1):
    telemetry = Telemetry()
    gen = LibraryGenerator(
        GTX_285,
        options=TuningOptions(space=SMALL_SPACE, cache_dir=cache_dir, jobs=jobs),
        telemetry=telemetry,
    )
    gen.generate("GEMM-NN")
    return telemetry


class TestColdTrace:
    def test_span_tree_covers_the_pipeline(self, tmp_path):
        t = generate_with_trace(tmp_path)
        (gen_span,) = t.find("generate")
        child_names = [c.name for c in gen_span.children]
        assert "cache.probe" in child_names
        assert "compose" in child_names
        assert "search" in child_names
        assert "verify" in child_names

    def test_search_span_counts_units(self, tmp_path):
        t = generate_with_trace(tmp_path)
        (search,) = t.find("search")
        assert search.tags["units"] == search.tags["candidates"] * len(SMALL_SPACE)
        assert t.count("search.units") == search.tags["units"]
        assert search.tags["best_gflops"] > 0

    def test_batched_search_span_counts_the_expanded_space(self, tmp_path):
        # BGEMM crosses the base space with the BP batch strips, so the
        # span must tag the expanded space or units != candidates x configs.
        from repro.tuner.search import VariantSearch

        telemetry = Telemetry()
        gen = LibraryGenerator(
            GTX_285,
            options=TuningOptions(space=SMALL_SPACE, cache_dir=tmp_path, jobs=1),
            telemetry=telemetry,
        )
        gen.generate("BGEMM-NN")
        (search,) = telemetry.find("search")
        assert search.tags["configs"] == len(SMALL_SPACE) * len(VariantSearch.BATCH_STRIPS)
        assert search.tags["units"] == search.tags["candidates"] * search.tags["configs"]

    def test_happy_path_has_zero_pool_fallbacks(self, tmp_path):
        t = generate_with_trace(tmp_path, jobs=2)
        assert t.count("search.pool_fallbacks") == 0
        assert t.count("search.units") > 0  # merged back from the workers

    def test_verify_outcomes_counted(self, tmp_path):
        t = generate_with_trace(tmp_path)
        assert t.count("verify.pass") >= 1
        assert len(t.find("verify.check")) == t.count("verify.pass") + t.count(
            "verify.fail"
        )


class TestWarmVsCold:
    def test_distinguishable_from_the_trace_alone(self, tmp_path):
        cold = generate_with_trace(tmp_path).document()
        warm = generate_with_trace(tmp_path).document()

        def spans_named(doc, name):
            found = []

            def visit(sp):
                if sp["name"] == name:
                    found.append(sp)
                for c in sp["children"]:
                    visit(c)

            for root in doc["spans"]:
                visit(root)
            return found

        # cold: miss counted, search ran
        assert cold["counters"]["cache.routine.miss"] == 1
        assert cold["counters"].get("cache.routine.hit", 0) == 0
        assert spans_named(cold, "search")
        # warm: hit counted, no search (nor compose/verify) at all
        assert warm["counters"]["cache.routine.hit"] == 1
        assert spans_named(warm, "search") == []
        assert spans_named(warm, "compose") == []
        assert spans_named(warm, "cache.probe")  # probed, and hit

    def test_parallel_and_sequential_traces_count_identically(self, tmp_path):
        seq = generate_with_trace(tmp_path / "a", jobs=1)
        par = generate_with_trace(tmp_path / "b", jobs=2)
        for counter in ("search.units", "search.infeasible", "search.translate_errors"):
            assert seq.count(counter) == par.count(counter)


class TestMultiGPUTrace:
    def test_timing_span_and_counters(self, tmp_path):
        from repro.dist import DistLibrary, single_node

        telemetry = Telemetry()
        gen = LibraryGenerator(
            GTX_285, options=TuningOptions(space=SMALL_SPACE), telemetry=telemetry
        )
        lib = DistLibrary(GTX_285, single_node(2), generator=gen)
        assert lib.telemetry is telemetry  # inherited from the generator
        lib.timing("GEMM-NN", 513)
        (span,) = telemetry.find("dist.timing")
        assert span.tags["devices"] == 2
        assert telemetry.count("dist.timings") == 1
        assert telemetry.count("dist.uneven_splits") == 1
