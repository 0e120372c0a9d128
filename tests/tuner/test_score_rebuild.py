"""Scores rebuild their kernel on demand, exactly as the search saw it.

A :class:`CandidateScore` keeps scalars only; ``score.comp`` re-translates
the score's script at its config.  The rebuilt kernel must be the one the
search profiled (same fingerprint, same modeled GFLOPS and occupancy),
the rebuild must leave telemetry untouched, and a rebuild that
disagrees with the recorded effective script must fail loudly.
"""

import pytest

from repro.blas3.routines import build_routine, get_spec
from repro.epod.translator import EpodTranslator
from repro.gpu import GTX_285
from repro.gpu.simulator import SimulatedGPU
from repro.ir.fingerprint import computation_fingerprint
from repro.telemetry import Telemetry
from repro.tuner import LibraryGenerator, TuningOptions, VariantSearch
from repro.tuner import search as search_mod

SPACE = [
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
]
OPTIONS = TuningOptions(jobs=1, space=SPACE)


def _min_occupancy(run):
    return min((k.occupancy.occupancy for k in run.timing.kernels), default=0.0)


@pytest.fixture(scope="module", params=["SYMM-LL", "TRSM-LL-T"])
def searched(request):
    name = request.param
    telemetry = Telemetry()
    source = build_routine(name)
    candidates = LibraryGenerator(GTX_285, options=OPTIONS).candidates(name)
    result = VariantSearch(GTX_285, telemetry=telemetry, options=OPTIONS).search(
        name, source, candidates, keep_all=True
    )
    return name, source, result, telemetry


def test_scores_hold_no_kernel_until_asked(searched):
    _, source, result, _ = searched
    for score in result.scores:
        assert score._comp is None
        assert score.source is source


def test_rebuilt_kernel_is_the_profiled_kernel(searched):
    name, source, result, telemetry = searched
    spec = get_spec(name)
    sizes = spec.make_sizes(OPTIONS.tune_size)
    gpu = SimulatedGPU(GTX_285)
    before = telemetry.document()
    ok = [s for s in result.scores if s.ok]
    assert ok
    for score in ok:
        fresh = EpodTranslator(dict(score.config)).translate(
            source, score.script.script, mode="filter"
        )
        rebuilt = score.comp
        assert computation_fingerprint(rebuilt) == computation_fingerprint(fresh.comp)
        run = gpu.profile(rebuilt, sizes, nominal_flops=spec.nominal_flops(sizes))
        assert run.gflops == score.gflops
        assert _min_occupancy(run) == score.occupancy
        assert score.comp is rebuilt  # cached on the score
    assert telemetry.document() == before
    for score in result.scores:
        if not score.ok:
            assert score.comp is None
            assert score.occupancy == 0.0


def test_applied_key_mismatch_raises(searched, monkeypatch):
    name, source, result, _ = searched
    score = next(s for s in result.scores if s.ok)
    fresh = search_mod.CandidateScore(
        score.script,
        score.config,
        score.gflops,
        applied_key=score.applied_key,
        occupancy=score.occupancy,
        source=source,
    )

    class DriftingTranslator(EpodTranslator):
        def translate(self, *args, **kwargs):
            result = super().translate(*args, **kwargs)
            result.applied.pop()
            return result

    monkeypatch.setattr(search_mod, "EpodTranslator", DriftingTranslator)
    with pytest.raises(RuntimeError) as err:
        fresh.comp
    message = str(err.value)
    assert name in message
    assert str(score.config) in message
    assert str(score.applied_key) in message
    assert str(score.applied_key[:-1]) in message


def test_stored_occupancy_matches_a_fresh_profile(tmp_path):
    """The predictor's training corpus is unchanged: every stored
    occupancy is the minimum kernel occupancy of a fresh profile."""
    name = "SYMM-LL"
    options = TuningOptions(jobs=1, space=SPACE, cache_dir=tmp_path)
    gen = LibraryGenerator(GTX_285, options=options)
    gen.generate(name)
    doc = gen.disk_cache.load_scores(gen._scores_cache_key(name), name)
    candidates = gen.candidates(name)
    records = doc["scores"]
    assert len(records) == len(candidates) * len(SPACE)

    spec = get_spec(name)
    sizes = spec.make_sizes(options.tune_size)
    source = build_routine(name)
    gpu = SimulatedGPU(GTX_285)
    for i, record in enumerate(records):
        candidate, config = candidates[i // len(SPACE)], SPACE[i % len(SPACE)]
        assert record["config"] == config
        assert record["provenance"] == candidate.provenance
        if not record["ok"]:
            assert record["occupancy"] == 0.0
            continue
        comp = EpodTranslator(dict(config)).translate(
            source, candidate.script, mode="filter"
        ).comp
        run = gpu.profile(comp, sizes, nominal_flops=spec.nominal_flops(sizes))
        assert record["occupancy"] == round(_min_occupancy(run), 4)
        assert record["gflops"] == round(run.gflops, 4)
