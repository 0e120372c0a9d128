"""Auto-tuning: parameter space, variant search, library generation,
persistent result caching."""

from .cache import TuningCache, arch_fingerprint, space_fingerprint
from .chain import ChainPlan, ChainSegment, build_chain_plan
from .library import GeneratedLibrary, LibraryGenerator, TunedRoutine
from .options import TuningOptions, resolve_options
from .persist import FORMAT_VERSION, load_library, save_library
from .predictor import RankingModel, TrainingReport, score_docs, train_model
from .search import (
    CURATED_SPACE,
    CandidateScore,
    RankResult,
    SearchResult,
    VariantSearch,
    rank,
    rank_key,
    resolve_jobs,
)
from .space import Config, DEFAULT_SPACE, default_space, prune_space

__all__ = [
    "CURATED_SPACE",
    "CandidateScore",
    "ChainPlan",
    "ChainSegment",
    "Config",
    "DEFAULT_SPACE",
    "FORMAT_VERSION",
    "GeneratedLibrary",
    "LibraryGenerator",
    "RankResult",
    "RankingModel",
    "SearchResult",
    "TrainingReport",
    "TunedRoutine",
    "TuningCache",
    "TuningOptions",
    "VariantSearch",
    "resolve_options",
    "arch_fingerprint",
    "build_chain_plan",
    "load_library",
    "save_library",
    "default_space",
    "prune_space",
    "rank",
    "rank_key",
    "resolve_jobs",
    "score_docs",
    "space_fingerprint",
    "train_model",
]
