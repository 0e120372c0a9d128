"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import _vs_oa, main


class TestCli:
    def test_routines(self, capsys):
        assert main(["routines"]) == 0
        out = capsys.readouterr().out
        assert "TRSM-LL-N" in out and "Adaptor_Solver(A)" in out

    def test_adaptors(self, capsys):
        assert main(["adaptors"]) == 0
        out = capsys.readouterr().out
        assert "adaptor Adaptor_Symmetry(X):" in out
        assert "cond(blank(X).zero = true)" in out

    def test_candidates(self, capsys):
        assert main(["candidates", "GEMM-TN", "--arch", "gtx285"]) == 0
        out = capsys.readouterr().out
        assert "GM_map(A, Transpose);" in out

    def test_generate(self, capsys):
        assert main(["generate", "GEMM-NN", "--arch", "gtx285", "-n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "thread_grouping" in out and "GFLOPS" in out

    def test_compare(self, capsys):
        assert main(["compare", "GEMM-NN", "--arch", "gtx285"]) == 0
        out = capsys.readouterr().out
        assert "CUBLAS 3.2" in out and "MAGMA v0.2" in out

    def test_cuda(self, capsys):
        assert main(["cuda", "GEMM-NN", "--arch", "fermi"]) == 0
        assert "__global__" in capsys.readouterr().out

    def test_bad_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_arch(self):
        with pytest.raises(SystemExit):
            main(["generate", "GEMM-NN", "--arch", "voodoo3"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "GEMM-XX"], "bad GEMM variant 'GEMM-XX'"),
            (["compare", "SYMM-QQ"], "bad SYMM variant 'SYMM-QQ'"),
            (["cuda", "TRSM-LL"], "bad TRSM variant 'TRSM-LL'"),
            (["candidates", "FOO-NN"], "unknown BLAS3 family 'FOO'"),
            (["serve", "--routines", "GEMM-NN", "GEMM-XX"], "bad GEMM variant"),
            (["library", "--routines", "BGEMM-Q"], "bad BGEMM variant"),
        ],
    )
    def test_unknown_routine_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and message in err

    def test_generate_with_tuning_flags(self, capsys, tmp_path):
        assert (
            main(
                [
                    "generate",
                    "GEMM-NN",
                    "--jobs",
                    "1",
                    "--cache-dir",
                    str(tmp_path),
                    "-n",
                    "1024",
                ]
            )
            == 0
        )
        assert "GFLOPS" in capsys.readouterr().out
        assert list(tmp_path.glob("routine-*.json"))  # cache populated
        assert list(tmp_path.glob("scores-*.json"))  # corpus recorded

    def test_topk_flag_reaches_tuning_options(self, monkeypatch):
        from repro import cli

        seen = {}

        class _Probe:
            def __init__(self, arch, telemetry=None, options=None):
                seen["topk"] = options.topk
                raise SystemExit(0)

        monkeypatch.setattr(cli, "OAFramework", _Probe)
        with pytest.raises(SystemExit):
            main(["generate", "GEMM-NN", "--topk", "4"])
        assert seen["topk"] == 4

    def test_no_cache_flag_suppresses_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["generate", "GEMM-NN", "--no-cache", "-n", "512"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_library_subcommand(self, capsys, tmp_path):
        out = tmp_path / "lib.json"
        assert (
            main(
                [
                    "library",
                    "--routines",
                    "GEMM-NN",
                    "-o",
                    str(out),
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "saved 1 routines" in text
        from repro.tuner import load_library

        assert load_library(out).names() == ["GEMM-NN"]


class TestServeCli:
    def test_serve_stream(self, capsys, tmp_path):
        assert (
            main(
                [
                    "serve",
                    "--routines",
                    "GEMM-NN",
                    "--requests",
                    "6",
                    "-n",
                    "32",
                    "--max-batch",
                    "4",
                    "--jobs",
                    "1",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "served 6 requests" in out
        assert "GEMM-NN" in out and "mean ms" in out
        assert "launches" in out and "plan hits" in out
        assert list(tmp_path.glob("routine-*.json"))  # tuned through the cache

    def test_serve_deadline_forces_fallback(self, capsys, tmp_path):
        # A tight deadline with a cold cache: every request degrades to
        # the baseline instead of waiting for a tuning search.
        assert (
            main(
                [
                    "serve",
                    "--routines",
                    "SYMM-LL",
                    "--requests",
                    "4",
                    "-n",
                    "32",
                    "--deadline-ms",
                    "0.001",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fallbacks 4" in out

    def test_serve_sharded_with_shedding(self, capsys, tmp_path):
        assert (
            main(
                [
                    "serve",
                    "--routines",
                    "GEMM-NN",
                    "--requests",
                    "8",
                    "-n",
                    "32",
                    "--shards",
                    "2",
                    "--high-water",
                    "2",
                    "--window-ms",
                    "300",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 shard(s)" in out
        # high-water 2 while the dispatcher holds the 300 ms batch
        # window: 2 admitted, the rest rejected at the door
        assert "shed 6" in out

    def test_serve_pack_coalesces_one_launch(self, capsys, tmp_path):
        # eight small GEMM calls pad into one strided-batched launch
        assert (
            main(
                [
                    "serve",
                    "--routines",
                    "GEMM-NN",
                    "--requests",
                    "8",
                    "-n",
                    "12",
                    "--pack",
                    "--min-bucket",
                    "4",
                    "--jobs",
                    "1",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "served 8 requests" in out
        assert "launches 1  mean batch 8.00" in out

    def test_serve_fuse_mixes_dag_requests(self, capsys, tmp_path):
        assert (
            main(
                [
                    "serve",
                    "--routines",
                    "GEMM-NN",
                    "--requests",
                    "4",
                    "-n",
                    "32",
                    "--fuse",
                    "--jobs",
                    "1",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "GEMM-NN->TRSM-LL-N" in out
        assert "dag requests 2" in out
        assert "fusible edges" in out

    def test_serve_writes_trace_json(self, capsys, tmp_path):
        trace = tmp_path / "serve-trace.json"
        assert (
            main(
                [
                    "serve",
                    "--routines",
                    "GEMM-NN",
                    "--requests",
                    "2",
                    "-n",
                    "32",
                    "--deadline-ms",
                    "0.001",
                    "--trace-json",
                    str(trace),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(trace.read_text())
        assert any(s["name"] == "serve.launch" for s in doc["spans"])
        assert doc["counters"]["serve.requests"] == 2


class TestTraceCli:
    def test_generate_writes_trace_json(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "generate",
                    "GEMM-NN",
                    "--jobs",
                    "1",
                    "--no-cache",
                    "-n",
                    "1024",
                    "--trace-json",
                    str(trace),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert str(trace) in err  # stderr notes where the trace went
        doc = json.loads(trace.read_text())
        assert doc["format"] == 1
        names = [s["name"] for s in doc["spans"]]
        assert "generate" in names
        assert doc["counters"]["search.units"] > 0

    def test_stats_renders_stage_table(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        main(
            [
                "generate",
                "GEMM-NN",
                "--jobs",
                "1",
                "--no-cache",
                "-n",
                "1024",
                "--trace-json",
                str(trace),
            ]
        )
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "pipeline stages" in out
        assert "search" in out and "verify" in out
        assert "search.units" in out  # counter glossary section

    def test_stats_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_stats_bad_json_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 1
        assert capsys.readouterr().err

    def test_no_trace_flag_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "GEMM-NN", "--no-cache", "-n", "512"]) == 0
        assert not list(tmp_path.glob("*.json"))


class TestCompareRatios:
    """Regression: compare divided by a 0-GFLOPS baseline and labeled
    faster baselines as "slower"."""

    def test_zero_baseline_renders_dash(self):
        assert _vs_oa(100.0, 0.0) == "-"
        assert _vs_oa(0.0, 100.0) == "-"

    def test_slower_baseline(self):
        assert _vs_oa(200.0, 100.0) == "2.00x slower"

    def test_faster_baseline(self):
        assert _vs_oa(100.0, 200.0) == "2.00x faster"

    def test_compare_survives_zero_magma(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "magma_gflops", lambda *a, **k: 0.0)
        assert main(["compare", "GEMM-NN", "--arch", "gtx285", "-n", "512"]) == 0
        out = capsys.readouterr().out
        assert "MAGMA v0.2" in out and "inf" not in out

    def test_compare_labels_faster_baseline(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "cublas_gflops", lambda *a, **k: 1e6)
        assert main(["compare", "GEMM-NN", "--arch", "gtx285", "-n", "512"]) == 0
        assert "x faster" in capsys.readouterr().out


class TestTrainModelCli:
    def _build_corpus(self, cache_dir):
        from repro.gpu import GTX_285
        from repro.tuner import TuningCache

        space = [
            {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},
            {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
            {"BM": 64, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
        ]
        cache = TuningCache(cache_dir)
        for i, routine in enumerate(("GEMM-NN", "SYMM-LL")):
            cache.store_scores(
                f"{i:024d}",
                routine,
                routine.split("-")[0],
                GTX_285,
                4096,
                [
                    {
                        "config": dict(cfg),
                        "gflops": float(cfg["BM"] * cfg["KT"]),
                        "ok": True,
                        "error": "",
                        "occupancy": 0.5,
                        "provenance": "seq:0",
                    }
                    for cfg in space
                ],
            )

    def test_train_model_fits_and_saves(self, capsys, tmp_path):
        from repro.tuner import RankingModel

        self._build_corpus(tmp_path)
        assert main(["train-model", "--cache-dir", str(tmp_path), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "hit@2" in out and "model saved" in out
        assert RankingModel.try_load(tmp_path) is not None

    def test_train_model_without_cache_dir_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["train-model"]) == 1
        assert "--cache-dir" in capsys.readouterr().err

    def test_train_model_empty_corpus_fails(self, capsys, tmp_path):
        assert main(["train-model", "--cache-dir", str(tmp_path)]) == 1
        assert "no score documents" in capsys.readouterr().err
