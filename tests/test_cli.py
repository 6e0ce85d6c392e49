"""Command-line pipeline: every subcommand, determinism, exit codes, config."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from conftest import make_engineered_alignment
from rcaudit.cli import main, read_config
from rcaudit.data import coref_cf_pairs_path, fixture_corpus_path
from rcaudit.errors import InputError
from rcaudit.saliency import SaliencyCache, SaliencyConfig

CORPUS = str(fixture_corpus_path())
CF_PAIRS = str(coref_cf_pairs_path())


def run(*argv) -> int:
    return main(list(argv))


class TestEvaluate:
    def test_position_locked_reader_scores_perfectly(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("evaluate", "--dataset", CORPUS, "--model", "oracle", "--out", str(out))
        assert code == 0
        assert "em=1.0000" in capsys.readouterr().out

        summary = json.loads((out / "summary.json").read_text())
        assert summary["model_id"] == "oracle"
        assert summary["n_instances"] == 20
        assert summary["exact_match"] == 1.0 and summary["f1"] == 1.0
        assert summary["per_skill"]["comparison"]["n"] == 10
        assert summary["per_skill"]["coreference"]["n"] == 10
        assert summary["skipped_records"] == []

        rows = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(rows) == 20
        assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
        assert all(r["exact_match"] is True and r["f1"] == 1.0 for r in rows)

        csv_lines = (out / "summary.csv").read_text().splitlines()
        assert csv_lines[0] == "model,skill,n,exact_match,f1"
        assert csv_lines[1] == "oracle,comparison,10,1.0000,1.0000"
        assert csv_lines[2] == "oracle,coreference,10,1.0000,1.0000"
        assert csv_lines[3] == "oracle,all,20,1.0000,1.0000"

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert run("evaluate", "--dataset", CORPUS, "--model", "toy:7", "--out", str(out)) == 0
            outs.append(out)
        for artifact in ("predictions.jsonl", "summary.json", "summary.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


class TestSaliency:
    def test_ig_alias_and_cache_file(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "saliency", "--dataset", CORPUS, "--model", "toy:7",
            "--method", "ig", "--ig-steps", "4", "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "saliency_summary.json").read_text())
        assert summary["method"] == "integrated_gradients"
        assert summary["ig_steps"] == 4
        assert summary["n_maps"] == 20
        expected_hash = SaliencyConfig(
            method="integrated_gradients", ig_steps=4, summarizer="l2"
        ).config_hash
        assert summary["config_hash"] == expected_hash
        maps = (out / "saliency.jsonl").read_text().splitlines()
        assert len(maps) == 20
        assert all(json.loads(m)["method"] == "integrated_gradients" for m in maps)

    def test_unknown_method_is_an_input_error(self, tmp_path):
        code = run(
            "saliency", "--dataset", CORPUS, "--method", "lime", "--out", str(tmp_path / "x")
        )
        assert code == 2


class TestCfGenerate:
    def test_in_distribution_table(self, tmp_path):
        out = tmp_path / "out"
        assert run("cf-generate", "--dataset", CORPUS, "--out", str(out)) == 0
        pairs = (out / "cf_pairs.jsonl").read_text().splitlines()
        assert len(pairs) == 10
        report = json.loads((out / "cf_report.json").read_text())
        assert report["antonym_table"] == "in_dist"
        assert report["n_pairs"] == 10
        assert len(report["skipped"]) == 10  # the coreference instances
        assert all(reason == "not a comparison instance" for _, reason in report["skipped"])

    def test_ood_table_and_unknown_table(self, tmp_path):
        out = tmp_path / "ood"
        assert run("cf-generate", "--dataset", CORPUS, "--antonyms", "ood", "--out", str(out)) == 0
        report = json.loads((out / "cf_report.json").read_text())
        assert report["n_pairs"] == 10
        docs = [json.loads(l) for l in (out / "cf_pairs.jsonl").read_text().splitlines()]
        assert all(d["distribution_tag"] == "out_of_distribution" for d in docs)
        assert run("cf-generate", "--dataset", CORPUS, "--antonyms", "nope",
                   "--out", str(tmp_path / "y")) == 2


class TestAlign:
    def test_bundled_audit_with_cache_reuse(self, tmp_path):
        out = tmp_path / "out"
        argv = (
            "align", "--dataset", CORPUS, "--model", "toy:7",
            "--cf-file", CF_PAIRS, "--out", str(out),
        )
        assert run(*argv) == 0
        csv_lines = (out / "alignment.csv").read_text().splitlines()
        assert csv_lines[0] == (
            "model,occlusion:comparison_operation,occlusion:coreference_resolution"
        )
        assert csv_lines[1] == "toy:7,0.0,0.0"
        assert (out / "saliency_cache.jsonl").exists()

        doc = json.loads((out / "alignment.json").read_text())
        by_step = {r["reasoning_step"]: r for r in doc["reports"]}
        assert by_step["comparison_operation"]["n_records"] == 2
        assert len(by_step["comparison_operation"]["skipped"]) == 8
        assert by_step["coreference_resolution"]["n_records"] == 10
        assert by_step["coreference_resolution"]["skipped"] == []
        assert doc["cf_generation_skipped"] == []

        before = {
            name: (out / name).read_bytes()
            for name in ("alignment.csv", "alignment_records.jsonl", "alignment.json")
        }
        assert run(*argv) == 0  # second run hits the saliency cache
        for name, payload in before.items():
            assert (out / name).read_bytes() == payload

    def test_warm_run_leaves_the_cache_file_alone(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        argv = ("align", "--dataset", CORPUS, "--model", "toy:7", "--out", str(out))
        assert run(*argv) == 0
        cold = (out / "alignment_records.jsonl").read_bytes()

        def refuse(self, path):
            raise AssertionError("a run that added no map rewrote the cache")

        monkeypatch.setattr(SaliencyCache, "save", refuse)
        assert run(*argv) == 0
        assert (out / "alignment_records.jsonl").read_bytes() == cold

    def test_cache_records_from_older_versions_are_recomputed(self, tmp_path):
        out = tmp_path / "out"
        argv = ("align", "--dataset", CORPUS, "--model", "toy:7", "--out", str(out))
        assert run(*argv) == 0
        cache_path = out / "saliency_cache.jsonl"
        current = cache_path.read_bytes()
        cold = (out / "alignment_records.jsonl").read_bytes()
        docs = [json.loads(line) for line in current.decode().splitlines()]
        for doc in docs:
            del doc["content_hash"]
        cache_path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        assert run(*argv) == 0
        assert cache_path.read_bytes() == current  # recomputed and written again
        assert (out / "alignment_records.jsonl").read_bytes() == cold

    def test_engineered_two_thirds_alignment(self, tmp_path):
        fx = make_engineered_alignment(tmp_path)
        out = tmp_path / "out"
        code = run(
            "align", "--dataset", str(fx["corpus"]), "--model", f"scripted:{fx['script']}",
            "--cf-file", str(fx["pairs"]), "--out", str(out),
        )
        assert code == 0
        assert (out / "alignment.csv").read_text() == (
            "model,occlusion:coreference_resolution\nscripted:engineered,66.7\n"
        )
        doc = json.loads((out / "alignment.json").read_text())
        (report,) = doc["reports"]
        assert report["score"] == pytest.approx(fx["score"])
        assert report["n_records"] == 3 and report["n_aligned"] == 2
        records = {
            json.loads(l)["instance_id"]: json.loads(l)
            for l in (out / "alignment_records.jsonl").read_text().splitlines()
        }
        assert {k: v["aligned"] for k, v in records.items()} == fx["aligned"]
        assert records["a03"]["p"] == 0.5  # flat saliency: both correct, never significant
        assert records["a03"]["cf_both_correct"] is True

    def test_no_pairs_available_is_an_input_error(self, tmp_path):
        fx = make_engineered_alignment(tmp_path)  # coreference-only corpus
        code = run("align", "--dataset", str(fx["corpus"]),
                   "--model", f"scripted:{fx['script']}", "--out", str(tmp_path / "o"))
        assert code == 2


class TestCalibrate:
    def test_synthetic_dataset_runs_deterministically(self, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            code = run(
                "calibrate", "--dataset", "synthetic:12", "--model", "toy:3",
                "--n-partitions", "2", "--seed", "5", "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        doc = json.loads((outs[0] / "calibration.json").read_text())
        assert doc["n_draws"] == 24
        assert doc["n_partitions"] == 2 and doc["seed"] == 5
        assert 0.0 <= doc["ci_low"] <= doc["rate"] <= doc["ci_high"] <= 1.0
        assert (outs[0] / "calibration.json").read_bytes() == (
            outs[1] / "calibration.json"
        ).read_bytes()

    def test_validation_failures(self, tmp_path):
        assert run("calibrate", "--dataset", "synthetic:4", "--n-partitions", "0",
                   "--out", str(tmp_path / "a")) == 2
        assert run("calibrate", "--dataset", "synthetic:oops",
                   "--out", str(tmp_path / "b")) == 2


class TestHeuristic:
    def test_position_strategy_matches_snapshot(self, tmp_path):
        out = tmp_path / "out"
        code = run("heuristic", "--dataset", CORPUS, "--strategy", "position",
                   "--out", str(out))
        assert code == 0
        summary = json.loads((out / "heuristic_summary.json").read_text())
        assert summary["strategy"] == "position"
        assert summary["exact_match"] == 0.85
        rows = (out / "heuristic_predictions.jsonl").read_text().splitlines()
        assert len(rows) == 20

    def test_unknown_strategy(self, tmp_path):
        assert run("heuristic", "--dataset", CORPUS, "--strategy", "psychic",
                   "--out", str(tmp_path / "x")) == 2


class TestConfigFile:
    def test_defaults_load_and_flags_override(self, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(
            "# saliency settings\n"
            "model = toy:9\n"
            "method = ig\n"
            "ig-steps = 8\n"
            "summarizer = dot\n"
        )
        out = tmp_path / "from-config"
        assert run("saliency", "--config", str(cfg), "--dataset", CORPUS,
                   "--out", str(out)) == 0
        summary = json.loads((out / "saliency_summary.json").read_text())
        assert summary["model_id"] == "toy:9"
        assert summary["method"] == "integrated_gradients"
        assert summary["ig_steps"] == 8
        assert summary["summarizer"] == "dot"

        out2 = tmp_path / "overridden"
        assert run("saliency", "--config", str(cfg), "--dataset", CORPUS,
                   "--model", "toy:2", "--method", "occlusion", "--out", str(out2)) == 0
        summary = json.loads((out2 / "saliency_summary.json").read_text())
        assert summary["model_id"] == "toy:2"
        assert summary["method"] == "occlusion"

    def test_read_config_parses_types_and_comments(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("seed = 11  # reproducibility\nalpha = 0.1\ncontext-mode = supporting_facts\n")
        assert read_config(cfg) == {
            "seed": 11,
            "alpha": 0.1,
            "context_mode": "supporting_facts",
        }

    def test_config_failures(self, tmp_path):
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("volume = 11\n")
        assert run("evaluate", "--config", str(unknown), "--dataset", CORPUS,
                   "--out", str(tmp_path / "a")) == 2

        bad_int = tmp_path / "bad.cfg"
        bad_int.write_text("ig_steps = soon\n")
        assert run("evaluate", "--config", str(bad_int), "--dataset", CORPUS,
                   "--out", str(tmp_path / "b")) == 2

        assert run("evaluate", "--config", str(tmp_path / "missing.cfg"),
                   "--dataset", CORPUS, "--out", str(tmp_path / "c")) == 2
        with pytest.raises(InputError, match="name = value"):
            read_config_file_with_garbage(tmp_path)


def read_config_file_with_garbage(tmp_path):
    garbled = tmp_path / "garbled.cfg"
    garbled.write_text("just some words\n")
    return read_config(garbled)


class TestExitCodes:
    def test_missing_and_bad_inputs_exit_2(self, tmp_path):
        assert run("evaluate", "--out", str(tmp_path / "a")) == 2  # no --dataset
        assert run("evaluate", "--dataset", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "b")) == 2
        assert run("evaluate", "--dataset", CORPUS, "--format", "csv",
                   "--out", str(tmp_path / "c")) == 2
        assert run("evaluate", "--dataset", CORPUS, "--model", "quantum:9",
                   "--out", str(tmp_path / "d")) == 2

    def test_missing_capability_exits_3(self, tmp_path):
        fx = make_engineered_alignment(tmp_path)
        code = run(
            "saliency", "--dataset", str(fx["corpus"]),
            "--model", f"scripted:{fx['script']}", "--method", "ig",
            "--out", str(tmp_path / "out"),
        )
        assert code == 3  # scripted models expose no embeddings


def declared_console_script(name: str) -> EntryPoint:
    """The `name` entry of `[project.scripts]` in this checkout's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][name]
    return EntryPoint(name=name, value=value, group="console_scripts")


class TestConsoleEntryPoint:
    EVALUATE = ("evaluate", "--dataset", CORPUS, "--model", "oracle")

    def run_module(self, out):
        proc = subprocess.run(
            [sys.executable, "-m", "rcaudit.cli", *self.EVALUATE, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.json").exists()

    def test_module_and_script_invocations(self, tmp_path, monkeypatch):
        out = tmp_path / "module"
        self.run_module(out)

        target = declared_console_script("rcaudit").load()
        assert target is main
        # A console script calls its target with no arguments; it reads sys.argv.
        out2 = tmp_path / "script"
        monkeypatch.setattr(sys, "argv", ["rcaudit", *self.EVALUATE, "--out", str(out2)])
        assert target() == 0
        assert (out2 / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()

    @pytest.mark.skipif(shutil.which("rcaudit") is None,
                        reason="rcaudit console script not installed")
    def test_installed_script_matches_module(self, tmp_path):
        out = tmp_path / "module"
        self.run_module(out)

        out2 = tmp_path / "script"
        proc = subprocess.run(
            [shutil.which("rcaudit"), *self.EVALUATE, "--out", str(out2)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out2 / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
