"""Command-line pipeline: every subcommand, determinism, exit codes, config."""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcaudit.cli as cli_module
import rcaudit.counterfactuals as cf_module
import rcaudit.metrics as metrics_module
import rcaudit.saliency as saliency_module
from conftest import build_instance, make_engineered_alignment, span_at
from rcaudit.alignment import plan_audit, screen_partition
from rcaudit.cli import main, read_config
from rcaudit.corpus.schema import load_jsonl, save_jsonl
from rcaudit.counterfactuals import (
    ANTONYM_TABLES, AntonymTable, perturb_comparison, plan_antonym_swap,
)
from rcaudit.data import coref_cf_pairs_path, fixture_corpus_path
from rcaudit.errors import InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import ModelGateway, predict
from rcaudit.metrics import exact_match, normalize_answer
from rcaudit.saliency import SaliencyCache, SaliencyConfig
from rcaudit.synthetic import make_synthetic_corpus
from rcaudit.text import find_token_run, make_sentence
from rcaudit.types import AnswerSpan, RCInstance, Token

CORPUS = str(fixture_corpus_path())
CF_PAIRS = str(coref_cf_pairs_path())
# A remote gateway whose server cannot start: building it exits 4.
NO_SERVER = "remote:/no/such/server"

# The flags each command reads: those of every command, and its own.
EVERY_COMMAND = {"dataset", "format", "context_mode", "seed", "out", "config"}
SALIENCY_FLAGS = {"model", "method", "summarizer", "ig_steps"}
READS = {
    "evaluate": EVERY_COMMAND | {"model"},
    "saliency": EVERY_COMMAND | SALIENCY_FLAGS,
    "cf-generate": EVERY_COMMAND | {"antonyms"},
    "align": EVERY_COMMAND | SALIENCY_FLAGS | {"alpha", "antonyms", "cf_file"},
    "calibrate": EVERY_COMMAND | SALIENCY_FLAGS | {"alpha", "n_partitions"},
    "heuristic": EVERY_COMMAND | {"strategy"},
}
# The (command, flag) pairs once taken and ignored, when every command took
# the twelve flags of one shared parser; each now exits 2.
ONCE_COMMON = EVERY_COMMAND | SALIENCY_FLAGS | {"alpha", "antonyms"}
REFUSED = sorted((command, dest) for command in READS for dest in ONCE_COMMON - READS[command])
FLAG_VALUES = {int: "3", float: "0.5", str: "x"}


def run(*argv) -> int:
    return main(list(argv))


def model_flag(command: str, spec: str) -> list[str]:
    """`--model spec`, for a command that reads a model."""
    return ["--model", spec] if "model" in READS[command] else []


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


EMPTY_ENTITY_REASON = "cmp-01: annotation token set is empty"


def corpus_with_an_empty_entity(tmp_path) -> Path:
    """The bundled corpus with cmp-01's first compared entity emptied; it
    still loads, as the annotation sets stay disjoint and in range."""
    docs = [json.loads(line) for line in Path(CORPUS).read_text().splitlines()]
    for doc in docs:
        if doc["id"] == "cmp-01":
            doc["annotations"]["compared_entities"][0] = []
    path = tmp_path / "empty_entity.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return path


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

    def test_empty_compared_entity_is_skipped_with_its_reason(self, tmp_path):
        dataset = corpus_with_an_empty_entity(tmp_path)
        out = tmp_path / "out"
        assert run("cf-generate", "--dataset", str(dataset), "--out", str(out)) == 0
        report = json.loads((out / "cf_report.json").read_text())
        assert report["n_pairs"] == 9
        assert ["cmp-01", EMPTY_ENTITY_REASON] in report["skipped"]


class TestAlign:
    def test_empty_compared_entity_is_skipped_with_its_reason(self, tmp_path):
        dataset = corpus_with_an_empty_entity(tmp_path)
        out = tmp_path / "out"
        assert run("align", "--dataset", str(dataset), "--model", "toy:7", "--out", str(out)) == 0
        doc = json.loads((out / "alignment.json").read_text())
        assert doc["cf_generation_skipped"] == [["cmp-01", EMPTY_ENTITY_REASON]]

    def test_malformed_cf_record_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        docs = [json.loads(l) for l in Path(CF_PAIRS).read_text().splitlines()]
        docs[0]["perturbed_context"].append("Ira Boone sang it again.")  # a sentence must be an object
        pairs.write_text(json.dumps(docs[0]) + "\n")
        code = run("align", "--dataset", CORPUS, "--model", "toy:7",
                   "--cf-file", str(pairs), "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"malformed record for {docs[0]['original_id']!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, reason",
        [("sent", "1" + "0" * 30, "invalid counterfactual pairs: cor-01: cor-01::cf: span sentence"),
         ("tok_start", "10.0", "malformed record for 'cor-01': new_answer tok_start"),
         ("sent", "1" + "0" * 5000, "bad JSON on line 1: Exceeds the limit")],
        ids=["span", "mistyped", "digits"],
    )
    def test_faulty_cf_answer_exits_2(self, tmp_path, capsys, field, value, reason):
        lines = Path(CF_PAIRS).read_text().splitlines()
        doc = json.loads(lines[0])
        doc["new_answer"][field] = "@"
        lines[0] = json.dumps(doc).replace('"@"', value)  # the value as JSON text
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(lines) + "\n")
        code = run("align", "--dataset", CORPUS, "--model", "toy:7",
                   "--cf-file", str(pairs), "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {pairs}: {reason}")

    def test_an_unknown_antonym_table_exits_2_without_comparison_instances(
        self, tmp_path, capsys
    ):
        coreference = [l for l in Path(CORPUS).read_text().splitlines() if '"cor-' in l]
        dataset = tmp_path / "coref.jsonl"
        dataset.write_text("\n".join(coreference) + "\n")
        out = tmp_path / "out"
        code = run("align", "--dataset", str(dataset), "--cf-file", CF_PAIRS, "--antonyms", "bogus",
                   "--model", "toy:7", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown antonym table 'bogus'; choose in_dist or ood\n"
        )
        assert not out.exists()

    def test_cf_file_of_antonym_pairs_exits_2_before_any_gateway(
        self, tmp_path, capsys, monkeypatch
    ):
        # cf-generate's own output holds antonym twins, which align makes
        # from the corpus; a CF file holds only cluster insertions.
        assert run("cf-generate", "--dataset", CORPUS, "--out", str(tmp_path / "cf")) == 0
        pairs = tmp_path / "cf" / "cf_pairs.jsonl"
        first_id = json.loads(pairs.read_text().splitlines()[0])["original_id"]
        capsys.readouterr()

        def refuse(spec):
            raise AssertionError("a gateway was built")

        monkeypatch.setattr(cli_module, "build_gateway", refuse)
        code = run("align", "--dataset", CORPUS, "--model", "toy:7",
                   "--cf-file", str(pairs), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{pairs}: record for {first_id!r} has perturbation 'antonym_swap'" in err

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

    @staticmethod
    def assert_recomputed_without(tmp_path, field):
        """Drop `field` from every cache record, as an older version wrote
        them: the next run recomputes every map and writes the file again."""
        out = tmp_path / "out"
        argv = ("align", "--dataset", CORPUS, "--model", "toy:7", "--out", str(out))
        assert run(*argv) == 0
        cache_path = out / "saliency_cache.jsonl"
        current = cache_path.read_bytes()
        cold = (out / "alignment_records.jsonl").read_bytes()
        docs = [json.loads(line) for line in current.decode().splitlines()]
        for doc in docs:
            del doc[field]
        cache_path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        assert run(*argv) == 0
        assert cache_path.read_bytes() == current  # recomputed and written again
        assert (out / "alignment_records.jsonl").read_bytes() == cold

    def test_cache_records_from_older_versions_are_recomputed(self, tmp_path):
        self.assert_recomputed_without(tmp_path, "content_hash")

    def test_cache_records_without_a_predicted_answer_are_recomputed(self, tmp_path):
        self.assert_recomputed_without(tmp_path, "predicted_answer")

    def test_cache_of_nan_scores_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ("align", "--dataset", CORPUS, "--model", "toy:7", "--out", str(out))
        assert run(*argv) == 0
        cache_path = out / "saliency_cache.jsonl"
        docs = [json.loads(line) for line in cache_path.read_text().splitlines()]
        for doc in docs:
            doc["scores"] = [float("nan")] * len(doc["scores"])
        cache_path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: {cache_path}: bad cache record on line 1: "
            "scores are not all finite numbers\n"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_question", "3", "n_question '3' is not in [0, {n}]"),
            ("n_question", 3.0, "n_question 3.0 is not in [0, {n}]"),
            ("n_question", True, "n_question True is not in [0, {n}]"),
            ("n_question", -1, "n_question -1 is not in [0, {n}]"),
            ("anchor_position", 1000000, "anchor_position 1000000 is not in [0, {n_c})"),
            ("anchor_position", "0", "anchor_position '0' is not in [0, {n_c})"),
            ("scope", "bogus", "scope 'bogus' is not 'all'"),
            ("scope", "context_tokens", "scope 'context_tokens' is not 'all'"),
        ],
    )
    def test_cache_record_of_wrong_type_or_range_exits_2(
        self, tmp_path, capsys, field, value, message
    ):
        out = tmp_path / "out"
        argv = ("align", "--dataset", CORPUS, "--model", "toy:3", "--out", str(out))
        assert run(*argv) == 0
        cache_path = out / "saliency_cache.jsonl"
        first, *rest = cache_path.read_text().splitlines(keepends=True)
        doc = json.loads(first)
        n, n_c = len(doc["scores"]), len(doc["scores"]) - doc["n_question"]
        doc[field] = value
        cache_path.write_text(json.dumps(doc) + "\n" + "".join(rest))
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: {cache_path}: bad cache record on line 1: "
            f"{message.format(n=n, n_c=n_c)}\n"
        )

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


TTEST_REASON = "t-test requires at least 2 values per side"
COVERAGE_KEYS = ("n_pairs", "n_audited", "n_skipped", "skip_reasons")

# sha256 of alignment_records.jsonl, alignment.csv and alignment.json (with
# its dataset path, coverage keys and loader skips left out) as written
# before pairs were screened: screening must not change a byte of them.
SCREEN_PINS = {
    "bundled": (
        "206ea4d75e1bf7b244dddf9d4866e82edeaf8e3f74994ba3d642afce09d9dfa6",
        "630d6c9cde7ad52639afe57e8b160818f9e63e257beb47fd9466f446ac0ebb56",
        "c8443122c72f9cc34f7e1b3709b756d9f6886468c6274404be777ea98b163e37",
    ),
    "bundled+cf-file": (
        "6fdfcf9a9a52e4037168d10d0f4333cb34ac2a2dc5450f1e6871c052cfd2595b",
        "9fa00463cb3f5cfe3fd789145eb167c3dd5476e69afe7e4520fa02705f6a33b5",
        "04ef0622556caaddadf66a614723cb38bff48694172f209de6cbdc79c5b93c22",
    ),
    "synthetic:300": (
        "342b17e8de7fefc0530f2dbabae1b65f042fa744c09c5d37cfe7f889825615ad",
        "630d6c9cde7ad52639afe57e8b160818f9e63e257beb47fd9466f446ac0ebb56",
        "636824b49e6f5d69f6fd182d6d7cd8751cabd4bf52f13ccabb500f99fa427632",
    ),
}


# sha256 of every file `align` and `cf-generate` write, per (dataset,
# antonym table), as written before the plan shared its per-instance work:
# alignment_records.jsonl, alignment.csv and the whole alignment.json, then
# cf_pairs.jsonl and cf_report.json. Each JSON report's `dataset` is set to
# the case's dataset name, since the bundled corpus's path varies.
PLAN_PINS = {
    ("synthetic:1500", "in_dist"): (
        "3f7d97c29f114f02d15bd07b114deacaa6a0644501936f3b09b697045466933e",
        "630d6c9cde7ad52639afe57e8b160818f9e63e257beb47fd9466f446ac0ebb56",
        "c3c835db72303221896f8591e2df075aeceb58139aadd78456ee323541480e19",
        "da0a88ff6ee91e573fbe3df55b1a1c2b0e2a5a7710611b5c80931b146d8ebf3e",
        "6da9ec318ebd9d3ace6fea4bf0bfa9059c98526d99e9ee1ba64bca8305fbb851",
    ),
    ("synthetic:1500", "ood"): (
        "3f7d97c29f114f02d15bd07b114deacaa6a0644501936f3b09b697045466933e",
        "630d6c9cde7ad52639afe57e8b160818f9e63e257beb47fd9466f446ac0ebb56",
        "68514c3f7d5093a3d540397d95dd8f6b81461643d4fe3accac486b78d092081d",
        "32c2c017996df3fda1aa1c64004c82685154b2fb21372a605ad14d1b4f0c7cd6",
        "14de7f2028b73a184f26020282930bff0919ddb334c93449ee1e5d3a29438525",
    ),
    ("bundled", "ood"): (
        "206ea4d75e1bf7b244dddf9d4866e82edeaf8e3f74994ba3d642afce09d9dfa6",
        "630d6c9cde7ad52639afe57e8b160818f9e63e257beb47fd9466f446ac0ebb56",
        "f79d972125b576cccad47c17fb31176f61c2cb5504d678863bc5f09907fb7dd1",
        "444a402cb5ec689237487ff1ccf21285eb35a5f440068906e130ef2252504c74",
        "b1bd4df8e0c9c46411c70398be77c4bcdf6ac92156b80d2874493369d1578d4e",
    ),
}


def screen_digests(out: Path) -> tuple[str, str, str]:
    """What SCREEN_PINS pins of an `align` run's output directory."""
    return (
        hashlib.sha256((out / "alignment_records.jsonl").read_bytes()).hexdigest(),
        hashlib.sha256((out / "alignment.csv").read_bytes()).hexdigest(),
        hashlib.sha256(alignment_without_coverage(out).encode("utf-8")).hexdigest(),
    )


def report_digest(path: Path, dataset: str) -> str:
    """sha256 of a JSON report as `write_json` writes it, with `dataset`
    as its dataset."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["dataset"] = dataset
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def alignment_without_coverage(out: Path) -> str:
    doc = json.loads((out / "alignment.json").read_text())
    del doc["dataset"], doc["skipped_records"]
    for report in doc["reports"]:
        for key in COVERAGE_KEYS:
            del report[key]
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2)


def counting_op(monkeypatch, name: str) -> list[str]:
    """Ids of the instances the gateway's op `name` is asked about."""
    seen: list[str] = []
    build = cli_module.build_gateway

    def build_counting(spec):
        gateway = build(spec)
        op = getattr(gateway, name)

        def counted(instance):
            seen.append(instance.id)
            return op(instance)

        setattr(gateway, name, counted)
        return gateway

    monkeypatch.setattr(cli_module, "build_gateway", build_counting)
    return seen


class TestAlignScreen:
    """`align` decides whether a pair's partition can be tested before it
    builds the pair's twin or looks up its saliency map."""

    @pytest.mark.parametrize("case", sorted(SCREEN_PINS))
    def test_outputs_match_the_unscreened_audit(self, tmp_path, case):
        out = tmp_path / "out"
        dataset = "synthetic:300" if case == "synthetic:300" else CORPUS
        cf_file = ("--cf-file", CF_PAIRS) if case == "bundled+cf-file" else ()
        assert run("align", "--dataset", dataset, "--model", "toy:7", *cf_file,
                   "--out", str(out)) == 0
        assert screen_digests(out) == SCREEN_PINS[case]

    @pytest.mark.parametrize("case", sorted(PLAN_PINS), ids="/".join)
    def test_outputs_match_the_plan_that_derived_each_fact_apart(self, tmp_path, case):
        name, table = case
        dataset = CORPUS if name == "bundled" else name
        align, cf = tmp_path / "align", tmp_path / "cf"
        assert run("align", "--dataset", dataset, "--model", "toy:7", "--antonyms", table,
                   "--out", str(align)) == 0
        assert run("cf-generate", "--dataset", dataset, "--antonyms", table,
                   "--out", str(cf)) == 0
        got = (
            hashlib.sha256((align / "alignment_records.jsonl").read_bytes()).hexdigest(),
            hashlib.sha256((align / "alignment.csv").read_bytes()).hexdigest(),
            report_digest(align / "alignment.json", name),
            hashlib.sha256((cf / "cf_pairs.jsonl").read_bytes()).hexdigest(),
            report_digest(cf / "cf_report.json", name),
        )
        assert got == PLAN_PINS[case]

    def test_coverage_counts_every_pair(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("align", "--dataset", CORPUS, "--model", "toy:7",
                   "--cf-file", CF_PAIRS, "--out", str(out)) == 0
        doc = json.loads((out / "alignment.json").read_text())
        by_step = {r["reasoning_step"]: r for r in doc["reports"]}
        assert {k: by_step["comparison_operation"][k] for k in COVERAGE_KEYS} == {
            "n_pairs": 10, "n_audited": 2, "n_skipped": 8, "skip_reasons": {TTEST_REASON: 8},
        }
        assert {k: by_step["coreference_resolution"][k] for k in COVERAGE_KEYS} == {
            "n_pairs": 10, "n_audited": 10, "n_skipped": 0, "skip_reasons": {},
        }
        stdout = capsys.readouterr().out
        assert "align: comparison_operation score=0.0000 (audited 2 of 10 pairs)" in stdout
        assert "align: coreference_resolution score=0.0000 (audited 10 of 10 pairs)" in stdout

    def test_untestable_pairs_never_reach_the_saliency_op(self, tmp_path, monkeypatch):
        seen = counting_op(monkeypatch, "masked_start_scores")
        out = tmp_path / "out"
        assert run("align", "--dataset", CORPUS, "--model", "toy:7",
                   "--cf-file", CF_PAIRS, "--out", str(out)) == 0
        audited = [
            json.loads(line)["instance_id"]
            for line in (out / "alignment_records.jsonl").read_text().splitlines()
        ]
        assert sorted(seen) == audited
        assert "cmp-02" in seen and "cmp-01" not in seen
        assert len(SaliencyCache.load(out / "saliency_cache.jsonl")) == 12

    def test_twins_are_built_only_for_testable_pairs(self, tmp_path, monkeypatch):
        built: list[str] = []
        build = cf_module.build_antonym_twin

        def counted(swap):
            built.append(swap.original.id)
            return build(swap)

        monkeypatch.setattr(cf_module, "build_antonym_twin", counted)
        out = tmp_path / "out"
        assert run("align", "--dataset", "synthetic:1500", "--seed", "7",
                   "--model", "toy:7", "--out", str(out)) == 0
        (report,) = json.loads((out / "alignment.json").read_text())["reports"]
        assert (report["n_pairs"], report["n_audited"]) == (1500, 250)
        assert len(built) == 250
        assert built == [
            json.loads(line)["instance_id"]
            for line in (out / "alignment_records.jsonl").read_text().splitlines()
        ]

    def test_all_untestable_still_exits_2(self, tmp_path, capsys):
        testable = {"cmp-02", "cmp-09"}
        dataset = tmp_path / "untestable.jsonl"
        save_jsonl([i for i in load_jsonl(CORPUS) if i.id not in testable], dataset)
        code = run("align", "--dataset", str(dataset), "--model", "toy:7",
                   "--cf-file", CF_PAIRS, "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: no usable pairs for the alignment audit\n"
        )

    def test_an_invalid_untestable_twin_is_skipped_by_the_audit(self, tmp_path):
        # Both compared entities normalize to "smiths", so the twin's label
        # cannot change; "earlier" is one word, so the partition cannot be
        # tested either. The screen decides first: the pair lands in the
        # report's skipped list, not in cf_generation_skipped.
        inst = build_instance(
            "cmp-smiths",
            "Which band formed earlier, The Smiths or Smiths?",
            ["The Smiths formed in 1982.", "Smiths formed in 1990."],
            gold=(0, "The Smiths"),
            annotate=True,
        )
        with pytest.raises(InputError, match="generated pair is invalid: label did not change"):
            perturb_comparison(inst)
        dataset = tmp_path / "smiths.jsonl"
        save_jsonl(load_jsonl(CORPUS) + [inst], dataset)
        out = tmp_path / "out"
        assert run("align", "--dataset", str(dataset), "--model", "toy:7", "--out", str(out)) == 0
        doc = json.loads((out / "alignment.json").read_text())
        (report,) = doc["reports"]
        assert ["cmp-smiths", TTEST_REASON] in report["skipped"]
        assert doc["cf_generation_skipped"] == []

    def test_warm_run_over_an_older_full_cache(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        # `saliency` writes one map for every instance, as `align` once did
        assert run("saliency", "--dataset", CORPUS, "--model", "toy:7",
                   "--out", str(out)) == 0
        full = (out / "saliency.jsonl").read_bytes()
        (out / "saliency_cache.jsonl").write_bytes(full)

        def refuse(*args):
            raise AssertionError("a map was computed on a warm run")

        monkeypatch.setattr(saliency_module, "compute_saliency", refuse)
        monkeypatch.setattr(SaliencyCache, "save", refuse)
        argv = ("align", "--dataset", CORPUS, "--model", "toy:7", "--cf-file", CF_PAIRS)
        assert run(*argv, "--out", str(out)) == 0
        assert (out / "saliency_cache.jsonl").read_bytes() == full
        monkeypatch.undo()
        assert run(*argv, "--out", str(tmp_path / "cold")) == 0
        for name in ("alignment_records.jsonl", "alignment.csv"):
            assert (out / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def full_plan(instance: RCInstance, table: AntonymTable) -> tuple[str, str, AnswerSpan]:
    """The antonym-swap plan as it ran before its checks were split from the
    twin's rendering, kept as the reference: every check in order, then the
    old operator's surface, the replacement and the new gold span."""
    if instance.skill != "comparison" or instance.annotations is None:
        raise InputError(f"{instance.id}: antonym swap needs an annotated comparison instance")
    ann = instance.annotations

    def surface(indices):
        if not indices:
            raise InputError(f"{instance.id}: annotation token set is empty")
        lo, hi = min(indices), max(indices)
        if len(indices) != hi - lo + 1:
            raise InputError(f"{instance.id}: annotation token indices are not contiguous")
        return instance.question_surface(lo, hi)

    old_surface = surface(ann.comparison_operator)
    key = " ".join(instance.question_words[i] for i in sorted(ann.comparison_operator)).casefold()
    replacements = table.entries.get(key)
    if replacements is None:
        raise InputError(f"{instance.id}: operator {key!r} not in the {table.distribution_tag} table")
    if len(ann.compared_entities) != 2:
        raise InputError(f"{instance.id}: antonym swap needs exactly two compared entities")
    gold_norms = {normalize_answer(a.text) for a in instance.gold_answers}
    entity_surfaces = [surface(e) for e in ann.compared_entities]
    matches = [i for i, s in enumerate(entity_surfaces) if normalize_answer(s) in gold_norms]
    if not matches:
        raise InputError(f"{instance.id}: gold answer names neither compared entity")
    needle = [instance.question_words[i] for i in sorted(ann.compared_entities[1 - matches[0]])]
    hit = find_token_run(instance.context_words, needle)
    if hit is None:
        raise InputError(
            f"{instance.id}: compared entity {' '.join(needle)!r} not found in context"
        )
    start, end = hit, hit + len(needle) - 1
    sent_idx = instance.sentence_of(start)
    if instance.sentence_of(end) != sent_idx:
        raise InputError(f"{instance.id}: entity span crosses a sentence boundary")
    new_gold = AnswerSpan(
        text=instance.span_surface(start, end),
        sentence_index=sent_idx,
        token_start=start,
        token_end=end,
    )
    return old_surface, replacements[0], new_gold


def plan_comparisons(instances, table):
    """`align`'s plan of comparison instances: the planner with the antonym
    swap's checks and twin."""
    return plan_audit(instances, lambda inst: inst, lambda inst: plan_antonym_swap(inst, table),
                      lambda inst: perturb_comparison(inst, table=table))


def reference_testable_pairs(instances, table):
    """`plan_comparisons` as it would run with each original's
    full plan, gold rendering included, before the partition screen."""
    pairs, partitions, untestable, cf_skipped = [], {}, [], []
    for inst in sorted(instances, key=lambda i: i.id):
        try:
            old_surface, new_surface, new_gold = full_plan(inst, table)
        except InputError as exc:
            cf_skipped.append([inst.id, str(exc)])
            continue
        try:
            partition = screen_partition(inst)
        except InputError as screened:
            untestable.append((inst.id, str(screened)))
            continue
        try:
            pair = perturb_comparison(inst, table)
        except InputError as exc:
            cf_skipped.append([inst.id, str(exc)])
            continue
        assert pair.replaced_operator == (old_surface, new_surface)
        assert pair.perturbed.gold_answers == (new_gold,)
        pairs.append(pair)
        partitions[inst.id] = partition
    return pairs, partitions, untestable, cf_skipped


def one_word_operator_failures() -> list[RCInstance]:
    """One-word-operator comparisons, so the partition screen rejects every
    one; all but the first also fail one of the plan's checks."""
    ok = build_instance(
        "hand-ok",
        "Which film came out earlier, Blind Shaft or Red Sorghum?",
        ["Blind Shaft came out in 2003.", "Red Sorghum came out in 1987."],
        gold=(1, "Red Sorghum"),
        annotate=True,
    )
    assert len(ok.annotations.compared_entities) == 2
    one_entity = replace(
        ok, id="hand-one-entity",
        annotations=replace(ok.annotations, compared_entities=ok.annotations.compared_entities[:1]),
    )
    gold_year = replace(ok, id="hand-gold-year", gold_answers=(span_at(ok.context, 1, "1987"),))
    from_blind = replace(ok, gold_answers=(span_at(ok.context, 0, "Blind Shaft"),))
    missing = replace(
        from_blind, id="hand-missing",
        context=(ok.context[0], make_sentence("Sorghum came out in 1987.")),
    )
    crossing = replace(
        from_blind, id="hand-crossing",
        context=(make_sentence("Blind Shaft came out after Red"), make_sentence("Sorghum came out.")),
    )
    return [ok, one_entity, gold_year, missing, crossing]


class TestSkipPrecedence:
    NARROW = AntonymTable(entries={"later": ("earlier",)}, distribution_tag="in_distribution")

    def check(self, instances, table):
        plan, cf_skipped = plan_comparisons(instances, table)
        got = (
            [pair for pair, _ in plan.pairs],
            {pair.original.id: partition for pair, partition in plan.pairs},
            list(plan.skipped),
            cf_skipped,
        )
        assert got == reference_testable_pairs(instances, table)
        return got

    def test_bundled_corpus_under_both_tables(self, corpus):
        comparisons = [i for i in corpus if i.skill == "comparison"]
        for table in (ANTONYM_TABLES["in_dist"], ANTONYM_TABLES["ood"]):
            pairs, _, untestable, cf_skipped = self.check(comparisons, table)
            assert (len(pairs), len(untestable), cf_skipped) == (2, 8, [])

    def test_synthetic_300(self):
        comparisons = [i for i in make_synthetic_corpus(300, 0) if i.skill == "comparison"]
        pairs, _, untestable, _ = self.check(comparisons, ANTONYM_TABLES["in_dist"])
        assert pairs and untestable

    def test_each_failed_check_wins_over_the_screen(self):
        instances = one_word_operator_failures()
        for table in (ANTONYM_TABLES["in_dist"], ANTONYM_TABLES["ood"]):
            pairs, partitions, untestable, cf_skipped = self.check(instances, table)
            assert (pairs, partitions) == ([], {})
            assert untestable == [("hand-ok", TTEST_REASON)]
            assert cf_skipped == [
                ["hand-crossing", "hand-crossing: entity span crosses a sentence boundary"],
                ["hand-gold-year", "hand-gold-year: gold answer names neither compared entity"],
                ["hand-missing",
                 "hand-missing: compared entity 'Red Sorghum' not found in context"],
                ["hand-one-entity",
                 "hand-one-entity: antonym swap needs exactly two compared entities"],
            ]
        _, _, untestable, cf_skipped = self.check(instances, self.NARROW)
        assert untestable == []
        assert cf_skipped == [
            [i.id, f"{i.id}: operator 'earlier' not in the in_distribution table"]
            for i in sorted(instances, key=lambda i: i.id)
        ]


    def test_a_gold_text_that_names_an_entity_only_once_normalized(self, corpus_by_id):
        base = corpus_by_id["cmp-02"]  # gold "Blind Shaft", the first entity
        gold = base.gold_answers[0]
        instances = [
            replace(base, id=f"cmp-02-{n}", gold_answers=(replace(gold, text=text),))
            for n, text in enumerate(["blind shaft", "The Blind Shaft!", "Blind  Shaft",
                                      "The Mask Of Fu Manchu", "Shaft"])
        ]
        for table in (ANTONYM_TABLES["in_dist"], ANTONYM_TABLES["ood"]):
            pairs, _, _, cf_skipped = self.check(instances, table)
            assert {p.original.id: p.perturbed.gold_answers[0].text for p in pairs} == {
                "cmp-02-0": "The Mask Of Fu Manchu",
                "cmp-02-2": "The Mask Of Fu Manchu",
                "cmp-02-3": "Blind Shaft",
            }
            # the plan passes "The Blind Shaft!", and the twin's own check fails
            assert cf_skipped == [
                ["cmp-02-1", "cmp-02-1: generated pair is invalid: original answer"
                             " 'The Blind Shaft!' missing from perturbed context"],
                ["cmp-02-4", "cmp-02-4: gold answer names neither compared entity"],
            ]

    def test_a_gold_text_equal_to_an_entity_is_not_normalized(self, monkeypatch):
        normalized: list[str] = []
        normalize = cf_module.normalize_answer

        def counted(text):
            normalized.append(text)
            return normalize(text)

        monkeypatch.setattr(cf_module, "normalize_answer", counted)
        instances = make_synthetic_corpus(300, 0)
        plan, cf_skipped = plan_comparisons(instances, ANTONYM_TABLES["in_dist"])
        assert cf_skipped == [] and len(plan.pairs) == 50
        # each synthetic gold text is its first entity's surface, so only the
        # twins' own check (`validate_cf`: was the label changed?) normalizes
        assert len(normalized) == 2 * len(plan.pairs)

    def test_skips_of_both_passes_stay_in_id_order(self):
        by_id = {inst.id: inst for inst in make_synthetic_corpus(16, 0)}

        def renamed(new_id, source_id, answers_the_year):
            inst = replace(by_id[source_id], id=new_id)
            if answers_the_year:  # a counterfactual fault: the gold names no entity
                year = inst.context[1].words[-2]
                inst = replace(inst, gold_answers=(span_at(inst.context, 1, year),))
            return inst

        # The screen passes syn-0-0003, -0009 and -0015 ("more recently") and
        # rejects the one-word operators of -0000, -0001 and -0002.
        instances = [
            renamed("cmp-a", "syn-0-0000", True),   # screened out
            renamed("cmp-b", "syn-0-0003", True),   # screened in
            renamed("cmp-c", "syn-0-0001", False),  # screened out
            renamed("cmp-d", "syn-0-0009", False),  # screened in
            renamed("cmp-e", "syn-0-0002", True),   # screened out
            renamed("cmp-f", "syn-0-0015", True),   # screened in
        ]
        pairs, partitions, untestable, cf_skipped = self.check(
            instances[::-1], ANTONYM_TABLES["in_dist"]
        )
        assert [pair.original.id for pair in pairs] == list(partitions) == ["cmp-d"]
        assert untestable == [("cmp-c", TTEST_REASON)]
        assert cf_skipped == [
            [iid, f"{iid}: gold answer names neither compared entity"]
            for iid in ("cmp-a", "cmp-b", "cmp-e", "cmp-f")
        ]


class TestAlignBuildsNoToken:
    def test_a_warm_align_builds_no_token(self, tmp_path, monkeypatch):
        argv = ["align", "--dataset", "synthetic:300", "--model", "toy:7", "--out", str(tmp_path)]
        assert run(*argv) == 0  # cold: fills the saliency cache
        built = []
        init = Token.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[:1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Token, "__init__", counting_init)
        assert run(*argv) == 0
        assert built == []
        # the count sees the Token views of an instance read after the run
        inst = make_synthetic_corpus(1)[0]
        assert len(inst.question) + len(inst.context_tokens) == len(built) > 0


class TestWarmAlignPredictsOnlyTwins:
    def test_originals_are_answered_from_their_maps(self, tmp_path, monkeypatch):
        argv = ["align", "--dataset", "synthetic:300", "--model", "toy:7", "--out", str(tmp_path)]
        assert run(*argv) == 0  # cold: fills the saliency cache
        seen = counting_op(monkeypatch, "predict")
        assert run(*argv) == 0
        audited = {
            json.loads(line)["instance_id"]
            for line in (tmp_path / "alignment_records.jsonl").read_text().splitlines()
        }
        toy = build_gateway("toy:7")
        right = [
            inst
            for inst in make_synthetic_corpus(300)
            if inst.id in audited
            and exact_match(
                predict(toy, inst).predicted_span.text, [a.text for a in inst.gold_answers]
            )
        ]
        assert len(audited) == 50 and len(right) == 1
        assert seen == [perturb_comparison(inst).perturbed.id for inst in right]


class TestWarmAlignScoresNoF1:
    def test_the_verdict_computes_no_token_f1(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "align"
        argv = ["align", "--dataset", "synthetic:300", "--model", "toy:7", "--out", str(out)]
        assert run(*argv) == 0  # cold: fills the saliency cache

        def no_f1(*args):
            raise AssertionError("token F1 computed")

        monkeypatch.setattr(metrics_module, "_best_f1", no_f1)
        assert run(*argv) == 0
        assert screen_digests(out) == SCREEN_PINS["synthetic:300"]
        # evaluate still computes F1, through the function patched above
        evaluate = ["evaluate", "--dataset", "synthetic:300", "--model", "toy:7", "--out"]
        capsys.readouterr()
        assert run(*evaluate, str(tmp_path / "patched")) == 4
        assert capsys.readouterr().err == "internal error: token F1 computed\n"
        monkeypatch.undo()
        assert run(*evaluate, str(tmp_path / "evaluate")) == 0
        summary = json.loads((tmp_path / "evaluate" / "summary.json").read_text())
        assert 0.0 < summary["f1"] <= 1.0


LOADER_SKIP_COMMANDS = {
    "evaluate": "summary.json",
    "align": "alignment.json",
    "calibrate": "calibration.json",
    "cf-generate": "cf_report.json",
    "saliency": "saliency_summary.json",
    "heuristic": "heuristic_summary.json",
}


class TestLoaderSkips:
    @pytest.mark.parametrize("command", sorted(LOADER_SKIP_COMMANDS))
    def test_every_command_reports_skipped_records(self, tmp_path, command):
        # cmp-01's gold answer lies in a sentence no longer flagged as a
        # supporting fact, so the supporting_facts reduction skips it.
        docs = [json.loads(line) for line in Path(CORPUS).read_text().splitlines()]
        (doc,) = [d for d in docs if d["id"] == "cmp-01"]
        gold = doc["answers"][0]
        doc["context"][gold["sent"]]["supporting"] = False
        dataset = tmp_path / "unflagged.jsonl"
        dataset.write_text("".join(json.dumps(d) + "\n" for d in docs))
        out = tmp_path / "out"
        assert run(command, "--dataset", str(dataset), *model_flag(command, "toy:7"),
                   "--context-mode", "supporting_facts", "--out", str(out)) == 0
        report = json.loads((out / LOADER_SKIP_COMMANDS[command]).read_text())
        assert report["skipped_records"] == [
            [None, "cmp-01", f"cmp-01: gold answer {gold['text']!r} lies outside the supporting facts"]
        ]


class TestNothingToScore:
    @pytest.mark.parametrize("command", ["evaluate", "heuristic"])
    def test_an_empty_dataset_is_named_with_its_skip_count(self, tmp_path, capsys, command):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("")
        assert run(command, "--dataset", str(dataset), *model_flag(command, "oracle"),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: no usable instance to score; skipped records: 0\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "heuristic"])
    def test_a_dataset_whose_records_were_all_skipped_counts_them(self, tmp_path, capsys, command):
        (doc,) = [json.loads(line) for line in Path(CORPUS).read_text().splitlines()
                  if json.loads(line)["id"] == "cmp-01"]
        doc["context"][doc["answers"][0]["sent"]]["supporting"] = False
        dataset = tmp_path / "unflagged.jsonl"
        dataset.write_text(json.dumps(doc) + "\n")
        assert run(command, "--dataset", str(dataset), *model_flag(command, "oracle"),
                   "--context-mode", "supporting_facts", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: no usable instance to score; skipped records: 1\n"
        )


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
        assert not (tmp_path / "x").exists()


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


class TestFlagsPerCommand:
    def test_the_tables_cover_every_command_and_flag(self):
        assert set(cli_module.COMMANDS) == set(READS)
        assert set().union(*READS.values()) == set(cli_module.FLAGS)
        assert len(REFUSED) == 19

    @pytest.mark.parametrize("dest", list(cli_module.FLAGS))
    @pytest.mark.parametrize("command", list(cli_module.COMMANDS))
    def test_a_command_takes_exactly_the_flags_it_reads(self, tmp_path, capsys, command, dest):
        kind = cli_module.FLAGS[dest][0]
        option, value = "--" + dest.replace("_", "-"), FLAG_VALUES[kind]
        if dest in READS[command]:
            args = cli_module.build_parser().parse_args([command, option, value])
            assert getattr(args, dest) == kind(value)
            return
        out = tmp_path / "out"
        assert run(command, "--dataset", CORPUS, *model_flag(command, "oracle"),
                   "--out", str(out), option, value) == 2
        assert f"error: unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, refused", [
        (["align", "--sum", "dot"], "--sum dot"),
        (["calibrate", "--n", "3"], "--n 3"),
        (["heuristic", "--conf", "settings.cfg"], "--conf settings.cfg"),
    ], ids=["align-sum", "calibrate-n", "conf"])
    def test_a_flag_spelled_in_part_is_refused(self, tmp_path, capsys, argv, refused):
        out = tmp_path / "out"
        assert run(*argv, "--dataset", CORPUS, "--out", str(out)) == 2
        assert capsys.readouterr().err.endswith(
            f"rcaudit: error: unrecognized arguments: {refused}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["align"]], ids=["top", "align"])
    def test_help_returns_0_after_printing_it(self, capsys, argv):
        assert run(*argv, "--help") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: rcaudit") and captured.err == ""

    @pytest.mark.parametrize("argv, prog", [
        (["--config"], "rcaudit"),
        (["align", "--config"], "rcaudit align"),
        (["heuristic", "--dataset", CORPUS, "--config"], "rcaudit heuristic"),
    ], ids=["top", "align", "heuristic-last"])
    def test_a_bare_config_is_refused_in_rcaudits_words(self, capsys, argv, prog):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: {prog} [-h]")
        assert captured.err.endswith(f"\n{prog}: error: argument --config: expected one argument\n")

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_config_goes_before_or_after_the_command(self, tmp_path, where):
        cfg = tmp_path / "strategy.cfg"
        cfg.write_text("strategy = position\n")
        out = tmp_path / "out"
        config = ["--config", str(cfg)]
        argv = ["heuristic", "--dataset", CORPUS, "--out", str(out)]
        assert run(*(config + argv if where == "before" else argv + config)) == 0
        assert json.loads((out / "heuristic_summary.json").read_text())["strategy"] == "position"

    @pytest.mark.parametrize("command, report, expected", [
        ("evaluate", "summary.json", {"model_id": "toy:7"}),
        ("saliency", "saliency_summary.json", {"ig_steps": 8, "summarizer": "l1"}),
        ("cf-generate", "cf_report.json", {"antonym_table": "ood"}),
        ("align", "alignment.json", {"alpha": 0.1, "antonym_table": "ood"}),
        ("calibrate", "calibration.json", {"alpha": 0.1, "seed": 3, "n_partitions": 1}),
        ("heuristic", "heuristic_summary.json", {"strategy": "position"}),
    ])
    def test_one_config_file_sets_every_flag_of_every_command(
        self, tmp_path, command, report, expected
    ):
        out = tmp_path / "out"
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            f"dataset = {CORPUS}\nformat = unified\ncontext-mode = paragraphs\n"
            "model = toy:7\nmethod = occlusion\nsummarizer = l1\nig-steps = 8\n"
            "alpha = 0.1\nantonyms = ood\nseed = 3\n"
            f"out = {out}\ncf-file = {CF_PAIRS}\nn-partitions = 1\nstrategy = position\n"
        )
        assert set(read_config(cfg)) == set(cli_module.FLAGS) - {"config"}
        assert run(command, "--config", str(cfg)) == 0
        doc = json.loads((out / report).read_text())
        assert {key: doc[key] for key in expected} == expected


class TestExitCodes:
    def test_missing_and_bad_inputs_exit_2(self, tmp_path):
        assert run("evaluate", "--out", str(tmp_path / "a")) == 2  # no --dataset
        assert run("evaluate", "--dataset", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "b")) == 2
        assert run("evaluate", "--dataset", CORPUS, "--format", "csv",
                   "--out", str(tmp_path / "c")) == 2
        assert run("evaluate", "--dataset", CORPUS, "--model", "quantum:9",
                   "--out", str(tmp_path / "d")) == 2

    def test_duplicate_ids_exit_2(self, tmp_path, capsys):
        corpus = make_synthetic_corpus(40, 3)
        corpus[15] = replace(corpus[15], id="syn-3-0003")
        dataset = tmp_path / "dup.jsonl"
        save_jsonl(corpus, dataset)
        out = tmp_path / "a"
        assert run("align", "--dataset", str(dataset), "--model", "toy:7", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: duplicate instance id 'syn-3-0003' in records 3 and 15\n"
        )
        assert not (out / "alignment_records.jsonl").exists()

        lines = Path(CF_PAIRS).read_text().splitlines()
        cf_file = tmp_path / "twice.jsonl"
        cf_file.write_text("\n".join(lines + lines[:1]) + "\n")
        assert run("align", "--dataset", CORPUS, "--cf-file", str(cf_file), "--model", "toy:7",
                   "--out", str(tmp_path / "b")) == 2
        assert capsys.readouterr().err == (
            f"error: {cf_file}: two records for 'cor-01', on lines 1 and 11\n"
        )

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: [1, 2], """AttributeError("'list' object has no attribute 'get'")"""),
            (lambda doc: [1], """AttributeError("'list' object has no attribute 'get'")"""),
            (lambda doc: {k: v for k, v in doc.items() if k != "answers"}, "KeyError('answers')"),
        ],
        ids=["not-an-object", "one-element-list", "no-answers"],
    )
    def test_malformed_unified_record_is_named(self, tmp_path, capsys, edit, reason):
        lines = Path(CORPUS).read_text().splitlines()
        lines[3] = json.dumps(edit(json.loads(lines[3])))
        dataset = tmp_path / "broken.jsonl"
        dataset.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")  # a blank line is no record
        assert run("evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {dataset}: malformed record 3: {reason}\n"

    def test_missing_capability_exits_3(self, tmp_path):
        fx = make_engineered_alignment(tmp_path)
        code = run(
            "saliency", "--dataset", str(fx["corpus"]),
            "--model", f"scripted:{fx['script']}", "--method", "ig",
            "--out", str(tmp_path / "out"),
        )
        assert code == 3  # scripted models expose no integrated gradients

    @pytest.mark.parametrize("model", ["oracle", "scripted"])
    def test_align_ig_without_integrated_gradients_exits_3(
        self, tmp_path, capsys, monkeypatch, model
    ):
        fx = make_engineered_alignment(tmp_path)
        spec = f"scripted:{fx['script']}" if model == "scripted" else model
        model_id = build_gateway(spec).model_id
        called = []
        for op in ("embed", "grad_start"):
            monkeypatch.setattr(ModelGateway, op, lambda self, *args, op=op: called.append(op))
        code = run(
            "align", "--dataset", str(fx["corpus"]), "--model", spec,
            "--cf-file", str(fx["pairs"]), "--method", "ig", "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {model_id} does not expose integrated gradients\n"
        )
        assert called == []


class TestInputErrorsComeBeforeTheGateway:
    """A check that needs no model refuses the input before the gateway is
    built, so a server that cannot start gives the same input error as toy:7,
    in the same precedence."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("align", "--dataset", "synthetic:2"),
             "synthetic:2: no usable pairs for the alignment audit"),
            (("align", "--dataset", "synthetic:2", "--alpha", "1.5"),
             "synthetic:2: no usable pairs for the alignment audit"),
            (("align", "--dataset", "{coref}", "--alpha", "1.5"),
             "no counterfactual pairs to audit; need comparison instances or --cf-file"),
            (("align", "--dataset", "synthetic:60", "--alpha", "1.5"),
             "alpha must lie in (0,1), got 1.5"),
            (("align", "--dataset", "{coref}", "--cf-file", CF_PAIRS, "--alpha", "0"),
             "alpha must lie in (0,1), got 0.0"),
            (("calibrate", "--dataset", "synthetic:4", "--n-partitions", "0"),
             "calibration needs n_partitions >= 1"),
            (("calibrate", "--dataset", "{empty}", "--n-partitions", "0"),
             "calibration needs n_partitions >= 1"),
            (("calibrate", "--dataset", "{empty}"), "calibration needs at least one instance"),
            (("calibrate", "--dataset", "synthetic:3", "--alpha", "2"),
             "alpha must lie in (0,1), got 2.0"),
            (("calibrate", "--dataset", "synthetic:3", "--n-partitions", "0", "--alpha", "2"),
             "calibration needs n_partitions >= 1"),
            (("calibrate", "--dataset", "{empty}", "--alpha", "2"),
             "calibration needs at least one instance"),
        ],
        ids=["no-usable-pairs", "no-usable-pairs-before-alpha", "coreference-without-cf-file",
             "alpha", "cf-file-alpha", "n-partitions", "n-partitions-before-empty", "empty",
             "calibrate-alpha", "n-partitions-before-alpha", "empty-before-alpha"],
    )
    def test_a_server_that_cannot_start_is_not_reached(self, tmp_path, capsys, argv, message):
        coref = tmp_path / "coref.jsonl"
        coref.write_text("".join(line + "\n" for line in Path(CORPUS).read_text().splitlines()
                                 if json.loads(line)["skill"] == "coreference"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        argv = [arg.format(coref=coref, empty=empty) for arg in argv]
        for model in ("toy:7", NO_SERVER):
            assert run(*argv, "--model", model, "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_bad_alpha_comes_before_a_partition_that_cannot_be_drawn(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.jsonl"
        save_jsonl([build_instance("tiny", "Who won?", ["Ana won."], gold=(0, "Ana"))], tiny)
        argv = ("calibrate", "--dataset", str(tiny), "--out", str(tmp_path / "out"))
        assert run(*argv, "--model", "toy:7") == 2
        assert capsys.readouterr().err == (
            "error: tiny: cannot draw 2+2 indices from 3 question_tokens\n"
        )
        for model in ("toy:7", NO_SERVER):
            assert run(*argv, "--model", model, "--alpha", "2") == 2
            assert capsys.readouterr().err == "error: alpha must lie in (0,1), got 2.0\n"

    def test_a_good_input_still_reaches_the_server(self, tmp_path, capsys):
        assert run("calibrate", "--dataset", "synthetic:4", "--model", NO_SERVER,
                   "--out", str(tmp_path / "out")) == 4
        assert capsys.readouterr().err.startswith("error: cannot start remote gateway")


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

    def test_a_bare_config_is_refused_in_rcaudits_words(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcaudit.cli", "align", "--config"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: rcaudit align [-h]")
        assert proc.stderr.endswith(
            "\nrcaudit align: error: argument --config: expected one argument\n"
        )

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


class TestCycleCollector:
    """`main` runs the command with the cycle collector off and puts it back
    as it found it; the command's data holds no cycles for it to find."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("evaluate", "--dataset", CORPUS, "--model", "oracle"), 0),
            (("align", "--dataset", "synthetic:2", "--model", "toy:7"), 2),
            (("align", "--no-such-flag"), 2),
            (("align", "--help"), 0),
            (("evaluate", "--dataset", CORPUS, "--model", NO_SERVER), 4),
        ],
        ids=["success", "input-error", "argparse-refusal", "help", "internal-error"],
    )
    def test_main_leaves_the_collector_as_it_found_it(
        self, tmp_path, capsys, argv, code, collecting
    ):
        try:
            gc.enable() if collecting else gc.disable()
            assert main([*argv, "--out", str(tmp_path / "out")]) == code
            assert gc.isenabled() is collecting
        finally:
            gc.enable()

    def test_the_command_runs_with_the_collector_off(self, tmp_path, monkeypatch):
        seen = []
        func, help_text, flags = cli_module.COMMANDS["evaluate"]
        monkeypatch.setitem(cli_module.COMMANDS, "evaluate", (
            lambda args: seen.append(gc.isenabled()) or func(args), help_text, flags))
        assert gc.isenabled()
        assert main(["evaluate", "--dataset", CORPUS, "--model", "oracle",
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("command", ["align", "calibrate"])
    def test_what_a_command_leaves_to_the_collector_does_not_grow(self, tmp_path, command):
        script = (
            "import gc, sys\n"
            "import rcaudit.cli\n"
            "gc.disable()\n"
            "assert rcaudit.cli.main(sys.argv[1:]) == 0\n"
            "print(gc.collect())\n"
        )
        # One hash seed for both runs: it decides whether an import the command
        # makes leaves one class in a cycle.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        unreachable = []
        for n in (60, 600):
            proc = subprocess.run(
                [sys.executable, "-c", script, command, "--dataset", f"synthetic:{n}",
                 "--model", "toy:7", "--out", str(tmp_path / str(n))],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            unreachable.append(int(proc.stdout.split()[-1]))
        assert unreachable[0] == unreachable[1]


# Value tokens for generated command lines: well typed for some flags and
# not for others, negative numbers, and tokens argparse reads as options.
VALUE_TOKENS = ["3", "0.5", "x", "toy:7", "", "a b", "a=b", "-3", "-0.5", "-.5", "-1e3",
                "-x", "-", "--", "--out"]
# Names that are no flag of any command: spelled in part, help, the end mark.
NOT_A_FLAG = ["--sum", "--n", "--conf", "--ig_steps", "--help", "-h", "--"]


@pytest.fixture(scope="module")
def config_files(tmp_path_factory) -> list[str]:
    folder = tmp_path_factory.mktemp("configs")
    settings_file, empty = folder / "settings.cfg", folder / "empty.cfg"
    settings_file.write_text("seed = 11\nalpha = 0.1\nmodel = toy:3\nstrategy = position\n"
                             "ig-steps = 8\nn-partitions = 4\nout = from-config\n")
    empty.write_text("# nothing set\n")
    return [str(settings_file), str(empty)]


@st.composite
def command_lines(draw, configs: list[str]) -> list[str]:
    """Command lines around one command: `--config` pairs before and after
    it, and any order, subset or repeat of flags, its own or not, in both
    forms, with values of every kind; now and then help or no command."""
    def pair(name: str) -> list[str]:
        if name == "--config":
            value = draw(st.sampled_from(configs))
        else:
            value = draw(st.sampled_from(VALUE_TOKENS))
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    command = draw(st.sampled_from([*cli_module.COMMANDS, "nope"]))
    every = [cli_module._option(dest) for dest in cli_module.FLAGS]
    own = [cli_module._option(dest) for dest in READS.get(command, ())]
    names = draw(st.lists(st.sampled_from(own or every) | st.sampled_from(every + NOT_A_FLAG),
                          max_size=8))
    head = [token for _ in range(draw(st.integers(0, 2))) for token in pair("--config")]
    body = [token for name in names for token in pair(name)]
    if draw(st.integers(0, 9)) == 0:
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["-h", "--help"])))
    return head + ([command] if draw(st.integers(0, 9)) else []) + body


def last_config(argv: list[str]) -> str | None:
    """The value of the last --config flag in a line the reader took."""
    found = None
    for token, after in zip(argv, argv[1:] + [None]):
        if token == "--config":
            found = after
        elif token.startswith("--config="):
            found = token.partition("=")[2]
    return found


class TestCommandLineReader:
    """`read_command_line` reads a line exactly as argparse would, or leaves
    it to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(case=st.data())
    def test_it_declines_or_agrees_with_argparse(self, config_files, case):
        argv = case.draw(command_lines(config_files))
        args = cli_module.read_command_line(argv)
        if args is None:
            return
        config = last_config(argv)
        parser = cli_module.build_parser(read_config(config) if config else None)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = parser.parse_args(argv)
        assert vars(args) == vars(parsed)

    @pytest.mark.parametrize("equals", [False, True], ids=["space", "equals"])
    @pytest.mark.parametrize("command", list(cli_module.COMMANDS))
    def test_every_flag_a_command_reads_is_read(self, config_files, command, equals):
        flags = cli_module.COMMANDS[command][2]
        argv = ["--config", config_files[0], command]
        for dest in flags:
            kind = cli_module.FLAGS[dest][0]
            value = config_files[1] if dest == "config" else FLAG_VALUES[kind]
            if kind is not str:  # a negative number is a value, not an option
                value = "-" + value
            option = cli_module._option(dest)
            argv += [f"{option}={value}"] if equals else [option, value]
        args = cli_module.read_command_line(argv)
        assert args is not None
        parsed = cli_module.build_parser(read_config(config_files[1])).parse_args(argv)
        assert vars(args) == vars(parsed)
        assert args.config == config_files[1]

    def test_a_config_before_the_command_sets_defaults_only(self, config_files):
        args = cli_module.read_command_line(["--config", config_files[0], "heuristic"])
        assert args.config is None and args.strategy == "position" and args.seed == 11


def benchmark_shapes(tmp_path) -> list[list[str]]:
    """The command lines of the benchmark's three workloads, on small inputs:
    occlusion calibration, IG through a `remote:` server, occlusion align."""
    server = f"{shlex.quote(sys.executable)} -m rcaudit.gateway.remote --model toy:7"
    return [
        ["calibrate", "--dataset", "synthetic:6", "--method", "occlusion", "--n-partitions", "3",
         "--model", "toy:7", "--seed", "5", "--out", str(tmp_path / "calibrate")],
        ["align", "--dataset", "synthetic:6", "--method", "ig", "--ig-steps", "4",
         "--model", f"remote:{server}", "--out", str(tmp_path / "ig")],
        ["align", "--dataset", "synthetic:12", "--method", "occlusion", "--model", "toy:7",
         "--out", str(tmp_path / "occlusion")],
    ]


def test_the_benchmark_command_lines_build_no_argparse_parser(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv in benchmark_shapes(tmp_path):
        assert main(argv) == 0, argv
