"""Release gate: one test per shipped guarantee, ordered and numbered.

Every quantitative promise the package makes is checked here end to end,
against independent references wherever one exists: a literal two-forward-
pass occlusion oracle, a linear model whose integrated gradients have a
closed form, central finite differences, and an arbitrary-precision t-test
whose p-value comes from numeric integration. `pytest -v` prints one
pass/fail line per guarantee.
"""

from __future__ import annotations

import json
import random
import shlex
import sys
import time

import numpy as np
import pytest

from conftest import DATA_DIR, make_engineered_alignment
from oracle_helpers import LinearStartGateway, oracle_occlusion, oracle_welch
from rcaudit.alignment import audit_alignment, calibrate, explanation_alignment, t_test_one_tailed
from rcaudit.cli import main as cli_main
from rcaudit.corpus.schema import load_jsonl
from rcaudit.counterfactuals import (
    ANTONYM_TABLES,
    cf_accuracy,
    load_cf_pairs,
    perturb_comparison,
    validate_cf,
)
from rcaudit.data import coref_cf_pairs_path, fixture_corpus_path
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import ModelGateway, ModelOutput, answer_span, span_text
from rcaudit.heuristic import (
    SELECTION_STRATEGIES,
    heuristic_answer,
    select_sentence,
)
from rcaudit.masking import mask_all
from rcaudit.metrics import evaluate_dataset, exact_match, token_f1
from rcaudit.partitions import build_skill_partition
from rcaudit.saliency import SaliencyConfig, SaliencyMap, ig_saliency, occlusion_saliency
from rcaudit.synthetic import make_synthetic_corpus


def test_01_occlusion_scores_equal_direct_differences():
    """Occlusion equals the two-forward-pass difference, bit for bit."""
    instances = make_synthetic_corpus(100, seed=101)
    gateway = build_gateway("toy:7")
    started = time.perf_counter()
    for inst in instances:
        saliency = occlusion_saliency(gateway, inst)
        anchor, expected = oracle_occlusion(gateway, inst)
        assert saliency.anchor_position == anchor
        assert list(saliency.scores) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"occlusion oracle: 100 instances bit-identical in {elapsed:.2f}s")


def test_02_ig_matches_linear_closed_form(corpus):
    """On a linear target, attributions equal grad * (input - baseline)."""
    gateway = LinearStartGateway()
    worst = 0.0
    for inst in corpus:
        embeddings = gateway.embed(inst)
        baseline = gateway.embed(mask_all(inst, gateway.baseline_token))
        grad = gateway.constant_grad(embeddings.shape[0])
        expected = ((embeddings - baseline) * grad).sum(axis=1)
        for steps in (1, 5, 50):
            config = SaliencyConfig(
                method="integrated_gradients", ig_steps=steps, summarizer="dot"
            )
            saliency = ig_saliency(gateway, inst, config)
            err = float(np.max(np.abs(np.asarray(saliency.scores) - expected)))
            assert err <= 1e-9
            worst = max(worst, err)
    print(f"ig closed form: worst deviation {worst:.2e} over {len(corpus)} fixtures")


def test_03_ig_completeness_and_step_convergence(corpus):
    """Attributions sum to the probability gap; more steps shrink the error."""
    gateway = build_gateway("toy:7")

    def completeness_error(inst, steps):
        out = gateway.predict(inst)
        anchor = int(np.argmax(out.start_scores))
        blank = gateway.predict(mask_all(inst, gateway.baseline_token))
        gap = float(out.start_scores[anchor]) - float(blank.start_scores[anchor])
        config = SaliencyConfig(
            method="integrated_gradients", ig_steps=steps, summarizer="dot"
        )
        return abs(sum(ig_saliency(gateway, inst, config).scores) - gap)

    fine = [completeness_error(inst, 2048) for inst in corpus]
    coarse = [completeness_error(inst, 64) for inst in corpus]
    assert len(corpus) == 20
    assert all(err <= 1e-3 for err in fine)
    improved = sum(c > f for c, f in zip(coarse, fine))
    assert improved >= 18
    print(
        f"ig completeness: max error {max(fine):.2e} at 2048 steps, "
        f"64-step error larger on {improved}/20"
    )


def test_04_analytic_gradients_match_central_differences():
    """Toy-model gradients agree with central finite differences."""
    instances = make_synthetic_corpus(100, seed=44)
    gateway = build_gateway("toy:7")
    h = 1e-5
    worst = 0.0
    for inst in instances:
        embeddings = gateway.embed(inst)
        out = gateway.predict(inst)
        target = int(np.argmax(out.start_scores))
        analytic = gateway.grad_start(inst, embeddings, target)
        numeric = np.zeros_like(embeddings)
        for i in range(embeddings.shape[0]):
            for j in range(embeddings.shape[1]):
                up = embeddings.copy()
                up[i, j] += h
                down = embeddings.copy()
                down[i, j] -= h
                f_up = gateway._distributions(up, inst.n_question)[0][target]
                f_down = gateway._distributions(down, inst.n_question)[0][target]
                numeric[i, j] = (f_up - f_down) / (2 * h)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    assert worst <= 1e-4
    print(f"gradient check: worst per-coordinate gap {worst:.2e} over 100 instances")


def test_05_welch_test_matches_integration_oracle():
    """t, df, and p agree with an arbitrary-precision integral oracle."""
    result = t_test_one_tailed([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
    assert round(result.t_statistic, 3) == 4.899
    assert result.degrees_of_freedom == 4.0
    assert round(result.p_value, 4) == 0.0040

    rng = random.Random(20250814)
    worst = 0.0
    for _ in range(100):
        scale = 10 ** rng.uniform(-2, 2)
        shift = rng.uniform(-5, 5)
        positive = [shift + scale * rng.gauss(0.5, 1) for _ in range(rng.randint(2, 30))]
        negative = [shift + scale * rng.gauss(0.0, 1) for _ in range(rng.randint(2, 30))]
        got = t_test_one_tailed(positive, negative)
        t_ref, df_ref, p_ref = oracle_welch(positive, negative)
        assert got.t_statistic == pytest.approx(t_ref, rel=1e-6, abs=1e-6)
        assert got.degrees_of_freedom == pytest.approx(df_ref, rel=1e-6, abs=1e-6)
        assert got.p_value == pytest.approx(p_ref, abs=1e-6)
        worst = max(worst, abs(got.p_value - p_ref))
    print(f"welch oracle: worst |p - p_ref| {worst:.2e} over 100 sample pairs")


def test_06_random_partition_significance_stays_calibrated():
    """Random matched-size partitions are almost never significant."""
    instances = make_synthetic_corpus(200, seed=6)
    gateway = build_gateway("toy:7")
    config = SaliencyConfig(method="occlusion")
    started = time.perf_counter()
    report = calibrate(instances, gateway, config, n_partitions=1, seed=0, alpha=0.05)
    elapsed = time.perf_counter() - started
    assert report.n_draws == 200
    assert report.rate <= 0.10
    assert elapsed < 60.0
    print(
        f"calibration: rate {report.rate:.3f} "
        f"(CI {report.ci_low:.3f}..{report.ci_high:.3f}) in {elapsed:.1f}s"
    )


# comparison fixtures whose first-choice antonyms point back at each other,
# so applying the swap twice must restore the original byte for byte
SYMMETRIC_IDS = ("cmp-01", "cmp-03", "cmp-05", "cmp-06", "cmp-07", "cmp-08")


def test_07_counterfactual_round_trip_and_frequency_dummy(corpus, corpus_by_id):
    table = ANTONYM_TABLES["in_dist"]
    for instance_id in SYMMETRIC_IDS:
        inst = corpus_by_id[instance_id]
        once = perturb_comparison(inst, table=table)
        twice = perturb_comparison(once.perturbed, table=table)
        restored = twice.perturbed
        assert restored.question_text == inst.question_text
        assert [t.text for t in restored.question] == [t.text for t in inst.question]
        for got, want in zip(restored.context, inst.context):
            assert [t.text for t in got.tokens] == [t.text for t in want.tokens]
        assert [a.text for a in restored.gold_answers] == [a.text for a in inst.gold_answers]
        assert [(a.token_start, a.token_end) for a in restored.gold_answers] == [
            (a.token_start, a.token_end) for a in inst.gold_answers
        ]

    generated = 0
    for tag in ANTONYM_TABLES:
        for inst in corpus:
            if inst.skill != "comparison":
                continue
            pair = perturb_comparison(inst, table=ANTONYM_TABLES[tag])
            assert validate_cf(pair) == []
            generated += 1
    assert generated == 20

    pairs = load_cf_pairs(coref_cf_pairs_path(), corpus)
    accuracy = cf_accuracy(build_gateway("frequency"), pairs)
    assert accuracy.both_correct == 0.0
    print(
        f"counterfactuals: {len(SYMMETRIC_IDS)} round trips exact, "
        f"{generated}/{generated} pairs valid, frequency dummy both-correct 0%"
    )


class _ToggleGateway(ModelGateway):
    """Answers with a fixed span per instance id; no other capabilities."""

    def __init__(self, spans: dict[str, tuple[int, int]]) -> None:
        self._spans = spans

    @property
    def model_id(self) -> str:
        return "toggle-test"

    def predict(self, instance) -> ModelOutput:
        start_idx, end_idx = self._spans[instance.id]
        start = np.zeros(instance.n_context)
        end = np.zeros(instance.n_context)
        start[start_idx] = 1.0
        end[end_idx] = 1.0
        return ModelOutput(
            start_scores=start,
            end_scores=end,
            predicted_span=answer_span(instance, start_idx, end_idx),
        )


def _wrong_span(instance) -> tuple[int, int]:
    golds = [a.text for a in instance.gold_answers]
    for k in range(instance.n_context):
        if not exact_match(span_text(instance, k, k), golds):
            return (k, k)
    raise AssertionError(f"{instance.id}: every single token matches the gold answer")


def test_08_alignment_verdict_arithmetic(tmp_path):
    """Engineered audit scores exactly 2/3; aligned always implies both-correct."""
    fixture = make_engineered_alignment(tmp_path)
    instances = load_jsonl(fixture["corpus"])
    pairs = load_cf_pairs(fixture["pairs"], instances)
    gateway = build_gateway(f"scripted:{fixture['script']}")
    report = audit_alignment(gateway, pairs, SaliencyConfig(method="occlusion"))
    assert report.score == 2 / 3
    assert {r.instance_id: r.aligned for r in report.records} == fixture["aligned"]

    pair = next(p for p in pairs if p.original.id == "a01")
    original, twin = pair.original, pair.perturbed
    partition = build_skill_partition(original)
    answers = (original.gold_answers[0].text, span_text(original, *_wrong_span(original)))
    twin_gold = twin.gold_answers[0]
    twin_spans = ((twin_gold.token_start, twin_gold.token_end), _wrong_span(twin))
    n_words = original.n_question + original.n_context
    boosted = [original.n_question + i for i in sorted(partition.positive)]

    rng = random.Random(814)
    counts = {"aligned": 0, "significant_only": 0, "both_correct_only": 0}
    for _ in range(1000):
        scores = [0.01 * rng.gauss(0, 1) for _ in range(n_words)]
        if rng.random() < 0.5:
            for i in boosted:
                scores[i] += 0.6
        # the original's answer comes from the map; the gateway knows only the twin
        saliency = SaliencyMap(
            instance_id=original.id,
            scope="all",
            scores=tuple(scores),
            method="occlusion",
            config_hash="acceptance",
            model_id="toggle-test",
            anchor_position=0,
            predicted_answer=answers[rng.random() >= 0.5],
            n_question=original.n_question,
        )
        gateway = _ToggleGateway({twin.id: twin_spans[rng.random() >= 0.5]})
        record = explanation_alignment(pair, saliency, partition, gateway)
        assert record.aligned == (record.cf_both_correct and record.significance.significant)
        if record.aligned:
            assert record.cf_both_correct
            counts["aligned"] += 1
        elif record.significance.significant:
            counts["significant_only"] += 1
        elif record.cf_both_correct:
            counts["both_correct_only"] += 1
    assert all(n >= 40 for n in counts.values()), counts
    print(f"alignment verdicts: score 2/3 exact; 1000 randomized records, {counts}")


def test_09_answer_metrics_exactness():
    assert token_f1("in Germany", ["Germany"]) == 2 / 3

    rng = random.Random(99)
    letters = "abcdefghijklmnopqrstuvwxyz"

    def word() -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))

    def phrase() -> str:
        return " ".join(word() for _ in range(rng.randint(1, 5)))

    matches = 0
    for _ in range(1000):
        gold = phrase()
        if rng.random() < 0.5:
            pred = gold
            if rng.random() < 0.5:
                pred = pred.upper()
            if rng.random() < 0.5:
                pred = "the " + pred
            if rng.random() < 0.5:
                pred = pred + "!"
            if rng.random() < 0.5:
                pred = "  " + pred.replace(" ", "   ")
        else:
            pred = phrase()
        if exact_match(pred, [gold]):
            matches += 1
            assert token_f1(pred, [gold]) == 1.0
    assert matches >= 300
    print(f"metrics: f1('in Germany') = 2/3 exact; EM => F1=1 on {matches} matching pairs")


def test_10_heuristic_pipeline_is_deterministic(corpus):
    frozen = json.loads((DATA_DIR / "heuristic_expected.json").read_text())
    for strategy in SELECTION_STRATEGIES:
        answers = {inst.id: heuristic_answer(inst, strategy) for inst in corpus}
        block = frozen["strategies"][strategy]
        assert answers == block["answers"]
        result = evaluate_dataset(answers, corpus)
        assert result.exact_match == block["exact_match"]
        assert round(result.f1, 10) == block["f1"]
    for inst in corpus:
        sentences = [s.text for s in inst.context]
        assert select_sentence(inst.question_text, sentences, "position") == 0
    ems = {s: frozen["strategies"][s]["exact_match"] for s in SELECTION_STRATEGIES}
    print(f"heuristic determinism: snapshots reproduced, em={ems}, position -> sentence 0")


def test_11_skill_partitions_color_reference_questions(corpus_by_id):
    comparison = build_skill_partition(corpus_by_id["cmp-02"])
    question = corpus_by_id["cmp-02"].question
    assert {question[i].text for i in comparison.positive} == {"more", "recently"}

    coref = build_skill_partition(corpus_by_id["cor-01"])
    context_tokens = corpus_by_id["cor-01"].context_tokens
    assert {context_tokens[i].text for i in coref.positive} == {"Barack", "Obama", "He"}
    print("partition fidelity: {more, recently} and {Barack, Obama, He} positive")


def test_12_remote_gateway_cli_pathway_emits_report_csvs(tmp_path):
    """A remote model drives `evaluate` and `align` into well-shaped CSVs."""
    endpoint = f"{shlex.quote(sys.executable)} -m rcaudit.gateway.remote --model toy:7"
    model = f"remote:{endpoint}"
    corpus_path = str(fixture_corpus_path())

    eval_out = tmp_path / "eval"
    code = cli_main(
        ["evaluate", "--dataset", corpus_path, "--model", model, "--out", str(eval_out)]
    )
    assert code == 0
    rows = (eval_out / "summary.csv").read_text().splitlines()
    assert rows[0] == "model,skill,n,exact_match,f1"
    cells = [row.split(",") for row in rows[1:]]
    assert [c[1] for c in cells] == ["comparison", "coreference", "all"]
    for c in cells:
        assert c[0] == "toy:7"
        assert int(c[2]) > 0
        assert 0.0 <= float(c[3]) <= 1.0 and 0.0 <= float(c[4]) <= 1.0

    align_out = tmp_path / "align"
    code = cli_main(
        [
            "align", "--dataset", corpus_path, "--model", model,
            "--cf-file", str(coref_cf_pairs_path()), "--out", str(align_out),
        ]
    )
    assert code == 0
    header, row = (align_out / "alignment.csv").read_text().splitlines()
    columns = header.split(",")
    assert columns[0] == "model"
    assert columns[1:] == [
        "occlusion:comparison_operation",
        "occlusion:coreference_resolution",
    ]
    values = row.split(",")
    assert values[0] == "toy:7"
    for cell in values[1:]:
        if cell:
            assert 0.0 <= float(cell) <= 100.0
    print("full-scale pathway: remote evaluate and align CSVs have the reported shape")
