"""Gateway tests: span decoding, the reference model's gradients, baselines."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcaudit.errors import GatewayError, InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import (
    ModelOutput,
    check_output,
    decode_span,
    embed,
    grad_start_batch,
    predict,
    span_text,
)
from rcaudit.gateway.baselines import FrequencyBaselineModel, GoldOracleModel
from rcaudit.gateway.scripted import ScriptedModel
from rcaudit.gateway.toy import ReferenceToyModel
from rcaudit.synthetic import make_synthetic_corpus

from conftest import build_instance


def brute_force_decode(start, end, max_answer_len=30):
    """Independent O(n^2) oracle for the span decoder."""
    best, best_score = None, -np.inf
    n = len(start)
    for i in range(n):
        for j in range(i, min(i + max_answer_len, n)):
            score = start[i] + end[j]
            if score > best_score:
                best, best_score = (i, j), score
    return best


class TestDecode:
    def test_matches_brute_force_on_random_scores(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            start, end = rng.random(n), rng.random(n)
            max_len = int(rng.integers(1, 35))
            assert decode_span(start, end, max_len) == brute_force_decode(start, end, max_len)

    def test_ties_break_to_earliest_pair(self):
        start = np.array([0.5, 0.5])
        end = np.array([0.5, 0.5])
        assert decode_span(start, end) == (0, 0)

    def test_max_answer_len_is_enforced(self):
        start = np.array([1.0, 0.0, 0.0])
        end = np.array([0.0, 0.0, 1.0])
        assert decode_span(start, end, max_answer_len=2) != (0, 2)
        assert decode_span(start, end, max_answer_len=3) == (0, 2)

    def test_end_before_start_never_returned(self):
        start = np.array([0.0, 1.0])
        end = np.array([1.0, 0.0])
        i, j = decode_span(start, end)
        assert i <= j


class TestToyModel:
    def test_distributions_are_proper(self):
        gateway = ReferenceToyModel(seed=3)
        inst = make_synthetic_corpus(1, seed=5)[0]
        out = predict(gateway, inst)
        assert out.start_scores.shape == (inst.n_context,)
        assert np.isclose(out.start_scores.sum(), 1.0)
        assert np.isclose(out.end_scores.sum(), 1.0)
        assert (out.start_scores > 0).all()

    def test_same_seed_reproduces_everything(self):
        inst = make_synthetic_corpus(1, seed=8)[0]
        a = ReferenceToyModel(seed=4).predict(inst)
        b = ReferenceToyModel(seed=4).predict(inst)
        assert np.array_equal(a.start_scores, b.start_scores)
        assert a.predicted_span == b.predicted_span

    def test_different_seeds_differ(self):
        inst = make_synthetic_corpus(1, seed=8)[0]
        a = ReferenceToyModel(seed=4).predict(inst)
        b = ReferenceToyModel(seed=5).predict(inst)
        assert not np.array_equal(a.start_scores, b.start_scores)

    def test_analytic_gradient_matches_finite_differences(self):
        gateway = ReferenceToyModel(seed=2)
        instances = make_synthetic_corpus(10, seed=13)
        h = 1e-5
        for inst in instances:
            emb = gateway.embed(inst)
            target = int(np.argmax(gateway.predict(inst).start_scores))
            grad = gateway.grad_start(inst, emb, target)
            fd = np.zeros_like(emb)
            for i in range(emb.shape[0]):
                for j in range(emb.shape[1]):
                    up, down = emb.copy(), emb.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    p_up = gateway._distributions(up, inst.n_question)[0][target]
                    p_down = gateway._distributions(down, inst.n_question)[0][target]
                    fd[i, j] = (p_up - p_down) / (2 * h)
            assert np.abs(grad - fd).max() < 1e-4

    def test_zero_interaction_matrix_gives_zero_gradient(self):
        gateway = ReferenceToyModel(seed=2)
        gateway._m_start = np.zeros_like(gateway._m_start)
        inst = make_synthetic_corpus(1, seed=3)[0]
        emb = gateway.embed(inst)
        grad = gateway.grad_start(inst, emb, 0)
        assert np.abs(grad).max() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(1, 24),
        k=st.integers(1, 9),
        instance_seed=st.integers(0, 50),
        scale=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_default_batch_equals_stacked_single_points(self, seed, dim, k, instance_seed, scale):
        gateway = ReferenceToyModel(seed=seed, embedding_dim=dim)
        inst = make_synthetic_corpus(1, seed=instance_seed)[0]
        emb = gateway.embed(inst)
        rng = np.random.default_rng(seed + k)
        points = np.stack([emb + scale * rng.standard_normal(emb.shape) for _ in range(k)])
        target = int(rng.integers(inst.n_context))
        batch = gateway.grad_start_batch(inst, points, target)
        single = np.stack([gateway.grad_start(inst, point, target) for point in points])
        assert batch.shape == points.shape
        assert batch.tobytes() == single.tobytes()

    def test_embedding_rows_are_unit_norm(self):
        gateway = ReferenceToyModel(seed=0)
        inst = make_synthetic_corpus(1, seed=1)[0]
        emb = gateway.embed(inst)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)


class TestOutputValidation:
    def test_badly_normalized_scores_rejected(self):
        inst = build_instance("v-1", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        n = inst.n_context
        start = np.full(n, 0.5)
        end = np.full(n, 1.0 / n)
        out = ModelOutput(start, end, inst.gold_answers[0])
        with pytest.raises(GatewayError, match="sum"):
            check_output(inst, out)

    def test_wrong_length_rejected(self):
        inst = build_instance("v-2", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        out = ModelOutput(np.array([1.0]), np.array([1.0]), inst.gold_answers[0])
        with pytest.raises(GatewayError, match="shape"):
            check_output(inst, out)

    def test_all_nan_scores_rejected_naming_the_instance(self):
        class NanStart(GoldOracleModel):
            def predict(self, instance):
                out = super().predict(instance)
                return ModelOutput(
                    np.full(instance.n_context, np.nan), out.end_scores, out.predicted_span
                )

        inst = build_instance("v-5", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        with pytest.raises(GatewayError, match="v-5: start scores outside"):
            predict(NanStart(), inst)

    def test_predict_wrapper_names_instance_on_failure(self):
        class Exploding(GoldOracleModel):
            def predict(self, instance):
                raise RuntimeError("boom")

        inst = build_instance("v-3", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        with pytest.raises(GatewayError, match="v-3"):
            predict(Exploding(), inst)

    def test_embed_and_gradients_are_checked_naming_the_instance(self):
        class Faulty(ReferenceToyModel):
            def __init__(self, fault):
                super().__init__(seed=1)
                self.fault = fault

            def embed(self, instance):
                emb = super().embed(instance)
                return emb[1:] if self.fault == "short" else emb

            def grad_start(self, instance, embeddings, target_position):
                grad = super().grad_start(instance, embeddings, target_position)
                if self.fault == "nan":
                    grad[0, 0] = np.nan
                if self.fault == "inf":
                    grad[-1, -1] = -np.inf
                return grad

            def grad_start_batch(self, instance, points, target_position):
                grads = super().grad_start_batch(instance, points, target_position)
                return grads[:-1] if self.fault == "drop" else grads

        inst = build_instance("v-6", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        emb = ReferenceToyModel(seed=1).embed(inst)
        points = np.stack([emb, emb / 2])
        assert embed(Faulty(None), inst).shape == (5, 16)
        assert grad_start_batch(Faulty(None), inst, points, 0).shape == (2, 5, 16)
        with pytest.raises(GatewayError, match=r"v-6: embeddings have shape \(4, 16\), want \(5, d\)"):
            embed(Faulty("short"), inst)
        for fault in ("nan", "inf"):
            with pytest.raises(GatewayError, match="v-6: gradients are not all finite"):
                grad_start_batch(Faulty(fault), inst, points, 0)
        with pytest.raises(GatewayError, match=r"v-6: gradients have shape \(1, 5, 16\)"):
            grad_start_batch(Faulty("drop"), inst, points, 0)

    def test_embed_wrapper_names_instance_on_failure(self):
        class Exploding(ReferenceToyModel):
            def embed(self, instance):
                raise RuntimeError("boom")

        inst = build_instance("v-7", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        with pytest.raises(GatewayError, match="v-7: gateway toy:0 failed: boom"):
            embed(Exploding(seed=0), inst)

    def test_span_text_joins_across_sentences_with_spaces(self):
        inst = build_instance(
            "v-4", "Who?", ["Ada wrote code.", "Lin read it."], gold=(0, "Ada")
        )
        assert span_text(inst, 2, 4) == "code. Lin"


class TestBaselines:
    def test_oracle_is_exactly_right_everywhere(self, corpus):
        gateway = GoldOracleModel()
        for inst in corpus:
            out = predict(gateway, inst)
            assert out.predicted_span.text == inst.gold_answers[0].text

    def test_frequency_picks_most_repeated_surface(self, corpus_by_id):
        inst = corpus_by_id["cor-03"]  # Elena Vasquez appears twice
        out = predict(FrequencyBaselineModel(), inst)
        assert out.predicted_span.text == "Elena Vasquez"

    def test_frequency_tie_breaks_to_earliest(self):
        inst = build_instance(
            "b-1", "Who?", ["Oslo greeted Bergen warmly."], gold=(0, "Oslo")
        )
        out = predict(FrequencyBaselineModel(), inst)
        assert out.predicted_span.text == "Oslo"

    def test_frequency_without_runs_falls_back(self):
        inst = build_instance("b-2", "what now?", ["just lowercase words here."], gold=(0, "just"))
        out = predict(FrequencyBaselineModel(), inst)
        assert out.predicted_span.token_start == 0


class TestScripted:
    def make_script(self, tmp_path, inst, sensitivity=None, base=0.9):
        gold = inst.gold_answers[0]
        entry = {"answer": [gold.token_start, gold.token_end], "base": base}
        if sensitivity is not None:
            entry["sensitivity"] = sensitivity
        script = {"name": "unit", "instances": {inst.id: entry}}
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        return path

    def test_replays_scripted_span(self, tmp_path):
        inst = build_instance("s-1", "Who wrote?", ["Ada Lovelace wrote."], gold=(0, "Ada Lovelace"))
        path = self.make_script(tmp_path, inst)
        gateway = ScriptedModel(path)
        out = predict(gateway, inst)
        assert out.predicted_span.text == "Ada Lovelace"
        assert out.start_scores[inst.gold_answers[0].token_start] == pytest.approx(0.9)

    def test_masked_word_drops_probability_by_sensitivity(self, tmp_path):
        from rcaudit.masking import mask_word

        inst = build_instance("s-2", "Who wrote?", ["Ada Lovelace wrote."], gold=(0, "Ada Lovelace"))
        n_words = inst.n_question + inst.n_context
        sensitivity = [0.0] * n_words
        sensitivity[inst.n_question + 2] = 0.25  # the word "wrote"
        path = self.make_script(tmp_path, inst, sensitivity)
        gateway = ScriptedModel(path)
        masked = mask_word(inst, inst.n_question + 2, gateway.baseline_token)
        peak = inst.gold_answers[0].token_start
        drop = gateway.predict(inst).start_scores[peak] - gateway.predict(masked).start_scores[peak]
        assert drop == pytest.approx(0.25)

    def test_missing_entry_is_gateway_error(self, tmp_path):
        inst = build_instance("s-3", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        path = self.make_script(tmp_path, inst)
        other = build_instance("s-other", "Who?", ["Lin read."], gold=(0, "Lin"))
        with pytest.raises(GatewayError, match="s-other"):
            ScriptedModel(path).predict(other)

    def test_sensitivity_length_is_checked(self, tmp_path):
        inst = build_instance("s-4", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        path = self.make_script(tmp_path, inst, sensitivity=[0.0, 0.0])
        from rcaudit.masking import mask_word

        masked = mask_word(inst, 0, "[MASK]")
        with pytest.raises(GatewayError, match="length"):
            ScriptedModel(path).predict(masked)


class TestFactory:
    def test_toy_spec_with_seed_and_dim(self):
        gateway = build_gateway("toy:9:8")
        assert gateway.model_id == "toy:9:8"
        assert build_gateway("toy:9:16").model_id == "toy:9"
        inst = make_synthetic_corpus(1, seed=2)[0]
        assert gateway.embed(inst).shape[1] == 8

    def test_named_baselines(self):
        assert build_gateway("oracle").model_id == "oracle"
        assert build_gateway("frequency").model_id == "frequency"

    def test_unknown_spec_rejected(self):
        with pytest.raises(InputError):
            build_gateway("quantum:3")
