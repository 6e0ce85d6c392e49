"""Saliency engine: occlusion vs a hand-rolled oracle, IG closed forms, cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import build_instance
from oracle_helpers import LinearStartGateway, oracle_occlusion
from rcaudit.errors import GatewayError, InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import ModelGateway
from rcaudit.masking import mask_all
from rcaudit.saliency import (
    SaliencyCache,
    SaliencyConfig,
    SaliencyMap,
    compute_saliency,
    ig_saliency,
    occlusion_saliency,
    scope_scores,
    summarize,
)
from rcaudit.synthetic import make_synthetic_corpus


class CountingGateway(ModelGateway):
    """Wraps another gateway and counts calls to predict and integrated_gradients."""

    def __init__(self, inner: ModelGateway) -> None:
        self.inner = inner
        self.calls = 0

    @property
    def model_id(self) -> str:
        return self.inner.model_id

    @property
    def baseline_token(self) -> str:
        return self.inner.baseline_token

    def predict(self, instance):
        self.calls += 1
        return self.inner.predict(instance)

    def integrated_gradients(self, instance, steps, target_position):
        self.calls += 1
        return self.inner.integrated_gradients(instance, steps, target_position)


class TestOcclusion:
    def test_matches_independent_two_pass_oracle(self):
        gateway = build_gateway("toy:5")
        for inst in make_synthetic_corpus(25, seed=11):
            saliency = occlusion_saliency(gateway, inst)
            anchor, scores = oracle_occlusion(gateway, inst)
            assert saliency.anchor_position == anchor
            assert list(saliency.scores) == scores  # bit-identical, not approx
            assert len(saliency.scores) == inst.n_question + inst.n_context
            assert saliency.n_question == inst.n_question

    def test_scripted_sensitivities_are_recovered_exactly(self, tmp_path):
        inst = build_instance(
            "sal-1",
            "Who carried the lantern?",
            ["Mira Solis carried the lantern.", "The night was cold."],
            gold=(0, "Mira Solis"),
        )
        n_words = inst.n_question + inst.n_context
        sensitivity = [round(0.01 * (k + 1), 4) for k in range(n_words)]
        script = {
            "name": "sal",
            "instances": {"sal-1": {"answer": [0, 1], "base": 0.9, "sensitivity": sensitivity}},
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        saliency = occlusion_saliency(build_gateway(f"scripted:{path}"), inst)
        assert list(saliency.scores) == pytest.approx(sensitivity, abs=1e-12)

    def test_a_map_costs_two_gateway_calls(self, corpus):
        class BatchCounting(CountingGateway):
            def masked_start_scores(self, instance):
                self.calls += 1
                return self.inner.masked_start_scores(instance)

        for inst in corpus[:3]:
            gateway = BatchCounting(build_gateway("toy:7"))
            saliency = occlusion_saliency(gateway, inst)
            assert gateway.calls == 2  # predict, then masked_start_scores
            assert saliency == occlusion_saliency(build_gateway("toy:7"), inst)

    def test_position_locked_model_scores_zero_everywhere(self, corpus):
        gateway = build_gateway("oracle")
        saliency = occlusion_saliency(gateway, corpus[0])
        assert set(saliency.scores) == {0.0}


class TestIntegratedGradients:
    def test_linear_model_has_closed_form(self, corpus):
        gateway = LinearStartGateway()
        for inst in corpus[:4]:
            embeddings = gateway.embed(inst)
            baseline = gateway.embed(mask_all(inst, gateway.baseline_token))
            grad = gateway.constant_grad(embeddings.shape[0])
            expected = ((embeddings - baseline) * grad).sum(axis=1)
            for m in (1, 5, 50):
                config = SaliencyConfig(
                    method="integrated_gradients", ig_steps=m, summarizer="dot"
                )
                saliency = ig_saliency(gateway, inst, config)
                assert np.max(np.abs(np.asarray(saliency.scores) - expected)) <= 1e-9

    def test_completeness_against_probability_difference(self, corpus):
        gateway = build_gateway("toy:7")
        for inst in corpus[:3]:
            out = gateway.predict(inst)
            anchor = int(np.argmax(out.start_scores))
            blank = gateway.predict(mask_all(inst, gateway.baseline_token))
            target_gap = float(out.start_scores[anchor]) - float(blank.start_scores[anchor])
            config = SaliencyConfig(method="integrated_gradients", ig_steps=2048, summarizer="dot")
            saliency = ig_saliency(gateway, inst, config)
            assert abs(sum(saliency.scores) - target_gap) <= 1e-3

    def test_more_steps_shrink_completeness_error(self, corpus):
        gateway = build_gateway("toy:7")
        inst = corpus[0]
        out = gateway.predict(inst)
        anchor = int(np.argmax(out.start_scores))
        blank = gateway.predict(mask_all(inst, gateway.baseline_token))
        target_gap = float(out.start_scores[anchor]) - float(blank.start_scores[anchor])

        def err(steps):
            config = SaliencyConfig(
                method="integrated_gradients", ig_steps=steps, summarizer="dot"
            )
            return abs(sum(ig_saliency(gateway, inst, config).scores) - target_gap)

        assert err(64) > err(2048)

    def test_summarizer_changes_scores_not_anchor(self, corpus):
        gateway = build_gateway("toy:7")
        inst = corpus[0]
        by_kind = {
            kind: ig_saliency(
                gateway,
                inst,
                SaliencyConfig(method="integrated_gradients", ig_steps=8, summarizer=kind),
            )
            for kind in ("l2", "l1", "dot")
        }
        anchors = {s.anchor_position for s in by_kind.values()}
        assert len(anchors) == 1
        assert all(s >= 0 for s in by_kind["l2"].scores)
        assert all(s >= 0 for s in by_kind["l1"].scores)
        assert by_kind["l1"].scores != by_kind["l2"].scores


    @pytest.mark.parametrize("steps", [1, 7, 40])
    def test_chunked_path_equals_one_point_at_a_time(self, corpus, steps):
        """The map equals a hand-written sum over the path, one point at a time."""
        gateway = build_gateway("toy:7")
        config = SaliencyConfig(method="integrated_gradients", ig_steps=steps)
        for inst in corpus[:3]:
            anchor = int(np.argmax(gateway.predict(inst).start_scores))
            embeddings = gateway.embed(inst)
            baseline = gateway.embed(mask_all(inst, gateway.baseline_token))
            delta = embeddings - baseline
            total = np.zeros_like(embeddings)
            for j in range(1, steps + 1):
                total += gateway.grad_start(inst, baseline + (j / steps) * delta, anchor)
            expected = tuple(float(np.linalg.norm(row)) for row in delta * (total / steps))
            assert ig_saliency(gateway, inst, config).scores == expected

    def test_faulty_gradients_and_embeddings_are_rejected(self, corpus):
        class NanGrads(CountingGateway):
            def integrated_gradients(self, instance, steps, target_position):
                emb, base, total = super().integrated_gradients(instance, steps, target_position)
                return emb, base, np.full_like(total, np.nan)

        class NarrowBaseline(CountingGateway):
            def integrated_gradients(self, instance, steps, target_position):
                emb, base, total = super().integrated_gradients(instance, steps, target_position)
                return emb, base[:, :-1], total

        class InfiniteSum(CountingGateway):
            def integrated_gradients(self, instance, steps, target_position):
                emb, base, total = super().integrated_gradients(instance, steps, target_position)
                total[-1, 0] = np.inf
                return emb, base, total

        inst = corpus[0]
        config = SaliencyConfig(method="integrated_gradients", ig_steps=4)
        with pytest.raises(GatewayError, match=f"{inst.id}: gradients are not all finite"):
            ig_saliency(NanGrads(build_gateway("toy:7")), inst, config)
        with pytest.raises(GatewayError, match=f"{inst.id}: gradients are not all finite"):
            ig_saliency(InfiniteSum(build_gateway("toy:7")), inst, config)
        with pytest.raises(GatewayError, match=f"{inst.id}: baseline embeddings have shape"):
            ig_saliency(NarrowBaseline(build_gateway("toy:7")), inst, config)


class TestSummarize:
    def test_worked_examples(self):
        assert summarize(np.array([3.0, 4.0]), "l2") == 5.0
        assert summarize(np.array([3.0, -4.0]), "l1") == 7.0
        assert summarize(np.array([3.0, -4.0]), "dot") == -1.0

    def test_rejects_empty_and_unknown(self):
        with pytest.raises(InputError):
            summarize(np.array([]), "l2")
        with pytest.raises(InputError):
            summarize(np.array([1.0]), "max")


class TestScopeScores:
    def make_map(self, n_question=3, total=8):
        return SaliencyMap(
            instance_id="x",
            scores=tuple(float(i) for i in range(total)),
            method="occlusion",
            config_hash="abc",
            model_id="toy:0",
            anchor_position=0,
            predicted_answer="",
            n_question=n_question,
        )

    def test_slices_question_and_context(self):
        full = self.make_map()
        assert scope_scores(full, "question_tokens") == (0.0, 1.0, 2.0)
        assert scope_scores(full, "context_tokens") == (3.0, 4.0, 5.0, 6.0, 7.0)
        assert scope_scores(full, "all") is full.scores

    def test_empty_slice_is_an_error(self):
        no_question = self.make_map(n_question=0)
        with pytest.raises(InputError, match="x: no scores in scope question_tokens"):
            scope_scores(no_question, "question_tokens")


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SaliencyConfig(method="lime")
        with pytest.raises(InputError):
            SaliencyConfig(summarizer="max")
        with pytest.raises(InputError):
            SaliencyConfig(method="integrated_gradients", ig_steps=0)

    def test_hash_tracks_settings(self):
        a = SaliencyConfig(method="integrated_gradients", ig_steps=50)
        b = SaliencyConfig(method="integrated_gradients", ig_steps=64)
        c = SaliencyConfig(method="integrated_gradients", ig_steps=50, summarizer="dot")
        assert len({a.config_hash, b.config_hash, c.config_hash}) == 3
        assert a.config_hash == SaliencyConfig(method="integrated_gradients", ig_steps=50).config_hash
        assert a.config_hash != SaliencyConfig(method="occlusion", ig_steps=50).config_hash


class TestCache:
    def test_get_or_compute_hits_after_first_call(self, corpus):
        gateway = CountingGateway(build_gateway("toy:7"))
        cache = SaliencyCache()
        config = SaliencyConfig(method="occlusion")
        inst = corpus[0]
        first = cache.get_or_compute(gateway, inst, config)
        calls = gateway.calls
        assert calls == 1 + inst.n_question + inst.n_context
        second = cache.get_or_compute(gateway, inst, config)
        assert gateway.calls == calls  # no recomputation
        assert second is first
        assert len(cache) == 1

    def test_occlusion_hits_whatever_the_settings_it_does_not_read(self, corpus):
        config = SaliencyConfig(method="occlusion", summarizer="dot", ig_steps=7)
        assert config.config_hash == SaliencyConfig(method="occlusion").config_hash
        gateway = CountingGateway(build_gateway("toy:7"))
        cache = SaliencyCache()
        first = cache.get_or_compute(gateway, corpus[0], config)
        calls = gateway.calls
        assert cache.get_or_compute(gateway, corpus[0], config) is first
        assert gateway.calls == calls

    def test_edited_words_under_the_same_id_are_recomputed(self, tmp_path):
        def version(word):
            return build_instance(
                "same-id", "Who wrote the code?", [f"Ada wrote the {word}."], gold=(0, "Ada")
            )

        first, edited = version("code"), version("poem")
        gateway = CountingGateway(build_gateway("toy:7"))
        cache = SaliencyCache()
        config = SaliencyConfig(method="occlusion")
        old_map = cache.get_or_compute(gateway, first, config)
        calls = gateway.calls
        new_map = cache.get_or_compute(gateway, edited, config)
        assert gateway.calls > calls  # a miss, not the stale map
        assert new_map == occlusion_saliency(build_gateway("toy:7"), edited)
        assert new_map.scores != old_map.scores
        assert cache.get("toy:7", config, first) is old_map
        assert cache.get("toy:7", config, edited) is new_map
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        loaded = SaliencyCache.load(path)
        assert loaded.get("toy:7", config, edited) == new_map
        assert loaded.get("toy:7", config, first) == old_map

    @staticmethod
    def assert_misses_without(tmp_path, corpus, field):
        """Records without `field`, as an older version wrote them, miss."""
        config = SaliencyConfig(method="occlusion")
        cache = SaliencyCache()
        for inst in corpus[:2]:
            cache.get_or_compute(build_gateway("toy:7"), inst, config)
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        dropped = [doc.pop(field) for doc in docs]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))  # an older version's file
        loaded = SaliencyCache.load(path)
        assert len(loaded) == 0
        gateway = CountingGateway(build_gateway("toy:7"))
        assert loaded.get_or_compute(gateway, corpus[0], config) == cache.get("toy:7", config, corpus[0])
        assert gateway.calls > 0
        return dropped

    def test_records_without_a_content_hash_are_misses(self, tmp_path, corpus):
        dropped = self.assert_misses_without(tmp_path, corpus, "content_hash")
        assert all(len(content) == 16 for content in dropped)

    def test_records_without_a_predicted_answer_are_misses(self, tmp_path, corpus):
        self.assert_misses_without(tmp_path, corpus, "predicted_answer")

    def test_toy_embedding_dim_is_part_of_the_model_key(self, corpus):
        cache = SaliencyCache()
        config = SaliencyConfig(method="occlusion")
        cache.get_or_compute(build_gateway("toy:7"), corpus[0], config)
        assert cache.get("toy:7", config, corpus[0]) is not None
        wide = build_gateway("toy:7:32")
        assert cache.get(wide.model_id, config, corpus[0]) is None

    def test_keys_separate_methods_and_models(self, corpus):
        gateway = build_gateway("toy:7")
        cache = SaliencyCache()
        inst = corpus[0]
        occ = SaliencyConfig(method="occlusion")
        ig = SaliencyConfig(method="integrated_gradients", ig_steps=4)
        cache.get_or_compute(gateway, inst, occ)
        cache.get_or_compute(gateway, inst, ig)
        assert len(cache) == 2
        assert cache.get("toy:7", occ, inst) is not None
        assert cache.get("toy:9", occ, inst) is None

    def test_file_round_trip_is_bit_identical(self, tmp_path, corpus):
        gateway = build_gateway("toy:7")
        cache = SaliencyCache()
        configs = (
            SaliencyConfig(method="occlusion"),
            SaliencyConfig(method="integrated_gradients", ig_steps=4),
        )
        for inst in corpus[:3]:
            for config in configs:
                cache.get_or_compute(gateway, inst, config)
        first = tmp_path / "cache.jsonl"
        cache.save(first)
        loaded = SaliencyCache.load(first)
        assert len(loaded) == len(cache) == 6
        for inst in corpus[:3]:
            for config in configs:
                saliency = cache.get("toy:7", config, inst)
                again = loaded.get("toy:7", config, inst)
                assert again is not None
                assert again.scores == saliency.scores  # exact float round trip
                assert again.anchor_position == saliency.anchor_position
                assert again.predicted_answer == saliency.predicted_answer
        second = tmp_path / "cache2.jsonl"
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_rejects_malformed_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"model_id": "toy:7"}\n')
        with pytest.raises(InputError, match="line 1"):
            SaliencyCache.load(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("scores", ["x"], "scores are not all finite numbers"),
            ("scores", [0.1, float("nan")], "scores are not all finite numbers"),
            ("scores", [float("-inf")], "scores are not all finite numbers"),
            ("scores", [True, 0.1], "scores are not all finite numbers"),
            ("scores", "0.1", "scores are not all finite numbers"),
            ("predicted_answer", 5, "predicted_answer is not a string"),
            ("predicted_answer", ["Ada"], "predicted_answer is not a string"),
            ("predicted_answer", None, "predicted_answer is not a string"),
            ("content_hash", ["h"], "content_hash is not a string"),
            ("instance_id", 7, "instance_id is not a string"),
            ("method", None, "method is not a string"),
            ("config_hash", {"h": 1}, "config_hash is not a string"),
            ("model_id", True, "model_id is not a string"),
            ("scores", [10**400], "int too large to convert to float"),
        ],
    )
    def test_load_rejects_bad_scores_and_answers(self, tmp_path, corpus, field, value, message):
        cache = SaliencyCache()
        for inst in corpus[:2]:
            cache.get_or_compute(build_gateway("toy:7"), inst, SaliencyConfig(method="occlusion"))
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc[field] = value
        path.write_text(f"{lines[0]}\n{json.dumps(doc)}\n")
        with pytest.raises(InputError) as info:
            SaliencyCache.load(path)
        assert str(info.value) == f"{path}: bad cache record on line 2: {message}"

    @pytest.mark.parametrize("line", ["{", '{"scores": [1]} x', "1" + "0" * 5000])
    def test_a_line_that_is_not_json_is_named_as_bad_json(self, tmp_path, line):
        with pytest.raises(ValueError) as expected:
            json.loads(line)
        path = tmp_path / "cache.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(InputError) as info:
            SaliencyCache.load(path)
        assert str(info.value) == f"{path}: bad JSON on line 2: {expected.value}"

    def test_maps_keep_the_answer_that_fixed_their_anchor(self, corpus):
        gateway = build_gateway("toy:7")
        inst = corpus[0]
        answer = gateway.predict(inst).predicted_span.text
        for config in (SaliencyConfig(), SaliencyConfig(method="integrated_gradients", ig_steps=4)):
            assert compute_saliency(gateway, inst, config).predicted_answer == answer

    def test_compute_saliency_dispatches_on_method(self, corpus):
        gateway = build_gateway("toy:7")
        inst = corpus[0]
        occ = compute_saliency(gateway, inst, SaliencyConfig(method="occlusion"))
        ig = compute_saliency(
            gateway, inst, SaliencyConfig(method="integrated_gradients", ig_steps=4)
        )
        assert occ.method == "occlusion"
        assert ig.method == "integrated_gradients"
