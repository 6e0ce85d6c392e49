"""Gateway tests: span decoding, the reference model's gradients, baselines."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcaudit.errors import CapabilityError, GatewayError, InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import (
    ModelGateway,
    ModelOutput,
    check_output,
    decode_span,
    integrated_gradients,
    masked_start_scores,
    predict,
    span_text,
)
from rcaudit.gateway.baselines import FrequencyBaselineModel, GoldOracleModel
from rcaudit.gateway.scripted import ScriptedModel
from rcaudit.gateway.toy import _INITIAL_TABLE_ROWS, ReferenceToyModel, _seed_words
from rcaudit.masking import mask_all, mask_word
from rcaudit.saliency import occlusion_saliency
from rcaudit.synthetic import make_synthetic_corpus
from rcaudit.text import spaced_starts
from rcaudit.types import AnswerSpan, RCInstance, Sentence

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


@np.errstate(invalid="ignore")  # inf + -inf; the suite turns RuntimeWarnings into errors
def loop_decode(start_scores, end_scores, max_answer_len=30):
    """The double loop decode_span ran before it became a banded argmax,
    kept verbatim as the reference: best starts at (-inf, 0, 0), so inputs
    where no pair beats -inf (all NaN, all -inf) decode to (0, 0)."""
    start = np.asarray(start_scores, dtype=float)
    end = np.asarray(end_scores, dtype=float)
    n = start.shape[0]
    best = (-np.inf, 0, 0)
    for i in range(n):
        stop = min(n, i + max_answer_len)
        for j in range(i, stop):
            score = start[i] + end[j]
            if score > best[0]:
                best = (score, i, j)
    return best[1], best[2]


def seeded_unit_vector(seed, text, dim):
    """The toy model's word vector, computed from scratch."""
    digest = hashlib.sha256(f"{seed}\x00{text}".encode("utf-8")).digest()
    vec = np.random.default_rng(int.from_bytes(digest, "big")).standard_normal(dim)
    return vec / np.linalg.norm(vec)


# A coarse grid makes tied pair scores common; the specials cover NaN, both
# infinities (whose sum is NaN) and the signed zero.
DECODE_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, np.nan, np.inf, -np.inf])


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

    @settings(max_examples=400, deadline=None)
    @given(
        scores=st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.lists(DECODE_VALUES, min_size=n, max_size=n),
                st.lists(DECODE_VALUES, min_size=n, max_size=n),
            )
        ),
        max_len=st.integers(1, 40),
    )
    # No pair above -inf: the loop keeps its initial (0, 0).
    @example(scores=([np.nan] * 7, [np.nan] * 7), max_len=3)
    @example(scores=([-np.inf] * 40, [-np.inf] * 40), max_len=30)
    # start[2] = inf meets both the -inf padding and its one real end, -inf:
    # every pair it starts is inf + -inf, which is NaN.
    @example(scores=([0.0, 0.0, np.inf], [0.5, 0.0, -np.inf]), max_len=3)
    def test_matches_the_loop_on_ties_and_non_finite_scores(self, scores, max_len):
        start, end = np.array(scores[0]), np.array(scores[1])
        got = decode_span(start, end, max_len)
        assert got == loop_decode(start, end, max_len)
        assert all(type(k) is int for k in got)

    def test_bad_inputs_are_rejected(self):
        with pytest.raises(InputError, match="equal-length"):
            decode_span(np.array([]), np.array([]))
        with pytest.raises(InputError, match="equal-length"):
            decode_span(np.ones(3), np.ones(2))
        with pytest.raises(InputError, match="max_answer_len"):
            decode_span(np.ones(3), np.ones(3), max_answer_len=0)


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
        steps=st.integers(1, 40),
        instance_seed=st.integers(0, 50),
        target_seed=st.integers(0, 2**16),
    )
    def test_integrated_gradients_equals_per_point_loop(
        self, seed, dim, steps, instance_seed, target_seed
    ):
        gateway = ReferenceToyModel(seed=seed, embedding_dim=dim)
        inst = make_synthetic_corpus(1, seed=instance_seed)[0]
        target = target_seed % inst.n_context
        embeddings = gateway.embed(inst)
        baseline = gateway.embed(mask_all(inst, gateway.baseline_token))
        delta = embeddings - baseline
        total = np.zeros_like(embeddings)
        for j in range(1, steps + 1):
            total += gateway.grad_start(inst, baseline + (j / steps) * delta, target)
        got = gateway.integrated_gradients(inst, steps, target)
        for have, want in zip(got, (embeddings, baseline, total)):
            assert have.shape == want.shape
            assert have.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([1, 2, 16, 33]),
        order=st.permutations(range(6)),
    )
    def test_embed_equals_stacked_word_vectors(self, seed, dim, order):
        # Six instances of 30-40 fresh words each outgrow the table's first
        # capacity, and their order decides which rows land before a regrowth.
        rng = np.random.default_rng(seed)
        instances = []
        for k in range(6):
            words = [f"w{k}x{int(rng.integers(10**6))}" for _ in range(int(rng.integers(30, 41)))]
            instances.append(
                build_instance(f"e-{k}", "Who wrote?", [" ".join(words) + "."], gold=(0, words[0]))
            )
        gateway = ReferenceToyModel(seed=seed, embedding_dim=dim)
        for k in list(order) + list(order):
            inst = instances[k]
            words = [t.text for t in inst.question] + [t.text for t in inst.context_tokens]
            want = np.stack([seeded_unit_vector(seed, w, dim) for w in words])
            got = gateway.embed(inst)
            assert got.shape == (len(words), dim)
            assert got.tobytes() == want.tobytes()
            assert gateway.word_embedding(words[-1]).tobytes() == want[-1].tobytes()
        assert len(gateway._rows) > _INITIAL_TABLE_ROWS

    def test_writing_into_results_leaves_the_table_alone(self):
        gateway = ReferenceToyModel(seed=0)
        inst = make_synthetic_corpus(1, seed=1)[0]
        first = gateway.embed(inst)
        before = first.copy()
        first[:] = 7.0
        gateway.word_embedding(inst.question[0].text)[:] = 7.0
        assert gateway.embed(inst).tobytes() == before.tobytes()

    def test_embedding_rows_are_unit_norm(self):
        gateway = ReferenceToyModel(seed=0)
        inst = make_synthetic_corpus(1, seed=1)[0]
        emb = gateway.embed(inst)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(digest=st.binary(min_size=32, max_size=32))
    @example(digest=bytes(4) + bytes(range(1, 29)))
    @example(digest=bytes(8) + bytes(range(1, 25)))
    @example(digest=bytes(28) + bytes(range(1, 5)))
    @example(digest=bytes(32))
    @example(digest=b"\x01" + bytes(31))
    def test_seed_words_seed_as_the_digests_integer(self, digest):
        """The word vectors are seeded with the digest's uint32 words
        instead of the integer it spells; the generator must not tell."""
        want = np.random.default_rng(int.from_bytes(digest, "big"))
        got = np.random.default_rng(_seed_words(digest))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.standard_normal(64).tobytes() == want.standard_normal(64).tobytes()


def stacked_masked_predictions(gateway, inst):
    """The definition of masked_start_scores: predict each masked variant."""
    return np.stack(
        [
            gateway.predict(mask_word(inst, k, gateway.baseline_token)).start_scores
            for k in range(inst.n_question + inst.n_context)
        ]
    )


def context_logits(gateway, inst):
    """The unmasked context start logits and the mask token's logit."""
    embeddings = gateway.embed(inst)
    m_q = gateway._m_start @ embeddings[: inst.n_question].mean(axis=0)
    mask = gateway.word_embedding(gateway.baseline_token)
    return embeddings[inst.n_question :] @ m_q, mask @ m_q


# Few words, so instances repeat them; "[MASK]" in text splits into three
# tokens, and `premasked` below puts the mask token itself in as a word.
MASK_VOCAB = ["Ada", "Lin", "wrote", "older", "1901", "the", "[MASK]"]


class TestMaskedStartScores:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([16, 32]),
        question=st.lists(st.sampled_from(MASK_VOCAB), min_size=1, max_size=6),
        sentences=st.lists(
            st.lists(st.sampled_from(MASK_VOCAB), min_size=1, max_size=12), min_size=1, max_size=3
        ),
        premasked=st.lists(st.integers(0, 10**6), max_size=3),
    )
    def test_toy_rows_equal_masked_predictions_bit_for_bit(
        self, seed, dim, question, sentences, premasked
    ):
        inst = build_instance(
            "ms-1",
            " ".join(question) + " ?",
            [" ".join(words) + " ." for words in sentences],
            gold=(0, sentences[0][0]),
        )
        for position in premasked:
            inst = mask_word(inst, position % (inst.n_question + inst.n_context))
        gateway = ReferenceToyModel(seed=seed, embedding_dim=dim)
        rows = gateway.masked_start_scores(inst)
        want = stacked_masked_predictions(gateway, inst)
        assert rows.shape == (inst.n_question + inst.n_context, inst.n_context)
        assert np.array_equal(rows, want)
        assert np.array_equal(masked_start_scores(gateway, inst), want)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([16, 32]),
        n_context=st.integers(30, 400),
        words_seed=st.integers(0, 2**16),
    )
    def test_toy_rows_equal_masked_predictions_on_long_contexts(
        self, seed, dim, n_context, words_seed
    ):
        rng = np.random.default_rng(words_seed)
        vocab = MASK_VOCAB + [f"w{i}" for i in range(40)]
        drawn = [vocab[i] for i in rng.integers(len(vocab), size=n_context)]
        cuts = list(range(0, n_context, 17)) + [n_context]
        context = tuple(
            Sentence(tuple(drawn[a:b]), spaced_starts(drawn[a:b])) for a, b in zip(cuts, cuts[1:])
        )
        question = [vocab[i] for i in rng.integers(len(vocab), size=int(rng.integers(1, 9)))]
        inst = RCInstance(
            id="ms-long",
            question_words=tuple(question),
            question_starts=spaced_starts(question),
            question_text=" ".join(question),
            context=context,
            gold_answers=(AnswerSpan(drawn[0], 0, 0, 0),),
        )
        gateway = ReferenceToyModel(seed=seed, embedding_dim=dim)
        assert np.array_equal(
            gateway.masked_start_scores(inst), stacked_masked_predictions(gateway, inst)
        )

    @pytest.mark.parametrize("case", ["maximum-masked", "mask-above-all", "one-context-word"])
    def test_rows_normalized_alone_equal_masked_predictions(self, case):
        """Context rows whose maximum is the unmasked maximum share one exp
        of the unmasked logits; the others are exponentiated alone: the row
        that masks the largest logit, every row when the mask's logit is
        above all unmasked ones, and the only row of a one-word context.
        Each case seeks a model seed that gives it."""
        sentences = ["Lin"] if case == "one-context-word" else ["Ada wrote the older 1901 ."]
        inst = build_instance("ms-2", "Who wrote ?", sentences, gold=(0, sentences[0].split()[0]))
        assert (inst.n_context == 1) == (case == "one-context-word")
        for seed in range(200):
            gateway = ReferenceToyModel(seed=seed)
            unmasked, masked = context_logits(gateway, inst)
            ordered = np.sort(unmasked)[::-1]
            if case == "maximum-masked":
                found = ordered[0] - max(ordered[1], masked) > 1e-6
            elif case == "mask-above-all":
                found = masked - ordered[0] > 1e-6
            else:
                found = True
            if found:
                break
        else:
            pytest.fail(f"no model seed below 200 gives the case {case}")
        rows = gateway.masked_start_scores(inst)
        assert np.array_equal(rows, stacked_masked_predictions(gateway, inst))

    def test_default_rows_are_masked_predictions(self, corpus, tmp_path):
        inst = corpus[0]
        n_words = inst.n_question + inst.n_context
        script = {"instances": {inst.id: {"answer": [0, 0], "sensitivity": [0.01] * n_words}}}
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        for gateway in (ScriptedModel(path), GoldOracleModel(), FrequencyBaselineModel()):
            assert "masked_start_scores" not in type(gateway).__dict__  # the default runs
            for case in corpus[:1] if isinstance(gateway, ScriptedModel) else corpus[:5]:
                want = stacked_masked_predictions(gateway, case)
                assert np.array_equal(gateway.masked_start_scores(case), want)
                assert np.array_equal(masked_start_scores(gateway, case), want)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nan", r"v-8: start scores with word 3 masked outside \[0,1\]"),
            ("range", r"v-8: start scores with word 1 masked outside \[0,1\]"),
            ("sum", "v-8: start scores with word 2 masked sum to 0.50000000, want 1"),
            ("shape", r"v-8: masked start scores have shape \(4, 3\), want \(5, 3\)"),
            ("raise", "v-8: gateway toy:1 failed: boom"),
        ],
    )
    def test_bad_rows_are_rejected_naming_the_instance(self, fault, message):
        class Faulty(ReferenceToyModel):
            def masked_start_scores(self, instance):
                rows = super().masked_start_scores(instance)
                if fault == "nan":
                    rows[3, 0] = np.nan
                elif fault == "range":
                    rows[1] = [1.5, -0.5, 0.0]
                elif fault == "sum":
                    rows[2] *= 0.5
                elif fault == "shape":
                    rows = rows[:-1]
                else:
                    raise RuntimeError("boom")
                return rows

        inst = build_instance("v-8", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        assert masked_start_scores(ReferenceToyModel(seed=1), inst).shape == (5, 3)
        with pytest.raises(GatewayError, match=message):
            masked_start_scores(Faulty(seed=1), inst)
        with pytest.raises(GatewayError, match=message):
            occlusion_saliency(Faulty(seed=1), inst)


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

    def test_integrated_gradients_output_is_checked_naming_the_instance(self):
        class Faulty(ReferenceToyModel):
            def __init__(self, fault):
                super().__init__(seed=1)
                self.fault = fault

            def integrated_gradients(self, instance, steps, target_position):
                emb, base, grads = super().integrated_gradients(instance, steps, target_position)
                if self.fault == "nan":
                    grads[0, 0] = np.nan
                if self.fault == "inf":
                    grads[-1, -1] = -np.inf
                if self.fault == "short":
                    emb = emb[1:]
                if self.fault == "drop":
                    grads = grads[:-1]
                return emb, base, grads[0] if self.fault == "row" else grads

        inst = build_instance("v-6", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        shapes = [a.shape for a in integrated_gradients(Faulty(None), inst, 2, 0)]
        assert shapes == [(5, 16)] * 3
        with pytest.raises(GatewayError, match=r"v-6: embeddings have shape \(4, 16\), want \(5, d\)"):
            integrated_gradients(Faulty("short"), inst, 2, 0)
        for fault in ("nan", "inf"):
            with pytest.raises(GatewayError, match="v-6: gradients are not all finite"):
                integrated_gradients(Faulty(fault), inst, 2, 0)
        with pytest.raises(GatewayError, match=r"v-6: gradients have shape \(4, 16\), want \(5, 16\)"):
            integrated_gradients(Faulty("drop"), inst, 2, 0)
        # One row would broadcast against the embeddings unnoticed.
        with pytest.raises(GatewayError, match=r"v-6: gradients have shape \(16,\), want \(5, 16\)"):
            integrated_gradients(Faulty("row"), inst, 2, 0)

    def test_embed_wrapper_names_instance_on_failure(self):
        class Exploding(ReferenceToyModel):
            def embed(self, instance):
                raise RuntimeError("boom")

        inst = build_instance("v-7", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        with pytest.raises(GatewayError, match="v-7: gateway toy:0 failed: boom"):
            integrated_gradients(Exploding(seed=0), inst, 2, 0)

    def test_default_integrated_gradients_is_a_capability_error(self):
        inst = build_instance("v-8", "Who?", ["Ada wrote."], gold=(0, "Ada"))
        with pytest.raises(CapabilityError, match="^oracle does not expose integrated gradients$"):
            integrated_gradients(GoldOracleModel(), inst, 2, 0)

    def test_subword_scores_reduce_to_words_by_renormalized_sum(self, corpus):
        class SubwordReader(ModelGateway):
            """A word-level view of a reader whose pieces are [CLS] plus two
            equal pieces per context word, reduced to words by `reduce`."""

            def __init__(self, reduce):
                self.inner = ReferenceToyModel(seed=3)
                self.reduce = reduce

            @property
            def model_id(self):
                return f"subword-{self.reduce}"

            def word_scores(self, word_probs):
                pieces = np.concatenate([[0.2], np.repeat(0.8 * word_probs / 2, 2)])
                by_word = pieces[1:].reshape(-1, 2)
                if self.reduce == "max":
                    return by_word.max(axis=1)
                summed = by_word.sum(axis=1)
                return summed / summed.sum()

            def predict(self, instance):
                out = self.inner.predict(instance)
                start, end = map(self.word_scores, (out.start_scores, out.end_scores))
                return ModelOutput(start, end, out.predicted_span)

        inst = corpus[0]
        words = ReferenceToyModel(seed=3).predict(inst)
        out = predict(SubwordReader("sum"), inst)
        assert np.abs(out.start_scores - words.start_scores).max() < 1e-12
        assert np.abs(out.end_scores - words.end_scores).max() < 1e-12
        with pytest.raises(GatewayError, match=f"{inst.id}: start scores sum to 0.40000000"):
            predict(SubwordReader("max"), inst)

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
        with pytest.raises(InputError, match="length"):
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
