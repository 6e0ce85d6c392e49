"""Independent reference implementations shared by unit and acceptance tests.

Everything here is written from scratch against the public gateway API so
that library code is never checked against itself: occlusion is a literal
two-forward-pass difference, the linear gateway makes integrated gradients
exact in closed form, the Welch oracle recomputes the t-test in
arbitrary precision with the p-value obtained by numeric integration, and
the record oracle decodes a unified record in two passes (each token's
`end`, then `validate_instance`).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import mpmath as mp
import numpy as np

from rcaudit.errors import InputError
from rcaudit.gateway.base import ModelGateway, ModelOutput, answer_span
from rcaudit.text import spaced_starts
from rcaudit.types import AnswerSpan, QuestionAnnotations, RCInstance, Sentence, validate_instance

mp.mp.dps = 30


def oracle_occlusion(gateway, instance):
    """Two-forward-pass occlusion written from scratch, no library masking."""

    def with_masked_word(inst: RCInstance, position: int) -> RCInstance:
        mask = gateway.baseline_token
        if position < inst.n_question:
            words = list(inst.question_words)
            words[position] = mask
            return replace(
                inst,
                question_words=tuple(words),
                question_starts=spaced_starts(words),
                question_text=" ".join(words),
            )
        flat = position - inst.n_question
        context = []
        for sent in inst.context:
            words = list(sent.words)
            if 0 <= flat < len(words):
                words[flat] = mask
            flat -= len(sent.words)
            context.append(
                Sentence(
                    tuple(words),
                    spaced_starts(words),
                    is_supporting_fact=sent.is_supporting_fact,
                    paragraph_id=sent.paragraph_id,
                )
            )
        inst = replace(inst, context=tuple(context))
        golds = tuple(
            replace(a, text=inst.span_surface(a.token_start, a.token_end))
            for a in inst.gold_answers
        )
        return replace(inst, gold_answers=golds)

    base = gateway.predict(instance)
    anchor = int(np.argmax(base.start_scores))
    p0 = float(base.start_scores[anchor])
    scores = []
    for k in range(instance.n_question + instance.n_context):
        out = gateway.predict(with_masked_word(instance, k))
        scores.append(p0 - float(out.start_scores[anchor]))
    return anchor, scores


class LinearStartGateway(ModelGateway):
    """Start-probability gradient is a constant matrix, so IG is exact.

    Word embeddings are hashes of the word text (deterministic, mask-aware)
    and grad_start ignores its embedding argument entirely. Its
    integrated_gradients is the right-endpoint path sum written out one
    grad_start per point, with the baseline built here rather than by the
    library's masking.
    """

    def __init__(self, dim: int = 6, seed: int = 3) -> None:
        self._dim = dim
        self._seed = seed
        self._grads: dict[int, np.ndarray] = {}

    @property
    def model_id(self) -> str:
        return "linear-test"

    def _word_vector(self, word: str) -> np.ndarray:
        digest = hashlib.sha256(word.encode("utf-8")).digest()
        raw = np.frombuffer(digest[: self._dim], dtype=np.uint8).astype(float)
        return raw / 255.0 - 0.5

    def embed(self, instance: RCInstance) -> np.ndarray:
        words = instance.question_words + instance.context_words
        return np.stack([self._word_vector(w) for w in words])

    def constant_grad(self, n_words: int) -> np.ndarray:
        if n_words not in self._grads:
            rng = np.random.default_rng(self._seed + n_words)
            self._grads[n_words] = rng.normal(size=(n_words, self._dim))
        return self._grads[n_words]

    def grad_start(self, instance, embeddings, target_position):
        return self.constant_grad(np.asarray(embeddings).shape[0])

    def integrated_gradients(self, instance, steps, target_position):
        embeddings = self.embed(instance)
        baseline = np.tile(self._word_vector(self.baseline_token), (len(embeddings), 1))
        delta = embeddings - baseline
        total = np.zeros_like(embeddings)
        for j in range(1, steps + 1):
            total += self.grad_start(instance, baseline + (j / steps) * delta, target_position)
        return embeddings, baseline, total

    def predict(self, instance: RCInstance) -> ModelOutput:
        n = instance.n_context
        start = np.zeros(n)
        start[0] = 1.0
        return ModelOutput(
            start_scores=start,
            end_scores=start.copy(),
            predicted_span=answer_span(instance, 0, 0),
        )


def oracle_welch(positive, negative):
    """Welch test recomputed in arbitrary precision; p by numeric integration."""
    pos = [mp.mpf(repr(v)) for v in positive]
    neg = [mp.mpf(repr(v)) for v in negative]

    def stats(vals):
        n = len(vals)
        mean = mp.fsum(vals) / n
        var = mp.fsum((v - mean) ** 2 for v in vals) / (n - 1)
        return mean, var, n

    m1, v1, n1 = stats(pos)
    m2, v2, n2 = stats(neg)
    se1, se2 = v1 / n1, v2 / n2
    t = (m1 - m2) / mp.sqrt(se1 + se2)
    df = (se1 + se2) ** 2 / (se1**2 / (n1 - 1) + se2**2 / (n2 - 1))

    def pdf(x):
        return (
            mp.gamma((df + 1) / 2)
            / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))
            * (1 + x * x / df) ** (-(df + 1) / 2)
        )

    p = mp.quad(pdf, [t, mp.inf])
    return float(t), float(df), float(p)


def oracle_instance_from_dict(doc: dict) -> RCInstance:
    """A unified record decoded in two passes: the instance is built with
    each token's `end` checked against its start and length, and then
    `validate_instance` checks it."""

    def words_of(items: list[dict], what: str) -> tuple[tuple, tuple]:
        words, starts = [], []
        for i, d in enumerate(items):
            word, start = d["text"], d["start"]
            if d["end"] - start != len(word):
                raise InputError(f"{what}: text length mismatch at token {i}")
            words.append(word)
            starts.append(start)
        return tuple(words), tuple(starts)

    def span_of(d: dict) -> AnswerSpan:
        return AnswerSpan(d["text"], d["sent"], d["tok_start"], d["tok_end"])

    try:
        ann_doc = doc.get("annotations") or {}
        annotations = None
        if any(
            key in ann_doc
            for key in ("comparison_operator", "compared_entities", "value_tokens", "verb_tokens")
        ):
            annotations = QuestionAnnotations(
                comparison_operator=frozenset(ann_doc.get("comparison_operator", ())),
                compared_entities=tuple(frozenset(e) for e in ann_doc.get("compared_entities", ())),
                value_tokens=frozenset(ann_doc.get("value_tokens", ())),
                verb_tokens=frozenset(ann_doc.get("verb_tokens", ())),
            )
        iid = doc["id"]
        question_words, question_starts = words_of(doc["question"]["tokens"], f"{iid} question")
        instance = RCInstance(
            id=iid,
            question_words=question_words,
            question_starts=question_starts,
            question_text=doc["question"]["text"],
            context=tuple(
                Sentence(
                    *words_of(s["tokens"], f"{iid} sentence {s_idx}"),
                    is_supporting_fact=bool(s["supporting"]),
                    paragraph_id=str(s["paragraph_id"]),
                )
                for s_idx, s in enumerate(doc["context"])
            ),
            gold_answers=tuple(span_of(a) for a in doc["answers"]),
            skill=doc.get("skill", "other"),
            annotations=annotations,
            coref_clusters=tuple(
                tuple(span_of(m) for m in cluster) for cluster in doc.get("coref_clusters", ())
            ),
            relevant_cluster=ann_doc.get("relevant_cluster"),
            unannotatable=bool(ann_doc.get("unannotatable", False)),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed instance record: {exc}") from exc
    return validate_instance(instance)
