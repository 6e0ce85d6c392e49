"""Seeded analytic reference model used to validate the saliency methods.

The model is deliberately tiny and closed-form. Every distinct word text
maps to a deterministic pseudo-random unit embedding; the start logit of
context word i is e_i^T M_s q_bar with q_bar the mean question embedding,
normalized with a softmax over context positions (end scores use a second
matrix M_e). Because the form is bilinear, the exact gradient of any start
probability with respect to every embedding coordinate is available in
closed form, which is what makes finite-difference and integrated-gradients
oracles cheap to run against it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..types import RCInstance
from .base import ModelGateway, ModelOutput, answer_span, decode_span

DEFAULT_EMBEDDING_DIM = 16


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


class ReferenceToyModel(ModelGateway):
    def __init__(self, seed: int, embedding_dim: int = DEFAULT_EMBEDDING_DIM) -> None:
        self.seed = int(seed)
        self.embedding_dim = int(embedding_dim)
        rng = np.random.default_rng(self.seed)
        self._m_start = rng.standard_normal((self.embedding_dim, self.embedding_dim))
        self._m_end = rng.standard_normal((self.embedding_dim, self.embedding_dim))
        self._embeddings: dict[str, np.ndarray] = {}

    @property
    def model_id(self) -> str:
        if self.embedding_dim == DEFAULT_EMBEDDING_DIM:
            return f"toy:{self.seed}"
        return f"toy:{self.seed}:{self.embedding_dim}"

    def word_embedding(self, text: str) -> np.ndarray:
        """Deterministic unit vector for a word, keyed by (seed, text)."""
        cached = self._embeddings.get(text)
        if cached is not None:
            return cached
        digest = hashlib.sha256(f"{self.seed}\x00{text}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        vec = rng.standard_normal(self.embedding_dim)
        vec = vec / np.linalg.norm(vec)
        self._embeddings[text] = vec
        return vec

    def embed(self, instance: RCInstance) -> np.ndarray:
        words = [t.text for t in instance.question] + [t.text for t in instance.context_tokens]
        return np.stack([self.word_embedding(w) for w in words])

    def _distributions(self, embeddings: np.ndarray, n_question: int):
        q_bar = embeddings[:n_question].mean(axis=0)
        ctx = embeddings[n_question:]
        p_start = softmax(ctx @ self._m_start @ q_bar)
        p_end = softmax(ctx @ self._m_end @ q_bar)
        return p_start, p_end

    def predict(self, instance: RCInstance) -> ModelOutput:
        p_start, p_end = self._distributions(self.embed(instance), instance.n_question)
        i, j = decode_span(p_start, p_end, self.max_answer_len)
        return ModelOutput(
            start_scores=p_start, end_scores=p_end, predicted_span=answer_span(instance, i, j)
        )

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        """Exact derivative of the start probability at target_position with
        respect to every embedding coordinate, evaluated at `embeddings`
        (which need not be the instance's own embedding matrix)."""
        n_q = instance.n_question
        q_bar = embeddings[:n_q].mean(axis=0)
        ctx = embeddings[n_q:]
        p = softmax(ctx @ self._m_start @ q_bar)
        t = target_position
        mq = self._m_start @ q_bar
        grad = np.zeros_like(embeddings)
        # Context rows: d p_t / d e_j = p_t (delta_tj - p_j) * (M q_bar).
        coeff = -p[t] * p
        coeff[t] += p[t]
        grad[n_q:] = np.outer(coeff, mq)
        # Question rows share one value: (p_t / n_q) M^T (e_t - sum_i p_i e_i).
        weighted = p @ ctx
        q_grad = (p[t] / n_q) * (self._m_start.T @ (ctx[t] - weighted))
        grad[:n_q] = q_grad
        return grad
