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

from ..masking import mask_all
from ..types import RCInstance
from .base import ModelGateway, ModelOutput, answer_span, decode_span

DEFAULT_EMBEDDING_DIM = 16
# Rows the word-embedding table starts with.
_INITIAL_TABLE_ROWS = 64


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
        # One cache for every word seen: its row in a table that grows by doubling.
        self._rows: dict[str, int] = {}
        self._table = np.empty((_INITIAL_TABLE_ROWS, self.embedding_dim))

    @property
    def model_id(self) -> str:
        if self.embedding_dim == DEFAULT_EMBEDDING_DIM:
            return f"toy:{self.seed}"
        return f"toy:{self.seed}:{self.embedding_dim}"

    def _row(self, text: str) -> int:
        row = self._rows.get(text)
        if row is None:
            row = len(self._rows)
            if row == len(self._table):
                grown = np.empty((2 * row, self.embedding_dim))
                grown[:row] = self._table
                self._table = grown
            digest = hashlib.sha256(f"{self.seed}\x00{text}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            vec = rng.standard_normal(self.embedding_dim)
            self._table[row] = vec / np.linalg.norm(vec)
            self._rows[text] = row
        return row

    def word_embedding(self, text: str) -> np.ndarray:
        """Deterministic unit vector for a word, keyed by (seed, text)."""
        row = self._row(text)  # before reading the table, which it may replace
        return self._table[row].copy()

    def embed(self, instance: RCInstance) -> np.ndarray:
        words = instance.question_words + instance.context_words
        # Rows first: adding a word may replace the table. Fancy indexing
        # copies, so callers may write into the result.
        rows = [self._row(w) for w in words]
        return self._table[rows]

    def _distribution(self, embeddings: np.ndarray, n_question: int, matrix: np.ndarray):
        q_bar = embeddings[:n_question].mean(axis=0)
        return softmax(embeddings[n_question:] @ matrix @ q_bar)

    def _distributions(self, embeddings: np.ndarray, n_question: int):
        p_start = self._distribution(embeddings, n_question, self._m_start)
        p_end = self._distribution(embeddings, n_question, self._m_end)
        return p_start, p_end

    def predict(self, instance: RCInstance) -> ModelOutput:
        p_start, p_end = self._distributions(self.embed(instance), instance.n_question)
        i, j = decode_span(p_start, p_end, self.max_answer_len)
        return ModelOutput(
            start_scores=p_start, end_scores=p_end, predicted_span=answer_span(instance, i, j)
        )

    def masked_start_scores(self, instance: RCInstance) -> np.ndarray:
        """Row k is predict(mask_word(instance, k)).start_scores, bit for bit.

        A masked question word moves q_bar, so those rows are scored one at
        a time on an embedding matrix whose row k holds the mask vector.
        Masking context word k changes only logit k, so the context rows
        are the unmasked logits with the masked logits on the diagonal,
        normalized in place. Each logit is computed at the row position the
        one-row-at-a-time product would use, so every row matches it."""
        working = self.embed(instance)
        mask = self.word_embedding(self.baseline_token)
        n_q = instance.n_question
        rows = np.empty((len(working), instance.n_context))
        for k in range(n_q):
            word = working[k].copy()
            working[k] = mask
            rows[k] = self._distribution(working, n_q, self._m_start)
            working[k] = word
        q_bar = working[:n_q].mean(axis=0)
        context_rows = rows[n_q:]
        context_rows[:] = working[n_q:] @ self._m_start @ q_bar
        mask_rows = np.empty_like(working[n_q:])
        mask_rows[:] = mask
        np.fill_diagonal(context_rows, mask_rows @ self._m_start @ q_bar)
        context_rows -= context_rows.max(axis=1, keepdims=True)
        np.exp(context_rows, out=context_rows)
        context_rows /= context_rows.sum(axis=1, keepdims=True)
        return rows

    def _grad_parts(self, embeddings: np.ndarray, n_q: int, t: int):
        """(coeff, mq, q_grad): the derivative of the start probability at
        context position t, evaluated at `embeddings`, is outer(coeff, mq)
        on the context rows and q_grad on every question row."""
        q_bar = embeddings[:n_q].mean(axis=0)
        ctx = embeddings[n_q:]
        p = softmax(ctx @ self._m_start @ q_bar)
        mq = self._m_start @ q_bar
        # Context rows: d p_t / d e_j = p_t (delta_tj - p_j) * (M q_bar).
        coeff = -p[t] * p
        coeff[t] += p[t]
        # Question rows share one value: (p_t / n_q) M^T (e_t - sum_i p_i e_i).
        weighted = p @ ctx
        q_grad = (p[t] / n_q) * (self._m_start.T @ (ctx[t] - weighted))
        return coeff, mq, q_grad

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        """Exact derivative of the start probability at target_position with
        respect to every embedding coordinate, evaluated at `embeddings`
        (which need not be the instance's own embedding matrix)."""
        n_q = instance.n_question
        coeff, mq, q_grad = self._grad_parts(embeddings, n_q, target_position)
        grad = np.zeros_like(embeddings)
        grad[n_q:] = np.outer(coeff, mq)
        grad[:n_q] = q_grad
        return grad

    def integrated_gradients(
        self, instance: RCInstance, steps: int, target_position: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The contract's per-point loop, bit for bit, without a gradient
        matrix or its checks per step: each step adds its context and
        question rows into the sum in place."""
        embeddings = self.embed(instance)
        baseline = self.embed(mask_all(instance, self.baseline_token))
        delta = embeddings - baseline
        n_q = instance.n_question
        total = np.zeros_like(embeddings)
        q_total, ctx_total = total[:n_q], total[n_q:]
        for j in range(1, steps + 1):
            point = baseline + (j / steps) * delta
            coeff, mq, q_grad = self._grad_parts(point, n_q, target_position)
            ctx_total += np.outer(coeff, mq)
            q_total += q_grad
        return embeddings, baseline, total
