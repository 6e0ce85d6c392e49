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
import math

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


def _seed_words(digest: bytes) -> np.ndarray:
    """The integer `digest` spells, big-endian, in the form SeedSequence
    gives an int: uint32 words, least significant first, high zero words
    dropped (one word for zero). Seeding with these words is seeding with
    `int.from_bytes(digest, "big")`, without the conversion."""
    n_words = max(1, -(-len(digest.lstrip(b"\0")) // 4))
    return np.frombuffer(digest[::-1], dtype="<u4")[:n_words]


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
            vec = np.random.default_rng(_seed_words(digest)).standard_normal(self.embedding_dim)
            # np.linalg.norm's own formula for a vector
            self._table[row] = vec / math.sqrt(vec @ vec)
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
        known = self._rows.get
        rows = [known(w) for w in words]
        if None in rows:
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

        Masking leaves the context embeddings alone, so every row shares
        their product with M_s. A masked question word moves q_bar, so each
        question row gets its own q_bar, the mean of a copy of the question
        rows with row k masked. Masking context word k changes only logit
        k, so the context rows are the unmasked logits with the masked
        logits on the diagonal, each computed at the row position the
        one-row-at-a-time product would use. A context row whose maximum is
        the unmasked maximum is shifted by it, so those rows share one exp
        of the unmasked logits and only their diagonal is exponentiated
        apart; the row that masks the maximum, and any whose masked logit is
        above it, are shifted and exponentiated alone. Every row is then
        divided by its own sum, as softmax does."""
        embeddings = self.embed(instance)
        mask = self.word_embedding(self.baseline_token)
        n_q = instance.n_question
        context_m = embeddings[n_q:] @ self._m_start
        rows = np.empty((len(embeddings), instance.n_context))
        variants = np.repeat(embeddings[None, :n_q], n_q, axis=0)
        variants[range(n_q), range(n_q)] = mask
        for k, q_bar in enumerate(variants.mean(axis=1)):
            rows[k] = context_m @ q_bar
        question_rows = rows[:n_q]
        question_rows -= question_rows.max(axis=1, keepdims=True)
        np.exp(question_rows, out=question_rows)
        q_bar = embeddings[:n_q].mean(axis=0)
        logits = context_m @ q_bar
        mask_rows = np.empty_like(embeddings[n_q:])
        mask_rows[:] = mask
        masked = mask_rows @ self._m_start @ q_bar
        # Row k's maximum: the larger of its masked logit and the largest
        # unmasked logit but logit k.
        top = logits.argmax()
        row_max = np.full_like(logits, logits[top])
        row_max[top] = np.delete(logits, top).max(initial=-np.inf)
        np.maximum(row_max, masked, out=row_max)
        context_rows = rows[n_q:]
        context_rows[:] = np.exp(logits - logits[top])
        alone = np.flatnonzero(row_max != logits[top])
        context_rows[alone] = np.exp(logits - row_max[alone, None])
        np.fill_diagonal(context_rows, np.exp(masked - row_max))
        rows /= rows.sum(axis=1, keepdims=True)
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
        """The right-endpoint path sum of grad_start, bit for bit, without a
        gradient matrix per step: each step adds its context and question
        rows into the sum in place."""
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
