"""Seeded analytic reference model used to validate the saliency methods.

The model is deliberately tiny and closed-form. Every distinct word text
maps to a deterministic pseudo-random unit embedding; the start logit of
context word i is e_i^T M_s q_bar with q_bar the mean question embedding,
normalized with a softmax over context positions (end scores use a second
matrix M_e). Because the form is bilinear, the exact gradient of any start
probability with respect to every embedding coordinate is available in
closed form, which is what makes finite-difference and integrated-gradients
oracles cheap to run against it. Integrated gradients walks its path in
blocks of points, one batched pass per block, and gives the bits a sum
taken one point at a time gives.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..types import RCInstance
from .base import ModelGateway, ModelOutput, answer_span, decode_span

DEFAULT_EMBEDDING_DIM = 16
# Rows the word-embedding table starts with.
_INITIAL_TABLE_ROWS = 64
# Floats in one block of integrated-gradients path points (k points of an
# (n, d) matrix, k at least 1): big enough that a short instance's path takes
# a few blocks, small enough that the block's two buffers stay in cache.
_BLOCK_FLOATS = 32768


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

    def _start_grads(self, points: np.ndarray, n_q: int, t: int, out: np.ndarray) -> None:
        """Write into out[i] the derivative of the start probability at
        context position t with respect to every coordinate of points[i],
        transposed, for a (k, n, d) stack of embedding matrices; `out` is
        (k, d, n), so the context rows' outer product is written as d rows
        of n_c values, not n_c rows of d. Every step is the one-point
        formula run on each point (the same reductions over the same rows,
        the same BLAS call per point), so a point's gradient has the same
        bits in any block it is part of."""
        m = self._m_start
        k, n, d = points.shape
        ctx = points[:, n_q:]
        # ctx M goes into the memory of each point's gradient: written just
        # before it is read, and overwritten once it has been.
        ctx_m = out.reshape(k, n * d)[:, : (n - n_q) * d].reshape(k, n - n_q, d)
        q_bar = points[:, :n_q].mean(axis=1)[:, :, None]
        p = (np.matmul(ctx, m, out=ctx_m) @ q_bar)[:, :, 0]
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        p_t = p[:, t, None]
        # Context rows: d p_t / d e_j = p_t (delta_tj - p_j) * (M q_bar).
        coeff = -p_t * p
        coeff[:, t] += p_t[:, 0]
        # Each row of the product is one row of coeff times a number. numpy
        # passes rows shorter than its ufunc buffer (8192 values by default)
        # through that buffer, which made this product 3-4 times slower on
        # rows of 800-2000 values (numpy 2.4); with a 16-value buffer the
        # rows are multiplied where they lie. Products have no rounding
        # order, so the bits do not depend on it.
        bufsize = np.setbufsize(16)
        try:
            np.multiply(m @ q_bar, coeff[:, None, :], out=out[:, :, n_q:])
        finally:
            np.setbufsize(bufsize)
        # Question rows share one value: (p_t / n_q) M^T (e_t - sum_i p_i e_i).
        weighted = p[:, None, :] @ ctx
        toward_t = ctx[:, t, :, None] - weighted.transpose(0, 2, 1)
        out[:, :, :n_q] = (p_t[:, :, None] / n_q) * (m.T @ toward_t)

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        """Exact derivative of the start probability at target_position with
        respect to every embedding coordinate, evaluated at `embeddings`
        (which need not be the instance's own embedding matrix)."""
        grad = np.empty((1, *embeddings.shape[::-1]))
        self._start_grads(embeddings[None], instance.n_question, target_position, grad)
        return grad[0].T.copy()

    def integrated_gradients(
        self, instance: RCInstance, steps: int, target_position: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The right-endpoint path sum of grad_start, bit for bit, in blocks
        of k path points, k * n * d at most _BLOCK_FLOATS (k at least 1).
        Each block's points and gradients are written into two buffers made
        once per call, and each gradient is added into the sum in path
        order, as a point at a time would add it. The sum is kept
        transposed, as the kernel writes gradients, and turned once."""
        embeddings = self.embed(instance)
        # embed(mask_all(instance, token)) without building the masked
        # instance: the mask word's row, once per word.
        mask = self.word_embedding(self.baseline_token)
        baseline = np.repeat(mask[None], len(embeddings), axis=0)
        delta = embeddings - baseline
        n, d = delta.shape
        n_q = instance.n_question
        k = max(1, min(steps, _BLOCK_FLOATS // delta.size))
        points = np.empty((k, n, d))
        grads = np.empty((k, d, n))
        total = np.zeros((d, n))
        fractions = np.arange(1, steps + 1) / steps
        for first in range(0, steps, k):
            block = fractions[first : first + k, None, None]
            at, grad = points[: len(block)], grads[: len(block)]
            np.multiply(block, delta, out=at)
            at += baseline
            self._start_grads(at, n_q, target_position, grad)
            for row in grad:
                total += row
        return embeddings, baseline, total.T.copy()
