"""Model gateway contract: scores, embeddings, gradients, span decoding.

A gateway wraps any extractive-QA model behind four capabilities: predict
(start/end probability vectors over context words plus the decoded span),
embed (one vector per word, question words first), grad_start (derivative
of the start probability at a target position with respect to every
embedding coordinate; grad_start_batch takes a stack of embedding matrices
at once), and a declared mask token. Gateways work at the word level;
models with subword vocabularies must reduce subword scores to words
internally (max over subwords) before returning.

Callers go through the module functions `predict`, `embed` and
`grad_start_batch`, which check every output against the contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import CapabilityError, GatewayError, InputError
from ..types import AnswerSpan, RCInstance

DEFAULT_MAX_ANSWER_LEN = 30


@dataclass(frozen=True)
class ModelOutput:
    """Per-word start/end probabilities over the context plus the decoded span."""

    start_scores: np.ndarray
    end_scores: np.ndarray
    predicted_span: AnswerSpan


class ModelGateway(ABC):
    """Contract every model must satisfy to be audited.

    `predict` is mandatory; `embed`/`grad_start` may raise CapabilityError,
    which disables gradient-based saliency but keeps occlusion usable.
    """

    max_answer_len: int = DEFAULT_MAX_ANSWER_LEN

    @property
    @abstractmethod
    def model_id(self) -> str: ...

    @property
    def baseline_token(self) -> str:
        return "[MASK]"

    @abstractmethod
    def predict(self, instance: RCInstance) -> ModelOutput: ...

    def embed(self, instance: RCInstance) -> np.ndarray:
        raise CapabilityError(f"{self.model_id} does not expose embeddings")

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        raise CapabilityError(f"{self.model_id} does not expose gradients")

    def grad_start_batch(
        self, instance: RCInstance, points: np.ndarray, target_position: int
    ) -> np.ndarray:
        """grad_start at each of the k embedding matrices in `points`
        (shape (k, n, d)), stacked to (k, n, d). Gateways that can evaluate
        several points in one pass (or one round trip) override this."""
        return np.stack([self.grad_start(instance, point, target_position) for point in points])

    def close(self) -> None:
        """Release external resources (sockets, subprocesses). No-op here."""

    def __enter__(self) -> ModelGateway:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def decode_span(
    start_scores: np.ndarray, end_scores: np.ndarray, max_answer_len: int = DEFAULT_MAX_ANSWER_LEN
) -> tuple[int, int]:
    """Highest-scoring (start, end) pair with start <= end < start + max len.

    The score of a pair is start[i] + end[j]; ties break toward the smallest
    start, then the smallest end.
    """
    start = np.asarray(start_scores, dtype=float)
    end = np.asarray(end_scores, dtype=float)
    n = start.shape[0]
    if n == 0 or end.shape[0] != n:
        raise InputError("decode_span needs equal-length non-empty score vectors")
    if max_answer_len < 1:
        raise InputError("max_answer_len must be >= 1")
    best = (-np.inf, 0, 0)
    for i in range(n):
        stop = min(n, i + max_answer_len)
        for j in range(i, stop):
            score = start[i] + end[j]
            if score > best[0]:
                best = (score, i, j)
    return best[1], best[2]


def span_text(instance: RCInstance, token_start: int, token_end: int) -> str:
    """Surface text of a flattened context token range; cross-sentence spans
    join the per-sentence pieces with single spaces."""
    first_sent = instance.sentence_of(token_start)
    last_sent = instance.sentence_of(token_end)
    pieces = []
    for s_idx in range(first_sent, last_sent + 1):
        base = instance.sentence_offsets[s_idx]
        sent = instance.context[s_idx]
        lo = max(token_start, base) - base
        hi = min(token_end, base + len(sent.tokens) - 1) - base
        pieces.append(sent.text[sent.tokens[lo].char_start : sent.tokens[hi].char_end])
    return " ".join(pieces)


def answer_span(instance: RCInstance, token_start: int, token_end: int) -> AnswerSpan:
    return AnswerSpan(
        text=span_text(instance, token_start, token_end),
        sentence_index=instance.sentence_of(token_start),
        token_start=token_start,
        token_end=token_end,
    )


def check_output(instance: RCInstance, output: ModelOutput) -> ModelOutput:
    n = instance.n_context
    for name, vec in (("start", output.start_scores), ("end", output.end_scores)):
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (n,):
            raise GatewayError(f"{instance.id}: {name} scores have shape {arr.shape}, want ({n},)")
        if not np.all((arr >= 0) & (arr <= 1)):
            raise GatewayError(f"{instance.id}: {name} scores outside [0,1]")
        if abs(float(arr.sum()) - 1.0) > 1e-6:
            raise GatewayError(f"{instance.id}: {name} scores sum to {arr.sum():.8f}, want 1")
    span = output.predicted_span
    if not (0 <= span.token_start <= span.token_end < n):
        raise GatewayError(f"{instance.id}: predicted span out of range")
    return output


def _call(gateway: ModelGateway, op: str, instance: RCInstance, *args):
    """gateway.<op>(instance, *args); any exception that is not already a
    GatewayError or CapabilityError becomes a GatewayError naming the instance."""
    try:
        return getattr(gateway, op)(instance, *args)
    except (GatewayError, CapabilityError):
        raise
    except Exception as exc:
        raise GatewayError(f"{instance.id}: gateway {gateway.model_id} failed: {exc}") from exc


def _checked_array(instance: RCInstance, name: str, value, shape_ok, want: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not shape_ok(arr.shape):
        raise GatewayError(f"{instance.id}: {name} have shape {arr.shape}, want {want}")
    if not np.all(np.isfinite(arr)):
        raise GatewayError(f"{instance.id}: {name} are not all finite")
    return arr


def predict(gateway: ModelGateway, instance: RCInstance) -> ModelOutput:
    """Call gateway.predict and enforce the output contract.

    Any gateway exception surfaces as a GatewayError naming the instance.
    """
    return check_output(instance, _call(gateway, "predict", instance))


def embed(gateway: ModelGateway, instance: RCInstance) -> np.ndarray:
    """Call gateway.embed; the result must be a finite (n_q + n_c, d) matrix."""
    n = instance.n_question + instance.n_context
    return _checked_array(
        instance,
        "embeddings",
        _call(gateway, "embed", instance),
        lambda shape: len(shape) == 2 and shape[0] == n and shape[1] >= 1,
        f"({n}, d)",
    )


def grad_start_batch(
    gateway: ModelGateway, instance: RCInstance, points: np.ndarray, target_position: int
) -> np.ndarray:
    """Call gateway.grad_start_batch; the result must be finite and shaped
    like `points`."""
    return _checked_array(
        instance,
        "gradients",
        _call(gateway, "grad_start_batch", instance, points, target_position),
        lambda shape: shape == points.shape,
        str(points.shape),
    )
