"""Model gateway contract: scores, masked scores, integrated gradients.

The contract is the four ops of the remote wire (see `ModelGateway`), at
the word level: a subword model gives each word the sum of its pieces'
start (and end) probabilities, renormalized over the context words so
each row sums to 1. Max over pieces fails `check_output`.

Callers go through the module functions `predict`, `masked_start_scores`
and `integrated_gradients`, which check every output against the contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import CapabilityError, GatewayError, InputError
from ..masking import mask_word
from ..types import AnswerSpan, RCInstance

DEFAULT_MAX_ANSWER_LEN = 30


@dataclass(frozen=True)
class ModelOutput:
    """Per-word start/end probabilities over the context plus the decoded span."""

    start_scores: np.ndarray
    end_scores: np.ndarray
    predicted_span: AnswerSpan


class ModelGateway(ABC):
    """Contract every model must satisfy to be audited: the four wire ops.

    `info` carries `model_id`, `baseline_token` (the mask token) and
    `max_answer_len`. `predict` (mandatory) gives start/end probabilities
    over the context words plus the decoded span. `masked_start_scores`
    gives the start distribution with each word in turn masked, one row
    per word (what occlusion reads). `integrated_gradients` gives the
    embeddings, the mask-all baseline and the start gradient summed along
    the path between them (what integrated gradients reads); its default
    raises CapabilityError, which disables gradient-based saliency but
    keeps occlusion usable.
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

    def masked_start_scores(self, instance: RCInstance) -> np.ndarray:
        """Start distributions with word k (question words first, then
        context words) replaced by `baseline_token`, stacked to shape
        (n_question + n_context, n_context). This default predicts each
        masked variant; gateways that can score them in one pass (or one
        round trip) override it."""
        return np.stack(
            [
                self.predict(mask_word(instance, k, self.baseline_token)).start_scores
                for k in range(instance.n_question + instance.n_context)
            ]
        )

    # Not part of the contract: the benchmark's tracer wraps embed and
    # grad_start by name on every gateway (perfbench/tracing.py).
    def embed(self, instance: RCInstance) -> np.ndarray:
        raise CapabilityError(f"{self.model_id} does not expose embeddings")

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        raise CapabilityError(f"{self.model_id} does not expose gradients")

    def integrated_gradients(
        self, instance: RCInstance, steps: int, target_position: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(embeddings, mask-all baseline, sum over j = 1..steps in path order
        of the start-probability gradient at target_position, taken at
        baseline + (j / steps) * (embeddings - baseline))."""
        raise CapabilityError(f"{self.model_id} does not expose integrated gradients")

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
    start, then the smallest end, and a pair scoring NaN is never chosen.
    When no pair scores above -inf the result is (0, 0).
    """
    start = np.asarray(start_scores, dtype=float)
    end = np.asarray(end_scores, dtype=float)
    n = start.shape[0]
    if n == 0 or end.shape[0] != n:
        raise InputError("decode_span needs equal-length non-empty score vectors")
    if max_answer_len < 1:
        raise InputError("max_answer_len must be >= 1")
    # Row i of the band holds start[i] + end[i + k] for k < width; pairs past
    # the end meet -inf padding. Row-major argmax returns the first maximum,
    # which is the smallest start and then the smallest end. NaN never wins.
    width = min(max_answer_len, n)
    padded_end = np.concatenate([end, np.full(width - 1, -np.inf)])
    # The read-only (n, width) window view of sliding_window_view, without its
    # argument handling, which costs more than the whole decode for short n.
    step = padded_end.strides[0]
    windows = as_strided(padded_end, shape=(n, width), strides=(step, step), writeable=False)
    with np.errstate(invalid="ignore"):
        band = start[:, np.newaxis] + windows
    band[np.isnan(band)] = -np.inf
    i, k = divmod(int(np.argmax(band)), width)
    return i, i + k


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
        hi = min(token_end, base + len(sent.words) - 1) - base
        pieces.append(sent.surface(lo, hi))
    return " ".join(pieces)


def answer_span(instance: RCInstance, token_start: int, token_end: int) -> AnswerSpan:
    return AnswerSpan(
        text=span_text(instance, token_start, token_end),
        sentence_index=instance.sentence_of(token_start),
        token_start=token_start,
        token_end=token_end,
    )


def _check_rows(instance: RCInstance, rows: np.ndarray, label: str) -> None:
    """Each row of `rows` (its last axis) lies in [0, 1], so NaN fails, and
    sums to 1 within 1e-6; `label.format(k)` names row k in the error."""
    # One min and one max decide (a NaN fails both); the row is found only
    # when one fails.
    if rows.size and not (rows.min() >= 0 and rows.max() <= 1):
        k = np.argmin(((rows >= 0) & (rows <= 1)).all(axis=-1))
        raise GatewayError(f"{instance.id}: {label.format(k)} outside [0,1]")
    sums = rows.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-6
    if off.any():
        k = np.argmax(off)
        raise GatewayError(
            f"{instance.id}: {label.format(k)} sum to {np.ravel(sums)[k]:.8f}, want 1"
        )


def check_output(instance: RCInstance, output: ModelOutput) -> ModelOutput:
    n = instance.n_context
    for name, vec in (("start", output.start_scores), ("end", output.end_scores)):
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (n,):
            raise GatewayError(f"{instance.id}: {name} scores have shape {arr.shape}, want ({n},)")
        _check_rows(instance, arr, f"{name} scores")
    span = output.predicted_span
    if not (0 <= span.token_start <= span.token_end < n):
        raise GatewayError(f"{instance.id}: predicted span out of range")
    return output


def _call(gateway: ModelGateway, op: str, instance: RCInstance, *args):
    """gateway.<op>(instance, *args); any exception that is not already a
    GatewayError, CapabilityError or InputError becomes a GatewayError naming
    the instance."""
    try:
        return getattr(gateway, op)(instance, *args)
    except (GatewayError, CapabilityError, InputError):
        raise
    except Exception as exc:
        raise GatewayError(f"{instance.id}: gateway {gateway.model_id} failed: {exc}") from exc


def _checked_array(instance: RCInstance, name: str, value, want: tuple) -> np.ndarray:
    """`value` as a finite float array of shape `want`."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != want:
        raise GatewayError(f"{instance.id}: {name} have shape {arr.shape}, want {want}")
    if not np.all(np.isfinite(arr)):
        raise GatewayError(f"{instance.id}: {name} are not all finite")
    return arr


def predict(gateway: ModelGateway, instance: RCInstance) -> ModelOutput:
    """Call gateway.predict and enforce the output contract.

    Any gateway exception but a CapabilityError or an InputError surfaces as
    a GatewayError naming the instance.
    """
    return check_output(instance, _call(gateway, "predict", instance))


def masked_start_scores(gateway: ModelGateway, instance: RCInstance) -> np.ndarray:
    """Call gateway.masked_start_scores and hold every row to predict's
    start-score checks: shape (n_q + n_c, n_c), in [0, 1], summing to 1."""
    n_c = instance.n_context
    want = (instance.n_question + n_c, n_c)
    rows = np.asarray(_call(gateway, "masked_start_scores", instance), dtype=float)
    if rows.shape != want:
        raise GatewayError(
            f"{instance.id}: masked start scores have shape {rows.shape}, want {want}"
        )
    _check_rows(instance, rows, "start scores with word {} masked")
    return rows


def integrated_gradients(
    gateway: ModelGateway, instance: RCInstance, steps: int, target: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Call gateway.integrated_gradients; the embeddings must be a finite (n_q
    + n_c, d) matrix, the baseline and the gradient sum finite and that shape."""
    embeddings, baseline, total = _call(gateway, "integrated_gradients", instance, steps, target)
    n = instance.n_question + instance.n_context
    shape = np.shape(embeddings)
    if len(shape) != 2 or shape[0] != n or shape[1] < 1:
        raise GatewayError(f"{instance.id}: embeddings have shape {shape}, want ({n}, d)")
    embeddings = _checked_array(instance, "embeddings", embeddings, shape)
    baseline = _checked_array(instance, "baseline embeddings", baseline, shape)
    return embeddings, baseline, _checked_array(instance, "gradients", total, shape)
