"""Per-token saliency: occlusion and integrated gradients, plus the cache.

Both methods explain the same scalar: the model's start probability at the
argmax start position of the unperturbed input (the anchor). Occlusion
scores a word by how much that probability drops when the word is replaced
with the model's mask token; integrated gradients accumulates gradients
along the straight path from a fully masked baseline to the real input and
collapses each word's attribution vector with a configurable summarizer.

Scores cover question words first, then context words ("all" scope); the
partition tests slice out the half they need. Each map also keeps the text
of the answer from the prediction that fixed its anchor, so an audit that
needs the original's answer reads it from the map instead of asking the
model again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus.schema import read_jsonl
from .errors import InputError
from .gateway.base import ModelGateway, integrated_gradients, masked_start_scores, predict
# mask_all and mask_word are not called here any more; the benchmark's
# tracer still patches them by name in this module (perfbench/tracing.py).
from .masking import mask_all, mask_word  # noqa: F401
from .types import RCInstance, Scope

METHODS = ("occlusion", "integrated_gradients")
SUMMARIZERS = ("l2", "l1", "dot")


@dataclass(frozen=True)
class SaliencyConfig:
    method: str = "occlusion"
    ig_steps: int = 50
    summarizer: str = "l2"
    # Hash of the settings the method reads (occlusion reads none), made once:
    # every cache lookup keys on it.
    config_hash: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(f"unknown saliency method {self.method!r}")
        if self.summarizer not in SUMMARIZERS:
            raise InputError(f"unknown summarizer {self.summarizer!r}")
        if self.ig_steps < 1:
            raise InputError("ig_steps must be >= 1")
        payload = {"method": self.method}
        if self.method == "integrated_gradients":
            payload.update(ig_steps=self.ig_steps, summarizer=self.summarizer)
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        object.__setattr__(self, "config_hash", digest[:16])


@dataclass(frozen=True)
class SaliencyMap:
    instance_id: str
    scores: tuple[float, ...]
    method: str
    config_hash: str
    model_id: str
    anchor_position: int
    predicted_answer: str
    n_question: int


def summarize(vector: np.ndarray, kind: str) -> float:
    vec = np.asarray(vector, dtype=float)
    if vec.size == 0:
        raise InputError("cannot summarize an empty vector")
    if kind == "l2":
        return float(np.linalg.norm(vec))
    if kind == "l1":
        return float(np.abs(vec).sum())
    if kind == "dot":
        return float(vec.sum())
    raise InputError(f"unknown summarizer {kind!r}")


def occlusion_saliency(gateway: ModelGateway, instance: RCInstance) -> SaliencyMap:
    """One score per word: drop in anchor start probability when masked.

    Two gateway calls: the unmasked prediction, then every masked start
    distribution at once."""
    original = predict(gateway, instance)
    anchor = int(np.argmax(original.start_scores))
    p0 = float(original.start_scores[anchor])
    rows = masked_start_scores(gateway, instance)
    scores = [p0 - float(rows[k, anchor]) for k in range(len(rows))]
    config = SaliencyConfig(method="occlusion")
    return SaliencyMap(
        instance_id=instance.id,
        scores=tuple(scores),
        method="occlusion",
        config_hash=config.config_hash,
        model_id=gateway.model_id,
        anchor_position=anchor,
        predicted_answer=original.predicted_span.text,
        n_question=instance.n_question,
    )


def ig_saliency(gateway: ModelGateway, instance: RCInstance, config: SaliencyConfig) -> SaliencyMap:
    """Integrated gradients from a mask-all baseline to the real input.

    Two gateway calls: the prediction that fixes the anchor, then
    integrated_gradients, which sums the gradient over the config.ig_steps
    points of a right-endpoint Riemann sum where the model lives. Each
    word's attribution vector is (E_k - B_k) times the path-averaged
    gradient row, then summarized to a scalar.
    """
    original = predict(gateway, instance)
    anchor = int(np.argmax(original.start_scores))
    m = config.ig_steps
    embeddings, baseline, grad_total = integrated_gradients(gateway, instance, m, anchor)
    attributions = (embeddings - baseline) * (grad_total / m)
    scores = tuple(summarize(row, config.summarizer) for row in attributions)
    return SaliencyMap(
        instance_id=instance.id,
        scores=scores,
        method="integrated_gradients",
        config_hash=config.config_hash,
        model_id=gateway.model_id,
        anchor_position=anchor,
        predicted_answer=original.predicted_span.text,
        n_question=instance.n_question,
    )


def compute_saliency(
    gateway: ModelGateway, instance: RCInstance, config: SaliencyConfig
) -> SaliencyMap:
    if config.method == "occlusion":
        return occlusion_saliency(gateway, instance)
    return ig_saliency(gateway, instance, config)


def scope_scores(saliency: SaliencyMap, scope: Scope) -> tuple[float, ...]:
    """A map's scores of question or context words, or all of them."""
    if scope == "all":
        return saliency.scores
    if scope == "question_tokens":
        scores = saliency.scores[: saliency.n_question]
    elif scope == "context_tokens":
        scores = saliency.scores[saliency.n_question :]
    else:
        raise InputError(f"unknown scope {scope!r}")
    if not scores:
        raise InputError(f"{saliency.instance_id}: no scores in scope {scope}")
    return scores


def content_hash(instance: RCInstance) -> str:
    """Hash of the question and context word texts, sentence by sentence:
    the input a saliency map explains."""
    words = [instance.question_words, *(sent.words for sent in instance.context)]
    return hashlib.sha256(json.dumps(words).encode("utf-8")).hexdigest()[:16]


class SaliencyCache:
    """JSON-lines map cache keyed by (model_id, config_hash, instance_id,
    content_hash), so an instance whose words changed under the same id
    is recomputed rather than served a stale map. A record holds the map's
    scores, anchor and predicted answer.

    Floats survive the JSON round trip bit-identically (repr round-trip),
    so a cache hit equals recomputation exactly.
    """

    def __init__(self) -> None:
        self._maps: dict[tuple[str, ...], SaliencyMap] = {}

    @staticmethod
    def _key(model_id: str, config: SaliencyConfig, instance: RCInstance) -> tuple[str, ...]:
        return (model_id, config.config_hash, instance.id, content_hash(instance))

    def get(
        self, model_id: str, config: SaliencyConfig, instance: RCInstance
    ) -> SaliencyMap | None:
        return self._maps.get(self._key(model_id, config, instance))

    def __len__(self) -> int:
        return len(self._maps)

    def get_or_compute(
        self, gateway: ModelGateway, instance: RCInstance, config: SaliencyConfig
    ) -> SaliencyMap:
        key = self._key(gateway.model_id, config, instance)
        saliency = self._maps.get(key)
        if saliency is None:
            saliency = self._maps[key] = compute_saliency(gateway, instance, config)
        return saliency

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key in sorted(self._maps):
                saliency = self._maps[key]
                fh.write(
                    json.dumps(
                        {
                            "model_id": saliency.model_id,
                            "method": saliency.method,
                            "config_hash": saliency.config_hash,
                            "instance_id": saliency.instance_id,
                            "content_hash": key[3],
                            "scope": "all",
                            "anchor_position": saliency.anchor_position,
                            "predicted_answer": saliency.predicted_answer,
                            "n_question": saliency.n_question,
                            "scores": list(saliency.scores),
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> SaliencyCache:
        """Read a file written by `save`. Records without a content hash or
        a predicted answer, written by earlier versions, are left out, so
        they miss and are recomputed. A line that is not JSON, or a record
        that is not an object with finite numeric scores, string ids, hashes
        and answer, integer n_question and anchor_position that fit the
        scores, and scope "all" (the only scope `save` writes), is an
        InputError."""
        cache = cls()
        for line_no, doc in read_jsonl(path):
            try:
                scores = doc["scores"]
                if not isinstance(scores, list) or not all(
                    type(s) in (int, float) and math.isfinite(s) for s in scores
                ):
                    raise ValueError("scores are not all finite numbers")
                for name in ("predicted_answer", "content_hash", "instance_id", "method",
                             "config_hash", "model_id"):
                    if type(doc.get(name, "")) is not str:  # a missing one is named below
                        raise ValueError(f"{name} is not a string")
                n_question, anchor = doc["n_question"], doc["anchor_position"]
                if type(n_question) is not int or not 0 <= n_question <= len(scores):
                    raise ValueError(f"n_question {n_question!r} is not in [0, {len(scores)}]")
                n_context = len(scores) - n_question
                if type(anchor) is not int or not 0 <= anchor < n_context:
                    raise ValueError(f"anchor_position {anchor!r} is not in [0, {n_context})")
                if doc["scope"] != "all":
                    raise ValueError(f"scope {doc['scope']!r} is not 'all'")
                answer = doc.get("predicted_answer")
                saliency = SaliencyMap(
                    instance_id=doc["instance_id"],
                    scores=tuple(map(float, scores)),
                    method=doc["method"],
                    config_hash=doc["config_hash"],
                    model_id=doc["model_id"],
                    anchor_position=anchor,
                    predicted_answer=answer,
                    n_question=n_question,
                )
                content = doc.get("content_hash")
            except (ValueError, KeyError, TypeError, OverflowError) as exc:  # Overflow: int score
                raise InputError(f"{path}: bad cache record on line {line_no}: {exc}")
            if content is not None and answer is not None:
                key = (saliency.model_id, saliency.config_hash, saliency.instance_id, content)
                cache._maps[key] = saliency
        return cache
