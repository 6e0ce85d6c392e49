"""Per-token saliency: occlusion and integrated gradients, plus the cache.

Both methods explain the same scalar: the model's start probability at the
argmax start position of the unperturbed input (the anchor). Occlusion
scores a word by how much that probability drops when the word is replaced
with the model's mask token; integrated gradients accumulates gradients
along the straight path from a fully masked baseline to the real input and
collapses each word's attribution vector with a configurable summarizer.

Scores cover question words first, then context words ("all" scope); the
partition tests slice out the half they need.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import GatewayError, InputError
from .gateway.base import ModelGateway, embed, grad_start_batch, predict
from .masking import mask_all, mask_word
from .types import RCInstance, Scope

METHODS = ("occlusion", "integrated_gradients")
SUMMARIZERS = ("l2", "l1", "dot")
# Float64 values per grad_start_batch call: integrated gradients sends its
# path points in chunks of max(1, IG_CHUNK_FLOATS // point size) points.
IG_CHUNK_FLOATS = 8192


@dataclass(frozen=True)
class SaliencyConfig:
    method: str = "occlusion"
    ig_steps: int = 50
    summarizer: str = "l2"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(f"unknown saliency method {self.method!r}")
        if self.summarizer not in SUMMARIZERS:
            raise InputError(f"unknown summarizer {self.summarizer!r}")
        if self.ig_steps < 1:
            raise InputError("ig_steps must be >= 1")

    @property
    def config_hash(self) -> str:
        """Hash of the settings the method reads: occlusion reads none."""
        payload = {"method": self.method}
        if self.method == "integrated_gradients":
            payload.update(ig_steps=self.ig_steps, summarizer=self.summarizer)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SaliencyMap:
    instance_id: str
    scope: Scope
    scores: tuple[float, ...]
    method: str
    config_hash: str
    model_id: str
    anchor_position: int
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
    """One score per word: drop in anchor start probability when masked."""
    original = predict(gateway, instance)
    anchor = int(np.argmax(original.start_scores))
    p0 = float(original.start_scores[anchor])
    scores = []
    for position in range(instance.n_question + instance.n_context):
        masked = mask_word(instance, position, gateway.baseline_token)
        out = predict(gateway, masked)
        scores.append(p0 - float(out.start_scores[anchor]))
    config = SaliencyConfig(method="occlusion")
    return SaliencyMap(
        instance_id=instance.id,
        scope="all",
        scores=tuple(scores),
        method="occlusion",
        config_hash=config.config_hash,
        model_id=gateway.model_id,
        anchor_position=anchor,
        n_question=instance.n_question,
    )


def ig_saliency(
    gateway: ModelGateway, instance: RCInstance, config: SaliencyConfig | None = None
) -> SaliencyMap:
    """Integrated gradients from a mask-all baseline to the real input.

    Right-endpoint Riemann sum with config.ig_steps points, sent to the
    gateway in chunks of grad_start_batch; gradients are added in path
    order, so the map does not depend on the chunk size. Each word's
    attribution vector is (E_k - B_k) times the path-averaged gradient row,
    then summarized to a scalar.
    """
    if config is None:
        config = SaliencyConfig(method="integrated_gradients")
    original = predict(gateway, instance)
    anchor = int(np.argmax(original.start_scores))
    embeddings = embed(gateway, instance)
    baseline = embed(gateway, mask_all(instance, gateway.baseline_token))
    if baseline.shape != embeddings.shape:
        raise GatewayError(
            f"{instance.id}: baseline embeddings have shape {baseline.shape}, "
            f"want {embeddings.shape}"
        )
    delta = embeddings - baseline
    m = config.ig_steps
    chunk = max(1, IG_CHUNK_FLOATS // embeddings.size)
    grad_total = np.zeros_like(embeddings)
    for first in range(1, m + 1, chunk):
        points = np.stack(
            [baseline + (j / m) * delta for j in range(first, min(first + chunk, m + 1))]
        )
        for grad in grad_start_batch(gateway, instance, points, anchor):
            grad_total += grad
    attributions = delta * (grad_total / m)
    scores = tuple(summarize(row, config.summarizer) for row in attributions)
    return SaliencyMap(
        instance_id=instance.id,
        scope="all",
        scores=scores,
        method="integrated_gradients",
        config_hash=config.config_hash,
        model_id=gateway.model_id,
        anchor_position=anchor,
        n_question=instance.n_question,
    )


def compute_saliency(
    gateway: ModelGateway, instance: RCInstance, config: SaliencyConfig
) -> SaliencyMap:
    if config.method == "occlusion":
        return occlusion_saliency(gateway, instance)
    return ig_saliency(gateway, instance, config)


def restrict_map(saliency: SaliencyMap, scope: Scope) -> SaliencyMap:
    """Slice an all-scope map down to question or context words."""
    if scope == saliency.scope:
        return saliency
    if saliency.scope != "all":
        raise InputError(f"cannot restrict a {saliency.scope} map to {scope}")
    if scope == "question_tokens":
        scores = saliency.scores[: saliency.n_question]
    elif scope == "context_tokens":
        scores = saliency.scores[saliency.n_question :]
    else:
        raise InputError(f"unknown scope {scope!r}")
    if not scores:
        raise InputError(f"{saliency.instance_id}: no scores in scope {scope}")
    return replace(saliency, scope=scope, scores=scores)


class SaliencyCache:
    """JSON-lines score cache keyed by (model_id, config_hash, instance_id).

    Floats survive the JSON round trip bit-identically (repr round-trip),
    so a cache hit equals recomputation exactly.
    """

    def __init__(self) -> None:
        self._maps: dict[tuple[str, str, str], SaliencyMap] = {}

    @staticmethod
    def key_of(saliency: SaliencyMap) -> tuple[str, str, str]:
        return (saliency.model_id, saliency.config_hash, saliency.instance_id)

    def put(self, saliency: SaliencyMap) -> None:
        self._maps[self.key_of(saliency)] = saliency

    def get(
        self, model_id: str, config: SaliencyConfig, instance_id: str
    ) -> SaliencyMap | None:
        return self._maps.get((model_id, config.config_hash, instance_id))

    def __len__(self) -> int:
        return len(self._maps)

    def maps(self) -> Iterable[SaliencyMap]:
        return self._maps.values()

    def get_or_compute(
        self, gateway: ModelGateway, instance: RCInstance, config: SaliencyConfig
    ) -> SaliencyMap:
        hit = self.get(gateway.model_id, config, instance.id)
        if hit is not None:
            return hit
        saliency = compute_saliency(gateway, instance, config)
        self.put(saliency)
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
                            "scope": saliency.scope,
                            "anchor_position": saliency.anchor_position,
                            "n_question": saliency.n_question,
                            "scores": list(saliency.scores),
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> SaliencyCache:
        cache = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    saliency = SaliencyMap(
                        instance_id=doc["instance_id"],
                        scope=doc["scope"],
                        scores=tuple(float(s) for s in doc["scores"]),
                        method=doc["method"],
                        config_hash=doc["config_hash"],
                        model_id=doc["model_id"],
                        anchor_position=doc["anchor_position"],
                        n_question=doc["n_question"],
                    )
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise InputError(f"{path}: bad cache record on line {line_no + 1}: {exc}")
                cache.put(saliency)
        return cache
