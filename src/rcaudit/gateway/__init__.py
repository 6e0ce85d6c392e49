"""Model gateways: the contract, reference implementations, remote client."""

from __future__ import annotations

from ..errors import InputError
from .base import (
    DEFAULT_MAX_ANSWER_LEN,
    ModelGateway,
    ModelOutput,
    answer_span,
    check_output,
    decode_span,
    embed,
    integrated_gradients,
    masked_start_scores,
    predict,
    span_text,
)
from .baselines import FrequencyBaselineModel, GoldOracleModel
from .scripted import ScriptedModel
from .toy import DEFAULT_EMBEDDING_DIM, ReferenceToyModel


def build_gateway(spec: str) -> ModelGateway:
    """Instantiate a gateway from a CLI-style spec string.

    Recognized forms: "toy:<seed>" (optional ":<dim>"), "remote:<endpoint>",
    "scripted:<path>", "oracle", "frequency".
    """
    kind, _, rest = spec.partition(":")
    if kind == "toy":
        parts = rest.split(":") if rest else []
        try:
            seed = int(parts[0])
            dim = int(parts[1]) if len(parts) > 1 else DEFAULT_EMBEDDING_DIM
        except (IndexError, ValueError):
            raise InputError(f"bad toy model spec {spec!r} (want toy:<seed>)") from None
        return ReferenceToyModel(seed=seed, embedding_dim=dim)
    if kind == "remote":
        from .remote import RemoteGateway

        if not rest:
            raise InputError("remote gateway spec needs an endpoint")
        return RemoteGateway(rest)
    if kind == "scripted":
        if not rest:
            raise InputError("scripted gateway spec needs a file path")
        return ScriptedModel(rest)
    if spec == "oracle":
        return GoldOracleModel()
    if spec == "frequency":
        return FrequencyBaselineModel()
    raise InputError(f"unknown model spec {spec!r}")


__all__ = [
    "DEFAULT_MAX_ANSWER_LEN",
    "FrequencyBaselineModel",
    "GoldOracleModel",
    "ModelGateway",
    "ModelOutput",
    "ReferenceToyModel",
    "ScriptedModel",
    "answer_span",
    "build_gateway",
    "check_output",
    "decode_span",
    "embed",
    "integrated_gradients",
    "masked_start_scores",
    "predict",
    "span_text",
]
