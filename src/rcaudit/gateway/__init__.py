"""Model gateways: the contract (`base`), the toy reference model (`toy`),
the oracle and frequency baselines (`baselines`), scripted replies
(`scripted`), and the wire protocol's server (`remote`) and client
(`remote_client`). Import names from those modules; this package defines
only `build_gateway`, which imports a gateway's module when its spec asks
for it (the toy model, the default, is imported with the package)."""

from __future__ import annotations

from ..errors import InputError
from .base import ModelGateway
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
        from .remote_client import RemoteGateway

        if not rest:
            raise InputError("remote gateway spec needs an endpoint")
        return RemoteGateway(rest)
    if kind == "scripted":
        from .scripted import ScriptedModel

        if not rest:
            raise InputError("scripted gateway spec needs a file path")
        return ScriptedModel(rest)
    if spec == "oracle":
        from .baselines import GoldOracleModel

        return GoldOracleModel()
    if spec == "frequency":
        from .baselines import FrequencyBaselineModel

        return FrequencyBaselineModel()
    raise InputError(f"unknown model spec {spec!r}")
