"""Out-of-process gateway: line-delimited JSON over stdio or a TCP socket.

Serving side wraps any in-process gateway:

    python3 -m rcaudit.gateway.remote --model toy:7            # stdio
    python3 -m rcaudit.gateway.remote --model toy:7 --tcp 5123 # localhost TCP

A stdio server started by the client gets one end of a connected Unix
socket pair as both its stdin and its stdout (fds 0 and 1), not two pipes.

The client side, `remote_client.RemoteGateway`, speaks the same protocol
and satisfies the ModelGateway contract, so a fine-tuned encoder hosted in
another process (or another runtime entirely) plugs into every audit
unchanged. This module holds the server and the array codec both sides
use; it imports nothing only the client needs, so a server starts with no
more than the model it serves.

Requests are one JSON object per line:

    {"op": "info"|"predict"|"masked_start_scores"|"integrated_gradients",
     "instance": {unified instance record}?, "steps": int?, "target": int?}

Responses mirror the in-memory contract:

    {"ok": true, "result": {...}}
    {"ok": false, "error": "...", "kind": "input"|"capability"|"gateway"}

`info` answers model_id, baseline_token and max_answer_len; `predict`
answers start_scores, end_scores and predicted_span (an answer record of
the instance schema); `masked_start_scores` answers scores, one row per
masked word; `integrated_gradients` answers embeddings, baseline and the
path-summed grads. So an occlusion or IG map costs two round trips, however
long the instance or the path. These four ops are the whole ModelGateway
contract; no request carries an array.

Every array in a reply (scores, embeddings, gradients) travels as
ARRAY = {"shape": [...], "f8": "<base64 of little-endian C-order float64>"},
so values cross the wire bit for bit and cost 8 bytes (plus a third for
base64) instead of a decimal string each.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from typing import IO

import numpy as np

from .. import UsageExit, read_options, usage_exit
from ..corpus.schema import instance_from_dict, span_to_dict
from ..errors import CapabilityError, GatewayError, InputError
from .base import ModelGateway

# The error kinds a reply may carry, and the exception each one raises.
ERROR_KINDS = {
    "input": InputError,
    "capability": CapabilityError,
    "gateway": GatewayError,
}
# Reply fields of integrated_gradients, in the order the contract returns them.
IG_FIELDS = ("embeddings", "baseline", "grads")
_INSTANCE_OPS = ("predict", "masked_start_scores", "integrated_gradients")


def encode_array(values) -> dict:
    """Pack an array as its shape plus base64 little-endian float64 bytes."""
    arr = np.asarray(values, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(payload) -> np.ndarray:
    """Inverse of encode_array; a malformed payload is an InputError."""
    try:
        shape = tuple(payload["shape"])
        raw = base64.b64decode(payload["f8"], validate=True)
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise InputError(f"bad packed array: {exc!r}") from None
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        raise InputError(f"bad packed array shape {list(shape)}")
    if len(raw) != 8 * math.prod(shape):
        raise InputError(
            f"packed array of shape {list(shape)} needs {8 * math.prod(shape)} bytes, "
            f"got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def _field(request: dict, name: str):
    """request[name]; a missing field is an InputError (a KeyError raised
    inside the gateway stays a gateway error)."""
    try:
        return request[name]
    except KeyError:
        raise InputError(f"missing request field {name!r}") from None


def _int_field(request: dict, name: str, low: int, stop: float) -> int:
    """request[name], which must be an integer in [low, stop); anything
    else (a float, a string, a bool) is an InputError."""
    value = _field(request, name)
    if type(value) is not int or not low <= value < stop:
        raise InputError(f"{name} must be an integer in [{low}, {stop}), got {value!r}")
    return value


def handle_request(gateway: ModelGateway, request: dict) -> dict:
    """Serve one protocol request against an in-process gateway."""
    try:
        if not isinstance(request, dict):
            raise InputError(f"request is a {type(request).__name__}, not an object")
        op = request.get("op")
        if op == "info":
            result = {
                "model_id": gateway.model_id,
                "baseline_token": gateway.baseline_token,
                "max_answer_len": gateway.max_answer_len,
            }
        elif op in _INSTANCE_OPS:
            instance = instance_from_dict(_field(request, "instance"))
            if op == "predict":
                output = gateway.predict(instance)
                result = {
                    "start_scores": encode_array(output.start_scores),
                    "end_scores": encode_array(output.end_scores),
                    "predicted_span": span_to_dict(output.predicted_span),
                }
            elif op == "masked_start_scores":
                result = {"scores": encode_array(gateway.masked_start_scores(instance))}
            else:
                steps = _int_field(request, "steps", 1, math.inf)
                target = _int_field(request, "target", 0, instance.n_context)
                arrays = gateway.integrated_gradients(instance, steps, target)
                result = dict(zip(IG_FIELDS, map(encode_array, arrays)))
        else:
            raise InputError(f"unknown op {op!r}")
    except Exception as exc:
        kind = next((k for k, cls in ERROR_KINDS.items() if isinstance(exc, cls)), "gateway")
        return {"ok": False, "error": str(exc), "kind": kind}
    return {"ok": True, "result": result}


def serve_stream(gateway: ModelGateway, rfile: IO[str], wfile: IO[str]) -> None:
    """Answer requests line by line until the input stream closes."""
    for line in rfile:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError as exc:  # also an integer past Python's 4300-digit limit
            response = {"ok": False, "error": f"bad JSON: {exc}", "kind": "input"}
        else:
            response = handle_request(gateway, request)
        wfile.write(json.dumps(response) + "\n")
        wfile.flush()


def serve_tcp(gateway: ModelGateway, port: int, host: str = "127.0.0.1") -> None:
    import socket  # only a TCP server needs it

    with socket.create_server((host, port)) as server:
        print(f"serving {gateway.model_id} on {host}:{server.getsockname()[1]}", file=sys.stderr)
        while True:
            conn, _ = server.accept()
            with conn, conn.makefile("r", encoding="utf-8") as rfile, conn.makefile(
                "w", encoding="utf-8"
            ) as wfile:
                serve_stream(gateway, rfile, wfile)


def main(argv: list[str] | None = None) -> int:
    from . import build_gateway

    try:
        args, unread = read_options(sys.argv[1:] if argv is None else argv,
                                    {"--model": ("model", str), "--tcp": ("tcp", int)})
        if "model" not in args:
            raise UsageExit("the following arguments are required: --model")
        if unread:
            raise UsageExit(f"unrecognized arguments: {' '.join(unread)}")
        if not 0 <= args.get("tcp", 0) < 1 << 16:
            raise UsageExit(f"argument --tcp: port must be in 0-65535, not {args['tcp']}")
    except UsageExit as exc:
        raise SystemExit(usage_exit(
            exc, "rcaudit.gateway.remote", "--model MODEL [--tcp TCP]",
            "Serve a model gateway over stdio or TCP.",
            {"options": {"--model MODEL": "gateway spec, e.g. toy:7",
                         "--tcp TCP": "listen on 127.0.0.1:PORT"}})) from None
    gateway = build_gateway(args["model"])
    if args.get("tcp") is not None:
        serve_tcp(gateway, args["tcp"])
    else:
        serve_stream(gateway, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
