"""Out-of-process gateway: line-delimited JSON over a pipe or TCP socket.

Serving side wraps any in-process gateway:

    python3 -m rcaudit.gateway.remote --model toy:7            # stdio
    python3 -m rcaudit.gateway.remote --model toy:7 --tcp 5123 # localhost TCP

Client side, RemoteGateway, speaks the same protocol and satisfies the
ModelGateway contract, so a fine-tuned encoder hosted in another process
(or another runtime entirely) plugs into every audit unchanged.

Requests are one JSON object per line:

    {"op": "info"|"predict"|"embed"|"grad_start_batch",
     "instance": {unified instance record}?,
     "target": int?, "points": ARRAY?}

Responses mirror the in-memory contract:

    {"ok": true, "result": {...}}
    {"ok": false, "error": "...", "kind": "input"|"capability"|"gateway"}

Every array (scores, embeddings, path points, gradients) travels as
ARRAY = {"shape": [...], "f8": "<base64 of little-endian C-order float64>"},
so values cross the wire bit for bit and cost 8 bytes (plus a third for
base64) instead of a decimal string each.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import json
import math
import os
import shlex
import socket
import subprocess
import sys
import tempfile
from typing import IO

import numpy as np

from ..corpus.schema import instance_from_dict, instance_to_dict
from ..errors import CapabilityError, GatewayError, InputError
from ..types import AnswerSpan, RCInstance
from .base import ModelGateway, ModelOutput

_ERROR_KINDS = {
    "input": InputError,
    "capability": CapabilityError,
    "gateway": GatewayError,
}
# Lines of the stdio server's stderr quoted when its connection breaks.
_STDERR_TAIL_LINES = 10
_STDERR_TAIL_BYTES = 4096


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


def handle_request(gateway: ModelGateway, request: dict) -> dict:
    """Serve one protocol request against an in-process gateway."""
    try:
        op = request.get("op")
        if op == "info":
            result = {
                "model_id": gateway.model_id,
                "baseline_token": gateway.baseline_token,
                "max_answer_len": gateway.max_answer_len,
            }
        elif op in ("predict", "embed", "grad_start_batch"):
            instance = instance_from_dict(request["instance"])
            if op == "predict":
                output = gateway.predict(instance)
                span = output.predicted_span
                result = {
                    "start_scores": encode_array(output.start_scores),
                    "end_scores": encode_array(output.end_scores),
                    "predicted_span": {
                        "text": span.text,
                        "sent": span.sentence_index,
                        "tok_start": span.token_start,
                        "tok_end": span.token_end,
                    },
                }
            elif op == "embed":
                result = {"embeddings": encode_array(gateway.embed(instance))}
            else:
                points = decode_array(request["points"])
                if points.ndim != 3:
                    raise InputError(f"points have shape {points.shape}, want (k, n, d)")
                grads = gateway.grad_start_batch(instance, points, int(request["target"]))
                result = {"grads": encode_array(grads)}
        else:
            raise InputError(f"unknown op {op!r}")
    except InputError as exc:
        return {"ok": False, "error": str(exc), "kind": "input"}
    except CapabilityError as exc:
        return {"ok": False, "error": str(exc), "kind": "capability"}
    except KeyError as exc:
        return {"ok": False, "error": f"missing request field {exc}", "kind": "input"}
    except Exception as exc:
        return {"ok": False, "error": str(exc), "kind": "gateway"}
    return {"ok": True, "result": result}


def serve_stream(gateway: ModelGateway, rfile: IO[str], wfile: IO[str]) -> None:
    """Answer requests line by line until the input stream closes."""
    for line in rfile:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"bad JSON: {exc}", "kind": "input"}
        else:
            response = handle_request(gateway, request)
        wfile.write(json.dumps(response) + "\n")
        wfile.flush()


def serve_tcp(gateway: ModelGateway, port: int, host: str = "127.0.0.1") -> None:
    with socket.create_server((host, port)) as server:
        print(f"serving {gateway.model_id} on {host}:{server.getsockname()[1]}", file=sys.stderr)
        while True:
            conn, _ = server.accept()
            with conn, conn.makefile("r", encoding="utf-8") as rfile, conn.makefile(
                "w", encoding="utf-8"
            ) as wfile:
                serve_stream(gateway, rfile, wfile)


class RemoteGateway(ModelGateway):
    """Client half of the protocol; satisfies ModelGateway over a wire.

    Endpoints: "tcp://host:port" connects a socket; anything else is run
    as a subprocess command line speaking the protocol on stdio, with its
    stderr kept in a temporary file and quoted when the connection breaks.
    """

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
        self._stderr: IO[bytes] | None = None
        if endpoint.startswith("tcp://"):
            host, _, port = endpoint[len("tcp://") :].partition(":")
            if not port.isdigit():
                raise InputError(f"bad tcp endpoint {endpoint!r} (want tcp://host:port)")
            try:
                self._sock = socket.create_connection((host, int(port)), timeout=60)
            except OSError as exc:
                raise GatewayError(f"cannot connect to {endpoint}: {exc}") from exc
            self._rfile = self._sock.makefile("r", encoding="utf-8")
            self._wfile = self._sock.makefile("w", encoding="utf-8")
        else:
            argv = shlex.split(endpoint)
            if not argv:
                raise InputError("empty remote endpoint")
            self._stderr = tempfile.TemporaryFile()
            try:
                self._proc = subprocess.Popen(
                    argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=self._stderr,
                    text=True,
                    encoding="utf-8",
                )
            except OSError as exc:
                self._stderr.close()
                raise GatewayError(f"cannot start remote gateway {endpoint!r}: {exc}") from exc
            self._rfile = self._proc.stdout
            self._wfile = self._proc.stdin
        try:
            info = self._request({"op": "info"})
            self._model_id = info["model_id"]
            self._baseline_token = info.get("baseline_token", "[MASK]")
            self.max_answer_len = int(info.get("max_answer_len", self.max_answer_len))
        except BaseException:
            self.close()
            raise

    @property
    def model_id(self) -> str:
        return self._model_id

    @property
    def baseline_token(self) -> str:
        return self._baseline_token

    def _stderr_tail(self) -> str:
        """The last lines the stdio server wrote to stderr ("" for TCP)."""
        if self._stderr is None or self._stderr.closed:
            return ""
        try:
            # It closed its end, so it is usually exiting: let it finish writing.
            self._proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            pass
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        # pread leaves the offset the server's writes share untouched.
        offset = max(0, size - _STDERR_TAIL_BYTES)
        data = os.pread(fd, size - offset, offset)
        lines = data.decode("utf-8", "replace").splitlines()
        return "\n".join(lines[-_STDERR_TAIL_LINES:])

    def _broken(self, what: str) -> GatewayError:
        message = f"remote gateway {self.endpoint!r} {what}"
        tail = self._stderr_tail()
        if tail:
            message += f"; its stderr ends with:\n{tail}"
        return GatewayError(message)

    def _request(self, request: dict) -> dict:
        try:
            self._wfile.write(json.dumps(request) + "\n")
            self._wfile.flush()
            line = self._rfile.readline()
        except (OSError, ValueError) as exc:
            raise self._broken(f"i/o failed: {exc}") from exc
        if not line:
            raise self._broken("closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a malformed response: {exc}"
            ) from exc
        if not isinstance(response, dict):
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a malformed response: "
                f"{type(response).__name__}, not an object"
            )
        if not response.get("ok"):
            exc_type = _ERROR_KINDS.get(response.get("kind"), GatewayError)
            raise exc_type(response.get("error", "remote gateway error"))
        return response["result"]

    def _array(self, result: dict, field: str) -> np.ndarray:
        try:
            return decode_array(result[field])
        except (InputError, KeyError) as exc:
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a bad {field!r}: {exc}"
            ) from exc

    def predict(self, instance: RCInstance) -> ModelOutput:
        result = self._request({"op": "predict", "instance": instance_to_dict(instance)})
        span = result["predicted_span"]
        return ModelOutput(
            start_scores=self._array(result, "start_scores"),
            end_scores=self._array(result, "end_scores"),
            predicted_span=AnswerSpan(
                text=span["text"],
                sentence_index=span["sent"],
                token_start=span["tok_start"],
                token_end=span["tok_end"],
            ),
        )

    def embed(self, instance: RCInstance) -> np.ndarray:
        result = self._request({"op": "embed", "instance": instance_to_dict(instance)})
        return self._array(result, "embeddings")

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        points = np.asarray(embeddings, dtype=float)[np.newaxis]
        return self.grad_start_batch(instance, points, target_position)[0]

    def grad_start_batch(
        self, instance: RCInstance, points: np.ndarray, target_position: int
    ) -> np.ndarray:
        result = self._request(
            {
                "op": "grad_start_batch",
                "instance": instance_to_dict(instance),
                "points": encode_array(points),
                "target": target_position,
            }
        )
        return self._array(result, "grads")

    def close(self) -> None:
        for stream in (getattr(self, "_wfile", None), getattr(self, "_rfile", None)):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        if self._sock is not None:
            self._sock.close()
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._stderr is not None:
            self._stderr.close()


def main(argv: list[str] | None = None) -> int:
    from . import build_gateway

    parser = argparse.ArgumentParser(
        prog="rcaudit.gateway.remote", description="Serve a model gateway over stdio or TCP."
    )
    parser.add_argument("--model", required=True, help="gateway spec, e.g. toy:7")
    parser.add_argument("--tcp", type=int, default=None, help="listen on 127.0.0.1:PORT")
    args = parser.parse_args(argv)
    gateway = build_gateway(args.model)
    if args.tcp is not None:
        serve_tcp(gateway, args.tcp)
    else:
        serve_stream(gateway, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
