"""Out-of-process gateway: line-delimited JSON over a pipe or TCP socket.

Serving side wraps any in-process gateway:

    python3 -m rcaudit.gateway.remote --model toy:7            # stdio
    python3 -m rcaudit.gateway.remote --model toy:7 --tcp 5123 # localhost TCP

Client side, RemoteGateway, speaks the same protocol and satisfies the
ModelGateway contract, so a fine-tuned encoder hosted in another process
(or another runtime entirely) plugs into every audit unchanged.

Requests are one JSON object per line:

    {"op": "predict"|"embed"|"grad_start"|"info",
     "instance": {unified instance record}?,
     "target": int?, "embeddings": [[...]]?}

Responses mirror the in-memory contract:

    {"ok": true, "result": {...}}
    {"ok": false, "error": "...", "kind": "input"|"capability"|"gateway"}
"""

from __future__ import annotations

import argparse
import json
import shlex
import socket
import subprocess
import sys
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
        elif op in ("predict", "embed", "grad_start"):
            instance = instance_from_dict(request["instance"])
            if op == "predict":
                output = gateway.predict(instance)
                span = output.predicted_span
                result = {
                    "start_scores": np.asarray(output.start_scores).tolist(),
                    "end_scores": np.asarray(output.end_scores).tolist(),
                    "predicted_span": {
                        "text": span.text,
                        "sent": span.sentence_index,
                        "tok_start": span.token_start,
                        "tok_end": span.token_end,
                    },
                }
            elif op == "embed":
                result = {"embeddings": gateway.embed(instance).tolist()}
            else:
                embeddings = np.asarray(request["embeddings"], dtype=float)
                grad = gateway.grad_start(instance, embeddings, int(request["target"]))
                result = {"grad": grad.tolist()}
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
    as a subprocess command line speaking the protocol on stdio.
    """

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
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
            try:
                self._proc = subprocess.Popen(
                    argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    encoding="utf-8",
                )
            except OSError as exc:
                raise GatewayError(f"cannot start remote gateway {endpoint!r}: {exc}") from exc
            self._rfile = self._proc.stdout
            self._wfile = self._proc.stdin
        info = self._request({"op": "info"})
        self._model_id = info["model_id"]
        self._baseline_token = info.get("baseline_token", "[MASK]")
        self.max_answer_len = int(info.get("max_answer_len", self.max_answer_len))

    @property
    def model_id(self) -> str:
        return self._model_id

    @property
    def baseline_token(self) -> str:
        return self._baseline_token

    def _request(self, request: dict) -> dict:
        try:
            self._wfile.write(json.dumps(request) + "\n")
            self._wfile.flush()
            line = self._rfile.readline()
        except (OSError, ValueError) as exc:
            raise GatewayError(f"remote gateway i/o failed: {exc}") from exc
        if not line:
            raise GatewayError(f"remote gateway {self.endpoint!r} closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a malformed response: {exc}"
            ) from exc
        if not response.get("ok"):
            exc_type = _ERROR_KINDS.get(response.get("kind"), GatewayError)
            raise exc_type(response.get("error", "remote gateway error"))
        return response["result"]

    def predict(self, instance: RCInstance) -> ModelOutput:
        result = self._request({"op": "predict", "instance": instance_to_dict(instance)})
        span = result["predicted_span"]
        return ModelOutput(
            start_scores=np.asarray(result["start_scores"], dtype=float),
            end_scores=np.asarray(result["end_scores"], dtype=float),
            predicted_span=AnswerSpan(
                text=span["text"],
                sentence_index=span["sent"],
                token_start=span["tok_start"],
                token_end=span["tok_end"],
            ),
        )

    def embed(self, instance: RCInstance) -> np.ndarray:
        result = self._request({"op": "embed", "instance": instance_to_dict(instance)})
        return np.asarray(result["embeddings"], dtype=float)

    def grad_start(
        self, instance: RCInstance, embeddings: np.ndarray, target_position: int
    ) -> np.ndarray:
        result = self._request(
            {
                "op": "grad_start",
                "instance": instance_to_dict(instance),
                "embeddings": np.asarray(embeddings, dtype=float).tolist(),
                "target": target_position,
            }
        )
        return np.asarray(result["grad"], dtype=float)

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
