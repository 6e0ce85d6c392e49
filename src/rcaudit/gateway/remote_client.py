"""Client half of the remote protocol (see `remote` for the wire format).

`RemoteGateway` satisfies the ModelGateway contract over a pipe to a
server subprocess or a TCP socket. It lives apart from the server so that
a server process imports none of the sockets, subprocesses and timeouts
the client needs.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import socket
import subprocess
import tempfile
import threading
from typing import IO

import numpy as np

from ..corpus.schema import instance_to_dict
from ..errors import CapabilityError, GatewayError, InputError
from ..types import AnswerSpan, RCInstance
from .base import ModelGateway, ModelOutput
from .remote import ERROR_KINDS, IG_FIELDS, decode_array

# Lines of the stdio server's stderr quoted when its connection breaks.
_STDERR_TAIL_LINES = 10
_STDERR_TAIL_BYTES = 4096
# Seconds the client waits to connect over TCP, and for its server to
# take or send the next bytes of a request or reply over either transport;
# steps times that for an integrated_gradients reply (one pass per step),
# up to the longest wait select accepts.
_TIMEOUT_S = 60
# Bytes asked for per read of a reply.
_READ_BYTES = 1 << 16


class RemoteGateway(ModelGateway):
    """Client half of the protocol; satisfies ModelGateway over a wire.

    Endpoints: "tcp://host:port" connects a socket; anything else is run
    as a subprocess command line speaking the protocol on stdio, with its
    stderr kept in a temporary file and quoted when the connection breaks.
    A server that takes or sends no bytes for _TIMEOUT_S (see there) raises
    a GatewayError instead of blocking the audit.
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
                self._sock = socket.create_connection((host, int(port)), timeout=_TIMEOUT_S)
            except OSError as exc:
                raise GatewayError(f"cannot connect to {endpoint}: {exc}") from exc
            self._rfile = self._wfile = self._sock
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
                )
            except OSError as exc:
                self._stderr.close()
                raise GatewayError(f"cannot start remote gateway {endpoint!r}: {exc}") from exc
            self._rfile = self._proc.stdout
            self._wfile = self._proc.stdin
            # Writes return once the pipe is full, so a server that stops
            # reading cannot block a request past the timeout.
            os.set_blocking(self._wfile.fileno(), False)
        # Bytes of the stream read past the end of the last reply line.
        self._pending = b""
        try:
            info = self._request({"op": "info"})
            self._model_id = self._field(info, "model_id", str)
            self._baseline_token = self._field(info, "baseline_token", str, "[MASK]")
            self.max_answer_len = self._field(info, "max_answer_len", int, self.max_answer_len)
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

    def _wait(self, stream, write: bool, timeout_s: float) -> None:
        """Block until `stream` can be written or read. After `timeout_s`
        of silence the connection is closed (a stdio server is killed and
        reaped) and a GatewayError names the endpoint."""
        fds = [stream.fileno()]
        if write:
            ready = select.select([], fds, [], timeout_s)[1]
        else:
            ready = select.select(fds, [], [], timeout_s)[0]
        if not ready:
            if self._proc is not None:
                self._proc.kill()
            error = self._broken(f"did not answer within {timeout_s} s")
            self.close()
            raise error

    def _send(self, data: bytes) -> None:
        view = memoryview(data)
        while True:
            try:
                view = view[os.write(self._wfile.fileno(), view) :]
            except BlockingIOError:
                pass
            if not view:
                return
            self._wait(self._wfile, write=True, timeout_s=_TIMEOUT_S)

    def _receive_line(self, timeout_s: float) -> bytes:
        """The next line from the server, or b"" if it closes before one ends."""
        chunks = [self._pending]
        while (newline := chunks[-1].find(b"\n")) < 0:
            self._wait(self._rfile, write=False, timeout_s=timeout_s)
            chunk = os.read(self._rfile.fileno(), _READ_BYTES)
            if not chunk:
                return b""
            chunks.append(chunk)
        self._pending = chunks[-1][newline + 1 :]
        chunks[-1] = chunks[-1][: newline + 1]
        return b"".join(chunks)

    def _request(self, request: dict, passes: int = 1) -> dict:
        try:
            self._send((json.dumps(request) + "\n").encode("utf-8"))
            line = self._receive_line(min(passes * _TIMEOUT_S, threading.TIMEOUT_MAX))
        except (OSError, ValueError) as exc:
            raise self._broken(f"i/o failed: {exc}") from exc
        if not line:
            raise self._broken("closed the connection")
        try:
            response = json.loads(line)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a malformed response: {exc}"
            ) from exc
        if not isinstance(response, dict):
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a malformed response: "
                f"{type(response).__name__}, not an object"
            )
        if not response.get("ok"):
            exc_type = ERROR_KINDS.get(response.get("kind"), GatewayError)
            raise exc_type(response.get("error", "remote gateway error"))
        return self._field(response, "result", dict)

    def _field(self, reply: dict, name: str, kind: type, default=None):
        """reply[name], which must be a `kind`; otherwise a GatewayError
        naming the endpoint. A missing field with a default gives the default."""
        if name not in reply:
            if default is not None:
                return default
            raise GatewayError(f"remote gateway {self.endpoint!r} sent a reply without {name!r}")
        value = reply[name]
        if not isinstance(value, kind) or type(value) is bool:  # JSON true is no int
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent {name!r} as "
                f"{type(value).__name__}, want {kind.__name__}"
            )
        return value

    def _ask(self, op: str, instance: RCInstance, passes: int = 1, **fields) -> dict:
        """The result of an op on one instance. An input or capability fault
        from the server is raised with the instance's id in front, unless
        its message already starts with it."""
        request = {"op": op, "instance": instance_to_dict(instance), **fields}
        try:
            return self._request(request, passes)
        except (InputError, CapabilityError) as exc:
            if str(exc).startswith(f"{instance.id}: "):
                raise
            raise type(exc)(f"{instance.id}: {exc}") from exc

    def _array(self, result: dict, field: str) -> np.ndarray:
        try:
            return decode_array(self._field(result, field, dict))
        except InputError as exc:
            raise GatewayError(
                f"remote gateway {self.endpoint!r} sent a bad {field!r}: {exc}"
            ) from exc

    def predict(self, instance: RCInstance) -> ModelOutput:
        result = self._ask("predict", instance)
        span = self._field(result, "predicted_span", dict)
        return ModelOutput(
            start_scores=self._array(result, "start_scores"),
            end_scores=self._array(result, "end_scores"),
            predicted_span=AnswerSpan(
                text=self._field(span, "text", str),
                sentence_index=self._field(span, "sent", int),
                token_start=self._field(span, "tok_start", int),
                token_end=self._field(span, "tok_end", int),
            ),
        )

    def masked_start_scores(self, instance: RCInstance) -> np.ndarray:
        return self._array(self._ask("masked_start_scores", instance), "scores")

    def integrated_gradients(
        self, instance: RCInstance, steps: int, target_position: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        result = self._ask(
            "integrated_gradients", instance, steps, steps=steps, target=target_position
        )
        return tuple(self._array(result, name) for name in IG_FIELDS)

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
