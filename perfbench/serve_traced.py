"""Traced stand-in for `python -m rcaudit.gateway.remote` on stdio.

    python3 perfbench/serve_traced.py --model toy:7 --report server.json

Serves the protocol through `rcaudit.gateway.remote.serve_stream`, with
byte-counting streams, a timed `handle_request` and the model's own ops
traced. When stdin closes it writes its spans, request count and byte
counts to `--report` and exits.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from tracing import Tracer, install_server


class CountingReader:
    """Line iterator over a text stream that counts the UTF-8 bytes read."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0
        self.lines = 0

    def __iter__(self):
        for line in self.stream:
            self.bytes += len(line.encode("utf-8"))
            self.lines += 1
            yield line


class CountingWriter:
    """Text stream wrapper that counts the UTF-8 bytes written."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)

    def flush(self) -> None:
        self.stream.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--report", required=True, type=Path)
    args = parser.parse_args()
    # The client closes our stdin and then sends SIGTERM; finish reading and
    # write the report instead of dying between the two.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    import rcaudit.gateway.remote as remote
    from rcaudit.gateway import build_gateway

    tracer = Tracer()
    gateway = build_gateway(args.model)
    install_server(tracer, gateway)
    reader, writer = CountingReader(sys.stdin), CountingWriter(sys.stdout)
    remote.serve_stream(gateway, reader, writer)
    tracer.dump(args.report, requests=reader.lines, bytes_in=reader.bytes, bytes_out=writer.bytes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
