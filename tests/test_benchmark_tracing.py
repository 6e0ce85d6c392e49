"""The traced benchmark run patches rcaudit names by attribute; they must exist."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

INSTALL_TRACERS = """
import sys
sys.path[:0] = sys.argv[1:]
from tracing import Tracer, install_client, install_server
from rcaudit.gateway import build_gateway
install_client(Tracer())
install_server(Tracer(), build_gateway("toy:7"))
"""


def test_benchmark_tracer_installs_on_this_tree():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_TRACERS, str(REPO / "src"), str(REPO / "perfbench")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
