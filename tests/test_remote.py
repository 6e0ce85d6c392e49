"""Out-of-process gateway protocol: request handling, stdio subprocess, TCP."""

from __future__ import annotations

import io
import json
import shlex
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import build_instance
from rcaudit.errors import CapabilityError, GatewayError, InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.remote import RemoteGateway, handle_request, serve_stream

TOY_SPEC = "toy:7"


def remote_endpoint(model_spec: str) -> str:
    return f"{shlex.quote(sys.executable)} -m rcaudit.gateway.remote --model {model_spec}"


@pytest.fixture(scope="module")
def local_toy():
    return build_gateway(TOY_SPEC)


@pytest.fixture(scope="module")
def remote_toy():
    gateway = RemoteGateway(remote_endpoint(TOY_SPEC))
    yield gateway
    gateway.close()


class TestHandleRequest:
    """Protocol handler exercised in process, no pipes involved."""

    def test_info_reports_contract(self, local_toy):
        response = handle_request(local_toy, {"op": "info"})
        assert response["ok"]
        assert response["result"] == {
            "model_id": TOY_SPEC,
            "baseline_token": local_toy.baseline_token,
            "max_answer_len": local_toy.max_answer_len,
        }

    def test_predict_matches_local_gateway(self, local_toy, corpus):
        from rcaudit.corpus.schema import instance_to_dict

        inst = corpus[0]
        response = handle_request(local_toy, {"op": "predict", "instance": instance_to_dict(inst)})
        assert response["ok"]
        result = response["result"]
        local = local_toy.predict(inst)
        assert result["start_scores"] == list(local.start_scores)
        assert result["end_scores"] == list(local.end_scores)
        span = result["predicted_span"]
        assert span["text"] == local.predicted_span.text
        assert (span["tok_start"], span["tok_end"]) == (
            local.predicted_span.token_start,
            local.predicted_span.token_end,
        )

    def test_embed_and_grad_round_trip(self, local_toy, corpus):
        from rcaudit.corpus.schema import instance_to_dict

        inst = corpus[1]
        record = instance_to_dict(inst)
        embedded = handle_request(local_toy, {"op": "embed", "instance": record})
        assert embedded["ok"]
        embeddings = np.asarray(embedded["result"]["embeddings"])
        assert np.array_equal(embeddings, local_toy.embed(inst))

        response = handle_request(
            local_toy,
            {"op": "grad_start", "instance": record, "embeddings": embeddings.tolist(), "target": 0},
        )
        assert response["ok"]
        expected = local_toy.grad_start(inst, embeddings, 0)
        assert np.array_equal(np.asarray(response["result"]["grad"]), expected)

    def test_unknown_op_is_input_error(self, local_toy):
        response = handle_request(local_toy, {"op": "translate"})
        assert not response["ok"]
        assert response["kind"] == "input"

    def test_missing_field_is_input_error(self, local_toy):
        response = handle_request(local_toy, {"op": "predict"})
        assert not response["ok"]
        assert response["kind"] == "input"
        assert "instance" in response["error"]

    def test_internal_failure_is_gateway_error(self, local_toy, corpus):
        from rcaudit.corpus.schema import instance_to_dict

        inst = corpus[0]
        embeddings = local_toy.embed(inst)
        response = handle_request(
            local_toy,
            {
                "op": "grad_start",
                "instance": instance_to_dict(inst),
                "embeddings": embeddings.tolist(),
                "target": 10_000,
            },
        )
        assert not response["ok"]
        assert response["kind"] == "gateway"

    def test_capability_kind_for_scripted_embed(self, tmp_path, corpus):
        from rcaudit.corpus.schema import instance_to_dict

        inst = corpus[0]
        script = {
            "name": "wire",
            "instances": {inst.id: {"answer": [0, 0], "base": 0.9, "sensitivity": [0.0] * (inst.n_question + inst.n_context)}},
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        gateway = build_gateway(f"scripted:{path}")
        response = handle_request(gateway, {"op": "embed", "instance": instance_to_dict(inst)})
        assert not response["ok"]
        assert response["kind"] == "capability"


class TestServeStream:
    def test_serves_lines_and_flags_bad_json(self, local_toy):
        requests = "\n".join(["", json.dumps({"op": "info"}), "{not json"]) + "\n"
        out = io.StringIO()
        serve_stream(local_toy, io.StringIO(requests), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 2  # blank line is skipped
        assert responses[0]["ok"] and responses[0]["result"]["model_id"] == TOY_SPEC
        assert not responses[1]["ok"]
        assert responses[1]["kind"] == "input"


class TestSubprocessRoundTrip:
    def test_handshake_sets_identity(self, remote_toy, local_toy):
        assert remote_toy.model_id == TOY_SPEC
        assert remote_toy.baseline_token == local_toy.baseline_token
        assert remote_toy.max_answer_len == local_toy.max_answer_len

    def test_predict_parity_with_local(self, remote_toy, local_toy, corpus):
        for inst in corpus[:5]:
            remote = remote_toy.predict(inst)
            local = local_toy.predict(inst)
            assert np.array_equal(remote.start_scores, local.start_scores)
            assert np.array_equal(remote.end_scores, local.end_scores)
            assert remote.predicted_span == local.predicted_span

    def test_embed_and_grad_parity_with_local(self, remote_toy, local_toy, corpus):
        inst = corpus[2]
        embeddings = remote_toy.embed(inst)
        assert np.array_equal(embeddings, local_toy.embed(inst))
        target = local_toy.predict(inst).predicted_span.token_start
        remote_grad = remote_toy.grad_start(inst, embeddings, target)
        local_grad = local_toy.grad_start(inst, embeddings, target)
        assert np.array_equal(remote_grad, local_grad)

    def test_errors_map_to_typed_exceptions(self, remote_toy, corpus):
        inst = corpus[0]
        embeddings = remote_toy.embed(inst)
        with pytest.raises(GatewayError):
            remote_toy.grad_start(inst, embeddings, 10_000)
        with pytest.raises(InputError):
            remote_toy._request({"op": "translate"})

    def test_scripted_capability_error_crosses_the_wire(self, tmp_path):
        inst = build_instance(
            "rt-1",
            "Who fixed the clock?",
            ["Nora Quist fixed the clock.", "It chimed at noon."],
            gold=(0, "Nora Quist"),
        )
        script = {
            "name": "wire",
            "instances": {"rt-1": {"answer": [0, 1], "base": 0.9, "sensitivity": [0.0] * (inst.n_question + inst.n_context)}},
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        with RemoteGateway(remote_endpoint(f"scripted:{path}")) as gateway:
            assert gateway.model_id == "scripted:wire"
            output = gateway.predict(inst)
            assert output.predicted_span.text == "Nora Quist"
            with pytest.raises(CapabilityError):
                gateway.embed(inst)

    def test_context_manager_stops_the_subprocess(self, corpus):
        with RemoteGateway(remote_endpoint(TOY_SPEC)) as gateway:
            gateway.predict(corpus[0])
            proc = gateway._proc
        assert proc.poll() is not None

    def test_bad_endpoints_are_rejected(self):
        with pytest.raises(InputError):
            RemoteGateway("")
        with pytest.raises(InputError, match="tcp"):
            RemoteGateway("tcp://127.0.0.1:not-a-port")
        with pytest.raises(GatewayError, match="cannot start"):
            RemoteGateway("./no-such-binary-anywhere")

    def test_malformed_response_line_is_gateway_error(self):
        script = "import sys; sys.stdin.readline(); print('not json', flush=True)"
        endpoint = f"{shlex.quote(sys.executable)} -c {shlex.quote(script)}"
        with pytest.raises(GatewayError, match="malformed") as raised:
            RemoteGateway(endpoint)
        assert repr(endpoint) in str(raised.value)

    def test_unreachable_tcp_endpoint(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(GatewayError, match="cannot connect"):
            RemoteGateway(f"tcp://127.0.0.1:{port}")


class TestTcpRoundTrip:
    def test_predict_over_tcp(self, local_toy, corpus):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = subprocess.Popen(
            [sys.executable, "-m", "rcaudit.gateway.remote", "--model", TOY_SPEC, "--tcp", str(port)],
            stderr=subprocess.DEVNULL,
        )
        gateway = None
        try:
            for _ in range(100):
                try:
                    gateway = RemoteGateway(f"tcp://127.0.0.1:{port}")
                    break
                except GatewayError:
                    time.sleep(0.05)
            assert gateway is not None, "server never came up"
            assert gateway.model_id == TOY_SPEC
            inst = corpus[0]
            remote = gateway.predict(inst)
            assert remote.predicted_span == local_toy.predict(inst).predicted_span
            gateway.close()
        finally:
            server.terminate()
            server.wait(timeout=5)
