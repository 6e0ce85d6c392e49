"""Out-of-process gateway protocol: request handling, stdio subprocess, TCP."""

from __future__ import annotations

import base64
import gc
import io
import json
import os
import shlex
import socket
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import build_instance
from rcaudit.errors import CapabilityError, GatewayError, InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.remote import (
    RemoteGateway,
    decode_array,
    encode_array,
    handle_request,
    serve_stream,
)
from rcaudit.saliency import SaliencyConfig, ig_saliency

TOY_SPEC = "toy:7"


def remote_endpoint(model_spec: str) -> str:
    return f"{shlex.quote(sys.executable)} -m rcaudit.gateway.remote --model {model_spec}"


def python_endpoint(script: str) -> str:
    return f"{shlex.quote(sys.executable)} -c {shlex.quote(script)}"


def thirty_two_word_instance():
    inst = build_instance(
        "ig-32",
        "Which keeper lit the harbour lamp?",
        [
            "Ivo Brandt lit the harbour lamp at dusk.",
            "The fishing boats came home late that evening under a sky full of grey clouds.",
        ],
        gold=(0, "Ivo Brandt"),
    )
    assert inst.n_question + inst.n_context == 32
    return inst


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
        assert list(decode_array(result["start_scores"])) == list(local.start_scores)
        assert list(decode_array(result["end_scores"])) == list(local.end_scores)
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
        embeddings = decode_array(embedded["result"]["embeddings"])
        assert np.array_equal(embeddings, local_toy.embed(inst))

        points = np.stack([embeddings, 0.5 * embeddings])
        response = handle_request(
            local_toy,
            {
                "op": "grad_start_batch",
                "instance": record,
                "points": encode_array(points),
                "target": 0,
            },
        )
        assert response["ok"]
        grads = decode_array(response["result"]["grads"])
        assert grads.shape == points.shape
        for point, grad in zip(points, grads):
            assert np.array_equal(grad, local_toy.grad_start(inst, point, 0))

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
                "op": "grad_start_batch",
                "instance": instance_to_dict(inst),
                "points": encode_array(embeddings[np.newaxis]),
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


    def test_short_packed_payload_is_input_error(self, local_toy, corpus):
        from rcaudit.corpus.schema import instance_to_dict

        inst = corpus[0]
        points = encode_array(local_toy.embed(inst)[np.newaxis])
        points["shape"] = [2] + points["shape"][1:]
        response = handle_request(
            local_toy,
            {"op": "grad_start_batch", "instance": instance_to_dict(inst), "points": points, "target": 0},
        )
        assert not response["ok"]
        assert response["kind"] == "input"
        assert "bytes" in response["error"]

    def test_points_must_be_a_stack_of_matrices(self, local_toy, corpus):
        from rcaudit.corpus.schema import instance_to_dict

        inst = corpus[0]
        response = handle_request(
            local_toy,
            {
                "op": "grad_start_batch",
                "instance": instance_to_dict(inst),
                "points": encode_array(local_toy.embed(inst)),
                "target": 0,
            },
        )
        assert not response["ok"]
        assert response["kind"] == "input"

    def test_single_point_op_is_gone(self, local_toy):
        response = handle_request(local_toy, {"op": "grad_start"})
        assert not response["ok"]
        assert response["kind"] == "input"
        assert "unknown op" in response["error"]


class TestPackedArrays:
    def test_round_trip_is_bit_exact_for_edge_values(self):
        tiny = np.finfo(float).tiny
        values = np.array(
            [
                [0.0, -0.0, 5e-324, -5e-324],
                [tiny / 3, -tiny, np.finfo(float).max, -np.finfo(float).max],
                [1e308, -1e-308, 1 / 3, 0.1],
            ]
        )
        payload = json.loads(json.dumps(encode_array(values)))
        assert payload["shape"] == [3, 4]
        decoded = decode_array(payload)
        assert decoded.shape == values.shape
        assert decoded.tobytes() == values.tobytes()
        assert np.signbit(decoded[0, 1])
        decoded[0, 0] = 1.0  # decoded arrays are writable copies

    def test_empty_and_scalar_shapes(self):
        assert decode_array(encode_array(np.zeros((0, 16)))).shape == (0, 16)
        assert decode_array(encode_array(2.5)).tolist() == 2.5

    @pytest.mark.parametrize(
        "payload",
        [
            {"shape": [2], "f8": base64.b64encode(b"\0" * 8).decode()},
            {"shape": [1], "f8": base64.b64encode(b"\0" * 9).decode()},
            {"shape": [1], "f8": "not base64!"},
            {"shape": [-1], "f8": ""},
            {"shape": [1.5], "f8": ""},
            {"f8": ""},
            [0.0, 1.0],
        ],
    )
    def test_malformed_payloads_are_input_errors(self, payload):
        with pytest.raises(InputError):
            decode_array(payload)

    def test_client_rejects_mismatched_payload_as_gateway_error(self, remote_toy, corpus, monkeypatch):
        bad = {"shape": [2, 2], "f8": base64.b64encode(b"\0" * 8).decode()}
        monkeypatch.setattr(remote_toy, "_request", lambda request: {"embeddings": bad})
        with pytest.raises(GatewayError, match="embeddings.*bytes"):
            remote_toy.embed(corpus[0])


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

    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 256])
    def test_ig_maps_equal_in_process_maps(self, remote_toy, local_toy, steps):
        inst = thirty_two_word_instance()
        config = SaliencyConfig(method="integrated_gradients", ig_steps=steps)
        remote = ig_saliency(remote_toy, inst, config)
        local = ig_saliency(local_toy, inst, config)
        assert remote.scores == local.scores
        assert remote.anchor_position == local.anchor_position

    def test_ig_sends_path_points_in_chunks(self, remote_toy, monkeypatch):
        inst = thirty_two_word_instance()
        ops = []
        request = remote_toy._request

        def counting(payload):
            ops.append(payload["op"])
            return request(payload)

        monkeypatch.setattr(remote_toy, "_request", counting)
        ig_saliency(remote_toy, inst, SaliencyConfig(method="integrated_gradients", ig_steps=256))
        # 32 words x 16 dims: 16 path points per request, 256 / 16 batches
        assert ops.count("grad_start_batch") == 16
        assert len(ops) <= 20

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
        endpoint = python_endpoint("import sys; sys.stdin.readline(); print('not json', flush=True)")
        with pytest.raises(GatewayError, match="malformed") as raised:
            RemoteGateway(endpoint)
        assert repr(endpoint) in str(raised.value)

    def test_json_line_that_is_not_an_object_is_gateway_error(self):
        endpoint = python_endpoint("import sys; sys.stdin.readline(); print('[1, 2]', flush=True)")
        with pytest.raises(GatewayError, match="malformed.*list"):
            RemoteGateway(endpoint)

    def test_failed_handshake_reaps_the_server(self, monkeypatch):
        script = "import sys, time; sys.stdin.readline(); print('not json', flush=True); time.sleep(60)"
        pids = []
        popen = subprocess.Popen

        def recording(*args, **kwargs):
            proc = popen(*args, **kwargs)
            pids.append(proc.pid)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(GatewayError, match="malformed"):
                RemoteGateway(python_endpoint(script))
            gc.collect()
        (pid,) = pids
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already waited for: not our child any more
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_server_stderr_tail_is_in_the_error(self):
        script = (
            "import sys\n"
            "for k in range(40): print(f'loading shard {k}', file=sys.stderr)\n"
            "print('fatal: model weights missing', file=sys.stderr)\n"
            "sys.exit(3)"
        )
        with pytest.raises(GatewayError) as raised:
            RemoteGateway(python_endpoint(script))
        message = str(raised.value)
        assert "fatal: model weights missing" in message
        assert "loading shard 39" in message
        assert "loading shard 0\n" not in message  # only the last lines are kept

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
