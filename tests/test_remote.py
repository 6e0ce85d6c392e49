"""Out-of-process gateway protocol: request handling, stdio subprocess, TCP."""

from __future__ import annotations

import ast
import base64
import gc
import io
import json
import os
import re
import shlex
import socket
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import build_instance
from rcaudit.alignment import audit_alignment, plan_pairs, screen_partition
from rcaudit.cli import main as cli_main
from rcaudit.corpus.schema import instance_to_dict, load_jsonl
from rcaudit.counterfactuals import perturb_comparison
from rcaudit.data import fixture_corpus_path
from rcaudit.errors import CapabilityError, GatewayError, InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway import base as base_module
from rcaudit.gateway import remote_client as client_module
from rcaudit.gateway.base import integrated_gradients, masked_start_scores
from rcaudit.gateway.remote import (
    _INSTANCE_OPS,
    decode_array,
    encode_array,
    handle_request,
    serve_stream,
)
from rcaudit.gateway.remote import main as remote_main
from rcaudit.gateway.remote_client import RemoteGateway
from rcaudit.gateway.toy import ReferenceToyModel
from rcaudit.metrics import exact_match
from rcaudit.saliency import SaliencyConfig, ig_saliency, occlusion_saliency
from rcaudit.synthetic import make_synthetic_corpus

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


def long_instance():
    """About 200 words: a masked_start_scores reply of about 400 kB, many
    pipe reads long."""
    words = " ".join(f"w{k}" for k in range(190))
    inst = build_instance(
        "long-1",
        "Which keeper lit the harbour lamp?",
        ["Ivo Brandt lit the harbour lamp.", f"Then {words} happened."],
        gold=(0, "Ivo Brandt"),
    )
    assert inst.n_context > 190
    return inst


def canned_server(reply: dict) -> str:
    """stdio endpoint that answers info as model "canned" and every other
    request with `reply`."""
    script = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    if json.loads(line)['op'] == 'info':\n"
        "        print(json.dumps({'ok': True, 'result': {'model_id': 'canned'}}), flush=True)\n"
        "    else:\n"
        f"        print({json.dumps(reply)!r}, flush=True)\n"
    )
    return python_endpoint(script)


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

    def test_masked_start_scores_round_trip(self, local_toy, corpus):
        inst = corpus[1]
        request = {"op": "masked_start_scores", "instance": instance_to_dict(inst)}
        response = handle_request(local_toy, request)
        assert response["ok"]
        scores = decode_array(response["result"]["scores"])
        assert np.array_equal(scores, local_toy.masked_start_scores(inst))
        assert scores.shape == (inst.n_question + inst.n_context, inst.n_context)

    def test_embed_and_grad_start_ops_are_gone(self, local_toy, corpus):
        for op in ("embed", "grad_start"):
            request = {"op": op, "instance": instance_to_dict(corpus[1]), "target": 0}
            response = handle_request(local_toy, request)
            assert not response["ok"]
            assert response["kind"] == "input"
            assert response["error"] == f"unknown op {op!r}"

    def test_integrated_gradients_round_trip(self, local_toy, corpus):
        inst = corpus[1]
        request = {
            "op": "integrated_gradients",
            "instance": instance_to_dict(inst),
            "steps": 9,
            "target": 1,
        }
        response = handle_request(local_toy, request)
        assert response["ok"]
        result = response["result"]
        local = local_toy.integrated_gradients(inst, 9, 1)
        for name, want in zip(("embeddings", "baseline", "grads"), local):
            assert decode_array(result[name]).tobytes() == want.tobytes()

    def test_unknown_op_is_input_error(self, local_toy):
        response = handle_request(local_toy, {"op": "translate"})
        assert not response["ok"]
        assert response["kind"] == "input"

    def test_missing_field_is_input_error(self, local_toy):
        response = handle_request(local_toy, {"op": "predict"})
        assert not response["ok"]
        assert response["kind"] == "input"
        assert "instance" in response["error"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("steps", 0, "steps must be an integer in [1, inf), got 0"),
            ("steps", -3, "steps must be an integer in [1, inf), got -3"),
            ("steps", 2.7, "steps must be an integer in [1, inf), got 2.7"),
            ("steps", "x", "steps must be an integer in [1, inf), got 'x'"),
            ("steps", True, "steps must be an integer in [1, inf), got True"),
            ("target", -1, "target must be an integer in [0, 34), got -1"),
            ("target", 999, "target must be an integer in [0, 34), got 999"),
            ("instance", ["op"], "malformed instance record: 'list' object has no attribute 'get'"),
        ],
    )
    def test_bad_integrated_gradients_fields_are_input_errors(
        self, local_toy, corpus, field, value, message
    ):
        request = {
            "op": "integrated_gradients",
            "instance": instance_to_dict(corpus[0]),
            "steps": 2,
            "target": 0,
            field: value,
        }
        assert corpus[0].n_context == 34
        response = handle_request(local_toy, request)
        assert response == {"ok": False, "error": message, "kind": "input"}

    @pytest.mark.parametrize("op", ["predict", "masked_start_scores", "integrated_gradients"])
    @pytest.mark.parametrize(
        "part, empty, message",
        [
            ("question", {"text": "", "tokens": []}, "question has no tokens"),
            ("context", [], "context has no sentences"),
        ],
    )
    def test_instance_that_fails_validation_is_input_error(
        self, local_toy, corpus, op, part, empty, message
    ):
        doc = instance_to_dict(corpus[0])
        doc[part] = empty
        request = {"op": op, "instance": doc, "steps": 2, "target": 0}
        response = handle_request(local_toy, request)
        assert response == {"ok": False, "error": f"{corpus[0].id}: {message}", "kind": "input"}

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"end": 99}, "text length mismatch at token 1"),
            ({"start": 0, "end": 2, "text": "ab"}, "overlapping char offsets at token 1"),
            ({"end": 9, "start": 9, "text": ""}, "empty char range for token 1"),
        ],
    )
    def test_instance_with_a_faulty_token_names_it_as_load_jsonl_does(
        self, local_toy, corpus, tmp_path, fault, message
    ):
        doc = instance_to_dict(corpus[0])
        doc["context"][0]["tokens"][1].update(fault)
        path = tmp_path / "faulty.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        with pytest.raises(InputError) as caught:
            load_jsonl(path)
        reason = str(caught.value).removeprefix(f"{path}: malformed record 0: ")
        assert reason == f"{corpus[0].id} sentence 0: {message}"
        response = handle_request(local_toy, {"op": "predict", "instance": doc})
        assert response == {"ok": False, "error": reason, "kind": "input"}

    @pytest.mark.parametrize("request_", [["op"], "info", 3, None])
    def test_request_that_is_not_an_object_is_input_error(self, local_toy, request_):
        response = handle_request(local_toy, request_)
        assert response["kind"] == "input"
        assert response["error"] == f"request is a {type(request_).__name__}, not an object"

    def test_internal_failure_is_gateway_error(self, corpus):
        class Failing(ReferenceToyModel):
            def integrated_gradients(self, instance, steps, target_position):
                raise RuntimeError("ran out of memory")

        response = handle_request(
            Failing(seed=7),
            {
                "op": "integrated_gradients",
                "instance": instance_to_dict(corpus[0]),
                "steps": 2,
                "target": 0,
            },
        )
        assert not response["ok"]
        assert response["kind"] == "gateway"
        assert response["error"] == "ran out of memory"

    def test_key_error_inside_the_gateway_is_gateway_error(self, corpus):
        class Failing(ReferenceToyModel):
            def predict(self, instance):
                return {}["start"]

        request = {"op": "predict", "instance": instance_to_dict(corpus[0])}
        response = handle_request(Failing(seed=7), request)
        assert response == {"ok": False, "error": "'start'", "kind": "gateway"}

    def test_capability_kind_for_scripted_embed(self, tmp_path, corpus):
        inst = corpus[0]
        script = {
            "name": "wire",
            "instances": {inst.id: {"answer": [0, 0], "base": 0.9, "sensitivity": [0.0] * (inst.n_question + inst.n_context)}},
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        gateway = build_gateway(f"scripted:{path}")
        request = {
            "op": "integrated_gradients",
            "instance": instance_to_dict(inst),
            "steps": 2,
            "target": 0,
        }
        response = handle_request(gateway, request)
        assert not response["ok"]
        assert response["kind"] == "capability"

    def test_batch_op_is_gone(self, local_toy):
        response = handle_request(local_toy, {"op": "grad_start_batch"})
        assert not response["ok"]
        assert response["kind"] == "input"
        assert "unknown op" in response["error"]


# Every rcaudit module a toy server loads; anything more is paid at each start.
TOY_SERVER_MODULES = {
    "rcaudit",
    "rcaudit.errors",
    "rcaudit.types",
    "rcaudit.gateway",
    "rcaudit.gateway.base",
    "rcaudit.masking",
    "rcaudit.text",
    "rcaudit.gateway.toy",
    "rcaudit.gateway.remote",
    "rcaudit.corpus",
    "rcaudit.corpus.schema",
}


def loaded_modules(code: str, stdin: str = "") -> tuple[set[str], str]:
    """The modules a fresh interpreter holds after running `code` (which
    prints nothing to stderr), and what it wrote to stdout."""
    code += "\nimport sys\nprint('\\n'.join(sys.modules), file=sys.stderr)\n"
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split()), done.stdout


class TestServerImports:
    def test_toy_server_loads_only_what_it_serves(self, corpus):
        instance = instance_to_dict(corpus[0])
        requests = [
            {"op": "info"},
            {"op": "predict", "instance": instance},
            {"op": "masked_start_scores", "instance": instance},
            {"op": "integrated_gradients", "instance": instance, "steps": 2, "target": 0},
        ]
        modules, replies = loaded_modules(
            "import rcaudit.gateway.remote as remote\n"
            f"remote.main(['--model', {TOY_SPEC!r}])",
            "".join(json.dumps(r) + "\n" for r in requests),
        )
        assert [json.loads(line)["ok"] for line in replies.splitlines()] == [True] * 4
        assert {m for m in modules if m.partition(".")[0] == "rcaudit"} == TOY_SERVER_MODULES
        bare, _ = loaded_modules("pass")
        for client_only in ("socket", "subprocess"):
            assert client_only not in modules or client_only in bare

    @pytest.mark.parametrize("argv", [
        ["--model", TOY_SPEC],
        [f"--model={TOY_SPEC}"],
        ["--model", "toy:1", "--model", TOY_SPEC],
    ], ids=["space", "equals", "repeat"])
    def test_a_valid_command_line_loads_no_argparse(self, argv):
        modules, replies = loaded_modules(
            f"import rcaudit.gateway.remote as remote\nremote.main({argv!r})",
            json.dumps({"op": "info"}) + "\n",
        )
        assert json.loads(replies)["result"]["model_id"] == TOY_SPEC
        assert "argparse" not in modules
        assert {m for m in modules if m.partition(".")[0] == "rcaudit"} == TOY_SERVER_MODULES

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: --model"),
        (["--model", TOY_SPEC, "--tcp", "x"], "argument --tcp: invalid int value: 'x'"),
        (["--model"], "argument --model: expected one argument"),
        (["--model", TOY_SPEC, "--port", "1"], "unrecognized arguments: --port 1"),
    ], ids=["no-model", "bad-port", "bare-model", "unknown-flag"])
    def test_argparse_refuses_any_other_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as refused:
            remote_main(argv)
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rcaudit.gateway.remote [-h] --model MODEL [--tcp TCP]\n")
        assert err.endswith(f"rcaudit.gateway.remote: error: {message}\n")


def checked_ops() -> list[str]:
    """The op names the checked callers in gateway/base.py pass to `_call`."""
    tree = ast.parse(Path(base_module.__file__).read_text(encoding="utf-8"))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_call"
    ]
    assert all(isinstance(call.args[1], ast.Constant) for call in calls)
    return [call.args[1].value for call in calls]


class TestContractIsTheWire:
    def test_every_checked_op_is_served_and_defined_by_the_client(self):
        ops = checked_ops()
        assert sorted(ops) == sorted(_INSTANCE_OPS)
        inherited = [op for op in ops if op not in RemoteGateway.__dict__]
        assert inherited == []


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
        monkeypatch.setattr(remote_toy, "_request", lambda request, passes=1: {"embeddings": bad})
        with pytest.raises(GatewayError, match="embeddings.*bytes"):
            remote_toy.integrated_gradients(corpus[0], 2, 0)


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
        target = local_toy.predict(inst).predicted_span.token_start
        remote = remote_toy.integrated_gradients(inst, 5, target)
        local = local_toy.integrated_gradients(inst, 5, target)
        assert np.array_equal(remote[0], local_toy.embed(inst))
        for got, want in zip(remote, local):
            assert got.tobytes() == want.tobytes()

    def test_embed_and_grad_start_raise_without_a_round_trip(self, remote_toy, corpus, monkeypatch):
        def no_wire(*args, **kwargs):
            raise AssertionError("made a round trip")

        monkeypatch.setattr(remote_toy, "_request", no_wire)
        inst = corpus[0]
        with pytest.raises(CapabilityError, match=TOY_SPEC):
            remote_toy.embed(inst)
        with pytest.raises(CapabilityError, match=TOY_SPEC):
            remote_toy.grad_start(inst, np.zeros((inst.n_question + inst.n_context, 16)), 0)

    def test_errors_map_to_typed_exceptions(self, remote_toy, corpus):
        inst = corpus[0]
        with pytest.raises(InputError, match="target must be an integer"):
            remote_toy.integrated_gradients(inst, 2, 10_000)
        with pytest.raises(InputError):
            remote_toy._request({"op": "translate"})
        failing = canned_server({"ok": False, "error": "ran out of memory", "kind": "gateway"})
        with RemoteGateway(failing) as gateway, pytest.raises(GatewayError, match="out of memory"):
            gateway.predict(inst)

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
                gateway.integrated_gradients(inst, 4, 0)

    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 256])
    def test_ig_maps_equal_in_process_maps(self, remote_toy, local_toy, steps):
        inst = thirty_two_word_instance()
        config = SaliencyConfig(method="integrated_gradients", ig_steps=steps)
        remote = ig_saliency(remote_toy, inst, config)
        local = ig_saliency(local_toy, inst, config)
        assert remote.scores == local.scores
        assert remote.anchor_position == local.anchor_position

    def test_ig_costs_two_round_trips(self, remote_toy, monkeypatch):
        inst = thirty_two_word_instance()
        ops = []
        request = remote_toy._request

        def counting(payload, *args, **kwargs):
            ops.append(payload["op"])
            return request(payload, *args, **kwargs)

        monkeypatch.setattr(remote_toy, "_request", counting)
        ig_saliency(remote_toy, inst, SaliencyConfig(method="integrated_gradients", ig_steps=256))
        assert ops == ["predict", "integrated_gradients"]

    def test_ig_align_asks_about_twins_only_after_right_originals(
        self, remote_toy, local_toy, monkeypatch
    ):
        pairs = []
        for inst in make_synthetic_corpus(300):
            try:
                screen_partition(inst)
            except InputError:
                continue
            pairs.append(perturb_comparison(inst))
        asked = []
        request = remote_toy._request

        def counting(payload, *args, **kwargs):
            asked.append((payload["op"], payload["instance"]["id"]))
            return request(payload, *args, **kwargs)

        monkeypatch.setattr(remote_toy, "_request", counting)
        config = SaliencyConfig(method="integrated_gradients", ig_steps=4)
        report = audit_alignment(remote_toy, plan_pairs(pairs), config)
        want = []
        for pair in sorted(pairs, key=lambda p: p.original.id):
            original = pair.original
            want += [("predict", original.id), ("integrated_gradients", original.id)]
            answer = local_toy.predict(original).predicted_span.text
            if exact_match(answer, [a.text for a in original.gold_answers]):
                want.append(("predict", pair.perturbed.id))
        assert len(report.records) == len(pairs) == 50
        assert 2 * len(pairs) < len(want) < 3 * len(pairs)
        assert asked == want

    def test_occlusion_maps_equal_in_process_maps(self, remote_toy, local_toy, corpus):
        for inst in [thirty_two_word_instance(), long_instance(), *corpus[:3]]:
            remote = occlusion_saliency(remote_toy, inst)
            local = occlusion_saliency(local_toy, inst)
            assert remote.scores == local.scores
            assert remote.anchor_position == local.anchor_position

    def test_occlusion_costs_two_round_trips(self, remote_toy, monkeypatch):
        ops = []
        request = remote_toy._request

        def counting(payload, *args, **kwargs):
            ops.append(payload["op"])
            return request(payload, *args, **kwargs)

        monkeypatch.setattr(remote_toy, "_request", counting)
        occlusion_saliency(remote_toy, long_instance())
        assert ops == ["predict", "masked_start_scores"]

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

    def test_info_reply_without_result_is_gateway_error(self, monkeypatch):
        script = (
            "import sys, time\n"
            "sys.stdin.readline()\n"
            "print('{\"ok\": true}', flush=True)\n"
            "time.sleep(60)"
        )
        endpoint = python_endpoint(script)
        pids = []
        popen = subprocess.Popen

        def recording(*args, **kwargs):
            proc = popen(*args, **kwargs)
            pids.append(proc.pid)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording)
        with pytest.raises(GatewayError, match="reply without 'result'") as raised:
            RemoteGateway(endpoint)
        assert repr(endpoint) in str(raised.value)
        (pid,) = pids
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # the handshake failure stopped and reaped it

    @pytest.mark.parametrize(
        "info, message",
        [
            ({}, "reply without 'model_id'"),
            ({"model_id": 7}, "'model_id' as int, want str"),
            ({"model_id": "m", "max_answer_len": "30"}, "'max_answer_len' as str, want int"),
            ({"model_id": "m", "baseline_token": None}, "'baseline_token' as NoneType, want str"),
        ],
    )
    def test_malformed_info_reply_is_gateway_error(self, info, message):
        reply = json.dumps({"ok": True, "result": info})
        script = f"import sys; sys.stdin.readline(); print({reply!r}, flush=True)"
        with pytest.raises(GatewayError, match=message):
            RemoteGateway(python_endpoint(script))

    def test_info_reply_defaults_the_optional_fields(self):
        reply = json.dumps({"ok": True, "result": {"model_id": "m"}})
        script = f"import sys; sys.stdin.readline(); print({reply!r}, flush=True); sys.stdin.read()"
        with RemoteGateway(python_endpoint(script)) as gateway:
            assert (gateway.model_id, gateway.baseline_token, gateway.max_answer_len) == ("m", "[MASK]", 30)

    def test_predict_reply_without_predicted_span_is_gateway_error(self, corpus):
        # Answers the handshake like a server, then drops the span from predict.
        script = (
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['op'] == 'info':\n"
            "        reply = {'ok': True, 'result': {'model_id': 'fake'}}\n"
            "    else:\n"
            "        reply = {'ok': True, 'result': {'start_scores': None}}\n"
            "    print(json.dumps(reply), flush=True)\n"
        )
        endpoint = python_endpoint(script)
        with RemoteGateway(endpoint) as gateway:
            with pytest.raises(GatewayError, match="reply without 'predicted_span'") as raised:
                gateway.predict(corpus[0])
        assert repr(endpoint) in str(raised.value)

    @pytest.mark.parametrize(
        "span, message",
        [
            ({"sent": 0, "tok_start": 0, "tok_end": 0}, "reply without 'text'"),
            ({"text": "Ada", "sent": 0, "tok_end": 0}, "reply without 'tok_start'"),
            ({"text": "Ada", "sent": 0, "tok_start": "0", "tok_end": 0}, "'tok_start' as str, want int"),
        ],
    )
    def test_malformed_span_fields_are_gateway_errors(self, remote_toy, corpus, monkeypatch, span, message):
        scores = encode_array(np.full(corpus[0].n_context, 1.0 / corpus[0].n_context))
        reply = {"start_scores": scores, "end_scores": scores, "predicted_span": span}
        monkeypatch.setattr(remote_toy, "_request", lambda request, passes=1: reply)
        with pytest.raises(GatewayError, match=message):
            remote_toy.predict(corpus[0])

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


class TestFaultyServers:
    """Servers that hang or answer garbage give a typed error in bounded time."""

    def test_server_that_never_answers_times_out_and_is_reaped(self, monkeypatch, corpus):
        script = (
            "import json, sys, time\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'ok': True, 'result': {'model_id': 'hung'}}), flush=True)\n"
            "sys.stdin.readline()\n"
            "time.sleep(60)\n"
        )
        endpoint = python_endpoint(script)
        gateway = RemoteGateway(endpoint)
        proc = gateway._proc
        monkeypatch.setattr(client_module, "_TIMEOUT_S", 0.5)
        began = time.monotonic()
        with pytest.raises(GatewayError, match="did not answer within 0.5 s") as raised:
            gateway.masked_start_scores(corpus[0])
        assert time.monotonic() - began < 5
        assert repr(endpoint) in str(raised.value)
        assert proc.returncode is not None  # stopped and waited for
        with pytest.raises(GatewayError, match="i/o failed"):
            gateway.predict(corpus[0])
        gateway.close()

    def test_server_that_stops_reading_times_out(self, monkeypatch):
        # The request is larger than a pipe holds, so only a bounded write returns.
        script = (
            "import json, sys, time\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'ok': True, 'result': {'model_id': 'deaf'}}), flush=True)\n"
            "time.sleep(60)\n"
        )
        words = " ".join(f"w{k}" for k in range(4000))
        inst = build_instance(
            "wide-1", "Who lit the lamp?", ["Ivo Brandt lit the lamp.", f"Then {words} slept."],
            gold=(0, "Ivo Brandt"),
        )
        assert len(json.dumps(instance_to_dict(inst))) > 1 << 17
        with RemoteGateway(python_endpoint(script)) as gateway:
            monkeypatch.setattr(client_module, "_TIMEOUT_S", 0.5)
            began = time.monotonic()
            with pytest.raises(GatewayError, match="did not answer within 0.5 s"):
                gateway.predict(inst)
            assert time.monotonic() - began < 5
            assert gateway._proc.returncode is not None

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nan", r"start scores with word 2 masked outside \[0,1\]"),
            ("shape", "masked start scores have shape"),
            ("range", r"start scores with word 0 masked outside \[0,1\]"),
        ],
    )
    def test_bad_masked_start_scores_are_rejected_naming_the_instance(self, corpus, fault, message):
        inst = corpus[0]
        n_c = inst.n_context
        scores = np.full((inst.n_question + n_c, n_c), 1.0 / n_c)
        if fault == "nan":
            scores[2, 1] = np.nan
        elif fault == "shape":
            scores = scores[:, :-1]
        else:
            scores[0, :2] = [1.25, -0.25]  # still sums to 1
        with RemoteGateway(canned_server({"ok": True, "result": {"scores": encode_array(scores)}})) as gateway:
            with pytest.raises(GatewayError, match=f"{inst.id}: {message}"):
                masked_start_scores(gateway, inst)

    def test_ig_reply_may_take_steps_times_the_timeout(self, monkeypatch, corpus):
        script = (
            "import json, sys, time\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'ok': True, 'result': {'model_id': 'slow'}}), flush=True)\n"
            "sys.stdin.readline()\n"
            "time.sleep(60)\n"
        )
        endpoint = python_endpoint(script)
        gateway = RemoteGateway(endpoint)
        proc = gateway._proc
        monkeypatch.setattr(client_module, "_TIMEOUT_S", 0.25)
        began = time.monotonic()
        with pytest.raises(GatewayError, match="did not answer within 1.0 s") as raised:
            gateway.integrated_gradients(corpus[0], 4, 0)
        assert 0.9 <= time.monotonic() - began < 5  # longer than one _TIMEOUT_S
        assert repr(endpoint) in str(raised.value)
        assert proc.returncode is not None  # stopped and waited for
        gateway.close()

    def test_ig_reply_wait_is_bounded_for_any_steps(self, local_toy, corpus):
        # steps * _TIMEOUT_S is past the longest wait select accepts.
        inst = corpus[0]
        arrays = local_toy.integrated_gradients(inst, 2, 0)
        result = dict(zip(("embeddings", "baseline", "grads"), map(encode_array, arrays)))
        with RemoteGateway(canned_server({"ok": True, "result": result})) as gateway:
            got = gateway.integrated_gradients(inst, 10**9, 0)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nan", "{id}: gradients are not all finite"),
            ("baseline", r"{id}: baseline embeddings have shape \(\d+, 15\), want \(\d+, 16\)"),
            ("missing", "{endpoint}.* reply without 'grads'"),
            ("list", "{endpoint}.* 'grads' as list, want dict"),
        ],
    )
    def test_bad_integrated_gradients_replies_are_rejected(self, local_toy, corpus, fault, message):
        inst = corpus[0]
        embeddings, baseline, grads = local_toy.integrated_gradients(inst, 4, 0)
        result = {
            "embeddings": encode_array(embeddings),
            "baseline": encode_array(baseline),
            "grads": encode_array(grads),
        }
        if fault == "nan":
            grads[1, 2] = np.nan
            result["grads"] = encode_array(grads)
        elif fault == "baseline":
            result["baseline"] = encode_array(baseline[:, :-1])
        elif fault == "missing":
            del result["grads"]
        else:
            result["grads"] = grads.tolist()
        endpoint = canned_server({"ok": True, "result": result})
        with RemoteGateway(endpoint) as gateway:
            with pytest.raises(GatewayError) as raised:
                integrated_gradients(gateway, inst, 4, 0)
        pattern = message.format(id=re.escape(inst.id), endpoint=re.escape(repr(endpoint)))
        assert re.search(pattern, str(raised.value), re.DOTALL)

    @pytest.mark.parametrize("kind, code", [("input", 2), ("capability", 3), ("gateway", 4)])
    def test_a_fault_reply_exits_with_the_code_of_its_kind(self, tmp_path, capsys, kind, code):
        reply = {"ok": False, "error": "cmp-01: not served here", "kind": kind}
        spec = f"remote:{canned_server(reply)}"
        out = tmp_path / "out"
        assert cli_main(["evaluate", "--dataset", str(fixture_corpus_path()), "--model", spec,
                         "--out", str(out)]) == code
        assert capsys.readouterr().err == "error: cmp-01: not served here\n"
        assert not (out / "summary.json").exists()

    def test_server_without_the_ig_op_gives_an_input_error_naming_it(self, corpus):
        reply = {"ok": False, "error": "unknown op 'integrated_gradients'", "kind": "input"}
        inst = corpus[0]
        message = f"{inst.id}: unknown op 'integrated_gradients'"
        with RemoteGateway(canned_server(reply)) as gateway:
            with pytest.raises(InputError) as raised:
                gateway.integrated_gradients(inst, 4, 0)
            assert str(raised.value) == message
            with pytest.raises(InputError) as raised:
                integrated_gradients(gateway, inst, 4, 0)
            assert str(raised.value) == message

    @pytest.mark.parametrize("kind, code", [("input", 2), ("capability", 3)])
    def test_a_fault_naming_no_instance_is_given_its_id(self, tmp_path, capsys, kind, code):
        reply = {"ok": False, "error": "not served here", "kind": kind}
        spec = f"remote:{canned_server(reply)}"
        out = tmp_path / "out"
        assert cli_main(["evaluate", "--dataset", str(fixture_corpus_path()), "--model", spec,
                         "--out", str(out)]) == code
        assert capsys.readouterr().err == "error: cmp-01: not served here\n"


@pytest.fixture
def tcp_toy():
    """A toy server on a free localhost port, and a client connected to it."""
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
        with gateway:
            yield gateway
    finally:
        server.terminate()
        server.wait(timeout=5)


class TestTcpRoundTrip:
    def test_predict_over_tcp(self, tcp_toy, local_toy, corpus):
        assert tcp_toy.model_id == TOY_SPEC
        inst = corpus[0]
        remote = tcp_toy.predict(inst)
        assert remote.predicted_span == local_toy.predict(inst).predicted_span

    def test_occlusion_over_tcp_equals_in_process(self, tcp_toy, local_toy):
        inst = long_instance()
        assert occlusion_saliency(tcp_toy, inst) == occlusion_saliency(local_toy, inst)

    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 256])
    def test_ig_over_tcp_equals_in_process(self, tcp_toy, local_toy, steps):
        inst = thirty_two_word_instance()
        config = SaliencyConfig(method="integrated_gradients", ig_steps=steps)
        assert ig_saliency(tcp_toy, inst, config) == ig_saliency(local_toy, inst, config)
