"""In-memory span tracer and the per-layer metrics derived from its spans.

Spans are recorded from the benchmark's own files: `install_client` and
`install_server` replace rcaudit's public functions in the modules whose
code looks them up, and the public methods of the gateway the CLI builds,
with timing wrappers. Nothing in rcaudit itself changes.

A span is `[name, start, end, parent, error, note]`: perf_counter times,
the index of the enclosing span (-1 at the top), whether the call raised,
and an optional number the wrapper read off the call (for example the
length of the score vectors `decode_span` got).
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
from time import perf_counter

GATEWAY_OPS = ("predict", "embed", "grad_start")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Return `fn` recording one span per call; `note(args, result)`
        supplies the span's number."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def trace_gateway(self, gateway, layer: str):
        """Trace the gateway's public ops as `<layer>.<op>` spans.

        A call made from inside another op of the same gateway (the toy
        model's predict calls its own embed) runs untraced, so span counts
        are calls into the gateway and the inner time stays in the outer
        op's self time.
        """
        spans, stack = self.spans, self._stack
        names = {f"{layer}.{op}" for op in GATEWAY_OPS}
        for op in GATEWAY_OPS:
            plain = getattr(gateway, op)
            traced = self.wrap(f"{layer}.{op}", plain)

            def call(*args, _plain=plain, _traced=traced, **kwargs):
                if stack and spans[stack[-1]][0] in names:
                    return _plain(*args, **kwargs)
                return _traced(*args, **kwargs)

            setattr(gateway, op, call)
        return gateway

    def dump(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}), encoding="utf-8")


def _patch_decode(tracer: Tracer) -> None:
    import rcaudit.gateway.toy as toy

    tracer.patch(toy, "decode_span", "gateway.decode_span", note=lambda a, r: len(a[0]))


def install_client(tracer: Tracer) -> None:
    """Trace every layer of one `rcaudit.cli.main` call in this process."""
    import rcaudit.alignment as alignment
    import rcaudit.cli as cli
    import rcaudit.gateway.base as base
    import rcaudit.saliency as saliency

    build_gateway = cli.build_gateway

    def traced_build(spec: str):
        kind = spec.partition(":")[0]
        return tracer.trace_gateway(build_gateway(spec), kind)

    cli.build_gateway = traced_build
    tracer.patch(cli, "load_dataset", "corpus.load", note=lambda a, r: len(r.skipped))
    tracer.patch(cli, "perturb_comparison", "counterfactuals.perturb")
    tracer.patch(cli, "audit_alignment", "alignment.audit", note=lambda a, r: len(r.records))
    for attr in ("write_json", "write_jsonl", "alignment_csv"):
        tracer.patch(cli, attr, "cli.write")
    tracer.patch(saliency, "predict", "saliency.predict")
    tracer.patch(alignment, "predict", "alignment.predict")
    tracer.patch(base, "check_output", "gateway.check_output")
    _patch_decode(tracer)
    tracer.patch(saliency, "mask_word", "masking.mask_word")
    tracer.patch(saliency, "mask_all", "masking.mask_all")
    tracer.patch(saliency, "occlusion_saliency", "saliency.occlusion")
    tracer.patch(saliency, "ig_saliency", "saliency.ig")
    tracer.patch(saliency, "compute_saliency", "saliency.compute")
    tracer.patch(alignment, "compute_saliency", "saliency.compute")
    cache = saliency.SaliencyCache
    tracer.patch(cache, "get_or_compute", "saliency.cache_lookup")
    tracer.patch(cache, "save", "saliency.cache_save")
    cache.load = classmethod(tracer.wrap("saliency.cache_load", cache.load.__func__))
    tracer.patch(alignment, "build_skill_partition", "partitions.skill")
    tracer.patch(alignment, "random_partition", "partitions.random")
    tracer.patch(alignment, "t_test_one_tailed", "alignment.ttest")


def install_server(tracer: Tracer, gateway) -> None:
    """Trace the serving side of the remote protocol in this process."""
    import rcaudit.gateway.remote as remote

    tracer.trace_gateway(gateway, "toy")
    _patch_decode(tracer)
    tracer.patch(remote, "handle_request", "remote.handle")


def aggregate(spans: list[list]) -> dict:
    """Per span name: count, total and self seconds, errors, summed notes;
    plus `parent>child` call counts under the key "nested"."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {"nested": {}}
    for i, (name, start, end, parent, error, note) in enumerate(spans):
        s = stats.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0, "note": 0})
        s["count"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["errors"] += int(error)
        s["note"] += note or 0
        if parent >= 0:
            key = f"{spans[parent][0]}>{name}"
            stats["nested"][key] = stats["nested"].get(key, 0) + 1
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(client_spans: list[list], server: dict | None, n_instances: int, cache_bytes: int):
    """Split the per-layer metrics of one traced command into timing-free
    counts and timings (seconds, or milliseconds for round trips).

    `server` is the serving process's report for a remote gateway. The toy
    model and span decoding run in whichever process holds the model, so
    their figures add up over both processes.
    """
    c = aggregate(client_spans)
    s = aggregate(server["spans"]) if server else {"nested": {}}
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0, "note": 0}

    def cl(name: str, field: str):
        return c.get(name, empty)[field]

    def both(name: str, field: str):
        return cl(name, field) + s.get(name, empty)[field]

    op_spans = {op: [f"{layer}.{op}" for layer in ("toy", "remote")] for op in GATEWAY_OPS}
    calls = {op: sum(cl(n, "count") for n in names) for op, names in op_spans.items()}
    rtts = sorted(
        (end - start) * 1e3 for name, start, end, *_ in client_spans if name.startswith("remote.")
    )
    rtt_q = statistics.quantiles(rtts, n=100) if len(rtts) >= 2 else [0.0] * 99
    lookups = cl("saliency.cache_lookup", "count")
    misses = c["nested"].get("saliency.cache_lookup>saliency.compute", 0)
    perturbed = cl("counterfactuals.perturb", "count")
    pairs = perturbed - cl("counterfactuals.perturb", "errors")
    audited = cl("alignment.audit", "note")
    decode_calls = both("gateway.decode_span", "count")
    round_trips = server["requests"] if server else 0
    handle_s = s.get("remote.handle", empty)["total_s"]
    counts = {
        "gateway.predict_calls": calls["predict"],
        "gateway.embed_calls": calls["embed"],
        "gateway.grad_start_calls": calls["grad_start"],
        "gateway.calls_per_instance": _ratio(sum(calls.values()), n_instances),
        "gateway.decode_span_calls": decode_calls,
        "gateway.decode_span_mean_n": _ratio(both("gateway.decode_span", "note"), decode_calls),
        "gateway.errors": sum(cl(n, "errors") for names in op_spans.values() for n in names),
        "remote.round_trips": round_trips,
        "remote.round_trips_per_instance": _ratio(round_trips, n_instances),
        "remote.bytes_sent": server["bytes_in"] if server else 0,
        "remote.bytes_received": server["bytes_out"] if server else 0,
        "masking.mask_word_calls": cl("masking.mask_word", "count"),
        "saliency.maps_computed": cl("saliency.compute", "count"),
        "saliency.cache_hit_frac": _ratio(lookups - misses, lookups),
        "saliency.cache_bytes": cache_bytes,
        "corpus.records_skipped": cl("corpus.load", "note"),
        "counterfactuals.pairs_made_frac": _ratio(pairs, perturbed),
        "alignment.ttest_calls": cl("alignment.ttest", "count"),
        "alignment.pairs_audited": audited,
        "alignment.audited_frac": _ratio(audited, pairs),
        "alignment.cf_predict_calls": cl("alignment.predict", "count"),
    }
    timings = {
        "gateway.predict_s": sum(cl(n, "total_s") for n in op_spans["predict"]),
        "gateway.check_output_s": cl("gateway.check_output", "total_s"),
        "gateway.decode_span_s": both("gateway.decode_span", "total_s"),
        "toy.forward_self_s": both("toy.predict", "self_s"),
        "toy.grad_start_s": both("toy.grad_start", "total_s"),
        "remote.rtt_ms_p50": rtt_q[49],
        "remote.rtt_ms_p99": rtt_q[98],
        "remote.server_handle_s": handle_s,
        "remote.transport_s": sum(rtts) / 1e3 - handle_s if rtts else 0.0,
        "masking.mask_word_s": cl("masking.mask_word", "total_s"),
        "masking.mask_all_s": cl("masking.mask_all", "total_s"),
        "saliency.occlusion_self_s": cl("saliency.occlusion", "self_s"),
        "saliency.ig_self_s": cl("saliency.ig", "self_s"),
        "saliency.cache_load_s": cl("saliency.cache_load", "total_s"),
        "saliency.cache_save_s": cl("saliency.cache_save", "total_s"),
        "corpus.load_s": cl("corpus.load", "total_s"),
        "counterfactuals.perturb_s": cl("counterfactuals.perturb", "total_s"),
        "partitions.skill_s": cl("partitions.skill", "total_s"),
        "partitions.random_s": cl("partitions.random", "total_s"),
        "alignment.ttest_s": cl("alignment.ttest", "total_s"),
        "cli.write_s": cl("cli.write", "total_s"),
    }
    return counts, timings
