"""Dataset loading: format dispatch, context reduction, and the load report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..errors import AnchorError, InputError
from ..types import AnswerSpan, RCInstance, validate_instance
from .adapters import FORMAT_ADAPTERS
from .schema import load_jsonl

FORMATS = ("unified",) + tuple(FORMAT_ADAPTERS)
CONTEXT_MODES = ("supporting_facts", "paragraphs")


@dataclass(frozen=True)
class DatasetDescriptor:
    path: str
    format: str = "unified"
    context_mode: str = "paragraphs"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise InputError(f"unknown dataset format {self.format!r}")
        if self.context_mode not in CONTEXT_MODES:
            raise InputError(f"unknown context mode {self.context_mode!r}")


@dataclass(frozen=True)
class SkippedRecord:
    record_index: int | None
    instance_id: str | None
    reason: str


@dataclass
class LoadResult:
    """Instances that loaded cleanly plus a report of the ones that did not."""

    instances: list[RCInstance]
    skipped: list[SkippedRecord] = field(default_factory=list)


def reduce_context(instance: RCInstance, mode: str) -> RCInstance:
    """Restrict the context to supporting-fact sentences, or pass through.

    supporting_facts mode keeps flagged sentences in order with flat token
    indices recomputed. Gold answers must survive; cluster mentions that fall
    outside are dropped (empty clusters removed, relevant_cluster remapped).
    """
    if mode == "paragraphs":
        return instance
    if mode != "supporting_facts":
        raise InputError(f"unknown context mode {mode!r}")
    keep = [i for i, sent in enumerate(instance.context) if sent.is_supporting_fact]
    if not keep:
        raise InputError(f"{instance.id}: no supporting-fact sentences")
    if len(keep) == len(instance.context):
        return instance
    new_index = {old: new for new, old in enumerate(keep)}
    old_base = instance.sentence_offsets
    new_base: list[int] = []
    total = 0
    for old in keep:
        new_base.append(total)
        total += len(instance.context[old].words)

    def remap(span: AnswerSpan) -> AnswerSpan | None:
        if span.sentence_index not in new_index:
            return None
        new_sent = new_index[span.sentence_index]
        shift = new_base[new_sent] - old_base[span.sentence_index]
        return AnswerSpan(
            text=span.text,
            sentence_index=new_sent,
            token_start=span.token_start + shift,
            token_end=span.token_end + shift,
        )

    golds = []
    for span in instance.gold_answers:
        moved = remap(span)
        if moved is None:
            raise InputError(
                f"{instance.id}: gold answer {span.text!r} lies outside the supporting facts"
            )
        golds.append(moved)
    clusters: list[tuple[AnswerSpan, ...]] = []
    relevant = None
    for c_idx, cluster in enumerate(instance.coref_clusters):
        moved = tuple(m for m in (remap(mention) for mention in cluster) if m is not None)
        if moved:
            if c_idx == instance.relevant_cluster:
                relevant = len(clusters)
            clusters.append(moved)
    return replace(
        instance,
        context=tuple(instance.context[i] for i in keep),
        gold_answers=tuple(golds),
        coref_clusters=tuple(clusters),
        relevant_cluster=relevant,
    )


def load_dataset(desc: DatasetDescriptor) -> LoadResult:
    """Load a dataset file, re-anchor answers, and apply the context mode.

    Records whose answers cannot be anchored, or that become unusable under
    supporting_facts reduction, are skipped and reported. Structurally
    malformed records abort the load with the record index, and so does an
    instance id that an earlier record already holds (records count from 0).
    """
    path = Path(desc.path)
    if not path.exists():
        raise InputError(f"dataset file not found: {path}")
    result = LoadResult(instances=[])
    if desc.format == "unified":
        candidates = [(None, inst) for inst in load_jsonl(path)]
    else:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # also an integer past Python's 4300-digit limit
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
        adapter = FORMAT_ADAPTERS[desc.format]
        candidates = []
        for idx, build in adapter(doc):
            try:
                candidates.append((idx, build()))
            except AnchorError as exc:
                result.skipped.append(SkippedRecord(idx, None, str(exc)))
            except InputError as exc:
                raise InputError(f"{path}: malformed record {idx}: {exc}") from exc
            except (KeyError, TypeError, AttributeError) as exc:
                raise InputError(f"{path}: malformed record {idx}: {exc!r}") from exc
    # load_jsonl's decoder has checked every unified record; what an adapter
    # built, and what reduce_context replaced, is checked here.
    checked = desc.format == "unified"
    first_record: dict[str, int] = {}
    for pos, (idx, instance) in enumerate(candidates):
        record = pos if idx is None else idx
        earlier = first_record.setdefault(instance.id, record)
        if earlier != record:
            raise InputError(
                f"{path}: duplicate instance id {instance.id!r} in records {earlier} and {record}"
            )
        try:
            reduced = reduce_context(instance, desc.context_mode)
            if reduced is not instance or not checked:
                validate_instance(reduced)
        except InputError as exc:
            result.skipped.append(SkippedRecord(idx, instance.id, str(exc)))
            continue
        result.instances.append(reduced)
    return result
