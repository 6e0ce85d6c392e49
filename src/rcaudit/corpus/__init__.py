"""Dataset ingestion: unified schema, format adapters, filters, annotation."""

from .annotate import annotate_question, rule_verb_tagger, surface_entity_matcher
from .filters import (
    OPERATOR_ANTONYMS,
    filter_comparison,
    filter_coref_answer_in_cluster,
    match_operator,
)
from .loader import (
    CONTEXT_MODES,
    FORMATS,
    DatasetDescriptor,
    LoadResult,
    SkippedRecord,
    load_dataset,
    reduce_context,
)
from .schema import instance_from_dict, instance_to_dict, load_jsonl, save_jsonl

__all__ = [
    "CONTEXT_MODES",
    "FORMATS",
    "OPERATOR_ANTONYMS",
    "DatasetDescriptor",
    "LoadResult",
    "SkippedRecord",
    "annotate_question",
    "filter_comparison",
    "filter_coref_answer_in_cluster",
    "instance_from_dict",
    "instance_to_dict",
    "load_dataset",
    "load_jsonl",
    "match_operator",
    "reduce_context",
    "rule_verb_tagger",
    "save_jsonl",
    "surface_entity_matcher",
]
