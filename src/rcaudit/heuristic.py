"""Unsupervised shortcut baseline: pick a sentence, extract a typed phrase.

The method answers without any training: choose the context sentence most
related to the question (by token overlap, longest common subsequence,
position, or embedding cosine), guess the expected answer type from the
question's wh-word, then return the first entity of that type in the
chosen sentence. Its accuracy ceiling is what a dataset gives away to
shortcut strategies, so it doubles as a difficulty probe.

Plugins (sentence embedder, named-entity recognizer, entity-type
classifier) are callables; deterministic rule-based defaults ship with the
module so everything runs hermetically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, InputError
from .metrics import normalize_answer
from .text import capitalized_runs, tokenize
from .types import RCInstance

SELECTION_STRATEGIES = ("token_overlap", "lcs", "position", "sentence_encoder")
ENTITY_TYPE_SOURCES = ("wh_mapping", "learned_predictor")

NerEntity = tuple[int, int, str]
NerPlugin = Callable[[str], list[NerEntity]]
EmbedderPlugin = Callable[[str], np.ndarray]
TypeClassifier = Callable[[str], str]


@dataclass(frozen=True)
class HeuristicConfig:
    selection_strategy: str = "token_overlap"
    entity_type_source: str = "wh_mapping"

    def __post_init__(self) -> None:
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise InputError(f"unknown selection strategy {self.selection_strategy!r}")
        if self.entity_type_source not in ENTITY_TYPE_SOURCES:
            raise InputError(f"unknown entity type source {self.entity_type_source!r}")


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Token-level longest common subsequence length (classic DP)."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                row.append(prev[j - 1] + 1)
            else:
                row.append(max(prev[j], row[-1]))
        prev = row
    return prev[-1]


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def select_sentence(
    question: str,
    sentences: Sequence[str],
    strategy: str = "token_overlap",
    embedder: EmbedderPlugin | None = None,
) -> int:
    """Index of the sentence the strategy scores highest; ties pick the
    earliest sentence. token_overlap counts distinct shared normalized
    tokens; lcs is a token-level longest common subsequence."""
    if not sentences:
        raise InputError("select_sentence needs at least one sentence")
    if strategy == "position":
        return 0
    q_tokens = normalize_answer(question).split()
    if strategy == "token_overlap":
        q_set = set(q_tokens)
        scores = [len(q_set & set(normalize_answer(s).split())) for s in sentences]
    elif strategy == "lcs":
        scores = [_lcs_length(q_tokens, normalize_answer(s).split()) for s in sentences]
    elif strategy == "sentence_encoder":
        if embedder is None:
            raise CapabilityError("sentence_encoder strategy needs an embedder plugin")
        q_vec = np.asarray(embedder(question), dtype=float)
        scores = [_cosine(q_vec, np.asarray(embedder(s), dtype=float)) for s in sentences]
    else:
        raise InputError(f"unknown selection strategy {strategy!r}")
    best = 0
    for i, score in enumerate(scores):
        if score > scores[best]:
            best = i
    return best


_WH_TABLE = {
    "who": "PERSON",
    "whom": "PERSON",
    "where": "GPE",
    "when": "DATE",
}

_HEAD_NOUN_TYPES = {
    "person": "PERSON",
    "man": "PERSON",
    "woman": "PERSON",
    "author": "PERSON",
    "actor": "PERSON",
    "actress": "PERSON",
    "director": "PERSON",
    "president": "PERSON",
    "singer": "PERSON",
    "writer": "PERSON",
    "king": "PERSON",
    "queen": "PERSON",
    "city": "GPE",
    "country": "GPE",
    "state": "GPE",
    "town": "GPE",
    "capital": "GPE",
    "island": "GPE",
    "place": "GPE",
    "nation": "GPE",
    "year": "DATE",
    "date": "DATE",
    "day": "DATE",
    "month": "DATE",
    "decade": "DATE",
    "number": "CARDINAL",
    "amount": "CARDINAL",
    "count": "CARDINAL",
    "film": "WORK_OF_ART",
    "movie": "WORK_OF_ART",
    "book": "WORK_OF_ART",
    "novel": "WORK_OF_ART",
    "album": "WORK_OF_ART",
    "song": "WORK_OF_ART",
    "company": "ORG",
    "organization": "ORG",
    "band": "ORG",
    "team": "ORG",
    "club": "ORG",
}


def predict_entity_type(
    question: str,
    source: str = "wh_mapping",
    classifier: TypeClassifier | None = None,
) -> str:
    """Expected answer entity type; always returns some label.

    wh_mapping keys off the first interrogative word ("how many/much" maps
    to CARDINAL; "which"/"what" scan the following words for a typed head
    noun). learned_predictor delegates to the classifier plugin, falling
    back to wh_mapping when none is supplied.
    """
    if source == "learned_predictor" and classifier is not None:
        return classifier(question)
    tokens = normalize_answer(question).split()
    for i, tok in enumerate(tokens):
        if tok in _WH_TABLE:
            return _WH_TABLE[tok]
        if tok == "how":
            if i + 1 < len(tokens) and tokens[i + 1] in ("many", "much"):
                return "CARDINAL"
            return "ENTITY"
        if tok in ("which", "what"):
            for later in tokens[i + 1 :]:
                if later in _HEAD_NOUN_TYPES:
                    return _HEAD_NOUN_TYPES[later]
            return "ENTITY"
    return "ENTITY"


class RuleBasedNER:
    """Deterministic fixture-scale recognizer: digits and capitalized runs.

    Four-digit numbers in 1000..2999 label as DATE, other digit-bearing
    tokens as CARDINAL, capitalized runs by gazetteer lookup (casefolded
    surface) with ENTITY as the default.
    """

    def __init__(self, gazetteer: dict[str, str] | None = None) -> None:
        self.gazetteer = {k.casefold(): v for k, v in (gazetteer or {}).items()}

    def __call__(self, text: str) -> list[NerEntity]:
        tokens = tokenize(text)
        entities: list[NerEntity] = []
        in_run = set()
        for lo, hi in capitalized_runs(tokens):
            surface = text[tokens[lo].char_start : tokens[hi].char_end]
            label = self.gazetteer.get(surface.casefold(), "ENTITY")
            entities.append((tokens[lo].char_start, tokens[hi].char_end, label))
            in_run.update(range(lo, hi + 1))
        for i, tok in enumerate(tokens):
            if i in in_run:
                continue
            if tok.text.isdigit() and len(tok.text) == 4 and tok.text[0] in "12":
                entities.append((tok.char_start, tok.char_end, "DATE"))
            elif any(ch.isdigit() for ch in tok.text):
                entities.append((tok.char_start, tok.char_end, "CARDINAL"))
        entities.sort()
        return entities


def extract_phrase(sentence: str, entity_type: str, ner: NerPlugin) -> str:
    """First entity of the wanted type; any-type, then capitalized-run,
    then first-word fallbacks keep the answer non-empty."""
    if not sentence.strip():
        raise InputError("extract_phrase needs a non-empty sentence")
    entities = ner(sentence)
    for start, end, label in entities:
        if label == entity_type:
            return sentence[start:end]
    if entities:
        start, end, _ = entities[0]
        return sentence[start:end]
    tokens = tokenize(sentence)
    runs = capitalized_runs(tokens)
    if runs:
        lo, hi = max(runs, key=lambda r: tokens[r[1]].char_end - tokens[r[0]].char_start)
        return sentence[tokens[lo].char_start : tokens[hi].char_end]
    return tokens[0].text


class HashingSentenceEmbedder:
    """Dependency-free deterministic bag-of-words embedding (feature hashing)."""

    def __init__(self, dim: int = 64) -> None:
        self.dim = dim

    def __call__(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim)
        for token in normalize_answer(text).split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            index = int.from_bytes(digest[:4], "big") % self.dim
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            vec[index] += sign
        return vec


def heuristic_answer(
    instance: RCInstance,
    config: HeuristicConfig = HeuristicConfig(),
    ner: NerPlugin | None = None,
    embedder: EmbedderPlugin | None = None,
    classifier: TypeClassifier | None = None,
) -> str:
    """Sentence selection composed with typed phrase extraction."""
    if ner is None:
        ner = RuleBasedNER()
    if embedder is None and config.selection_strategy == "sentence_encoder":
        embedder = HashingSentenceEmbedder()
    sentences = [s.text for s in instance.context]
    index = select_sentence(
        instance.question_text, sentences, config.selection_strategy, embedder
    )
    entity_type = predict_entity_type(
        instance.question_text, config.entity_type_source, classifier
    )
    return extract_phrase(sentences[index], entity_type, ner)
