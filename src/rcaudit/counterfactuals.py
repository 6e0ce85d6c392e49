"""Counterfactual perturbations: antonym-swapped comparisons and
manually authored coreference edits.

A counterfactual (CF) pair couples an instance with a minimally edited
twin whose correct answer has changed. Comparison questions are perturbed
automatically by swapping the comparative operator for an antonym (from an
in-distribution or out-of-distribution table) and flipping the gold answer
to the other compared entity. Coreference CFs cannot be generated reliably,
so this module instead defines their file format and a validator for
hand-authored pairs (a new sentence is inserted whose entity takes over the
answer role while the old answer entity remains in the context).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus.filters import OPERATOR_ANTONYMS
from .corpus.schema import checked_sentence, read_jsonl, span_from_dict, span_to_dict
from .errors import InputError
from .gateway.base import ModelGateway, predict
from .metrics import normalize_answer, score_answer
from .text import find_token_run, split_words, words
from .types import (
    AnswerSpan,
    EvalResult,
    QuestionAnnotations,
    RCInstance,
    Sentence,
    check_structure,
    sentence_at,
)

PERTURBATIONS = ("antonym_swap", "cluster_insertion")
DISTRIBUTION_TAGS = ("in_distribution", "out_of_distribution")


@dataclass(frozen=True)
class AntonymTable:
    """Operator surface form -> candidate replacement surfaces."""

    entries: Mapping[str, tuple[str, ...]]
    distribution_tag: str

    def __post_init__(self) -> None:
        if self.distribution_tag not in DISTRIBUTION_TAGS:
            raise InputError(f"unknown distribution tag {self.distribution_tag!r}")
        for key, replacements in self.entries.items():
            if not replacements:
                raise InputError(f"antonym entry {key!r} has no replacements")
            if key in replacements:
                raise InputError(f"antonym entry {key!r} maps to itself")


IN_DISTRIBUTION_TABLE = AntonymTable(
    entries={operator: (antonym,) for operator, antonym in OPERATOR_ANTONYMS},
    distribution_tag="in_distribution",
)

OUT_OF_DISTRIBUTION_TABLE = AntonymTable(
    entries={
        "first": ("last",),
        "older": ("less old", "more junior", "less mature", "less grown-up"),
        "earlier": ("subsequently", "thereafter"),
        "later": ("less recently",),
        "younger": ("more old", "less junior", "more mature", "more grown-up"),
        "more recently": ("less recently", "longer ago"),
    },
    distribution_tag="out_of_distribution",
)

ANTONYM_TABLES = {
    "in_dist": IN_DISTRIBUTION_TABLE,
    "ood": OUT_OF_DISTRIBUTION_TABLE,
}


@dataclass(frozen=True)
class CFPair:
    original: RCInstance
    perturbed: RCInstance
    perturbation: str
    distribution_tag: str
    replaced_operator: tuple[str, str] | None = None


def _contiguous(indices: frozenset[int], what: str, instance_id: str) -> tuple[int, int]:
    if not indices:
        raise InputError(f"{instance_id}: {what} token set is empty")
    lo, hi = min(indices), max(indices)
    if len(indices) != hi - lo + 1:
        raise InputError(f"{instance_id}: {what} token indices are not contiguous")
    return lo, hi


def _swap_operator(
    instance: RCInstance, lo: int, hi: int, new_surface: str, gold: AnswerSpan
) -> RCInstance:
    """The `::cf` twin whose operator words lo..hi read `new_surface`, with
    later annotation indices shifted and `gold` as the only answer."""
    ann = instance.annotations
    old_start = instance.question_starts[lo]
    old_end = instance.question_starts[hi] + len(instance.question_words[hi])
    new_text = instance.question_text[:old_start] + new_surface + instance.question_text[old_end:]
    new_words, new_starts = split_words(new_text)
    n_new_op = len(words(new_surface))
    delta = n_new_op - (hi - lo + 1)
    return replace(
        instance,
        id=f"{instance.id}::cf",
        question_words=new_words,
        question_starts=new_starts,
        question_text=new_text,
        gold_answers=(gold,),
        annotations=QuestionAnnotations(
            comparison_operator=frozenset(range(lo, lo + n_new_op)),
            compared_entities=tuple(_shift_indices(e, hi, delta) for e in ann.compared_entities),
            value_tokens=_shift_indices(ann.value_tokens, hi, delta),
            verb_tokens=_shift_indices(ann.verb_tokens, hi, delta),
        ),
    )


def _shift_indices(indices: frozenset[int], after: int, delta: int) -> frozenset[int]:
    if not delta:
        return indices
    return frozenset(i + delta if i > after else i for i in indices)


def _entity_context_run(instance: RCInstance, lo: int, hi: int) -> tuple[int, int, int]:
    """First and last context index of the first run of the question words
    lo..hi in the context, and the one sentence the run must lie in."""
    needle = instance.question_words[lo : hi + 1]
    hit = find_token_run(instance.context_words, needle)
    if hit is None:
        raise InputError(
            f"{instance.id}: compared entity {' '.join(needle)!r} not found in context"
        )
    start, end = hit, hit + len(needle) - 1  # a run of context words: both in range
    sentence = sentence_at(instance.sentence_offsets, start)
    if sentence_at(instance.sentence_offsets, end) != sentence:
        raise InputError(f"{instance.id}: entity span crosses a sentence boundary")
    return start, end, sentence


def _answered_entity(instance: RCInstance, surfaces: Sequence[str]) -> int:
    """Index of the first of the entity surfaces that a gold answer names
    (equal once normalized); a surface equal to a gold text needs no
    normalizing."""
    gold_texts = [a.text for a in instance.gold_answers]
    gold_norms = None
    for i, surface in enumerate(surfaces):
        if surface in gold_texts:
            return i
        if gold_norms is None:
            gold_norms = {normalize_answer(text) for text in gold_texts}
        if normalize_answer(surface) in gold_norms:
            return i
    raise InputError(f"{instance.id}: gold answer names neither compared entity")


@dataclass(frozen=True)
class AntonymSwap:
    """An original that passed the antonym swap's checks on its own, with
    the edit that makes its twin: the operator's first and last question
    word, the replacement, and the context words (first and last index, and
    their sentence) of the other entity, the twin's answer."""

    original: RCInstance
    operator_start: int
    operator_end: int
    new_surface: str
    new_gold_start: int
    new_gold_end: int
    new_gold_sentence: int
    distribution_tag: str


def plan_antonym_swap(instance: RCInstance, table: AntonymTable) -> AntonymSwap:
    """Check the original alone and plan its antonym swap; nothing of the
    twin is rendered.

    The replacement is the table's first candidate. Requires a two-entity
    comparison whose gold answer names one of the compared entities, and
    the other entity's words in the context.
    """
    if instance.skill != "comparison" or instance.annotations is None:
        raise InputError(f"{instance.id}: antonym swap needs an annotated comparison instance")
    ann = instance.annotations
    lo, hi = _contiguous(ann.comparison_operator, "annotation", instance.id)
    key = " ".join(instance.question_words[lo : hi + 1]).casefold()
    replacements = table.entries.get(key)
    if replacements is None:
        raise InputError(f"{instance.id}: operator {key!r} not in the {table.distribution_tag} table")
    if len(ann.compared_entities) != 2:
        raise InputError(f"{instance.id}: antonym swap needs exactly two compared entities")
    entities = [_contiguous(e, "annotation", instance.id) for e in ann.compared_entities]
    answered = _answered_entity(instance, [instance.question_surface(*e) for e in entities])
    start, end, sentence = _entity_context_run(instance, *entities[1 - answered])
    return AntonymSwap(
        original=instance,
        operator_start=lo,
        operator_end=hi,
        new_surface=replacements[0],
        new_gold_start=start,
        new_gold_end=end,
        new_gold_sentence=sentence,
        distribution_tag=table.distribution_tag,
    )


def build_antonym_twin(swap: AntonymSwap) -> CFPair:
    """Build the planned twin and validate the pair."""
    instance = swap.original
    lo, hi = swap.operator_start, swap.operator_end
    start, end, sentence = swap.new_gold_start, swap.new_gold_end, swap.new_gold_sentence
    offset = instance.sentence_offsets[sentence]
    new_gold = AnswerSpan(
        text=instance.context[sentence].surface(start - offset, end - offset),
        sentence_index=sentence,
        token_start=start,
        token_end=end,
    )
    pair = CFPair(
        original=instance,
        perturbed=_swap_operator(instance, lo, hi, swap.new_surface, new_gold),
        perturbation="antonym_swap",
        distribution_tag=swap.distribution_tag,
        replaced_operator=(instance.question_surface(lo, hi), swap.new_surface),
    )
    violations = validate_cf(pair)
    if violations:
        raise InputError(f"{instance.id}: generated pair is invalid: {'; '.join(violations)}")
    return pair


def perturb_comparison(instance: RCInstance, table: AntonymTable = IN_DISTRIBUTION_TABLE) -> CFPair:
    """Swap the comparative operator for an antonym and flip the gold answer:
    `plan_antonym_swap`, then `build_antonym_twin`."""
    return build_antonym_twin(plan_antonym_swap(instance, table))


def _occurs_in_context(instance: RCInstance, text: str) -> bool:
    needle = words(text)
    return bool(needle) and find_token_run(instance.context_words, needle) is not None


def validate_cf(pair: CFPair) -> list[str]:
    """All invariant violations of a CF pair; an empty list means valid."""
    violations: list[str] = []
    orig, pert = pair.original, pair.perturbed
    if pair.perturbation not in PERTURBATIONS:
        violations.append(f"unknown perturbation {pair.perturbation!r}")
    if pair.distribution_tag not in DISTRIBUTION_TAGS:
        violations.append(f"unknown distribution tag {pair.distribution_tag!r}")
    if not pert.gold_answers:
        return violations + ["perturbed instance has no gold answer"]
    orig_norms = {normalize_answer(a.text) for a in orig.gold_answers}
    if any(normalize_answer(a.text) in orig_norms for a in pert.gold_answers):
        violations.append("label did not change")
    for gold in orig.gold_answers:
        if not _occurs_in_context(pert, gold.text):
            violations.append(f"original answer {gold.text!r} missing from perturbed context")
            break
    for gold in pert.gold_answers:
        try:
            surface = pert.span_surface(gold.token_start, gold.token_end)
        except InputError as exc:
            violations.append(str(exc))
            continue
        if surface != gold.text:
            violations.append(f"new answer {gold.text!r} does not match its span")
    if pair.perturbation == "antonym_swap":
        # The swap shares the original's context tuple; only a different
        # tuple needs comparing word for word.
        if pert.context is not orig.context and orig.context_words != pert.context_words:
            violations.append("context changed under antonym swap")
        if pair.replaced_operator is None:
            violations.append("antonym swap lacks replaced_operator")
        else:
            old_op = words(pair.replaced_operator[0])
            new_op = words(pair.replaced_operator[1])
            o_words, p_words = orig.question_words, pert.question_words
            o_hit = find_token_run(o_words, old_op)
            p_hit = find_token_run(p_words, new_op)
            if o_hit is None or p_hit is None or o_hit != p_hit:
                violations.append("operator positions do not line up")
            else:
                o_rest = o_words[:o_hit] + o_words[o_hit + len(old_op) :]
                p_rest = p_words[:p_hit] + p_words[p_hit + len(new_op) :]
                if o_rest != p_rest:
                    violations.append("question differs outside the operator")
    elif pair.perturbation == "cluster_insertion":
        if orig.question_words != pert.question_words:
            violations.append("question changed under cluster insertion")
        if orig.context_words == pert.context_words:
            violations.append("context unchanged under cluster insertion")
    return violations


def _sentence_docs(instance: RCInstance) -> list[dict]:
    return [
        {"text": s.text, "supporting": s.is_supporting_fact, "paragraph_id": s.paragraph_id}
        for s in instance.context
    ]


def _context_from_docs(docs: Sequence[dict]) -> tuple[Sentence, ...]:
    sentences = []
    for doc in docs:
        sent_words, starts = split_words(doc["text"])
        if not sent_words:
            raise InputError("empty sentence in perturbed context")
        sentences.append(
            checked_sentence(
                sent_words, starts, doc.get("supporting", False), doc.get("paragraph_id", "0")
            )
        )
    return tuple(sentences)


def save_cf_pairs(pairs: Iterable[CFPair], path: str | Path) -> None:
    """Write pairs to the JSON-lines CF file format."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            record: dict = {
                "original_id": pair.original.id,
                "perturbation": pair.perturbation,
                "new_answer": span_to_dict(pair.perturbed.gold_answers[0]),
                "distribution_tag": pair.distribution_tag,
            }
            if pair.replaced_operator is not None:
                record["replaced_operator"] = list(pair.replaced_operator)
            if pair.perturbation == "cluster_insertion":
                record["perturbed_context"] = _sentence_docs(pair.perturbed)
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _pair_from_record(record: dict, original: RCInstance) -> CFPair:
    perturbed = replace(
        original,
        id=f"{original.id}::cf",
        gold_answers=(span_from_dict(record["new_answer"], "new_answer"),),
        context=_context_from_docs(record["perturbed_context"]),
        coref_clusters=(),
        relevant_cluster=None,
    )
    return CFPair(
        original=original,
        perturbed=perturbed,
        perturbation="cluster_insertion",
        distribution_tag=record["distribution_tag"],
    )


def load_cf_pairs(path: str | Path, originals: Iterable[RCInstance]) -> list[CFPair]:
    """Read a CF file of hand-authored cluster-insertion pairs and rebuild
    them, validated, against their originals.

    Antonym twins are made from the corpus by `perturb_comparison`, so a
    record of any other perturbation is refused, and so are a record whose
    original is not a coreference instance and a second record for the
    same original. A field of the wrong type is a malformed record.
    Raises InputError listing every pair that fails `validate_cf` or whose
    twin's answer span fails `check_structure`, as a dataset record's would.
    """
    by_id = {inst.id: inst for inst in originals}
    pairs: list[CFPair] = []
    bad: list[str] = []
    first_line: dict[str, int] = {}
    for line_no, record in read_jsonl(path):
        if not isinstance(record, dict):
            raise InputError(f"{path}: line {line_no} is not a JSON object")
        original_id = record.get("original_id")
        perturbation = record.get("perturbation")
        if perturbation != "cluster_insertion":
            raise InputError(
                f"{path}: record for {original_id!r} has perturbation {perturbation!r};"
                " a CF file holds only cluster_insertion pairs"
            )
        original = by_id.get(original_id) if isinstance(original_id, str) else None
        if original is None:
            raise InputError(f"{path}: unknown original instance {original_id!r}")
        if original.skill != "coreference":
            raise InputError(
                f"{path}: record for {original_id!r}: its original has skill"
                f" {original.skill!r}, not 'coreference'"
            )
        earlier = first_line.setdefault(original_id, line_no)
        if earlier != line_no:
            raise InputError(
                f"{path}: two records for {original_id!r}, on lines {earlier} and {line_no}"
            )
        try:
            pair = _pair_from_record(record, original)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed record for {original_id!r}: {exc}") from exc
        violations = validate_cf(pair)
        if not violations:
            try:
                check_structure(pair.perturbed)
            except InputError as exc:
                violations = [str(exc)]
        if violations:
            bad.append(f"{original_id}: {'; '.join(violations)}")
            continue
        pairs.append(pair)
    if bad:
        raise InputError(f"{path}: invalid counterfactual pairs: " + " | ".join(bad))
    return pairs


@dataclass(frozen=True)
class CFAccuracy:
    original: EvalResult
    perturbed: EvalResult
    both_correct: float


def cf_accuracy(gateway: ModelGateway, pairs: Sequence[CFPair]) -> CFAccuracy:
    """Evaluate a model on both members of every pair.

    Reports per-condition F1/EM plus the rate at which both the original
    and the perturbed instance are answered exactly correctly.
    """
    if not pairs:
        raise InputError("cf_accuracy requires at least one pair")
    sums = ([0.0, 0], [0.0, 0])  # F1 and exact matches: originals, then twins
    both = 0
    for pair in pairs:  # pair by pair: both tables' twins of one original share an id
        exact = []
        for side, instance in zip(sums, (pair.original, pair.perturbed)):
            em, f1 = score_answer(predict(gateway, instance).predicted_span.text, instance)
            side[0] += f1
            side[1] += em
            exact.append(em)
        both += all(exact)
    n = len(pairs)
    original, perturbed = (EvalResult(f1=f1 / n, exact_match=em / n, n_instances=n) for f1, em in sums)
    return CFAccuracy(original=original, perturbed=perturbed, both_correct=both / n)
