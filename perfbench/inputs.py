"""Seeded dataset generation for the benchmark workloads.

Every dataset is built from public rcaudit functions only
(`synthetic.make_synthetic_corpus`, `text.make_sentence`,
`corpus.schema.save_jsonl`) and written as unified JSON lines, so the
program under test receives nothing but a `--dataset` file.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from rcaudit.corpus.schema import save_jsonl
from rcaudit.synthetic import make_synthetic_corpus
from rcaudit.text import make_sentence
from rcaudit.types import RCInstance

# Plain lower-case words for distractor sentences. None is a capitalised
# syllable compound like the synthetic film titles, and none holds a digit,
# so padding can add neither a compared title nor a year.
DISTRACTOR_WORDS = tuple(
    """the a an old new small large quiet busy river bridge market station
    garden village harbor museum library kitchen window table letter report
    painter teacher farmer sailor walked carried opened closed watched
    painted visited crossed near under behind across along beside during
    morning evening winter summer green grey bright narrow wide slowly
    quickly often never always and but then""".split()
)


def _distractor(rng: np.random.Generator, vocabulary: list[str], n_words: int) -> str:
    words = [vocabulary[int(i)] for i in rng.integers(len(vocabulary), size=n_words)]
    return " ".join(words).capitalize() + "."


def pad_context(instance: RCInstance, target_words: int, rng: np.random.Generator) -> RCInstance:
    """Append non-supporting distractor sentences until the context holds
    `target_words` words (one more when a lone word would be left over).

    Sentences go after the original ones, so gold spans, their flattened
    token offsets and the question annotations stay as they are. Words that
    occur anywhere in the instance already are left out of the vocabulary.
    """
    seen = {t.text.casefold() for t in instance.question}
    seen |= {t.text.casefold() for t in instance.context_tokens}
    vocabulary = [w for w in DISTRACTOR_WORDS if w not in seen]
    context = list(instance.context)
    n_words = instance.n_context
    while n_words < target_words:
        # each sentence is its words plus a full stop
        n_new = max(1, min(int(rng.integers(6, 15)), target_words - n_words - 1))
        sentence = make_sentence(_distractor(rng, vocabulary, n_new), paragraph_id="distractor")
        context.append(sentence)
        n_words += len(sentence.tokens)
    return replace(instance, context=tuple(context))


def padded_corpus(n: int, seed: int, min_words: int, max_words: int) -> list[RCInstance]:
    """Synthetic comparison instances whose question plus context word
    counts are spread evenly from `min_words` to `max_words`.

    The lengths do not depend on the seed, so every seed asks for nearly
    the same amount of work; the seed picks titles, years and distractors.
    """
    rng = np.random.default_rng([seed, 1])
    targets = np.linspace(min_words, max_words, n).round().astype(int)
    base = make_synthetic_corpus(n, seed)
    return [pad_context(inst, int(t) - inst.n_question, rng) for inst, t in zip(base, targets)]


def write_dataset(instances: list[RCInstance], path: Path) -> str:
    """Write instances as unified JSON lines and return the file's sha256."""
    save_jsonl(instances, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()
