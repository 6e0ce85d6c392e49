"""Generate the bundled fixture corpus and the manual counterfactual pairs.

Run from the repository root:

    python3 tools/gen_fixtures.py

Writes src/rcaudit/data/fixture_corpus.jsonl (10 comparison + 10 coreference
instances) and src/rcaudit/data/coref_cf_pairs.jsonl (hand-authored
cluster-insertion pairs, one per coreference instance), then re-validates
everything through the public loaders. The corpus is checked in; rerunning
this script must be a no-op diff.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rcaudit.corpus.annotate import annotate_question
from rcaudit.corpus.filters import filter_comparison, filter_coref_answer_in_cluster
from rcaudit.corpus.schema import load_jsonl, save_jsonl
from rcaudit.counterfactuals import (
    ANTONYM_TABLES,
    CFPair,
    cf_accuracy,
    load_cf_pairs,
    perturb_comparison,
    save_cf_pairs,
    validate_cf,
)
from rcaudit.gateway.baselines import FrequencyBaselineModel, GoldOracleModel
from rcaudit.partitions import build_comparison_partition, build_coref_partition
from rcaudit.text import find_token_run, make_sentence, split_words, words
from rcaudit.types import AnswerSpan, RCInstance, validate_instance

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "rcaudit" / "data"

# (question, gold sentence index, gold surface, [(sentence, supporting, paragraph)])
COMPARISON = [
    ("cmp-01", "Which film came out earlier, Blind Shaft or The Mask Of Fu Manchu?",
     1, "The Mask Of Fu Manchu",
     [("Blind Shaft is a 2003 film about a pair of brutal con artists.", True, "0"),
      ("The Mask Of Fu Manchu is a 1932 pre-Code adventure film.", True, "0"),
      ("Critics still debate both pictures.", False, "1")]),
    ("cmp-02", "Which film came out more recently, Blind Shaft or The Mask Of Fu Manchu?",
     0, "Blind Shaft",
     [("Blind Shaft is a 2003 film about a pair of brutal con artists.", True, "0"),
      ("The Mask Of Fu Manchu is a 1932 pre-Code adventure film.", True, "0"),
      ("Critics still debate both pictures.", False, "1")]),
    ("cmp-03", "Which album was released later, Silver Harbor or Distant Meridian?",
     1, "Distant Meridian",
     [("Silver Harbor was released in 1988.", True, "0"),
      ("Distant Meridian was released in 1996.", True, "0"),
      ("Collectors prize the early pressings.", False, "1")]),
    ("cmp-04", "Which novel was published first, Iron Meadow or The Glass Orchard?",
     0, "Iron Meadow",
     [("Iron Meadow was published in 1951.", True, "0"),
      ("The Glass Orchard was published in 1970.", True, "0"),
      ("Readers rediscovered the novels decades afterwards.", False, "1")]),
    ("cmp-05", "Who is older, Marta Keller or Devin Brooks?",
     0, "Marta Keller",
     [("Marta Keller was born in 1961.", True, "0"),
      ("Devin Brooks was born in 1975.", True, "0"),
      ("The two met while filming a documentary.", False, "1")]),
    ("cmp-06", "Who is younger, Priya Nair or Hugo Lindt?",
     0, "Priya Nair",
     [("Priya Nair was born in 1990.", True, "0"),
      ("Hugo Lindt was born in 1982.", True, "0"),
      ("Neither has retired from competition.", False, "1")]),
    ("cmp-07", "Which bridge opened earlier, Quail Crossing or Summit Viaduct?",
     0, "Quail Crossing",
     [("Quail Crossing opened to traffic in 1921.", True, "0"),
      ("Summit Viaduct opened to traffic in 1954.", True, "0"),
      ("Engineers surveyed the river spans last spring.", False, "1")]),
    ("cmp-08", "Which tower was completed later, Aurora Spire or Beacon Court?",
     1, "Beacon Court",
     [("Aurora Spire was completed in 1998.", True, "0"),
      ("Beacon Court was completed in 2012.", True, "0"),
      ("Tourists photograph the skyline at dusk.", False, "1")]),
    ("cmp-09", "Which film from 1994 was shown more recently, Lantern Field or Maple Sound?",
     0, "Lantern Field",
     [("Lantern Field is a 1994 film that was shown again in 2005.", True, "0"),
      ("Maple Sound is a 1994 film that was shown again in 2001.", True, "0"),
      ("Archivists restored the reels for a retrospective.", False, "1")]),
    ("cmp-10", "Which ship sailed first, Coral Dawn or Pacific Ember?",
     0, "Coral Dawn",
     [("Coral Dawn sailed on her maiden voyage in 1902.", True, "0"),
      ("Pacific Ember sailed on her maiden voyage in 1911.", True, "0"),
      ("Maritime records list the hulls side by side.", False, "1")]),
]

# (question, gold sentence, gold surface, sentences, cluster mentions,
#  perturbed sentences, new-answer sentence, new-answer surface)
COREFERENCE = [
    ("cor-01", "Who was born in Hawaii?", 0, "Barack Obama",
     [("Barack Obama was the 44th president of the US.", True, "0"),
      ("He was born in Hawaii.", True, "0")],
     [(0, "Barack Obama"), (1, "He")],
     [("Barack Obama was the 44th president of the US.", True, "0"),
      ("Danilo Reyes visited Barack Obama in Springfield.", True, "0"),
      ("He was born in Hawaii.", True, "0")],
     1, "Danilo Reyes"),
    ("cor-02", "What is the last name of the person who had an aunt at Auschwitz?",
     0, "Górecki",
     [("Górecki spoke quietly about the work.", True, "0"),
      ("I had a grandfather who was in Dachau, an aunt in Auschwitz.", True, "0"),
      ("The premiere moved Górecki to tears.", False, "1")],
     [(0, "Górecki"), (1, "I")],
     [("Górecki spoke quietly about the work.", True, "0"),
      ("I had a grandfather who was in Dachau.", True, "0"),
      ("I had a nephew named Mike Wazowski.", True, "0"),
      ("He had an aunt in Auschwitz.", True, "0"),
      ("The premiere moved Górecki to tears.", False, "1")],
     2, "Wazowski"),
    ("cor-03", "Who founded the mountain observatory?", 0, "Elena Vasquez",
     [("Elena Vasquez arrived in Chile in 1962.", True, "0"),
      ("She founded the mountain observatory.", True, "0"),
      ("Elena Vasquez wrote about the southern sky.", False, "1")],
     [(0, "Elena Vasquez"), (1, "She"), (2, "Elena Vasquez")],
     [("Elena Vasquez arrived in Chile in 1962.", True, "0"),
      ("Her student Irma Duarte arrived later.", True, "0"),
      ("She founded the mountain observatory.", True, "0"),
      ("Elena Vasquez wrote about the southern sky.", False, "1")],
     1, "Irma Duarte"),
    ("cor-04", "Who won the silver medal in 1996?", 0, "Kofi Mensah",
     [("Kofi Mensah trained in Accra.", True, "0"),
      ("He won the silver medal in 1996.", True, "0"),
      ("Kofi Mensah later coached juniors.", False, "1")],
     [(0, "Kofi Mensah"), (1, "He")],
     [("Kofi Mensah trained in Accra.", True, "0"),
      ("His teammate Yaw Owusu arrived from Kumasi.", True, "0"),
      ("He won the silver medal in 1996.", True, "0"),
      ("Kofi Mensah later coached juniors.", False, "1")],
     1, "Yaw Owusu"),
    ("cor-05", "Who designed the harbor bridge?", 0, "Margit Holt",
     [("Margit Holt studied engineering in Oslo.", True, "0"),
      ("She designed the harbor bridge.", True, "0"),
      ("Margit Holt received the national prize.", False, "1")],
     [(0, "Margit Holt"), (1, "She")],
     [("Margit Holt studied engineering in Oslo.", True, "0"),
      ("Her colleague Sven Dale moved to Bergen.", True, "0"),
      ("She designed the harbor bridge.", True, "0"),
      ("Margit Holt received the national prize.", False, "1")],
     1, "Sven Dale"),
    ("cor-06", "Who wrote the second letter?", 0, "Amos Reed",
     [("Amos Reed kept every letter.", True, "0"),
      ("He wrote the second letter in March.", True, "0"),
      ("Amos Reed sealed them in wax.", False, "1")],
     [(0, "Amos Reed"), (1, "He")],
     [("Amos Reed kept every letter.", True, "0"),
      ("His clerk Ira Bloom sorted the mail.", True, "0"),
      ("He wrote the second letter in March.", True, "0"),
      ("Amos Reed sealed them in wax.", False, "1")],
     1, "Ira Bloom"),
    ("cor-07", "Who discovered the comet?", 0, "Lena Forsberg",
     [("Lena Forsberg watched the northern sky.", True, "0"),
      ("She discovered the comet in 1989.", True, "0"),
      ("Lena Forsberg published the finding.", False, "1")],
     [(0, "Lena Forsberg"), (1, "She")],
     [("Lena Forsberg watched the northern sky.", True, "0"),
      ("Her assistant Juno Park logged each plate.", True, "0"),
      ("She discovered the comet in 1989.", True, "0"),
      ("Lena Forsberg published the finding.", False, "1")],
     1, "Juno Park"),
    ("cor-08", "Who painted the station mural?", 0, "Diego Salas",
     [("Diego Salas mixed his own pigments.", True, "0"),
      ("He painted the station mural.", True, "0"),
      ("Diego Salas signed the corner panel.", False, "1")],
     [(0, "Diego Salas"), (1, "He")],
     [("Diego Salas mixed his own pigments.", True, "0"),
      ("His apprentice Rita Camba cleaned the brushes.", True, "0"),
      ("He painted the station mural.", True, "0"),
      ("Diego Salas signed the corner panel.", False, "1")],
     1, "Rita Camba"),
    ("cor-09", "Who repaired the cathedral organ?", 0, "Otto Braun",
     [("Otto Braun tuned church instruments.", True, "0"),
      ("He repaired the cathedral organ.", True, "0"),
      ("Otto Braun retired to Graz.", False, "1")],
     [(0, "Otto Braun"), (1, "He")],
     [("Otto Braun tuned church instruments.", True, "0"),
      ("His nephew Emil Weiss carried the pipes.", True, "0"),
      ("He repaired the cathedral organ.", True, "0"),
      ("Otto Braun retired to Graz.", False, "1")],
     1, "Emil Weiss"),
    ("cor-10", "Who translated the northern saga?", 0, "Freya Lind",
     [("Freya Lind collected old manuscripts.", True, "0"),
      ("She translated the northern saga.", True, "0"),
      ("Freya Lind archived every page.", False, "1")],
     [(0, "Freya Lind"), (1, "She")],
     [("Freya Lind collected old manuscripts.", True, "0"),
      ("Her rival Karl Voss disputed the dating.", True, "0"),
      ("She translated the northern saga.", True, "0"),
      ("Freya Lind archived every page.", False, "1")],
     1, "Karl Voss"),
]


def build_context(specs):
    return tuple(make_sentence(text, supporting=sup, paragraph_id=pid) for text, sup, pid in specs)


def span_at(context, sent_idx: int, surface: str) -> AnswerSpan:
    needle = words(surface)
    hit = find_token_run(context[sent_idx].words, needle)
    if hit is None:
        raise SystemExit(f"surface {surface!r} not found in sentence {sent_idx}")
    offset = sum(len(s.words) for s in context[:sent_idx])
    return AnswerSpan(
        text=surface,
        sentence_index=sent_idx,
        token_start=offset + hit,
        token_end=offset + hit + len(needle) - 1,
    )


def comparison_instance(iid, question, gold_sent, gold_surface, sentences) -> RCInstance:
    context = build_context(sentences)
    question_words, question_starts = split_words(question)
    inst = RCInstance(
        id=iid,
        question_words=question_words,
        question_starts=question_starts,
        question_text=question,
        context=context,
        gold_answers=(span_at(context, gold_sent, gold_surface),),
        skill="other",
    )
    kept = filter_comparison([inst])
    if not kept:
        raise SystemExit(f"{iid}: no comparative operator matched")
    inst = annotate_question(kept[0])
    if inst.unannotatable:
        raise SystemExit(f"{iid}: annotation found fewer than two entities")
    validate_instance(inst)
    return inst


def coref_instance(iid, question, gold_sent, gold_surface, sentences, mentions) -> RCInstance:
    context = build_context(sentences)
    question_words, question_starts = split_words(question)
    cluster = tuple(span_at(context, s, surf) for s, surf in mentions)
    inst = RCInstance(
        id=iid,
        question_words=question_words,
        question_starts=question_starts,
        question_text=question,
        context=context,
        gold_answers=(span_at(context, gold_sent, gold_surface),),
        skill="other",
        coref_clusters=(cluster,),
    )
    kept = filter_coref_answer_in_cluster([inst])
    if not kept or kept[0].relevant_cluster != 0:
        raise SystemExit(f"{iid}: gold answer not found in the mention cluster")
    inst = kept[0]
    validate_instance(inst)
    return inst


def coref_cf(original: RCInstance, perturbed_sentences, new_sent, new_surface) -> CFPair:
    context = build_context(perturbed_sentences)
    perturbed = replace(
        original,
        id=f"{original.id}::cf",
        context=context,
        gold_answers=(span_at(context, new_sent, new_surface),),
        coref_clusters=(),
        relevant_cluster=None,
    )
    pair = CFPair(
        original=original,
        perturbed=perturbed,
        perturbation="cluster_insertion",
        distribution_tag="in_distribution",
    )
    problems = validate_cf(pair)
    if problems:
        raise SystemExit(f"{original.id}: invalid manual pair: {problems}")
    return pair


def check_expected_partitions(by_id) -> None:
    """The two reference fixtures must produce the documented colorings."""
    cmp02 = by_id["cmp-02"]
    part = build_comparison_partition(cmp02)
    texts = lambda idx: sorted(cmp02.question_words[i] for i in idx)
    assert texts(part.positive) == ["more", "recently"], texts(part.positive)
    assert texts(part.negative) == ["?", "Which", "film", "or"], texts(part.negative)

    cor01 = by_id["cor-01"]
    part = build_coref_partition(cor01)
    ctx = cor01.context_words
    pos = sorted(ctx[i] for i in part.positive)
    neg = sorted(ctx[i] for i in part.negative)
    assert pos == ["Barack", "He", "Obama"], pos
    assert sorted(set(neg)) == sorted([".", "44th", "US", "of", "president", "the"]), neg
    assert neg == sorted([".", ".", "44th", "US", "of", "president", "the", "the"]), neg


def check_cf_pairs(instances, pairs) -> None:
    assert len(pairs) == 10
    oracle = cf_accuracy(GoldOracleModel(), pairs)
    assert oracle.both_correct == 1.0, oracle
    freq = cf_accuracy(FrequencyBaselineModel(), pairs)
    assert freq.both_correct == 0.0, freq
    # the frequency model must still answer the unperturbed member correctly
    # for most pairs, so the 0% comes from the perturbation, not from noise
    gw = FrequencyBaselineModel()
    right = sum(
        1 for p in pairs if gw.predict(p.original).predicted_span.text == p.original.gold_answers[0].text
    )
    assert right >= 9, f"frequency model solves only {right}/10 originals"


def check_comparison_cfs(instances) -> None:
    for inst in instances:
        if inst.skill != "comparison":
            continue
        for table in ANTONYM_TABLES.values():
            pair = perturb_comparison(inst, table=table)
            assert not validate_cf(pair), inst.id
        op = " ".join(inst.question_words[i] for i in sorted(inst.annotations.comparison_operator))
        if op.casefold() in {"earlier", "later", "older", "younger"}:
            once = perturb_comparison(inst)
            twice = perturb_comparison(replace(once.perturbed, id=inst.id))
            assert twice.perturbed.question_text == inst.question_text, inst.id
            assert twice.perturbed.question_words == inst.question_words


def main() -> None:
    instances = [comparison_instance(*spec) for spec in COMPARISON]
    cf_pairs = []
    for iid, question, gs, gsurf, sents, mentions, psents, ns, nsurf in COREFERENCE:
        inst = coref_instance(iid, question, gs, gsurf, sents, mentions)
        instances.append(inst)
        cf_pairs.append(coref_cf(inst, psents, ns, nsurf))

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    corpus_path = DATA_DIR / "fixture_corpus.jsonl"
    pairs_path = DATA_DIR / "coref_cf_pairs.jsonl"
    save_jsonl(instances, corpus_path)
    save_cf_pairs(cf_pairs, pairs_path)

    reloaded = load_jsonl(corpus_path)
    assert reloaded == instances, "corpus round trip drifted"
    by_id = {inst.id: inst for inst in reloaded}
    loaded_pairs = load_cf_pairs(pairs_path, reloaded)
    check_expected_partitions(by_id)
    check_cf_pairs(reloaded, loaded_pairs)
    check_comparison_cfs(reloaded)
    print(f"wrote {corpus_path} ({len(instances)} instances)")
    print(f"wrote {pairs_path} ({len(cf_pairs)} pairs)")


if __name__ == "__main__":
    main()
