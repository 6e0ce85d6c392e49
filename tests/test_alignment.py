"""Alignment analyzer: Welch test vs an integral oracle, verdicts, calibration."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtr

import rcaudit.alignment as alignment_module
from conftest import build_instance
from oracle_helpers import oracle_welch
from rcaudit.alignment import (
    AlignmentRecord,
    AlignmentReport,
    AuditPlan,
    SignificanceResult,
    alignment_csv,
    alignment_score,
    audit_alignment,
    calibrate,
    explanation_alignment,
    partition_test,
    plan_pairs,
    record_to_dict,
    t_test_one_tailed,
    screen_partition,
    wilson_interval,
)
from rcaudit.counterfactuals import ANTONYM_TABLES, CFPair, perturb_comparison, validate_cf
from rcaudit.cli import main, write_jsonl
from rcaudit.data import coref_cf_pairs_path, fixture_corpus_path
from rcaudit.errors import InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.base import ModelGateway
from rcaudit.gateway.scripted import ScriptedModel
from rcaudit.partitions import MIN_SIDE, TokenPartition, build_skill_partition
from rcaudit.saliency import SaliencyCache, SaliencyConfig, SaliencyMap


class TestWelchTest:
    def test_worked_example(self):
        result = t_test_one_tailed([4.0, 5.0, 6.0], [0.0, 1.0, 2.0])
        assert result.t_statistic == pytest.approx(4.898979485566356, rel=1e-12)
        assert result.degrees_of_freedom == 4.0
        assert round(result.p_value, 6) == 0.004025
        assert result.significant
        assert result.mean_positive == 5.0 and result.mean_negative == 1.0

    def test_matches_integral_oracle_on_random_samples(self):
        rng = random.Random(20240819)
        for trial in range(100):
            n1 = rng.randint(2, 30)
            n2 = rng.randint(2, 30)
            scale = 10.0 ** rng.randint(-2, 2)
            pos = [rng.gauss(rng.uniform(-1, 1), 1.0) * scale for _ in range(n1)]
            neg = [rng.gauss(rng.uniform(-1, 1), 1.0) * scale for _ in range(n2)]
            result = t_test_one_tailed(pos, neg)
            t_ref, df_ref, p_ref = oracle_welch(pos, neg)
            assert result.t_statistic == pytest.approx(t_ref, rel=1e-9, abs=1e-12)
            assert result.degrees_of_freedom == pytest.approx(df_ref, rel=1e-9)
            assert abs(result.p_value - p_ref) <= 1e-6, f"trial {trial}"

    @settings(max_examples=300, deadline=None)
    @given(
        pos=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
        neg=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
    )
    @example(pos=[0.0, 1e-300], neg=[0.0, 0.0])
    @example(pos=[1.0, 2.0], neg=[1.0, 2.0])
    @example(pos=[-1e6, 1e6], neg=[0.5, 0.5000001])
    @example(pos=[0.0, 0.0], neg=[0.0, 1.3730299481933644e-137])  # squares underflow
    def test_p_value_is_scipy_stats_t_sf_bit_for_bit(self, pos, neg):
        result = t_test_one_tailed(pos, neg)
        want = float(stats.t.sf(result.t_statistic, result.degrees_of_freedom))
        assert result.p_value == want

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.floats(allow_nan=False),
        df=st.one_of(st.floats(1.0, 1e3), st.floats(1e3, 1e300)),
    )
    @example(t=math.inf, df=3.0)
    @example(t=-math.inf, df=3.0)
    @example(t=0.0, df=1.0)
    @example(t=-0.0, df=57.25)
    def test_stdtr_equals_scipy_stats_t_sf(self, t, df):
        assert stdtr(df, -t) == stats.t.sf(t, df)

    def test_tiny_variances_give_a_finite_test(self):
        # Welch's squared standard errors underflow to zero here; the test
        # once divided by that zero.
        result = t_test_one_tailed([0.0, 0.0], [0.0, 1e-140])
        assert result.t_statistic == pytest.approx(-1.0, rel=1e-12)
        assert result.degrees_of_freedom == 1.0 and result.p_value == pytest.approx(0.75)
        tiny = t_test_one_tailed([1e-140, 3e-140, 2e-140], [0.0, 1e-141, 0.0])
        scaled = t_test_one_tailed([1.0, 3.0, 2.0], [0.0, 0.1, 0.0])
        assert tiny.t_statistic == pytest.approx(scaled.t_statistic, rel=1e-12)
        assert tiny.degrees_of_freedom == pytest.approx(scaled.degrees_of_freedom, rel=1e-12)
        assert tiny.p_value == pytest.approx(scaled.p_value, rel=1e-9)

    def test_antisymmetry_under_side_swap(self):
        rng = random.Random(7)
        for _ in range(20):
            pos = [rng.gauss(0.5, 1.0) for _ in range(rng.randint(2, 8))]
            neg = [rng.gauss(0.0, 2.0) for _ in range(rng.randint(2, 8))]
            forward = t_test_one_tailed(pos, neg)
            backward = t_test_one_tailed(neg, pos)
            assert forward.t_statistic == pytest.approx(-backward.t_statistic, rel=1e-12)
            assert forward.p_value + backward.p_value == pytest.approx(1.0, abs=1e-9)

    def test_invariance_under_positive_scaling_and_shift(self):
        pos, neg = [0.3, 0.5, 0.9, 0.4], [0.1, 0.2, 0.05]
        base = t_test_one_tailed(pos, neg)
        scaled = t_test_one_tailed([17.0 * v for v in pos], [17.0 * v for v in neg])
        shifted = t_test_one_tailed([v + 3.0 for v in pos], [v + 3.0 for v in neg])
        for other in (scaled, shifted):
            assert other.t_statistic == pytest.approx(base.t_statistic, rel=1e-9)
            assert other.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_zero_variance_cases_are_defined(self):
        flat = t_test_one_tailed([1.0, 1.0], [1.0, 1.0])
        assert (flat.t_statistic, flat.p_value) == (0.0, 0.5)
        assert flat.degrees_of_freedom == 2.0
        assert not flat.significant

        up = t_test_one_tailed([2.0, 2.0], [1.0, 1.0])
        assert up.t_statistic == math.inf and up.p_value == 0.0
        assert up.significant

        down = t_test_one_tailed([0.0, 0.0], [1.0, 1.0])
        assert down.t_statistic == -math.inf and down.p_value == 1.0
        assert not down.significant

    def test_significance_needs_a_positive_direction(self):
        flat = t_test_one_tailed([1.0, 1.0], [1.0, 1.0], alpha=0.6)
        assert flat.p_value < 0.6 and not flat.significant  # t is not > 0

    def test_input_validation(self):
        with pytest.raises(InputError, match="2 values"):
            t_test_one_tailed([1.0], [0.0, 0.1])
        with pytest.raises(InputError, match="2 values"):
            t_test_one_tailed([1.0, 2.0], [])
        with pytest.raises(InputError, match="alpha"):
            t_test_one_tailed([1.0, 2.0], [0.0, 0.1], alpha=1.0)


def make_map(instance_id="x", scores=(), n_question=0):
    return SaliencyMap(
        instance_id=instance_id,
        scores=tuple(float(s) for s in scores),
        method="occlusion",
        config_hash="h",
        model_id="m",
        anchor_position=0,
        predicted_answer="",
        n_question=n_question,
    )


class TestPartitionTest:
    def test_slices_the_partition_sides(self):
        scores = [0.0, 0.1, 0.9, 0.8, 0.7, 0.05, 0.02, 0.3]
        saliency = make_map("x", scores, n_question=3)
        partition = TokenPartition(
            "x", "context_tokens", frozenset({0, 1}), frozenset({2, 3}), "random"
        )
        result = partition_test(saliency, partition)
        manual = t_test_one_tailed([scores[3], scores[4]], [scores[5], scores[6]])
        assert result == manual

    def test_mismatched_instance_ids_error(self):
        saliency = make_map("x", [0.1] * 6, n_question=2)
        partition = TokenPartition(
            "y", "context_tokens", frozenset({0, 1}), frozenset({2, 3}), "random"
        )
        with pytest.raises(InputError, match="saliency is for"):
            partition_test(saliency, partition)

    def test_out_of_scope_partition_indices_error(self):
        saliency = make_map("x", [0.1] * 6, n_question=2)  # 4 context scores
        partition = TokenPartition(
            "x", "context_tokens", frozenset({0, 1}), frozenset({2, 9}), "random"
        )
        with pytest.raises(InputError, match="out of scope"):
            partition_test(saliency, partition)


def insertion_pair():
    """Coreference pair with a two-word cluster plus a pronoun mention."""
    orig = build_instance(
        "al-1",
        "Who sang the anthem?",
        ["Ana Reyes sang the anthem.", "She bowed twice."],
        gold=(0, "Ana Reyes"),
        mentions=[(0, "Ana Reyes"), (1, "She")],
    )
    pert = build_instance(
        "al-1",
        "Who sang the anthem?",
        ["Ana Reyes sang the anthem.", "Ira Boone sang it again.", "She bowed twice."],
        gold=(1, "Ira Boone"),
    )
    pair = CFPair(
        original=orig,
        perturbed=replace(pert, id="al-1::cf"),
        perturbation="cluster_insertion",
        distribution_tag="in_distribution",
    )
    assert validate_cf(pair) == []
    return pair


def scripted_gateway(tmp_path, pair, sensitivity, orig_correct=True, cf_correct=True):
    """ScriptedModel whose answers and occlusion profile are fully chosen."""
    orig, pert = pair.original, pair.perturbed
    gold = orig.gold_answers[0]
    cf_gold = pert.gold_answers[0]
    wrong = (orig.n_context - 1, orig.n_context - 1)
    cf_wrong = (pert.n_context - 1, pert.n_context - 1)
    script = {
        "name": "align",
        "instances": {
            orig.id: {
                "answer": [gold.token_start, gold.token_end]
                if orig_correct
                else list(wrong),
                "base": 0.9,
                "sensitivity": list(sensitivity),
            },
            pert.id: {
                "answer": [cf_gold.token_start, cf_gold.token_end]
                if cf_correct
                else list(cf_wrong),
                "base": 0.9,
                "sensitivity": [0.0] * (pert.n_question + pert.n_context),
            },
        },
    }
    path = tmp_path / f"{orig.id}-{orig_correct}-{cf_correct}.json"
    path.write_text(json.dumps(script))
    return ScriptedModel(path)


class SecondThoughts(ModelGateway):
    """Answers as `first` does, except that every predict of the original
    after the first one answers as `later` does."""

    def __init__(self, first, later, original_id):
        self.first, self.later, self.original_id = first, later, original_id
        self.original_predictions = 0

    @property
    def model_id(self):
        return self.first.model_id

    def predict(self, instance):
        if instance.id != self.original_id:
            return self.first.predict(instance)
        self.original_predictions += 1
        return (self.first if self.original_predictions == 1 else self.later).predict(instance)

    def masked_start_scores(self, instance):
        return self.first.masked_start_scores(instance)


def cluster_heavy_sensitivity(pair, high=0.3, low=0.01):
    """High occlusion response on the cluster words, low elsewhere."""
    orig = pair.original
    partition = build_skill_partition(orig)
    values = [0.0] * (orig.n_question + orig.n_context)
    for i in range(orig.n_context):
        values[orig.n_question + i] = low + 0.001 * (i % 3)
    for i in partition.positive:
        values[orig.n_question + i] = high + 0.001 * (i % 2)
    return values


class TestExplanationAlignment:
    def test_aligned_needs_significance_and_cf_robustness(self, tmp_path):
        pair = insertion_pair()
        partition = build_skill_partition(pair.original)
        config = SaliencyConfig(method="occlusion")
        strong = cluster_heavy_sensitivity(pair)

        gateway = scripted_gateway(tmp_path, pair, strong)
        cache = SaliencyCache()
        saliency = cache.get_or_compute(gateway, pair.original, config)
        record = explanation_alignment(pair, saliency, partition, gateway)
        assert record.cf_both_correct and record.significance.significant
        assert record.aligned

        fumbling = scripted_gateway(tmp_path, pair, strong, cf_correct=False)
        saliency = SaliencyCache().get_or_compute(fumbling, pair.original, config)
        record = explanation_alignment(pair, saliency, partition, fumbling)
        assert record.significance.significant and not record.cf_both_correct
        assert not record.aligned

        flat = [0.05] * (pair.original.n_question + pair.original.n_context)
        unfocused = scripted_gateway(tmp_path, pair, flat)
        saliency = SaliencyCache().get_or_compute(unfocused, pair.original, config)
        record = explanation_alignment(pair, saliency, partition, unfocused)
        assert record.cf_both_correct and not record.significance.significant
        assert not record.aligned

    def test_saliency_must_describe_the_pairs_original(self, tmp_path):
        pair = insertion_pair()
        partition = build_skill_partition(pair.original)
        gateway = scripted_gateway(tmp_path, pair, cluster_heavy_sensitivity(pair))
        saliency = make_map("someone-else", [0.1] * 15, n_question=5)
        with pytest.raises(InputError, match="saliency is for"):
            explanation_alignment(pair, saliency, partition, gateway)

    def test_verdict_follows_the_saliency_pass_prediction(self, tmp_path):
        pair = insertion_pair()
        partition = build_skill_partition(pair.original)
        strong = cluster_heavy_sensitivity(pair)
        right = scripted_gateway(tmp_path, pair, strong)
        wrong = scripted_gateway(tmp_path, pair, strong, orig_correct=False)
        for first, later in ((right, wrong), (wrong, right)):
            gateway = SecondThoughts(first, later, pair.original.id)
            saliency = SaliencyCache().get_or_compute(
                gateway, pair.original, SaliencyConfig(method="occlusion")
            )
            record = explanation_alignment(pair, saliency, partition, gateway)
            assert record.cf_both_correct == (first is right)
            assert record.aligned == (first is right)
            assert gateway.original_predictions == 1

    def test_saliency_must_come_from_the_gateways_model(self, corpus):
        pair = perturb_comparison(next(i for i in corpus if i.id == "cmp-02"))
        partition = build_skill_partition(pair.original)
        saliency = SaliencyCache().get_or_compute(
            build_gateway("toy:7"), pair.original, SaliencyConfig(method="occlusion")
        )
        with pytest.raises(InputError, match="saliency is from 'toy:7', gateway is 'toy:9'"):
            explanation_alignment(pair, saliency, partition, build_gateway("toy:9"))

    def test_aligned_implies_both_conditions_randomized(self, tmp_path):
        pair = insertion_pair()
        partition = build_skill_partition(pair.original)
        config = SaliencyConfig(method="occlusion")
        n_words = pair.original.n_question + pair.original.n_context
        rng = random.Random(99)
        outcomes = set()
        for trial in range(200):
            sensitivity = [round(rng.uniform(0.0, 0.2), 3) for _ in range(n_words)]
            if rng.random() < 0.5:
                for i in partition.positive:
                    sensitivity[pair.original.n_question + i] = round(
                        rng.uniform(0.4, 0.6), 3
                    )
            gateway = scripted_gateway(
                tmp_path,
                pair,
                sensitivity,
                orig_correct=rng.random() < 0.8,
                cf_correct=rng.random() < 0.8,
            )
            saliency = SaliencyCache().get_or_compute(gateway, pair.original, config)
            record = explanation_alignment(pair, saliency, partition, gateway)
            assert record.aligned == (
                record.cf_both_correct and record.significance.significant
            )
            if record.aligned:
                assert record.cf_both_correct  # never aligned while failing the CF
            outcomes.add(record.aligned)
        assert outcomes == {True, False}


class TestAlignmentScore:
    def test_fraction_of_aligned_records(self):
        sig = SignificanceResult(1.0, 4.0, 0.01, True, 1.0, 0.0)
        records = [
            AlignmentRecord("a", True, sig, True),
            AlignmentRecord("b", True, sig, True),
            AlignmentRecord("c", True, replace(sig, significant=False), False),
        ]
        assert alignment_score(records) == pytest.approx(2 / 3)
        with pytest.raises(InputError):
            alignment_score([])


class TestAuditAlignment:
    def test_position_locked_reader_shows_no_alignment(self, corpus, manual_pairs):
        gateway = build_gateway("oracle")
        report = audit_alignment(
            gateway, plan_pairs(manual_pairs), SaliencyConfig(method="occlusion"), dataset_id="bundled"
        )
        assert report.model_id == "oracle"
        assert report.reasoning_step == "coreference_resolution"
        assert len(report.records) == 10
        assert report.skipped == ()
        assert [r.instance_id for r in report.records] == sorted(
            r.instance_id for r in report.records
        )
        # answers stay correct under the CF, but flat saliency is never significant
        assert all(r.cf_both_correct for r in report.records)
        assert not any(r.aligned for r in report.records)
        assert report.score == 0.0

    def test_single_word_operators_are_skipped_not_fatal(self, corpus):
        comparisons = [inst for inst in corpus if inst.skill == "comparison"]
        pairs = [perturb_comparison(inst, ANTONYM_TABLES["in_dist"]) for inst in comparisons]
        report = audit_alignment(
            build_gateway("toy:7"), plan_pairs(pairs), SaliencyConfig(method="occlusion")
        )
        assert [r.instance_id for r in report.records] == ["cmp-02", "cmp-09"]
        assert len(report.skipped) == 8
        assert all("2 values" in reason for _, reason in report.skipped)
        assert report.reasoning_step == "comparison_operation"

    def test_screen_runs_before_the_saliency_op(self, corpus):
        gateway = build_gateway("toy:7")
        seen: list[str] = []
        op = gateway.masked_start_scores

        def counted(instance):
            seen.append(instance.id)
            return op(instance)

        gateway.masked_start_scores = counted
        comparisons = [inst for inst in corpus if inst.skill == "comparison"]
        pairs = [perturb_comparison(inst, ANTONYM_TABLES["in_dist"]) for inst in comparisons]
        report = audit_alignment(gateway, plan_pairs(pairs), SaliencyConfig(method="occlusion"))
        assert seen == ["cmp-02", "cmp-09"] == [r.instance_id for r in report.records]

    def test_screen_raises_what_the_test_would(self, corpus_by_id):
        one_word = corpus_by_id["cmp-01"]  # "earlier": a one-word positive side
        with pytest.raises(InputError) as screened:
            screen_partition(one_word)
        partition = build_skill_partition(one_word)
        scores = [0.0] * one_word.n_question
        with pytest.raises(InputError) as tested:
            t_test_one_tailed(
                [scores[i] for i in partition.positive], [scores[i] for i in partition.negative]
            )
        assert str(screened.value) == str(tested.value) == (
            f"t-test requires at least {MIN_SIDE} values per side"
        )
        assert screen_partition(corpus_by_id["cmp-02"]) == build_skill_partition(
            corpus_by_id["cmp-02"]
        )

    def test_align_builds_each_partition_once(self, tmp_path, monkeypatch):
        built: list[str] = []
        build = alignment_module.build_skill_partition

        def counted(instance):
            built.append(instance.id)
            return build(instance)

        monkeypatch.setattr(alignment_module, "build_skill_partition", counted)
        out = tmp_path / "out"
        code = main([
            "align", "--dataset", str(fixture_corpus_path()), "--model", "toy:7",
            "--cf-file", str(coref_cf_pairs_path()), "--out", str(out),
        ])
        assert code == 0
        # a comparison the screen rejects by its side sizes is never built
        audited = [
            json.loads(line)["instance_id"]
            for line in (out / "alignment_records.jsonl").read_text().splitlines()
        ]
        assert built == audited and len(set(built)) == 12

    def test_no_usable_pairs_is_an_error(self, corpus_by_id):
        pair = perturb_comparison(corpus_by_id["cmp-01"], ANTONYM_TABLES["in_dist"])
        with pytest.raises(InputError, match="no usable pairs"):
            audit_alignment(
                build_gateway("toy:7"), plan_pairs([pair]), SaliencyConfig(method="occlusion")
            )

    def test_one_plan_audited_by_two_models(self, corpus, manual_pairs):
        comparisons = [inst for inst in corpus if inst.skill == "comparison"]
        twins = [perturb_comparison(inst, ANTONYM_TABLES["in_dist"]) for inst in comparisons]
        config = SaliencyConfig(method="occlusion")
        for pairs in (twins, manual_pairs):
            plan = plan_pairs(pairs)
            toy, oracle = (
                audit_alignment(build_gateway(spec), plan, config) for spec in ("toy:7", "oracle")
            )
            assert (toy.model_id, oracle.model_id) == ("toy:7", "oracle")
            audited = [pair.original.id for pair, _ in plan.pairs]
            assert [r.instance_id for r in toy.records] == audited
            assert [r.instance_id for r in oracle.records] == audited
            assert toy.skipped == oracle.skipped == plan.skipped
        assert len(plan_pairs(twins).skipped) == 8

    def test_a_plan_of_two_steps_is_refused(self, corpus_by_id, manual_pairs):
        twin = perturb_comparison(corpus_by_id["cmp-02"], ANTONYM_TABLES["in_dist"])
        with pytest.raises(InputError) as refused:
            plan_pairs(manual_pairs + [twin])
        assert str(refused.value) == (
            "an audit plan holds one reasoning step, not comparison_operation"
            " and coreference_resolution"
        )
        coref = plan_pairs(manual_pairs)
        with pytest.raises(InputError, match="one reasoning step"):
            AuditPlan(coref.pairs + plan_pairs([twin]).pairs, ())

    def test_pairs_that_share_an_original_are_planned_in_input_order(self, corpus_by_id):
        # one original's in- and out-of-distribution twins, planned together
        original = corpus_by_id["cmp-02"]
        twins = [perturb_comparison(original, ANTONYM_TABLES[tag]) for tag in ("in_dist", "ood")]
        assert twins[0] != twins[1]
        for pairs in (twins, twins[::-1]):
            plan = plan_pairs(pairs)
            assert plan.pairs == tuple((pair, screen_partition(original)) for pair in pairs)
            assert plan.skipped == ()

    def test_reuses_a_shared_cache(self, manual_pairs):
        gateway = build_gateway("oracle")
        cache = SaliencyCache()
        config = SaliencyConfig(method="occlusion")
        first = audit_alignment(gateway, plan_pairs(manual_pairs), config, cache=cache)
        size = len(cache)
        second = audit_alignment(gateway, plan_pairs(manual_pairs), config, cache=cache)
        assert len(cache) == size  # all hits the second time
        assert first.records == second.records


class TestCalibration:
    def test_rate_is_deterministic_and_reported_with_interval(self, corpus):
        instances = corpus[:6]
        gateway = build_gateway("toy:7")
        config = SaliencyConfig(method="occlusion")
        report = calibrate(instances, gateway, config, n_partitions=3, seed=5)
        again = calibrate(instances, gateway, config, n_partitions=3, seed=5)
        assert report == again
        assert report.n_draws == len(instances) * 3
        assert report.rate == report.n_significant / report.n_draws
        assert report.ci_low <= report.rate <= report.ci_high
        assert report.rate == calibrate(
            instances, gateway, config, n_partitions=3, seed=5
        ).rate

    def test_different_seeds_can_move_the_draws(self, corpus):
        instances = corpus[:4]
        gateway = build_gateway("toy:7")
        config = SaliencyConfig(method="occlusion")
        # determinism holds per seed even if the rates happen to coincide
        a = calibrate(instances, gateway, config, n_partitions=2, seed=1).rate
        b = calibrate(instances, gateway, config, n_partitions=2, seed=1).rate
        assert a == b

    def test_validation(self, corpus):
        gateway = build_gateway("toy:7")
        config = SaliencyConfig(method="occlusion")
        with pytest.raises(InputError, match="n_partitions"):
            calibrate(corpus[:2], gateway, config, n_partitions=0)
        with pytest.raises(InputError, match="at least one instance"):
            calibrate([], gateway, config, n_partitions=2)

    def test_wilson_interval_matches_published_value(self):
        low, high = wilson_interval(5, 10)
        assert round(low, 3) == 0.237
        assert round(high, 3) == 0.763
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0
        low, high = wilson_interval(0, 24)
        assert low == 0.0  # interval always contains the point estimate
        with pytest.raises(InputError):
            wilson_interval(1, 0)


class TestReportsAndSerialization:
    def test_alignment_csv_grid(self):
        sig = SignificanceResult(2.0, 4.0, 0.01, True, 1.0, 0.0)
        rec_true = AlignmentRecord("a", True, sig, True)
        rec_false = AlignmentRecord("b", True, replace(sig, significant=False), False)

        def report(model, method, step, records):
            return AlignmentReport(
                model_id=model, reasoning_step=step, method=method, records=tuple(records)
            )

        reports = [
            report("m1", "occlusion", "comparison_operation", [rec_true, rec_false, rec_false]),
            report("m1", "occlusion", "coreference_resolution", [rec_true, rec_true]),
            report("m2", "occlusion", "comparison_operation", [rec_false]),
        ]
        text = alignment_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "model,occlusion:comparison_operation,occlusion:coreference_resolution"
        assert lines[1] == "m1,33.3,100.0"
        assert lines[2] == "m2,0.0,"
        assert text.endswith("\n")
        with pytest.raises(InputError):
            alignment_csv([])

    def test_records_serialize_to_json_lines(self, tmp_path):
        sig = SignificanceResult(2.5, 3.7, 0.02, True, 0.9, 0.1)
        records = [AlignmentRecord("a", True, sig, True), AlignmentRecord("b", False, sig, False)]
        path = tmp_path / "records.jsonl"
        write_jsonl(path, (record_to_dict(r) for r in records))  # the CLI's record writer
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["instance_id"] for d in docs] == ["a", "b"]
        assert docs[0]["aligned"] is True and docs[1]["cf_both_correct"] is False
        assert docs[0]["t"] == 2.5 and docs[0]["p"] == 0.02
        assert record_to_dict(records[0])["significant"] is True
