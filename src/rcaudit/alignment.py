"""Alignment statistics: one-tailed Welch test, per-instance alignment
verdicts, dataset-level alignment scores, and random-partition calibration.

An explanation "aligns" with the expected reasoning step when (a) the model
answers both the original instance and its counterfactual twin exactly
correctly and (b) the positive partition's mean saliency is significantly
higher than the negative partition's under a one-tailed two-sample test.
The test is Welch's (unequal variances, Welch-Satterthwaite degrees of
freedom); signed saliency scores enter it as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from scipy.special import stdtr

from .counterfactuals import CFPair
from .errors import InputError
from .gateway.base import ModelGateway, predict
from .metrics import exact_match
from .partitions import (
    MIN_SIDE,
    TokenPartition,
    build_skill_partition,
    comparison_side_sizes,
    random_partition,
    seed_for,
)
from .saliency import SaliencyCache, SaliencyConfig, SaliencyMap, compute_saliency, scope_scores
from .types import RCInstance

_Source = TypeVar("_Source")


@dataclass(frozen=True)
class SignificanceResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    significant: bool
    mean_positive: float
    mean_negative: float


def _sample_stats(values: Sequence[float]) -> tuple[float, float, int]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, var, n


def _check_sides(n_positive: int, n_negative: int) -> None:
    if n_positive < MIN_SIDE or n_negative < MIN_SIDE:
        raise InputError(f"t-test requires at least {MIN_SIDE} values per side")


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise InputError(f"alpha must lie in (0,1), got {alpha}")


def screen_partition(instance: RCInstance) -> TokenPartition:
    """The instance's skill partition, screened before any work is done for
    it: raises what building the partition or the Welch test would, in that
    order. A comparison's sides are counted before either is built."""
    if instance.skill == "comparison":
        _check_sides(*comparison_side_sizes(instance))
        return build_skill_partition(instance)
    partition = build_skill_partition(instance)
    _check_sides(len(partition.positive), len(partition.negative))
    return partition


def t_test_one_tailed(
    positive: Sequence[float], negative: Sequence[float], alpha: float = 0.05
) -> SignificanceResult:
    """Welch's t-test of H1: mean(positive) > mean(negative).

    Zero-variance degenerate cases are defined rather than erroneous:
    identical constant samples give t=0, p=0.5; strictly ordered constant
    samples give t=+/-inf with p=0 or 1.
    """
    _check_sides(len(positive), len(negative))
    _check_alpha(alpha)
    m_pos, v_pos, n_pos = _sample_stats(positive)
    m_neg, v_neg, n_neg = _sample_stats(negative)
    if v_pos == 0.0 and v_neg == 0.0:
        if m_pos == m_neg:
            t, df, p = 0.0, float(n_pos + n_neg - 2), 0.5
        elif m_pos > m_neg:
            t, df, p = math.inf, float(n_pos + n_neg - 2), 0.0
        else:
            t, df, p = -math.inf, float(n_pos + n_neg - 2), 1.0
    else:
        se_pos = v_pos / n_pos
        se_neg = v_neg / n_neg
        denom = se_pos**2 / (n_pos - 1) + se_neg**2 / (n_neg - 1)
        if denom > 0.0:
            t = (m_pos - m_neg) / math.sqrt(se_pos + se_neg)
        else:
            # The squares underflowed (variances below about 1e-150): the
            # same formulas in units of the larger variance.
            scale = max(v_pos, v_neg)
            se_pos, se_neg = v_pos / scale / n_pos, v_neg / scale / n_neg
            denom = se_pos**2 / (n_pos - 1) + se_neg**2 / (n_neg - 1)
            t = (m_pos - m_neg) / (math.sqrt(scale) * math.sqrt(se_pos + se_neg))
        df = (se_pos + se_neg) ** 2 / denom
        # Student t survival function, sf(t) = cdf(-t): the same value as
        # scipy.stats.t.sf without importing scipy.stats.
        p = float(stdtr(df, -t))
    return SignificanceResult(
        t_statistic=t,
        degrees_of_freedom=df,
        p_value=p,
        significant=bool(p < alpha and t > 0),
        mean_positive=m_pos,
        mean_negative=m_neg,
    )


@dataclass(frozen=True)
class AlignmentRecord:
    instance_id: str
    cf_both_correct: bool
    significance: SignificanceResult
    aligned: bool


def partition_test(
    saliency: SaliencyMap, partition: TokenPartition, alpha: float = 0.05
) -> SignificanceResult:
    """Welch test on a saliency map restricted to a partition's two sides."""
    if saliency.instance_id != partition.instance_id:
        raise InputError(
            f"saliency is for {saliency.instance_id!r}, partition for {partition.instance_id!r}"
        )
    scores = scope_scores(saliency, partition.scope)
    n = len(scores)
    for idx in partition.positive | partition.negative:
        if idx >= n:
            raise InputError(f"{partition.instance_id}: partition index {idx} out of scope")
    pos = [scores[i] for i in sorted(partition.positive)]
    neg = [scores[i] for i in sorted(partition.negative)]
    return t_test_one_tailed(pos, neg, alpha)


def explanation_alignment(
    pair: CFPair,
    saliency: SaliencyMap,
    partition: TokenPartition,
    gateway: ModelGateway,
    alpha: float = 0.05,
) -> AlignmentRecord:
    """Per-instance alignment verdict: CF robustness AND saliency placement.

    The saliency map must describe the pair's original instance under the
    gateway's model. The original's answer is the one the map keeps from
    the prediction that fixed its anchor; the gateway is asked only about
    the counterfactual twin, and only when that answer is right.
    """
    if saliency.instance_id != pair.original.id:
        raise InputError(
            f"saliency is for {saliency.instance_id!r}, pair for {pair.original.id!r}"
        )
    if saliency.model_id != gateway.model_id:
        raise InputError(
            f"saliency is from {saliency.model_id!r}, gateway is {gateway.model_id!r}"
        )
    significance = partition_test(saliency, partition, alpha)
    both = exact_match(saliency.predicted_answer, [a.text for a in pair.original.gold_answers]) and (
        exact_match(predict(gateway, pair.perturbed).predicted_span.text,
                    [a.text for a in pair.perturbed.gold_answers]))
    return AlignmentRecord(
        instance_id=pair.original.id,
        cf_both_correct=both,
        significance=significance,
        aligned=bool(both and significance.significant),
    )


def alignment_score(records: Sequence[AlignmentRecord]) -> float:
    if not records:
        raise InputError("alignment_score requires at least one record")
    return sum(r.aligned for r in records) / len(records)


@dataclass(frozen=True)
class AlignmentReport:
    model_id: str
    reasoning_step: str
    method: str
    records: tuple[AlignmentRecord, ...]
    skipped: tuple[tuple[str, str], ...] = ()

    @property
    def score(self) -> float:
        return alignment_score(list(self.records))


@dataclass(frozen=True)
class AuditPlan:
    """What an audit covers: each pair with its original's partition, and
    the originals screened out with their reasons, both in id order. Every
    partition is of one reasoning step, the report's."""

    pairs: tuple[tuple[CFPair, TokenPartition], ...]
    skipped: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        steps = sorted({partition.skill_step for _, partition in self.pairs})
        if len(steps) > 1:
            raise InputError(f"an audit plan holds one reasoning step, not {' and '.join(steps)}")


def plan_audit(
    sources: Iterable[_Source],
    original: Callable[[_Source], RCInstance],
    check_twin: Callable[[_Source], object],
    make_twin: Callable[[_Source], CFPair],
) -> tuple[AuditPlan, list[list]]:
    """The audit plan of `sources`, each the source of one original's twin,
    and the counterfactual skips.

    Three passes over the sources in their originals' id order:
    `screen_partition` on every original; only `check_twin` (the checks on
    the original alone) on each one the screen rejects, so a counterfactual
    reason wins over the screen's with no twin made; then `make_twin` on
    each one the screen passes. Skips are listed in id order.
    """
    passed, failed = [], []
    for k, source in enumerate(sorted(sources, key=lambda s: original(s).id)):
        try:
            passed.append((k, source, screen_partition(original(source))))
        except InputError as screened:
            failed.append((k, source, str(screened)))
    cf_skipped, screened_out = {}, []
    for k, source, reason in failed:
        try:
            check_twin(source)
        except InputError as exc:
            cf_skipped[k] = [original(source).id, str(exc)]
        else:
            screened_out.append((original(source).id, reason))
    pairs = []
    for k, source, partition in passed:
        try:
            pairs.append((make_twin(source), partition))
        except InputError as exc:
            cf_skipped[k] = [original(source).id, str(exc)]
    return AuditPlan(tuple(pairs), tuple(screened_out)), [cf_skipped[k] for k in sorted(cf_skipped)]


def plan_pairs(pairs: Iterable[CFPair]) -> AuditPlan:
    """The plan for ready-made pairs: each original screened with
    `screen_partition`; one that fails is skipped with its reason."""
    return plan_audit(pairs, lambda pair: pair.original, lambda pair: None, lambda pair: pair)[0]


def check_audit(plan: AuditPlan, alpha: float, dataset_id: str) -> None:
    """Raise what `audit_alignment` refuses before it asks the model anything:
    a plan with no pairs, then a bad alpha."""
    if not plan.pairs:
        raise InputError(f"{dataset_id}: no usable pairs for the alignment audit")
    _check_alpha(alpha)


def audit_alignment(
    gateway: ModelGateway,
    plan: AuditPlan,
    config: SaliencyConfig,
    alpha: float = 0.05,
    cache: SaliencyCache | None = None,
    dataset_id: str = "dataset",
) -> AlignmentReport:
    """Audit the plan's pairs with one saliency config, in the plan's order;
    the plan's skips are the report's."""
    check_audit(plan, alpha, dataset_id)
    if cache is None:
        cache = SaliencyCache()
    records = tuple(
        explanation_alignment(
            pair, cache.get_or_compute(gateway, pair.original, config), partition, gateway, alpha
        )
        for pair, partition in plan.pairs
    )
    return AlignmentReport(
        model_id=gateway.model_id,
        reasoning_step=plan.pairs[0][1].skill_step,
        method=config.method,
        records=records,
        skipped=plan.skipped,
    )


# Two-sided 95% standard normal quantile.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class CalibrationReport:
    rate: float
    n_significant: int
    n_draws: int
    alpha: float
    seed: int
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise InputError("wilson_interval requires trials > 0")
    z = _Z_95
    phat = successes / trials
    denom = 1 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
    # clamp so rounding noise never pushes the interval off the estimate
    return min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half))


def check_calibration(n_instances: int, n_partitions: int, alpha: float) -> None:
    """Raise what `calibrate` refuses before it asks the model anything or
    draws a partition: too few draws, then no instance, then a bad alpha."""
    if n_partitions < 1:
        raise InputError("calibration needs n_partitions >= 1")
    if n_instances == 0:
        raise InputError("calibration needs at least one instance")
    _check_alpha(alpha)


def calibrate(
    instances: Sequence[RCInstance],
    gateway: ModelGateway,
    config: SaliencyConfig,
    n_partitions: int = 1,
    seed: int = 0,
    alpha: float = 0.05,
) -> CalibrationReport:
    """Fraction of seeded random size-matched partitions judged significant.

    A sound test keeps this rate near alpha: random partitions carry no
    signal, so rejections here are false positives.
    """
    check_calibration(len(instances), n_partitions, alpha)
    significant = 0
    total = 0
    for instance in instances:
        saliency = compute_saliency(gateway, instance, config)
        for draw in range(n_partitions):
            partition = random_partition(instance, seed=seed_for(seed, instance.id, draw))
            result = partition_test(saliency, partition, alpha)
            significant += int(result.significant)
            total += 1
    low, high = wilson_interval(significant, total)
    return CalibrationReport(
        rate=significant / total,
        n_significant=significant,
        n_draws=total,
        alpha=alpha,
        seed=seed,
        ci_low=low,
        ci_high=high,
    )


def record_to_dict(record: AlignmentRecord) -> dict:
    sig = record.significance
    return {
        "instance_id": record.instance_id,
        "cf_both_correct": record.cf_both_correct,
        "aligned": record.aligned,
        "t": sig.t_statistic,
        "df": sig.degrees_of_freedom,
        "p": sig.p_value,
        "significant": sig.significant,
        "mean_positive": sig.mean_positive,
        "mean_negative": sig.mean_negative,
    }


def alignment_csv(reports: Sequence[AlignmentReport]) -> str:
    """Render reports as a CSV grid: one row per model, one column per
    (method, reasoning step), cells as percentages with one decimal."""
    if not reports:
        raise InputError("alignment_csv requires at least one report")
    columns = sorted({(r.method, r.reasoning_step) for r in reports})
    models = sorted({r.model_id for r in reports})
    cells: dict[tuple[str, str, str], float] = {}
    for report in reports:
        cells[(report.model_id, report.method, report.reasoning_step)] = report.score
    lines = ["model," + ",".join(f"{m}:{s}" for m, s in columns)]
    for model in models:
        row = [model]
        for method, step in columns:
            value = cells.get((model, method, step))
            row.append("" if value is None else f"{100 * value:.1f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
