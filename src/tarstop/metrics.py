"""Recall, cost, and excess metrics plus CSV reporting.

Cost is stored as a proportion of the collection throughout; rendering it
as a percentage is the report consumer's business. Excess normalizes the
gap to the ideal stopping cost: 0 means the method stopped exactly where an
oracle would, positive means overshoot, negative undershoot.

Every CSV this package writes (results, per-topic and aggregate reports,
training logs) goes through :func:`write_table`, so they share one cell
rule: a float is written by ``repr``, ``None`` as an empty cell.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass

import numpy as np

from .corpus import Topic, check_target, first_reaching, read_text
from .errors import ConfigError, ParseError

PER_TOPIC_HEADER = (
    "method",
    "target",
    "topic_id",
    "N",
    "R",
    "docs_examined",
    "relevant_found",
    "recall",
    "cost",
    "excess",
)
AGGREGATE_HEADER = ("method", "target", "mean_recall", "mean_cost", "mean_excess", "pareto_flag")
RESULTS_HEADER = ("topic_id", "method", "target", "stop_batch", "docs_examined", "relevant_found")

# When the ideal stop is the full collection the excess denominator vanishes;
# a method that also reads everything scores 0, anything earlier scores its
# cost shortfall (cost - 1, necessarily negative).
EXCESS_FOOTER = (
    "# excess convention: when the optimal stop is the full collection, "
    "excess = 0 if the method also examines everything, else cost - 1"
)


@dataclass(frozen=True)
class StopResult:
    """One stopping decision on one topic."""

    topic_id: str
    method: str
    target_recall: float | None
    docs_examined: int
    relevant_found: int | None
    stop_batch: int | None = None


def optimal_stop_rank(topic: Topic, target_recall: float) -> int:
    """Smallest rank whose cumulative recall meets the target."""
    return first_reaching(topic, topic.gain[1:], target_recall)


class ResultError(ConfigError):
    """A results row that does not fit the topics; ``result`` is the row."""

    def __init__(self, message: str, result: StopResult):
        super().__init__(message)
        self.result = result


def resolve_relevant_found(result: StopResult, topic: Topic | None) -> StopResult:
    """``result`` with relevant_found filled from the labels when an imported
    row lacks it. A :class:`ResultError` unless ``topic`` (None: no topic) is
    the row's, ``docs_examined`` lies in [1, N] and a given ``relevant_found``
    is the relevant count among the first ``docs_examined`` documents."""
    if topic is None or result.topic_id != topic.topic_id:
        raise ResultError(f"result references unknown topic {result.topic_id!r}", result)
    if not 1 <= result.docs_examined <= topic.n_docs:
        raise ResultError(
            f"topic {topic.topic_id!r}: docs_examined {result.docs_examined} "
            f"outside [1, {topic.n_docs}]", result
        )
    found = int(topic.gain[result.docs_examined])
    if result.relevant_found is None:
        return dataclasses.replace(result, relevant_found=found)
    if result.relevant_found != found:
        raise ResultError(
            f"topic {topic.topic_id!r}: relevant_found {result.relevant_found}, but the first "
            f"{result.docs_examined} documents hold {found} relevant", result
        )
    return result


@dataclass(frozen=True)
class TopicMetrics:
    method: str
    target_recall: float
    topic_id: str
    n_docs: int
    n_relevant: int
    docs_examined: int
    relevant_found: int
    recall: float
    cost: float
    excess: float


@dataclass(frozen=True)
class MethodSummary:
    method: str
    target_recall: float
    n_topics: int
    mean_recall: float
    mean_cost: float
    mean_excess: float
    pareto_optimal: bool


@dataclass(frozen=True)
class MetricsReport:
    per_topic: tuple[TopicMetrics, ...]
    summaries: tuple[MethodSummary, ...]


def _topic_metrics(result: StopResult, topic: Topic | None, target_recall=None) -> TopicMetrics:
    """One row's metrics, the one place each formula lives. The row is
    resolved against its topic once; without a target its excess is None."""
    result = resolve_relevant_found(result, topic)
    cost = result.docs_examined / topic.n_docs
    excess = None
    if target_recall is not None:
        optimal_cost = optimal_stop_rank(topic, target_recall) / topic.n_docs
        if optimal_cost >= 1.0:
            excess = 0.0 if cost >= 1.0 else cost - 1.0
        else:
            excess = (cost - optimal_cost) / (1.0 - optimal_cost)
    return TopicMetrics(
        method=result.method,
        target_recall=target_recall,
        topic_id=result.topic_id,
        n_docs=topic.n_docs,
        n_relevant=topic.n_relevant,
        docs_examined=result.docs_examined,
        relevant_found=result.relevant_found,
        recall=result.relevant_found / topic.n_relevant,
        cost=cost,
        excess=excess,
    )


def aggregate(results: list[StopResult], topics: list[Topic]) -> MetricsReport:
    """Per-topic metrics plus per-(method, target) means and Pareto flags.

    A method is Pareto-optimal at a target when no other method reaches at
    least its mean recall at no more than its mean cost, with one strict.
    Means are compared only over one topic set: every method at a target
    must have rows for the same topics, or this raises :class:`ConfigError`
    naming the method, the target and a topic it lacks.
    """
    by_id = {t.topic_id: t for t in topics}
    rows = []
    for result in results:
        if result.target_recall is None:
            raise ConfigError(
                f"result for topic {result.topic_id!r} (method {result.method!r}) "
                "has no target recall"
            )
        rows.append(_topic_metrics(result, by_id.get(result.topic_id), result.target_recall))
    rows.sort(key=lambda r: (r.target_recall, r.method, r.topic_id))
    grouped: dict[tuple[str, float], list[TopicMetrics]] = {}
    for row in rows:
        grouped.setdefault((row.method, row.target_recall), []).append(row)
    covered = {key: {r.topic_id for r in group} for key, group in grouped.items()}
    for (method, target), topic_ids in covered.items():
        for (other, other_target), other_ids in covered.items():
            if other_target == target and not other_ids <= topic_ids:
                raise ConfigError(
                    f"method {method!r} at target {target:g} has no row for topic "
                    f"{min(other_ids - topic_ids)!r}, which method {other!r} has; every "
                    "method at a target must cover the same topics"
                )
    means = {
        key: (
            float(np.mean([r.recall for r in group])),
            float(np.mean([r.cost for r in group])),
            float(np.mean([r.excess for r in group])),
        )
        for key, group in grouped.items()
    }
    summaries = []
    for (method, target), group in grouped.items():
        mean_recall, mean_cost, mean_excess = means[(method, target)]
        dominated = any(
            other != (method, target)
            and other[1] == target
            and means[other][0] >= mean_recall
            and means[other][1] <= mean_cost
            and (means[other][0] > mean_recall or means[other][1] < mean_cost)
            for other in means
        )
        summaries.append(
            MethodSummary(
                method=method,
                target_recall=target,
                n_topics=len(group),
                mean_recall=mean_recall,
                mean_cost=mean_cost,
                mean_excess=mean_excess,
                pareto_optimal=not dominated,
            )
        )
    summaries.sort(key=lambda s: (s.target_recall, s.method))
    return MetricsReport(tuple(rows), tuple(summaries))


def write_table(path, header, rows, footer=None) -> None:
    """Write ``header`` and ``rows`` as CSV, then ``footer`` as a last line.

    The csv module writes ``None`` as an empty cell and every other value by
    ``str``, which for a Python float is its ``repr``. Pass Python floats:
    the one-rule promise does not hold for ``np.float64``, whose ``repr``
    differs from its ``str`` under numpy 2.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        if footer is not None:
            fh.write(footer + "\n")


def write_per_topic_csv(path, report: MetricsReport) -> None:
    write_table(path, PER_TOPIC_HEADER, (
        (r.method, r.target_recall, r.topic_id, r.n_docs, r.n_relevant, r.docs_examined,
         r.relevant_found, r.recall, r.cost, r.excess)
        for r in report.per_topic
    ))


def write_aggregate_csv(path, report: MetricsReport) -> None:
    write_table(path, AGGREGATE_HEADER, (
        (s.method, s.target_recall, s.mean_recall, s.mean_cost, s.mean_excess,
         int(s.pareto_optimal))
        for s in report.summaries
    ), EXCESS_FOOTER)


def write_results_csv(path, results: list[StopResult]) -> None:
    write_table(path, RESULTS_HEADER, (
        (r.topic_id, r.method, r.target_recall, r.stop_batch, r.docs_examined, r.relevant_found)
        for r in results
    ))


def _cell(path, lineno: int, row: dict, column: str, convert):
    """One optional results cell converted by ``convert``; empty or absent is None."""
    text = row.get(column) or None
    if text is None:
        return None
    try:
        return convert(text)
    except ValueError:
        kind = "a number" if convert is float else "an integer"
        raise ParseError(f"{path} line {lineno}: {column} {text!r} is not {kind}") from None


def read_results_csv(path) -> list[StopResult]:
    """Read stopping results, either this package's schema or the minimal
    external one (topic_id, method, docs_examined)."""
    reader = csv.DictReader(io.StringIO(read_text(path, newline=""), newline=""))
    if reader.fieldnames is None:
        raise ParseError(f"{path}: empty results file")
    fields = set(reader.fieldnames)
    for required in ("topic_id", "method", "docs_examined"):
        if required not in fields:
            raise ConfigError(f"{path}: missing required column {required!r}")
    results = []
    for lineno, row in enumerate(reader, start=2):
        docs = _cell(path, lineno, row, "docs_examined", int)
        if docs is None:
            raise ParseError(f"{path} line {lineno}: docs_examined is empty")
        target = _cell(path, lineno, row, "target", float)
        if target is not None:
            check_target(target, f"{path} line {lineno}: target")
        results.append(
            StopResult(
                topic_id=row["topic_id"],
                method=row["method"],
                target_recall=target,
                docs_examined=docs,
                relevant_found=_cell(path, lineno, row, "relevant_found", int),
                stop_batch=_cell(path, lineno, row, "stop_batch", int),
            )
        )
    return results
