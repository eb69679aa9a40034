"""Recall, cost, and excess metrics plus CSV reporting.

Cost is stored as a proportion of the collection throughout; rendering it
as a percentage is the report consumer's business. Excess normalizes the
gap to the ideal stopping cost: 0 means the method stopped exactly where an
oracle would, positive means overshoot, negative undershoot.

``eval`` works in columns: each numeric column of a results file is
matched and converted in one pass, and all rows are checked and scored in
array passes, with one oracle search over all rows at once. Every
CSV this package writes goes through :func:`write_table`, so they share one
cell rule: a float is written by ``repr``, ``None`` as an empty cell.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .corpus import DECIMAL, INTEGER, Collection, check_target, first_reaching, read_text
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


class StopResult(NamedTuple):
    """One stopping decision on one topic."""

    topic_id: str
    method: str
    target_recall: float | None
    docs_examined: int
    relevant_found: int | None
    stop_batch: int | None = None


class ResultError(ConfigError):
    """Results rows that do not fit the topics or each other; ``results`` are
    the rows, each with a ``method``, ``target_recall`` and ``topic_id``."""

    def __init__(self, message: str, *results):
        super().__init__(message)
        self.results = results


class TopicMetrics(NamedTuple):
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


def aggregate(results: list[StopResult], topics: Collection) -> MetricsReport:
    """Per-topic metrics plus per-(method, target) means and Pareto flags.

    Rows are scored together in array passes. The first row in input order
    without a target, or (:class:`ResultError`) with an unknown topic,
    ``docs_examined`` outside [1, N] or a ``relevant_found`` other than the
    labels' count (None: filled from them), raises.

    A method is Pareto-optimal at a target when no other method reaches at
    least its mean recall at no more than its mean cost, with one strict.
    Means are compared only over one topic set: every method at a target
    must have rows for the same topics, or this raises :class:`ResultError`
    naming the method, the target and a topic it lacks, with a row of that
    method and another method's row for the topic.
    """
    ids, methods, targets, given_docs, given_found, _ = list(zip(*results)) or [()] * 6
    index = {topic_id: k for k, topic_id in enumerate(topics.topic_ids)}
    tix = np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))
    running, bounds = topics.gain, topics.bounds
    # a row's topic holds documents first:last; index -1, no topic, holds none
    first, last = (np.append(b, 0)[tix] for b in (bounds[:-1], bounds[1:]))
    n_docs, n_relevant = last - first, running[last] - running[first]
    # int64 for the checks; a cell past it is clipped to a value failing the same checks
    docs = np.array(given_docs, dtype=object).clip(0, 2**62).astype(np.int64)
    in_range = (docs >= 1) & (docs <= n_docs)
    gain = running[first + np.where(in_range, docs, 0)] - running[first]
    found = np.array([g if f is None else f for f, g in zip(given_found, gain.tolist())],
                     dtype=object).clip(-1, 2**62).astype(np.int64)
    checks = (  # (rows failing it, its error), in the order a row meets them
        (np.array([t is None for t in targets], dtype=bool), lambda i: ConfigError(
            f"result for topic {ids[i]!r} (method {methods[i]!r}) has no target recall")),
        (tix < 0, lambda i: ResultError(f"result references unknown topic {ids[i]!r}", results[i])),
        (~in_range, lambda i: ResultError(
            f"topic {ids[i]!r}: docs_examined {given_docs[i]} outside [1, {n_docs[i]}]", results[i])),
        (found != gain, lambda i: ResultError(
            f"topic {ids[i]!r}: relevant_found {given_found[i]}, but the first {docs[i]} "
            f"documents hold {gain[i]} relevant", results[i])),
    )
    bad = np.logical_or.reduce([rows for rows, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        raise next(error(i) for rows, error in checks if rows[i])
    target_key = np.array(targets, dtype=float)
    optimal_cost = first_reaching(running, first, n_relevant, target_key) / n_docs
    cost = docs / n_docs
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch np.where does not take
        excess = np.where(optimal_cost >= 1.0, np.where(cost >= 1.0, 0.0, cost - 1.0),
                          (cost - optimal_cost) / (1.0 - optimal_cost))
    recall = found / n_relevant

    def ranked(values):  # sorting strings as Python does, which numpy's str arrays do not
        rank = {v: r for r, v in enumerate(sorted(set(values)))}
        return np.fromiter(map(rank.get, values), np.int64, len(values))

    method_rank = ranked(methods)
    order = np.lexsort((ranked(ids), method_rank, target_key))
    take = order.tolist()
    metrics = [a[order] for a in (n_docs, n_relevant, docs, found, recall, cost, excess)]
    columns = [[column[i] for i in take] for column in (methods, targets, ids)]
    rows = tuple(map(TopicMetrics._make, zip(*columns, *(a.tolist() for a in metrics))))
    # rows of one (method, target) are contiguous: group ``key`` is rows[a:b]
    starts = np.flatnonzero((np.diff(target_key[order], prepend=np.nan) != 0)
                            | (np.diff(method_rank[order], prepend=-1) != 0)).tolist()
    groups = {rows[a][:2]: (a, b) for a, b in zip(starts, starts[1:] + [len(rows)])}
    covered = {key: set(columns[2][a:b]) for key, (a, b) in groups.items()}
    for (method, target), topic_ids in covered.items():
        for (other, other_target), other_ids in covered.items():
            if other_target == target and not other_ids <= topic_ids:
                missing, (a, b) = min(other_ids - topic_ids), groups[other, other_target]
                raise ResultError(
                    f"method {method!r} at target {target!r} has no row for topic "
                    f"{missing!r}, which method {other!r} has; every method at a target "
                    "must cover the same topics", rows[groups[method, target][0]],
                    rows[a + columns[2][a:b].index(missing)])
    means = {key: tuple(float(np.mean(metric[a:b])) for metric in metrics[4:])
             for key, (a, b) in groups.items()}
    summaries = []
    for (method, target), (a, b) in groups.items():
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
                n_topics=b - a,
                mean_recall=mean_recall,
                mean_cost=mean_cost,
                mean_excess=mean_excess,
                pareto_optimal=not dominated,
            )
        )
    return MetricsReport(rows, tuple(summaries))


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
    write_table(path, PER_TOPIC_HEADER, report.per_topic)  # a row's fields are the columns


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


# Each numeric column's token rule and conversion; an empty or missing cell reads as None.
_NUMBERS = {"docs_examined": (INTEGER, int), "target": (DECIMAL, float),
            "relevant_found": (INTEGER, int), "stop_batch": (INTEGER, int)}


def _columns(ids, methods, *texts) -> list[list]:
    """The :data:`_NUMBERS` columns, converted: a column's distinct cells are
    matched at once, joined by newlines (int() and float() refuse a cell that
    holds one), then converted once each. A ValueError says what, not where."""
    if None in ids or None in methods:
        raise ParseError(f"no {'topic_id' if None in ids else 'method'} cell")
    values = []
    for cells, (column, (token, convert)) in zip(texts, _NUMBERS.items()):
        distinct = set(cells) - {None, ""}
        if not re.fullmatch(rf"{token.pattern}(?:\n{token.pattern})*|", "\n".join(distinct)):
            kind = "a number" if convert is float else "an integer"
            raise ParseError(f"{column} {cells[0]!r} is not {kind}")
        try:
            converted = {text: convert(text) for text in distinct}
        except ValueError:  # int() refuses a cell of more than 4300 digits
            raise ParseError(f"{column} '{max(distinct, key=len)[:20]}…' is not an integer") from None
        values.append(list(map(converted.get, cells)))
    if None in values[0]:
        raise ParseError("docs_examined is empty")
    for target in set(values[1]) - {None}:
        check_target(target, "target")
    return values


def read_results_csv(path) -> list[StopResult]:
    """Read stopping results, either this package's schema or the minimal
    external one (topic_id, method, docs_examined), by :func:`_columns`; a
    file with a bad cell is walked row by row to name the first. As in
    ``csv.DictReader``, blank lines are skipped, a missing cell reads as
    None (an error under topic_id or method) and a line number counts rows."""
    reader = csv.reader(io.StringIO(read_text(path, newline=""), newline=""))
    try:
        header = next(reader, None)
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ParseError(f"{path} line {reader.line_num}: {exc}") from None
    if header is None:
        raise ParseError(f"{path}: empty results file")
    for required in ("topic_id", "method", "docs_examined"):
        if required not in header:
            raise ConfigError(f"{path}: missing required column {required!r}")
    # a repeated column name means its last column, as in DictReader
    cells = dict(zip(header, zip(*(row + [None] * (len(header) - len(row)) for row in rows))))
    ids, methods, *texts = (cells.get(name, (None,) * len(rows))
                            for name in ("topic_id", "method", *_NUMBERS))
    try:
        docs, targets, found, stop_batch = _columns(ids, methods, *texts)
    except ValueError:  # ConfigError and ParseError too
        for lineno, row in enumerate(zip(ids, methods, *texts), start=2):
            try:
                _columns(*((cell,) for cell in row))
            except ValueError as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
        raise
    return list(map(StopResult, ids, methods, targets, docs, found, stop_batch))
