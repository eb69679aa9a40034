"""Output checks, recomputed from the generator's own labels.

Each check returns a list of problems (empty when the output is correct).
The rules restated here are the documented ones: near-equal contiguous
batches with the leftover on the earliest batches, the first rank whose
recall reaches the target, and the excess convention for topics whose
ideal stop is the whole ranking.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from gen import Collection

N_BATCHES = 100
TARGET_SLACK = 1e-9
REL_TOL = 1e-12


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class Truth:
    """What a topic's labels imply: sizes, prefix sums and batch ends."""

    n_docs: int
    n_relevant: int
    found: np.ndarray  # found[k] = relevant among the first k documents
    batch_ends: frozenset

    def optimal_rank(self, target: float) -> int:
        need = target * self.n_relevant - TARGET_SLACK
        return int(np.searchsorted(self.found[1:], need, side="left")) + 1

    def recall(self, examined: int) -> float:
        return int(self.found[examined]) / self.n_relevant

    def cost(self, examined: int) -> float:
        return examined / self.n_docs

    def excess(self, examined: int, target: float) -> float:
        optimal = self.optimal_rank(target) / self.n_docs
        cost = self.cost(examined)
        if optimal >= 1.0:
            return 0.0 if cost >= 1.0 else cost - 1.0
        return (cost - optimal) / (1.0 - optimal)


def truths(collection: Collection) -> dict[str, Truth]:
    out = {}
    for topic_id, labels in zip(collection.topic_ids, collection.labels):
        n = len(labels)
        base, extra = divmod(n, N_BATCHES)
        sizes = [base + 1] * extra + [base] * (N_BATCHES - extra)
        found = np.concatenate(([0], np.cumsum(labels, dtype=np.int64)))
        out[topic_id] = Truth(n, int(found[-1]), found, frozenset(np.cumsum(sizes).tolist()))
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _read_rows(path) -> tuple[list[dict], list[str]]:
    """CSV rows as dicts; ``#`` lines (the aggregate footer) are skipped."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#"))), []
    except (OSError, csv.Error) as exc:
        return [], [f"{path}: unreadable ({exc})"]


def check_results(path, truth: dict[str, Truth], method: str, targets, budget_fraction=0.5) -> list[str]:
    """A stop or baseline CSV: one row per topic x target, consistent with the labels."""
    rows, problems = _read_rows(path)
    seen = set()
    for row in rows:
        try:
            topic, target = row["topic_id"], float(row["target"])
            examined, found = int(row["docs_examined"]), int(row["relevant_found"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path}: malformed row {row} ({exc})")
            continue
        key = (topic, target)
        t = truth.get(topic)
        if t is None or row["method"] != method or key in seen:
            problems.append(f"{path}: unexpected row {row}")
            continue
        seen.add(key)
        if not 1 <= examined <= t.n_docs or found != int(t.found[examined]):
            problems.append(f"{path}: {topic}: {examined} examined, {found} found disagrees with labels")
        elif method == "oracle" and examined != t.optimal_rank(target):
            problems.append(f"{path}: {topic}@{target}: oracle stop {examined} != {t.optimal_rank(target)}")
        elif method == "budget" and examined != math.ceil(budget_fraction * t.n_docs):
            problems.append(f"{path}: {topic}: budget stop {examined} is not {budget_fraction} of {t.n_docs}")
        elif method in ("policy", "knee") and examined not in t.batch_ends:
            problems.append(f"{path}: {topic}: {method} stop {examined} is not a batch end")
    expected = {(topic, float(target)) for topic in truth for target in targets}
    if seen != expected:
        problems.append(f"{path}: {len(seen)} (topic, target) rows, expected {len(expected)}")
    return problems


def check_report(report_dir, truth: dict[str, Truth], methods, targets) -> list[str]:
    """per_topic.csv against the labels, and aggregate.csv against per_topic.csv."""
    rows, problems = _read_rows(f"{report_dir}/per_topic.csv")
    seen = set()
    groups: dict[tuple[str, float], list[tuple[float, float, float]]] = {}
    for row in rows:
        try:
            method, target, topic = row["method"], float(row["target"]), row["topic_id"]
            examined, found = int(row["docs_examined"]), int(row["relevant_found"])
            got = (float(row["recall"]), float(row["cost"]), float(row["excess"]))
            sizes = (int(row["N"]), int(row["R"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"per_topic.csv: malformed row {row} ({exc})")
            continue
        t = truth.get(topic)
        key = (method, target, topic)
        if t is None or key in seen:
            problems.append(f"per_topic.csv: unexpected row {row}")
            continue
        seen.add(key)
        if sizes != (t.n_docs, t.n_relevant) or not 1 <= examined <= t.n_docs or found != t.found[examined]:
            problems.append(f"per_topic.csv: {key}: counts disagree with labels")
            continue
        want = (t.recall(examined), t.cost(examined), t.excess(examined, target))
        if not all(_close(a, b) for a, b in zip(got, want)):
            problems.append(f"per_topic.csv: {key}: recall/cost/excess {got} != {want}")
        if method == "oracle" and (got[0] < target - TARGET_SLACK or got[2] != 0.0):
            problems.append(f"per_topic.csv: {key}: oracle misses target or has excess {got[2]}")
        groups.setdefault((method, target), []).append(got)
    expected = {(m, float(x), topic) for m in methods for x in targets for topic in truth}
    if seen != expected:
        problems.append(f"per_topic.csv: {len(seen)} rows, expected {len(expected)}")

    summary, summary_problems = _read_rows(f"{report_dir}/aggregate.csv")
    problems += summary_problems
    keys = set()
    for row in summary:
        try:
            key = (row["method"], float(row["target"]))
            means = (float(row["mean_recall"]), float(row["mean_cost"]), float(row["mean_excess"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"aggregate.csv: malformed row {row} ({exc})")
            continue
        keys.add(key)
        group = groups.get(key)
        if not group or not all(_close(m, float(np.mean(col))) for m, col in zip(means, zip(*group))):
            problems.append(f"aggregate.csv: {key}: means disagree with per_topic.csv")
    if keys != set(groups):
        problems.append(f"aggregate.csv: {len(keys)} rows, expected {len(groups)}")
    return problems


def policy_quality(path, truth: dict[str, Truth], target: float) -> tuple[float, float, float]:
    """Mean recall, mean cost and mean absolute excess of a policy's stops."""
    rows, _ = _read_rows(path)
    recalls, costs, excesses = [], [], []
    for row in rows:
        t, examined = truth[row["topic_id"]], int(row["docs_examined"])
        recalls.append(t.recall(examined))
        costs.append(t.cost(examined))
        excesses.append(abs(t.excess(examined, target)))
    return float(np.mean(recalls)), float(np.mean(costs)), float(np.mean(excesses))


def files_differ(expected, actual) -> list[str]:
    """Problems for each file of ``actual`` whose bytes differ from its pair in ``expected``."""
    problems = []
    for a, b in zip(expected, actual):
        if not (os.path.isfile(a) and os.path.isfile(b)) or sha256_of(a) != sha256_of(b):
            problems.append(f"{b} differs from {a}")
    return problems
