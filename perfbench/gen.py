"""Benchmark-owned input generator: TREC run and qrels files from a seed.

This deliberately shares no code with ``tarstop.corpus.synth_topics``, so a
change to the program cannot change the workload. Relevance is front-loaded:
the document at 0-based rank r is relevant with probability proportional to
``exp(-r / (decay * n))``, scaled so the expected relevant count is
``prevalence * n``. Doc ids are a random permutation, not derived from rank,
and qrels lines are written in doc-id order, as real judgement files are.
Every topic gets at least one relevant document, so no topic is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RUN_TAG = "perfbench"


@dataclass(frozen=True)
class Collection:
    """Ranked topics with the generator's own labels, in rank order."""

    topic_ids: tuple[str, ...]
    labels: tuple[np.ndarray, ...]


def stratified_log_uniform(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` log-uniform draws in [lo, hi], one per equal-width stratum, shuffled.

    Stratifying keeps the spread of sizes (and so the total work) nearly the
    same from seed to seed while the individual values still change.
    """
    u = (np.arange(count) + rng.random(count)) / count
    return rng.permutation(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def sizes_with_total(rng: np.random.Generator, count: int, lo: int, hi: int, total: int) -> np.ndarray:
    """Stratified log-uniform topic sizes rescaled to sum to exactly ``total``."""
    raw = stratified_log_uniform(rng, count, lo, hi)
    sizes = np.maximum(np.floor(raw * total / raw.sum()).astype(np.int64), 1)
    sizes[int(np.argmax(sizes))] += total - int(sizes.sum())
    return sizes


def topic_labels(rng: np.random.Generator, n: int, prevalence: float, decay: float) -> np.ndarray:
    weights = np.exp(-np.arange(n) / (decay * n))
    probs = np.minimum(1.0, prevalence * n * weights / weights.sum())
    labels = (rng.random(n) < probs).astype(np.int8)
    if not labels.any():
        labels[int(rng.integers(max(1, n // 10)))] = 1
    return labels


def make_collection(
    rng: np.random.Generator,
    prefix: str,
    sizes,
    prevalences,
    decays,
) -> Collection:
    topic_ids = tuple(f"{prefix}{k:04d}" for k in range(len(sizes)))
    labels = tuple(
        topic_labels(rng, int(n), float(p), float(d)) for n, p, d in zip(sizes, prevalences, decays)
    )
    return Collection(topic_ids, labels)


def write_collection(rng: np.random.Generator, collection: Collection, run_path, qrels_path) -> None:
    """Write the run (rank order, descending scores) and qrels (doc-id order)."""
    with open(run_path, "w", encoding="utf-8") as run_fh, open(qrels_path, "w", encoding="utf-8") as qrels_fh:
        for topic_id, labels in zip(collection.topic_ids, collection.labels):
            n = len(labels)
            doc_numbers = rng.permutation(n)
            docs = [f"D{num:07d}" for num in doc_numbers.tolist()]
            run_fh.write(
                "".join(
                    f"{topic_id} Q0 {doc} {rank} {(n - rank + 1) / n:.6f} {RUN_TAG}\n"
                    for rank, doc in enumerate(docs, start=1)
                )
            )
            label_list = labels.tolist()
            qrels_fh.write(
                "".join(
                    f"{topic_id} 0 {docs[r]} {label_list[r]}\n"
                    for r in np.argsort(doc_numbers).tolist()
                )
            )
