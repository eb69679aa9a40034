"""Reference stopping strategies: oracle, gain-curve knee, fixed budget."""

from __future__ import annotations

import math

import numpy as np

from .corpus import BatchedTopic, Topic
from .errors import ConfigError
from .metrics import StopResult, optimal_stop_rank


def oracle_stop(topic: Topic, target_recall: float) -> StopResult:
    """Stop at the first rank whose recall meets or exceeds the target.

    Requires full label knowledge, so it marks the ideal cost rather than a
    usable method. When the target is not exactly attainable it overshoots
    to the next relevant document.
    """
    rank = optimal_stop_rank(topic, target_recall)
    return StopResult(
        topic_id=topic.topic_id,
        method="oracle",
        target_recall=target_recall,
        docs_examined=rank,
        relevant_found=int(topic.gain[rank]),
    )


# Knee-detection constants: the slope-ratio threshold is
# KNEE_THRESHOLD_INTERCEPT - min(relevant found, KNEE_THRESHOLD_CAP), so it
# adapts downward as relevant documents accumulate.
KNEE_THRESHOLD_INTERCEPT = 156.0
KNEE_THRESHOLD_CAP = 150.0
KNEE_TRAILING_SMOOTHING = 1.0

# Most (batch end x candidate) cells scored at once. Bounds knee_stop's
# working memory to a few MB whatever the topic's length; a block of one
# batch end may exceed it.
KNEE_BLOCK_CELLS = 1 << 16
_INT64_MIN = np.iinfo(np.int64).min


def knee_stop(bt: BatchedTopic) -> StopResult:
    """Stop when the gain curve's knee indicates diminishing returns.

    Evaluated at the batch ends so its cost granularity matches the trained
    policy's. At each batch end i >= 2 the knee k is the first rank in
    [1, i) that maximizes g(k) * i - g(i) * k, the distance above the chord
    from (0, 0) to (i, g(i)) up to a constant factor. The rule fires when
    the slope before the knee exceeds the (smoothed) slope after it by the
    adaptive threshold; the stop is the first batch end where it fires. If
    it never fires, the whole ranking is read. The result carries no
    target recall.

    Only rank 1 and the relevant ranks >= 2 can be that first maximizer: at
    a non-relevant rank k >= 2, g(k) == g(k - 1), so its score is rank
    k - 1's minus g(i), never above it. All batch ends are scored at once
    over those candidates, in blocks of at most ``KNEE_BLOCK_CELLS`` cells,
    with the same int64 and float64 arithmetic at each end.
    """
    topic = bt.topic
    g = topic.gain
    ends = np.cumsum(bt.batch_sizes)
    candidates = np.concatenate(([1], np.flatnonzero(topic.labels[1:]) + 2))
    candidate_gain = g[candidates]
    n_below = np.searchsorted(candidates, ends)  # candidates k < i at each end
    stop_rank = topic.n_docs
    stop_batch = bt.n_batches
    start = int(np.searchsorted(ends, 2))  # ends below 2 have no k in [1, i)
    while start < len(ends):
        # cells of a block of the next 1, 2, ... ends: rows x its last end's candidates
        block_cells = np.arange(1, len(ends) - start + 1) * n_below[start:]
        stop = start + max(1, int(np.searchsorted(block_cells, KNEE_BLOCK_CELLS, side="right")))
        i = ends[start:stop]
        width = n_below[stop - 1]
        above_chord = candidate_gain[:width] * i[:, None] - g[i, None] * candidates[:width]
        above_chord[np.arange(width) >= n_below[start:stop, None]] = _INT64_MIN
        k = candidates[np.argmax(above_chord, axis=1)]
        lead_slope = g[k] / k
        trail_slope = (g[i] - g[k] + KNEE_TRAILING_SMOOTHING) / (i - k)
        rho = lead_slope / trail_slope
        fires = rho >= KNEE_THRESHOLD_INTERCEPT - np.minimum(g[k].astype(np.float64), KNEE_THRESHOLD_CAP)
        if fires.any():
            row = start + int(np.argmax(fires))
            stop_rank = int(ends[row])
            stop_batch = row + 1
            break
        start = stop
    return StopResult(
        topic_id=topic.topic_id,
        method="knee",
        target_recall=None,
        docs_examined=stop_rank,
        relevant_found=int(g[stop_rank]),
        stop_batch=stop_batch,
    )


def budget_stop(topic: Topic, fraction: float) -> StopResult:
    """Examine a fixed fraction of the collection and stop; no target recall."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"budget fraction must be in (0, 1], got {fraction}")
    rank = math.ceil(fraction * topic.n_docs)
    return StopResult(
        topic_id=topic.topic_id,
        method="budget",
        target_recall=None,
        docs_examined=rank,
        relevant_found=int(topic.gain[rank]),
    )
