"""Reference stopping strategies over a whole collection: oracle and fixed
budget read its one running relevant count (``Collection.gain``), the
gain-curve knee its batches' counts (``Batches.cum_rel``)."""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .corpus import Batches, Collection, check_target, first_reaching
from .metrics import StopResult


def oracle_stop(topics: Collection, targets: list[float]) -> list[StopResult]:
    """For each topic, then each target: stop at the first rank whose recall
    meets or exceeds the target.

    Requires full label knowledge, so it marks the ideal cost rather than a
    usable method. When the target is not exactly attainable it overshoots
    to the next relevant document.
    """
    gain, starts = topics.gain, topics.bounds[:-1, None]
    targets = np.array(targets, dtype=np.float64)
    rank = first_reaching(gain, starts, topics.n_relevant[:, None], targets)
    found = gain[starts + rank] - gain[starts]
    ids = [topic_id for topic_id in topics.topic_ids for _ in targets]
    return list(map(StopResult, ids, repeat("oracle"), targets.tolist() * len(topics),
                    rank.ravel().tolist(), found.ravel().tolist()))


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


def knee_stop(batched: Batches) -> list[StopResult]:
    """For each topic: stop when the gain curve's knee indicates diminishing returns.

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
    k - 1's minus g(i), never above it. g at the batch ends is the topic's
    ``cum_rel``; at the candidates it is its first label, then one more at each
    relevant rank. A topic's batch ends are scored at once over its
    candidates, in blocks of at most ``KNEE_BLOCK_CELLS`` cells, with the
    same int64 and float64 arithmetic at each end, up to its first block
    that fires.
    """
    labels, bounds = batched.collection.labels, batched.collection.bounds.tolist()
    results = []
    for topic_id, first, last, sizes, cum_rel in zip(batched.collection.topic_ids, bounds, bounds[1:],
                                                     batched.sizes, batched.cum_rel):
        ends = np.cumsum(sizes)
        candidates = np.concatenate(([1], np.flatnonzero(labels[first + 1:last]) + 2))
        candidate_gain = labels[first] + np.arange(len(candidates))
        n_below = np.searchsorted(candidates, ends)  # candidates k < i at each end
        row = batched.n_batches - 1
        start = int(np.searchsorted(ends, 2))  # ends below 2 have no k in [1, i)
        while start < len(ends):
            # cells of a block of the next 1, 2, ... ends: rows x its last end's candidates
            stop = len(ends)
            if (len(ends) - start) * int(n_below[-1]) > KNEE_BLOCK_CELLS:
                block_cells = np.arange(1, len(ends) - start + 1) * n_below[start:]
                stop = start + max(1, int(np.searchsorted(block_cells, KNEE_BLOCK_CELLS, side="right")))
            i, g_i = ends[start:stop], cum_rel[start:stop]
            width = n_below[stop - 1]
            above_chord = candidate_gain[:width] * i[:, None] - g_i[:, None] * candidates[:width]
            above_chord[np.arange(width) >= n_below[start:stop, None]] = _INT64_MIN
            knee = np.argmax(above_chord, axis=1)
            k, g_k = candidates[knee], candidate_gain[knee]
            rho = (g_k / k) / ((g_i - g_k + KNEE_TRAILING_SMOOTHING) / (i - k))  # slope ratio
            fires = rho >= KNEE_THRESHOLD_INTERCEPT - np.minimum(g_k, KNEE_THRESHOLD_CAP)
            if fires.any():
                row = start + int(np.argmax(fires))
                break
            start = stop
        results.append(StopResult(topic_id, "knee", None, int(ends[row]), int(cum_rel[row]), row + 1))
    return results


def check_fraction(fraction: float) -> float:
    """``fraction`` itself if it lies in (0, 1]; otherwise a :class:`ConfigError`."""
    return check_target(fraction, "budget fraction")


def budget_stop(topics: Collection, fraction: float) -> list[StopResult]:
    """For each topic: examine a fixed fraction of the ranking, rounded up, and
    stop; no target recall."""
    gain, starts = topics.gain, topics.bounds[:-1]
    rank = np.ceil(check_fraction(fraction) * topics.n_docs).astype(np.int64)
    found = gain[starts + rank] - gain[starts]
    return list(map(StopResult, topics.topic_ids, repeat("budget"), repeat(None),
                    rank.tolist(), found.tolist()))
