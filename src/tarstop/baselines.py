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


def knee_stop(bt: BatchedTopic) -> StopResult:
    """Stop when the gain curve's knee indicates diminishing returns.

    Evaluated at successive batch ends so its cost granularity matches the
    trained policy's. At each examined rank i the candidate knee k < i
    maximizes the distance above the chord from (0, 0) to (i, g(i)); the
    rule fires when the slope before the knee exceeds the (smoothed) slope
    after it by the adaptive threshold. If it never fires, the whole
    ranking is read. The result carries no target recall.
    """
    topic = bt.topic
    g = topic.gain
    ends = np.cumsum(bt.batch_sizes)
    stop_rank = topic.n_docs
    stop_batch = bt.n_batches
    for batch_index, i in enumerate(ends, start=1):
        if i < 2:
            continue
        ks = np.arange(1, i)
        above_chord = g[ks] * i - g[i] * ks  # perpendicular distance modulo a constant factor
        k = int(ks[np.argmax(above_chord)])
        lead_slope = g[k] / k
        trail_slope = (g[i] - g[k] + KNEE_TRAILING_SMOOTHING) / (i - k)
        rho = lead_slope / trail_slope
        if rho >= KNEE_THRESHOLD_INTERCEPT - min(float(g[k]), KNEE_THRESHOLD_CAP):
            stop_rank = int(i)
            stop_batch = batch_index
            break
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
