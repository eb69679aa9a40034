import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tarstop.baselines as baselines
from conftest import make_topic
from tarstop.baselines import (
    KNEE_THRESHOLD_CAP,
    KNEE_THRESHOLD_INTERCEPT,
    KNEE_TRAILING_SMOOTHING,
    budget_stop,
    knee_stop,
    oracle_stop,
)
from tarstop.corpus import batch_topic, synth_topics
from tarstop.errors import ConfigError
from tarstop.metrics import StopResult, _topic_metrics, optimal_stop_rank


def random_topic(rng, n_docs=None, prevalence=0.3):
    n = n_docs or int(rng.integers(3, 80))
    labels = (rng.random(n) < prevalence).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(n))] = 1
    return make_topic(labels)


class TestGainCurve:
    def test_endpoints_and_monotonicity(self, rng):
        topic = random_topic(rng)
        g = topic.gain
        assert g[0] == 0
        assert g[-1] == topic.n_relevant
        assert (np.diff(g) >= 0).all()
        assert len(g) == topic.n_docs + 1


class TestOracle:
    def test_full_recall_stops_at_last_relevant(self):
        result = oracle_stop(make_topic([0, 1, 0, 1]), 1.0)
        assert result.docs_examined == 4
        assert result.relevant_found == 2

    def test_unattainable_target_overshoots_to_next_relevant(self):
        # 9 relevant docs at even ranks, target 0.8: exactly 7.2 are needed,
        # so the oracle reads up to the 8th relevant document
        labels = np.zeros(20, dtype=int)
        labels[1:18:2] = 1
        result = oracle_stop(make_topic(labels), 0.8)
        assert result.docs_examined == 16
        assert result.relevant_found == 8
        assert abs(result.relevant_found / 9 - 8 / 9) < 1e-12

    def test_oracle_has_zero_excess(self, rng):
        for _ in range(30):
            topic = random_topic(rng)
            for target in (0.8, 0.9, 1.0):
                result = oracle_stop(topic, target)
                assert _topic_metrics(result, topic, target).excess == 0.0

    def test_no_earlier_rank_reaches_the_target(self, rng):
        for _ in range(50):
            topic = random_topic(rng)
            target = float(rng.choice([0.5, 0.8, 0.9, 1.0]))
            rank = oracle_stop(topic, target).docs_examined
            g = topic.gain
            need = target * topic.n_relevant - 1e-9
            assert g[rank] >= need
            if rank > 1:
                assert g[rank - 1] < need

    def test_requires_relevant_documents(self):
        with pytest.raises(ValueError):
            oracle_stop(make_topic([0, 0, 0]), 0.9)


def reference_knee_stop(bt):
    """The knee rule as one Python iteration per batch end, scoring every
    rank below it: the reference knee_stop must match exactly."""
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


@st.composite
def knee_topics(draw):
    """Labels of 1-600 documents: none or all relevant, or relevant with
    probability p inside one window of ranks (flat when it spans the
    ranking, front-loaded when it starts at rank 1, late when it ends at the
    last), plus up to three stragglers anywhere."""
    n = draw(st.integers(1, 600))
    shape = draw(st.sampled_from(["none", "all", "window"]))
    if shape == "none":
        return np.zeros(n, dtype=int)
    if shape == "all":
        return np.ones(n, dtype=int)
    start = draw(st.sampled_from([0, draw(st.integers(0, n))]))
    stop = draw(st.sampled_from([n, draw(st.integers(start, n))]))
    p = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros(n, dtype=int)
    labels[start:stop] = rng.random(stop - start) < p
    labels[rng.integers(n, size=draw(st.integers(0, 3)))] = 1
    return labels


class TestKnee:
    @settings(max_examples=300, deadline=None)
    @given(labels=knee_topics(), n_batches=st.integers(1, 700),
           block_cells=st.sampled_from([1, 64, baselines.KNEE_BLOCK_CELLS]))
    def test_matches_the_reference_loop(self, labels, n_batches, block_cells):
        # batch counts above the length leave the trailing batches empty;
        # small blocks split the batch ends many ways
        bt = batch_topic(make_topic(labels), n_batches)
        with mock.patch.object(baselines, "KNEE_BLOCK_CELLS", block_cells):
            assert knee_stop(bt) == reference_knee_stop(bt)

    def test_later_ranks_do_not_move_the_knee(self):
        # the plateau case above plus a burst of relevant documents from
        # rank 160 on: the ranks past each batch end, scored in the same
        # block, must not become its knee, so the rule still fires at 156
        labels = np.zeros(400, dtype=int)
        labels[:40] = 1
        labels[159:] = 1
        bt = batch_topic(make_topic(labels), 100)
        result = knee_stop(bt)
        assert (result.docs_examined, result.stop_batch) == (156, 39)
        assert result == reference_knee_stop(bt)

    def test_fires_after_the_first_block(self):
        # 10,000 relevant documents, then 10,000 not: the 51 batch ends up to
        # the stop score up to 10,000 candidates each, more than one block
        labels = np.zeros(20_000, dtype=int)
        labels[:10_000] = 1
        bt = batch_topic(make_topic(labels), 100)
        assert 51 * 10_000 > baselines.KNEE_BLOCK_CELLS
        result = knee_stop(bt)
        assert (result.docs_examined, result.stop_batch, result.relevant_found) == (10_200, 51, 10_000)
        assert result == reference_knee_stop(bt)

    def test_working_memory_is_bounded(self):
        # all relevant: every rank is a candidate and the rule never fires,
        # so every batch end is scored; one (100 x 30,000) int64 matrix
        # would take 24 MB
        bt = batch_topic(make_topic(np.ones(30_000, dtype=int)), 100)
        bt.topic.gain  # cached before tracing: the topic's arrays are not working memory
        tracemalloc.start()
        try:
            result = knee_stop(bt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.docs_examined == 30_000
        assert peak < 4 * 2**20

    def test_front_loaded_plateau(self):
        # 40 relevant docs up front, batches of 4: the knee sits at rank 40
        # (slope 1 before, 1/(i-40) smoothed after) and the adaptive
        # threshold 156 - 40 = 116 first holds at i = 156, the end of batch 39
        labels = np.zeros(400, dtype=int)
        labels[:40] = 1
        result = knee_stop(batch_topic(make_topic(labels), 100))
        assert result.docs_examined == 156
        assert result.stop_batch == 39
        assert result.relevant_found == 40

    def test_straight_line_gain_never_fires(self):
        labels = np.zeros(100, dtype=int)
        labels[::2] = 1
        result = knee_stop(batch_topic(make_topic(labels), 100))
        assert result.docs_examined == 100
        assert result.stop_batch == 100

    def test_delay_pair_fires_earlier_not_later(self):
        # Delaying the one straggler (rank 30 -> 600) removes its +1 from the
        # trailing slope inside the barren window, so the rule fires at 161
        # instead of 427: the knee rule is not monotone under delays.
        base = np.zeros(700, dtype=int)
        base[:10] = 1
        early = base.copy()
        early[29] = 1
        late = base.copy()
        late[599] = 1
        r_early = knee_stop(batch_topic(make_topic(early, "early"), 100))
        r_late = knee_stop(batch_topic(make_topic(late, "late"), 100))
        assert r_early.docs_examined == 427
        assert r_late.docs_examined == 161

    def test_never_stops_before_first_batch_end(self, rng):
        for _ in range(40):
            topic = random_topic(rng)
            n_batches = int(rng.integers(1, topic.n_docs + 1))
            bt = batch_topic(topic, n_batches)
            result = knee_stop(bt)
            assert result.docs_examined >= int(bt.batch_sizes[0])
            assert result.docs_examined <= topic.n_docs

    def test_deterministic(self, rng):
        topic = random_topic(rng, n_docs=200, prevalence=0.1)
        bt = batch_topic(topic, 50)
        assert knee_stop(bt) == knee_stop(bt)


class TestBudget:
    def test_full_budget_reads_everything(self):
        topic = make_topic([1, 0, 1, 0])
        result = budget_stop(topic, 1.0)
        assert result.docs_examined == 4
        assert result.relevant_found == 2

    def test_half_budget_on_ten_docs(self):
        topic = make_topic([1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
        result = budget_stop(topic, 0.5)
        assert result.docs_examined == 5
        assert result.relevant_found == int(topic.gain[5])

    def test_fraction_rounds_up(self):
        assert budget_stop(make_topic([1, 0, 0]), 0.4).docs_examined == 2

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            budget_stop(make_topic([1]), 0.0)
        with pytest.raises(ConfigError):
            budget_stop(make_topic([1]), 1.2)


class TestCommonBounds:
    def test_all_baselines_stay_within_the_ranking(self, rng):
        for _ in range(30):
            topic = random_topic(rng)
            bt = batch_topic(topic, int(rng.integers(1, topic.n_docs + 1)))
            for result in (
                oracle_stop(topic, 0.9),
                knee_stop(bt),
                budget_stop(topic, float(rng.uniform(0.05, 1.0))),
            ):
                assert 1 <= result.docs_examined <= topic.n_docs
                assert 0 <= result.relevant_found <= topic.n_relevant

    def test_oracle_rank_agrees_with_metrics_helper(self, rng):
        topics = synth_topics(10, 50, 0.2, 10.0, seed=2)
        for topic in topics:
            for target in (0.8, 1.0):
                assert oracle_stop(topic, target).docs_examined == optimal_stop_rank(topic, target)
