import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tarstop.baselines as baselines
from conftest import make_topic, prefix_count, topic_labels, topic_metrics
from tarstop.baselines import (
    KNEE_THRESHOLD_CAP,
    KNEE_THRESHOLD_INTERCEPT,
    KNEE_TRAILING_SMOOTHING,
    _INT64_MIN,
    budget_stop,
    knee_stop,
    oracle_stop,
)
from tarstop.corpus import Collection, first_reaching, synth_topics
from tarstop.errors import ConfigError
from tarstop.metrics import StopResult, aggregate


def random_topic(rng, n_docs=None, prevalence=0.3):
    n = n_docs or int(rng.integers(3, 80))
    labels = (rng.random(n) < prevalence).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(n))] = 1
    return make_topic(labels)


def oracle(topic, target):
    return oracle_stop(topic, [target])[0]


def knee(bt):
    return knee_stop(bt)[0]


def budget(topic, fraction):
    return budget_stop(topic, fraction)[0]


class TestGainCurve:
    def test_endpoints_and_monotonicity(self, rng):
        topic = random_topic(rng)
        g = topic.gain
        assert g[0] == 0
        assert g[-1] == topic.n_relevant[0]
        assert (np.diff(g) >= 0).all()
        assert len(g) == topic.n_docs[0] + 1


class TestOracle:
    def test_full_recall_stops_at_last_relevant(self):
        result = oracle(make_topic([0, 1, 0, 1]), 1.0)
        assert result.docs_examined == 4
        assert result.relevant_found == 2

    def test_unattainable_target_overshoots_to_next_relevant(self):
        # 9 relevant docs at even ranks, target 0.8: exactly 7.2 are needed,
        # so the oracle reads up to the 8th relevant document
        labels = np.zeros(20, dtype=int)
        labels[1:18:2] = 1
        result = oracle(make_topic(labels), 0.8)
        assert result.docs_examined == 16
        assert result.relevant_found == 8
        assert abs(result.relevant_found / 9 - 8 / 9) < 1e-12

    def test_oracle_has_zero_excess(self, rng):
        for _ in range(30):
            topic = random_topic(rng)
            for target in (0.8, 0.9, 1.0):
                result = oracle(topic, target)
                assert topic_metrics(result, topic, target).excess == 0.0

    def test_no_earlier_rank_reaches_the_target(self, rng):
        for _ in range(50):
            topic = random_topic(rng)
            target = float(rng.choice([0.5, 0.8, 0.9, 1.0]))
            rank = oracle(topic, target).docs_examined
            g = prefix_count(topic.labels)
            need = target * topic.n_relevant[0] - 1e-9
            assert g[rank] >= need
            if rank > 1:
                assert g[rank - 1] < need

    def test_requires_relevant_documents(self):
        with pytest.raises(ValueError):
            oracle(make_topic([0, 0, 0]), 0.9)

    def test_tiny_target_needs_one_relevant_document(self):
        # target * R - TARGET_EPS <= 0 for every target <= 1e-9: the oracle
        # still reads up to the first relevant document
        topic = make_topic([0, 0, 1, 0, 1])
        for target in (1e-10, 5e-324, 1e-9):
            assert oracle(topic, target)[3:5] == (3, 1)
            assert first_reaching(topic.gain, 0, 2, target) == 3
        assert topic.batched(5).target_batch(1e-10).tolist() == [3]


def reference_knee_stop(bt, topic=0):
    """The knee rule on one topic as one Python iteration per batch end,
    scoring every rank below it: the reference knee_stop must match exactly."""
    labels = topic_labels(bt.collection)[topic]
    g = prefix_count(labels)
    ends = np.cumsum(bt.sizes[topic])
    stop_rank = len(labels)
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
        topic_id=bt.collection.topic_ids[topic],
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
        bt = make_topic(labels).batched(n_batches)
        with mock.patch.object(baselines, "KNEE_BLOCK_CELLS", block_cells):
            assert knee(bt) == reference_knee_stop(bt)

    def test_later_ranks_do_not_move_the_knee(self):
        # the plateau case above plus a burst of relevant documents from
        # rank 160 on: the ranks past each batch end, scored in the same
        # block, must not become its knee, so the rule still fires at 156
        labels = np.zeros(400, dtype=int)
        labels[:40] = 1
        labels[159:] = 1
        bt = make_topic(labels).batched(100)
        result = knee(bt)
        assert (result.docs_examined, result.stop_batch) == (156, 39)
        assert result == reference_knee_stop(bt)

    def test_fires_after_the_first_block(self):
        # 10,000 relevant documents, then 10,000 not: the 51 batch ends up to
        # the stop score up to 10,000 candidates each, more than one block
        labels = np.zeros(20_000, dtype=int)
        labels[:10_000] = 1
        bt = make_topic(labels).batched(100)
        assert 51 * 10_000 > baselines.KNEE_BLOCK_CELLS
        result = knee(bt)
        assert (result.docs_examined, result.stop_batch, result.relevant_found) == (10_200, 51, 10_000)
        assert result == reference_knee_stop(bt)

    def test_working_memory_is_bounded(self):
        # all relevant: every rank is a candidate and the rule never fires,
        # so every batch end is scored; one (100 x 30,000) int64 matrix
        # would take 24 MB
        bt = make_topic(np.ones(30_000, dtype=int)).batched(100)
        tracemalloc.start()
        try:
            result = knee(bt)
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
        result = knee(make_topic(labels).batched(100))
        assert result.docs_examined == 156
        assert result.stop_batch == 39
        assert result.relevant_found == 40

    def test_straight_line_gain_never_fires(self):
        labels = np.zeros(100, dtype=int)
        labels[::2] = 1
        result = knee(make_topic(labels).batched(100))
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
        r_early = knee(make_topic(early, "early").batched(100))
        r_late = knee(make_topic(late, "late").batched(100))
        assert r_early.docs_examined == 427
        assert r_late.docs_examined == 161

    def test_never_stops_before_first_batch_end(self, rng):
        for _ in range(40):
            topic = random_topic(rng)
            n_batches = int(rng.integers(1, topic.n_docs[0] + 1))
            bt = topic.batched(n_batches)
            result = knee(bt)
            assert result.docs_examined >= int(bt.sizes[0, 0])
            assert result.docs_examined <= topic.n_docs[0]

    def test_deterministic(self, rng):
        topic = random_topic(rng, n_docs=200, prevalence=0.1)
        bt = topic.batched(50)
        assert knee(bt) == knee(bt)


class TestBudget:
    def test_full_budget_reads_everything(self):
        topic = make_topic([1, 0, 1, 0])
        result = budget(topic, 1.0)
        assert result.docs_examined == 4
        assert result.relevant_found == 2

    def test_half_budget_on_ten_docs(self):
        topic = make_topic([1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
        result = budget(topic, 0.5)
        assert result.docs_examined == 5
        assert result.relevant_found == int(prefix_count(topic.labels)[5])

    def test_fraction_rounds_up(self):
        assert budget(make_topic([1, 0, 0]), 0.4).docs_examined == 2

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            budget(make_topic([1]), 0.0)
        with pytest.raises(ConfigError):
            budget(make_topic([1]), 1.2)


class TestCommonBounds:
    def test_all_baselines_stay_within_the_ranking(self, rng):
        for _ in range(30):
            topic = random_topic(rng)
            bt = topic.batched(int(rng.integers(1, topic.n_docs[0] + 1)))
            for result in (
                oracle(topic, 0.9),
                knee(bt),
                budget(topic, float(rng.uniform(0.05, 1.0))),
            ):
                assert 1 <= result.docs_examined <= topic.n_docs[0]
                assert 0 <= result.relevant_found <= topic.n_relevant[0]

    def test_oracle_rank_agrees_with_metrics_helper(self, rng):
        # eval's oracle search scores the oracle's own rows at zero excess
        topics = synth_topics(10, 50, 0.2, 10.0, seed=2)
        results = oracle_stop(topics, [0.8, 1.0])
        for result, row in zip(results, aggregate(results, topics).per_topic):
            labels = topic_labels(topics)[topics.topic_ids.index(result.topic_id)]
            rank = first_reaching(prefix_count(labels), 0, sum(labels), result.target_recall)
            assert result.docs_examined == rank
            assert row.excess == 0.0


# The per-topic baselines, one topic (and one target) per call, each reading
# the topic's own prefix count: the references for the collection-wide ones.
def reference_oracle_stop(topic_id, labels, target_recall):
    g = prefix_count(labels)
    rank = int(np.searchsorted(g[1:], target_recall * g[-1] - 1e-9, side="left")) + 1
    return StopResult(topic_id, "oracle", target_recall, rank, int(g[rank]))


def reference_budget_stop(topic_id, labels, fraction):
    g = prefix_count(labels)
    rank = math.ceil(fraction * len(labels))
    return StopResult(topic_id, "budget", None, rank, int(g[rank]))


def reference_block_knee_stop(bt, topic):
    """The knee of one topic scored in blocks over its candidates, reading
    g at every rank from the topic's own prefix count."""
    labels = topic_labels(bt.collection)[topic]
    g = prefix_count(labels)
    ends = np.cumsum(bt.sizes[topic])
    candidates = np.concatenate(([1], np.flatnonzero(labels[1:]) + 2))
    candidate_gain = g[candidates]
    n_below = np.searchsorted(candidates, ends)
    stop_rank = len(labels)
    stop_batch = bt.n_batches
    start = int(np.searchsorted(ends, 2))
    while start < len(ends):
        block_cells = np.arange(1, len(ends) - start + 1) * n_below[start:]
        stop = start + max(1, int(np.searchsorted(block_cells, baselines.KNEE_BLOCK_CELLS,
                                                  side="right")))
        i = ends[start:stop]
        width = n_below[stop - 1]
        above_chord = candidate_gain[:width] * i[:, None] - g[i, None] * candidates[:width]
        above_chord[np.arange(width) >= n_below[start:stop, None]] = _INT64_MIN
        k = candidates[np.argmax(above_chord, axis=1)]
        lead_slope = g[k] / k
        trail_slope = (g[i] - g[k] + KNEE_TRAILING_SMOOTHING) / (i - k)
        rho = lead_slope / trail_slope
        fires = rho >= KNEE_THRESHOLD_INTERCEPT - np.minimum(g[k].astype(np.float64),
                                                             KNEE_THRESHOLD_CAP)
        if fires.any():
            row = start + int(np.argmax(fires))
            stop_rank = int(ends[row])
            stop_batch = row + 1
            break
        start = stop
    return StopResult(bt.collection.topic_ids[topic], "knee", None, stop_rank, int(g[stop_rank]),
                      stop_batch)


@st.composite
def topic_collections(draw):
    """A batch count and a collection of 1-8 topics, each with a relevant document: one
    document long, shorter than, as long as or longer than the batch count;
    all relevant, only the last relevant, or random labels with rank 1
    relevant or not."""
    n_batches = draw(st.integers(1, 40))
    rankings = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.sampled_from([1, max(1, n_batches - 1), n_batches,
                                  draw(st.integers(1, 5 * n_batches + 3))]))
        shape = draw(st.sampled_from(["all", "last", "random"]))
        labels = np.zeros(n, dtype=int) if shape != "all" else np.ones(n, dtype=int)
        if shape == "random":
            labels[:] = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            labels[0] = draw(st.integers(0, 1))
        if not labels.any():
            labels[-1] = 1
        rankings.append(labels)
    return n_batches, Collection.of([f"t{k}" for k in range(len(rankings))], rankings)


class TestCollectionWide:
    @settings(max_examples=200, deadline=None)
    @given(collection=topic_collections())
    def test_oracle_equals_the_per_topic_reference(self, collection):
        _, topics = collection
        targets = [1 / 3, 0.9, 1.0]
        expected = [reference_oracle_stop(topic_id, labels, t)
                    for topic_id, labels in zip(topics.topic_ids, topic_labels(topics)) for t in targets]
        assert oracle_stop(topics, targets) == expected

    @settings(max_examples=200, deadline=None)
    @given(collection=topic_collections(),
           fraction=st.one_of(st.just(1.0), st.floats(1e-6, 1.0, exclude_min=False)))
    def test_budget_equals_the_per_topic_reference(self, collection, fraction):
        _, topics = collection
        assert budget_stop(topics, fraction) == [
            reference_budget_stop(topic_id, labels, fraction)
            for topic_id, labels in zip(topics.topic_ids, topic_labels(topics))]

    @settings(max_examples=200, deadline=None)
    @given(collection=topic_collections(), block_cells=st.sampled_from([1, 5, 64, baselines.KNEE_BLOCK_CELLS]))
    def test_knee_equals_the_per_topic_references(self, collection, block_cells):
        n_batches, topics = collection
        batched = topics.batched(n_batches)
        with mock.patch.object(baselines, "KNEE_BLOCK_CELLS", block_cells):
            got = knee_stop(batched)
            assert got == [reference_block_knee_stop(batched, k) for k in range(len(topics))]
        assert got == [reference_knee_stop(batched, k) for k in range(len(topics))]

    def test_no_topics(self):
        topics = Collection.of([], [])
        assert oracle_stop(topics, [0.9]) == []
        assert budget_stop(topics, 0.5) == []
        assert knee_stop(topics.batched(5)) == []
