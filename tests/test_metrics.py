import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_topic, oracle_rank, prefix_count, topic_labels, topic_metrics
from test_baselines import topic_collections
from tarstop.baselines import oracle_stop
from tarstop.corpus import synth_topics
from tarstop.errors import ConfigError, ParseError
from tarstop.metrics import (
    StopResult,
    aggregate,
    read_results_csv,
    write_aggregate_csv,
    write_per_topic_csv,
    write_results_csv,
)


def result(topic_id, docs, found, method="m", target=0.9, stop_batch=None):
    return StopResult(topic_id, method, target, docs, found, stop_batch)


class TestPointMetrics:
    def test_recall(self):
        topic = make_topic([0, 1, 1, 1, 1, 0, 0, 0, 0, 1])
        assert topic_metrics(result("t1", 8, 4), topic).recall == 0.8
        assert topic_metrics(result("t1", 10, 5), topic).recall == 1.0
        assert topic_metrics(result("t1", 1, 0), topic).recall == 0.0

    def test_cost(self):
        topic = make_topic([1] + [0] * 999)
        assert topic_metrics(result("t1", 50, 1), topic).cost == 0.05
        assert topic_metrics(result("t1", 1000, 1), topic).cost == 1.0
        assert topic_metrics(result("t1", 10, 1), topic).cost == 0.01

    def test_bounds_are_enforced(self):
        topic = make_topic([1, 0])
        with pytest.raises(ValueError, match="docs_examined"):
            topic_metrics(result("t1", 3, 1), topic)
        with pytest.raises(ValueError, match="relevant_found"):
            topic_metrics(result("t1", 2, 5), topic)
        with pytest.raises(ValueError, match="t2"):
            topic_metrics(result("t2", 1, 1), topic)

    def test_excess_direct_values(self):
        # relevant doc at rank 2 of 10 with target 1.0: optimal cost is 0.2
        topic = make_topic([0, 1] + [0] * 8)
        assert oracle_rank(topic.labels, 1.0) == 2
        assert abs(topic_metrics(result("t1", 5, 1), topic, 1.0).excess - 0.375) < 1e-12
        assert abs(topic_metrics(result("t1", 1, 0), topic, 1.0).excess - (-0.125)) < 1e-12

    def test_excess_zero_for_oracle(self):
        topic = make_topic([0, 1, 0, 1, 1, 0])
        oracle, = oracle_stop(topic, [0.9])
        assert topic_metrics(oracle, topic, 0.9).excess == 0.0

    def test_degenerate_optimal_cost_of_one(self):
        # last doc relevant and target 1.0: the optimal stop is the whole
        # collection, so the ratio convention applies
        topic = make_topic([1, 0, 0, 0, 1])
        assert topic_metrics(result("t1", 5, 2), topic, 1.0).excess == 0.0
        assert abs(topic_metrics(result("t1", 3, 1), topic, 1.0).excess - (-0.4)) < 1e-12

    def test_resolve_relevant_found_from_labels(self):
        topic = make_topic([1, 0, 1, 0])
        assert topic_metrics(result("t1", 3, None), topic).relevant_found == 2
        assert topic_metrics(result("t1", 3, 2), topic).relevant_found == 2
        with pytest.raises(ValueError, match="relevant_found 1, but the first 3 documents hold 2"):
            topic_metrics(result("t1", 3, 1), topic)

    def test_recall_meets_target_iff_rank_reaches_oracle_rank(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 60))
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            topic = make_topic(labels)
            target = float(rng.choice([0.5, 0.8, 0.9, 1.0]))
            docs = int(rng.integers(1, n + 1))
            found = int(prefix_count(labels)[docs])
            reaches = topic_metrics(result("t1", docs, found), topic).recall >= target - 1e-9
            assert reaches == (docs >= oracle_rank(labels, target))


class TestAggregate:
    def test_single_topic_means_equal_topic_values(self):
        topic = make_topic([1, 0, 1, 0])
        report = aggregate([result("t1", 2, 1, target=1.0)], topic)
        assert len(report.per_topic) == 1
        summary = report.summaries[0]
        row = report.per_topic[0]
        assert summary.mean_recall == row.recall
        assert summary.mean_cost == row.cost
        assert summary.mean_excess == row.excess
        assert summary.n_topics == 1

    def test_oracle_is_pareto_optimal(self):
        topics = synth_topics(5, 40, 0.2, 8.0, seed=1)
        results = []
        for topic_id, n_docs, n_relevant, oracle in zip(topics.topic_ids, topics.n_docs.tolist(),
                                                        topics.n_relevant.tolist(),
                                                        oracle_stop(topics, [0.9])):
            results.append(oracle)
            results.append(result(topic_id, n_docs, n_relevant, method="exhaustive"))
        report = aggregate(results, topics)
        flags = {s.method: s.pareto_optimal for s in report.summaries}
        assert flags["oracle"] is True

    def test_dominated_method_is_flagged(self):
        topic = make_topic([1, 1, 1, 1, 1, 0, 1, 1, 1, 1])
        results = [
            result("t1", 5, 5, method="lean"),
            result("t1", 6, 5, method="wasteful"),  # same recall, higher cost
        ]
        report = aggregate(results, topic)
        flags = {s.method: s.pareto_optimal for s in report.summaries}
        assert flags == {"lean": True, "wasteful": False}

    def test_incomparable_methods_are_both_pareto(self):
        topic = make_topic([1] * 10)
        results = [
            result("t1", 9, 9, method="cheap"),
            result("t1", 10, 10, method="thorough"),
        ]
        report = aggregate(results, topic)
        assert all(s.pareto_optimal for s in report.summaries)

    def test_pareto_is_per_target(self):
        topic = make_topic([1, 1, 1, 1, 1, 0, 1, 1, 1, 1])
        results = [
            result("t1", 5, 5, method="a", target=0.8),
            result("t1", 6, 5, method="b", target=0.8),
            result("t1", 6, 5, method="b", target=0.9),
        ]
        report = aggregate(results, topic)
        flags = {(s.method, s.target_recall): s.pareto_optimal for s in report.summaries}
        assert flags[("b", 0.8)] is False
        assert flags[("b", 0.9)] is True

    def test_means_match_arithmetic_means(self, rng):
        topics = synth_topics(8, 30, 0.3, 8.0, seed=3)
        results = []
        for topic_id, labels in zip(topics.topic_ids, topic_labels(topics)):
            docs = int(rng.integers(1, len(labels) + 1))
            results.append(result(topic_id, docs, int(prefix_count(labels)[docs])))
        report = aggregate(results, topics)
        summary = report.summaries[0]
        assert abs(summary.mean_recall - np.mean([r.recall for r in report.per_topic])) < 1e-12
        assert abs(summary.mean_cost - np.mean([r.cost for r in report.per_topic])) < 1e-12
        assert abs(summary.mean_excess - np.mean([r.excess for r in report.per_topic])) < 1e-12

    def test_unknown_topic_rejected(self):
        with pytest.raises(ConfigError, match="unknown topic"):
            aggregate([result("ghost", 1, 0)], make_topic([1]))

    def test_missing_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            aggregate([result("t1", 1, 1, target=None)], make_topic([1]))

    @settings(max_examples=200, deadline=None)
    @given(collection=topic_collections(), data=st.data())
    def test_oracle_search_equals_the_per_topic_loop(self, collection, data):
        _, topics = collection
        rows = [result(topic_id, docs, int(prefix_count(labels)[docs]), method, target)
                for method in ("a", "b") for target in (1 / 3, 0.9, 1.0)
                for topic_id, labels in zip(topics.topic_ids, topic_labels(topics))
                for docs in [data.draw(st.integers(1, len(labels)))]]
        optimal_rank = reference_optimal_ranks(rows, topics)
        n_docs = dict(zip(topics.topic_ids, topics.n_docs.tolist()))
        expected = {}
        for row, rank in zip(rows, optimal_rank.tolist()):
            optimal_cost, cost = rank / n_docs[row.topic_id], row.docs_examined / n_docs[row.topic_id]
            excess = ((0.0 if cost >= 1.0 else cost - 1.0) if optimal_cost >= 1.0
                      else (cost - optimal_cost) / (1.0 - optimal_cost))
            expected[row.method, row.target_recall, row.topic_id] = excess
        report = aggregate(rows, topics)
        assert {m[:3]: m.excess for m in report.per_topic} == expected


def reference_optimal_ranks(results, topics):
    """aggregate's oracle search one topic at a time, over all its rows'
    targets, as a float search of the topic's own prefix count."""
    index = {topic_id: k for k, topic_id in enumerate(topics.topic_ids)}
    tix = np.array([index[r.topic_id] for r in results])
    target_key = np.array([r.target_recall for r in results], dtype=float)
    optimal_rank = np.empty(len(results), np.int64)
    for k in np.unique(tix).tolist():
        rows = tix == k
        labels = topic_labels(topics)[k]
        optimal_rank[rows] = np.searchsorted(
            prefix_count(labels)[1:], target_key[rows] * labels.sum() - 1e-9, side="left") + 1
    return optimal_rank


class TestCsvIO:
    def test_results_round_trip(self, tmp_path):
        results = [
            result("t1", 5, 3, method="policy", target=0.9, stop_batch=2),
            result("t2", 7, None, method="imported", target=None),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        assert list(read_results_csv(path)) == results

    def test_missing_column_named_in_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("topic_id,method\nt1,m\n")
        with pytest.raises(ConfigError, match="docs_examined"):
            read_results_csv(path)

    def test_minimal_external_schema_accepted(self, tmp_path):
        path = tmp_path / "external.csv"
        path.write_text("topic_id,method,docs_examined\nt1,sampler,12\n")
        rows = read_results_csv(path)
        assert list(rows) == [StopResult("t1", "sampler", None, 12, None, None)]

    def test_non_integer_docs_examined(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("topic_id,method,docs_examined\nt1,m,lots\n")
        with pytest.raises(ParseError, match="line 2"):
            read_results_csv(path)

    def test_writers_golden_text(self, tmp_path):
        # None cells, floats by repr, a dominated method (pareto 0) and the footer
        topic = make_topic([1, 0, 1, 0, 1, 0])
        results = [
            result("t1", 2, 1, method="policy", stop_batch=1),
            result("t1", 6, None, method="ext", target=None),
            result("t1", 3, 2, method="budget"),
            result("t1", 4, 2, method="late"),
        ]
        paths = {name: tmp_path / f"{name}.csv" for name in ("results", "per_topic", "aggregate")}
        write_results_csv(paths["results"], results)
        report = aggregate([results[0], result("t1", 6, 3, method="ext"), *results[2:]], topic)
        write_per_topic_csv(paths["per_topic"], report)
        write_aggregate_csv(paths["aggregate"], report)
        assert paths["results"].read_bytes() == (
            b"topic_id,method,target,stop_batch,docs_examined,relevant_found\r\n"
            b"t1,policy,0.9,1,2,1\r\n"
            b"t1,ext,,,6,\r\n"
            b"t1,budget,0.9,,3,2\r\n"
            b"t1,late,0.9,,4,2\r\n"
        )
        assert paths["per_topic"].read_bytes() == (
            b"method,target,topic_id,N,R,docs_examined,relevant_found,recall,cost,excess\r\n"
            b"budget,0.9,t1,6,3,3,2,0.6666666666666666,0.5,-2.000000000000001\r\n"
            b"ext,0.9,t1,6,3,6,3,1.0,1.0,1.0\r\n"
            b"late,0.9,t1,6,3,4,2,0.6666666666666666,0.6666666666666666,-1.0000000000000007\r\n"
            b"policy,0.9,t1,6,3,2,1,0.3333333333333333,0.3333333333333333,-3.000000000000001\r\n"
        )
        assert paths["aggregate"].read_bytes() == (
            b"method,target,mean_recall,mean_cost,mean_excess,pareto_flag\r\n"
            b"budget,0.9,0.6666666666666666,0.5,-2.000000000000001,1\r\n"
            b"ext,0.9,1.0,1.0,1.0,1\r\n"
            b"late,0.9,0.6666666666666666,0.6666666666666666,-1.0000000000000007,0\r\n"
            b"policy,0.9,0.3333333333333333,0.3333333333333333,-3.000000000000001,1\r\n"
            b"# excess convention: when the optimal stop is the full collection, "
            b"excess = 0 if the method also examines everything, else cost - 1\n"
        )

    def test_report_files_have_fixed_headers(self, tmp_path):
        topic = make_topic([1, 0, 1, 0])
        report = aggregate([result("t1", 2, 1, target=1.0)], topic)
        per_topic = tmp_path / "per_topic.csv"
        agg = tmp_path / "aggregate.csv"
        write_per_topic_csv(per_topic, report)
        write_aggregate_csv(agg, report)
        assert per_topic.read_text().splitlines()[0] == (
            "method,target,topic_id,N,R,docs_examined,relevant_found,recall,cost,excess"
        )
        agg_lines = agg.read_text().splitlines()
        assert agg_lines[0] == "method,target,mean_recall,mean_cost,mean_excess,pareto_flag"
        assert agg_lines[-1].startswith("# excess convention")
