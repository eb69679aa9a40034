import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_collection, make_topic, prefix_count, topic_labels
from tarstop.corpus import (
    Collection,
    assemble_topics,
    check_tag,
    first_reaching,
    parse_qrels,
    parse_run,
    rank_relevance_probs,
    synth_topics,
    write_qrels_file,
    write_run_file,
)
from tarstop.errors import ConfigError, ParseError

# Differential inputs: well-formed lines over few topics and docs (so ties,
# repeated docs and non-contiguous topics are common), with up to two odd
# lines mixed in: short, blank, odd numeric tokens, non-ASCII names and
# separators, characters that split a line.
RANK = st.sampled_from(["1", "2", "3", "10", "-1", "0", "+3", "007", "-0"])
SCORE = st.one_of(RANK, st.sampled_from(["2.5", ".5", "5.", "1e5", "1e400", "nan", "-Infinity"]))
ODD_NUMBER = st.sampled_from([
    "1_0", "\uff11", "\u0661", "0x10", "x", "1.0", "1e400", "nan", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
    "1\u01fe", "1_0.5", "inf", "1.e5", "-9223372036854775808", "0009223372036854775807", "1e",
])
TOPIC = st.sampled_from(["t1", "t2", "t3"])
DOC = st.sampled_from([f"d{i}" for i in range(20)] + ["#"])
ODD_NAME = st.sampled_from(["\u00e9", "t\u00e9"])
SEP = st.sampled_from([" ", "\t", "  ", "\x1f"])
ODD_SEP = st.sampled_from(["\v", "\x1c", "\x85", "\u3000", "\xa0"])


def line_of(fields, lengths, sep):
    @st.composite
    def line(draw):
        cells = draw(st.tuples(*fields))[:draw(st.sampled_from(lengths))]
        edge = draw(st.sampled_from(["", "", " ", "\t"]))
        body = "".join(cells[:1]) + "".join(draw(sep) + c for c in cells[1:])
        return edge + body + edge
    return line()


def text_of(clean, odd):
    @st.composite
    def text(draw):
        lines = draw(st.lists(clean, max_size=12))
        for extra in draw(st.lists(odd, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), extra)
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text()


ODD_SEP_OR_SEP = st.one_of(SEP, ODD_SEP)
RUN_TEXT = text_of(
    line_of([TOPIC, st.just("Q0"), DOC, RANK, SCORE, st.just("x"), st.just("x")], [6, 6, 7], SEP),
    line_of([st.one_of(TOPIC, ODD_NAME), st.just("Q0"), st.one_of(DOC, ODD_NAME),
             st.one_of(RANK, ODD_NUMBER), st.one_of(SCORE, ODD_NUMBER), st.just("x"),
             st.just("x")], [0, 3, 5, 6, 7], ODD_SEP_OR_SEP),
)
QRELS_TEXT = text_of(
    line_of([TOPIC, st.just("0"), DOC, RANK, st.just("x")], [4, 4, 5], SEP),
    line_of([st.one_of(TOPIC, ODD_NAME), st.just("0"), st.one_of(DOC, ODD_NAME),
             st.one_of(RANK, ODD_NUMBER), st.just("x")], [0, 3, 4, 5], ODD_SEP_OR_SEP),
)

# The reference parsers: the README's rules, line by line, written apart
# from the package's number patterns.
STRICT_INTEGER = re.compile(r"[+-]?[0-9]+")
STRICT_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def strict_fields(text, count):
    """``(lineno, fields)`` of each non-blank line; a ParseError names the
    first line with fewer than ``count`` fields."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and len(fields) < count:
            raise ParseError(f"line {lineno}")
        if fields:
            yield lineno, fields


def strict_int(token, lineno):
    if STRICT_INTEGER.fullmatch(token) and -2**63 <= int(token) < 2**63:
        return int(token)
    raise ParseError(f"line {lineno}")


def reference_qrels(text):
    judgements = {}
    for lineno, (topic, _, doc, relevance, *_) in strict_fields(text, 4):
        judgements.setdefault(topic, {})[doc] = int(strict_int(relevance, lineno) > 0)
    return judgements


def reference_run(text):
    entries = {}
    for lineno, (topic, _, doc, rank, score, *_) in strict_fields(text, 6):
        rank = strict_int(rank, lineno)
        if not (STRICT_DECIMAL.fullmatch(score) and abs(float(score)) < float("inf")):
            raise ParseError(f"line {lineno}")
        if doc in {d for *_, d in entries.get(topic, [])}:
            raise ParseError(f"line {lineno}")
        entries.setdefault(topic, []).append((rank, -float(score), doc))
    return {topic: [doc for *_, doc in sorted(rows)] for topic, rows in entries.items()}


def outcome(parse, text):
    """The parse result with its key order, or the line a ParseError names."""
    try:
        result = parse(text)
    except ParseError as exc:
        return "error", re.search(r"line (\d+)", str(exc)).group(1)
    return "ok", [(k, list(v.items()) if isinstance(v, dict) else v) for k, v in result.items()]


class TestParseQrels:
    def test_basic_fields(self):
        assert parse_qrels("t1 0 d7 1\nt1 0 d8 0") == {"t1": {"d7": 1, "d8": 0}}

    def test_graded_relevance_collapses_to_binary(self):
        assert parse_qrels("t1 0 d7 2") == {"t1": {"d7": 1}}
        assert parse_qrels("t1 0 d7 -1") == {"t1": {"d7": 0}}

    def test_missing_field_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_qrels("t1 0 d7")

    def test_non_integer_relevance_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels("t1 0 d7 1\nt1 0 d8 maybe")

    def test_later_duplicate_wins(self):
        assert parse_qrels("t1 0 d7 1\nt1 0 d7 0") == {"t1": {"d7": 0}}

    def test_blank_lines_and_crlf(self):
        assert parse_qrels("t1 0 d7 1\r\n\r\nt2 0 d1 1\r\n") == {"t1": {"d7": 1}, "t2": {"d1": 1}}

    def test_repeated_pair_across_blocks(self):
        parsed = parse_qrels("t1 0 d7 1\nt2 0 d1 1\nt1 0 d7 0\nt1 0 d8 1")
        assert list(parsed) == ["t1", "t2"]
        assert list(parsed["t1"].items()) == [("d7", 0), ("d8", 1)]

    def test_extra_column_ignored(self):
        assert parse_qrels("t1 0 d7 1 extra") == {"t1": {"d7": 1}}

    @given(text=QRELS_TEXT)
    def test_matches_line_loop(self, text):
        """The same judgements as the strict reference, or both reject the same line."""
        assert outcome(parse_qrels, text) == outcome(reference_qrels, text)

    @pytest.mark.parametrize("relevance", ["0_1", "\u0661", "\uff12", "1\u01fe", "1.0",
                                           "9223372036854775808"])
    def test_loose_relevance_rejected(self, relevance):
        with pytest.raises(ParseError, match=f"qrels line 2: relevance '{relevance}' is not"):
            parse_qrels(f"t1 0 d7 1\nt1 0 d8 {relevance}\n")


class TestParseRun:
    def test_rank_order(self):
        assert parse_run("t1 Q0 d2 1 9.5 x\nt1 Q0 d5 2 7.0 x") == {"t1": ["d2", "d5"]}

    def test_out_of_order_and_gappy_ranks(self):
        text = "t1 Q0 d9 30 1.0 x\nt1 Q0 d2 5 2.0 x"
        assert parse_run(text) == {"t1": ["d2", "d9"]}

    def test_rank_tie_breaks_by_descending_score(self):
        text = "t1 Q0 da 1 3.0 x\nt1 Q0 db 1 5.0 x"
        assert parse_run(text) == {"t1": ["db", "da"]}

    def test_full_tie_breaks_by_doc_id(self):
        text = "t1 Q0 db 1 3.0 x\nt1 Q0 da 1 3.0 x"
        assert parse_run(text) == {"t1": ["da", "db"]}

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_run("t1 Q0 d2 1 9.5 x\nt1 Q0 d2 2 7.0 x")

    def test_non_numeric_rank_and_score(self):
        with pytest.raises(ParseError, match="rank"):
            parse_run("t1 Q0 d2 first 9.5 x")
        with pytest.raises(ParseError, match="score"):
            parse_run("t1 Q0 d2 1 high x")

    def test_short_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_run("t1 Q0 d2 1 9.5")

    def test_topic_split_across_blocks(self):
        parsed = parse_run("t1 Q0 da 2 1.0 x\nt2 Q0 db 1 1.0 x\nt1 Q0 dc 1 2.0 x")
        assert list(parsed.items()) == [("t1", ["dc", "da"]), ("t2", ["db"])]
        with pytest.raises(ParseError, match="line 3: duplicate"):
            parse_run("t1 Q0 da 1 1.0 x\nt2 Q0 db 1 1.0 x\nt1 Q0 da 2 2.0 x")

    def test_seventh_column_ignored(self):
        assert parse_run("t1 Q0 d2 1 9.5 x extra") == {"t1": ["d2"]}

    def test_loose_rank_rejected(self):
        # int() reads "1_0" as ten and "\u0661" as one; the rank rule reads neither
        for rank in ["1_0", "\u0661", "\uff12", "1\u01fe", "9223372036854775808",
                     "-9223372036854775809", "1.0", "1e2", "9" * 5000]:
            with pytest.raises(ParseError, match=f"run line 2: rank '{rank}' is not a 64-bit"):
                parse_run(f"t1 Q0 da 1 1.0 x\nt1 Q0 db {rank} 1.0 x")

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity", "1e400", "1_0.5", "\u0661.5",
                                       "0x10", "1e"])
    def test_non_finite_or_loose_score_rejected(self, score):
        with pytest.raises(ParseError, match=f"run line 2: score '{score}' is not a finite number"):
            parse_run(f"t1 Q0 da 1 1.0 x\nt1 Q0 db 2 {score} x")

    def test_number_forms_the_rule_allows(self):
        text = ("t\u00e9 Q0 d\u00e9 +3 .5 x\nt\u00e9 Q0 db 007 5. x\nt\u00e9 Q0 dc -0 1e5 x\n"
                "t\u00e9 Q0 dd -9223372036854775808 1.e5 x\nt\u00e9 Q0 de 3 1e-400 x")
        assert parse_run(text) == {"t\u00e9": ["dd", "dc", "d\u00e9", "de", "db"]}
        assert parse_run(text.replace("\u00e9", "x")) == {"tx": ["dd", "dc", "dx", "de", "db"]}

    def test_no_lines_parse_to_nothing(self):
        for text in ["", "\n", "  \r\n\t", "\u3000\n"]:
            assert parse_run(text) == {} and parse_qrels(text) == {}

    @given(text=RUN_TEXT)
    def test_matches_line_loop(self, text):
        """The same rankings as the strict reference, or both reject the same line."""
        assert outcome(parse_run, text) == outcome(reference_run, text)


class TestAssembleTopics:
    def test_missing_judgements_default_to_zero(self):
        topics = assemble_topics({"t1": ["d2", "d5"]}, {"t1": {"d2": 1}})
        assert len(topics) == 1
        assert topics.topic_ids == ("t1",)
        assert topics.labels.tolist() == [1, 0]
        assert topics.n_relevant.tolist() == [1]

    def test_zero_relevant_topic_excluded_with_warning(self, caplog):
        with caplog.at_level("DEBUG"):
            topics = assemble_topics({"t1": ["d1"], "t2": ["d2"]}, {"t1": {"d1": 0}, "t2": {"d2": 1}})
        assert topics.topic_ids == ("t2",)
        assert topics.warnings == ("topic t1: no relevant documents, excluded (recall undefined)",)
        assert caplog.records == []  # the caller logs them

    def test_run_topic_without_qrels_is_an_error(self):
        with pytest.raises(ConfigError, match="t9"):
            assemble_topics({"t9": ["d1"]}, {"t1": {"d1": 1}})

    def test_qrels_only_topic_warned_and_ignored(self, caplog):
        with caplog.at_level("DEBUG"):
            topics = assemble_topics({"t1": ["d1"]}, {"t1": {"d1": 1}, "t5": {"dx": 1}})
        assert topics.topic_ids == ("t1",)
        assert topics.warnings == ("qrels topic t5 not in run; ignored",)
        assert caplog.records == []

    def test_warnings_list_qrels_only_topics_then_excluded_run_topics(self):
        run = {"r2": ["a"], "r1": ["b"], "ok": ["c"]}
        qrels = {"q2": {}, "ok": {"c": 1}, "r1": {"b": 0}, "q1": {}, "r2": {}}
        assert assemble_topics(run, qrels).warnings == (
            "qrels topic q2 not in run; ignored",
            "qrels topic q1 not in run; ignored",
            "topic r2: no relevant documents, excluded (recall undefined)",
            "topic r1: no relevant documents, excluded (recall undefined)",
        )

    def test_a_clean_pair_has_no_warnings(self):
        assert assemble_topics({"t1": ["d1"]}, {"t1": {"d1": 1}}).warnings == ()


class TestTopicInvariants:
    @pytest.mark.parametrize("labels", [np.array(1), np.array([[1, 0], [0, 1]])],
                             ids=["scalar", "matrix"])
    def test_non_vector_labels(self, labels):
        with pytest.raises(ValueError, match="vector"):
            Collection(("t",), [0, labels.size], labels)

    def test_non_binary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            make_topic(np.array([1, 2]), "t")

    @pytest.mark.parametrize("labels", [[0.5, 1.0, 1.7], [1.0, 1.7], [np.nan, 1]],
                             ids=["half", "fraction-above-one", "nan"])
    def test_non_integer_labels_rejected_not_truncated(self, labels):
        with pytest.raises(ValueError, match="topic 't': labels must be binary"):
            make_topic(labels, "t")

    @pytest.mark.parametrize("labels", [np.array([True, False, True]),
                                        np.array([1, 0, 1], dtype=np.uint8),
                                        np.array([1.0, 0.0, 1.0])],
                             ids=["bool", "uint8", "float"])
    def test_binary_labels_of_any_dtype_become_int64(self, labels):
        topic = Collection(("t",), [0, 3], labels)
        assert topic.labels.dtype == np.int64
        assert topic.labels.tolist() == [1, 0, 1]

    def test_empty_ranking(self):
        with pytest.raises(ValueError, match="empty"):
            make_topic(np.array([], dtype=np.int64), "t")

    # one check runs over every topic's labels at once, so the topic it names
    # comes from the bounds: a bad label on a topic's first or last rank, or
    # an empty topic, in the first, a middle or the last topic
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("ranking, problem", [([], "empty ranking"),
                                                  ([2, 1], "labels must be binary"),
                                                  ([1, 0, 0.5], "labels must be binary")],
                             ids=["empty", "bad-first-rank", "bad-last-rank"])
    def test_error_names_the_topic_that_holds_it(self, position, ranking, problem):
        rankings = [[1, 0], [0, 1, 1], [1]]
        rankings[position] = ranking
        with pytest.raises(ValueError, match=f"^topic 't{position}': {problem}$"):
            make_collection(*rankings)

    # bool and integer labels are checked by their range first, and searched
    # one by one only when it fails: the error must name the same topic
    @staticmethod
    def of_dtype(rankings, dtype):
        """A collection whose label vector keeps ``dtype``, topics t0, t1, ..."""
        labels = np.concatenate([np.array(r, dtype=dtype) for r in rankings])
        assert labels.dtype == dtype
        return Collection(tuple(f"t{k}" for k in range(len(rankings))),
                          np.cumsum([0, *map(len, rankings)]), labels)

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("dtype, bad", [(np.uint8, 2), (np.int8, 2), (np.int8, -1),
                                            (np.int64, -1)],
                             ids=["uint8-2", "int8-2", "int8-minus-1", "int64-minus-1"])
    def test_narrow_integer_label_out_of_range_names_its_topic(self, position, dtype, bad):
        rankings = [[1, 0], [0, 1, 1, 0], [1, 1]]
        rankings[position][-1] = bad
        with pytest.raises(ValueError, match=f"^topic 't{position}': labels must be binary$"):
            self.of_dtype(rankings, dtype)

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_bool_labels_with_an_empty_topic_name_it(self, position):
        rankings = [[1, 0], [0, 1, 1], [1]]
        rankings[position] = []
        with pytest.raises(ValueError, match=f"^topic 't{position}': empty ranking$"):
            self.of_dtype(rankings, bool)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int32, np.int64, np.float64])
    def test_binary_labels_give_int64_labels_and_gain_of_any_dtype(self, dtype):
        rankings = [[0, 1, 1, 0, 1], [1], [0, 0, 1], [1, 1]]
        topics = self.of_dtype(rankings, dtype)
        flat = np.concatenate(rankings).astype(np.int64)
        assert topics.labels.dtype == topics.gain.dtype == np.int64
        assert topics.labels.tolist() == flat.tolist()
        assert topics.gain.tolist() == np.cumsum(np.concatenate(([0], flat))).tolist()

    def test_first_topic_with_a_problem_is_named(self):
        with pytest.raises(ValueError, match="^topic 't1': empty ranking$"):
            make_collection([1], [], [2])
        with pytest.raises(ValueError, match="^topic 't1': labels must be binary$"):
            make_collection([1], [0, 2], [], [3])

    @pytest.mark.parametrize("bounds", [[0, 2], [1, 3], [0, 3, 3], [0]])
    def test_bounds_must_span_the_labels(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            Collection(("a",), bounds, [1, 0, 1])


class TestRunningCount:
    def test_values_per_topic(self):
        rankings = [[0, 1, 1, 0, 1], [1], [0, 1]]
        topics = Collection.of(["a", "b", "c"], rankings)
        gain, bounds = topics.gain, topics.bounds
        assert gain.tolist() == [0, 0, 1, 2, 2, 3, 4, 4, 5]
        assert bounds.tolist() == [0, 5, 6, 8]
        for k, labels in enumerate(rankings):
            own = gain[bounds[k]:bounds[k + 1] + 1] - gain[bounds[k]]
            assert own.tolist() == prefix_count(labels).tolist()
        assert gain.dtype == bounds.dtype == np.int64

    def test_no_topics(self):
        topics = make_collection()
        assert topics.gain.tolist() == [0]
        assert topics.bounds.tolist() == [0]


class TestBatchTopic:
    def test_even_split_counts(self):
        # hand prefix-count over pairs: (1,1) (0,0) (1,0) (0,0) (1,0)
        bt = make_topic([1, 1, 0, 0, 1, 0, 0, 0, 1, 0]).batched(5)
        assert bt.sizes.tolist() == [[2, 2, 2, 2, 2]]
        assert bt.batch_rel.tolist() == [[2, 0, 1, 0, 1]]
        assert bt.cum_rel.tolist() == [[2, 2, 3, 3, 4]]

    def test_remainder_goes_to_earliest_batches(self):
        bt = make_topic([0] * 9 + [1]).batched(3)
        assert bt.sizes.tolist() == [[4, 3, 3]]

    def test_short_topic_gets_empty_trailing_batches(self, caplog):
        labels = np.zeros(50, dtype=int)
        labels[[3, 20, 41]] = 1
        with caplog.at_level("DEBUG"):
            bt = make_topic(labels).batched(100)
        assert caplog.records == []
        assert bt.sizes.tolist() == [[1] * 50 + [0] * 50]
        assert bt.batch_rel.tolist() == [labels.tolist() + [0] * 50]
        assert (bt.cum_rel[0, 49:] == 3).all()
        assert all(bt.target_batch(t)[0] <= 50 for t in (0.5, 0.9, 1.0))
        assert bt.target_batch(1.0).tolist() == [42]

    def test_single_batch(self):
        bt = make_topic([1, 0, 1]).batched(1)
        assert bt.sizes.tolist() == [[3]]
        assert bt.batch_rel.tolist() == [[2]]

    def test_invalid_batch_count(self):
        with pytest.raises(ConfigError):
            make_topic([1]).batched(0)


def per_topic_split(labels, n_batches):
    """Reference for ``Collection.batched``: one topic's labels split by
    themselves, their counts read from their own running count."""
    base, extra = divmod(len(labels), n_batches)
    sizes = np.full(n_batches, base, dtype=np.int64)
    sizes[:extra] += 1
    cum_rel = prefix_count(labels)[np.cumsum(sizes)]
    return sizes, np.diff(cum_rel, prepend=0), cum_rel


@st.composite
def batched_collections(draw):
    """A batch count and the labels of 1-6 topics of lengths below, at and above it."""
    n_batches = draw(st.integers(1, 12))
    length = st.one_of(st.just(1), st.just(n_batches), st.integers(1, 3 * n_batches + 2))
    labels = length.flatmap(lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n_batches, draw(st.lists(labels, min_size=1, max_size=6))


class TestBatchTopics:
    @given(collection=batched_collections())
    def test_matches_per_topic_split(self, collection):
        n_batches, rankings = collection
        topics = make_collection(*rankings)
        batched = topics.batched(n_batches)
        assert batched.collection is topics
        assert len(batched) == len(rankings)
        for arrays in (batched.sizes, batched.batch_rel, batched.cum_rel):
            assert arrays.dtype == np.int64
            assert arrays.shape == (len(rankings), n_batches)
        for k, labels in enumerate(rankings):
            got = (batched.sizes[k], batched.batch_rel[k], batched.cum_rel[k])
            for array, expected in zip(got, per_topic_split(labels, n_batches)):
                assert array.tolist() == expected.tolist()

    @pytest.mark.parametrize("n_batches", [0, -3])
    def test_invalid_batch_count(self, n_batches):
        with pytest.raises(ConfigError, match="batch count must be >= 1"):
            make_topic([1, 0]).batched(n_batches)

    def test_no_topics(self):
        batched = make_collection().batched(5)
        assert len(batched) == 0
        assert batched.sizes.shape == batched.cum_rel.shape == (0, 5)
        assert batched.target_batch(0.9).tolist() == []


def scan_target_batch(cum_rel, n_relevant, target):
    """Independent linear-scan oracle for the first batch meeting the target."""
    need = target * n_relevant - 1e-9
    for index, cum in enumerate(cum_rel, start=1):
        if cum >= need:
            return index
    raise AssertionError("target never reached")


class TestCollection:
    @given(collection=batched_collections(), target=st.floats(0.05, 1.0))
    def test_every_figure_equals_plain_numpy_per_topic(self, collection, target):
        # ragged topics, some shorter than the batch count, each against its
        # own block of labels alone
        n_batches, rankings = collection
        topics = make_collection(*rankings)
        batched = topics.batched(n_batches)
        assert topics.n_docs.tolist() == [len(labels) for labels in rankings]
        assert topics.n_relevant.tolist() == [sum(labels) for labels in rankings]
        for k, labels in enumerate(rankings):
            start, stop = topics.bounds[k], topics.bounds[k + 1]
            assert (topics.gain[start:stop + 1] - topics.gain[start]).tolist() == prefix_count(labels).tolist()
            expected = per_topic_split(labels, n_batches)
            assert batched.sizes[k].tolist() == expected[0].tolist()
            assert batched.cum_rel[k].tolist() == expected[2].tolist()
        judged = [labels for labels in rankings if sum(labels)]
        if judged:
            assert make_collection(*judged).batched(n_batches).target_batch(target).tolist() == [
                scan_target_batch(per_topic_split(labels, n_batches)[2], sum(labels), target)
                for labels in judged]

    def test_target_batch_on_topics_end_to_end(self):
        # the second topic's search starts where the first's batch ends stop
        batched = make_collection([1, 1, 0, 0], [0, 0, 0, 1], [1]).batched(2)
        assert batched.target_batch(1.0).tolist() == [1, 2, 1]
        assert batched.target_batch(0.5).tolist() == [1, 2, 1]


class TestTargetBatch:
    def test_linear_scan_example(self):
        # batch_rel [2,1,0,1,1], R=5, target 0.8 -> need 4, cum [2,3,3,4,5] -> batch 4
        labels = [1, 1, 1, 0, 0, 0, 1, 0, 1, 0]
        bt = make_topic(labels).batched(5)
        assert bt.batch_rel.tolist() == [[2, 1, 0, 1, 1]]
        expected = scan_target_batch(bt.cum_rel[0], 5, 0.8)
        assert expected == 4
        assert bt.target_batch(0.8).tolist() == [4]

    def test_full_recall_is_last_relevant_batch(self):
        labels = np.zeros(10, dtype=int)
        labels[0] = 1
        labels[6] = 1  # batch 7 of 10 single-doc batches
        bt = make_topic(labels).batched(10)
        assert bt.target_batch(1.0).tolist() == [7]

    def test_unattainable_target_overshoots(self):
        # 9 relevant docs, target 0.8: 7.2 relevant are needed, so the first
        # batch with 8 found is the answer.
        labels = [1] * 9 + [0]
        bt = make_topic(labels).batched(10)
        assert bt.cum_rel[0, bt.target_batch(0.8)[0] - 1] == 8

    def test_decimal_target_not_lost_to_float_noise(self):
        # 0.9 * 10 must hit exactly 9, not demand a 10th document
        labels = [1] * 10
        bt = make_topic(labels).batched(10)
        assert bt.target_batch(0.9).tolist() == [9]

    def test_zero_relevant_is_undefined(self):
        bt = make_topic([0, 0]).batched(2)
        with pytest.raises(ValueError, match="undefined"):
            bt.target_batch(0.9)

    def test_invalid_target(self):
        bt = make_topic([1, 0]).batched(2)
        with pytest.raises(ConfigError):
            bt.target_batch(0.0)
        with pytest.raises(ConfigError):
            bt.target_batch(1.5)


labels_strategy = st.lists(st.integers(0, 1), min_size=1, max_size=60)


class TestFirstReachingTargets:
    @given(labels=labels_strategy.filter(lambda ls: sum(ls) > 0),
           targets=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
    def test_array_of_targets_is_each_target_searched_alone(self, labels, targets):
        gain = prefix_count(labels)
        ranks = first_reaching(gain, 0, sum(labels), np.array(targets))
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [first_reaching(gain, 0, sum(labels), t) for t in targets]

    @given(topics=st.lists(labels_strategy.filter(lambda ls: sum(ls) > 0), min_size=1, max_size=5),
           target=st.one_of(st.sampled_from([1e-10, 1 / 3, 0.9, 1.0]), st.floats(0.01, 1.0)))
    def test_collection_form_is_each_topic_searched_alone(self, topics, target):
        # the search over every topic's count, end to end, stays inside each topic
        collection = make_collection(*topics)
        gain, bounds = collection.gain, collection.bounds
        ranks = first_reaching(gain, bounds[:-1], collection.n_relevant, target)
        alone = [first_reaching(prefix_count(labels), 0, sum(labels), target) for labels in topics]
        assert ranks.tolist() == alone
        assert all(1 <= rank <= len(labels) for rank, labels in zip(alone, topics))

    def test_tiny_target_needs_one_relevant_document(self):
        gain = prefix_count([0, 0, 1, 1])
        assert first_reaching(gain, 0, 2, 1e-10) == 3
        assert first_reaching(gain, 0, 2, np.array([1e-12, 0.5, 1.0])).tolist() == [3, 3, 4]

    def test_array_checks_every_target(self):
        gain = prefix_count([1, 0, 1])
        with pytest.raises(ConfigError, match="got 1.5"):
            first_reaching(gain, 0, 2, np.array([0.5, 1.5]))

    def test_array_on_topic_without_relevant_is_undefined(self):
        gain = prefix_count([0, 0])
        with pytest.raises(ValueError, match="undefined"):
            first_reaching(gain, 0, 0, np.array([0.5, 0.9]))


class TestBatchingProperties:
    @given(labels=labels_strategy, n_batches=st.integers(1, 70))
    def test_round_trip_relevant_count(self, labels, n_batches):
        bt = make_topic(labels).batched(n_batches)
        assert int(bt.batch_rel.sum()) == sum(labels)
        assert int(bt.cum_rel[0, -1]) == sum(labels)

    @given(labels=labels_strategy, n_batches=st.integers(1, 70))
    def test_counts_equal_batch_slice_sums(self, labels, n_batches):
        bt = make_topic(labels).batched(n_batches)
        ends = list(accumulate(bt.sizes[0].tolist()))
        sums = [sum(labels[start:end]) for start, end in zip([0, *ends], ends)]
        assert bt.batch_rel[0].tolist() == sums
        assert bt.cum_rel[0].tolist() == list(accumulate(sums))
        assert bt.batch_rel.dtype == bt.cum_rel.dtype == np.int64

    @given(labels=labels_strategy, n_batches=st.integers(1, 70))
    def test_sizes_differ_by_at_most_one_and_preserve_order(self, labels, n_batches):
        topic = make_topic(labels)
        bt = topic.batched(n_batches)
        sizes = bt.sizes[0]
        assert int(sizes.sum()) == len(labels)
        assert int(sizes.max() - sizes.min()) <= 1
        # concatenation of batch slices reproduces the labels in rank order
        ends = np.cumsum(sizes)
        rebuilt = []
        for start, end in zip(ends - sizes, ends):
            rebuilt.extend(topic.labels[start:end].tolist())
        assert rebuilt == list(labels)

    @given(
        labels=labels_strategy.filter(lambda ls: sum(ls) > 0),
        n_batches=st.integers(1, 70),
        t1=st.floats(0.05, 1.0),
        t2=st.floats(0.05, 1.0),
    )
    def test_target_batch_monotone_in_target(self, labels, n_batches, t1, t2):
        bt = make_topic(labels).batched(n_batches)
        lo, hi = min(t1, t2), max(t1, t2)
        assert bt.target_batch(lo)[0] <= bt.target_batch(hi)[0]

    @given(
        labels=labels_strategy.filter(lambda ls: sum(ls) > 0),
        n_batches=st.integers(1, 70),
        target=st.floats(0.05, 1.0),
    )
    def test_target_batch_equals_linear_scan(self, labels, n_batches, target):
        topic = make_topic(labels)
        bt = topic.batched(n_batches)
        assert bt.target_batch(target)[0] == scan_target_batch(bt.cum_rel[0], sum(labels), target)
        # the unbatched oracle rank follows the same rule over per-document counts
        assert first_reaching(topic.gain, 0, sum(labels), target) == scan_target_batch(
            np.cumsum(labels), sum(labels), target
        )


class TestSynthTopics:
    def test_deterministic_per_seed(self, tmp_path):
        a = synth_topics(3, 50, 0.2, 10.0, seed=9)
        b = synth_topics(3, 50, 0.2, 10.0, seed=9)
        assert a.topic_ids == b.topic_ids == ("synth-0000", "synth-0001", "synth-0002")
        assert np.array_equal(a.bounds, b.bounds)
        assert np.array_equal(a.labels, b.labels)
        write_run_file(tmp_path / "x.run", a)
        assert_generated_doc_ids(tmp_path / "x.run", a)

    def test_seed_changes_output(self):
        a = synth_topics(3, 200, 0.2, 10.0, seed=1)
        b = synth_topics(3, 200, 0.2, 10.0, seed=2)
        assert any(not np.array_equal(la, lb) for la, lb in zip(topic_labels(a), topic_labels(b)))

    def test_every_topic_has_a_relevant_document(self):
        assert (synth_topics(20, 30, 0.05, 5.0, seed=3).n_relevant >= 1).all()

    @pytest.mark.parametrize("n_docs", [1, 30, 1000])
    @pytest.mark.parametrize("prevalence", [0.05, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("decay", [0.1, 12.0, 120.0, 1e9])
    def test_probabilities_sum_to_expected_count(self, n_docs, prevalence, decay):
        # every prevalence below 1 is feasible at any decay: the cap at 1 absorbs the excess
        probs = rank_relevance_probs(n_docs, prevalence, decay)
        assert abs(probs.sum() - prevalence * n_docs) <= 1e-9 * prevalence * n_docs
        assert ((0.0 <= probs) & (probs <= 1.0)).all()
        assert (probs[:-1] >= probs[1:]).all()  # front-loaded

    def test_large_decay_limit_is_uniform_prevalence(self):
        probs = rank_relevance_probs(500, 0.1, 1e9)
        assert np.allclose(probs, 0.1, atol=1e-6)

    def test_mean_relevant_count_matches_expectation(self):
        probs = rank_relevance_probs(1000, 0.05, 150.0)
        topics = synth_topics(1000, 1000, 0.05, 150.0, seed=4)
        mean_r = np.mean(topics.n_relevant)
        se = np.sqrt((probs * (1 - probs)).sum() / len(topics))
        assert abs(mean_r - 50.0) <= 3.0 * se

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            synth_topics(0, 10, 0.1, 5.0, seed=0)
        with pytest.raises(ConfigError):
            synth_topics(1, 10, 0.0, 5.0, seed=0)
        with pytest.raises(ConfigError):
            synth_topics(1, 10, 1.0, 5.0, seed=0)
        with pytest.raises(ConfigError):
            synth_topics(1, 10, 0.1, -1.0, seed=0)
        with pytest.raises(ConfigError):
            rank_relevance_probs(0, 0.1, 5.0)


ID = st.text(alphabet="abXY019-_.#:\u00e9", min_size=1, max_size=6)


def assert_generated_doc_ids(run_path, topics):
    """The run file's doc-id column reads ``<topic>-d<rank:06d>`` in rank order."""
    expected = [f"{topic_id}-d{r:06d}" for topic_id, n in zip(topics.topic_ids, topics.n_docs)
                for r in range(1, n + 1)]
    assert [line.split()[2] for line in run_path.read_text().splitlines()] == expected


@st.composite
def judged_rankings(draw):
    """``{topic_id: (doc_ids, labels)}`` with arbitrary unique ids, every
    topic holding at least one relevant document."""
    topics = {}
    for topic_id in draw(st.lists(ID, min_size=1, max_size=4, unique=True)):
        docs = draw(st.lists(ID, min_size=1, max_size=15, unique=True))
        labels = draw(st.lists(st.integers(0, 1), min_size=len(docs), max_size=len(docs)))
        labels[draw(st.integers(0, len(docs) - 1))] = 1  # assemble_topics drops topics without
        topics[topic_id] = (docs, labels)
    return topics


class TestFileRoundTrip:
    @given(topics=judged_rankings())
    def test_write_parse_assemble_round_trips(self, topics):
        run_text = "".join(
            f"{topic_id} Q0 {doc} {rank} {float(len(docs) - rank + 1)!r} tag\n"
            for topic_id, (docs, _) in topics.items()
            for rank, doc in enumerate(docs, start=1)
        )
        qrels_text = "".join(
            f"{topic_id} 0 {doc} {label}\n"
            for topic_id, (docs, labels) in topics.items()
            for doc, label in zip(docs, labels)
        )
        rebuilt = assemble_topics(parse_run(run_text), parse_qrels(qrels_text))
        assert rebuilt.topic_ids == tuple(topics)
        for parsed, (_, labels) in zip(topic_labels(rebuilt), topics.values()):
            assert parsed.tolist() == labels

    def test_synthetic_dump_reparses_identically(self, tmp_path):
        topics = synth_topics(4, 40, 0.2, 8.0, seed=5)
        run_path = tmp_path / "x.run"
        qrels_path = tmp_path / "x.qrels"
        write_run_file(run_path, topics)
        write_qrels_file(qrels_path, topics)
        rebuilt = assemble_topics(
            parse_run(run_path.read_text()), parse_qrels(qrels_path.read_text())
        )
        assert rebuilt.topic_ids == topics.topic_ids
        assert np.array_equal(rebuilt.bounds, topics.bounds)
        assert np.array_equal(rebuilt.labels, topics.labels)
        assert_generated_doc_ids(run_path, topics)

    @pytest.mark.parametrize("tag", ["", " ", "\t", "x\n", "a\nb", "a\rb", "a\x0bb", "a\x1cb",
                                     "a\x85b", "a\u2028b", "a\u2029b", "a\ud800"])
    def test_a_tag_a_run_line_cannot_end_in_writes_nothing(self, tmp_path, tag):
        with pytest.raises(ConfigError, match=re.escape(f"run tag must be one line of UTF-8 text, "
                                                        f"not all whitespace, got {tag!r}")):
            write_run_file(tmp_path / "x.run", synth_topics(1, 5, 0.5, 5.0, seed=1), tag)
        assert not (tmp_path / "x.run").exists()
        with pytest.raises(ConfigError):
            check_tag(tag)
