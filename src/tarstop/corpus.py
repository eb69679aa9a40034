"""Ranked topics with relevance judgements: parsing, batching, synthesis.

Input formats are the usual retrieval interchange files:

- qrels: ``topic iteration doc_id relevance`` (whitespace separated;
  relevance > 0 is treated as relevant, everything else as not)
- run:   ``topic Q0 doc_id rank score tag``

Both parsers read their columns with one call to numpy's C text reader
(``np.loadtxt`` over the lines, which splits whitespace like ``str.split``)
and group the rows into topics as arrays; every value they return comes
from that reader. The number rule: a rank or a relevance is an ASCII
integer (:data:`INTEGER`) that fits in int64, a score an ASCII decimal
(:data:`DECIMAL`) with a finite value; ids are any non-whitespace text.
One line checker serves both formats and never builds topics: it raises
:class:`ParseError` at the first bad line (too few fields, a number that
breaks the rule, a document its run topic already ranked). It runs when
the reader refuses ASCII text or reads a non-finite score or a repeated
document, and before the reader on any other text.

A topic is its labels: the binary relevance of each ranked document, in
rank order. The doc ids serve only to join the run with the qrels and to
reject a document ranked twice (:func:`parse_run` is the one place that
rule lives); no figure needs them afterwards, so a :class:`Collection`,
every topic's labels end to end, does not keep them. Its one running
relevant count (``gain``) is the source of every "relevant documents among
the first r" figure: recall, the oracle and budget stops, and the contiguous,
near-equal batches the labels are cut into for the stopping task
(:class:`Batches`), whose relevant counts the stopping agent observes and the
knee baseline reads.

:func:`assemble_topics` logs nothing: the topics it left out, and why, are
its collection's ``warnings``. The CLI caches what :func:`load_run`,
:func:`load_qrels` and :func:`assemble_topics` make of a pair of files as a
:data:`TOPICS` entry (:mod:`tarstop.cache`). A change to what they produce
for given bytes must change ``TOPICS.format``, or old entries would stand in.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .cache import Kind
from .errors import ConfigError, ParseError

# Slack applied to target_recall * n_relevant so decimal targets (0.9, ...)
# don't miss an exact threshold through float rounding.
TARGET_EPS = 1e-9


@dataclass(frozen=True)
class Collection:
    """Topics end to end: topic k ranks documents ``bounds[k]:bounds[k + 1]``,
    and ``labels[bounds[k] + r - 1]`` is 1 if its document at rank r is
    relevant, else 0. ``gain[bounds[k] + r] - gain[bounds[k]]`` of its first r
    documents are relevant (``gain[0] == 0``). ``warnings`` say what the
    ingest that made it left out, and why."""

    topic_ids: tuple[str, ...]
    bounds: np.ndarray
    labels: np.ndarray
    warnings: tuple[str, ...] = ()
    gain: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels, bounds = np.asarray(self.labels), np.asarray(self.bounds, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a vector")
        if bounds.shape != (len(self.topic_ids) + 1,) or bounds[0] != 0 or bounds[-1] != len(labels):
            raise ValueError("bounds must run from 0 to the label count, one per topic and one more")
        # checked before the cast, which would truncate 0.5 to 0: bool or integer labels by
        # their range, and only labels outside it (or of another dtype) one by one, to name
        # the first bad one's topic; np.isin costs ~6x as much as that search
        if labels.dtype.kind in "biu" and (not labels.size or 0 <= labels.min() <= labels.max() <= 1):
            bad_label = len(labels)  # none
        else:
            bad_label = np.append((labels != 0) & (labels != 1), True).argmax()
        k = min(np.append(np.diff(bounds) <= 0, True).argmax(),
                np.searchsorted(bounds, bad_label, side="right") - 1)
        if k < len(self.topic_ids):  # the first topic with no label, or with the first bad one
            problem = "empty ranking" if bounds[k + 1] <= bounds[k] else "labels must be binary"
            raise ValueError(f"topic {self.topic_ids[k]!r}: {problem}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        gain = np.zeros(len(labels) + 1, np.int64)
        np.cumsum(self.labels, out=gain[1:])
        object.__setattr__(self, "gain", gain)

    @classmethod
    def of(cls, topic_ids, rankings, warnings=()) -> "Collection":
        """The collection of these topics, topic k labelled ``rankings[k]``."""
        rankings = list(rankings)
        return cls(tuple(topic_ids), np.cumsum([0, *map(len, rankings)]),
                   np.concatenate([np.zeros(0, np.int64), *rankings]), tuple(warnings))

    def __len__(self) -> int:
        return len(self.topic_ids)

    @property
    def n_docs(self) -> np.ndarray:
        return np.diff(self.bounds)

    @property
    def n_relevant(self) -> np.ndarray:
        return self.gain[self.bounds[1:]] - self.gain[self.bounds[:-1]]

    def batched(self, n_batches: int) -> "Batches":
        """Each topic split into ``n_batches`` contiguous batches, all in one pass:
        of its n documents, the first ``n mod n_batches`` batches get
        ``ceil(n / n_batches)`` (so early stops stay conservative), the rest
        ``floor(n / n_batches)``, none if ``n < n_batches``."""
        check_batches(n_batches)
        starts = self.bounds[:-1, None]
        base, extra = np.divmod(self.n_docs[:, None], n_batches)
        sizes = base + (np.arange(n_batches) < extra)
        return Batches(self, sizes, self.gain[starts + np.cumsum(sizes, axis=1)] - self.gain[starts])


def check_target(target_recall: float, what: str = "target recall") -> float:
    """``target_recall`` itself if it lies in (0, 1]; otherwise a
    :class:`ConfigError` that calls the value ``what``."""
    if not 0.0 < target_recall <= 1.0:
        raise ConfigError(f"{what} must be in (0, 1], got {target_recall}")
    return target_recall


def check_seed(seed: int) -> int:
    """``seed`` itself if it is at least 0; otherwise a :class:`ConfigError`."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def check_batches(n_batches: int) -> int:
    """``n_batches`` itself if it is at least 1; otherwise a :class:`ConfigError`."""
    if n_batches < 1:
        raise ConfigError(f"batch count must be >= 1, got {n_batches}")
    return n_batches


def first_reaching(gain: np.ndarray, starts, n_relevant, target_recall):
    """The one rule for where a target recall is met: for each (broadcast)
    start, the 1-based index, counted after ``start``, of the first entry of
    ``gain`` (a running relevant count) at least ``max(ceil(target_recall *
    n_relevant - TARGET_EPS), 1)`` above ``gain[start]``: an int for scalars,
    else int64s. That need is 1 to n_relevant, so no search leaves its topic."""
    for target in np.unique(target_recall).tolist():
        check_target(target)
    if np.any(np.asarray(n_relevant) == 0):
        raise ValueError("target undefined for a topic with no relevant documents")
    need = np.maximum(np.ceil(np.multiply(target_recall, n_relevant) - TARGET_EPS), 1)
    index = np.searchsorted(gain, gain[starts] + need.astype(np.int64), side="left") - starts
    return index if np.ndim(index) else int(index)


@dataclass(frozen=True)
class Batches:
    """A collection cut into batches: topic k's batch j holds ``sizes[k, j]``
    documents, and ``cum_rel[k, j]`` of the documents in its first j + 1
    batches are relevant (both ``(n_topics, n_batches)`` int64)."""

    collection: Collection
    sizes: np.ndarray
    cum_rel: np.ndarray

    def __len__(self) -> int:
        return len(self.collection)

    @property
    def n_batches(self) -> int:
        return self.sizes.shape[1]

    @property
    def batch_rel(self) -> np.ndarray:
        return np.diff(self.cum_rel, axis=1, prepend=0)

    def target_batch(self, target_recall: float) -> np.ndarray:
        """For each topic, the 1-based index of the first batch at which the
        target recall is met: one search over the running count at every
        batch end, topic after topic after a 0, topic k's from ``k * n_batches``."""
        before = self.collection.gain[self.collection.bounds[:-1, None]]  # each topic's offset
        ends = np.concatenate(([0], (before + self.cum_rel).ravel()))
        return first_reaching(ends, np.arange(len(self)) * self.n_batches, self.cum_rel[:, -1],
                              target_recall)


# The number rule of every file this package reads. A decimal's digits split
# one way only, so a match over many cells joined by newlines stays linear.
INTEGER = re.compile(r"[+-]?[0-9]+")
DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _is_int64(token: str) -> bool:
    """Whether ``token`` is an :data:`INTEGER` that fits in int64."""
    digits = token.lstrip("+-").lstrip("0")  # int() refuses more than 4300 digits
    limit = 2**63 if token.startswith("-") else 2**63 - 1
    return INTEGER.fullmatch(token) is not None and len(digits) <= 19 and int(digits or 0) <= limit


def _is_finite_decimal(token: str) -> bool:
    """Whether ``token`` is a :data:`DECIMAL` with a finite value."""
    return DECIMAL.fullmatch(token) is not None and math.isfinite(float(token))


# The C reader keeps a layout's fields named in _COLUMNS, as the type there;
# ``tag`` only proves a run line has a sixth field, and "U1" costs no str.
_LAYOUTS = {"run": "topic Q0 doc rank score tag", "qrels": "topic iteration doc relevance"}
_COLUMNS = {"topic": object, "doc": object, "rank": np.int64, "score": np.float64,
            "relevance": np.int64, "tag": "U1"}
_NUMBERS = {"rank": (_is_int64, "a 64-bit integer"), "relevance": (_is_int64, "a 64-bit integer"),
            "score": (_is_finite_decimal, "a finite number")}


def _check_lines(text: str, form: str, known_bad: bool = False) -> None:
    """Raise :class:`ParseError` at the first line of ``text`` that breaks
    format ``form``: too few fields, a number that breaks the number rule,
    or (run) a document its topic already ranked. Fields split as
    ``str.split`` splits them. No bad line in a text ``known_bad`` is a fault."""
    fields = _LAYOUTS[form].split()
    numbers = [(col, name, *_NUMBERS[name]) for col, name in enumerate(fields) if name in _NUMBERS]
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) < len(fields):
            raise ParseError(f"{form} line {lineno}: expected '{_LAYOUTS[form]}', got {raw!r}")
        for col, name, rule, kind in numbers:
            if not rule(parts[col]):
                raise ParseError(f"{form} line {lineno}: {name} {parts[col]!r} is not {kind}")
        if form == "run" and (parts[0], parts[2]) in seen:
            raise ParseError(f"run line {lineno}: duplicate document {parts[2]!r} "
                             f"for topic {parts[0]!r}")
        seen.add((parts[0], parts[2]))
    if known_bad:
        raise RuntimeError(f"no bad line in {form} text that numpy's reader refused or misread")


def _read_columns(text: str, form: str) -> np.ndarray:
    """One record per non-blank line of ``text`` in format ``form``, from
    numpy's C reader. ASCII text is checked line by line only if the reader
    refuses it; other text is checked first, so that the reader's integer
    parsing, which reads "1\u01fe" as 472, never sees a non-ASCII token."""
    fields = _LAYOUTS[form].split()
    usecols = [col for col, name in enumerate(fields) if name in _COLUMNS]
    dtype = [(fields[col], _COLUMNS[fields[col]]) for col in usecols]
    if not text or text.isspace():
        return np.zeros(0, dtype)
    if not text.isascii():
        _check_lines(text, form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(text.splitlines(), dtype, comments=None, usecols=usecols, ndmin=1)
        except (ValueError, Warning):
            _check_lines(text, form, known_bad=True)


def _topic_blocks(topics: np.ndarray) -> list[tuple[str, int, int]]:
    """``(topic_id, start, stop)`` for each run of equal ids, in file order."""
    cuts = (np.flatnonzero(topics[1:] != topics[:-1]) + 1).tolist()
    return [(topics[a], a, b) for a, b in zip([0, *cuts], [*cuts, len(topics)]) if a < b]


def parse_qrels(text: str) -> dict[str, dict[str, int]]:
    """Parse qrels content into ``{topic_id: {doc_id: 0 or 1}}``.

    Graded relevance collapses to binary (> 0 means relevant). A repeated
    (topic, doc) pair overwrites the earlier judgement.
    """
    cols = _read_columns(text, "qrels")
    docs = cols["doc"].tolist()
    rels = (cols["relevance"] > 0).astype(np.int64).tolist()
    judgements: dict[str, dict[str, int]] = {}
    for topic_id, start, stop in _topic_blocks(cols["topic"]):
        judgements.setdefault(topic_id, {}).update(zip(docs[start:stop], rels[start:stop]))
    return judgements


def parse_run(text: str) -> dict[str, list[str]]:
    """Parse run content into ``{topic_id: [doc_id, ...]}`` in rank order.

    Documents are ordered by ascending rank; ties break by descending score,
    then lexicographic doc id. A document may appear only once per topic.
    """
    cols = _read_columns(text, "run")
    if not np.isfinite(cols["score"]).all():
        _check_lines(text, "run", known_bad=True)
    blocks: dict[str, list[slice]] = {}
    for topic_id, start, stop in _topic_blocks(cols["topic"]):
        blocks.setdefault(topic_id, []).append(slice(start, stop))
    run: dict[str, list[str]] = {}
    for topic_id, parts in blocks.items():
        rows = cols[parts[0]] if len(parts) == 1 else np.concatenate([cols[p] for p in parts])
        docs = rows["doc"].tolist()
        if len(set(docs)) != len(docs):
            _check_lines(text, "run", known_bad=True)  # names the line of the repeat
        ranks = rows["rank"]
        if not (ranks[1:] > ranks[:-1]).all():
            docs = [doc for *_, doc in sorted(zip(ranks.tolist(), (-rows["score"]).tolist(), docs))]
        run[topic_id] = docs
    return run


def assemble_topics(run: dict[str, list[str]], qrels: dict[str, dict[str, int]]) -> Collection:
    """Join a parsed run with qrels into a labelled collection.

    Documents absent from the qrels are labelled 0. Topics whose ranking
    contains no relevant document are dropped (recall is undefined). Its
    ``warnings`` name each qrels-only topic, then each dropped run topic.
    """
    notes = [f"qrels topic {topic_id} not in run; ignored" for topic_id in qrels
             if topic_id not in run]
    kept: dict[str, np.ndarray] = {}
    for topic_id, ranking in run.items():
        if topic_id not in qrels:
            raise ConfigError(f"run topic {topic_id!r} has no qrels entry")
        judged = qrels[topic_id]
        labels = np.fromiter(
            map(judged.get, ranking, repeat(0)), dtype=np.int64, count=len(ranking)
        )
        if labels.sum() == 0:
            notes.append(f"topic {topic_id}: no relevant documents, excluded (recall undefined)")
            continue
        kept[topic_id] = labels
    return Collection.of(kept.keys(), kept.values(), notes)


def _topics_entry(topics: Collection) -> dict[str, np.ndarray] | None:
    ids, notes = np.array(topics.topic_ids, dtype=str), np.array(topics.warnings, dtype=str)
    if not topics or ids.tolist() + notes.tolist() != [*topics.topic_ids, *topics.warnings]:
        return None  # empty, or text a str array cannot hold, e.g. a trailing NUL
    return dict(zip(TOPICS.arrays, (ids, topics.n_docs, topics.labels.astype(np.uint8), notes)))


def _topics_from_entry(arrays: dict[str, np.ndarray]) -> Collection:
    ids, lengths, labels, notes = arrays.values()
    if not (ids.ndim == lengths.ndim == labels.ndim == notes.ndim == 1
            and ids.dtype.kind == notes.dtype.kind == "U"
            and lengths.dtype.kind == "i" and labels.dtype == np.uint8
            and len(ids) == len(lengths) and len(set(ids.tolist())) == len(ids)):
        raise ValueError("inconsistent topic entry")
    # the constructor checks the lengths against the labels, which must be binary
    topics = Collection(tuple(ids.tolist()), np.cumsum([0, *lengths.tolist()]), labels,
                        tuple(notes.tolist()))
    if not (topics.n_relevant > 0).all():  # assemble_topics excludes such a topic
        raise ValueError("topic entry holds a topic with no relevant document")
    return topics


# A cached run/qrels pair: what assemble_topics made of its files.
TOPICS = Kind(b"tarstop-topics-v2", ("topic_ids", "lengths", "labels", "warnings"),
              _topics_entry, _topics_from_entry)


def read_text(path, newline=None) -> str:
    """The text of ``path``; a :class:`ParseError` names the file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from None


def _load(path, parse):
    """``parse`` over the UTF-8 text of ``path``; a :class:`ParseError` names the file."""
    text = read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_qrels(path) -> dict[str, dict[str, int]]:
    return _load(path, parse_qrels)


def load_run(path) -> dict[str, list[str]]:
    return _load(path, parse_run)


def check_synth(count: int = 1, n_docs: int = 1, prevalence: float = 0.5, decay: float = 1.0):
    """The synthetic generator's range rules. Every default passes them, so a
    call that names one setting checks that setting alone."""
    if count < 1:
        raise ConfigError(f"topic count must be >= 1, got {count}")
    if n_docs < 1:
        raise ConfigError(f"n_docs must be >= 1, got {n_docs}")
    if not 0.0 < prevalence < 1.0:
        raise ConfigError(f"prevalence must be in (0, 1), got {prevalence}")
    if decay <= 0.0:
        raise ConfigError(f"decay must be positive, got {decay}")


def check_tag(tag: str) -> str:
    """``tag`` itself if it is UTF-8 text on one line, not all whitespace; else a ConfigError."""
    if (tag.isspace() or tag.splitlines() != [tag]
            or tag.encode("utf-8", "replace").decode("utf-8") != tag):  # a lone surrogate
        raise ConfigError(f"run tag must be one line of UTF-8 text, not all whitespace, got {tag!r}")
    return tag


def rank_relevance_probs(n_docs: int, prevalence: float, decay: float) -> np.ndarray:
    """Per-rank relevance probabilities for the synthetic generator.

    ``p(r) = min(1, c * exp(-r / decay))`` with the coefficient solved so the
    expected relevant count equals ``prevalence * n_docs``. Small decay means
    strongly front-loaded relevance; decay >> n_docs approaches a uniform
    ``prevalence`` everywhere.
    """
    check_synth(n_docs=n_docs, prevalence=prevalence, decay=decay)
    ranks = np.arange(1, n_docs + 1, dtype=np.float64)
    expected = prevalence * n_docs

    def expected_count(log_c: float) -> float:
        return float(np.exp(np.minimum(0.0, log_c - ranks / decay)).sum())

    lo, hi = -800.0, n_docs / decay  # expected_count: ~0 at lo, n_docs at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_count(mid) < expected:
            lo = mid
        else:
            hi = mid
    return np.exp(np.minimum(0.0, hi - ranks / decay))


def synth_topics(count: int, n_docs: int, prevalence: float, decay: float, seed: int) -> Collection:
    """Generate ``count`` front-loaded synthetic topics, deterministically per seed.

    Each document at rank r is relevant independently with the probability
    from :func:`rank_relevance_probs`. Topics that come out with zero
    relevant documents are resampled.
    """
    check_synth(count=count)
    probs = rank_relevance_probs(n_docs, prevalence, decay)
    rng = np.random.default_rng(check_seed(seed))
    rankings = []
    for _ in range(count):
        for _ in range(1000):
            labels = (rng.random(n_docs) < probs).astype(np.int64)
            if labels.any():
                break
        else:
            raise ConfigError(
                f"could not sample a topic with any relevant document "
                f"(prevalence {prevalence}, n_docs {n_docs})"
            )
        rankings.append(labels)
    return Collection.of([f"synth-{k:04d}" for k in range(count)], rankings)


def _topics(collection: Collection):
    """Each topic's id, generated doc ids (``<topic>-d<rank:06d>``, in rank order) and labels."""
    labels, bounds = collection.labels.tolist(), collection.bounds.tolist()
    for topic_id, start, stop in zip(collection.topic_ids, bounds, bounds[1:]):
        yield topic_id, [f"{topic_id}-d{r:06d}" for r in range(1, stop - start + 1)], labels[start:stop]


def write_run_file(path, topics: Collection, tag: str = "tarstop") -> None:
    """Write topics as a run file; scores descend so rank order round-trips.

    Doc ids are generated as ``<topic>-d<rank:06d>``, so writing a parsed
    topic does not restore its original ids.
    """
    check_tag(tag)
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, docs, _ in _topics(topics):
            n = len(docs)
            for rank, doc in enumerate(docs, start=1):
                fh.write(f"{topic_id} Q0 {doc} {rank} {float(n - rank + 1)!r} {tag}\n")


def write_qrels_file(path, topics: Collection) -> None:
    """Write full judgements (including non-relevant) so parsing round-trips.

    Doc ids are generated as in :func:`write_run_file`, ``<topic>-d<rank:06d>``,
    so writing a parsed topic does not restore its original ids.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, docs, labels in _topics(topics):
            for doc, label in zip(docs, labels):
                fh.write(f"{topic_id} 0 {doc} {label}\n")
