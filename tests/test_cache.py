import ast
import hashlib
import io
import json
import logging
import os
import shutil
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tarstop.cache as cache
import tarstop.cli as cli
from tarstop.cache import Kind, cache_dir, entry_path, file_sha256, read_entry, write_entry
from tarstop.cli import main
from conftest import make_topic, topic_labels
from tarstop.corpus import TOPICS, assemble_topics, load_qrels, load_run
from tarstop.errors import ConfigError


@pytest.fixture
def collection(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--count", "3", "--docs", "80",
                 "--prevalence", "0.1", "--decay", "30", "--seed", "5"]) == 0
    return out / "synthetic.run", out / "synthetic.qrels"


@pytest.fixture
def odd_collection(tmp_path):
    """Two usable topics, one without relevant documents and a qrels-only
    topic, so ingest gives both kinds of warning."""
    run = tmp_path / "odd.run"
    qrels = tmp_path / "odd.qrels"
    lines = []
    for topic, labels in (("t2", [0, 1, 0, 1]), ("empty", [0, 0, 0]), ("t1", [1, 0, 0])):
        lines += [f"{topic} Q0 {topic}-{k} {k} {10 - k} x" for k in range(1, len(labels) + 1)]
    run.write_text("\n".join(lines) + "\n")
    qrels.write_text("ghost 0 g1 1\nt2 0 t2-2 1\nt2 0 t2-4 2\nempty 0 empty-1 0\nt1 0 t1-1 1\n"
                     "spook 0 s1 0\n")
    return run, qrels


def entries(directory):
    return sorted(directory.glob("*.npz"))


def as_pairs(topics):
    return [(topic_id, labels.tolist()) for topic_id, labels in zip(topics.topic_ids, topic_labels(topics))]


def cold(run, qrels):
    return as_pairs(assemble_topics(load_run(run), load_qrels(qrels)))


def entry_key(run, qrels):
    return hashlib.sha256(TOPICS.format + file_sha256(run) + file_sha256(qrels)).hexdigest()


def count_parses(monkeypatch):
    """Count calls to the ingest names ``tarstop.cli`` looks up."""
    calls = []
    for name in ("load_run", "load_qrels", "assemble_topics"):
        original = getattr(cli, name)

        def counted(*args, _name=name, _fn=original):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    return calls


@st.composite
def collections(draw):
    """Run and qrels text with shuffled lines, graded and missing
    judgements, possibly a topic without relevant documents and a
    qrels-only topic."""
    ids = draw(st.lists(st.text("abxy019-", min_size=1, max_size=5),
                        min_size=1, max_size=5, unique=True))
    run_lines, qrels_lines = [], []
    for topic in ids:
        labels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=25))
        for rank, rel in enumerate(labels, start=1):
            doc = f"{topic}-d{rank}"
            run_lines.append(f"{topic} Q0 {doc} {rank} {100 - rank}.5 run")
            if rank == 1 or rel or draw(st.booleans()):  # some stay unjudged
                qrels_lines.append(f"{topic} 0 {doc} {rel}")
    if draw(st.booleans()):
        qrels_lines.append("ghost 0 g1 1")
    run_lines = draw(st.permutations(run_lines))
    qrels_lines = draw(st.permutations(qrels_lines))
    return "\n".join(run_lines) + "\n", "\n".join(qrels_lines) + "\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=collections())
def test_hit_equals_a_cold_parse(tmp_path, topic_cache_dir, texts):
    run, qrels = tmp_path / "h.run", tmp_path / "h.qrels"
    run.write_text(texts[0])
    qrels.write_text(texts[1])
    expected = cold(run, qrels)
    if not expected:
        with pytest.raises(ConfigError, match="no usable topics"):
            cli._load_topics(run, qrels)
        return
    first = cli._load_topics(run, qrels)  # a miss, or a hit left by an earlier example
    entry = topic_cache_dir / f"{entry_key(run, qrels)}.npz"
    assert entry.is_file()
    second = cli._load_topics(run, qrels)  # a hit
    assert as_pairs(first) == as_pairs(second) == expected
    assert second.labels.dtype == second.bounds.dtype == second.gain.dtype == np.int64


def test_second_command_on_the_same_bytes_does_not_parse(tmp_path, collection, topic_cache_dir,
                                                        monkeypatch):
    run, qrels = collection
    calls = count_parses(monkeypatch)
    cli._load_topics(run, qrels)
    assert calls == ["load_run", "load_qrels", "assemble_topics"]
    assert [p.name for p in entries(topic_cache_dir)] == [f"{entry_key(run, qrels)}.npz"]
    calls.clear()
    assert as_pairs(cli._load_topics(run, qrels)) == cold(run, qrels)
    assert calls == []


def test_same_bytes_at_another_path_hit(tmp_path, collection, monkeypatch):
    run, qrels = collection
    cli._load_topics(run, qrels)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    run_copy = shutil.copy(run, elsewhere / "renamed.run")
    qrels_copy = shutil.copy(qrels, elsewhere / "renamed.qrels")
    calls = count_parses(monkeypatch)
    assert as_pairs(cli._load_topics(run_copy, qrels_copy)) == cold(run, qrels)
    assert calls == []


def test_other_bytes_miss(tmp_path, collection, topic_cache_dir):
    run, qrels = collection
    cli._load_topics(run, qrels)
    changed = tmp_path / "changed.qrels"
    changed.write_text(qrels.read_text().replace(" 0\n", " 1\n", 1))
    assert as_pairs(cli._load_topics(run, changed)) == cold(run, changed) != cold(run, qrels)
    assert len(entries(topic_cache_dir)) == 2


def _rewrite(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _damage_inconsistent(path):
    with np.load(path) as data:
        arrays = dict(data)
    arrays["lengths"] = arrays["lengths"] + 1
    _rewrite(path, **arrays)


def _damage_non_binary(path):
    with np.load(path) as data:
        arrays = dict(data)
    arrays["labels"][0] = 7
    _rewrite(path, **arrays)


def _damage_no_relevant(path):
    # a well-formed entry whose middle topic holds no relevant label, which
    # assemble_topics would have excluded
    with np.load(path) as data:
        arrays = dict(data)
    start, stop = np.cumsum(arrays["lengths"])[:2]
    arrays["labels"][start:stop] = 0
    _rewrite(path, **arrays)


def _damage_flip_label_byte(path):
    data = bytearray(path.read_bytes())
    index = data.index(b"labels.npy")  # the member's local header, then its data
    data[index + 400] ^= 0x01
    path.write_bytes(bytes(data))


DAMAGE = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "empty": lambda p: p.write_bytes(b""),
    "garbage": lambda p: p.write_bytes(b"not a cache entry\n" * 20),
    "bare-npy": lambda p: p.write_bytes(_npy_bytes(np.arange(3))),
    "flipped-byte": _damage_flip_label_byte,
    "missing-array": lambda p: _rewrite(p, topic_ids=np.array(["a"])),
    "inconsistent-lengths": _damage_inconsistent,
    "non-binary-label": _damage_non_binary,
    "topic-without-relevant": _damage_no_relevant,
}


def test_file_rewritten_while_loading_files_no_entry_under_the_old_bytes(tmp_path, collection,
                                                                      topic_cache_dir, monkeypatch):
    run, qrels = collection
    first = qrels.read_text()
    old_key = entry_key(run, qrels)
    original = cache.entry_path

    def rewrite_after_hashing(kind, sources):
        path = original(kind, sources)
        qrels.write_text(first.replace(" 0\n", " 1\n", 1))  # another writer, mid-command
        return path

    monkeypatch.setattr(cache, "entry_path", rewrite_after_hashing)
    assert as_pairs(cli._load_topics(run, qrels)) == cold(run, qrels)  # the new bytes, parsed
    monkeypatch.setattr(cache, "entry_path", original)
    assert entries(topic_cache_dir) == []
    qrels.write_text(first)
    assert as_pairs(cli._load_topics(run, qrels)) == cold(run, qrels)
    assert [p.name for p in entries(topic_cache_dir)] == [f"{old_key}.npz"]


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_entry_is_rebuilt(tmp_path, collection, topic_cache_dir, monkeypatch, damage):
    run, qrels = collection
    cli._load_topics(run, qrels)
    (entry,) = entries(topic_cache_dir)
    good = entry.read_bytes()
    DAMAGE[damage](entry)
    assert read_entry(entry, TOPICS) is None
    calls = count_parses(monkeypatch)
    assert as_pairs(cli._load_topics(run, qrels)) == cold(run, qrels)
    assert calls == ["load_run", "load_qrels", "assemble_topics"]  # a miss
    assert entry.read_bytes() == good  # rewritten
    assert [p.name for p in topic_cache_dir.iterdir()] == [entry.name]  # no temp file left


def test_warnings_replay_on_a_hit_with_identical_text(tmp_path, odd_collection, caplog,
                                                      monkeypatch):
    run, qrels = odd_collection

    def baseline(name):
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main(["baseline", "--method", "oracle", "--run", str(run), "--qrels", str(qrels),
                         "--target", "0.5", "--out", str(tmp_path / f"{name}.csv")]) == 0
        return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]

    logged = [baseline("miss")]
    calls = count_parses(monkeypatch)
    logged.append(baseline("hit"))
    assert calls == []
    assert logged[0] == logged[1] == [
        ("tarstop.cli", "WARNING", "qrels topic ghost not in run; ignored"),
        ("tarstop.cli", "WARNING", "qrels topic spook not in run; ignored"),
        ("tarstop.cli", "WARNING",
         "topic empty: no relevant documents, excluded (recall undefined)"),
    ]
    assert (tmp_path / "miss.csv").read_bytes() == (tmp_path / "hit.csv").read_bytes()


@pytest.mark.parametrize("silence", ["level", "disable"])
def test_silenced_warnings_still_store_the_entry_and_its_warnings(odd_collection, topic_cache_dir,
                                                                  monkeypatch, caplog, silence):
    run, qrels = odd_collection
    calls = count_parses(monkeypatch)
    logger = logging.getLogger("tarstop")
    try:
        if silence == "level":
            logger.setLevel(logging.ERROR)
        else:
            logging.disable(logging.WARNING)
        for _ in range(2):
            assert cli._load_topics(run, qrels).topic_ids == ("t2", "t1")
    finally:
        logger.setLevel(logging.NOTSET)
        logging.disable(logging.NOTSET)
    assert calls == ["load_run", "load_qrels", "assemble_topics"]  # one parse
    assert len(entries(topic_cache_dir)) == 1
    with caplog.at_level("WARNING"):
        cli._load_topics(run, qrels)  # a hit, no longer silenced
    assert calls == ["load_run", "load_qrels", "assemble_topics"]
    assert [r.getMessage() for r in caplog.records] == [
        "qrels topic ghost not in run; ignored", "qrels topic spook not in run; ignored",
        "topic empty: no relevant documents, excluded (recall undefined)"]


def test_ingest_error_prints_only_its_error_line(tmp_path, odd_collection, capsys, caplog):
    """Warnings are part of what ingest returns, so one that raises shows
    none of those it found first, such as the qrels-only topics here."""
    run, qrels = odd_collection
    unjudged = tmp_path / "unjudged.run"
    unjudged.write_text(run.read_text() + "nojudge Q0 n1 1 1.0 x\n")
    for _ in range(2):
        with caplog.at_level("WARNING"):
            assert main(["baseline", "--method", "oracle", "--run", str(unjudged),
                         "--qrels", str(qrels), "--out", str(tmp_path / "o.csv")]) == 2
        assert caplog.records == []
        assert capsys.readouterr().err == (
            f"error: {unjudged} with {qrels}: run topic 'nojudge' has no qrels entry\n")


def test_the_cache_imports_nothing_of_what_it_stores():
    tree = ast.parse(open(cache.__file__, encoding="utf-8").read())
    imported = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 0 and not node.module.startswith("tarstop") for node in imported)


def test_unwritable_cache_directory_still_exits_0(tmp_path, collection, monkeypatch, caplog):
    run, qrels = collection
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(blocker / "cache"))
    args = ["baseline", "--method", "budget", "--run", str(run), "--qrels", str(qrels)]
    with caplog.at_level("WARNING"):
        assert main([*args, "--out", str(tmp_path / "a.csv")]) == 0
    assert "not written, running uncached" in caplog.text
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    assert main([*args, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_malformed_run_exits_2_with_a_warm_entry_for_other_bytes(tmp_path, collection,
                                                                 topic_cache_dir, capsys):
    run, qrels = collection
    cli._load_topics(run, qrels)
    warm = entries(topic_cache_dir)
    broken = tmp_path / "broken.run"
    broken.write_text(run.read_text() + "synth-0000 Q0 short\n")
    for _ in range(2):  # nor is the error stored for the second attempt
        assert main(["baseline", "--method", "oracle", "--run", str(broken), "--qrels", str(qrels),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{broken}: run line 241: expected" in err
    assert entries(topic_cache_dir) == warm


def test_entry_of_the_first_format_is_never_served(tmp_path, topic_cache_dir, capsys):
    """Under format v1 a rank ``1_0`` was read as 10. A v1 entry for such
    bytes, which the parser now rejects, is never read."""
    run, qrels = tmp_path / "loose.run", tmp_path / "loose.qrels"
    run.write_text("t1 Q0 d1 1_0 2.0 x\nt1 Q0 d2 2 1.0 x\n")
    qrels.write_text("t1 0 d1 1\n")
    v1_key = hashlib.sha256(b"tarstop-topics-v1" + file_sha256(run) + file_sha256(qrels))
    v1_entry = topic_cache_dir / f"{v1_key.hexdigest()}.npz"
    write_entry(v1_entry, TOPICS.encode(make_topic([0, 1])))
    assert read_entry(v1_entry, TOPICS) is not None  # a usable entry, under the old key
    for _ in range(2):
        assert main(["baseline", "--method", "oracle", "--run", str(run), "--qrels", str(qrels),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert (f"{run}: run line 1: rank '1_0' is not a 64-bit integer"
                in capsys.readouterr().err)
    assert entries(topic_cache_dir) == [v1_entry]
    assert not (tmp_path / "o.csv").exists()


def test_no_usable_topics_is_not_stored(tmp_path, odd_collection, topic_cache_dir):
    run, qrels = odd_collection
    only_empty = tmp_path / "empty.run"
    only_empty.write_text("".join(line + "\n" for line in run.read_text().splitlines()
                                  if line.startswith("empty ")))
    for _ in range(2):
        with pytest.raises(ConfigError, match="no usable topics"):
            cli._load_topics(only_empty, qrels)
    assert entries(topic_cache_dir) == []


def test_topic_id_a_str_array_cannot_hold_is_not_stored(tmp_path, topic_cache_dir):
    run, qrels = tmp_path / "nul.run", tmp_path / "nul.qrels"
    run.write_text("t\x00 Q0 d1 1 2.0 x\nt\x00 Q0 d2 2 1.0 x\n")  # numpy drops a trailing NUL
    qrels.write_text("t\x00 0 d2 1\n")
    for _ in range(2):
        assert as_pairs(cli._load_topics(run, qrels)) == [("t\x00", [0, 1])]
    assert entries(topic_cache_dir) == []


def test_empty_cache_dir_variable_writes_nothing(tmp_path, collection, monkeypatch, later):
    run, qrels = collection
    home, xdg = tmp_path / "home", tmp_path / "xdg"
    home.mkdir()
    xdg.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    assert cache_dir() is None
    before = sorted(p.name for p in run.parent.iterdir())
    hashed = count_hashes(monkeypatch)
    for _ in range(2):  # the inputs are old enough for digest rows, were the cache on
        assert main(["baseline", "--method", "oracle", "--run", str(run), "--qrels", str(qrels),
                     "--out", str(tmp_path / "o.csv")]) == 0
    assert hashed == []
    assert list(home.iterdir()) == [] and list(xdg.iterdir()) == []
    assert sorted(p.name for p in run.parent.iterdir()) == before  # nothing beside the inputs


def test_cache_location(tmp_path, monkeypatch):
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(tmp_path / "explicit"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache_dir() == tmp_path / "explicit"
    monkeypatch.delenv("TARSTOP_CACHE_DIR")
    assert cache_dir() == tmp_path / "xdg" / "tarstop"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert cache_dir() == tmp_path / "home" / ".cache" / "tarstop"


def test_file_hash_streams_in_chunks(tmp_path):
    path = tmp_path / "big"
    data = np.random.default_rng(0).bytes(3 * (1 << 18) + 12345)
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).digest()


def test_key_of_fixed_bytes(tmp_path, topic_cache_dir):
    run, qrels = tmp_path / "k.run", tmp_path / "k.qrels"
    run.write_bytes(b"t1 Q0 d1 1 2.0 x\nt1 Q0 d2 2 1.0 x\n")
    qrels.write_bytes(b"t1 0 d2 1\n")
    key = "3df93e62e69b743e4a5e149592d5dda80734141c50c200933b1acd137b5e10c4"
    assert entry_path(TOPICS, (run, qrels)) == topic_cache_dir / f"{key}.npz"


@pytest.mark.parametrize("count", [1, 2, 3])
def test_key_of_sources_is_the_sha256_of_their_digests_in_order(tmp_path, topic_cache_dir, count):
    rng = np.random.default_rng(count)
    contents = [rng.bytes(size) for size in (3 * (1 << 18) + 7, 1000, 5 * (1 << 18))[:count]]
    sources = [tmp_path / f"source-{k}" for k in range(count)]
    for path, data in zip(sources, contents):
        path.write_bytes(data)
    kind = Kind(b"test-format", (), None, None)
    expected = hashlib.sha256(kind.format + b"".join(hashlib.sha256(d).digest() for d in contents))
    assert entry_path(kind, sources) == topic_cache_dir / f"{expected.hexdigest()}.npz"


def test_cold_key_hashes_each_source_once_in_order_on_the_calling_thread(tmp_path, collection,
                                                                        monkeypatch):
    run, qrels = collection
    hashed = []
    original = cache.file_sha256

    def recorded(path):
        hashed.append((path, threading.current_thread()))
        return original(path)

    monkeypatch.setattr(cache, "file_sha256", recorded)
    before = threading.active_count()
    for k, sources in enumerate([(run, qrels), (qrels, run)]):
        monkeypatch.setenv("TARSTOP_CACHE_DIR", str(tmp_path / f"cache-{k}"))  # no rows yet
        hashed.clear()
        entry_path(TOPICS, sources)
        assert hashed == [(source, threading.current_thread()) for source in sources]
        assert threading.active_count() == before


@pytest.mark.parametrize("when", ["before-hashing", "while-hashing"])
def test_file_vanishing_after_its_check_exits_2_naming_it(tmp_path, collection, topic_cache_dir,
                                                          monkeypatch, capsys, when):
    """A file removed between ``_require_file`` and the key: either it cannot
    be stat'ed, or it is removed after its stat and cannot be opened to hash."""
    run, qrels = collection
    if when == "before-hashing":
        require = cli._require_file

        def vanish_after_check(path, what):
            checked = require(path, what)
            if what == "qrels file":
                checked.unlink()
            return checked

        monkeypatch.setattr(cli, "_require_file", vanish_after_check)
    else:
        original = cache.file_sha256

        def vanish_then_hash(path):
            if path == qrels:
                qrels.unlink()
            return original(path)

        monkeypatch.setattr(cache, "file_sha256", vanish_then_hash)
    assert main(["baseline", "--method", "budget", "--run", str(run), "--qrels", str(qrels),
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert f"No such file or directory: '{qrels}'" in capsys.readouterr().err
    assert entries(topic_cache_dir) == []


def _age(path, seconds):
    os.utime(path, ns=(seconds * 10**9, seconds * 10**9))


def synth_pair(tmp_path, seed):
    out = tmp_path / f"pair-{seed}"
    assert main(["synth", "--out", str(out), "--count", "3", "--docs", "80", "--prevalence", "0.1",
                 "--decay", "30", "--seed", str(seed)]) == 0
    return out / "synthetic.run", out / "synthetic.qrels"


def test_oldest_entries_are_evicted_past_the_cap(tmp_path, topic_cache_dir, monkeypatch):
    pairs = [synth_pair(tmp_path, seed) for seed in (1, 2, 3)]
    names = []
    for age, pair in enumerate(pairs[:2], start=1):
        cli._load_topics(*pair)
        (name,) = set(entries(topic_cache_dir)) - set(names)
        _age(name, 1_000_000 * age)  # the first pair's entry is the oldest
        names.append(name)
    size = names[0].stat().st_size
    assert names[1].stat().st_size == size  # same shapes, same entry size
    monkeypatch.setattr(cache, "MAX_BYTES", 2 * size + 1)  # room for two entries
    cli._load_topics(*pairs[2])
    kept = entries(topic_cache_dir)
    assert names[0] not in kept and names[1] in kept and len(kept) == 2
    calls = count_parses(monkeypatch)
    evictions = []
    monkeypatch.setattr(cache, "evict", lambda keep: evictions.append(keep))
    for pair in pairs[1:]:  # kept entries still serve hits, which scan nothing
        assert as_pairs(cli._load_topics(*pair)) == cold(*pair)
    assert calls == [] and evictions == []


def test_entry_just_written_is_never_evicted(tmp_path, collection, topic_cache_dir, monkeypatch):
    topic_cache_dir.joinpath("notes.txt").write_bytes(b"x" * 10_000)  # not an entry
    older = synth_pair(tmp_path, 9)
    cli._load_topics(*older)
    (old,) = entries(topic_cache_dir)
    _age(old, 4_000_000_000)  # newer than the entry about to be written
    monkeypatch.setattr(cache, "MAX_BYTES", 1)
    cli._load_topics(*collection)
    assert [p.name for p in entries(topic_cache_dir)] == [f"{entry_key(*collection)}.npz"]
    assert topic_cache_dir.joinpath("notes.txt").exists()
    calls = count_parses(monkeypatch)
    cli._load_topics(*collection)
    assert calls == []


def test_only_an_inconsistency_in_decode_is_a_miss(tmp_path):
    entry = tmp_path / "entry.npz"
    write_entry(entry, {"a": np.ones(2)})

    def decode_with(error):
        def decode(arrays):
            raise error
        return Kind(b"test", ("a",), None, decode)

    assert read_entry(entry, decode_with(ValueError("inconsistent"))) is None
    for fault in (TypeError, KeyError, AttributeError):  # a decoder's bug is not hidden as a miss
        with pytest.raises(fault):
            read_entry(entry, decode_with(fault("a bug")))


def test_pipeline_outputs_are_identical_cold_warm_and_off(tmp_path, collection, topic_cache_dir,
                                                         monkeypatch):
    run, qrels = collection
    data = ["--run", str(run), "--qrels", str(qrels)]

    def pipeline(out):
        out.mkdir()
        methods = ("oracle", "knee", "budget")
        for method in methods:
            assert main(["baseline", "--method", method, *data, "--batches", "10",
                         "--out", str(out / f"{method}.csv")]) == 0
        results = [a for m in methods for a in ("--results", str(out / f"{m}.csv"))]
        assert main(["eval", *results, *data, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    outputs = [pipeline(tmp_path / "cold")]
    assert len(entries(topic_cache_dir)) == 1
    calls = count_parses(monkeypatch)
    outputs.append(pipeline(tmp_path / "warm"))
    assert calls == []
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    outputs.append(pipeline(tmp_path / "off"))
    assert calls.count("load_run") == 4
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 5


@pytest.fixture
def checkpoint(tmp_path, collection):
    run, qrels = collection
    assert main(["train", "--run", str(run), "--qrels", str(qrels),
                 "--out", str(tmp_path / "model"), "--target", "0.9", "--batches", "6",
                 "--timesteps", "200", "--n-steps", "10", "--n-envs", "2",
                 "--minibatch-size", "20"]) == 0
    return tmp_path / "model" / "policy-t0.9.json"


def stop(checkpoint, collection, out):
    run, qrels = collection
    return main(["stop", "--checkpoint", str(checkpoint), "--run", str(run), "--qrels", str(qrels),
                 "--out", str(out)])


def test_stop_outputs_are_identical_cold_warm_and_off(tmp_path, collection, checkpoint,
                                                      topic_cache_dir, monkeypatch):
    for entry in entries(topic_cache_dir):  # the pair's, left by train
        entry.unlink()
    outputs = [tmp_path / f"{name}.csv" for name in ("cold", "warm", "off")]
    assert stop(checkpoint, collection, outputs[0]) == 0
    assert len(entries(topic_cache_dir)) == 1  # the pair's: a checkpoint is not cached
    calls = count_parses(monkeypatch)
    monkeypatch.setattr(json, "load", lambda fh, _load=json.load: calls.append("json") or _load(fh))
    assert stop(checkpoint, collection, outputs[1]) == 0
    assert calls == ["json"]  # the checkpoint is read by every stop; the pair is a hit
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    assert stop(checkpoint, collection, outputs[2]) == 0
    assert calls == ["json", "json", "load_run", "load_qrels", "assemble_topics"]
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


def test_unwritable_cache_directory_only_warns_for_stop(tmp_path, collection, checkpoint,
                                                        monkeypatch, caplog):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(blocker / "cache"))
    with caplog.at_level("WARNING"):
        assert stop(checkpoint, collection, tmp_path / "a.csv") == 0
    assert caplog.text.count("not written, running uncached") == 1  # the pair
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    assert stop(checkpoint, collection, tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_empty_cache_dir_variable_writes_nothing_for_stop(tmp_path, collection, checkpoint,
                                                         monkeypatch):
    home, xdg = tmp_path / "home", tmp_path / "xdg"
    home.mkdir()
    xdg.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    beside = [checkpoint.parent, collection[0].parent]
    before = [sorted(p.name for p in d.iterdir()) for d in beside]
    for _ in range(2):
        assert stop(checkpoint, collection, tmp_path / "x.csv") == 0
    assert list(home.iterdir()) == [] and list(xdg.iterdir()) == []
    assert [sorted(p.name for p in d.iterdir()) for d in beside] == before


# The digest memo: rows keyed by each file's stat, written only for files
# older than the racy margin on the clock the memo reads.


@pytest.fixture
def later(monkeypatch):
    """Run the memo's clock ahead by more than the racy margin, so every file
    looks old enough for a row."""
    monkeypatch.setattr(cache, "_now_ns", lambda: time.time_ns() + cache.RACY_NS + 10**9)


def rows(directory):
    memo = directory / cache.MEMO
    return sorted(p.name for p in memo.iterdir()) if memo.is_dir() else []


def row_of(directory, path):
    return directory / cache.MEMO / cache._row_name(os.stat(path))


def count_hashes(monkeypatch):
    hashed = []
    original = cache.file_sha256

    def counted(path):
        hashed.append(os.path.basename(path))
        return original(path)

    monkeypatch.setattr(cache, "file_sha256", counted)
    return hashed


def oracle(collection, out):
    run, qrels = collection
    assert main(["baseline", "--method", "oracle", "--run", str(run), "--qrels", str(qrels),
                 "--out", str(out)]) == 0
    return out.read_bytes()


def test_warm_command_with_rows_hashes_and_scans_nothing(tmp_path, collection, topic_cache_dir,
                                                        monkeypatch, later):
    cold_bytes = oracle(collection, tmp_path / "cold.csv")
    assert rows(topic_cache_dir) == sorted(row_of(topic_cache_dir, p).name for p in collection)
    hashed = count_hashes(monkeypatch)
    scans = []
    monkeypatch.setattr(cache, "_listing", lambda *args: scans.append(args) or [])
    calls = count_parses(monkeypatch)
    assert oracle(collection, tmp_path / "warm.csv") == cold_bytes
    assert hashed == [] and scans == [] and calls == []
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    assert oracle(collection, tmp_path / "off.csv") == cold_bytes


def test_file_younger_than_the_margin_gets_no_row(tmp_path, collection, topic_cache_dir,
                                                 monkeypatch):
    run, qrels = collection
    hashed = count_hashes(monkeypatch)
    for _ in range(2):
        cli._load_topics(run, qrels)
    assert rows(topic_cache_dir) == []
    assert sorted(hashed) == sorted([run.name, qrels.name] * 3)  # key, re-hash, key
    # the margin is strict: a ctime exactly that old gets no row, an older one does
    monkeypatch.setattr(cache, "_now_ns", lambda: qrels.stat().st_ctime_ns + cache.RACY_NS)
    cli._load_topics(run, qrels)
    older = run.stat().st_ctime_ns < qrels.stat().st_ctime_ns  # synth writes the run first
    assert rows(topic_cache_dir) == [row_of(topic_cache_dir, run).name] * older


@pytest.mark.parametrize("restore_mtime", [False, True])
def test_same_size_rewrite_in_place_is_rehashed(collection, topic_cache_dir, monkeypatch, later,
                                                restore_mtime):
    run, qrels = collection
    old_pairs = as_pairs(cli._load_topics(run, qrels))
    before = qrels.stat()
    assert row_of(topic_cache_dir, qrels).is_file()
    at = qrels.read_bytes().index(b" 0\n")
    # The clock is run ahead, so this file got a row while young: write it
    # again only in a later timestamp tick, as the margin ensures for real.
    time.sleep(0.02)
    with open(qrels, "r+b") as fh:  # one judgement flipped: same inode, same size
        fh.seek(at + 1)
        fh.write(b"1")
    if restore_mtime:  # as touch -d would
        os.utime(qrels, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = qrels.stat()
    assert (after.st_dev, after.st_ino, after.st_size) == (before.st_dev, before.st_ino, before.st_size)
    assert after.st_mtime_ns - before.st_mtime_ns < 10**9  # within one second
    assert (after.st_mtime_ns == before.st_mtime_ns) == restore_mtime
    hashed = count_hashes(monkeypatch)
    assert as_pairs(cli._load_topics(run, qrels)) == cold(run, qrels) != old_pairs
    assert hashed.count(qrels.name) == 2  # the key, then the re-hash after the parse
    assert len(entries(topic_cache_dir)) == 2


DAMAGED_ROWS = {
    "empty": lambda row: b"",
    "short": lambda row: row[:31],
    "digest-only": lambda row: row[:32],
    "long": lambda row: row + b"\n",
    "flipped-digest-byte": lambda row: bytes([row[0] ^ 1]) + row[1:],
    "flipped-check-byte": lambda row: row[:-1] + bytes([row[-1] ^ 1]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_ROWS))
def test_damaged_row_is_ignored_and_rewritten(tmp_path, collection, topic_cache_dir, monkeypatch,
                                              later, damage):
    run, qrels = collection
    cold_bytes = oracle(collection, tmp_path / "cold.csv")
    row = row_of(topic_cache_dir, qrels)
    good = row.read_bytes()
    row.write_bytes(DAMAGED_ROWS[damage](good))
    assert cache._recalled(row.parent, row.name) is None
    hashed = count_hashes(monkeypatch)
    assert oracle(collection, tmp_path / "warm.csv") == cold_bytes
    assert hashed == [qrels.name]  # the run's row still serves
    assert row.read_bytes() == good
    monkeypatch.setenv("TARSTOP_CACHE_DIR", "")
    assert oracle(collection, tmp_path / "off.csv") == cold_bytes


def test_file_changed_while_hashed_gets_no_row(collection, topic_cache_dir, monkeypatch, later):
    run, qrels = collection
    original = cache.file_sha256

    def hash_then_change(path):
        digest = original(path)
        if path == qrels:
            with open(qrels, "a") as fh:  # a writer appending while the hash ran
                fh.write("t9 0 late 1\n")
        return digest

    monkeypatch.setattr(cache, "file_sha256", hash_then_change)
    entry_path(TOPICS, (run, qrels))
    assert rows(topic_cache_dir) == [row_of(topic_cache_dir, run).name]


def test_hard_link_made_before_the_first_hash_reuses_the_row(tmp_path, collection, topic_cache_dir,
                                                            monkeypatch, later):
    run, qrels = collection
    linked = tmp_path / "linked.qrels"
    os.link(qrels, linked)  # moves the inode's ctime, so it comes before the row
    cli._load_topics(run, qrels)
    assert len(rows(topic_cache_dir)) == 2
    hashed = count_hashes(monkeypatch)
    calls = count_parses(monkeypatch)
    assert as_pairs(cli._load_topics(run, linked)) == cold(run, qrels)
    assert hashed == [] and calls == []
    assert len(rows(topic_cache_dir)) == 2


def test_file_rewritten_while_loading_with_its_row_present_files_no_entry_under_the_old_bytes(
        collection, topic_cache_dir, monkeypatch, later):
    """As the test above, but the key comes from the rows: the re-hash after
    the parse reads both files' bytes and consults no row."""
    run, qrels = collection
    first = qrels.read_text()
    cli._load_topics(run, qrels)
    assert len(rows(topic_cache_dir)) == 2
    (entry,) = entries(topic_cache_dir)
    entry.unlink()  # a miss whose key comes from the rows
    original = cache.entry_path

    def rewrite_after_the_key(kind, sources):
        path = original(kind, sources)
        qrels.write_text(first.replace(" 0\n", " 1\n", 1))  # another writer, mid-command
        return path

    monkeypatch.setattr(cache, "entry_path", rewrite_after_the_key)
    hashed = count_hashes(monkeypatch)
    assert as_pairs(cli._load_topics(run, qrels)) == cold(run, qrels)
    assert sorted(hashed) == sorted([run.name, qrels.name])  # the re-hash only
    assert entries(topic_cache_dir) == []


def test_rows_are_pruned_oldest_first_to_the_bound(tmp_path, topic_cache_dir, monkeypatch, later):
    monkeypatch.setattr(cache, "MAX_ROWS", 3)
    pairs = [synth_pair(tmp_path, seed) for seed in (1, 2, 3, 4)]
    for age, pair in enumerate(pairs, start=1):
        cli._load_topics(*pair)
        for k, path in enumerate(pair):  # this pair's rows are the newest, the run's older
            _age(row_of(topic_cache_dir, path), 1_000_000 * age + k)
        assert len(rows(topic_cache_dir)) == min(2 * age, 3)
    kept = [row_of(topic_cache_dir, path).name for path in (pairs[2][1], *pairs[3])]
    assert rows(topic_cache_dir) == sorted(kept)


def test_stale_temporary_files_are_removed(tmp_path, collection, topic_cache_dir, later):
    """A ``.tmp`` file a killed write left behind goes once it is an hour old;
    a younger one may be a write in flight and stays."""
    memo = topic_cache_dir / cache.MEMO
    memo.mkdir()
    planted = {}
    for directory in (topic_cache_dir, memo):
        for name, age in (("stale", cache.STALE_NS + 10**9 * 60), ("fresh", 10**9 * 60)):
            path = directory / f"{name}-write.tmp"
            path.write_bytes(b"x" * 100)
            when = time.time_ns() - age
            os.utime(path, ns=(when, when))
            planted[path] = name == "fresh"
    cli._load_topics(*collection)  # stores an entry and two rows, trimming both directories
    assert len(entries(topic_cache_dir)) == 1
    assert len(rows(topic_cache_dir)) == 3  # two rows and the fresh .tmp file
    assert {path: path.exists() for path in planted} == planted
