"""Content-addressed cache of assembled topics, shared by every command.

Each ``train``, ``stop``, ``baseline`` and ``eval`` command ingests a run
and a qrels file. The first one to ingest a pair stores what ingest
produced: the topic ids, their label vectors and the warnings ingest
logged. A later command on the same bytes, at any path, loads those in
place of parsing, builds every :class:`~tarstop.corpus.Topic` through its
constructor and logs the same warnings, so its outputs are byte-identical
to an uncached run.

- Key: sha256 over :data:`FORMAT` and the sha256 of each file's bytes,
  hashed in chunks so no file is held whole beside the parse.
- Value: one uncompressed ``.npz`` (read with ``allow_pickle=False``)
  holding ``topic_ids``, per-topic ``lengths``, every label concatenated
  as ``uint8`` and the ``warnings`` to replay; about one byte per ranked
  document.
- Location: ``$TARSTOP_CACHE_DIR`` if set (set but empty turns the cache
  off), else ``$XDG_CACHE_HOME/tarstop``, else ``~/.cache/tarstop``.
  Never beside the inputs.

A missing, unreadable or inconsistent entry is a miss: the command parses
and rewrites it. An entry is written to a temporary file in the cache
directory and renamed into place; when the directory cannot be written the
command runs uncached. Parse and configuration errors are never stored.
"""

from __future__ import annotations

import logging
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import Topic
from .corpus import log as corpus_log

log = logging.getLogger(__name__)

# Part of every key: change it whenever the entry layout or the meaning of
# what ingest produces changes, so old entries are never read.
FORMAT = b"tarstop-topics-v1"
ENV_VAR = "TARSTOP_CACHE_DIR"
_ARRAYS = ("topic_ids", "lengths", "labels", "warnings")
_CHUNK = 1 << 18


def cache_dir() -> Path | None:
    """The cache directory, or None when the cache is off."""
    explicit = os.environ.get(ENV_VAR)
    if explicit is not None:
        return Path(explicit) if explicit else None
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "tarstop"
    try:
        return Path.home() / ".cache" / "tarstop"
    except RuntimeError:  # no home directory to be found
        return None


def file_sha256(path) -> bytes:
    """sha256 of a file's bytes, read a chunk at a time into one buffer."""
    import hashlib  # see entry_path

    digest = hashlib.sha256()
    buffer = bytearray(_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while n := fh.readinto(buffer):
            digest.update(view[:n])
    return digest.digest()


def entry_path(run_file, qrels_file) -> Path | None:
    """Where the entry for this run/qrels pair lives, or None when the cache is off."""
    directory = cache_dir()
    if directory is None:
        return None
    # Loading hashlib maps OpenSSL, about 3.5 MB of resident memory, so only
    # a command that uses the cache imports it.
    import hashlib

    key = hashlib.sha256(FORMAT + file_sha256(run_file) + file_sha256(qrels_file))
    return directory / f"{key.hexdigest()}.npz"


def read_entry(path: Path) -> tuple[list[Topic], list[str]] | None:
    """The topics and warnings stored at ``path``, or None if there is no
    usable entry: missing, unreadable, truncated or inconsistent."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            return None  # a bare .npy array
        with data:
            if sorted(data.files) != sorted(_ARRAYS):
                return None
            ids, lengths, labels, warnings = (data[name] for name in _ARRAYS)
        if not (ids.ndim == lengths.ndim == labels.ndim == warnings.ndim == 1
                and ids.dtype.kind == warnings.dtype.kind == "U"
                and lengths.dtype.kind == "i" and labels.dtype == np.uint8
                and len(ids) == len(lengths) and len(set(ids.tolist())) == len(ids)
                and (lengths > 0).all() and int(lengths.sum()) == len(labels)):
            return None
        parts = np.split(labels, np.cumsum(lengths)[:-1])
        topics = [Topic(topic_id, part) for topic_id, part in zip(ids.tolist(), parts)]
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    return topics, warnings.tolist()


def write_entry(path: Path, topics: list[Topic], warnings: list[str]) -> None:
    """Store ``topics`` and ``warnings`` at ``path``. Nothing is stored when
    the values would not read back equal, and a directory that cannot be
    written costs a warning, not the command."""
    ids = np.array([t.topic_id for t in topics], dtype=str)
    replay = np.array(warnings, dtype=str)
    if ids.tolist() != [t.topic_id for t in topics] or replay.tolist() != warnings:
        return  # e.g. a trailing NUL, which numpy's str arrays drop
    arrays = {
        "topic_ids": ids,
        "lengths": np.array([t.n_docs for t in topics], dtype=np.int64),
        "labels": np.concatenate([t.labels for t in topics]).astype(np.uint8),
        "warnings": replay,
    }
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=path.parent, suffix=".tmp", delete=False) as fh:
            tmp = fh.name
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except OSError as exc:
        log.warning("topic cache %s not written, running uncached: %s", path.parent, exc)
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


class _Recorder(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@contextmanager
def _recorded_warnings():
    """The warnings ``tarstop.corpus`` logs inside the block, as messages."""
    recorder = _Recorder()
    corpus_log.addHandler(recorder)
    try:
        yield recorder.messages
    finally:
        corpus_log.removeHandler(recorder)


def cached_topics(run_file, qrels_file, ingest: Callable[[], list[Topic]]) -> list[Topic]:
    """The topics of a run/qrels pair: from the cache on a hit, else from
    ``ingest()``, whose result is then stored."""
    path = entry_path(run_file, qrels_file)
    hit = read_entry(path) if path is not None else None
    if hit is not None:
        topics, warnings = hit
        for message in warnings:
            corpus_log.warning("%s", message)
        return topics
    with _recorded_warnings() as warnings:
        topics = ingest()
    # A warning logged below the corpus logger's level is never recorded,
    # so such a run cannot know what a hit would have to replay.
    if path is not None and topics and corpus_log.isEnabledFor(logging.WARNING):
        write_entry(path, topics, warnings)
    return topics
