"""Content-addressed cache of parsed inputs, shared by every command.

The first command to parse an input stores what the parse produced; a
later command on the same bytes, at any path, loads it and rebuilds the
value through the same constructors and checks, so outputs are
byte-identical to an uncached run. It knows nothing of what it stores: a
:class:`Kind`, declared beside its parser, says how (``tarstop.corpus.TOPICS``,
a run/qrels pair's collection and ingest warnings, is the one kind today).

An entry's key is the sha256 over its kind's ``format`` and each file's
sha256 (the files are hashed at once, each but the largest on a thread of
its own, and again after the parse, and nothing is stored if one changed);
its value is one ``.npz``, read with ``allow_pickle=False``. It lives in
``$TARSTOP_CACHE_DIR`` if set (set but empty turns the cache off), else
``$XDG_CACHE_HOME/tarstop``, else ``~/.cache/tarstop``. A missing,
unreadable or inconsistent entry is a miss: the input is parsed and the
entry rewritten, through a temporary file renamed into place. Once a miss
has stored its entry, the oldest entries by modification time are removed
until the directory's entries hold less than :data:`MAX_BYTES`, never the
one just written. A directory that cannot be written only costs a warning.
Parse and configuration errors are never stored.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import zipfile
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

ENV_VAR = "TARSTOP_CACHE_DIR"
_CHUNK = 1 << 18
MAX_BYTES = 512 << 20  # the entries a cache directory keeps, in bytes


class Kind(NamedTuple):
    """One kind of input: ``format`` is part of every key (change it when the
    entry layout or a parse's meaning changes); an entry holds exactly the
    ``arrays`` that ``encode`` makes of a value (None: store nothing) and
    that ``decode`` turns back, raising ValueError if they are inconsistent."""

    format: bytes
    arrays: tuple[str, ...]
    encode: Callable[[Any], dict[str, np.ndarray] | None]
    decode: Callable[[dict[str, np.ndarray]], Any]


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


def _digests(sources) -> list[bytes]:
    """Each file's sha256, all hashed at once: the calling thread takes the
    largest file and one thread each other (hashlib and file reads release
    the GIL). A worker's exception is raised here, once every worker ended."""
    sizes = [os.stat(source).st_size for source in sources]
    largest = sizes.index(max(sizes))
    digests: list = [None] * len(sources)

    def work(k):
        try:
            digests[k] = file_sha256(sources[k])
        except BaseException as exc:  # raised on the calling thread below
            digests[k] = exc

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(sources)) if k != largest]
    for thread in threads:
        thread.start()
    try:
        digests[largest] = file_sha256(sources[largest])
    finally:
        for thread in threads:
            thread.join()
    for digest in digests:
        if isinstance(digest, BaseException):
            raise digest
    return digests


def entry_path(kind: Kind, sources) -> Path | None:
    """Where the entry of ``kind`` for these files (``sources``, their paths)
    lives, or None when the cache is off."""
    directory = cache_dir()
    if directory is None:
        return None
    # Loading hashlib maps OpenSSL, about 3.5 MB of resident memory, so only
    # a command that uses the cache imports it.
    import hashlib

    key = hashlib.sha256(kind.format + b"".join(_digests(sources)))
    return directory / f"{key.hexdigest()}.npz"


def read_entry(path: Path, kind: Kind):
    """The value of ``kind`` stored at ``path``, or None if there is no
    usable entry: missing, unreadable, truncated or inconsistent."""
    try:
        with np.load(path, allow_pickle=False) as data:  # a bare .npy array has no ``with``
            if sorted(data.files) != sorted(kind.arrays):
                return None
            arrays = {name: data[name] for name in kind.arrays}
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, zipfile.BadZipFile):
        return None
    try:
        return kind.decode(arrays)
    except ValueError:
        return None


def write_entry(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Store ``arrays`` at ``path``, then trim the directory (:func:`evict`);
    a directory that cannot be written costs a warning, not the command."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=path.parent, suffix=".tmp", delete=False) as fh:
            tmp = fh.name
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except OSError as exc:
        log.warning("input cache %s not written, running uncached: %s", path.parent, exc)
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
        return
    evict(path)


def evict(keep: Path) -> None:
    """Remove the oldest entries beside ``keep`` by modification time until
    those left, ``keep`` among them, hold less than :data:`MAX_BYTES`."""
    try:
        entries = []
        with os.scandir(keep.parent) as listing:
            for entry in listing:
                if entry.name.endswith(".npz"):
                    try:
                        stat = entry.stat()
                    except FileNotFoundError:  # removed by another command meanwhile
                        continue
                    entries.append((stat.st_mtime_ns, stat.st_size, entry.name))
        total = sum(size for _, size, _ in entries)
        for _, size, name in sorted(entries):
            if total < MAX_BYTES:
                break
            if name != keep.name:
                (keep.parent / name).unlink(missing_ok=True)
                total -= size
    except OSError as exc:
        log.warning("input cache %s not trimmed: %s", keep.parent, exc)


def cached(kind: Kind, sources, parse: Callable[[], Any]) -> Any:
    """The value of ``kind`` for these sources (see :func:`entry_path`):
    loaded from the cache, else ``parse()``, whose value is then stored if
    the sources still hash to the same key."""
    path = entry_path(kind, sources)
    value = read_entry(path, kind) if path is not None else None
    if value is not None:
        return value
    value = parse()
    arrays = kind.encode(value) if path is not None else None
    if arrays is not None and entry_path(kind, sources) == path:
        write_entry(path, arrays)
    return value
