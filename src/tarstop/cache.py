"""Content-addressed cache of parsed inputs, shared by every command.

The first command to parse an input stores what the parse produced; a
later command on the same bytes, at any path, loads it and rebuilds the
value through the same constructors and checks, so outputs are
byte-identical to an uncached run. It knows nothing of what it stores: a
:class:`Kind`, declared beside its parser, says how (``tarstop.corpus.TOPICS``,
a run/qrels pair's collection and ingest warnings, is the one kind today).

An entry's key is the sha256 over its kind's ``format`` and each file's
sha256 (the files are hashed one after another, and again after the parse,
and nothing is stored if one changed); its value is one ``.npz``, read with
``allow_pickle=False``. It lives in ``$TARSTOP_CACHE_DIR`` if set (set but
empty turns the cache off), else ``$XDG_CACHE_HOME/tarstop``, else
``~/.cache/tarstop``. A missing, unreadable or inconsistent entry is a miss:
the input is parsed and the entry rewritten, through a temporary file
renamed into place. Once a miss has stored its entry, the oldest entries by
modification time are removed until the directory's entries hold less than
:data:`MAX_BYTES`, never the one just written. A directory that cannot be
written only costs a warning. Parse and configuration errors are never
stored.

A file's sha256 is remembered in the directory's ``digests/`` memo: one
row per file version, named by the file's ``(st_dev, st_ino, st_size,
st_mtime_ns, st_ctime_ns)`` and holding the digest and a check of it, so a
warm command stats its files and reads their rows instead of hashing them.
Any change to a file's bytes moves its ctime, which ``utime`` cannot set
back; a row is written only for a file whose stat did not change while it
was hashed and whose ctime is older than the clock read before hashing by
:data:`RACY_NS` (the "racy clean" rule of git's index), so a write in the
same timestamp tick as the hashed version is never hidden. A missing,
short or damaged row is ignored and the file hashed. The hash after a
miss's parse reads the bytes and never the memo. Writing a row removes
the oldest rows past :data:`MAX_ROWS`; a hit scans nothing. Trimming either
directory also removes the temporary files of writes killed before their
rename, once they are :data:`STALE_NS` old.
"""

from __future__ import annotations

import logging
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

ENV_VAR = "TARSTOP_CACHE_DIR"
_CHUNK = 1 << 18
MAX_BYTES = 512 << 20  # the entries a cache directory keeps, in bytes
MEMO = "digests"  # the subdirectory of remembered file digests
MAX_ROWS = 1024  # the rows the memo keeps
RACY_NS = 2 * 10**9  # a file whose ctime is this recent gets no row
STALE_NS = 3600 * 10**9  # a temporary file this old is a killed write's
_now_ns = time.time_ns  # the clock RACY_NS and STALE_NS are read against


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
    import hashlib  # see _key

    digest = hashlib.sha256()
    buffer = bytearray(_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while n := fh.readinto(buffer):
            digest.update(view[:n])
    return digest.digest()


def _row_name(stat) -> str:
    """The memo row of a file version: the stat fields a write moves."""
    fields = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)
    return "-".join(f"{field:x}" for field in fields)


def _row(name: str, digest: bytes) -> bytes:
    """A memo row's bytes: the digest, then the sha256 of the name and digest."""
    import hashlib  # see _key

    return digest + hashlib.sha256(name.encode() + digest).digest()


def _recalled(memo: Path, name: str) -> bytes | None:
    """The digest the row ``name`` holds, or None: missing, short or damaged."""
    try:
        with open(memo / name, "rb") as fh:
            row = fh.read(65)
    except OSError:
        return None
    digest = row[:32]
    return digest if row == _row(name, digest) else None


def _remember(memo: Path, rows: dict[str, bytes]) -> None:
    """Write each row (name: digest), then trim the memo to :data:`MAX_ROWS`
    rows, keeping these. A row that cannot be written is only a lost hit."""
    try:
        for name, digest in rows.items():
            _write_file(memo / name, lambda fh: fh.write(_row(name, digest)))
        listed = _listing(memo, "")
        for _, _, name in listed[: max(len(listed) - MAX_ROWS, 0)]:
            if name not in rows:
                (memo / name).unlink(missing_ok=True)
    except OSError as exc:
        log.debug("digest memo %s not written: %s", memo, exc)


def _digests(sources, memo: Path | None = None) -> list[bytes]:
    """Each file's sha256, one file after another: from its row in the
    ``memo`` directory if given, else hashed. A hashed file gets a row if the
    memo is given, its stat did not change while it was hashed and its ctime
    is older than the clock read before the first stat by :data:`RACY_NS`."""
    now = _now_ns()
    digests, rows = [], {}
    for source in sources:
        stat = os.stat(source)
        name = _row_name(stat)
        digest = None if memo is None else _recalled(memo, name)
        if digest is None:
            digest = file_sha256(source)
            if memo is not None and stat.st_ctime_ns < now - RACY_NS:
                try:
                    if _row_name(os.stat(source)) == name:
                        rows[name] = digest
                except OSError:  # gone since it was hashed: no row
                    pass
        digests.append(digest)
    if rows:
        _remember(memo, rows)
    return digests


def _key(kind: Kind, digests: list[bytes]) -> str:
    """An entry's key: the sha256 over the kind's format and its files' digests."""
    # Loading hashlib maps OpenSSL, about 3.5 MB of resident memory, so only
    # a command that uses the cache imports it.
    import hashlib

    return hashlib.sha256(kind.format + b"".join(digests)).hexdigest()


def entry_path(kind: Kind, sources) -> Path | None:
    """Where the entry of ``kind`` for these files (``sources``, their paths)
    lives, or None when the cache is off."""
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"{_key(kind, _digests(sources, directory / MEMO))}.npz"


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


def _write_file(path: Path, write: Callable[[Any], Any]) -> None:
    """Make ``path`` by ``write(fh)`` on a temporary file beside it, renamed
    into place; if that raises, the temporary file is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = tempfile.NamedTemporaryFile(dir=path.parent, suffix=".tmp", delete=False)
    try:
        with fh:
            write(fh)
        os.replace(fh.name, path)
    except BaseException:
        Path(fh.name).unlink(missing_ok=True)
        raise


def write_entry(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Store ``arrays`` at ``path``, then trim the directory (:func:`evict`);
    a directory that cannot be written costs a warning, not the command."""
    try:
        _write_file(path, lambda fh: np.savez(fh, **arrays))
    except OSError as exc:
        log.warning("input cache %s not written, running uncached: %s", path.parent, exc)
        return
    evict(path)


def _listing(directory: Path, suffix: str) -> list[tuple[int, int, str]]:
    """``(mtime_ns, size, name)`` of each file in ``directory`` whose name ends
    with ``suffix``, oldest first. Each ``.tmp`` file older than
    :data:`STALE_NS` is removed on the way: a write killed before its rename
    (one still running is younger)."""
    stale = _now_ns() - STALE_NS
    files = []
    with os.scandir(directory) as listing:
        for entry in listing:
            try:
                stat = entry.stat()
            except FileNotFoundError:  # removed by another command meanwhile
                continue
            if entry.name.endswith(".tmp"):
                if stat.st_mtime_ns < stale and entry.is_file():
                    Path(entry.path).unlink(missing_ok=True)
            elif entry.name.endswith(suffix) and entry.is_file():
                files.append((stat.st_mtime_ns, stat.st_size, entry.name))
    return sorted(files)


def evict(keep: Path) -> None:
    """Remove the oldest entries beside ``keep`` by modification time until
    those left, ``keep`` among them, hold less than :data:`MAX_BYTES`, and
    the stale temporary files there (:func:`_listing`)."""
    try:
        entries = _listing(keep.parent, ".npz")
        total = sum(size for _, size, _ in entries)
        for _, size, name in entries:
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
    the sources' bytes still hash to the same key."""
    path = entry_path(kind, sources)
    value = read_entry(path, kind) if path is not None else None
    if value is not None:
        return value
    value = parse()
    arrays = kind.encode(value) if path is not None else None
    # The bytes again, never their rows: a file rewritten since the key was
    # computed then gives another key, and nothing is stored under the old.
    if arrays is not None and path.name == f"{_key(kind, _digests(sources))}.npz":
        write_entry(path, arrays)
    return value
