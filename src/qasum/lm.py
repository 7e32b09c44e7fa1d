"""Pluggable text-completion backend with a persistent response cache.

Two backends serve one request shape, which ``CompletionClient.generate``
builds from a prompt frame and its article: an HTTP client for any
prompt-in/text-out completion endpoint, and a replay backend that serves
pre-recorded responses for deterministic tests. The HTTP client connects
through the standard library's ``http.client``: it keeps at most one
keep-alive connection per call in flight, sends each request, head and
body, in one write, and reads each reply itself, by ``http.client``'s
rules, through one buffered reader per connection. It reads no proxy
settings, checks HTTPS certificates against the system CA store, loaded
once into one SSL context per backend, fails at once on an untrusted
certificate, and does not follow redirects.

Every backend's ``complete`` returns a ``(completion, finish_reason)``
pair, and that pair is what the cache stores and returns and what
``generate`` returns. A request's cache key is derived from its fields
when it is built, so no request carries another's key. Responses are
cached in one SQLite database, ``<cache_dir>/cache.sqlite`` (WAL mode),
keyed by a digest of the request, so interrupted runs resume without
re-spending LM calls. A row stores that digest, not the prompt text, so
the store holds completions and little else. A run repeats a few models,
budgets and stops over many prompts, so the framed bytes of those fields
in the digest, and the stop's JSON column, are each built once per
distinct value; only the prompt is encoded per request. Inside
``CompletionClient.map`` the store commits its puts in groups: a put
commits every pending one once the oldest has waited ``_FLUSH_AFTER_S``
(0.1 s), and the map commits the rest when it returns or raises. So a
process killed without warning loses at most the completions put in the
0.1 s before its last put; a put made outside a map commits before it
returns. A store that is not a database aborts the run with
``CacheError`` and is never replaced. The same database holds the score
memo that ``harness.run_eval`` reads and writes (``ResponseCache.scores``).
The replay backend opens a recorded store read-only and reads completions
alone, so a recorded cache directory can be pointed at directly as a
replay fixture.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
import contextlib
from dataclasses import dataclass, field
import functools
import hashlib
import http.client
import io
import json
from json.encoder import encode_basestring_ascii
import os
import re
import sqlite3
import ssl
import struct
import threading
import time
import urllib.parse
import weakref

API_KEY_ENV = "QASUM_API_KEY"


class LmError(Exception):
    pass


class BackendUnreachable(LmError):
    pass


class RateLimited(LmError):
    pass


class ReplayMiss(LmError):
    """No recording exists for this request; a test-fixture gap, never a
    reason to fall through to the network."""


# Errors that would fail every call alike; callers abort the run on these
# instead of degrading them to failed rows or dropped ranking samples.
FATAL_LM_ERRORS = (ReplayMiss, BackendUnreachable, RateLimited)

# Statuses that say the endpoint, its path or the credentials are wrong, so
# every request will be refused alike. Other 4xx statuses (400, 413, 422)
# can refuse one over-long prompt and stay per-request errors.
_REFUSED_STATUSES = (401, 403, 404, 405)


@dataclass(frozen=True, slots=True)
class LmConfig:
    model: str
    backend: str = "http"  # http | replay
    endpoint: str = ""
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 1

    def __post_init__(self):
        if self.backend not in ("http", "replay"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        # NaN fails too. A socket cannot wait longer than TIMEOUT_MAX, and
        # JSON's Infinity would fail only at the first call.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be > 0 and <= {threading.TIMEOUT_MAX} seconds")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True, slots=True)
class CacheStats:
    hits: int
    misses: int
    entries: int


def compute_max_tokens(k: int) -> int:
    """Generation budget for a prompt carrying k questions: 512 + 32*k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 512 + 32 * k


def _framed(field: str) -> bytes:
    """``field`` as ``cache_key`` frames it: its UTF-8 bytes after their
    length in 8 big-endian bytes."""
    data = field.encode("utf-8")
    return len(data).to_bytes(8, "big") + data


_framed_model = functools.lru_cache(maxsize=64)(_framed)


@functools.lru_cache(maxsize=64, typed=True)
def _framed_settings(max_tokens: int, stop: str) -> bytes:
    """The framed fields after the prompt: max_tokens, ``1``, the stop."""
    return b"".join(map(_framed, (str(max_tokens), "1", stop)))


def cache_key(model: str, prompt: str, max_tokens: int, stop: str) -> str:
    """Stable digest over every field that can change the completion:
    SHA-256 over model, prompt, max_tokens (decimal), the constant ``1``
    and the stop, each field as its UTF-8 bytes preceded by their length
    in 8 big-endian bytes. The length prefixes keep field boundaries
    apart, so no two requests frame to the same bytes. Only the prompt is
    framed per call; the other fields' bytes are memoized per distinct
    value.

    The ``1`` stands where earlier keys framed a greedy flag, ``1`` for
    greedy decoding, the only decoding there is now; framing it keeps
    every key, and so every recorded store and replay fixture, the same."""
    data = prompt.encode("utf-8")
    digest = hashlib.sha256(_framed_model(model))
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)
    digest.update(_framed_settings(max_tokens, stop))
    return digest.hexdigest()


def score_keys(scorer: Sequence[str], reference: str, summaries: Iterable[str]) -> list[bytes]:
    """The score memo's key for ``reference`` paired with each of
    ``summaries``: SHA-256 over the fields that name the scorer
    (``metrics.scorer_fields``), the reference and the summary, each
    framed as ``cache_key`` frames a field. The bytes before the summary
    are digested once."""
    head = hashlib.sha256(b"".join(map(_framed, (*scorer, reference))))
    keys = []
    for summary in summaries:
        digest = head.copy()
        digest.update(_framed(summary))
        keys.append(digest.digest())
    return keys


@dataclass(frozen=True, slots=True)
class CompletionRequest:
    """One completion request. ``key`` is not passed in: it is
    ``cache_key`` of the other four fields, derived once on construction,
    so ``dataclasses.replace`` derives it anew."""

    model: str
    prompt: str
    max_tokens: int
    stop: str
    key: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "key", cache_key(self.model, self.prompt, self.max_tokens,
                                                  self.stop))


class CacheError(Exception):
    """The response store cannot be opened or used: not a database, not
    openable, or failing under a query. Not an ``LmError``, so it aborts a
    batch instead of failing one row; the file is never deleted."""


_STORE_FILE = "cache.sqlite"

# Page cache per store connection, in KiB. A lookup touches a few pages of
# one B-tree; SQLite's default of 2 MiB only adds ~2.4 MB to peak RSS.
_PAGE_CACHE_KIB = 256

# How long opening a store keeps retrying its set-up while other processes
# create the same store, and the pause between tries, in seconds.
_SET_UP_DEADLINE_S = 2.0
_SET_UP_RETRY_S = 0.01

# How long a put made inside ``CompletionClient.map`` may wait in memory
# before a later put commits it with every other pending row, in seconds.
# A put committed alone costs about four times one inserted in a shared
# transaction, so grouping them takes most of a cold call's store write
# off its path; the interval bounds what a process killed without warning
# loses.
_FLUSH_AFTER_S = 0.1

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, model TEXT, prompt TEXT,"
    " max_tokens INTEGER, greedy INTEGER, stop_sequences TEXT, completion TEXT,"
    " finish_reason TEXT, timestamp REAL)"
)
# The score memo: a row's nine ROUGE values, keyed by a digest of the
# scorer and of the (reference, summary) pair they score. The table is
# made by the first write to it, so a store that memoizes nothing keeps
# the layout it had before the memo.
_SCORES_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS scores (key BLOB PRIMARY KEY, value BLOB) WITHOUT ROWID"
)
_HAS_SCORES = "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'scores'"
_SCORES_INSERT = "INSERT OR REPLACE INTO scores VALUES (?, ?)"
# A memo value is nine doubles in little-endian order. A value of another
# type or length is left out by the query; one that unpacks to a number
# outside [0, 1], NaN too, by ``ResponseCache.scores``.
_SCORE_VALUE = struct.Struct("<9d")
_SCORES_SELECT = (
    "SELECT key, value FROM scores WHERE typeof(value) = 'blob'"
    f" AND length(value) = {_SCORE_VALUE.size} AND key IN "
)
# The most keys one memo lookup binds: SQLite's default limit on a
# statement's bound parameters before 3.32 (SQLITE_MAX_VARIABLE_NUMBER).
_KEYS_PER_LOOKUP = 999
_INSERT = "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
# The request fields are compared by SQLite, byte for byte, so a hit reads
# back only the completion and its finish reason. The prompt column matches
# either the prompt text, which rows written before the column held the key
# keep, or the row's own key, which ``put`` writes there now; ``key = ?``
# has already pinned that key to the request's.
_SELECT = (
    "SELECT completion, finish_reason FROM entries WHERE key = ? AND model = ?"
    " AND prompt IN (?, key) AND max_tokens = ? AND greedy = ? AND stop_sequences = ?"
)


def _text(data: bytes) -> str | bytes:
    """A TEXT value as str, or as its bytes when it is not UTF-8: bytes
    are no completion, so the row is a miss."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data


def _connect(target: str, *, uri: bool = False) -> sqlite3.Connection:
    # Autocommit: no transaction is open between statements. A store's
    # pending puts are written in one explicit BEGIN ... COMMIT, so no
    # transaction stays open between those flushes either. The connection
    # is shared by worker threads under a lock.
    conn = sqlite3.connect(target, uri=uri, isolation_level=None, check_same_thread=False)
    conn.text_factory = _text
    return conn


@functools.lru_cache(maxsize=64)
def _stop_json(stop: str) -> str:
    """``json.dumps([stop])``: the stop as the store's stop column and a
    request body's ``stop`` field hold it."""
    return json.dumps([stop])


def _request_columns(request: CompletionRequest, prompt: str) -> tuple:
    """The request's columns: key, model, ``prompt``, max_tokens, greedy and
    the stop as ``_stop_json`` writes it, once per distinct stop. With the
    prompt text they are ``_SELECT``'s parameters; with the key in the
    prompt's place they start ``_INSERT``'s row. The key is a digest of the
    prompt among the other fields, so a row needs no copy of the text to
    tell its request apart. Greedy is always 1, as ``cache_key`` frames it,
    so older stores still hit."""
    return (request.key, request.model, prompt, request.max_tokens, 1,
            _stop_json(request.stop))


def _lookup(conn: sqlite3.Connection, request: CompletionRequest) -> tuple[str, str] | None:
    """The stored ``(completion, finish_reason)`` for ``request``, or None
    when its row is absent, has no string completion, or holds other
    request fields."""
    row = conn.execute(_SELECT, _request_columns(request, request.prompt)).fetchone()
    if row is None or not isinstance(row[0], str):
        return None
    return row[0], row[1] if isinstance(row[1], str) else "stop"


def _set_up(conn: sqlite3.Connection) -> None:
    """Switch a store connection to WAL and create the table if missing.

    ``PRAGMA journal_mode=WAL`` returns the mode the store ends up in.
    SQLite keeps the rollback journal on a file system that cannot hold
    WAL's shared-memory index. Such a store still commits each put when it
    returns, and the put still survives a killed process. But a writer
    then locks readers out while it commits, so processes that share the
    store wait on one another. And only ``synchronous=FULL``, SQLite's
    default, keeps a rollback-journal store safe from corruption on power
    loss, so ``synchronous=NORMAL`` is set in WAL mode alone."""
    [(mode,)] = conn.execute("PRAGMA journal_mode=WAL").fetchall()
    if mode == "wal":
        conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute(f"PRAGMA cache_size=-{_PAGE_CACHE_KIB}")
    conn.execute(_SCHEMA)


def _open_store(root: str) -> sqlite3.Connection:
    """The read-write store in ``root``, created with its table on first use.

    Processes that open one new store together can make SQLite fail the
    set-up of all but one of them at once with "database is locked",
    without waiting out the busy timeout: two connections that both hold
    a shared lock and both ask to upgrade it would wait on each other for
    ever. So a set-up that fails with "database is locked" is tried again
    every ``_SET_UP_RETRY_S`` until ``_SET_UP_DEADLINE_S`` has passed;
    after that, and on any other error at once, it raises ``CacheError``.
    """
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, _STORE_FILE)
    try:
        conn = _connect(path)
    except sqlite3.Error as exc:
        raise CacheError(f"cannot open response store {path}: {exc}") from exc
    try:
        deadline = time.monotonic() + _SET_UP_DEADLINE_S
        while True:
            try:
                _set_up(conn)
                break
            except sqlite3.OperationalError as exc:
                # SQLite's message for SQLITE_BUSY; any other error is final.
                if str(exc) != "database is locked" or time.monotonic() >= deadline:
                    raise
                time.sleep(_SET_UP_RETRY_S)
    except sqlite3.Error as exc:
        conn.close()
        raise CacheError(f"cannot use response store {path}: {exc}") from exc
    except BaseException:
        conn.close()
        raise
    return conn


class ResponseCache:
    """Response store: one SQLite database, ``<dir>/cache.sqlite``, with
    one row per request digest holding the request fields, the completion,
    its finish reason and a timestamp. ``get`` returns, and ``put`` takes,
    the ``(completion, finish_reason)`` pair a backend's ``complete``
    returns.

    The row's ``prompt`` column holds the request's key, not its prompt
    text: the key already digests the prompt, and the text made up most of
    the store. Rows of earlier versions, which hold the text, still hit; a
    row that misses is rewritten in the new form.

    The database runs in WAL mode with ``synchronous=NORMAL``, and a
    committed put survives a killed process. Inside ``grouped()``, which
    ``CompletionClient.map`` holds open, a put only adds its row to an
    in-memory buffer keyed by request key, and ``get`` reads that buffer
    before the database. The buffer is written in one transaction when a
    put finds its oldest row at least ``_FLUSH_AFTER_S`` old, and when the
    group ends, so a process killed without warning loses at most the
    completions put in that long before its last put. It is cleared only
    once its ``COMMIT`` has returned: a flush interrupted by any exception
    is rolled back and its rows kept for the next one. Outside a group a
    put commits before it returns. No transaction stays open between
    flushes, so several processes can share one directory, each waiting
    at most one flush for another. They can also start on it together:
    opening retries the WAL switch for up to two seconds while
    another process holds the lock it needs (``_open_store``). One
    connection serves every worker thread under a lock and is closed when
    the cache is dropped, which folds the write-ahead log back into the
    database. A store that is not a database raises ``CacheError`` and is
    left as it is. With no directory nothing is stored and every lookup is
    a miss. Hit/miss/entry counters are in-process and monotone, and count
    completions only.

    The same database holds the score memo, the ``scores`` table, made by
    the first ``put_scores``: each row's nine ROUGE values under a 32-byte
    key, ``score_keys`` of the scorer and the scored pair. ``scores``
    looks keys up in batches, and ``put_scores`` writes its rows in one
    transaction. A value that is not nine doubles in [0, 1] is a miss, so
    the caller scores the row again and ``put_scores`` replaces it.
    """

    def __init__(self, root: str | None):
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._entries = 0
        self._pending: dict[str, tuple] = {}  # rows put but not committed, by key
        self._oldest = 0.0  # time.monotonic() of the first pending put
        self._groups = 0  # grouped() blocks open
        self._path = os.path.join(root, _STORE_FILE) if root else None
        self._conn = _open_store(root) if root else None
        if self._conn is not None:
            weakref.finalize(self, self._conn.close)

    def get(self, request: CompletionRequest) -> tuple[str, str] | None:
        """The stored ``(completion, finish_reason)``, or None on a miss. A
        row that holds no string completion or other request fields is a
        miss too, so the caller asks the backend again and ``put`` replaces
        it."""
        with self._lock:
            row = self._pending.get(request.key)
            if row is not None:
                reply = row[6], row[7]
            else:
                try:
                    reply = _lookup(self._conn, request) if self._conn is not None else None
                except sqlite3.Error as exc:
                    raise CacheError(f"response store {self._path}: {exc}") from exc
            if reply is None:
                self._misses += 1
            else:
                self._hits += 1
        return reply

    def put(self, request: CompletionRequest, completion: str, finish_reason: str) -> None:
        if self._conn is None:
            return
        row = (*_request_columns(request, request.key), completion, finish_reason, time.time())
        with self._lock:
            if not self._pending:
                self._oldest = time.monotonic()
            self._pending[request.key] = row
            self._entries += 1
            if not self._groups or time.monotonic() - self._oldest >= _FLUSH_AFTER_S:
                self._flush()

    @contextlib.contextmanager
    def grouped(self):
        """Buffer the puts made while the block runs, from any thread, and
        commit whatever is pending when it ends, however it ends."""
        with self._lock:
            self._groups += 1
        try:
            yield
        finally:
            with self._lock:
                self._groups -= 1
                if self._pending:
                    self._flush()

    def _flush(self) -> None:
        """Write every pending row in one transaction, then clear the
        buffer; the caller holds the lock. On any exception the transaction
        is rolled back and the rows stay pending."""
        self._write(_INSERT, self._pending.values())
        self._pending.clear()

    def _write(self, statement: str, rows, schema: str | None = None) -> None:
        """Run ``statement`` over ``rows`` in one transaction, after
        ``schema``, if given, in the same one; the caller holds the lock. On
        any exception the transaction is rolled back."""
        conn = self._conn
        try:
            conn.execute("BEGIN IMMEDIATE")
            try:
                if schema is not None:
                    conn.execute(schema)
                conn.executemany(statement, rows)
                conn.execute("COMMIT")
            except BaseException:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise CacheError(f"response store {self._path}: {exc}") from exc

    def scores(self, keys: list[bytes]) -> dict[bytes, tuple[float, ...]]:
        """The memoized nine values of each of ``keys`` that the store
        holds a usable value for, by key, read with one query per
        ``_KEYS_PER_LOOKUP`` keys. With no directory, or before the first
        ``put_scores``, the memo is empty."""
        found = {}
        if self._conn is None:
            return found
        with self._lock:
            try:
                if self._conn.execute(_HAS_SCORES).fetchone() is None:
                    return found
                for start in range(0, len(keys), _KEYS_PER_LOOKUP):
                    batch = keys[start:start + _KEYS_PER_LOOKUP]
                    query = _SCORES_SELECT + "(" + ",".join("?" * len(batch)) + ")"
                    for key, value in self._conn.execute(query, batch):
                        values = _SCORE_VALUE.unpack(value)
                        if all(0.0 <= v <= 1.0 for v in values):  # false for NaN too
                            found[key] = values
            except sqlite3.Error as exc:
                raise CacheError(f"response store {self._path}: {exc}") from exc
        return found

    def put_scores(self, rows) -> None:
        """Memoize each ``(key, values)`` of ``rows``, ``values`` a row's
        nine floats, in one transaction, replacing what a key held. The
        first one makes the ``scores`` table."""
        if self._conn is None:
            return
        with self._lock:
            self._write(_SCORES_INSERT,
                        ((key, _SCORE_VALUE.pack(*values)) for key, values in rows),
                        _SCORES_SCHEMA)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._entries)


# http.client's limits on a reply: the longest line it reads, and the most
# lines in one header block, the block's closing empty line included.
_MAXLINE = http.client._MAXLINE
_MAXHEADERS = http.client._MAXHEADERS

# The longest body, or chunk of a chunked body, that a reply may declare. A
# completion reply is kilobytes; a buffered reader allocates the whole length
# it is asked for before it reads, and raises ``OverflowError`` on a length
# above ``sys.maxsize``, which no retry would catch.
_MAX_BODY = 64 * 1024 * 1024

# The lines that the ``email`` package's header parser, which http.client
# hands a reply's header block to, takes as part of the block: a field name
# and its colon, a folded continuation line, or an mbox "From " line.
_HEADER_LINE = re.compile(r"From |[!-9;-~]*:|[\t ]")


def _read_header_block(reader) -> list[bytes]:
    """A header block's lines as ``http.client`` reads them: up to and
    including the first empty line, or up to the end of the stream."""
    lines = []
    while True:
        line = reader.readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise http.client.LineTooLong("header line")
        lines.append(line)
        if len(lines) > _MAXHEADERS:
            raise http.client.HTTPException(f"got more than {_MAXHEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            return lines


def _fields(lines: list[bytes]) -> dict[str, list[str]]:
    """The values of each header field in ``lines``, in order, keyed by the
    field's lower-cased name, as the ``email`` parser behind ``http.client``
    reads them. That parser splits the Latin-1 text at CR, LF and CRLF,
    ends the block at the first line that is not a field, a fold or a
    "From " line, and skips "From " lines and lines with no name before
    the colon. A folded line joins its field's value, and a value loses its
    leading spaces and tabs and its trailing line breaks."""
    fields: dict[str, list[str]] = {}
    name = value = None
    for line in io.StringIO(b"".join(lines).decode("latin-1"), newline=""):
        if not _HEADER_LINE.match(line):
            break
        if line[0] in " \t":
            if name is not None:
                value += line
            continue
        if name is not None:
            fields.setdefault(name, []).append(value.rstrip("\r\n"))
            name = None
        colon = line.find(":")
        if colon > 0 and not line.startswith("From "):
            name, value = line[:colon].lower(), line[colon + 1:].lstrip(" \t")
    if name is not None:
        fields.setdefault(name, []).append(value.rstrip("\r\n"))
    return fields


def _read_status(reader) -> tuple[str, int]:
    """A status line's version and status, checked as ``http.client``
    checks them."""
    line = str(reader.readline(_MAXLINE + 1), "iso-8859-1")
    if len(line) > _MAXLINE:
        raise http.client.LineTooLong("status line")
    if not line:
        # The server closed the connection before it replied.
        raise http.client.RemoteDisconnected("Remote end closed connection without response")
    try:
        version, status, _ = line.split(None, 2)
    except ValueError:
        try:
            version, status = line.split(None, 1)
        except ValueError:
            version = ""
    if not version.startswith("HTTP/"):
        raise http.client.BadStatusLine(line)
    try:
        status = int(status)
    except ValueError:
        raise http.client.BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise http.client.BadStatusLine(line)
    return version, status


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_chunked(reader) -> bytes:
    """A chunked body: each chunk's size in hex, its extensions dropped,
    then the chunk and its line break, up to a chunk of size 0; then the
    trailer lines, dropped, up to an empty line or the end of the stream."""
    chunks = []
    try:
        while True:
            line = reader.readline(_MAXLINE + 1)
            if len(line) > _MAXLINE:
                raise http.client.LineTooLong("chunk size")
            try:
                size = int(line.partition(b";")[0], 16)
            except ValueError:
                raise http.client.IncompleteRead(b"") from None
            if size == 0:
                break
            if size > _MAX_BODY:
                raise http.client.HTTPException(f"chunk of {size} bytes declared")
            chunks.append(_read_exactly(reader, size))
            _read_exactly(reader, 2)
    except http.client.IncompleteRead as exc:
        raise http.client.IncompleteRead(b"".join(chunks)) from exc
    while True:
        line = reader.readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise http.client.LineTooLong("trailer line")
        if line in (b"\r\n", b"\n", b""):
            return b"".join(chunks)


def _read_reply(reader) -> tuple[int, bytes, str | None, bool]:
    """Read one reply to a POST from ``reader``, the buffered reader of its
    connection's socket, and return ``(status, body, location,
    will_close)``: the final status, the whole body, the ``Location``
    values joined by ``", "`` or None, and whether the connection ends
    with this reply.

    The reply is read by ``http.client.HTTPResponse``'s rules (RFC 9112
    sections 4 to 7), with the same limits and the same exceptions: 100
    Continue replies are skipped; Content-Length and Transfer-Encoding
    count from their first field, and a Content-Length that is not a
    number, or is negative, counts as absent; 204, 304 and 1xx replies
    have no body; a body with neither a length nor the chunked coding is
    read to the end of the stream, and a short one raises
    ``IncompleteRead``. One limit is added: a declared length or chunk
    size above ``_MAX_BODY`` raises ``HTTPException`` before what it
    declares is read. The connection stays open after an HTTP/1.1 reply
    unless its Connection field names ``close``, and after an HTTP/1.0 one
    only when it asks for keep-alive, and only if the body's end is known
    without the connection closing."""
    version, status = _read_status(reader)
    while status == 100:
        _read_header_block(reader)
        version, status = _read_status(reader)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http_11 = False
    elif version.startswith("HTTP/1."):
        http_11 = True
    else:
        raise http.client.UnknownProtocol(version)
    fields = _fields(_read_header_block(reader))

    def first(name):
        values = fields.get(name)
        return values[0] if values else None

    connection = first("connection")
    if http_11:
        will_close = bool(connection) and "close" in connection.lower()
    else:
        proxy_connection = first("proxy-connection")
        will_close = not (first("keep-alive")
                          or connection and "keep-alive" in connection.lower()
                          or proxy_connection and "keep-alive" in proxy_connection.lower())
    coding = first("transfer-encoding")
    chunked = bool(coding) and coding.lower() == "chunked"
    length = None
    declared = first("content-length")
    if declared and not chunked:
        try:
            length = int(declared)
        except ValueError:
            pass
        else:
            if length < 0:
                length = None
    if status in (204, 304) or status < 200:
        length = 0
    if not chunked and length is None:
        will_close = True

    if chunked:
        body = _read_chunked(reader)
    elif length is None:
        body = reader.read()
    elif length > _MAX_BODY:
        raise http.client.HTTPException(f"body of {length} bytes declared")
    else:
        body = _read_exactly(reader, length)
    location = fields.get("location")
    return status, body, ", ".join(location) if location else None, will_close


def _close(link: tuple) -> None:
    """Close a connection and its socket's reader."""
    conn, reader = link
    reader.close()
    conn.close()


def _close_connections(idle: list) -> None:
    while idle:
        _close(idle.pop())


# A completion request's JSON body as ``json.dumps`` writes it: the model
# and the prompt quoted by ``encode_basestring_ascii``, the budget, greedy
# decoding, and the one stop.
_BODY_TEMPLATE = '{"model": %s, "prompt": %s, "max_tokens": %d, "temperature": 0.0, "stop": %s}'


def _json_body(model: str, prompt: str, max_tokens: int, stop: str) -> bytes:
    """The bytes of ``json.dumps({"model": model, "prompt": prompt,
    "max_tokens": max_tokens, "temperature": 0.0, "stop": [stop]}).encode()``,
    rendered without building an encoder; the stop's JSON is the store's
    column, built once per distinct stop."""
    return (_BODY_TEMPLATE % (encode_basestring_ascii(model), encode_basestring_ascii(prompt),
                              max_tokens, _stop_json(stop))).encode("ascii")


# The request headers after Content-Length, in the order http.client
# writes a request's own headers.
_BODY_HEADERS = b"Content-Type: application/json\r\nUser-Agent: qasum\r\n"


def _authorization(api_key: str) -> bytes:
    """The ``Authorization`` header line for ``api_key``, encoded as
    ``http.client`` encodes a header value: Latin-1, so a key that holds
    another character raises ``UnicodeEncodeError``. A key that holds a
    line break raises ``ValueError``, since it would end the header early."""
    value = f"Bearer {api_key}".encode("latin-1")
    if b"\r" in value or b"\n" in value:
        raise ValueError(f"{API_KEY_ENV} holds a line break")
    return b"Authorization: " + value + b"\r\n"


def _request_head(host: str, port: int, default_port: int, path: str) -> bytes:
    """A POST's request line and its ``Host`` and ``Accept-Encoding``
    headers, as ``http.client`` writes them: the host ASCII or else IDNA,
    an IPv6 literal bracketed without its zone, and the port left out when
    it is the scheme's default. A path that ``http.client`` would refuse
    to send, one with a space, a control character or a non-ASCII
    character, raises ``ValueError``."""
    if not (path.isascii() and path.isprintable()) or " " in path:
        raise ValueError(f"endpoint path holds a space, a control or a non-ASCII character: "
                         f"{path!r}")
    try:
        host_enc = host.encode("ascii")
    except UnicodeEncodeError:
        host_enc = host.encode("idna")
    if b":" in host_enc:
        host_enc = b"[" + host_enc.partition(b"%")[0] + b"]"
    if port != default_port:
        host_enc += b":%d" % port
    return b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
        path.encode("ascii"), host_enc)


class HttpBackend:
    """POSTs ``{model, prompt, max_tokens, temperature, stop}`` as JSON, the
    temperature always 0 (greedy), and reads the first completion text;
    retries transient failures with backoff.

    Each request goes out in one write: the head, built once per backend
    but for its ``Content-Length`` and ``Authorization`` lines, and the
    JSON body are joined and sent with one ``sendall``. The bytes are the
    ones ``HTTPConnection.request`` writes, headers in its order, but that
    sends head and body in two writes, so on a ``TCP_NODELAY`` socket a
    call crosses as two segments and wakes the server twice.
    The JSON body is rendered from one ``%`` template, its strings quoted by
    the function ``json.dumps`` quotes them with, so its bytes are
    ``json.dumps(body).encode()``; the ``stop`` field is built once per
    distinct stop.

    ``HTTPConnection`` still connects, wraps TLS and holds the timeout.
    Every https connection of one backend shares one SSL context, built as
    ``HTTPSConnection`` builds its default one, so the CA store is loaded
    once per backend rather than once per connection. Each connection gets
    one buffered reader of its socket when it connects, and ``_read_reply``
    reads every reply on it by ``http.client``'s rules. ``HTTPResponse``
    would build a new reader for each reply and hand its header block to
    the ``email`` package's parser, which costs more client CPU than the
    rest of a localhost call.

    Idle keep-alive connections wait in one list: a call takes one, or opens
    a new one when the list is empty, and puts it back after a complete
    reply. So there are never more connections than calls in flight.
    """

    def __init__(self, config: LmConfig, *, sleep=time.sleep):
        if not config.endpoint:
            raise ValueError("http backend requires an endpoint")
        url = urllib.parse.urlsplit(config.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint is not an http(s) URL with a host: {config.endpoint!r}")
        if url.username is not None:
            raise ValueError("endpoint must not carry credentials; set QASUM_API_KEY instead")
        options = {"timeout": config.timeout}
        if url.scheme == "https":
            connection = http.client.HTTPSConnection
            # The context HTTPSConnection would build for each connection:
            # one that checks the server's certificate against the system CA
            # store, offers HTTP/1.1 by ALPN and allows post-handshake auth.
            context = ssl._create_default_https_context()
            context.set_alpn_protocols(["http/1.1"])
            if context.post_handshake_auth is not None:
                context.post_handshake_auth = True
            options["context"] = context
        else:
            connection = http.client.HTTPConnection
        # An explicit port keeps http.client from reading one off an IPv6
        # literal's last group.
        port = url.port or connection.default_port
        self._new_connection = functools.partial(connection, url.hostname, port, **options)
        path = url.path or "/"
        if url.query:
            path += "?" + url.query
        self._head = _request_head(url.hostname, port, connection.default_port, path)
        self._config = config
        self._sleep = sleep
        self._idle: list = []
        weakref.finalize(self, _close_connections, self._idle)

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        payload = _json_body(request.model, request.prompt, request.max_tokens, request.stop)
        api_key = os.environ.get(API_KEY_ENV)
        message = b"%sContent-Length: %d\r\n%s%s\r\n%s" % (
            self._head, len(payload), _BODY_HEADERS,
            _authorization(api_key) if api_key else b"", payload)

        attempts = self._config.max_retries + 1
        last_error: Exception | None = None
        rate_limited = False
        for attempt in range(attempts):
            try:
                status, reply, location = self._post(message)
            except ssl.SSLCertVerificationError as exc:
                # An untrusted certificate stays untrusted: no retry can pass.
                raise BackendUnreachable(f"certificate verification failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                rate_limited = False
            else:
                if status == 429:
                    last_error = LmError("rate limited (429)")
                    rate_limited = True
                elif status >= 500:
                    last_error = LmError(f"server error ({status})")
                    rate_limited = False
                elif status in _REFUSED_STATUSES:
                    text = reply[:500].decode("utf-8", "replace")
                    raise BackendUnreachable(f"endpoint refused the request ({status}): {text}")
                elif status >= 400:
                    text = reply[:500].decode("utf-8", "replace")
                    raise LmError(f"request rejected ({status}): {text}")
                elif status >= 300:
                    raise BackendUnreachable(
                        f"endpoint redirected ({status}) to {location}; redirects are not followed"
                    )
                else:
                    return self._parse_response(reply)
            if attempt < attempts - 1:
                self._sleep(0.5 * 2**attempt)
        if rate_limited:
            raise RateLimited(f"gave up after {attempts} attempts: {last_error}")
        raise BackendUnreachable(f"gave up after {attempts} attempts: {last_error}")

    def _post(self, message: bytes) -> tuple[int, bytes, str | None]:
        """One POST on an idle connection, or on a new one if none is idle."""
        try:
            link = self._idle.pop()
        except IndexError:
            return self._exchange(self._connect(), message)
        try:
            return self._exchange(link, message)
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            # The server may close an idle keep-alive connection at any time.
            # A request that fails on one goes once more on a new connection
            # (RFC 9112 section 9.3.1); a completion request changes no state
            # on the server, so sending it twice is safe.
            return self._exchange(self._connect(), message)

    def _connect(self) -> tuple:
        """A new connection, connected, and the one buffered reader of its
        socket; the connection is closed if it fails to connect."""
        conn = self._new_connection()
        try:
            conn.connect()
            return conn, conn.sock.makefile("rb")
        except BaseException:
            conn.close()
            raise

    def _exchange(self, link: tuple, message: bytes) -> tuple[int, bytes, str | None]:
        """Send ``message``, head and body, in one write on ``link``'s
        connection and read the whole reply with ``_read_reply`` from its
        reader. The connection and its reader go back to the idle list
        after a reply that leaves the connection open; they are closed
        together after one that ends it, and on any failure."""
        conn, reader = link
        try:
            conn.sock.sendall(message)
            status, reply, location, will_close = _read_reply(reader)
        except BaseException:
            _close(link)
            raise
        if will_close:
            _close(link)
        else:
            self._idle.append(link)
        return status, reply, location

    @staticmethod
    def _parse_response(reply: bytes) -> tuple[str, str]:
        try:
            choice = json.loads(reply)["choices"][0]
            text = choice["text"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise LmError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise LmError(f"malformed completion response: text is {type(text).__name__}")
        if not text.isascii():  # a lone surrogate is never ASCII, and the store cannot hold one
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise LmError(f"malformed completion response: {exc}") from exc
        finish = choice.get("finish_reason") or "stop"
        if finish not in ("stop", "length", "error"):
            finish = "stop"
        return text, finish


class ReplayBackend:
    """Serves completions recorded in a response store, keyed by digest.

    ``<replay_dir>/cache.sqlite`` is opened read-only, so a cache directory
    recorded by an earlier run replays as it is: ``immutable=1`` adds no
    ``-wal`` or ``-shm`` file, unless a ``-wal`` left by a killed writer
    still holds rows. A missing or unreadable store, and a missing or
    unusable row, is a ``ReplayMiss`` naming the digest and the file.
    """

    def __init__(self, replay_dir: str):
        self._path = os.path.join(replay_dir, _STORE_FILE)
        self._lock = threading.Lock()
        store = os.path.abspath(self._path)
        mode = "ro" if os.path.exists(store + "-wal") else "ro&immutable=1"
        uri = f"file:{urllib.parse.quote(store)}?mode={mode}"
        try:
            self._conn = _connect(uri, uri=True)
        except sqlite3.Error:
            self._conn = None  # every request is a ReplayMiss naming the file
        else:
            weakref.finalize(self, self._conn.close)

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        reply = None
        if self._conn is not None:
            with self._lock:
                try:
                    reply = _lookup(self._conn, request)
                except sqlite3.Error:  # not a database, or no entries table
                    pass
        if reply is None:
            head = request.prompt.splitlines()[0][:80] if request.prompt else ""
            raise ReplayMiss(
                f"no readable recording for key {request.key} in {self._path}"
                f" (prompt starts: {head!r})"
            )
        return reply


class CompletionClient:
    """Cache-fronted completion client, safe for concurrent workers.

    ``map`` is the one place a batch of requests runs: it keeps at most
    ``max_in_flight`` calls going at once and decides which failures abort
    the batch. ``generate`` itself is not throttled.
    """

    def __init__(self, config: LmConfig, *, cache_dir: str | None = None,
                 replay_dir: str | None = None, backend=None):
        self.config = config
        self._cache = ResponseCache(cache_dir)
        if backend is not None:
            self._backend = backend
        elif config.backend == "replay":
            if not replay_dir:
                raise ValueError("replay backend requires replay_dir")
            self._backend = ReplayBackend(replay_dir)
        else:
            self._backend = HttpBackend(config)

    def generate(self, frame, article: str) -> tuple[str, str]:
        """Complete ``article`` in ``frame``, a ``prompting.PromptFrame``:
        the prompt is ``frame.head + article + frame.tail``, decoded
        greedily within ``compute_max_tokens(frame.k)`` tokens and stopped
        at ``frame.stop``. Returns the ``(completion, finish_reason)``
        pair, fresh, cached or replayed. The cache is consulted first and
        the pair stored on a miss. A fresh completion that holds the stop
        is cut before its first occurrence before it is cached, and then
        finishes with ``"stop"``, so every completion this returns is
        already cut. An empty prompt or an empty stop raises
        ``ValueError`` before any lookup or call."""
        prompt = frame.head + article + frame.tail
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if not frame.stop:
            raise ValueError("stop must be non-empty")
        request = CompletionRequest(self.config.model, prompt, compute_max_tokens(frame.k),
                                    frame.stop)
        reply = self._cache.get(request)
        if reply is None:
            text, finish = self._backend.complete(request)
            cut = text.find(request.stop)
            reply = (text, finish) if cut == -1 else (text[:cut], "stop")
            self._cache.put(request, *reply)
        return reply

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` with at most ``max_in_flight``
        items running at once. The calling thread and ``max_in_flight - 1``
        helper threads each take the next item when they are free, so at
        ``max_in_flight = 1`` every item runs on the calling thread and no
        item waits on a hand-off between threads.

        A per-request ``LmError`` gives None for its item. ``FATAL_LM_ERRORS``
        would fail every item alike, so they propagate, as does any other
        exception, a helper thread's failure to start too; no item starts
        after one has raised, and every helper has ended before this
        raises.

        The items' store puts are grouped (``ResponseCache.grouped``): a
        put commits every pending one once the oldest has waited
        ``_FLUSH_AFTER_S``, and the rest are committed before this returns
        or raises. So a process killed without warning mid-map loses at
        most the completions put in that long before its last put, and one
        that exits by an exception, ``SystemExit`` from a signal handler
        too, loses none.
        """
        items = list(items)
        results: list = [None] * len(items)
        pending = iter(range(len(items)))
        take = threading.Lock()
        stop = threading.Event()
        errors: list[BaseException] = []

        def work():
            while not stop.is_set():
                with take:
                    i = next(pending, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:
                    if isinstance(exc, LmError) and not isinstance(exc, FATAL_LM_ERRORS):
                        continue  # this request failed alone; its result stays None
                    errors.append(exc)
                    stop.set()

        helpers = []
        with self._cache.grouped():
            try:
                # A helper that fails to start raises here, and the ones
                # already running are stopped and joined below.
                for _ in range(min(self.config.max_in_flight, len(items)) - 1):
                    helper = threading.Thread(target=work)
                    helper.start()
                    helpers.append(helper)
                work()
            finally:
                stop.set()
                for helper in helpers:
                    helper.join()
        if errors:
            raise errors[0]
        return results

    @property
    def store(self) -> ResponseCache:
        """The response store behind this client, which holds the score memo too."""
        return self._cache

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()
