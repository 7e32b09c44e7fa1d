"""Pluggable text-completion backend with a persistent response cache.

Two backends serve one request shape, which ``CompletionClient.generate``
builds from a prompt frame and its article: an HTTP client for any
prompt-in/text-out completion endpoint, and a replay backend that serves
pre-recorded responses for deterministic tests. The HTTP client is built
on the standard library's ``http.client``: it keeps at most one
keep-alive connection per call in flight, reads no proxy settings,
checks HTTPS certificates against the system CA store, fails at once on
an untrusted one, and does not follow redirects.

Every backend's ``complete`` returns a ``(completion, finish_reason)``
pair, and that pair is what the cache stores and returns. Responses are
cached in one SQLite database, ``<cache_dir>/cache.sqlite`` (WAL mode),
keyed by a digest of the request, so interrupted runs resume without
re-spending LM calls. A run repeats a few models, budgets and stop
sequences over many prompts, so the framed bytes of those fields in the
digest, and the stop sequences' JSON column, are each built once per
distinct value; only the prompt is encoded per request. A store that is
not a database aborts the run with ``CacheError`` and is never replaced.
The replay backend opens a recorded store read-only, so a recorded cache
directory can be pointed at directly as a replay fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import hashlib
import http.client
import json
import os
import sqlite3
import ssl
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
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True, slots=True)
class Generation:
    completion: str
    finish_reason: str  # stop | length | error
    from_cache: bool
    latency_ms: float


@dataclass(frozen=True, slots=True)
class CompletionRequest:
    model: str
    prompt: str
    max_tokens: int
    stop_sequences: tuple[str, ...]
    key: str


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
def _framed_settings(max_tokens: int, stop_sequences: tuple[str, ...]) -> bytes:
    """The framed fields after the prompt: max_tokens, ``1``, each stop."""
    return b"".join(map(_framed, (str(max_tokens), "1", *stop_sequences)))


def cache_key(model: str, prompt: str, max_tokens: int, stop_sequences: tuple[str, ...]) -> str:
    """Stable digest over every field that can change the completion:
    SHA-256 over model, prompt, max_tokens (decimal), the constant ``1``
    and then each stop sequence, each field as its UTF-8 bytes preceded
    by their length in 8 big-endian bytes. The length prefixes keep field
    boundaries apart, so no two requests frame to the same bytes. Only
    the prompt is framed per call; the other fields' bytes are memoized
    per distinct value.

    The ``1`` stands where earlier keys framed a greedy flag, ``1`` for
    greedy decoding, the only decoding there is now; framing it keeps
    every key, and so every recorded store and replay fixture, the same."""
    data = prompt.encode("utf-8")
    digest = hashlib.sha256(_framed_model(model))
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)
    digest.update(_framed_settings(max_tokens, tuple(stop_sequences)))
    return digest.hexdigest()


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

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, model TEXT, prompt TEXT,"
    " max_tokens INTEGER, greedy INTEGER, stop_sequences TEXT, completion TEXT,"
    " finish_reason TEXT, timestamp REAL)"
)
_INSERT = "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
# The request fields are compared by SQLite, byte for byte, so a hit reads
# back only the completion and its finish reason.
_SELECT = (
    "SELECT completion, finish_reason FROM entries WHERE key = ? AND model = ? AND prompt = ?"
    " AND max_tokens = ? AND greedy = ? AND stop_sequences = ?"
)


def _text(data: bytes) -> str | bytes:
    """A TEXT value as str, or as its bytes when it is not UTF-8: bytes
    are no completion, so the row is a miss."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data


def _connect(target: str, *, uri: bool = False) -> sqlite3.Connection:
    # Autocommit: each put is its own transaction, committed when execute
    # returns. The connection is shared by worker threads under a lock.
    conn = sqlite3.connect(target, uri=uri, isolation_level=None, check_same_thread=False)
    conn.text_factory = _text
    return conn


_stops_json = functools.lru_cache(maxsize=64)(json.dumps)


def _request_columns(request: CompletionRequest) -> tuple:
    """The request's columns: key, model, prompt, max_tokens, greedy and the
    stop sequences as JSON, that JSON built once per distinct tuple. They
    are ``_SELECT``'s parameters and the start of ``_INSERT``'s row. Greedy
    is always 1, as ``cache_key`` frames it, so older stores still hit."""
    return (request.key, request.model, request.prompt, request.max_tokens, 1,
            _stops_json(request.stop_sequences))


def _lookup(conn: sqlite3.Connection, request: CompletionRequest) -> tuple[str, str] | None:
    """The stored ``(completion, finish_reason)`` for ``request``, or None
    when its row is absent, has no string completion, or holds other
    request fields."""
    row = conn.execute(_SELECT, _request_columns(request)).fetchone()
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

    The database runs in WAL mode with ``synchronous=NORMAL``: a put is
    committed when it returns and survives a killed process, and several
    processes can share one directory. They can also start on it
    together: opening retries the WAL switch for up to two seconds while
    another process holds the lock it needs (``_open_store``). One
    connection serves every worker thread under a lock and is closed when
    the cache is dropped, which folds the write-ahead log back into the
    database. A store that is not a database raises ``CacheError`` and is
    left as it is. With no directory nothing is stored and every lookup is
    a miss. Hit/miss/entry counters are in-process and monotone.
    """

    def __init__(self, root: str | None):
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._entries = 0
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
        row = (*_request_columns(request), completion, finish_reason, time.time())
        with self._lock:
            try:
                self._conn.execute(_INSERT, row)
            except sqlite3.Error as exc:
                raise CacheError(f"response store {self._path}: {exc}") from exc
            self._entries += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._entries)


def _close_connections(idle: list) -> None:
    while idle:
        idle.pop().close()


class HttpBackend:
    """POSTs ``{model, prompt, max_tokens, temperature, stop}`` as JSON, the
    temperature always 0 (greedy), and reads the first completion text;
    retries transient failures with backoff.

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
        # An HTTPSConnection checks the server's certificate against the
        # system CA store by default.
        connection = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._new_connection = functools.partial(
            connection, url.hostname, url.port, timeout=config.timeout
        )
        self._path = url.path or "/"
        if url.query:
            self._path += "?" + url.query
        self._config = config
        self._sleep = sleep
        self._idle: list = []
        weakref.finalize(self, _close_connections, self._idle)

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        body: dict = {
            "model": request.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": 0.0,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        payload = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json", "User-Agent": "qasum"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = self._config.max_retries + 1
        last_error: Exception | None = None
        rate_limited = False
        for attempt in range(attempts):
            try:
                status, reply, location = self._post(payload, headers)
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

    def _post(self, payload: bytes, headers: dict) -> tuple[int, bytes, str | None]:
        """One POST on an idle connection, or on a new one if none is idle."""
        try:
            conn = self._idle.pop()
        except IndexError:
            return self._exchange(self._new_connection(), payload, headers)
        try:
            return self._exchange(conn, payload, headers)
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            # The server may close an idle keep-alive connection at any time.
            # A request that fails on one goes once more on a new connection
            # (RFC 9112 section 9.3.1); a completion request changes no state
            # on the server, so sending it twice is safe.
            return self._exchange(self._new_connection(), payload, headers)

    def _exchange(self, conn, payload: bytes, headers: dict) -> tuple[int, bytes, str | None]:
        try:
            conn.request("POST", self._path, payload, headers)
            resp = conn.getresponse()
            reply = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return resp.status, reply, resp.getheader("Location")

    @staticmethod
    def _parse_response(reply: bytes) -> tuple[str, str]:
        try:
            choice = json.loads(reply)["choices"][0]
            text = choice["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LmError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise LmError(f"malformed completion response: text is {type(text).__name__}")
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


def truncate_at_stop(text: str, stop_sequences: tuple[str, ...]) -> tuple[str, bool]:
    """Cut ``text`` at the earliest stop-sequence occurrence, if any."""
    cut = None
    for stop in stop_sequences:
        if not stop:
            continue
        idx = text.find(stop)
        if idx != -1 and (cut is None or idx < cut):
            cut = idx
    if cut is None:
        return text, False
    return text[:cut], True


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

    def generate(self, frame, article: str) -> Generation:
        """Complete ``article`` in ``frame``, a ``prompting.PromptFrame``:
        the prompt is ``frame.head + article + frame.tail``, decoded
        greedily within ``compute_max_tokens(frame.k)`` tokens and stopped
        at ``frame.stop_sequences``. The cache is consulted first and the
        result stored on a miss. A fresh completion is cut at its earliest
        stop sequence before it is cached, so every completion this
        returns, fresh, cached or replayed, is already cut."""
        prompt = frame.head + article + frame.tail
        if not prompt:
            raise ValueError("prompt must be non-empty")
        max_tokens = compute_max_tokens(frame.k)
        stops = frame.stop_sequences
        started = time.perf_counter()
        request = CompletionRequest(
            model=self.config.model,
            prompt=prompt,
            max_tokens=max_tokens,
            stop_sequences=stops,
            key=cache_key(self.config.model, prompt, max_tokens, stops),
        )

        reply = self._cache.get(request)
        from_cache = reply is not None
        if not from_cache:
            text, finish = self._backend.complete(request)
            text, truncated = truncate_at_stop(text, stops)
            reply = (text, "stop" if truncated else finish)
            self._cache.put(request, *reply)
        return Generation(*reply, from_cache=from_cache,
                          latency_ms=(time.perf_counter() - started) * 1000)

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` with at most ``max_in_flight``
        items running at once. The calling thread and ``max_in_flight - 1``
        helper threads each take the next item when they are free, so at
        ``max_in_flight = 1`` every item runs on the calling thread and no
        item waits on a hand-off between threads.

        A per-request ``LmError`` gives None for its item. ``FATAL_LM_ERRORS``
        would fail every item alike, so they propagate, as does any other
        exception; no item starts after one has raised.
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

        helpers = [threading.Thread(target=work)
                   for _ in range(min(self.config.max_in_flight, len(items)) - 1)]
        for helper in helpers:
            helper.start()
        try:
            work()
        finally:
            stop.set()
            for helper in helpers:
                helper.join()
        if errors:
            raise errors[0]
        return results

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()
