"""Pluggable text-completion backend with a persistent response cache.

Two backends share one request shape: an HTTP client for any
prompt-in/text-out completion endpoint, and a replay backend that serves
pre-recorded responses for deterministic tests. Responses are cached on
disk, content-addressed by a digest of the request, so interrupted runs
resume without re-spending LM calls — and a recorded cache directory can
be pointed at directly as a replay fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import json
import os
import threading
import time

import requests

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


@dataclass(frozen=True)
class LmConfig:
    model: str
    backend: str = "http"  # http | replay
    endpoint: str = ""
    max_tokens: int = 512
    greedy: bool = True
    stop_sequences: tuple[str, ...] = ()
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 1

    def __post_init__(self):
        if self.backend not in ("http", "replay"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class Generation:
    prompt: str
    completion: str
    finish_reason: str  # stop | length | error
    from_cache: bool
    latency_ms: float


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    max_tokens: int
    greedy: bool
    stop_sequences: tuple[str, ...]
    key: str


@dataclass(frozen=True)
class CacheStats:
    hits: int
    misses: int
    entries: int


def compute_max_tokens(k: int) -> int:
    """Generation budget for a prompt carrying k questions: 512 + 32*k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 512 + 32 * k


def cache_key(
    model: str, prompt: str, max_tokens: int, greedy: bool, stop_sequences: tuple[str, ...]
) -> str:
    """Stable digest over every field that can change the completion."""
    payload = json.dumps(
        [model, prompt, max_tokens, greedy, list(stop_sequences)],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def entry_path(root: str, key: str) -> str:
    return os.path.join(root, key[:2], key + ".json")


def make_entry(request: CompletionRequest, completion: str, finish_reason: str) -> dict:
    return {
        "model": request.model,
        "prompt": request.prompt,
        "max_tokens": request.max_tokens,
        "greedy": request.greedy,
        "stop_sequences": list(request.stop_sequences),
        "completion": completion,
        "finish_reason": finish_reason,
        "timestamp": time.time(),
    }


class ResponseCache:
    """Disk cache, one JSON entry per file under ``<dir>/<2 hex>/<digest>.json``.

    Entries are published atomically (write-then-rename), so concurrent
    readers never observe a partial entry. Hit/miss/entry counters are
    in-process and monotone.
    """

    def __init__(self, root: str | None):
        self._root = root
        self._mem: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._entries = 0
        if root:
            os.makedirs(root, exist_ok=True)

    def get(self, key: str) -> dict | None:
        entry = None
        if self._root:
            path = entry_path(self._root, key)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
        else:
            with self._lock:
                entry = self._mem.get(key)
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        return entry

    def put(self, key: str, entry: dict) -> None:
        if self._root:
            path = entry_path(self._root, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, ensure_ascii=False)
            os.replace(tmp, path)
        else:
            with self._lock:
                self._mem[key] = entry
        with self._lock:
            self._entries += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._entries)


class HttpBackend:
    """POSTs ``{model, prompt, max_tokens, temperature, stop}`` and reads the
    first completion text; retries transient failures with backoff."""

    def __init__(self, config: LmConfig, *, session=None, sleep=time.sleep):
        if not config.endpoint:
            raise ValueError("http backend requires an endpoint")
        self._config = config
        self._session = session or requests.Session()
        self._sleep = sleep

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        body: dict = {
            "model": request.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
        }
        if request.greedy:
            body["temperature"] = 0.0
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = self._config.max_retries + 1
        last_error: Exception | None = None
        rate_limited = False
        for attempt in range(attempts):
            try:
                resp = self._session.post(
                    self._config.endpoint,
                    json=body,
                    headers=headers,
                    timeout=self._config.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
                rate_limited = False
            else:
                if resp.status_code == 429:
                    last_error = LmError("rate limited (429)")
                    rate_limited = True
                elif resp.status_code >= 500:
                    last_error = LmError(f"server error ({resp.status_code})")
                    rate_limited = False
                elif resp.status_code >= 400:
                    raise LmError(f"request rejected ({resp.status_code}): {resp.text[:500]}")
                else:
                    return self._parse_response(resp)
            if attempt < attempts - 1:
                self._sleep(0.5 * 2**attempt)
        if rate_limited:
            raise RateLimited(f"gave up after {attempts} attempts: {last_error}")
        raise BackendUnreachable(f"gave up after {attempts} attempts: {last_error}")

    @staticmethod
    def _parse_response(resp) -> tuple[str, str]:
        try:
            data = resp.json()
            choice = data["choices"][0]
            text = choice["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LmError(f"malformed completion response: {exc}") from exc
        finish = choice.get("finish_reason") or "stop"
        if finish not in ("stop", "length", "error"):
            finish = "stop"
        return text, finish


class ReplayBackend:
    """Serves completions recorded in cache-entry format, keyed by digest."""

    def __init__(self, fixture_dir: str):
        self._dir = fixture_dir

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        path = entry_path(self._dir, request.key)
        if not os.path.exists(path):
            head = request.prompt.splitlines()[0][:80] if request.prompt else ""
            raise ReplayMiss(f"no recording for key {request.key} (prompt starts: {head!r})")
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        return entry["completion"], entry.get("finish_reason", "stop")


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

    A semaphore bounds in-flight backend requests at ``max_in_flight``;
    cache lookups are not throttled.
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
        self._gate = threading.BoundedSemaphore(config.max_in_flight)

    def generate(self, prompt: str, *, max_tokens: int | None = None,
                 stop_sequences: tuple[str, ...] | None = None) -> Generation:
        """Complete ``prompt``, consulting the cache first and storing the
        result on a miss; truncates at the first stop sequence."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        effective_max = max_tokens if max_tokens is not None else self.config.max_tokens
        stops = tuple(stop_sequences) if stop_sequences is not None else self.config.stop_sequences
        key = cache_key(self.config.model, prompt, effective_max, self.config.greedy, stops)
        started = time.perf_counter()

        entry = self._cache.get(key)
        if entry is not None:
            return Generation(
                prompt=prompt,
                completion=entry["completion"],
                finish_reason=entry.get("finish_reason", "stop"),
                from_cache=True,
                latency_ms=(time.perf_counter() - started) * 1000,
            )

        request = CompletionRequest(
            model=self.config.model,
            prompt=prompt,
            max_tokens=effective_max,
            greedy=self.config.greedy,
            stop_sequences=stops,
            key=key,
        )
        with self._gate:
            text, finish = self._backend.complete(request)
        text, truncated = truncate_at_stop(text, stops)
        if truncated:
            finish = "stop"
        self._cache.put(key, make_entry(request, text, finish))
        return Generation(
            prompt=prompt,
            completion=text,
            finish_reason=finish,
            from_cache=False,
            latency_ms=(time.perf_counter() - started) * 1000,
        )

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()
