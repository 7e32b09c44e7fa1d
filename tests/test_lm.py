"""Completion client tests: cache, key sensitivity, backends, concurrency."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import json
import random
import threading

from hypothesis import given, strategies as st
import pytest

from conftest import StubBackend
from qasum.lm import (
    BackendUnreachable,
    CompletionClient,
    LmConfig,
    LmError,
    RateLimited,
    ReplayBackend,
    ReplayMiss,
    ResponseCache,
    cache_key,
    compute_max_tokens,
    entry_path,
    truncate_at_stop,
)


def make_client(tmp_path, backend=None, **overrides):
    cfg = LmConfig(model="m1", backend="replay", **overrides)
    return CompletionClient(cfg, cache_dir=str(tmp_path / "cache"),
                            backend=backend or StubBackend())


# --- max tokens --------------------------------------------------------------


@pytest.mark.parametrize("k,expected", [(0, 512), (1, 544), (2, 576), (5, 672), (10, 832)])
def test_compute_max_tokens(k, expected):
    assert compute_max_tokens(k) == expected


def test_compute_max_tokens_rejects_negative():
    with pytest.raises(ValueError):
        compute_max_tokens(-1)


# --- cache key ---------------------------------------------------------------


def test_cache_key_stable():
    args = ("m", "prompt", 512, True, ("stop",))
    assert cache_key(*args) == cache_key(*args)


def test_cache_key_sensitive_to_every_field():
    base = dict(model="m", prompt="p", max_tokens=512, greedy=True, stop_sequences=("s",))
    baseline = cache_key(**base)
    perturbed = [
        dict(base, model="m2"),
        dict(base, prompt="p2"),
        dict(base, max_tokens=513),
        dict(base, greedy=False),
        dict(base, stop_sequences=("s", "t")),
        dict(base, stop_sequences=()),
    ]
    keys = {cache_key(**kw) for kw in perturbed}
    assert baseline not in keys
    assert len(keys) == len(perturbed)


def test_cache_key_random_perturbations():
    rng = random.Random(0)
    fields = ["model", "prompt", "max_tokens", "greedy", "stop_sequences"]
    base = dict(model="m", prompt="p", max_tokens=512, greedy=True, stop_sequences=("s",))
    for _ in range(100):
        field = rng.choice(fields)
        mutated = dict(base)
        if field == "max_tokens":
            mutated[field] = base[field] + rng.randint(1, 100)
        elif field == "greedy":
            mutated[field] = not base[field]
        elif field == "stop_sequences":
            mutated[field] = base[field] + (f"x{rng.random()}",)
        else:
            mutated[field] = base[field] + f"-{rng.random()}"
        assert cache_key(**mutated) != cache_key(**base)


# --- cache -------------------------------------------------------------------


def test_cache_stats_fresh(tmp_path):
    cache = ResponseCache(str(tmp_path))
    assert (cache.stats().hits, cache.stats().misses, cache.stats().entries) == (0, 0, 0)


def test_cache_miss_then_hit(tmp_path):
    cache = ResponseCache(str(tmp_path))
    assert cache.get("ab" + "0" * 62) is None
    cache.put("ab" + "0" * 62, {"completion": "x", "finish_reason": "stop"})
    assert cache.get("ab" + "0" * 62)["completion"] == "x"
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)


def test_cache_two_distinct_misses(tmp_path):
    cache = ResponseCache(str(tmp_path))
    for key in ("aa" + "0" * 62, "bb" + "0" * 62):
        assert cache.get(key) is None
        cache.put(key, {"completion": key})
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (0, 2, 2)


def test_cache_layout_on_disk(tmp_path):
    client = make_client(tmp_path)
    gen = client.generate("hello world")
    assert not gen.from_cache
    key = cache_key("m1", "hello world", 512, True, ())
    path = entry_path(str(tmp_path / "cache"), key)
    assert path.endswith(f"{key[:2]}/{key}.json")
    with open(path) as fh:
        entry = json.load(fh)
    assert entry["completion"] == "stub completion"
    assert entry["model"] == "m1"
    assert entry["prompt"] == "hello world"
    assert entry["max_tokens"] == 512
    assert entry["greedy"] is True
    assert entry["finish_reason"] == "stop"
    assert "timestamp" in entry


def test_generate_second_call_hits_cache(tmp_path):
    backend = StubBackend()
    client = make_client(tmp_path, backend=backend)
    first = client.generate("prompt")
    second = client.generate("prompt")
    assert not first.from_cache
    assert second.from_cache
    assert second.completion == first.completion
    assert len(backend.requests) == 1


def test_generate_rejects_empty_prompt(tmp_path):
    with pytest.raises(ValueError):
        make_client(tmp_path).generate("")


def test_truncates_at_first_stop():
    assert truncate_at_stop("keep this STOP drop this", ("STOP",)) == ("keep this ", True)
    assert truncate_at_stop("b second a first", ("a ", "b ")) == ("", True)
    assert truncate_at_stop("no stops here", ("STOP",)) == ("no stops here", False)


@given(
    st.text(alphabet="abcS", max_size=20),
    st.lists(st.text(alphabet="abcS", max_size=3), max_size=4).map(tuple),
)
def test_truncate_at_stop_cuts_at_earliest_occurrence(text, stops):
    cut, truncated = truncate_at_stop(text, stops)
    hits = [text.find(s) for s in stops if s and s in text]
    assert cut == (text[: min(hits)] if hits else text)
    assert truncated == bool(hits)
    assert not any(s and s in cut for s in stops)


def test_generate_applies_stop_sequences(tmp_path):
    backend = StubBackend(reply="summary text\nNEXT EXAMPLE trailing")
    client = make_client(tmp_path, backend=backend)
    gen = client.generate("p", stop_sequences=("NEXT EXAMPLE",))
    assert gen.completion == "summary text\n"
    assert gen.finish_reason == "stop"


# --- replay backend ----------------------------------------------------------


def test_replay_round_trip(tmp_path):
    record_dir = tmp_path / "recorded"
    recorder = CompletionClient(
        LmConfig(model="m1", backend="replay"),
        cache_dir=str(record_dir),
        backend=StubBackend(reply="hello"),
    )
    recorder.generate("prompt p")

    replayer = CompletionClient(
        LmConfig(model="m1", backend="replay"),
        cache_dir=str(tmp_path / "fresh"),
        replay_dir=str(record_dir),
    )
    gen = replayer.generate("prompt p")
    assert gen.completion == "hello"
    assert not gen.from_cache  # served by the replay backend, then cached
    assert replayer.generate("prompt p").from_cache


def test_replay_miss_is_an_error(tmp_path):
    client = CompletionClient(
        LmConfig(model="m1", backend="replay"),
        cache_dir=str(tmp_path / "fresh"),
        replay_dir=str(tmp_path / "empty"),
    )
    with pytest.raises(ReplayMiss):
        client.generate("never recorded")


def test_replay_requires_directory(tmp_path):
    with pytest.raises(ValueError):
        CompletionClient(LmConfig(model="m1", backend="replay"), cache_dir=str(tmp_path))


# --- http backend ------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def http_config(**overrides):
    base = dict(model="m1", backend="http", endpoint="http://lm.test/v1/completions",
                max_retries=2)
    base.update(overrides)
    return LmConfig(**base)


def make_http_backend(responses, config=None):
    from qasum.lm import HttpBackend

    return HttpBackend(config or http_config(), session=FakeSession(responses), sleep=lambda s: None)


def request_for(config, prompt="p"):
    from qasum.lm import CompletionRequest

    return CompletionRequest(
        model=config.model, prompt=prompt, max_tokens=config.max_tokens,
        greedy=config.greedy, stop_sequences=config.stop_sequences,
        key=cache_key(config.model, prompt, config.max_tokens, config.greedy,
                      config.stop_sequences),
    )


def test_http_success_and_body_shape():
    cfg = http_config(stop_sequences=("END",))
    backend = make_http_backend([FakeResponse(payload={"choices": [{"text": "out", "finish_reason": "stop"}]})], cfg)
    text, finish = backend.complete(request_for(cfg))
    assert (text, finish) == ("out", "stop")
    call = backend._session.calls[0]
    assert call["json"] == {"model": "m1", "prompt": "p", "max_tokens": 512,
                            "temperature": 0.0, "stop": ["END"]}


def test_http_api_key_header(monkeypatch):
    monkeypatch.setenv("QASUM_API_KEY", "sek")
    backend = make_http_backend([FakeResponse(payload={"choices": [{"text": "x"}]})])
    backend.complete(request_for(http_config()))
    assert backend._session.calls[0]["headers"]["Authorization"] == "Bearer sek"


def test_http_retries_then_rate_limited():
    responses = [FakeResponse(status_code=429)] * 3
    backend = make_http_backend(responses)
    with pytest.raises(RateLimited):
        backend.complete(request_for(http_config()))
    assert len(backend._session.responses) == 0  # all attempts consumed


def test_http_connection_errors_exhaust_to_unreachable():
    import requests as req

    responses = [req.ConnectionError("refused")] * 3
    backend = make_http_backend(responses)
    with pytest.raises(BackendUnreachable):
        backend.complete(request_for(http_config()))


def test_http_retry_recovers_after_transient_failure():
    responses = [
        FakeResponse(status_code=503),
        FakeResponse(payload={"choices": [{"text": "ok"}]}),
    ]
    backend = make_http_backend(responses)
    text, _ = backend.complete(request_for(http_config()))
    assert text == "ok"


def test_http_client_error_is_immediate():
    backend = make_http_backend([FakeResponse(status_code=400, text="bad request")])
    with pytest.raises(LmError) as excinfo:
        backend.complete(request_for(http_config()))
    assert not isinstance(excinfo.value, (RateLimited, BackendUnreachable))


def test_http_malformed_response():
    backend = make_http_backend([FakeResponse(payload={"nope": []})])
    with pytest.raises(LmError):
        backend.complete(request_for(http_config()))


def test_http_requires_endpoint():
    from qasum.lm import HttpBackend

    with pytest.raises(ValueError):
        HttpBackend(LmConfig(model="m1", backend="http"))


# --- bounded concurrency -----------------------------------------------------


class InstrumentedBackend:
    """Counts concurrent complete() calls to check the in-flight bound."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.event = threading.Event()

    def complete(self, request):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.event.wait(timeout=0.02)
        with self._lock:
            self.active -= 1
        return f"done {request.prompt}", "stop"


def test_max_in_flight_bounds_backend_concurrency(tmp_path):
    backend = InstrumentedBackend()
    client = CompletionClient(
        LmConfig(model="m1", backend="replay", max_in_flight=2),
        cache_dir=str(tmp_path / "cache"),
        backend=backend,
    )
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: client.generate(f"prompt {i}"), range(16)))
    assert backend.max_active <= 2


def test_config_validates_bounds():
    with pytest.raises(ValueError):
        LmConfig(model="m", max_in_flight=0)
    with pytest.raises(ValueError):
        LmConfig(model="m", backend="carrier-pigeon")
