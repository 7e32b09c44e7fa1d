"""Outside-in span tracer for qasum's public functions.

The tracer replaces each traced function with a wrapper under every name
the package looks it up by (``qasum.harness.rouge_l`` as well as
``qasum.metrics.rouge_l``), and each traced method on its class. A wrapper
records one span per call: id, parent id, thread, name, start and end, and
its self time, which is its duration minus the time its child spans
cover. Each thread keeps its own span stack. A span that opens on a pool
worker with an empty stack takes the innermost open span of the thread
that installed the tracer as its parent, which is exact while one worker
runs at a time, as it does with ``max_in_flight = 1``.

Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

from collections import Counter
import csv
import itertools
import json
import sys
import threading
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, name, start_ns, end_ns, self_ns)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording a span called ``name``; ``after(tracer, args,
        result)`` runs outside the span and outside its parent's self time."""
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            cross_thread = not stack
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            frame = [next(self._ids), perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                self._charge(parent, duration, cross_thread)
                spans.append((frame[0], parent[0] if parent else 0, threading.get_ident(),
                              name, frame[1], end, duration - frame[2]))
            if after is not None:
                hook_started = perf_counter_ns()
                after(self, args, result)
                self._charge(parent, perf_counter_ns() - hook_started, cross_thread)
            return result

        traced.__wrapped__ = fn
        return traced

    def _charge(self, parent, ns: int, cross_thread: bool) -> None:
        if parent is None:
            return
        if cross_thread:
            with self._lock:
                parent[2] += ns
        else:
            parent[2] += ns

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Trace ``module.attr`` under every qasum module binding of it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qasum" or mod_name.startswith("qasum.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, traced)
                    self._undo.append((mod, binding, original))

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        setattr(cls, attr, self.wrap(original, name, after))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self ns)."""
        out: dict[str, list[int]] = {}
        for span in self.spans:
            entry = out.setdefault(span[3], [0, 0])
            entry[0] += 1
            entry[1] += span[6]
        return {name: (calls, ns) for name, (calls, ns) in out.items()}

    def durations_ns(self, name: str) -> list[int]:
        return [span[5] - span[4] for span in self.spans if span[3] == name]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "thread", "name", "start_ns", "end_ns", "self_ns"])
            writer.writerows(self.spans)


def _count_cache_get(tracer, args, result) -> None:
    tracer.counts["lm.cache.hits" if result is not None else "lm.cache.misses"] += 1


def _count_cache_put(tracer, args, result) -> None:
    # ResponseCache.put(self, key, entry) stores the entry as compact JSON.
    tracer.counts["lm.cache.bytes_written"] += len(json.dumps(args[2], ensure_ascii=False).encode("utf-8"))


def _count_lcs_cells(tracer, args, result) -> None:
    tracer.counts["metrics.lcs.cells"] += len(args[0]) * len(args[1])


def _count_parse_status(tracer, args, result) -> None:
    tracer.counts[f"prompting.parse.{result.parse_status}"] += 1


def install(tracer: Tracer, backend_classes=()) -> None:
    """Trace qasum's layers: corpus, questions, prompting, lm, metrics and
    harness. ``backend_classes`` are extra completion backends whose
    ``complete`` counts as the backend round trip."""
    from qasum import corpus, harness, lm, metrics, prompting, questions

    for attr in ("load_corpus", "split_corpus", "sample_icl_examples"):
        tracer.patch_function(corpus, attr, f"corpus.{attr}")
    tracer.patch_method(corpus.Corpus, "by_id", "corpus.by_id")

    for attr in ("top_k", "rank_questions"):
        tracer.patch_function(questions, attr, f"questions.{attr}")

    for attr in ("build_vanilla", "build_icl_prompt", "build_qa_prompt", "build_single_qa"):
        tracer.patch_function(prompting, attr, "prompting.build")
    tracer.patch_function(prompting, "parse_output", "prompting.parse_output", _count_parse_status)

    tracer.patch_method(lm.CompletionClient, "generate", "lm.generate")
    tracer.patch_method(lm.ResponseCache, "get", "lm.cache.get", _count_cache_get)
    tracer.patch_method(lm.ResponseCache, "put", "lm.cache.put", _count_cache_put)
    for cls in (lm.HttpBackend, *backend_classes):
        tracer.patch_method(cls, "complete", "lm.backend")

    tracer.patch_function(metrics, "tokenize", "metrics.tokenize")
    tracer.patch_function(metrics, "lcs_length", "metrics.lcs", _count_lcs_cells)
    for attr in ("rouge_n", "rouge_l", "overlap_precision", "aggregate"):
        tracer.patch_function(metrics, attr, f"metrics.{attr}")

    for attr in ("run_eval", "run_rank", "save_manifest"):
        tracer.patch_function(harness, attr, f"harness.{attr}")
    for attr in ("write_per_instance_csv", "write_aggregate_csv"):
        tracer.patch_function(harness, attr, "harness.write_csv")
