"""Seeded synthetic corpus and the scripted completion source.

The corpus copies the (domain, task) group shape of the replication
manifest and fills each instance with words from a seeded Zipf-weighted
vocabulary. A reference is an ordered sample of its article's words with
some vocabulary words mixed in, so ROUGE and overlap precision land
strictly between 0 and 1.

The completion source answers from the target article alone: the same
prompt always gets the same completion, whether it is served in process
or over HTTP, cold or from the cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from qasum.prompting import QA_INSTRUCTION, SINGLE_QA_INSTRUCTION, VANILLA_INSTRUCTION
from qasum.questions import builtin_bank

VOCAB_SIZE = 4000
ZIPF_HEAD = 2000  # copies of the most frequent word
SUMMARY_RATIO = 1 / 6  # summary words per article word
ANSWER_WORDS = 10
SENTENCE_WORDS = 16


def read_groups(manifest_path, scale: float = 1.0) -> list[tuple[str, str, int]]:
    """(domain, task, count) rows of a replication manifest, counts scaled
    and rounded (at least 2 per group so every group can be split)."""
    groups = []
    with open(manifest_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                count = max(2, round(row["count"] * scale))
                groups.append((row["domain"], row["task"], count))
    return groups


def _vocabulary(rng: random.Random) -> list[str]:
    syllables = [c + v for c in "bdfghklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < VOCAB_SIZE:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))))
    return sorted(words)


def _sentences(words: list[str]) -> str:
    return " ".join(
        " ".join(words[i : i + SENTENCE_WORDS]) + "."
        for i in range(0, len(words), SENTENCE_WORDS)
    )


def generate_corpus(
    groups: list[tuple[str, str, int]],
    seed: int,
    article_words: int,
    reference_words: int,
    copied_share: float = 0.7,
) -> list[dict]:
    """Corpus records in qasum's JSONL field order; same seed, same bytes."""
    rng = random.Random(f"perfbench|corpus|{seed}")
    vocab = _vocabulary(rng)
    # Each word repeated in proportion to 1/rank (at least once): drawing
    # uniformly from this list is an approximate Zipf draw, and cheaper
    # than a weighted one.
    population = [w for r, w in enumerate(vocab) for _ in range(max(1, round(ZIPF_HEAD / (r + 1))))]
    n_copied = round(reference_words * copied_share)
    records = []
    for domain, task, count in groups:
        for i in range(count):
            article = rng.choices(population, k=article_words)
            picks = sorted(rng.sample(range(article_words), n_copied))
            reference = [article[p] for p in picks]
            for _ in range(reference_words - n_copied):
                reference.insert(rng.randrange(len(reference) + 1), rng.choice(vocab))
            records.append({
                "id": f"{task}-{i:05d}",
                "domain": domain,
                "task": task,
                "article": _sentences(article),
                "reference": " ".join(reference),
            })
    return records


def write_corpus(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split_counts(groups: list[tuple[str, str, int]], pool_fraction: float) -> dict[str, tuple[int, int]]:
    """Per-domain (pool, eval) instance counts under qasum's documented
    split rule: each group sends ceil(fraction * size), at least 1, to the
    pool."""
    out: dict[str, tuple[int, int]] = {}
    for domain, _task, count in groups:
        n_pool = max(1, math.ceil(pool_fraction * count))
        pool, ev = out.get(domain, (0, 0))
        out[domain] = (pool + n_pool, ev + count - n_pool)
    return out


class ScriptedSource:
    """Deterministic completion source keyed on the target article only.

    Single-question prompts get ten article words at an offset set by the
    question; qa prompts get one such answer per question plus a summary;
    vanilla and ICL prompts get the summary alone. The summary is an
    ordered sample of the article's words, seeded by the article text.
    """

    def __init__(self):
        self._key_index = {q.text: i for i, q in enumerate(builtin_bank())}

    @staticmethod
    def _words(article: str) -> list[str]:
        return article.replace(".", "").split()

    def _answer(self, words: list[str], question_text: str) -> str:
        start = self._key_index[question_text] * len(words) // len(self._key_index)
        return " ".join(words[start : start + ANSWER_WORDS])

    @staticmethod
    def _summary(words: list[str], article: str) -> str:
        rng = random.Random(hashlib.sha256(article.encode("utf-8")).digest())
        n = max(1, round(len(words) * SUMMARY_RATIO))
        return " ".join(words[p] for p in sorted(rng.sample(range(len(words)), n)))

    def complete_prompt(self, prompt: str) -> str:
        if prompt.startswith(SINGLE_QA_INSTRUCTION):
            article, rest = prompt[len(SINGLE_QA_INSTRUCTION) + 1 :].split("\nQ: ", 1)
            return self._answer(self._words(article), rest.rsplit("\nA:", 1)[0])

        if QA_INSTRUCTION in prompt:
            target = prompt[prompt.rindex(QA_INSTRUCTION) + len(QA_INSTRUCTION) + 1 :]
            article, rest = target.split("\nQ1: ", 1)
            lines = ("Q1: " + rest.rsplit("\nA:", 1)[0]).splitlines()
            words = self._words(article)
            answers = " ".join(
                f"A{i}: {self._answer(words, line.split(': ', 1)[1])}."
                for i, line in enumerate(lines, start=1)
            )
            return f" {answers}\nSummary: {self._summary(words, article)}."

        if VANILLA_INSTRUCTION in prompt:
            target = prompt[prompt.rindex(VANILLA_INSTRUCTION) + len(VANILLA_INSTRUCTION) + 1 :]
            article = target.rsplit("\nSummary:", 1)[0]
            return f" {self._summary(self._words(article), article)}"

        raise ValueError(f"unrecognised prompt shape: {prompt[:60]!r}")

    def complete(self, request) -> tuple[str, str]:
        """The backend interface qasum's CompletionClient calls."""
        return self.complete_prompt(request.prompt), "stop"
