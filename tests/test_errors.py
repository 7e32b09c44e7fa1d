"""The error policy: which exception each refusal raises, with which
message, and the exit code the CLI maps it to."""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest

from conftest import StubBackend
import qasum
from qasum import cli
from qasum.corpus import (
    Corpus,
    CorpusError,
    TaskInstance,
    load_corpus,
    sample_icl_examples,
    split_corpus,
)
from qasum.harness import MismatchedEvalSets
from qasum.lm import (
    BackendUnreachable,
    CacheError,
    CompletionClient,
    LmConfig,
    LmError,
    RateLimited,
    ReplayMiss,
)
from qasum.prompting import IclExample, qa_frame
from qasum.questions import (
    RankedQuestion,
    RankingError,
    RankingTable,
    builtin_bank,
    ensure_model,
    rank_questions,
    top_k,
)

BANK = builtin_bank()


def record(id_, domain="News"):
    return {"id": id_, "domain": domain, "task": "xsum", "article": f"article {id_}",
            "reference": "a short summary"}


def load_records(tmp_path, records):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    return load_corpus(path)


def news(*ids):
    return Corpus(TaskInstance(i, "News", "xsum", f"article {i}", "a summary") for i in ids)


def ordering(*keys):
    return tuple(RankedQuestion(key, 1.0, 1) for key in keys)


def rank_nothing(tmp_path):
    client = CompletionClient(LmConfig(model="m1", backend="replay"), backend=StubBackend())
    return rank_questions(client, list(news("a")), subsample=0)


# Each refusal's class and its exact message. The prompt builder's class
# is pinned by test_prompting; here it only has to be an Exception.
REFUSALS = {
    "missing-field": (
        lambda tmp: load_records(tmp, [record("z"), {k: v for k, v in record("a").items()
                                                     if k != "reference"}]),
        CorpusError, "line 2: missing field(s): reference"),
    "duplicate-id": (
        lambda tmp: load_records(tmp, [record("a"), record("a")]),
        CorpusError, "line 2: duplicate id 'a'"),
    "unknown-domain": (
        lambda tmp: load_records(tmp, [record("a", domain="Sports")]),
        CorpusError, "line 1: unknown domain 'Sports'"),
    "group-of-one": (
        lambda tmp: split_corpus(news("a"), 0.5, seed=0),
        CorpusError, "group ('News', 'xsum') has 1 instance(s); need >= 2"),
    "short-pool": (
        lambda tmp: sample_icl_examples(split_corpus(news("a", "b"), 0.5, seed=0),
                                        "News", "xsum", count=2, seed=0),
        CorpusError, "ICL pool for ('News', 'xsum') has 1 instance(s); requested 2"),
    "model-mismatch": (
        lambda tmp: ensure_model(RankingTable("m1", 0, None, "t", {}), "other"),
        RankingError, "ranking was computed for model 'm1', run uses 'other' "
                      '(set "allow_model_mismatch": true in the config file to proceed anyway)'),
    "short-ranking": (
        lambda tmp: top_k(ordering("topic", "tone"), 3),
        RankingError, "k=3 outside [0, 2]"),
    "k-beyond-the-bank": (
        lambda tmp: top_k(ordering(*(q.key for q in BANK)), 11),
        RankingError, "k=11 outside [0, 10]"),
    "empty-ranking-cell": (
        rank_nothing,
        RankingError, "no successful answers for question 'topic' in domain 'News'"),
    "answer-count-mismatch": (
        lambda tmp: qa_frame(BANK[:2], [IclExample("ex", "ref", ("one",))]),
        Exception, "ICL example 0 supplies 1 answer(s); prompt has 2 question(s)"),
    "questions-beyond-the-markers": (
        lambda tmp: qa_frame([*BANK, BANK[0]], []),
        ValueError, "prompt has 11 questions; at most 10"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_class_and_message(tmp_path, case):
    refuse, base, message = REFUSALS[case]
    with pytest.raises(base) as excinfo:
        refuse(tmp_path)
    assert str(excinfo.value) == message


def qasum_exception_classes() -> set[type]:
    """Every exception class defined in a ``qasum`` module."""
    found = set()
    for info in pkgutil.iter_modules(qasum.__path__):
        module = importlib.import_module(f"qasum.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__}
    return found


EXIT_CODES = {
    CorpusError: (3, "corpus error: "),
    BackendUnreachable: (4, "backend unreachable: "),
    RateLimited: (5, "rate limited: "),
    ReplayMiss: (6, "replay fixture gap: "),
    RankingError: (7, "ranking error: "),
    MismatchedEvalSets: (8, "mismatched eval sets: "),
    LmError: (1, "error: "),
    CacheError: (1, "error: "),
}


def test_every_qasum_exception_has_an_exit_code(monkeypatch, capsys):
    assert qasum_exception_classes() == set(EXIT_CODES)
    # ValueError and OSError are the other refusals main maps, to exit 1.
    for cls, (code, prefix) in [*EXIT_CODES.items(), (ValueError, (1, "error: ")),
                                (OSError, (1, "error: "))]:
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setitem(cli._HANDLERS, "report", fail)
        assert cli.main(["report", "manifest.json", "--out", "out"]) == code, cls
        assert capsys.readouterr().err == f"{prefix}boom\n"
