"""The public records are values: frozen, replaceable, equal by fields and
hashed by them, and slotted, so they carry no per-instance ``__dict__``."""

from __future__ import annotations

import dataclasses

import pytest

import qasum
from qasum import (
    Corpus,
    CorpusSplit,
    ExperimentConfig,
    Generation,
    IclExample,
    LmConfig,
    ParsedOutput,
    PromptFrame,
    QuestionSpec,
    RankingTable,
    Reference,
    RougeScore,
    RunManifest,
    ScoreRow,
    TaskInstance,
)
from qasum.lm import CacheStats
from qasum.questions import RankedQuestion


def score_row(id_="i1"):
    score = RougeScore(0.5, 0.25, 1 / 3)
    return ScoreRow(id_, "qa", "News", 2, score, score, score, "ok")


# Per record type: a function that builds one, and a field with another value.
RECORDS = {
    Corpus: (lambda: Corpus((TaskInstance("i1", "News", "t", "a", "r"),)), "instances", ()),
    CorpusSplit: (lambda: CorpusSplit((TaskInstance("i1", "News", "t", "a", "r"),), ()),
                  "eval_set", (TaskInstance("i2", "News", "t", "b", "s"),)),
    ExperimentConfig: (lambda: ExperimentConfig(corpus="c.jsonl", lm=LmConfig("m1"),
                                                k_values=(0, 2)),
                       "k_values", (1,)),
    Generation: (lambda: Generation("text", "stop", False, 1.5), "from_cache", True),
    IclExample: (lambda: IclExample("article", "reference", ("one",)), "answers", ()),
    LmConfig: (lambda: LmConfig("m1", endpoint="http://localhost:1/v1"), "max_retries", 5),
    ParsedOutput: (lambda: ParsedOutput(("one",), "summary", "ok"), "parse_status", "failed"),
    PromptFrame: (lambda: PromptFrame("head", "tail", 1, ("stop",)), "k", 2),
    QuestionSpec: (lambda: QuestionSpec("topic", "What?"), "text", "Why?"),
    RankingTable: (lambda: RankingTable("m1", 0, None, "t",
                                        {"News": (RankedQuestion("topic", 0.5, 1),)}),
                   "seed", 1),
    Reference: (lambda: Reference.from_text("alpha beta alpha"), "tokens", ["beta"]),
    RougeScore: (lambda: RougeScore(0.5, 0.25, 1 / 3), "recall", 0.5),
    RunManifest: (lambda: RunManifest({"method": "qa"}, (score_row(),), CacheStats(1, 0, 0), 2.0),
                  "wall_clock_s", 3.0),
    ScoreRow: (score_row, "k", 3),
    TaskInstance: (lambda: TaskInstance("i1", "News", "t", "a", "r"), "reference", "s"),
}


def test_every_public_dataclass_is_listed():
    public = {getattr(qasum, name) for name in qasum.__all__}
    assert {obj for obj in public if dataclasses.is_dataclass(obj)} == set(RECORDS)


def hashable(record) -> bool:
    try:
        hash(dataclasses.astuple(record))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_value(cls):
    make, name, value = RECORDS[cls]
    record, twin = make(), make()
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(twin, field.name))
    assert not hasattr(record, "__dict__")

    changed = dataclasses.replace(record, **{name: value})
    assert getattr(changed, name) == value and changed != record
    assert record == twin and dataclasses.replace(changed, **{name: getattr(record, name)}) == twin
    if hashable(record):
        assert hash(record) == hash(twin)
    else:  # a list or dict field: unhashable, as the record was before it was slotted
        with pytest.raises(TypeError):
            hash(record)
