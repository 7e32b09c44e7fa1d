"""Question bank, ranking phase, global ranking, and top-k selection."""

from __future__ import annotations

from collections import Counter
import dataclasses
import re

import pytest

from conftest import StubBackend
from qasum import metrics, questions
from qasum.corpus import TaskInstance
from qasum.lm import CompletionClient, LmConfig, LmError
from qasum.questions import (
    RankedQuestion,
    RankingError,
    RankingTable,
    builtin_bank,
    ensure_model,
    format_rank_matrix,
    global_ranking,
    load_ranking,
    rank_questions,
    save_ranking,
    top_k,
)

EXPECTED_BANK = [
    ("topic", "What is the main topic or focus of the content?"),
    ("key_pts", "What are the key points or arguments presented?"),
    ("entities", "Who are the 3 main entities or individuals involved, and what roles do they play?"),
    ("timeline", "Which timeline, if any, is being discussed here?"),
    ("details", "What are the supporting details, examples, or evidence provided?"),
    ("conclude", "What conclusions, impacts, or implications are mentioned, if any?"),
    ("tone", "What is the overall tone or sentiment (e.g., objective, critical, positive, etc.)?"),
    ("challenges", "What questions or challenges does the content raise?"),
    ("insights", "What unique insights or perspectives are offered?"),
    ("audience", "What audience is the content aimed at, and how does this affect its presentation?"),
]


def test_builtin_bank_is_pinned():
    bank = builtin_bank()
    assert len(bank) == 10
    assert [(q.key, q.text) for q in bank] == EXPECTED_BANK
    assert bank[0] == bank[0].__class__("topic", "What is the main topic or focus of the content?")
    assert bank[3].key == "timeline"
    assert bank[3].text == "Which timeline, if any, is being discussed here?"


# --- ranking phase -----------------------------------------------------------


def instance(id_, domain="News", reference="alpha beta gamma delta"):
    return TaskInstance(id=id_, domain=domain, task="t", article=f"article {id_}", reference=reference)


def stub_client(reply, tmp_path, **cfg):
    config = LmConfig(model="m1", backend="replay", **cfg)
    return CompletionClient(config, cache_dir=str(tmp_path / "cache"), backend=StubBackend(reply))


def test_rank_single_cell_half_overlap(tmp_path):
    # every answer shares 2 of its 4 words with the reference
    client = stub_client("alpha beta zz1 zz2", tmp_path)
    table = rank_questions(client, [instance("i1")])
    cells = table.domains["News"]
    assert [cell.key for cell in cells] == [q.key for q in builtin_bank()]
    assert all(cell.mean_precision == pytest.approx(0.5) for cell in cells)
    assert all(cell.n == 1 for cell in cells)


def test_rank_cell_mean_of_two_instances(tmp_path):
    # scores 0.2 and 0.4 across two instances -> mean 0.3
    def reply(prompt):
        if "article i1" in prompt:
            return "alpha zz1 zz2 zz3 zz4"  # 1/5
        return "alpha beta zz1 zz2 zz3"  # 2/5

    client = stub_client(reply, tmp_path)
    table = rank_questions(client, [instance("i1"), instance("i2")])
    assert len(table.domains["News"]) == 10
    for cell in table.domains["News"]:
        assert cell.mean_precision == pytest.approx(0.3)
        assert cell.n == 2


def test_rank_orders_forced_scores(tmp_path):
    # topic answers copy the reference, tone answers share nothing, the
    # rest share half their words
    def reply(prompt):
        if "main topic" in prompt:
            return "alpha beta gamma delta"
        if "overall tone" in prompt:
            return "purple monkey dishwasher"
        return "alpha zz1"

    client = stub_client(reply, tmp_path)
    instances = [instance("i1"), instance("i2", domain="Reviews")]
    table = rank_questions(client, instances)
    for domain in ("News", "Reviews"):
        keys = [r.key for r in table.domains[domain]]
        assert keys[0] == "topic"
        assert keys[-1] == "tone"
        assert table.domains[domain][0].mean_precision == 1.0
        assert table.domains[domain][-1].mean_precision == 0.0


def test_rank_empty_answer_scores_zero(tmp_path):
    client = stub_client("?!", tmp_path)
    table = rank_questions(client, [instance("i1")])
    assert len(table.domains["News"]) == 10
    for cell in table.domains["News"]:
        assert cell.mean_precision == 0.0
        assert cell.n == 1


def test_rank_tie_breaks_by_bank_order(tmp_path):
    client = stub_client("alpha beta gamma delta", tmp_path)  # every cell scores 1.0
    table = rank_questions(client, [instance("i1")])
    assert [r.key for r in table.domains["News"]] == [q.key for q in builtin_bank()]


class FlakyBackend:
    """Fails every call for one article with a generic LmError."""

    def __init__(self, bad_article):
        self.bad_article = bad_article

    def complete(self, request):
        if self.bad_article in request.prompt:
            raise LmError("transient")
        return "alpha beta gamma delta", "stop"


def test_rank_excludes_failed_calls_from_mean(tmp_path):
    config = LmConfig(model="m1", backend="replay")
    client = CompletionClient(config, cache_dir=str(tmp_path / "c"),
                              backend=FlakyBackend("article i2"))
    table = rank_questions(client, [instance("i1"), instance("i2")])
    assert len(table.domains["News"]) == 10
    for cell in table.domains["News"]:
        assert cell.n == 1
        assert cell.mean_precision == 1.0


def test_rank_tokenizes_each_reference_once_and_each_answer_once(tmp_path, monkeypatch):
    texts = []

    def counting_tokenize(text, tokenize=metrics.tokenize):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(metrics, "tokenize", counting_tokenize)
    monkeypatch.setattr(questions, "tokenize", counting_tokenize, raising=False)
    config = LmConfig(model="m1", backend="replay")
    client = CompletionClient(config, cache_dir=str(tmp_path / "c"),
                              backend=FlakyBackend("article i2"))
    rank_questions(client, [instance(i, reference=f"ref {i}") for i in ("i1", "i2", "i3")])
    # i2's ten calls fail, so 20 answers are scored against 3 references.
    assert Counter(texts) == {"alpha beta gamma delta": 20, "ref i1": 1, "ref i2": 1, "ref i3": 1}


def test_rank_errors_when_cell_has_no_successes(tmp_path):
    config = LmConfig(model="m1", backend="replay")
    client = CompletionClient(config, cache_dir=str(tmp_path / "c"),
                              backend=FlakyBackend("article i1"))
    with pytest.raises(RankingError, match="^no successful answers for question 'topic' "):
        rank_questions(client, [instance("i1")])


def test_rank_subsample_is_seeded_and_recorded(tmp_path):
    client = stub_client("alpha beta gamma delta", tmp_path)
    instances = [instance(f"i{n}") for n in range(6)]
    one = rank_questions(client, instances, subsample=2, seed=7)
    two = rank_questions(client, instances, subsample=2, seed=7)
    assert one.subsample == 2
    assert one.domains == two.domains
    assert one.domains["News"][0].n == 2


def test_rank_subsample_of_zero_leaves_every_cell_empty(tmp_path):
    client = stub_client("alpha beta gamma delta", tmp_path)
    with pytest.raises(RankingError, match="^no successful answers for question 'topic' "):
        rank_questions(client, [instance("i1")], subsample=0)


def test_rank_requires_instances(tmp_path):
    with pytest.raises(ValueError):
        rank_questions(stub_client("x", tmp_path), [])


# --- table construction helpers ----------------------------------------------


def table_from_ranks(rank_by_key: dict[str, int], domain="News", model="m1") -> RankingTable:
    """Build a table whose mean precisions induce the given 1-based ranks."""
    entries = sorted(rank_by_key.items(), key=lambda kv: kv[1])
    ranked = tuple(
        RankedQuestion(key, 1.0 - (position - 1) * 0.05, 1) for key, position in entries
    )
    return RankingTable(model=model, seed=0, subsample=None, created_at="t", domains={domain: ranked})


MISTRAL_NEWS_RANKS = {
    "topic": 2, "key_pts": 1, "entities": 3, "timeline": 4, "details": 5,
    "conclude": 6, "tone": 9, "challenges": 8, "insights": 7, "audience": 10,
}


def test_top_k_reproduces_published_news_ordering():
    table = table_from_ranks(MISTRAL_NEWS_RANKS, domain="News", model="Mistral-7B")
    picked = top_k(table.domains["News"], 3)
    assert [q.key for q in picked] == ["key_pts", "topic", "entities"]


def test_top_k_zero_is_empty():
    table = table_from_ranks(MISTRAL_NEWS_RANKS)
    assert top_k(table.domains["News"], 0) == []


def test_top_k_out_of_range():
    table = table_from_ranks(MISTRAL_NEWS_RANKS)
    with pytest.raises(RankingError, match=re.escape("k=11 outside [0, 10]")):
        top_k(table.domains["News"], 11)
    with pytest.raises(RankingError, match=re.escape("k=-1 outside [0, 10]")):
        top_k(table.domains["News"], -1)


def test_top_k_concatenation_reproduces_full_ordering():
    table = table_from_ranks(MISTRAL_NEWS_RANKS)
    full = [q.key for q in top_k(table.domains["News"], 10)]
    assert full == [r.key for r in table.domains["News"]]


def test_ranking_is_scale_invariant():
    table = table_from_ranks(MISTRAL_NEWS_RANKS)
    scaled = RankingTable(
        model=table.model, seed=0, subsample=None, created_at="t",
        domains={
            d: tuple(dataclasses.replace(r, mean_precision=r.mean_precision * 0.37) for r in rs)
            for d, rs in table.domains.items()
        },
    )
    assert [q.key for q in top_k(table.domains["News"], 5)] == [
        q.key for q in top_k(scaled.domains["News"], 5)
    ]


# --- global ranking ----------------------------------------------------------


def two_domain_table():
    return RankingTable(
        model="m1", seed=0, subsample=None, created_at="t",
        domains={
            "News": (
                RankedQuestion("topic", 0.6, 1),
                RankedQuestion("key_pts", 0.4, 1),
                RankedQuestion("entities", 0.2, 1),
            ),
            "Reviews": (
                RankedQuestion("key_pts", 0.6, 1),
                RankedQuestion("topic", 0.4, 1),
                RankedQuestion("entities", 0.3, 1),
            ),
        },
    )


def test_global_single_domain_identity():
    table = table_from_ranks(MISTRAL_NEWS_RANKS)
    assert [e.key for e in global_ranking(table)] == [r.key for r in table.domains["News"]]


def test_global_means_per_domain_precisions():
    ranking = global_ranking(two_domain_table())
    by_key = {e.key: e.mean_precision for e in ranking}
    assert by_key["topic"] == pytest.approx(0.5)
    assert by_key["key_pts"] == pytest.approx(0.5)
    assert by_key["entities"] == pytest.approx(0.25)
    # topic and key_pts tie at 0.5 -> bank order puts topic first
    assert [e.key for e in ranking] == ["topic", "key_pts", "entities"]


def test_top_k_on_global_ranking():
    ranking = global_ranking(two_domain_table())
    assert [q.key for q in top_k(ranking, 2)] == ["topic", "key_pts"]


# --- serialization -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    table = two_domain_table()
    path = tmp_path / "ranking.json"
    save_ranking(table, path)
    loaded = load_ranking(path)
    assert loaded == table


def test_ensure_model_guard():
    table = two_domain_table()
    ensure_model(table, "m1")
    with pytest.raises(RankingError, match="^ranking was computed for model 'm1', run uses"):
        ensure_model(table, "other")
    ensure_model(table, "other", allow_mismatch=True)


def test_format_rank_matrix_positions():
    matrix = format_rank_matrix(two_domain_table())
    lines = matrix.splitlines()
    assert lines[0].split("\t")[:3] == ["domain", "topic", "key_pts"]
    news = lines[1].split("\t")
    assert news[0] == "News"
    assert news[1] == "1"  # topic ranked first in News
    reviews = lines[2].split("\t")
    assert reviews[2] == "1"  # key_pts ranked first in Reviews
