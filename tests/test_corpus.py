"""Corpus loading, validation, splitting, and ICL sampling."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from qasum.corpus import (
    Corpus,
    DomainRegistry,
    DuplicateId,
    GroupTooSmall,
    InsufficientPool,
    MalformedRecord,
    TaskInstance,
    UnknownDomain,
    load_corpus,
    load_manifest,
    sample_icl_examples,
    save_corpus,
    split_corpus,
)

FIXTURES = Path(__file__).parent / "fixtures"


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(id_, domain="News", task="xsum", article="some article text", reference="a short summary"):
    return {"id": id_, "domain": domain, "task": task, "article": article, "reference": reference}


def test_load_small_fixture(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("b"), record("c", domain="Reviews", task="amz")])
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.domain_counts() == {"News": 2, "Reviews": 1}


def test_by_id_index_is_built_once():
    corpus = load_corpus(FIXTURES / "corpus_6.jsonl")
    index = corpus.by_id()
    assert corpus.by_id() is index
    assert list(index) == [inst.id for inst in corpus.instances]
    assert all(index[inst.id] is inst for inst in corpus.instances)
    with pytest.raises(TypeError):
        index["new"] = corpus.instances[0]


def test_domain_counts_sum_to_total():
    corpus = load_corpus(FIXTURES / "corpus_6.jsonl")
    assert sum(corpus.domain_counts().values()) == len(corpus)


def test_missing_reference_field(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record("a")
    del rec["reference"]
    write_jsonl(path, [record("z"), rec])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_no == 2
    assert "reference" in str(excinfo.value)


def test_invalid_json_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_corpus(path)


def test_extra_field_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record("a")
    rec["extra"] = 1
    write_jsonl(path, [rec])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert "extra" in str(excinfo.value)


def test_non_string_field(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record("a")
    rec["article"] = 42
    write_jsonl(path, [rec])
    with pytest.raises(MalformedRecord):
        load_corpus(path)


def test_empty_article_after_tokenization(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", article="?!...")])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert "article" in str(excinfo.value)


def test_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("a")])
    with pytest.raises(DuplicateId):
        load_corpus(path)


def test_unknown_domain(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", domain="Sports")])
    with pytest.raises(UnknownDomain):
        load_corpus(path)


def test_custom_registry_admits_new_domains(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", domain="Sports")])
    registry = DomainRegistry(("Sports", "News"))
    corpus = load_corpus(path, registry)
    assert corpus.domain_counts() == {"Sports": 1}


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        DomainRegistry(("News", "News"))


def test_round_trip_identity(tmp_path):
    corpus = load_corpus(FIXTURES / "corpus_6.jsonl")
    out = tmp_path / "copy.jsonl"
    save_corpus(corpus, out)
    assert load_corpus(out) == corpus


def test_replication_manifest_totals():
    counts = load_manifest(FIXTURES / "manifest_replication.jsonl")
    assert counts == {
        "Commonsense": 600,
        "Dialogue": 1200,
        "News": 3000,
        "Public Places": 600,
        "Reviews": 1200,
        "Research": 600,
    }


def test_manifest_rejects_bad_count(tmp_path):
    path = tmp_path / "m.jsonl"
    write_jsonl(path, [{"domain": "News", "task": "xsum", "count": -1}])
    with pytest.raises(MalformedRecord):
        load_manifest(path)


# --- splitting ---------------------------------------------------------------


def ten_instance_corpus():
    instances = tuple(record_to_instance(record(f"i{n:02d}")) for n in range(10))
    return Corpus(instances=instances)


def record_to_instance(rec):
    return TaskInstance(**rec)


def test_split_ceiling_arithmetic():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.2, seed=1)
    assert len(split.icl_pool) == 2
    assert len(split.eval_set) == 8


def test_split_is_deterministic_and_partitions():
    corpus = ten_instance_corpus()
    one = split_corpus(corpus, 0.3, seed=42)
    two = split_corpus(corpus, 0.3, seed=42)
    assert one == two
    assert set(one.icl_pool) & set(one.eval_set) == set()
    assert set(one.icl_pool) | set(one.eval_set) == {i.id for i in corpus.instances}


def test_split_depends_only_on_contents_not_order():
    corpus = ten_instance_corpus()
    reversed_corpus = Corpus(instances=tuple(reversed(corpus.instances)))
    assert split_corpus(corpus, 0.3, seed=5) == split_corpus(reversed_corpus, 0.3, seed=5)


def test_split_changes_with_seed():
    corpus = ten_instance_corpus()
    assert split_corpus(corpus, 0.3, seed=1) != split_corpus(corpus, 0.3, seed=2)


def test_split_group_too_small():
    corpus = Corpus(instances=(record_to_instance(record("only")),))
    with pytest.raises(GroupTooSmall):
        split_corpus(corpus, 0.5, seed=0)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        split_corpus(ten_instance_corpus(), 1.0, seed=0)


# --- ICL sampling ------------------------------------------------------------


def test_sample_returns_distinct_pool_members():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.5, seed=3)
    picked = sample_icl_examples(split, corpus, "News", "xsum", count=2, seed=3)
    ids = [p.id for p in picked]
    assert len(set(ids)) == 2
    assert set(ids) <= set(split.icl_pool)


def test_sample_never_returns_eval_instances():
    corpus = ten_instance_corpus()
    for seed in range(10):
        split = split_corpus(corpus, 0.4, seed=seed)
        picked = sample_icl_examples(split, corpus, "News", "xsum", count=3, seed=seed)
        assert all(p.id not in split.eval_ids() for p in picked)


def test_sample_is_deterministic():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.5, seed=3)
    a = sample_icl_examples(split, corpus, "News", "xsum", count=3, seed=9)
    b = sample_icl_examples(split, corpus, "News", "xsum", count=3, seed=9)
    assert [x.id for x in a] == [x.id for x in b]


def test_sample_insufficient_pool():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.2, seed=3)  # pool of 2
    with pytest.raises(InsufficientPool):
        sample_icl_examples(split, corpus, "News", "xsum", count=6, seed=0)


def test_sample_rejects_zero_count():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.5, seed=3)
    with pytest.raises(ValueError):
        sample_icl_examples(split, corpus, "News", "xsum", count=0, seed=0)
