"""Corpus loading, validation, splitting, and ICL sampling."""

from __future__ import annotations

import json
from pathlib import Path
import random
import re
import tempfile

from hypothesis import example, given, settings, strategies as st
import pytest

from qasum.corpus import (
    DEFAULT_DOMAINS,
    RECORD_FIELDS,
    Corpus,
    CorpusError,
    TaskInstance,
    load_corpus,
    sample_icl_examples,
    split_corpus,
    subsample_per_domain,
)
from qasum.metrics import tokenize

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
    assert [inst.domain for inst in corpus.instances] == ["News", "News", "Reviews"]


def test_missing_reference_field(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record("a")
    del rec["reference"]
    write_jsonl(path, [record("z"), rec])
    with pytest.raises(CorpusError, match="^line 2: ") as excinfo:
        load_corpus(path)
    assert "reference" in str(excinfo.value)


def test_invalid_json_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="^line 1: invalid JSON: "):
        load_corpus(path)


def test_extra_field_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record("a")
    rec["extra"] = 1
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError, match="^line 1: ") as excinfo:
        load_corpus(path)
    assert "extra" in str(excinfo.value)


def test_non_string_field(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record("a")
    rec["article"] = 42
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError, match="^line 1: field 'article' is not a string$"):
        load_corpus(path)


@pytest.mark.parametrize("field", ["id", "domain", "task", "article", "reference"])
def test_lone_surrogate_rejected(tmp_path, field):
    path = tmp_path / "c.jsonl"
    rec = record("b")
    rec[field] += "\ud800"
    write_jsonl(path, [record("a"), rec])
    assert "\\ud800" in path.read_text(encoding="utf-8")
    with pytest.raises(CorpusError, match="^line 2: ") as excinfo:
        load_corpus(path)
    assert repr(field) in str(excinfo.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad_line", [1, 3, 400])  # 400: past the text reader's first buffer
def test_invalid_utf8_rejected(tmp_path, newline, bad_line):
    lines = [json.dumps(record(f"r{n:03}")).encode("utf-8") for n in range(1, 501)]
    lines[bad_line - 1] = lines[bad_line - 1].replace(b"some article", b"some \xff\xfe article")
    path = tmp_path / "c.jsonl"
    path.write_bytes(newline.encode("ascii").join(lines) + newline.encode("ascii"))
    with pytest.raises(CorpusError) as excinfo:
        load_corpus(path)
    assert str(excinfo.value) == f"line {bad_line}: invalid UTF-8: byte 0xff (invalid start byte)"


def test_empty_article_after_tokenization(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", article="?!...")])
    with pytest.raises(CorpusError, match="^line 1: ") as excinfo:
        load_corpus(path)
    assert "article" in str(excinfo.value)


def test_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("a")])
    with pytest.raises(CorpusError, match="^line 2: duplicate id 'a'$"):
        load_corpus(path)


def test_unknown_domain(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", domain="Sports")])
    with pytest.raises(CorpusError, match="^line 1: unknown domain 'Sports'$"):
        load_corpus(path)


def test_custom_registry_admits_new_domains(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", domain="Sports")])
    corpus = load_corpus(path, ("Sports", "News"))
    assert [inst.domain for inst in corpus.instances] == ["Sports"]


def plain_load(path) -> Corpus:
    """The corpus checks written out one after another, in the order
    ``load_corpus`` documents and has always applied them: the oracle for
    the property below."""
    instances = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {line_no}: invalid JSON: {exc.msg}") from exc
            if not isinstance(rec, dict):
                raise CorpusError(f"line {line_no}: record is not a JSON object")
            missing = [f for f in RECORD_FIELDS if f not in rec]
            if missing:
                raise CorpusError(f"line {line_no}: missing field(s): {', '.join(missing)}")
            extra = sorted(set(rec) - set(RECORD_FIELDS))
            if extra:
                raise CorpusError(f"line {line_no}: unexpected field(s): {', '.join(extra)}")
            for f in RECORD_FIELDS:
                if not isinstance(rec[f], str):
                    raise CorpusError(f"line {line_no}: field {f!r} is not a string")
            # The file is UTF-8, so only a \u escape can decode to a lone surrogate.
            if "\\u" in line:
                for f in RECORD_FIELDS:
                    if re.search("[\ud800-\udfff]", rec[f]):
                        raise CorpusError(f"line {line_no}: field {f!r} holds a lone surrogate")
            if rec["id"] in seen:
                raise CorpusError(f"line {line_no}: duplicate id {rec['id']!r}")
            if rec["domain"] not in DEFAULT_DOMAINS:
                raise CorpusError(f"line {line_no}: unknown domain {rec['domain']!r}")
            if not tokenize(rec["article"]):
                raise CorpusError(f"line {line_no}: article is empty after tokenization")
            if not tokenize(rec["reference"]):
                raise CorpusError(f"line {line_no}: reference is empty after tokenization")
            seen.add(rec["id"])
            instances.append(TaskInstance(**rec))
    return Corpus(tuple(instances))


def load_outcome(load, path):
    """The instances ``load`` returns, or the class and message of the
    error it raises."""
    try:
        return load(path).instances
    except CorpusError as exc:
        return type(exc), str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=4,
)
# ASCII and non-ASCII words, and tokenless ones.
WORDS = st.lists(
    st.sampled_from(["news", "Summary", "café", "naïve", "東京", "?!", "_", "\x85"]),
    min_size=1, max_size=4,
).map(" ".join)
# Lone surrogates, which only a \u escape can carry into a UTF-8 file.
SURROGATES = st.sampled_from(["\ud800", "\udfff"])
FIELD_VALUES = {
    # "a" comes before the drawn line and "c" after it, so both are duplicates.
    "id": st.sampled_from(["d", "d", "d", "a", "c"]),
    "domain": st.sampled_from(DEFAULT_DOMAINS + ("Sports", "news")),
    "task": WORDS,
    "article": WORDS,
    "reference": WORDS,
}
# str.isspace() characters, among them ones str.splitlines() would split at
# but the file reader does not.
WHITESPACE = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"), min_size=1)


def escape_surrogates(text: str) -> str:
    """A lone surrogate cannot be written as UTF-8; its JSON \\u escape can."""
    return re.sub("[\ud800-\udfff]", lambda m: f"\\u{ord(m[0]):04x}", text)


@st.composite
def corpus_lines(draw) -> str:
    """One line of a corpus file: mostly a record, its keys permuted, with
    up to three changes (a lone surrogate added to a field, any JSON value
    in a field, a field dropped, a key added), written with or without
    ensure_ascii; else a whitespace-only line, any JSON value, or a
    truncated record."""
    kind = draw(st.sampled_from(["record"] * 7 + ["whitespace", "any-json", "truncated"]))
    if kind == "whitespace":
        return draw(WHITESPACE)
    if kind == "any-json":
        return json.dumps(draw(JSON_VALUES))
    rec = {f: draw(FIELD_VALUES[f]) for f in RECORD_FIELDS}
    changes = st.tuples(st.sampled_from(["surrogate", "any-json", "drop", "add"]),
                        st.sampled_from(RECORD_FIELDS))
    for change, field in draw(st.lists(changes, max_size=3)):
        if change == "surrogate" and isinstance(rec.get(field), str):
            rec[field] += draw(SURROGATES)
        elif change == "any-json":
            rec[field] = draw(JSON_VALUES)
        elif change == "drop":
            rec.pop(field, None)
        elif change == "add":
            rec[draw(st.text(max_size=6))] = draw(WORDS | JSON_VALUES)
    rec = {key: rec[key] for key in draw(st.permutations(list(rec)))}
    text = escape_surrogates(json.dumps(rec, ensure_ascii=draw(st.booleans())))
    return text[:-1] if kind == "truncated" else text


@settings(deadline=None, max_examples=300)
@given(corpus_lines())
@example(json.dumps(record("d", article="café \ud800")))
@example(escape_surrogates(json.dumps(record("d", article="café \ud800"), ensure_ascii=False)))
@example(json.dumps(record("d", reference="naïve"), ensure_ascii=False))
@example("\x85\u3000")
@example(json.dumps({**record("d"), "task": None}))
@example(json.dumps({"tsak" if f == "task" else f: v for f, v in record("d").items()}))
def test_load_corpus_agrees_with_the_plain_checks(line):
    lines = [json.dumps(record("a")), json.dumps(record("b", article="café")), line,
             json.dumps(record("c"), ensure_ascii=False)]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "c.jsonl"
        path.write_text("".join(f"{text}\n" for text in lines), encoding="utf-8")
        assert load_outcome(load_corpus, path) == load_outcome(plain_load, path)


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
    assert set(one.icl_pool) | set(one.eval_set) == set(corpus.instances)


def test_split_is_the_seeded_sample_of_the_id_sorted_group():
    corpus = Corpus(instances=tuple(reversed(ten_instance_corpus().instances)))
    split = split_corpus(corpus, 0.3, seed=4)
    shuffled = random.Random("4|News|xsum").sample(sorted(i.id for i in corpus.instances), 10)
    assert [i.id for i in split.icl_pool] == sorted(shuffled[:3])
    assert [i.id for i in split.eval_set] == sorted(shuffled[3:])


def test_split_depends_only_on_contents_not_order():
    corpus = ten_instance_corpus()
    reversed_corpus = Corpus(instances=tuple(reversed(corpus.instances)))
    assert split_corpus(corpus, 0.3, seed=5) == split_corpus(reversed_corpus, 0.3, seed=5)


def test_split_changes_with_seed():
    corpus = ten_instance_corpus()
    assert split_corpus(corpus, 0.3, seed=1) != split_corpus(corpus, 0.3, seed=2)


def test_split_group_too_small():
    corpus = Corpus(instances=(record_to_instance(record("only")),))
    with pytest.raises(CorpusError, match=re.escape("group ('News', 'xsum') has 1 instance(s)")):
        split_corpus(corpus, 0.5, seed=0)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        split_corpus(ten_instance_corpus(), 1.0, seed=0)


# --- ICL sampling ------------------------------------------------------------


def test_sample_returns_distinct_pool_members():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.5, seed=3)
    picked = sample_icl_examples(split, "News", "xsum", count=2, seed=3)
    ids = [p.id for p in picked]
    assert len(set(ids)) == 2
    assert set(picked) <= set(split.icl_pool)


def test_sample_never_returns_eval_instances():
    corpus = ten_instance_corpus()
    for seed in range(10):
        split = split_corpus(corpus, 0.4, seed=seed)
        picked = sample_icl_examples(split, "News", "xsum", count=3, seed=seed)
        assert all(p not in split.eval_set for p in picked)


def test_sample_is_deterministic():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.5, seed=3)
    a = sample_icl_examples(split, "News", "xsum", count=3, seed=9)
    b = sample_icl_examples(split, "News", "xsum", count=3, seed=9)
    assert [x.id for x in a] == [x.id for x in b]


def test_sample_insufficient_pool():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.2, seed=3)  # pool of 2
    with pytest.raises(CorpusError, match=re.escape("has 2 instance(s); requested 6")):
        sample_icl_examples(split, "News", "xsum", count=6, seed=0)


def test_sample_rejects_zero_count():
    corpus = ten_instance_corpus()
    split = split_corpus(corpus, 0.5, seed=3)
    with pytest.raises(ValueError):
        sample_icl_examples(split, "News", "xsum", count=0, seed=0)


def test_subsample_per_domain_is_the_seeded_per_domain_sample():
    instances = [
        TaskInstance(id=f"{d[0]}{n:02d}", domain=d, task="t", article="a", reference="r")
        for d in ("Reviews", "News") for n in range(12)
    ]
    random.Random(1).shuffle(instances)
    picked = subsample_per_domain(instances, 5, seed=7, label="eval")
    expected = []
    for domain in ("News", "Reviews"):
        ids = sorted(i.id for i in instances if i.domain == domain)
        expected += sorted(random.Random(f"7|eval|{domain}").sample(ids, 5))
    assert [i.id for i in picked] == expected
    everything = subsample_per_domain(instances, None, seed=7, label="eval")
    assert [i.id for i in everything] == sorted(i.id for i in instances)
    assert subsample_per_domain(instances, 12, seed=7, label="eval") == everything
